//! Property-based tests for the heap substrate.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use rolp_heap::header::MAX_AGE;
use rolp_heap::region::MAX_REGION_WORDS;
use rolp_heap::{
    ClassId, Heap, HeapConfig, ObjectHeader, ObjectRef, Region, RegionId, RegionKind, SpaceKind,
};

/// One step of the paged-region differential test, applied to region
/// `which` of two. Offsets and lengths are reduced into range when applied;
/// a step that does not apply to the region's state is skipped.
#[derive(Debug, Clone)]
enum RegionOp {
    Assign {
        which: usize,
        words: usize,
    },
    Bump {
        which: usize,
        words: usize,
    },
    Unbump {
        which: usize,
        to: usize,
    },
    SetWord {
        which: usize,
        at: usize,
        value: u64,
    },
    /// Copies from region `which` into the other one.
    Copy {
        which: usize,
        from: usize,
        to: usize,
        len: usize,
    },
    Release {
        which: usize,
    },
}

fn region_op() -> impl Strategy<Value = RegionOp> {
    // Capacities include humongous sizes that are not a multiple of the
    // page size, and the largest region a `u16` page map addresses.
    let words = prop_oneof![8 => 1usize..300, 1 => Just(8193usize), 1 => Just(MAX_REGION_WORDS)];
    let value = prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()];
    // Offsets are reduced modulo the capacity, so they reach every page of
    // the largest region.
    let at = 0usize..MAX_REGION_WORDS;
    prop_oneof![
        1 => (0usize..2, words).prop_map(|(which, words)| RegionOp::Assign { which, words }),
        1 => (0usize..2, 0usize..80).prop_map(|(which, words)| RegionOp::Bump { which, words }),
        1 => (0usize..2, at.clone()).prop_map(|(which, to)| RegionOp::Unbump { which, to }),
        3 => (0usize..2, at.clone(), value)
            .prop_map(|(which, at, value)| RegionOp::SetWord { which, at, value }),
        2 => (0usize..2, at.clone(), at.clone(), 0usize..10_000)
            .prop_map(|(which, from, to, len)| RegionOp::Copy { which, from, to, len }),
        1 => (0usize..2).prop_map(|which| RegionOp::Release { which }),
    ]
}

/// The dense reference for one region: a plain vector of words.
#[derive(Debug, Clone)]
struct DenseRegion {
    words: Vec<u64>,
    top: usize,
    free: bool,
}

fn apply(op: &RegionOp, paged: &mut [Region; 2], dense: &mut [DenseRegion; 2]) {
    match *op {
        RegionOp::Assign { which, words } if dense[which].free => {
            paged[which].assign(RegionKind::Old, words, 1);
            dense[which] = DenseRegion { words: vec![0; words], top: 0, free: false };
        }
        RegionOp::Bump { which, words } if !dense[which].free => {
            let d = &mut dense[which];
            let expected = (d.top + words <= d.words.len()).then(|| {
                d.top += words;
                (d.top - words) as u32
            });
            assert_eq!(paged[which].bump(words), expected);
        }
        RegionOp::Unbump { which, to } if !dense[which].free => {
            let to = to % (dense[which].top + 1);
            paged[which].unbump(to as u32);
            dense[which].top = to;
        }
        RegionOp::SetWord { which, at, value } if !dense[which].free => {
            let at = at % dense[which].words.len();
            paged[which].set_word(at as u32, value);
            dense[which].words[at] = value;
        }
        RegionOp::Copy { which, from, to, len } if !dense[0].free && !dense[1].free => {
            let other = 1 - which;
            let from = from % dense[which].words.len();
            let to = to % dense[other].words.len();
            let len =
                len % ((dense[which].words.len() - from).min(dense[other].words.len() - to) + 1);
            let [a, b] = paged;
            let (src, dst) = if which == 0 { (&*a, b) } else { (&*b, a) };
            dst.copy_from(src, from as u32, to as u32, len);
            let image = dense[which].words[from..from + len].to_vec();
            dense[other].words[to..to + len].copy_from_slice(&image);
        }
        RegionOp::Release { which } if !dense[which].free => {
            paged[which].release();
            let d = &mut dense[which];
            d.words.fill(0);
            d.top = 0;
            d.free = true;
        }
        _ => {}
    }
}

fn panics(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_err()
}

proptest! {
    /// Header fields never bleed into each other, for arbitrary values.
    #[test]
    fn header_fields_are_independent(
        hash in 0u32..(1 << 24),
        ctx in any::<u32>(),
        age in 0u8..=MAX_AGE,
    ) {
        let h = ObjectHeader::new(hash).with_allocation_context(ctx).with_age(age);
        prop_assert_eq!(h.identity_hash(), hash);
        prop_assert_eq!(h.allocation_context(), Some(ctx));
        prop_assert_eq!(h.age(), age);
        prop_assert!(!h.is_biased());
        prop_assert!(!h.is_forwarded());

        // Biasing hides the context but preserves the low bits.
        let b = h.with_bias(7);
        prop_assert_eq!(b.allocation_context(), None);
        prop_assert_eq!(b.age(), age);
        prop_assert_eq!(b.identity_hash(), hash);
    }

    /// Forwarding encodes and decodes any reference the heap can produce.
    #[test]
    fn forwarding_roundtrips(region in 0u32..(1 << 20), offset in any::<u32>()) {
        let target = ObjectRef::new(RegionId(region), offset);
        let f = ObjectHeader::forward_to(target);
        prop_assert!(f.is_forwarded());
        prop_assert_eq!(f.forwardee(), target);
    }

    /// Object refs pack and unpack losslessly.
    #[test]
    fn object_ref_roundtrips(region in 0u32..u32::MAX - 1, offset in any::<u32>()) {
        let r = ObjectRef::new(RegionId(region), offset);
        prop_assert!(!r.is_null());
        prop_assert_eq!(r.region(), RegionId(region));
        prop_assert_eq!(r.offset(), offset);
        prop_assert_eq!(ObjectRef::from_raw(r.raw()), r);
    }

    /// Whatever is written to an object's fields reads back, across many
    /// objects interleaved in the same regions.
    #[test]
    fn field_writes_read_back(
        objects in prop::collection::vec((0u16..4, 0u32..16, any::<u64>()), 1..60),
    ) {
        let mut heap = Heap::new(HeapConfig { region_bytes: 4096, max_heap_bytes: 4 << 20 });
        let class = heap.classes.register("prop.Obj");
        let mut placed = Vec::new();
        for &(refs, data, seed) in &objects {
            let hash = heap.next_identity_hash();
            let obj = heap
                .alloc_in(SpaceKind::Eden, class, refs, data, ObjectHeader::new(hash))
                .expect("fits");
            for j in 0..data {
                heap.set_data(obj, j, seed.wrapping_add(j as u64));
            }
            placed.push((obj, refs, data, seed));
        }
        // Link each object to the previous one where possible.
        for w in placed.windows(2) {
            let (prev, _, _, _) = w[0];
            let (cur, refs, _, _) = w[1];
            if refs > 0 {
                heap.set_ref(cur, 0, prev);
            }
        }
        for &(obj, refs, data, seed) in &placed {
            prop_assert_eq!(heap.ref_words(obj), refs);
            for j in 0..data {
                prop_assert_eq!(heap.get_data(obj, j), seed.wrapping_add(j as u64));
            }
        }
        // The object walk sees exactly the objects placed per region.
        let mut walked = 0;
        for (id, region) in heap.regions() {
            if region.used_bytes() > 0 {
                walked += heap.objects_in_region(id).count();
            }
        }
        prop_assert_eq!(walked, placed.len());
    }

    /// Copying preserves the full object image and forwarding resolves.
    #[test]
    fn copy_preserves_image(
        refs in 0u16..4,
        data in 0u32..16,
        seed in any::<u64>(),
        ctx in any::<u32>(),
    ) {
        let mut heap = Heap::new(HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 });
        let class = heap.classes.register("prop.Obj");
        let header = ObjectHeader::new(1).with_allocation_context(ctx);
        let obj = heap.alloc_in(SpaceKind::Eden, class, refs, data, header).expect("fits");
        let peer = heap
            .alloc_in(SpaceKind::Old, class, 0, 1, ObjectHeader::new(2))
            .expect("fits");
        if refs > 0 {
            heap.set_ref(obj, 0, peer);
        }
        for j in 0..data {
            heap.set_data(obj, j, seed ^ j as u64);
        }

        let copy = heap.copy_object(obj, SpaceKind::Old).expect("space available");
        prop_assert_eq!(heap.resolve(obj), copy);
        prop_assert_eq!(heap.header(copy).allocation_context(), Some(ctx));
        prop_assert_eq!(heap.ref_words(copy), refs);
        if refs > 0 {
            prop_assert_eq!(heap.get_ref(copy, 0), peer);
        }
        for j in 0..data {
            prop_assert_eq!(heap.get_data(copy, j), seed ^ j as u64);
        }
    }
}

proptest! {
    /// A region stored in pages reads exactly like a dense vector of words
    /// under any mix of assignment, allocation, writes, copies and
    /// release, and still panics on access past its capacity.
    #[test]
    fn paged_region_equals_a_dense_model(ops in prop::collection::vec(region_op(), 1..60)) {
        let mut paged = [Region::new(), Region::new()];
        let fresh = DenseRegion { words: Vec::new(), top: 0, free: true };
        let mut dense = [fresh.clone(), fresh];
        for op in &ops {
            apply(op, &mut paged, &mut dense);
            for (r, d) in paged.iter().zip(&dense) {
                prop_assert_eq!(r.capacity_words(), d.words.len());
                prop_assert_eq!(r.top(), d.top);
                for (at, &w) in d.words.iter().enumerate() {
                    prop_assert_eq!(r.word(at as u32), w, "word {} after {:?}", at, op);
                }
                if d.free {
                    prop_assert_eq!(r.backing_bytes(), 0);
                }
            }
        }
        for r in &paged {
            let cap = r.capacity_words() as u32;
            prop_assert!(panics(|| {
                r.word(cap);
            }));
            prop_assert!(panics(|| r.clone().set_word(cap, 0)));
            prop_assert!(panics(|| r.clone().set_word(cap, 1)));
            prop_assert!(panics(|| r.clone().copy_from(r, 0, 0, cap as usize + 1)));
        }
    }
}

#[test]
fn class_table_rejects_nothing_reasonable() {
    let mut heap = Heap::new(HeapConfig { region_bytes: 4096, max_heap_bytes: 1 << 20 });
    for i in 0..100 {
        let id = heap.classes.register(format!("prop.C{i}"));
        assert_eq!(id, ClassId(i as u16));
    }
}
