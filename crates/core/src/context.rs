//! Allocation contexts.
//!
//! An allocation context is the paper's 32-bit tuple (§3.1): the 16-bit
//! allocation-site identifier in the upper half and the 16-bit thread
//! stack state in the lower half. It is installed in the upper 32 bits of
//! the object header at allocation and read back during GC survivor
//! processing.
//!
//! The 16-bit halves are hard capacity limits (§7.5): a site-id counter
//! that *wrapped* past `u16::MAX` would silently alias two different
//! allocation sites into one packed context, corrupting every downstream
//! consumer (OLD-table rows, inference, published decisions). The id
//! space therefore **saturates**: [`SiteIdSpace`] hands out ids `1..=
//! u16::MAX` exactly once, refuses further requests, and counts the
//! refusals so the overflow is reported instead of hidden. Refused sites
//! simply stay unprofiled — NG2C semantics, allocation in generation 0 —
//! the graceful degradation §7.5 asks for.

/// Largest assignable allocation-site id (id 0 is reserved for
/// "unprofiled").
pub const MAX_SITE_ID: u16 = u16::MAX;

/// Packs a site id and thread stack state into a 32-bit context.
#[inline]
pub fn pack(site_id: u16, tss: u16) -> u32 {
    ((site_id as u32) << 16) | tss as u32
}

/// The allocation-site half of a context.
#[inline]
pub fn site_of(context: u32) -> u16 {
    (context >> 16) as u16
}

/// The thread-stack-state half of a context.
#[inline]
pub fn tss_of(context: u32) -> u16 {
    context as u16
}

/// Whether `context`'s site half is an assigned profile id: site ids are
/// handed out densely from 1, so this is a bound check against the id
/// space the JIT has handed out so far.
#[inline]
pub fn context_known(context: u32, max_profile_id: u16) -> bool {
    let site = site_of(context);
    site != 0 && site <= max_profile_id
}

/// Saturating allocator for the 16-bit site-id space.
///
/// Ids are handed out sequentially starting at 1 and are never reused;
/// once `MAX_SITE_ID` has been assigned the space is exhausted and every
/// further request returns `None` (and is counted), rather than wrapping
/// back into ids that already name *other* sites.
#[derive(Debug, Clone, Default)]
pub struct SiteIdSpace {
    next: u16,
    exhausted: bool,
    overflow_requests: u64,
}

impl SiteIdSpace {
    /// A fresh id space (next id: 1; id 0 reserved for "unprofiled").
    pub fn new() -> Self {
        SiteIdSpace { next: 1, exhausted: false, overflow_requests: 0 }
    }

    /// Assigns the next site id, or `None` once the space is exhausted.
    pub fn assign(&mut self) -> Option<u16> {
        if self.exhausted {
            self.overflow_requests += 1;
            return None;
        }
        let id = self.next;
        if id == MAX_SITE_ID {
            self.exhausted = true;
        } else {
            self.next = id + 1;
        }
        Some(id)
    }

    /// True once every id in `1..=MAX_SITE_ID` has been assigned (or the
    /// space was force-exhausted).
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Requests refused after exhaustion — the reported (not silent)
    /// overflow.
    pub fn overflow_requests(&self) -> u64 {
        self.overflow_requests
    }

    /// Marks the space exhausted immediately (a test seam: "site-id
    /// exhaustion past 2^16" without allocating 65 535 real sites).
    pub fn force_exhaust(&mut self) {
        self.exhausted = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_roundtrip() {
        let c = pack(0xBEEF, 0x1234);
        assert_eq!(site_of(c), 0xBEEF);
        assert_eq!(tss_of(c), 0x1234);
    }

    #[test]
    fn zero_tss_keeps_site() {
        let c = pack(7, 0);
        assert_eq!(c, 7 << 16);
        assert_eq!(site_of(c), 7);
        assert_eq!(tss_of(c), 0);
    }

    #[test]
    fn context_known_bounds_check() {
        assert!(!context_known(pack(0, 0), 100));
        assert!(context_known(pack(100, 5), 100));
        assert!(!context_known(pack(101, 0), 100));
    }

    /// Regression for the silent 16-bit wrap: a `wrapping_add(1)` id
    /// counter aliases site 65 536 onto site 1's packed context. The
    /// saturating allocator refuses instead, so no two assigned ids ever
    /// produce the same context.
    #[test]
    fn wrapping_id_assignment_would_alias_contexts() {
        // What the buggy allocator did: hand out `next` and wrap.
        let mut wrapped_next: u16 = MAX_SITE_ID; // 65 535 sites assigned
        let last_id = wrapped_next;
        wrapped_next = wrapped_next.wrapping_add(1); // silently back to 0
        let alias_id = wrapped_next.wrapping_add(1); // "new" site gets id 1
        assert_eq!(alias_id, 1, "the wrap re-issues the very first id");
        assert_eq!(
            pack(alias_id, 0x42),
            pack(1, 0x42),
            "two distinct sites now share one packed context"
        );
        assert_ne!(pack(last_id, 0x42), pack(alias_id, 0x42));

        // The fixed allocator saturates and reports.
        let mut space = SiteIdSpace::new();
        space.force_exhaust();
        assert_eq!(space.assign(), None);
        assert_eq!(space.assign(), None);
        assert_eq!(space.overflow_requests(), 2);
    }

    #[test]
    fn site_id_space_assigns_unique_ids_then_saturates() {
        let mut space = SiteIdSpace::new();
        assert_eq!(space.assign(), Some(1));
        assert_eq!(space.assign(), Some(2));
        assert!(!space.exhausted());

        // Walk the space to the end without allocating 64 Ki contexts.
        let mut space =
            SiteIdSpace { next: MAX_SITE_ID - 1, exhausted: false, overflow_requests: 0 };
        assert_eq!(space.assign(), Some(MAX_SITE_ID - 1));
        assert_eq!(space.assign(), Some(MAX_SITE_ID));
        assert!(space.exhausted());
        assert_eq!(space.assign(), None, "saturates instead of wrapping to 0/1");
        assert_eq!(space.overflow_requests(), 1);
    }
}
