//! Cassandra-like key-value store workload.
//!
//! Reproduces the object demography the paper measures on Apache
//! Cassandra 2.1.8 under YCSB (Table 1, Figs. 8–10):
//!
//! - *Transient* request/response objects and parse buffers — die within
//!   one GC cycle.
//! - *Middle-lived* memtable entries and their payload buffers — live
//!   from insertion until the memtable flushes, then die together (the
//!   epochal hypothesis).
//! - *Long-lived* SSTable metadata and index structures — survive until
//!   compaction or forever.
//!
//! The crucial profiling challenge is built in: payload buffers for both
//! the transient parse path and the durable write path come from the same
//! factory allocation site (`cassandra.utils.Buffer::allocate`), reachable
//! through two call paths — an allocation-context conflict ROLP must
//! detect and resolve (§4–§5). The paper's package filters
//! (`cassandra.db`, `cassandra.utils`, `cassandra.memory`) are reproduced
//! by putting the transport code in `cassandra.net`, which is *not*
//! profiled.

use rolp::runtime::JvmRuntime;
use rolp::PackageFilters;
use rolp_heap::{ClassId, Handle};
use rolp_vm::{AllocSiteId, CallSiteId, MutatorCtx, ProgramBuilder};

use crate::spec::Workload;
use crate::ycsb::{Op, YcsbGenerator};

/// Estimated memtable-entry lifetime a programmer would annotate for NG2C
/// (in GC cycles / dynamic generation index).
const ENTRY_GEN: u8 = 6;
/// Row-cache entries live a fixed FIFO span, somewhat longer.
const CACHE_GEN: u8 = 8;
/// SSTable metadata: effectively old.
const SSTABLE_GEN: u8 = 15;

/// The three paper workload mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CassandraMix {
    /// Write-intensive: 75% writes (paper "WI").
    WriteIntensive,
    /// Read-write: 50% writes (paper "RW").
    ReadWrite,
    /// Read-intensive: 25% writes (paper "RI").
    ReadIntensive,
}

impl CassandraMix {
    /// Write fraction of the mix.
    pub fn write_fraction(self) -> f64 {
        match self {
            CassandraMix::WriteIntensive => 0.75,
            CassandraMix::ReadWrite => 0.50,
            CassandraMix::ReadIntensive => 0.25,
        }
    }

    /// Paper's short label.
    pub fn label(self) -> &'static str {
        match self {
            CassandraMix::WriteIntensive => "WI",
            CassandraMix::ReadWrite => "RW",
            CassandraMix::ReadIntensive => "RI",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct CassandraParams {
    /// Operation mix.
    pub mix: CassandraMix,
    /// Simulated request pacing: nanoseconds of think time per op
    /// (paper: 10 k ops/s → 100 µs).
    pub op_pacing_ns: u64,
    /// Memtable flush threshold in entries (sized so entries live several
    /// GC cycles — the middle-lived epoch).
    pub memtable_flush_entries: usize,
    /// Key space for the zipfian generator.
    pub key_space: u64,
    /// Transient parse buffers allocated per request (deserialization
    /// churn).
    pub parse_buffers_per_op: usize,
    /// Row-cache capacity in entries. Cache entries are allocated through
    /// the same `Buffer::allocate` factory as the durable write payloads
    /// but live a *fixed* span (FIFO eviction), producing the clustered
    /// second mode that makes the factory an allocation-context conflict.
    pub row_cache_entries: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CassandraParams {
    fn default() -> Self {
        CassandraParams {
            mix: CassandraMix::WriteIntensive,
            op_pacing_ns: 100_000,
            memtable_flush_entries: 60_000,
            key_space: 500_000,
            parse_buffers_per_op: 6,
            row_cache_entries: 30_000,
            seed: 0xCA55,
        }
    }
}

/// Program ids captured at build time.
#[derive(Debug, Clone, Copy)]
struct Ids {
    cs_parse: CallSiteId,
    cs_put: CallSiteId,
    cs_get: CallSiteId,
    cs_insert: CallSiteId,
    cs_read_buf: CallSiteId,
    cs_write_buf: CallSiteId,
    cs_hash: CallSiteId,
    cs_flush: CallSiteId,
    cs_compact: CallSiteId,
    site_request: AllocSiteId,
    site_parse_buf: AllocSiteId,
    site_buffer: AllocSiteId,
    site_entry: AllocSiteId,
    site_response: AllocSiteId,
    site_sstable: AllocSiteId,
    site_index: AllocSiteId,
}

/// Guest classes.
#[derive(Debug, Clone, Copy)]
struct Classes {
    request: ClassId,
    buffer: ClassId,
    entry: ClassId,
    response: ClassId,
    sstable: ClassId,
    index: ClassId,
}

/// The Cassandra-like workload.
pub struct CassandraWorkload {
    params: CassandraParams,
    /// Built by `setup` from the parameters then current.
    gen: Option<YcsbGenerator>,
    ids: Option<Ids>,
    classes: Option<Classes>,
    /// key → live memtable entry handle.
    memtable: std::collections::HashMap<u64, Handle>,
    /// SSTable metadata handles, oldest first.
    sstables: Vec<Handle>,
    /// Long-lived index structures (immortal).
    index: Vec<Handle>,
    /// FIFO row cache (fixed-span lifetimes through the shared factory).
    row_cache: std::collections::VecDeque<Handle>,
    annotate: bool,
    /// Ops processed (drives periodic maintenance).
    ops_done: u64,
    /// Completed flushes (epochs).
    pub flushes: u64,
    /// Completed compactions.
    pub compactions: u64,
}

impl CassandraWorkload {
    /// Creates the workload.
    pub fn new(params: CassandraParams) -> Self {
        CassandraWorkload {
            params,
            gen: None,
            ids: None,
            classes: None,
            memtable: std::collections::HashMap::new(),
            sstables: Vec::new(),
            index: Vec::new(),
            row_cache: std::collections::VecDeque::new(),
            annotate: false,
            ops_done: 0,
            flushes: 0,
            compactions: 0,
        }
    }

    /// The parameters this workload was built with (e.g. to derive a
    /// variant workload from a preset's parameters).
    pub fn params(&self) -> &CassandraParams {
        &self.params
    }

    /// Mutable parameter access for overrides before setup (e.g. the
    /// service harness zeroes `op_pacing_ns` because the arrival schedule
    /// paces requests).
    pub fn params_mut(&mut self) -> &mut CassandraParams {
        &mut self.params
    }

    fn ids(&self) -> Ids {
        self.ids.expect("build_program not called")
    }

    fn classes(&self) -> Classes {
        self.classes.expect("setup not called")
    }

    fn gen(&mut self) -> &mut YcsbGenerator {
        self.gen.as_mut().expect("setup not called")
    }

    /// Allocates a payload buffer through the shared factory (the
    /// conflicted allocation site). `durable` selects the call path;
    /// `gen_hint` is the *programmer knowledge* only NG2C annotations may
    /// use (applied only when annotations are on).
    fn alloc_buffer(
        &mut self,
        ctx: &mut MutatorCtx<'_>,
        words: u32,
        durable: bool,
        gen_hint: Option<u8>,
    ) -> Handle {
        let ids = self.ids();
        let classes = self.classes();
        let annotate = self.annotate;
        ctx.call(if durable { ids.cs_write_buf } else { ids.cs_read_buf }, |ctx| {
            // A tiny inlineable hash helper runs on every buffer
            // allocation (exercises the §7.2.1 inlining rule).
            ctx.call(ids.cs_hash, |ctx| ctx.work(100));
            ctx.work(300);
            match gen_hint.filter(|_| annotate) {
                Some(gen) => ctx.alloc_annotated(ids.site_buffer, classes.buffer, 0, words, gen),
                None => ctx.alloc(ids.site_buffer, classes.buffer, 0, words),
            }
        })
    }

    fn do_write(&mut self, ctx: &mut MutatorCtx<'_>, key: u64) {
        let ids = self.ids();
        let classes = self.classes();
        let words = self.gen().value_words();
        ctx.call(ids.cs_put, |ctx| ctx.work(4_000));
        // Durable payload through the conflicted factory.
        let payload = self.alloc_buffer(ctx, words, true, Some(ENTRY_GEN));
        let annotate = self.annotate;
        let entry = ctx.call(ids.cs_insert, |ctx| {
            ctx.work(2_500);
            let entry = if annotate {
                ctx.alloc_annotated(ids.site_entry, classes.entry, 1, 2, ENTRY_GEN)
            } else {
                ctx.alloc(ids.site_entry, classes.entry, 1, 2)
            };
            ctx.set_ref(entry, 0, &payload);
            ctx.set_data(entry, 0, key);
            entry
        });
        // The entry owns the payload; the local payload handle drops.
        ctx.release(payload);
        if let Some(old) = self.memtable.insert(key, entry) {
            // Overwrite: the previous version dies now.
            ctx.release(old);
        }
        if self.memtable.len() >= self.params.memtable_flush_entries {
            self.flush(ctx);
        }
    }

    fn do_read(&mut self, ctx: &mut MutatorCtx<'_>, key: u64) {
        let ids = self.ids();
        let classes = self.classes();
        let words = self.gen().value_words();
        // Read path: a row-cache fill through the shared factory — the
        // same allocation site as the durable write-path payloads reached
        // through a different call path, with a different (fixed-span)
        // lifetime: the §4/§5 allocation-context conflict.
        let cached = self.alloc_buffer(ctx, words, false, Some(CACHE_GEN));
        self.row_cache.push_back(cached);
        if self.row_cache.len() > self.params.row_cache_entries {
            if let Some(evicted) = self.row_cache.pop_front() {
                ctx.release(evicted);
            }
        }
        let hit = self.memtable.get(&key).copied();
        let response = ctx.call(ids.cs_get, |ctx| {
            ctx.work(6_000);
            let response = ctx.alloc(ids.site_response, classes.response, 1, 4);
            if let Some(entry) = hit {
                // Touch the entry (copies a couple of payload words).
                let v = ctx.get_data(entry, 0);
                ctx.set_data(response, 0, v);
            }
            response
        });
        ctx.release(response);
    }

    /// Memtable flush: every entry (and its payload) dies together; a
    /// small SSTable metadata object is born.
    fn flush(&mut self, ctx: &mut MutatorCtx<'_>) {
        let ids = self.ids();
        let classes = self.classes();
        let annotate = self.annotate;
        let sstable = ctx.call(ids.cs_flush, |ctx| {
            ctx.work(200_000);
            if annotate {
                ctx.alloc_annotated(ids.site_sstable, classes.sstable, 0, 32, SSTABLE_GEN)
            } else {
                ctx.alloc(ids.site_sstable, classes.sstable, 0, 32)
            }
        });
        // Drain in key order: the hash map's iteration order would leak
        // hasher randomness into handle-slot reuse and from there into
        // evacuation order, breaking run determinism.
        let mut entries: Vec<_> = self.memtable.drain().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        for (_, entry) in entries {
            ctx.release(entry);
        }
        self.sstables.push(sstable);
        self.flushes += 1;
        if self.sstables.len() > 8 {
            self.compact(ctx);
        }
    }

    /// Size-tiered compaction: the four oldest SSTables merge into one.
    fn compact(&mut self, ctx: &mut MutatorCtx<'_>) {
        let ids = self.ids();
        let classes = self.classes();
        let annotate = self.annotate;
        let merged = ctx.call(ids.cs_compact, |ctx| {
            ctx.work(500_000);
            if annotate {
                ctx.alloc_annotated(ids.site_sstable, classes.sstable, 0, 48, SSTABLE_GEN)
            } else {
                ctx.alloc(ids.site_sstable, classes.sstable, 0, 48)
            }
        });
        for old in self.sstables.drain(..4) {
            ctx.release(old);
        }
        self.sstables.insert(0, merged);
        self.compactions += 1;
    }
}

impl Workload for CassandraWorkload {
    fn name(&self) -> String {
        format!("Cassandra {}", self.params.mix.label())
    }

    fn profiling_filters(&self) -> PackageFilters {
        // Paper Table 1: cassandra.db, cassandra.utils, cassandra.memory.
        PackageFilters::include(&["cassandra.db", "cassandra.utils", "cassandra.memory"])
    }

    fn annotation_count(&self) -> usize {
        // alloc_annotated code locations: entry, durable buffer, cache
        // buffer, sstable (flush), sstable (compact), index.
        6
    }

    fn set_annotations(&mut self, on: bool) {
        self.annotate = on;
    }

    fn declare_program(&mut self, b: &mut ProgramBuilder) {
        let handle = b.method("cassandra.net.RequestHandler::handle", 400, false);
        let parse = b.method("cassandra.net.RequestHandler::parse", 150, false);
        let put = b.method("cassandra.db.Table::put", 120, false);
        let get = b.method("cassandra.db.Table::get", 140, false);
        let insert = b.method("cassandra.db.Memtable::insert", 90, false);
        let buf_alloc = b.method("cassandra.utils.Buffer::allocate", 60, false);
        let murmur = b.method("cassandra.utils.Murmur::hash", 12, true); // inlined
        let flush = b.method("cassandra.db.Memtable::flush", 300, false);
        let compact = b.method("cassandra.db.Compaction::compact", 350, false);

        let ids = Ids {
            cs_parse: b.call_site(handle, parse),
            cs_put: b.call_site(handle, put),
            cs_get: b.call_site(handle, get),
            cs_insert: b.call_site(put, insert),
            cs_read_buf: b.call_site(get, buf_alloc),
            cs_write_buf: b.call_site(insert, buf_alloc),
            cs_hash: b.call_site(buf_alloc, murmur),
            cs_flush: b.call_site(insert, flush),
            cs_compact: b.call_site(flush, compact),
            site_request: b.alloc_site(parse, 4),
            site_parse_buf: b.alloc_site(parse, 8),
            site_buffer: b.alloc_site(buf_alloc, 2),
            site_entry: b.alloc_site(insert, 11),
            site_response: b.alloc_site(get, 9),
            site_sstable: b.alloc_site(flush, 21),
            site_index: b.alloc_site(compact, 30),
        };
        self.ids = Some(ids);
    }

    fn setup(&mut self, rt: &mut JvmRuntime) {
        let p = &self.params;
        self.gen = Some(YcsbGenerator::new(p.key_space, p.mix.write_fraction(), p.seed));
        let classes = Classes {
            request: rt.vm.env.heap.classes.register("cassandra.net.Request"),
            buffer: rt.vm.env.heap.classes.register("cassandra.utils.Buffer"),
            entry: rt.vm.env.heap.classes.register("cassandra.db.Memtable$Entry"),
            response: rt.vm.env.heap.classes.register("cassandra.net.Response"),
            sstable: rt.vm.env.heap.classes.register("cassandra.db.SSTable"),
            index: rt.vm.env.heap.classes.register("cassandra.db.Index"),
        };
        self.classes = Some(classes);

        // Long-lived index structures (partition summaries etc.).
        let ids = self.ids();
        let mut ctx = rt.ctx(rolp_vm::ThreadId(0));
        for _ in 0..64 {
            let h = if self.annotate {
                ctx.alloc_annotated(ids.site_index, classes.index, 0, 128, SSTABLE_GEN)
            } else {
                ctx.alloc(ids.site_index, classes.index, 0, 128)
            };
            self.index.push(h);
        }
    }

    fn tick(&mut self, ctx: &mut MutatorCtx<'_>) -> u64 {
        let ids = self.ids();
        let classes = self.classes();
        let op = self.gen().next_op();
        let parse_buffers = self.params.parse_buffers_per_op;

        // Request parsing (transient): a request object + deserialization
        // buffers through the *same* factory site as durable payloads.
        let request = ctx.call(ids.cs_parse, |ctx| {
            ctx.work(3_000);
            ctx.alloc(ids.site_request, classes.request, 1, 6)
        });
        let mut transients = Vec::with_capacity(parse_buffers);
        for _ in 0..parse_buffers {
            let words = self.gen().value_words();
            let h = ctx.call(ids.cs_parse, |ctx| {
                ctx.work(400);
                ctx.alloc(ids.site_parse_buf, classes.buffer, 0, words)
            });
            transients.push(h);
        }

        match op {
            Op::Write(key) => self.do_write(ctx, key),
            Op::Read(key) => self.do_read(ctx, key),
        }

        // Request done: transients die.
        for t in transients {
            ctx.release(t);
        }
        ctx.release(request);

        ctx.idle(self.params.op_pacing_ns);
        self.ops_done += 1;
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{execute, RunBudget};
    use rolp::runtime::{CollectorKind, RuntimeConfig};
    use rolp_heap::HeapConfig;

    fn small_params() -> CassandraParams {
        CassandraParams {
            memtable_flush_entries: 500,
            key_space: 5_000,
            op_pacing_ns: 1_000,
            ..Default::default()
        }
    }

    fn small_config(kind: CollectorKind) -> RuntimeConfig {
        RuntimeConfig {
            collector: kind,
            heap: HeapConfig { region_bytes: 64 * 1024, max_heap_bytes: 24 << 20 },
            ..Default::default()
        }
    }

    #[test]
    fn runs_and_flushes_under_g1() {
        let mut w = CassandraWorkload::new(small_params());
        let out = execute(&mut w, small_config(CollectorKind::G1), &RunBudget::smoke(8_000));
        assert_eq!(out.report.ops, 8_000);
        assert!(w.flushes >= 2, "memtable epochs expected, got {}", w.flushes);
        assert!(out.report.gc_cycles >= 1);
    }

    #[test]
    fn rolp_profiles_and_eventually_pretenures() {
        let mut w = CassandraWorkload::new(small_params());
        let out = execute(&mut w, small_config(CollectorKind::RolpNg2c), &RunBudget::smoke(60_000));
        let rolp = out.report.rolp.expect("rolp stats present");
        assert!(rolp.profiled_allocations > 0, "hot sites get profiled");
        assert!(rolp.inferences >= 1, "inference ran: {rolp:?}");
        assert!(rolp.decisions > 0, "lifetime decisions made: {rolp:?}");
    }

    #[test]
    fn ng2c_annotations_pretenure_immediately() {
        let mut w = CassandraWorkload::new(small_params());
        let out = execute(&mut w, small_config(CollectorKind::Ng2c), &RunBudget::smoke(5_000));
        assert!(out.report.ops == 5_000);
        assert!(w.annotation_count() > 0);
    }

    #[test]
    fn mixes_have_distinct_write_fractions() {
        assert!(
            CassandraMix::WriteIntensive.write_fraction()
                > CassandraMix::ReadWrite.write_fraction()
        );
        assert!(
            CassandraMix::ReadWrite.write_fraction() > CassandraMix::ReadIntensive.write_fraction()
        );
    }
}
