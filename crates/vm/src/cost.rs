//! The simulated-time cost model.
//!
//! Every mutator action and every unit of collector work charges a cost in
//! simulated nanoseconds. The constants are calibrated against the paper's
//! testbed (Intel Xeon E5505, 16 GB RAM, OpenJDK 8): copy bandwidth is the
//! published bottleneck for GC pauses (paper §1, §2.1), interpreted code
//! runs an order of magnitude slower than compiled code, and ROLP's
//! profiling instructions cost what the paper's assembly analysis
//! (§3.2.4) implies — a near-free not-taken branch on a cached word for
//! disabled call profiling, a few nanoseconds of TLS arithmetic when
//! enabled, and a table increment plus header install per profiled
//! allocation.
//!
//! When experiments scale the heap down by `1/s`, the copy bandwidth is
//! scaled down by the same factor so reported pause magnitudes stay
//! comparable with the paper's milliseconds (see `DESIGN.md` §8).

use rolp_metrics::SimScale;

/// Nanosecond costs for mutator and collector actions.
#[derive(Debug, Clone)]
pub struct CostModel {
    // --- Mutator execution ---
    /// One unit of compiled guest work.
    pub compiled_op_ns: u64,
    /// One unit of interpreted guest work.
    pub interpreted_op_ns: u64,
    /// Compiled (non-inlined) call + return overhead.
    pub call_ns: u64,
    /// Interpreted call + return overhead.
    pub interpreted_call_ns: u64,
    /// Allocation fast path (TLAB bump + header store).
    pub alloc_ns: u64,
    /// TLAB refill stall: carving a fresh chunk from a region frontier
    /// under the heap lock. Charged to the GC bucket, not application
    /// time — the stall is heap machinery, exactly like a pause.
    pub tlab_refill_ns: u64,
    /// Extra allocation cost when the allocating method is interpreted.
    pub interpreted_alloc_extra_ns: u64,
    /// Zeroing/initialization per word allocated.
    pub alloc_init_word_ns: u64,
    /// Reference or data field load.
    pub field_load_ns: u64,
    /// Reference or data field store (includes the G1 write barrier).
    pub field_store_ns: u64,
    /// One-time cost of JIT-compiling a method, per bytecode unit.
    pub jit_compile_per_bytecode_ns: u64,

    // --- ROLP profiling instructions (paper §3.2.4) ---
    /// Disabled call-site profiling: `mov; mov; test; je` on a value cached
    /// next to the code — the "fast profiling branch".
    pub profile_call_fast_ns: u64,
    /// Enabled call-site profiling: the fast path plus `add`/`sub` on the
    /// TLS-resident thread stack state — the "slow profiling branch".
    /// Charged once at entry and once at exit.
    pub profile_call_slow_ns: u64,
    /// Profiled allocation: OLD-table increment + context install.
    pub profile_alloc_ns: u64,
    /// Per-survivor OLD-table lookup/update during GC (the §7.4 cost that
    /// motivates survivor-tracking shutdown).
    pub profile_survivor_ns: u64,
    /// Profiled allocation in *interpreted* code (Memento-style ablation):
    /// the interpreter cannot cache site metadata next to compiled code,
    /// so the per-allocation cost is several times the jitted path.
    pub profile_alloc_interpreted_ns: u64,

    // --- Collector work ---
    /// Effective object-copy bandwidth in bytes per second, *per GC
    /// worker* (memory-bandwidth-bound, paper §2.1).
    pub copy_bandwidth_bytes_per_sec: u64,
    /// Number of modeled parallel GC workers: divides the parallelizable
    /// pause work (roots, remembered sets, copying, survivors).
    pub gc_workers: u64,
    /// Fixed safepoint synchronization cost per pause.
    pub safepoint_ns: u64,
    /// Root-set scan per live handle.
    pub root_scan_ns: u64,
    /// Per-survivor processing overhead (forwarding, age update) beyond
    /// raw copy bandwidth.
    pub survivor_overhead_ns: u64,
    /// Remembered-set slot scan cost per entry.
    pub remset_scan_ns: u64,
    /// Per-region fixed cost of including a region in a collection.
    pub region_overhead_ns: u64,

    // --- Concurrent-collector taxes (paper §2.2, §8.5) ---
    /// Load-barrier cost per reference load (ZGC/C4 class collectors).
    pub concurrent_load_barrier_ns: u64,
    /// Store-barrier cost per field store.
    pub concurrent_store_barrier_ns: u64,
    /// Per-mille slowdown of compiled guest work under a fully concurrent
    /// collector (load barriers on every compiled memory access; the
    /// paper's §2.2/§8.5 throughput tax).
    pub concurrent_work_tax_permille: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            compiled_op_ns: 1,
            interpreted_op_ns: 12,
            call_ns: 3,
            interpreted_call_ns: 35,
            alloc_ns: 14,
            tlab_refill_ns: 160,
            interpreted_alloc_extra_ns: 40,
            alloc_init_word_ns: 1,
            field_load_ns: 2,
            field_store_ns: 4,
            jit_compile_per_bytecode_ns: 900,
            profile_call_fast_ns: 1,
            profile_call_slow_ns: 3,
            profile_alloc_ns: 7,
            profile_survivor_ns: 18,
            profile_alloc_interpreted_ns: 45,
            copy_bandwidth_bytes_per_sec: 3_000_000_000,
            gc_workers: 4,
            safepoint_ns: 120_000,
            root_scan_ns: 40,
            survivor_overhead_ns: 24,
            remset_scan_ns: 22,
            region_overhead_ns: 18_000,
            concurrent_load_barrier_ns: 1,
            concurrent_store_barrier_ns: 3,
            concurrent_work_tax_permille: 180,
        }
    }
}

impl CostModel {
    /// The default model with copy bandwidth scaled down to match a heap
    /// scaled by `scale`, keeping pause magnitudes comparable to the paper.
    pub fn scaled(scale: SimScale) -> Self {
        let mut m = CostModel::default();
        m.copy_bandwidth_bytes_per_sec = (m.copy_bandwidth_bytes_per_sec / scale.divisor()).max(1);
        m
    }

    /// Nanoseconds to copy `bytes` with all GC workers pulling.
    pub fn copy_ns(&self, bytes: u64) -> u64 {
        let per_sec = self.copy_bandwidth_bytes_per_sec.saturating_mul(self.gc_workers);
        // ns = bytes / (bytes/s) * 1e9, computed in u128 to avoid overflow.
        ((bytes as u128 * 1_000_000_000) / per_sec.max(1) as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_time_matches_bandwidth() {
        let m = CostModel::default();
        // 12 GB/s aggregate => 1 GiB in ~89 ms.
        let ns = m.copy_ns(1 << 30);
        let ms = ns as f64 / 1e6;
        assert!(ms > 80.0 && ms < 100.0, "got {ms} ms");
    }

    #[test]
    fn scaling_divides_bandwidth() {
        let full = CostModel::default();
        let scaled = CostModel::scaled(SimScale::new(16));
        assert_eq!(scaled.copy_bandwidth_bytes_per_sec * 16, full.copy_bandwidth_bytes_per_sec);
        // Copying a 16x smaller survivor set therefore takes the same time.
        assert_eq!(full.copy_ns(16 << 20), scaled.copy_ns(1 << 20));
    }

    #[test]
    fn interpreted_code_is_an_order_slower() {
        let m = CostModel::default();
        assert!(m.interpreted_op_ns >= 10 * m.compiled_op_ns);
        assert!(m.interpreted_call_ns >= 10 * m.call_ns);
    }

    #[test]
    fn fast_profiling_branch_is_cheaper_than_slow() {
        let m = CostModel::default();
        assert!(m.profile_call_fast_ns < m.profile_call_slow_ns);
    }
}
