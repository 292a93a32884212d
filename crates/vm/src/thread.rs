//! Mutator threads and the thread stack state.
//!
//! Each guest thread carries the 16-bit *thread stack state* (TSS) the
//! paper maintains in thread-local storage: a commutative hash of the call
//! path, updated with wrapping addition at profiled call entries and
//! wrapping subtraction at exits (§3.2.1). Frames additionally remember
//! the amount that was actually added at entry, which is what lets the
//! end-of-GC reconciliation (§7.2.3) and the test suite compute the ground
//! truth after OSR, dynamic enable/disable, or exception unwinding have
//! corrupted the live value.

use crate::program::CallSiteId;

/// Identifier of a guest mutator thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreadId(pub u32);

/// One frame of a guest thread's call stack.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    /// The call site that created this frame.
    pub call_site: CallSiteId,
    /// The delta actually added to the TSS at entry (0 if the site was not
    /// profiled at entry time).
    pub added: u16,
}

/// A guest mutator thread.
#[derive(Debug, Clone)]
pub struct MutatorThread {
    /// Thread identifier (also used as the biased-locking owner id).
    pub id: ThreadId,
    /// The live thread stack state word (may be corrupted; see module
    /// docs).
    pub tss: u16,
    /// Active frames, bottom to top.
    pub frames: Vec<Frame>,
}

impl MutatorThread {
    /// Creates an idle thread with an empty stack.
    pub fn new(id: ThreadId) -> Self {
        MutatorThread { id, tss: 0, frames: Vec::new() }
    }

    /// Applies the entry-side TSS update and pushes a frame.
    pub fn push_frame(&mut self, call_site: CallSiteId, delta: u16) {
        self.tss = self.tss.wrapping_add(delta);
        self.frames.push(Frame { call_site, added: delta });
    }

    /// Pops a frame and applies the exit-side TSS update with the *current*
    /// delta of the site — which is what compiled code does, and which
    /// diverges from `added` when profiling was toggled mid-call.
    pub fn pop_frame(&mut self, current_delta: u16) -> Frame {
        let f = self.frames.pop().expect("pop on empty guest stack");
        self.tss = self.tss.wrapping_sub(current_delta);
        f
    }

    /// Pops a frame without touching the TSS (exception unwinding when the
    /// rethrow hook is disabled — the corruption case of §7.2.2).
    pub fn pop_frame_skipping_update(&mut self) -> Frame {
        self.frames.pop().expect("pop on empty guest stack")
    }

    /// The TSS value the live stack *should* have given current per-site
    /// deltas: the sum of the current deltas of every profiled frame on
    /// the stack. This is what the paper's end-of-GC stack traversal
    /// computes (§7.2.3).
    pub fn expected_tss(&self, current_delta: impl Fn(CallSiteId) -> u16) -> u16 {
        self.frames.iter().fold(0u16, |acc, f| acc.wrapping_add(current_delta(f.call_site)))
    }

    /// Overwrites the live TSS (the reconciliation fix).
    pub fn reconcile_tss(&mut self, value: u16) {
        self.tss = value;
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CS_A: CallSiteId = CallSiteId(0);
    const CS_B: CallSiteId = CallSiteId(1);

    #[test]
    fn push_pop_is_balanced_when_deltas_are_stable() {
        let mut t = MutatorThread::new(ThreadId(1));
        t.push_frame(CS_A, 100);
        t.push_frame(CS_B, 7);
        assert_eq!(t.tss, 107);
        t.pop_frame(7);
        t.pop_frame(100);
        assert_eq!(t.tss, 0);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn tss_wraps_instead_of_overflowing() {
        let mut t = MutatorThread::new(ThreadId(1));
        t.push_frame(CS_A, u16::MAX);
        t.push_frame(CS_B, 2);
        assert_eq!(t.tss, 1); // 65535 + 2 wraps to 1
        t.pop_frame(2);
        t.pop_frame(u16::MAX);
        assert_eq!(t.tss, 0);
    }

    #[test]
    fn toggling_profiling_mid_call_corrupts_and_reconciles() {
        let mut t = MutatorThread::new(ThreadId(1));
        // Enter while profiling disabled (delta 0)...
        t.push_frame(CS_A, 0);
        // ...profiling gets enabled mid-call; compiled exit code now
        // subtracts the nonzero delta.
        t.pop_frame(55);
        assert_eq!(t.tss, 0u16.wrapping_sub(55), "live TSS is corrupted");
        // Reconciliation against the (now empty) stack repairs it.
        let expected = t.expected_tss(|_| 55);
        t.reconcile_tss(expected);
        assert_eq!(t.tss, 0);
    }

    #[test]
    fn skipped_exception_update_leaves_residue() {
        let mut t = MutatorThread::new(ThreadId(1));
        t.push_frame(CS_A, 9);
        t.pop_frame_skipping_update();
        assert_eq!(t.tss, 9, "unwind without the rethrow hook leaks the delta");
    }

    #[test]
    fn expected_tss_sums_current_deltas_of_live_frames() {
        let mut t = MutatorThread::new(ThreadId(1));
        t.push_frame(CS_A, 10);
        t.push_frame(CS_B, 0); // was unprofiled at entry
                               // Site B has since been enabled with delta 4.
        let expected = t.expected_tss(|cs| if cs == CS_A { 10 } else { 4 });
        assert_eq!(expected, 14);
    }
}
