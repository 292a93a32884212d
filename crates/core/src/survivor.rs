//! Survivor-tracking shutdown (paper §7.4).
//!
//! After pretenuring kicks in, the per-survivor OLD-table lookup becomes
//! the dominant cost of a young collection. ROLP therefore turns the
//! survivor-tracking code *off* once the workload is stable — profiling
//! decisions unchanged over a whole inference round — and turns it back on
//! if the average pause time grows more than 10% over the last value
//! recorded while tracking was active.

/// Allowed average-pause growth before tracking re-enables (§7.4).
const REACTIVATION_THRESHOLD: f64 = 0.10;

/// Controller for the survivor-tracking switch.
#[derive(Debug, Clone)]
pub struct SurvivorTracking {
    enabled: bool,
    /// Pause time (ms) and pause count since the last inference round.
    window_pause_ms: f64,
    window_pauses: u64,
    /// Mean pause (ms) recorded while tracking was last active.
    baseline_pause_ms: Option<f64>,
    /// Hash of the previous inference round's decisions.
    last_decisions_hash: Option<u64>,
    /// Times the switch turned off / back on (for reports).
    pub shutdowns: u64,
    /// Times tracking was re-enabled by pause growth.
    pub reactivations: u64,
}

impl SurvivorTracking {
    /// Creates the controller, tracking on.
    pub fn new() -> Self {
        SurvivorTracking {
            enabled: true,
            window_pause_ms: 0.0,
            window_pauses: 0,
            baseline_pause_ms: None,
            last_decisions_hash: None,
            shutdowns: 0,
            reactivations: 0,
        }
    }

    /// Whether survivor tracking is currently on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Adds one GC pause to the current round's window.
    pub fn record_pause(&mut self, pause_ms: f64) {
        self.window_pause_ms += pause_ms;
        self.window_pauses += 1;
    }

    /// Closes one inference round and starts the next pause window.
    /// `decisions_hash` is the (order-independent) hash of the current
    /// decisions, or `None` when the round may not move the switch (the
    /// caller's preconditions for a shutdown do not hold).
    pub fn on_inference(&mut self, decisions_hash: Option<u64>) {
        let pauses = std::mem::take(&mut self.window_pauses);
        let total_ms = std::mem::take(&mut self.window_pause_ms);
        let mean_pause_ms = if pauses == 0 { 0.0 } else { total_ms / pauses as f64 };
        let Some(decisions_hash) = decisions_hash else {
            return;
        };
        if self.enabled {
            let stable = self.last_decisions_hash == Some(decisions_hash);
            self.baseline_pause_ms = Some(mean_pause_ms);
            if stable {
                self.enabled = false;
                self.shutdowns += 1;
            }
        } else if let Some(base) = self.baseline_pause_ms {
            if base > 0.0 && mean_pause_ms > base * (1.0 + REACTIVATION_THRESHOLD) {
                self.enabled = true;
                self.reactivations += 1;
            }
        }
        self.last_decisions_hash = Some(decisions_hash);
    }

    /// Order-independent hash of a decision set.
    pub fn hash_decisions(decisions: &[(u32, u8)]) -> u64 {
        // XOR of per-entry mixes: commutative, so iteration order of the
        // underlying map does not matter.
        decisions
            .iter()
            .map(|&(ctx, gen)| {
                let mut z = (ctx as u64) << 8 | gen as u64;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            })
            .fold(0u64, |a, b| a ^ b)
    }
}

impl Default for SurvivorTracking {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One inference round with a single pause of `pause_ms`.
    fn round(s: &mut SurvivorTracking, hash: u64, pause_ms: f64) {
        s.record_pause(pause_ms);
        s.on_inference(Some(hash));
    }

    #[test]
    fn stable_decisions_shut_tracking_down() {
        let mut s = SurvivorTracking::new();
        assert!(s.enabled());
        round(&mut s, 42, 5.0);
        assert!(s.enabled(), "first round only records the hash");
        round(&mut s, 42, 5.0);
        assert!(!s.enabled(), "second identical round shuts tracking down");
        assert_eq!(s.shutdowns, 1);
    }

    #[test]
    fn changing_decisions_keep_tracking_on() {
        let mut s = SurvivorTracking::new();
        round(&mut s, 1, 5.0);
        round(&mut s, 2, 5.0);
        round(&mut s, 3, 5.0);
        assert!(s.enabled());
    }

    #[test]
    fn pause_growth_reactivates() {
        let mut s = SurvivorTracking::new();
        round(&mut s, 42, 5.0);
        round(&mut s, 42, 5.0);
        assert!(!s.enabled());
        // Within 10%: stays off.
        round(&mut s, 42, 5.4);
        assert!(!s.enabled());
        // Above 10% growth over the active-tracking baseline: back on.
        round(&mut s, 42, 5.6);
        assert!(s.enabled());
        assert_eq!(s.reactivations, 1);
    }

    #[test]
    fn decision_hash_is_order_independent() {
        let a = SurvivorTracking::hash_decisions(&[(1, 2), (3, 4)]);
        let b = SurvivorTracking::hash_decisions(&[(3, 4), (1, 2)]);
        assert_eq!(a, b);
        let c = SurvivorTracking::hash_decisions(&[(1, 2), (3, 5)]);
        assert_ne!(a, c);
    }
}
