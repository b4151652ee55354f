//! Checkpoint-recovery accounting (paper Section 4.1).
//!
//! Speculative Accordion operation embraces timing errors, relying on
//! the application's fault tolerance for data-intensive phases — but a
//! checkpoint-recovery safety net still guards against failures the
//! application cannot absorb (control corruption, unacceptable quality
//! collapse). The paper argues this net comes "of significantly
//! reduced complexity due to the anticipated decrease in the frequency
//! of checkpointing and recovery"; this module quantifies that: the
//! classic Young/Daly optimum checkpoint interval and the expected
//! execution-time dilation as a function of the rate of
//! *net-triggering* failures.

use accordion_telemetry::event::SimEvent;
use accordion_telemetry::{counter, flight};

/// Checkpoint/restore cost parameters, in cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointParams {
    /// Cycles to take one checkpoint.
    pub checkpoint_cycles: f64,
    /// Cycles to restore from a checkpoint after a failure.
    pub restore_cycles: f64,
}

impl CheckpointParams {
    /// A plausible configuration for the Accordion chip: checkpointing
    /// a core's architectural state plus dirty private-memory lines to
    /// the cluster memory.
    pub fn paper_default() -> Self {
        Self {
            checkpoint_cycles: 50_000.0,
            restore_cycles: 100_000.0,
        }
    }

    /// The Young/Daly optimum checkpoint interval for a mean time
    /// between net-triggering failures of `mtbf_cycles`:
    /// `sqrt(2 · C · MTBF)`.
    ///
    /// # Panics
    ///
    /// Panics if `mtbf_cycles` is not positive.
    pub fn optimal_interval_cycles(&self, mtbf_cycles: f64) -> f64 {
        assert!(mtbf_cycles > 0.0, "MTBF must be positive");
        let tau = (2.0 * self.checkpoint_cycles * mtbf_cycles).sqrt();
        counter!("sim.checkpoint.plans").inc();
        flight!(SimEvent::CheckpointPlan {
            mtbf_cycles,
            interval_cycles: tau,
        });
        tau
    }

    /// Expected number of checkpoints taken over a `work_cycles`-long
    /// execution at the optimal interval for `mtbf_cycles` — the
    /// quantity the paper predicts shrinks dramatically under
    /// application-level fault absorption.
    pub fn expected_checkpoints(&self, work_cycles: f64, mtbf_cycles: f64) -> f64 {
        assert!(work_cycles >= 0.0, "work must be non-negative");
        let n = work_cycles / self.optimal_interval_cycles(mtbf_cycles);
        counter!("sim.checkpoint.taken").add(n.round().max(0.0) as u64);
        n
    }

    /// Expected execution-time dilation factor (≥ 1) when running with
    /// the optimal interval against failures of rate `1 / mtbf_cycles`.
    ///
    /// First-order Young/Daly model: overhead ≈ C/τ + τ/(2·MTBF) plus
    /// the restore cost paid once per failure.
    pub fn dilation_factor(&self, mtbf_cycles: f64) -> f64 {
        let tau = self.optimal_interval_cycles(mtbf_cycles);
        let checkpoint_overhead = self.checkpoint_cycles / tau;
        let rework_overhead = tau / (2.0 * mtbf_cycles);
        let restore_overhead = self.restore_cycles / mtbf_cycles;
        1.0 + checkpoint_overhead + rework_overhead + restore_overhead
    }

    /// Dilation when a per-cycle error rate `perr` triggers the net
    /// with probability `escalation` per error (most timing errors are
    /// absorbed by the application layer; only the rare escalations
    /// reach recovery).
    ///
    /// # Panics
    ///
    /// Panics if the implied failure rate is zero (no failures — the
    /// caller should skip recovery accounting entirely).
    pub fn dilation_for_error_rate(&self, perr: f64, escalation: f64) -> f64 {
        let rate = perr * escalation;
        assert!(rate > 0.0, "failure rate must be positive");
        self.dilation_factor(1.0 / rate)
    }
}

impl Default for CheckpointParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn young_daly_interval() {
        let p = CheckpointParams {
            checkpoint_cycles: 100.0,
            restore_cycles: 0.0,
        };
        // sqrt(2 · 100 · 2e6) = 20_000.
        assert!((p.optimal_interval_cycles(2e6) - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn dilation_decreases_with_mtbf() {
        let p = CheckpointParams::paper_default();
        let frequent = p.dilation_factor(1e8);
        let rare = p.dilation_factor(1e12);
        assert!(frequent > rare);
        assert!(rare > 1.0);
    }

    #[test]
    fn rare_failures_make_recovery_cheap() {
        // The paper's argument: at speculative-Accordion error rates,
        // with the application absorbing nearly all errors, recovery
        // dilation is negligible.
        let p = CheckpointParams::paper_default();
        // Perr = 1e-6 per cycle; 1 in 1e6 errors escalates.
        let d = p.dilation_for_error_rate(1e-6, 1e-6);
        assert!(d < 1.01, "dilation {d} should be <1%");
    }

    #[test]
    fn frequent_escalation_would_dominate() {
        // Conversely, if every error needed recovery, speculation at
        // Perr = 1e-6 would be hopeless — the justification for the
        // decoupled CC/DC architecture.
        let p = CheckpointParams::paper_default();
        let d = p.dilation_for_error_rate(1e-6, 1.0);
        assert!(d > 1.3, "dilation {d} should be prohibitive");
    }

    #[test]
    fn dilation_exceeds_one_always() {
        let p = CheckpointParams::paper_default();
        for exp in 6..14 {
            assert!(p.dilation_factor(10f64.powi(exp)) > 1.0);
        }
    }

    #[test]
    fn expected_checkpoints_scale_with_work() {
        let p = CheckpointParams {
            checkpoint_cycles: 100.0,
            restore_cycles: 0.0,
        };
        // Interval is 20_000 cycles (see young_daly_interval); 1e8
        // cycles of work therefore takes 5_000 checkpoints.
        assert!((p.expected_checkpoints(1e8, 2e6) - 5_000.0).abs() < 1e-9);
        assert_eq!(p.expected_checkpoints(0.0, 2e6), 0.0);
    }

    #[test]
    #[should_panic(expected = "MTBF must be positive")]
    fn zero_mtbf_rejected() {
        CheckpointParams::paper_default().optimal_interval_cycles(0.0);
    }
}
