//! Application-level CC/DC execution: alternating control and data
//! phases.
//!
//! The paper's execution model (Section 4.1) runs an RMS application
//! as a sequence of *control* phases — the master CC prepares inputs,
//! publishes shared data, merges results — and *data-intensive*
//! phases fanned out to the DCs through one [`crate::ccdc`] round per
//! phase. This module chains rounds into a whole-application run with
//! makespan and outcome accounting, exposing the protocol-level view
//! the per-kernel quality measurements abstract away.

use crate::ccdc::{run_round, CcDcConfig, CcDcReport, DcOutcome};
use accordion_stats::rng::SeedStream;
use accordion_telemetry::event::SimEvent;
use accordion_telemetry::{counter, flight, span};

/// One application phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Sequential CC work (housekeeping, reductions), in cycles.
    Control {
        /// CC cycles spent.
        cycles: u64,
    },
    /// A data-parallel fan-out to the DCs.
    Data {
        /// Nominal per-DC work in cycles.
        work_cycles: u64,
    },
}

/// The protocol-level account of an application run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRun {
    /// Total makespan in cycles (CC clock).
    pub makespan_cycles: u64,
    /// Per-data-phase protocol reports.
    pub rounds: Vec<CcDcReport>,
    /// Fraction of all DC task executions that were dropped.
    pub overall_drop_fraction: f64,
    /// Total watchdog firings across the run.
    pub watchdog_fires: u32,
}

/// Executes `phases` on `num_dcs` data cores at the given per-cycle
/// error rate; control phases run error-free on the (protected) CC.
///
/// # Panics
///
/// Panics if `phases` is empty or `num_dcs` is zero.
pub fn run_app(phases: &[Phase], num_dcs: usize, perr_per_cycle: f64, seed: SeedStream) -> AppRun {
    assert!(!phases.is_empty(), "an application has at least one phase");
    assert!(num_dcs > 0, "need at least one data core");
    let _span = span!("sim.phases.app");
    let mut makespan = 0u64;
    let mut rounds = Vec::new();
    let mut dropped = 0usize;
    let mut total = 0usize;
    let mut watchdogs = 0u32;
    for (i, phase) in phases.iter().enumerate() {
        match *phase {
            Phase::Control { cycles } => {
                // CCs are protected by design (robust transistors /
                // higher Vdd): control work is error-free, purely
                // sequential.
                counter!("sim.phases.control").inc();
                counter!("sim.phases.control_cycles").add(cycles);
                makespan += cycles;
                accordion_telemetry::event::advance_sim(cycles);
                flight!(SimEvent::Phase {
                    index: i as u64,
                    kind: "control",
                    cycles,
                });
            }
            Phase::Data { work_cycles } => {
                let cfg = CcDcConfig {
                    work_cycles,
                    ..CcDcConfig::default_round(num_dcs, perr_per_cycle)
                };
                counter!("sim.phases.data").inc();
                let report = run_round(&cfg, &mut seed.stream("phase", i as u64));
                // The CC blocks at the end of every fan-out until all
                // DCs resolve — the round's makespan IS the barrier
                // wait from the application's point of view.
                counter!("sim.phases.barrier_wait_cycles").add(report.makespan_cycles);
                makespan += report.makespan_cycles;
                // `run_round` advanced the track clock by the round
                // makespan; the data phase and the CC's barrier wait
                // both span that same interval.
                flight!(SimEvent::Phase {
                    index: i as u64,
                    kind: "data",
                    cycles: report.makespan_cycles,
                });
                flight!(SimEvent::BarrierWait {
                    cycles: report.makespan_cycles,
                });
                dropped += report
                    .outcomes
                    .iter()
                    .filter(|o| **o == DcOutcome::Abandoned)
                    .count();
                total += report.outcomes.len();
                watchdogs += report.watchdog_fires;
                rounds.push(report);
            }
        }
    }
    flight!(SimEvent::AppRetire {
        phases: phases.len() as u64,
        makespan_cycles: makespan,
    });
    AppRun {
        makespan_cycles: makespan,
        rounds,
        overall_drop_fraction: dropped as f64 / total.max(1) as f64,
        watchdog_fires: watchdogs,
    }
}

/// A representative iterative RMS phase structure: a setup control
/// phase, then `iterations` × (data fan-out + merge control phase).
pub fn iterative_app(iterations: usize, work_cycles: u64, control_cycles: u64) -> Vec<Phase> {
    let mut phases = Vec::with_capacity(1 + 2 * iterations);
    phases.push(Phase::Control {
        cycles: control_cycles,
    });
    for _ in 0..iterations {
        phases.push(Phase::Data { work_cycles });
        phases.push(Phase::Control {
            cycles: control_cycles,
        });
    }
    phases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_makespan_is_deterministic_sum() {
        let phases = iterative_app(3, 1_000_000, 10_000);
        let run = run_app(&phases, 16, 0.0, SeedStream::new(1));
        // 4 control phases + 3 data rounds (work + merges).
        let merge = 16 * 1_000; // default merge cost per DC
        let expect = 4 * 10_000 + 3 * (1_000_000 + merge);
        assert_eq!(run.makespan_cycles, expect);
        assert_eq!(run.overall_drop_fraction, 0.0);
        assert_eq!(run.rounds.len(), 3);
    }

    #[test]
    fn errors_inflate_makespan_and_drop_work() {
        let phases = iterative_app(4, 1_000_000, 10_000);
        let clean = run_app(&phases, 32, 0.0, SeedStream::new(2));
        // Perr = 2e-6/cycle over 1M-cycle tasks infects ≈86 % of tasks;
        // the hang fraction of those trips watchdogs.
        let noisy = run_app(&phases, 32, 2e-6, SeedStream::new(2));
        assert!(noisy.makespan_cycles > clean.makespan_cycles);
        assert!(noisy.overall_drop_fraction > 0.0);
        assert!(noisy.watchdog_fires > 0);
    }

    #[test]
    fn control_phases_never_drop() {
        // An app of only control phases reports no DC statistics.
        let phases = vec![Phase::Control { cycles: 5_000 }; 3];
        let run = run_app(&phases, 8, 0.5, SeedStream::new(3));
        assert_eq!(run.makespan_cycles, 15_000);
        assert!(run.rounds.is_empty());
        assert_eq!(run.overall_drop_fraction, 0.0);
    }

    #[test]
    fn iterative_structure_alternates() {
        let phases = iterative_app(2, 100, 10);
        assert_eq!(phases.len(), 5);
        assert!(matches!(phases[0], Phase::Control { .. }));
        assert!(matches!(phases[1], Phase::Data { .. }));
        assert!(matches!(phases[2], Phase::Control { .. }));
    }

    #[test]
    fn reproducible_under_seed() {
        let phases = iterative_app(2, 500_000, 1_000);
        let a = run_app(&phases, 16, 1e-6, SeedStream::new(7));
        let b = run_app(&phases, 16, 1e-6, SeedStream::new(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_app_rejected() {
        run_app(&[], 8, 0.0, SeedStream::new(0));
    }
}
