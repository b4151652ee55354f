//! Dynamic runtime orchestration — the paper's Section 7 extension.
//!
//! The paper's evaluation fixes the resource allocation and operating
//! point for the entire execution, and notes as an open question that
//! "both, phases of the application, and the hardware resources may
//! experience changes in resiliency within the course of execution",
//! while "the number of cores assigned to computation can be changed
//! midst-execution, the problem size may not be".
//!
//! This module implements exactly that contract: a controller that
//! re-plans the *cluster count* (never the problem size) at epoch
//! boundaries as per-cluster safe frequencies drift (thermal or aging
//! derating), chasing the original iso-execution-time deadline.

use accordion_chip::chip::Chip;
use accordion_chip::topology::ClusterId;
use accordion_sim::exec::ExecModel;
use accordion_sim::workload::Workload;
use accordion_telemetry::event::SimEvent;
use accordion_telemetry::{counter, flight, gauge, histogram, span};

/// Per-epoch account of a dynamically orchestrated execution.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch index.
    pub epoch: usize,
    /// Clusters engaged during the epoch.
    pub clusters: usize,
    /// Binding (derated) frequency of the engaged set, GHz.
    pub f_ghz: f64,
    /// Fraction of total work completed by the end of this epoch.
    pub work_done: f64,
    /// Power drawn during the epoch, W.
    pub power_w: f64,
}

/// Outcome of a dynamic (or static) run under drift.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRun {
    /// Per-epoch accounts.
    pub epochs: Vec<EpochReport>,
    /// Whether all work finished within the deadline.
    pub met_deadline: bool,
    /// Total energy in joules.
    pub energy_j: f64,
    /// Completion time in seconds (= deadline if unfinished).
    pub elapsed_s: f64,
}

/// Re-plans cluster counts at epoch boundaries against drifting
/// per-cluster safe frequencies.
pub struct RuntimeController<'a> {
    chip: &'a Chip,
    exec: ExecModel,
    workload: Workload,
    deadline_s: f64,
}

impl<'a> RuntimeController<'a> {
    /// Creates a controller for one workload with an iso-time
    /// deadline.
    ///
    /// # Panics
    ///
    /// Panics if the deadline is not positive.
    pub fn new(chip: &'a Chip, workload: Workload, deadline_s: f64) -> Self {
        assert!(deadline_s > 0.0, "deadline must be positive");
        Self {
            chip,
            exec: ExecModel::paper_default(),
            workload,
            deadline_s,
        }
    }

    /// Derated safe frequency of a cluster.
    fn derated_f(&self, cluster: usize, derate: &[f64]) -> f64 {
        self.chip.cluster_safe_f_ghz(ClusterId(cluster)) * derate[cluster]
    }

    /// Clusters ordered by derated energy efficiency (the paper's
    /// selection policy, re-evaluated against current resiliency).
    /// Efficiencies are priced once per cluster, not per comparison —
    /// `cluster_eff` is a pure function, so sorting on the precomputed
    /// values yields the identical permutation.
    fn ordered_clusters(&self, derate: &[f64]) -> Vec<usize> {
        let n = self.chip.topology().num_clusters();
        let effs: Vec<f64> = (0..n).map(|c| self.cluster_eff(c, derate)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            effs[b]
                .partial_cmp(&effs[a])
                .expect("efficiencies are finite")
        });
        order
    }

    fn cluster_eff(&self, cluster: usize, derate: &[f64]) -> f64 {
        let f = self.derated_f(cluster, derate);
        let p = self.chip.cluster_power_w(ClusterId(cluster), f);
        self.chip.topology().cores_per_cluster as f64 * f / p
    }

    /// Picks the minimal cluster count able to finish `remaining_work`
    /// (work units) within `remaining_s` under the current derating.
    /// Returns the chosen cluster list, or `None` if even the full
    /// chip cannot make the deadline (the controller then engages
    /// everything and runs best-effort).
    pub fn replan(
        &self,
        remaining_work: f64,
        remaining_s: f64,
        derate: &[f64],
    ) -> Option<Vec<usize>> {
        counter!("runtime.replans").inc();
        let order = self.ordered_clusters(derate);
        let cores_per = self.chip.topology().cores_per_cluster;
        let mut w = self.workload;
        w.work_units = remaining_work;
        for n in 1..=order.len() {
            let set = &order[..n];
            let f = set
                .iter()
                .map(|&c| self.derated_f(c, derate))
                .fold(f64::INFINITY, f64::min);
            if f <= 0.0 {
                continue;
            }
            let t = self.exec.execution_time_s(&w, n * cores_per, f);
            if t <= remaining_s {
                return Some(set.to_vec());
            }
        }
        None
    }

    /// Runs the workload across `derate_schedule.len()` equal-length
    /// epochs; `derate_schedule[e][c]` derates cluster `c`'s safe
    /// frequency during epoch `e`. `dynamic` re-plans each epoch;
    /// otherwise the epoch-0 plan is held for the whole run (the
    /// paper's static policy).
    pub fn run(&self, derate_schedule: &[Vec<f64>], dynamic: bool) -> DriftRun {
        assert!(!derate_schedule.is_empty(), "need at least one epoch");
        let _span = span!("runtime.drift_run");
        let epochs = derate_schedule.len();
        let epoch_s = self.deadline_s / epochs as f64;
        let cores_per = self.chip.topology().cores_per_cluster;
        let total_work = self.workload.work_units;
        let mut remaining = total_work;
        let mut reports: Vec<EpochReport> = Vec::with_capacity(epochs);
        let mut energy_j = 0.0;
        let mut elapsed_s = 0.0;
        let mut static_plan: Option<Vec<usize>> = None;

        for (e, derate) in derate_schedule.iter().enumerate() {
            if remaining <= 0.0 {
                break;
            }
            let remaining_s = self.deadline_s - elapsed_s;
            let replanned = dynamic || static_plan.is_none();
            let plan = if replanned {
                let p = self
                    .replan(remaining, remaining_s, derate)
                    .unwrap_or_else(|| self.ordered_clusters(derate));
                if !dynamic {
                    static_plan = Some(p.clone());
                }
                p
            } else {
                static_plan.clone().expect("static plan fixed at epoch 0")
            };
            let f = plan
                .iter()
                .map(|&c| self.derated_f(c, derate))
                .fold(f64::INFINITY, f64::min);
            if replanned {
                flight!(SimEvent::Replan {
                    epoch: e as u64,
                    clusters: plan.len() as u64,
                    f_ghz: f,
                });
            }
            let n_cores = plan.len() * cores_per;
            // Work rate in units/s at this operating point.
            let mut w = self.workload;
            w.work_units = remaining;
            let t_full = self.exec.execution_time_s(&w, n_cores, f);
            let step_s = t_full.min(epoch_s).min(remaining_s);
            let done = remaining * step_s / t_full;
            let power: f64 = plan
                .iter()
                .map(|&c| {
                    self.chip
                        .cluster_power_w(ClusterId(c), self.derated_f(c, derate))
                })
                .sum();
            energy_j += power * step_s;
            elapsed_s += step_s;
            remaining -= done;
            counter!("runtime.epochs").inc();
            if let Some(prev) = reports.last() {
                if prev.clusters != plan.len() {
                    counter!("runtime.cluster_count_changes").inc();
                }
            }
            gauge!("runtime.clusters_engaged").set(plan.len() as f64);
            // Deadline slack after this epoch: time left at the current
            // pace minus time needed for the remaining work (negative =
            // behind schedule). Recorded as a fraction of the deadline.
            let slack_frac = if remaining > 0.0 {
                let mut wr = self.workload;
                wr.work_units = remaining;
                let need_s = self.exec.execution_time_s(&wr, n_cores, f);
                (self.deadline_s - elapsed_s - need_s) / self.deadline_s
            } else {
                (self.deadline_s - elapsed_s) / self.deadline_s
            };
            histogram!(
                "runtime.deadline_slack_frac",
                [-0.5, -0.2, -0.1, -0.05, 0.0, 0.05, 0.1, 0.2, 0.5, 1.0]
            )
            .record(slack_frac);
            // Advance the runtime track's sim clock in cycles at the
            // binding frequency, then retire the epoch interval.
            let epoch_cycles = (step_s * f * 1e9).round().max(0.0) as u64;
            accordion_telemetry::event::advance_sim(epoch_cycles);
            flight!(SimEvent::EpochRetire {
                epoch: e as u64,
                cycles: epoch_cycles,
                work_done_frac: (total_work - remaining) / total_work,
            });
            reports.push(EpochReport {
                epoch: e,
                clusters: plan.len(),
                f_ghz: f,
                work_done: (total_work - remaining) / total_work,
                power_w: power,
            });
            if remaining <= total_work * 1e-12 {
                remaining = 0.0;
                break;
            }
        }

        DriftRun {
            met_deadline: remaining <= 0.0 && elapsed_s <= self.deadline_s * (1.0 + 1e-9),
            epochs: reports,
            energy_j,
            elapsed_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_chip::chip::Chip;
    use std::sync::OnceLock;

    fn chip() -> &'static Chip {
        static CHIP: OnceLock<Chip> = OnceLock::new();
        CHIP.get_or_init(|| Chip::fabricate_default(0).expect("chip"))
    }

    fn deadline_for_clusters(n: usize) -> f64 {
        let w = Workload::rms_default(2e7);
        let exec = ExecModel::paper_default();
        // Use the n-th best initial frequency as the binding one.
        let c = RuntimeController::new(chip(), w, 1.0);
        let order = c.ordered_clusters(&vec![1.0; 36]);
        let f = order[..n]
            .iter()
            .map(|&cl| chip().cluster_safe_f_ghz(ClusterId(cl)))
            .fold(f64::INFINITY, f64::min);
        exec.execution_time_s(&w, n * 8, f)
    }

    #[test]
    fn no_drift_static_equals_dynamic() {
        let deadline = deadline_for_clusters(9) * 1.05;
        let w = Workload::rms_default(2e7);
        let c = RuntimeController::new(chip(), w, deadline);
        let schedule = vec![vec![1.0; 36]; 4];
        let dynamic = c.run(&schedule, true);
        let fixed = c.run(&schedule, false);
        assert!(dynamic.met_deadline && fixed.met_deadline);
        assert_eq!(dynamic.epochs[0].clusters, fixed.epochs[0].clusters);
    }

    #[test]
    fn dynamic_recovers_from_mid_run_derating() {
        // Deadline sized for the initial plan with little slack; from
        // epoch 1 every cluster derates 25 %. Static misses; dynamic
        // widens the allocation and still makes it.
        let deadline = deadline_for_clusters(9) * 1.02;
        let w = Workload::rms_default(2e7);
        let c = RuntimeController::new(chip(), w, deadline);
        let mut schedule = vec![vec![1.0; 36]];
        for _ in 0..7 {
            schedule.push(vec![0.75; 36]);
        }
        let fixed = c.run(&schedule, false);
        let dynamic = c.run(&schedule, true);
        assert!(
            !fixed.met_deadline,
            "static plan should miss under derating"
        );
        assert!(dynamic.met_deadline, "dynamic re-planning should recover");
        // Recovery costs energy: more clusters engaged.
        assert!(dynamic.epochs.last().unwrap().clusters > fixed.epochs[0].clusters);
    }

    #[test]
    fn replan_uses_fewer_clusters_with_generous_deadlines() {
        let w = Workload::rms_default(2e7);
        let c = RuntimeController::new(chip(), w, 1.0);
        let derate = vec![1.0; 36];
        let tight = c
            .replan(2e7, deadline_for_clusters(18) * 1.01, &derate)
            .expect("feasible");
        let loose = c
            .replan(2e7, deadline_for_clusters(18) * 4.0, &derate)
            .expect("feasible");
        assert!(loose.len() <= tight.len());
    }

    #[test]
    fn impossible_deadline_returns_none() {
        let w = Workload::rms_default(2e7);
        let c = RuntimeController::new(chip(), w, 1.0);
        assert!(c.replan(2e7, 1e-12, &vec![1.0; 36]).is_none());
    }

    #[test]
    fn energy_accumulates_over_epochs() {
        let deadline = deadline_for_clusters(9) * 1.2;
        let w = Workload::rms_default(2e7);
        let c = RuntimeController::new(chip(), w, deadline);
        let run = c.run(&vec![vec![1.0; 36]; 4], true);
        assert!(run.energy_j > 0.0);
        assert!(run.elapsed_s <= deadline * (1.0 + 1e-9));
        // Work fractions must be non-decreasing and end at 1.
        for w in run.epochs.windows(2) {
            assert!(w[1].work_done >= w[0].work_done);
        }
        assert!((run.epochs.last().unwrap().work_done - 1.0).abs() < 1e-9);
    }
}
