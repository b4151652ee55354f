//! `canneal` — simulated-annealing chip-placement optimization
//! (PARSEC; paper Sections 3.1 and 5.2).
//!
//! Each thread, `swaps_per_temp` times per temperature step, attempts
//! to swap two randomly picked elements and accepts the swap by the
//! Metropolis rule. The Accordion input is `swaps_per_temp` (the
//! number of temperature steps is the second knob; both enter the
//! problem size as their product). Quality is based on relative
//! routing cost. The Drop hook prevents `swap()` — exactly where the
//! paper injects it — and the decision-inversion corruption experiment
//! of Section 6.2 flips the Metropolis accept decision.

pub mod netlist;

use crate::app::RmsApp;
use crate::config::RunConfig;
use accordion_sim::workload::Workload;
use accordion_stats::rng::StreamRng;
use netlist::{IncrementalHpwl, Netlist};
use rand::Rng;

/// The canneal kernel configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Canneal {
    /// Grid width (elements = width × height).
    pub width: usize,
    /// Grid height.
    pub height: usize,
    /// Average net degree per element.
    pub avg_degree: usize,
    /// Number of temperature steps (the second Accordion input; held
    /// at its default while `swaps_per_temp` sweeps).
    pub temp_steps: usize,
    /// Initial annealing temperature.
    pub t_initial: f64,
    /// Geometric cooling factor per temperature step.
    pub cooling: f64,
}

/// How infected threads misbehave (Section 6.2 validation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CannealErrorMode {
    /// Thread performs no swaps (the Drop hook).
    DropSwaps,
    /// The Metropolis accept decision is inverted: swaps are accepted
    /// exactly when they should be rejected, and vice versa.
    InvertDecision,
}

impl Canneal {
    /// Paper-scale defaults shrunk to a fast deterministic instance.
    pub fn paper_default() -> Self {
        Self {
            width: 24,
            height: 24,
            avg_degree: 4,
            temp_steps: 24,
            t_initial: 4.0,
            cooling: 0.8,
        }
    }

    fn build_netlist(&self, cfg: &RunConfig) -> Netlist {
        let mut rng = cfg.seed_stream().stream("canneal-netlist", 0);
        Netlist::generate(self.width, self.height, self.avg_degree, &mut rng)
    }

    /// Runs the annealer with an explicit per-thread error mode mask:
    /// `infected[t]` threads misbehave per `mode`. This is the entry
    /// point of the Section 6.2 decision-inversion experiment; the
    /// `RmsApp::run` path uses it with [`CannealErrorMode::DropSwaps`].
    pub fn run_with_error_mode(
        &self,
        swaps_per_temp: f64,
        cfg: &RunConfig,
        mode: CannealErrorMode,
        infected: &[bool],
    ) -> Vec<f64> {
        assert_eq!(infected.len(), cfg.threads, "infection mask length");
        let netlist = self.build_netlist(cfg);
        let mut state = IncrementalHpwl::new(&netlist, &netlist.initial_placement());
        let n = netlist.len();
        let swaps = swaps_per_temp.max(0.0).round() as usize;
        let seed = cfg.seed_stream();
        let mut thread_rngs: Vec<StreamRng> = (0..cfg.threads)
            .map(|t| seed.stream("canneal-thread", t as u64))
            .collect();

        let mut temperature = self.t_initial;
        for _step in 0..self.temp_steps {
            // Threads interleave swap attempts round-robin on the
            // shared placement; a deterministic serialization of the
            // lock-based parallel algorithm.
            for _ in 0..swaps {
                for (rng, &misbehaves) in thread_rngs.iter_mut().zip(infected) {
                    // Draw the candidate pair regardless of drop so the
                    // random streams stay aligned across scenarios.
                    let a = rng.random_range(0..n);
                    let b = rng.random_range(0..n);
                    let u: f64 = rng.random();
                    if a == b {
                        continue;
                    }
                    if misbehaves && mode == CannealErrorMode::DropSwaps {
                        continue; // swap() prevented
                    }
                    let inverted = misbehaves && mode == CannealErrorMode::InvertDecision;
                    state.try_swap(a, b, |delta| {
                        let metropolis = delta < 0.0 || u < (-delta / temperature.max(1e-12)).exp();
                        metropolis != inverted
                    });
                }
            }
            temperature *= self.cooling;
        }

        // Output: final cost (the quality carrier) plus the placement
        // for completeness.
        let placement = state.placement();
        let cost = netlist.routing_cost(&placement);
        let mut out = Vec::with_capacity(1 + n);
        out.push(cost);
        out.extend((0..n).map(|e| placement.location_of(e) as f64));
        out
    }

    /// Routing cost of the untouched initial placement (for relative
    /// cost metrics).
    pub fn initial_cost(&self, cfg: &RunConfig) -> f64 {
        let netlist = self.build_netlist(cfg);
        netlist.routing_cost(&netlist.initial_placement())
    }
}

impl RmsApp for Canneal {
    fn name(&self) -> &'static str {
        "canneal"
    }

    fn knob_name(&self) -> &'static str {
        "swaps per temperature step"
    }

    fn default_knob(&self) -> f64 {
        24.0
    }

    fn knob_sweep(&self) -> Vec<f64> {
        vec![4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0]
    }

    fn hyper_knob(&self) -> f64 {
        128.0
    }

    fn problem_size(&self, knob: f64) -> f64 {
        // Product of the two Accordion inputs (Section 3.1): linear in
        // swaps_per_temp at fixed temperature steps.
        knob * self.temp_steps as f64
    }

    fn run(&self, knob: f64, cfg: &RunConfig) -> Vec<f64> {
        // The generic corruption path is per-thread end results; the
        // canneal-specific decision corruption lives in
        // `run_with_error_mode`.
        self.run_with_error_mode(knob, cfg, CannealErrorMode::DropSwaps, &cfg.drop_mask)
    }

    fn quality(&self, output: &[f64], reference: &[f64]) -> f64 {
        // Relative routing cost: how much of the reference run's cost
        // reduction this run achieved. The initial cost is identical
        // across runs of the same seed, so using the cost values alone
        // is well defined.
        let (cost, ref_cost) = (output[0], reference[0]);
        assert!(cost > 0.0 && ref_cost > 0.0, "costs must be positive");
        ref_cost / cost
    }

    fn workload(&self, knob: f64) -> Workload {
        Workload {
            work_units: self.problem_size(knob),
            // One swap attempt: two element-cost evaluations (≈ net
            // degree distance computations each) plus bookkeeping.
            instructions_per_unit: 40.0 * self.avg_degree as f64,
            mem_accesses_per_instr: 0.03,
            private_hit_rate: 0.85,
            cluster_hit_rate: 0.80,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> Canneal {
        Canneal::paper_default()
    }

    #[test]
    fn annealing_reduces_cost() {
        let a = app();
        let cfg = RunConfig::default_run(16);
        let out = a.run(16.0, &cfg);
        assert!(out[0] < a.initial_cost(&cfg), "annealing must reduce cost");
    }

    #[test]
    fn more_swaps_reach_lower_cost() {
        let a = app();
        let cfg = RunConfig::default_run(16);
        let lo = a.run(4.0, &cfg)[0];
        let hi = a.run(64.0, &cfg)[0];
        assert!(hi < lo, "64 swaps/step ({hi}) must beat 4 ({lo})");
    }

    #[test]
    fn dropping_half_still_improves_over_initial() {
        let a = app();
        let cfg = RunConfig::with_drop(16, 0.5);
        let out = a.run(16.0, &cfg);
        assert!(out[0] < a.initial_cost(&RunConfig::default_run(16)));
    }

    #[test]
    fn drop_degrades_less_than_decision_inversion() {
        // The Section 6.2 validation: inverting accept decisions hurts
        // far more than dropping the same threads.
        let a = app();
        let cfg = RunConfig::default_run(16);
        let infected = accordion_sim::fault::uniform_drop_mask(16, 0.5);
        let dropped = a.run_with_error_mode(24.0, &cfg, CannealErrorMode::DropSwaps, &infected)[0];
        let inverted =
            a.run_with_error_mode(24.0, &cfg, CannealErrorMode::InvertDecision, &infected)[0];
        assert!(
            inverted > dropped,
            "inversion ({inverted}) must cost more than drop ({dropped})"
        );
    }

    #[test]
    fn quality_relative_to_hyper_run() {
        let a = app();
        let cfg = RunConfig::default_run(16);
        let hyper = a.run(a.hyper_knob(), &cfg);
        let small = a.run(4.0, &cfg);
        let big = a.run(64.0, &cfg);
        let q_small = a.quality(&small, &hyper);
        let q_big = a.quality(&big, &hyper);
        assert!(q_big > q_small, "quality grows with problem size");
        assert!(q_big <= 1.02, "cannot meaningfully beat the hyper run");
    }

    /// The per-element-sum kernel [`IncrementalHpwl`] replaced: each swap
    /// attempt re-measures every net of both elements before and
    /// after the swap.
    fn run_by_element_sums(
        a: &Canneal,
        swaps_per_temp: f64,
        cfg: &RunConfig,
        mode: CannealErrorMode,
        infected: &[bool],
    ) -> Vec<f64> {
        let netlist = a.build_netlist(cfg);
        let mut placement = netlist.initial_placement();
        let n = netlist.len();
        let swaps = swaps_per_temp.max(0.0).round() as usize;
        let seed = cfg.seed_stream();
        let mut thread_rngs: Vec<StreamRng> = (0..cfg.threads)
            .map(|t| seed.stream("canneal-thread", t as u64))
            .collect();
        let mut temperature = a.t_initial;
        for _step in 0..a.temp_steps {
            for _ in 0..swaps {
                for t in 0..cfg.threads {
                    let rng = &mut thread_rngs[t];
                    let (x, y) = (rng.random_range(0..n), rng.random_range(0..n));
                    let u: f64 = rng.random();
                    if x == y || (infected[t] && mode == CannealErrorMode::DropSwaps) {
                        continue;
                    }
                    let before =
                        netlist.element_cost(&placement, x) + netlist.element_cost(&placement, y);
                    placement.swap(x, y);
                    let after =
                        netlist.element_cost(&placement, x) + netlist.element_cost(&placement, y);
                    let delta = after - before;
                    let mut accept = delta < 0.0 || u < (-delta / temperature.max(1e-12)).exp();
                    if infected[t] && mode == CannealErrorMode::InvertDecision {
                        accept = !accept;
                    }
                    if !accept {
                        placement.swap(x, y);
                    }
                }
            }
            temperature *= a.cooling;
        }
        let mut out = vec![netlist.routing_cost(&placement)];
        out.extend((0..n).map(|e| placement.location_of(e) as f64));
        out
    }

    fn assert_matches_oracle(a: &Canneal, knob: f64, cfg: &RunConfig, mode: CannealErrorMode) {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let got = a.run_with_error_mode(knob, cfg, mode, &cfg.drop_mask);
        let want = run_by_element_sums(a, knob, cfg, mode, &cfg.drop_mask);
        assert_eq!(
            bits(got),
            bits(want),
            "knob {knob}, {} threads, {} dropped, {mode:?}",
            cfg.threads,
            cfg.threads - cfg.live_threads()
        );
    }

    const MODES: [CannealErrorMode; 2] = [
        CannealErrorMode::DropSwaps,
        CannealErrorMode::InvertDecision,
    ];

    #[test]
    fn incremental_hpwl_matches_the_element_sum_oracle_bit_for_bit() {
        let a = app();
        for knob in [4.0, 24.0, 128.0] {
            for threads in [1, 16, 64] {
                for fraction in [0.0, 0.25, 0.5] {
                    let cfg = RunConfig::with_drop(threads, fraction);
                    for mode in MODES {
                        assert_matches_oracle(&a, knob, &cfg, mode);
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_hpwl_matches_the_oracle_when_swapped_elements_share_nets() {
        // On a 4×4 grid most element pairs share a net, so most swap
        // attempts move two terminals of one net.
        let a = Canneal {
            width: 4,
            height: 4,
            ..app()
        };
        let cfg = RunConfig::with_drop(16, 0.25);
        let netlist = a.build_netlist(&cfg);
        let pairs = (0..16).flat_map(|x| (0..x).map(move |y| (x, y)));
        let shared = pairs
            .filter(|&(x, y)| {
                netlist.nets_of[x]
                    .iter()
                    .any(|i| netlist.nets_of[y].contains(i))
            })
            .count();
        assert!(
            shared * 2 > 16 * 15 / 2,
            "{shared} of 120 pairs share a net"
        );
        for mode in MODES {
            assert_matches_oracle(&a, 24.0, &cfg, mode);
        }
    }

    #[test]
    fn deterministic_runs() {
        let a = app();
        let cfg = RunConfig::default_run(8);
        assert_eq!(a.run(8.0, &cfg), a.run(8.0, &cfg));
    }
}
