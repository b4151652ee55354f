//! Discrete-event simulation of the CC/DC master–slave protocol
//! (paper Section 4.1).
//!
//! One Control Core coordinates a set of Data Cores: it publishes the
//! shared input, arms a watchdog per DC, polls the mailbox for done
//! flags, restarts hung DCs (fast reset/restart hardware), gives up on
//! a DC after a bounded number of restarts (the application then
//! perceives it as *Drop*), and finally merges the surviving results.

use crate::event::EventQueue;
use crate::fault::FaultInjector;
use crate::mailbox::{CcDcMailbox, DcIndex};
use accordion_stats::rng::StreamRng;
use accordion_telemetry::event::SimEvent;
use accordion_telemetry::{counter, flight, flight_at, histogram, span};
use rand::Rng;

/// Configuration of one CC/DC execution round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcDcConfig {
    /// Number of slave data cores.
    pub num_dcs: usize,
    /// Nominal work per DC in cycles.
    pub work_cycles: u64,
    /// Per-cycle timing-error probability on the DCs.
    pub perr_per_cycle: f64,
    /// Probability that an infection manifests as a hang/crash (no
    /// termination) rather than a corrupted-but-terminating result.
    pub hang_fraction: f64,
    /// Watchdog timeout in cycles (armed when work is dispatched).
    pub watchdog_timeout_cycles: u64,
    /// Restarts the CC attempts before abandoning a DC.
    pub max_restarts: u32,
    /// CC-side cost of merging one DC's result, in cycles.
    pub merge_cycles_per_dc: u64,
}

impl CcDcConfig {
    /// A plausible default round: 64 DCs, 1 M-cycle tasks, watchdog at
    /// 2× the nominal work, one restart allowed.
    pub fn default_round(num_dcs: usize, perr_per_cycle: f64) -> Self {
        Self {
            num_dcs,
            work_cycles: 1_000_000,
            perr_per_cycle,
            hang_fraction: 0.2,
            watchdog_timeout_cycles: 2_000_000,
            max_restarts: 1,
            merge_cycles_per_dc: 1_000,
        }
    }
}

/// Outcome of one DC's participation in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DcOutcome {
    /// Terminated cleanly; result is trustworthy.
    Completed,
    /// Terminated but infected; result survives as corrupted data
    /// (Section 6.2 case iii).
    CompletedInfected,
    /// Never terminated; watchdog exhausted its restarts and the CC
    /// dropped the DC (Section 6.2 case i, perceived as Drop).
    Abandoned,
}

/// Result of simulating one CC/DC round.
#[derive(Debug, Clone, PartialEq)]
pub struct CcDcReport {
    /// Per-DC outcomes.
    pub outcomes: Vec<DcOutcome>,
    /// Total watchdog firings.
    pub watchdog_fires: u32,
    /// Total DC restarts issued.
    pub restarts: u32,
    /// Makespan of the round in cycles (all DCs resolved + merges).
    pub makespan_cycles: u64,
    /// Results merged by the CC (one per non-abandoned DC).
    pub merged_results: Vec<f64>,
}

impl CcDcReport {
    /// Fraction of DCs whose contribution was lost (abandoned).
    pub fn dropped_fraction(&self) -> f64 {
        let dropped = self
            .outcomes
            .iter()
            .filter(|o| **o == DcOutcome::Abandoned)
            .count();
        dropped as f64 / self.outcomes.len().max(1) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    DcFinished(DcIndex),
    WatchdogCheck(DcIndex, u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DcState {
    Running {
        attempt: u32,
        will_hang: bool,
        infected: bool,
    },
    Done,
    Abandoned,
}

/// Simulates one round of the CC/DC protocol.
///
/// Each DC's fate per attempt is drawn from the fault injector: an
/// infection either hangs the DC (watchdog territory) or corrupts the
/// terminating result. The simulated CC only ever uses mailbox done
/// flags and watchdog timers for control — never DC data — matching
/// the containment rules of [`crate::mailbox`].
///
/// # Panics
///
/// Panics if the configuration has zero DCs.
pub fn run_round(cfg: &CcDcConfig, rng: &mut StreamRng) -> CcDcReport {
    assert!(cfg.num_dcs > 0, "a round needs at least one data core");
    let _span = span!("sim.ccdc.round");
    let injector = FaultInjector::new(cfg.perr_per_cycle);
    let mut mailbox = CcDcMailbox::new(cfg.num_dcs);
    mailbox.cc_publish_input(vec![1.0]);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mut states = Vec::with_capacity(cfg.num_dcs);
    let mut watchdog_fires = 0;
    let mut restarts = 0;

    let dispatch = |dc: DcIndex,
                    attempt: u32,
                    queue: &mut EventQueue<Event>,
                    rng: &mut StreamRng|
     -> DcState {
        let infected = injector.draw_infection(dc.0 as u64, cfg.work_cycles as f64, rng);
        let will_hang = infected && rng.random::<f64>() < cfg.hang_fraction;
        if !will_hang {
            queue.schedule_in(cfg.work_cycles, Event::DcFinished(dc));
        }
        queue.schedule_in(
            cfg.watchdog_timeout_cycles,
            Event::WatchdogCheck(dc, attempt),
        );
        DcState::Running {
            attempt,
            will_hang,
            infected,
        }
    };

    flight!(SimEvent::RoundDispatch {
        dcs: cfg.num_dcs as u64,
    });
    for i in 0..cfg.num_dcs {
        let dc = DcIndex(i);
        states.push(dispatch(dc, 0, &mut queue, rng));
    }

    let mut last_resolution = 0;
    while let Some((time, ev)) = queue.pop() {
        match ev {
            Event::DcFinished(dc) => {
                if let DcState::Running { infected, .. } = states[dc.0] {
                    // The DC publishes its end result; infected DCs
                    // publish corrupted data, which the CC will merge
                    // but never use for control.
                    let value = if infected { f64::MAX } else { 1.0 };
                    mailbox
                        .dc_publish_result(dc, dc, value)
                        .expect("own-slot publish is always legal");
                    states[dc.0] = DcState::Done;
                    last_resolution = time;
                }
            }
            Event::WatchdogCheck(dc, armed_attempt) => {
                if let DcState::Running { attempt, .. } = states[dc.0] {
                    if attempt != armed_attempt {
                        continue; // stale timer from a previous attempt
                    }
                    // The done flag is the only DC state the CC reads
                    // for control.
                    if mailbox.cc_poll_done(dc).expect("dc in range") {
                        continue;
                    }
                    watchdog_fires += 1;
                    let restarted = attempt < cfg.max_restarts;
                    flight_at!(
                        time,
                        SimEvent::WatchdogFire {
                            dc: dc.0 as u64,
                            attempt: u64::from(attempt),
                            restarted,
                        }
                    );
                    if restarted {
                        restarts += 1;
                        mailbox.cc_reset_slot(dc).expect("dc in range");
                        states[dc.0] = dispatch(dc, attempt + 1, &mut queue, rng);
                    } else {
                        states[dc.0] = DcState::Abandoned;
                        last_resolution = time;
                    }
                }
            }
        }
    }

    // CC merge/reduce phase over surviving results.
    let mut merged_results = Vec::new();
    let mut outcomes = Vec::with_capacity(cfg.num_dcs);
    let mut merge_cost = 0;
    for (i, st) in states.iter().enumerate() {
        match st {
            DcState::Done => {
                let v = mailbox
                    .cc_collect_result(DcIndex(i))
                    .expect("dc in range")
                    .expect("done DCs published");
                merged_results.push(v);
                merge_cost += cfg.merge_cycles_per_dc;
                outcomes.push(if v == 1.0 {
                    DcOutcome::Completed
                } else {
                    DcOutcome::CompletedInfected
                });
            }
            DcState::Abandoned => outcomes.push(DcOutcome::Abandoned),
            DcState::Running { .. } => unreachable!("queue drained with DC still running"),
        }
    }

    let abandoned = outcomes
        .iter()
        .filter(|o| **o == DcOutcome::Abandoned)
        .count();
    counter!("sim.ccdc.rounds").inc();
    counter!("sim.ccdc.dcs_dispatched").add(cfg.num_dcs as u64);
    counter!("sim.ccdc.watchdog_fires").add(u64::from(watchdog_fires));
    counter!("sim.ccdc.restarts").add(u64::from(restarts));
    counter!("sim.ccdc.dcs_abandoned").add(abandoned as u64);
    let makespan_cycles = last_resolution + merge_cost;
    histogram!(
        "sim.ccdc.makespan_cycles",
        accordion_telemetry::registry::exponential_bounds(1e4, 4.0, 12)
    )
    .record(makespan_cycles as f64);
    // Retire the round on the track clock: advance by the makespan,
    // then stamp the interval event at its end (exporters recover the
    // start as `t - dur`, aligning it with the dispatch event).
    accordion_telemetry::event::advance_sim(makespan_cycles);
    flight!(SimEvent::RoundRetire {
        completed: outcomes
            .iter()
            .filter(|o| **o == DcOutcome::Completed)
            .count() as u64,
        infected: outcomes
            .iter()
            .filter(|o| **o == DcOutcome::CompletedInfected)
            .count() as u64,
        abandoned: abandoned as u64,
        watchdog_fires: u64::from(watchdog_fires),
        restarts: u64::from(restarts),
        makespan_cycles,
    });

    CcDcReport {
        outcomes,
        watchdog_fires,
        restarts,
        makespan_cycles,
        merged_results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_stats::rng::SeedStream;

    fn rng(i: u64) -> StreamRng {
        SeedStream::new(42).stream("ccdc", i)
    }

    #[test]
    fn error_free_round_completes_everything() {
        let cfg = CcDcConfig::default_round(16, 0.0);
        let r = run_round(&cfg, &mut rng(0));
        assert!(r.outcomes.iter().all(|o| *o == DcOutcome::Completed));
        assert_eq!(r.watchdog_fires, 0);
        assert_eq!(r.merged_results.len(), 16);
        assert_eq!(r.dropped_fraction(), 0.0);
        assert_eq!(
            r.makespan_cycles,
            cfg.work_cycles + 16 * cfg.merge_cycles_per_dc
        );
    }

    #[test]
    fn certain_infection_infects_all() {
        // Perr = 1 per cycle infects every thread; with hang_fraction 0
        // they all terminate with corrupted results.
        let mut cfg = CcDcConfig::default_round(8, 1.0);
        cfg.hang_fraction = 0.0;
        let r = run_round(&cfg, &mut rng(1));
        assert!(r
            .outcomes
            .iter()
            .all(|o| *o == DcOutcome::CompletedInfected));
        assert_eq!(r.dropped_fraction(), 0.0);
    }

    #[test]
    fn hangs_trigger_watchdog_then_restart_or_abandon() {
        let mut cfg = CcDcConfig::default_round(32, 1.0);
        cfg.hang_fraction = 1.0; // every attempt hangs
        cfg.max_restarts = 1;
        let r = run_round(&cfg, &mut rng(2));
        assert!(r.outcomes.iter().all(|o| *o == DcOutcome::Abandoned));
        // Each DC: initial hang + restarted hang = 2 watchdog fires.
        assert_eq!(r.watchdog_fires, 64);
        assert_eq!(r.restarts, 32);
        assert_eq!(r.dropped_fraction(), 1.0);
        assert!(r.merged_results.is_empty());
    }

    #[test]
    fn restart_can_rescue_a_hung_dc() {
        // hang_fraction 1 but only the infection draw decides: with a
        // moderate Perr some restarted attempts come back clean.
        let mut cfg = CcDcConfig::default_round(64, 0.0);
        cfg.perr_per_cycle = FaultInjector::perr_for_one_error_per_thread(cfg.work_cycles as f64);
        cfg.hang_fraction = 1.0;
        cfg.max_restarts = 3;
        let r = run_round(&cfg, &mut rng(3));
        let completed = r
            .outcomes
            .iter()
            .filter(|o| **o == DcOutcome::Completed)
            .count();
        assert!(completed > 0, "some DCs must be rescued by restart");
        assert!(r.restarts > 0);
    }

    #[test]
    fn makespan_grows_with_restarts() {
        let clean = run_round(&CcDcConfig::default_round(8, 0.0), &mut rng(4));
        let mut cfg = CcDcConfig::default_round(8, 1.0);
        cfg.hang_fraction = 1.0;
        let hung = run_round(&cfg, &mut rng(5));
        assert!(hung.makespan_cycles > clean.makespan_cycles);
    }

    #[test]
    fn reproducible_under_seed() {
        let cfg = CcDcConfig::default_round(32, 1e-7);
        let a = run_round(&cfg, &mut rng(6));
        let b = run_round(&cfg, &mut rng(6));
        assert_eq!(a, b);
    }
}
