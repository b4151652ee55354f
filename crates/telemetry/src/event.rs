//! Flight recorder: a lock-sharded, bounded ring of structured
//! sim-domain events.
//!
//! Counters and histograms (PR 1) answer *how much*; the flight
//! recorder answers *when and in what order*. Every event carries
//!
//! * a **sim-domain timestamp** in cycles, read from a per-track
//!   simulated clock advanced by the emitting layer;
//! * a **host wall-clock timestamp** in nanoseconds since the recorder
//!   was enabled (for the host-thread view of the Chrome exporter);
//! * a **track id + per-track sequence number**. Tracks are logical
//!   sim entities ("fab36/chip2/cluster17", "probe/canneal/vdd550"),
//!   not OS threads, and sequence numbers are allocated per track —
//!   this is what makes the serialized stream byte-identical at any
//!   `--jobs` even though events are recorded from a work-stealing
//!   pool in nondeterministic global order.
//!
//! # Determinism contract
//!
//! Events are only recorded while a [`TrackGuard`] is live on the
//! current thread. Tracks are single-owner: the layer that enters a
//! track is the only one appending to it, so `(track, seq)` totally
//! orders each track's events independent of thread scheduling.
//! Events recorded with no track on the stack are counted
//! (`telemetry.flight.untracked`) and dropped — an event that cannot
//! be attributed to a deterministic track would make the export
//! nondeterministic. [`FlightLog`] sorts by (track name, seq), and the
//! Chrome exporter excludes host wall-clock from the deterministic
//! view, so the rendered bytes are identical for `ACCORDION_JOBS=1`
//! and `=8` on a fixed seed (pinned by `tests/determinism.rs`).
//!
//! A pool carries the caller's live track to its workers ([`carry`],
//! [`adopt`]). There it only parents the tracks a worker enters, so a
//! track entered inside a task has the same full name and id whether
//! the task runs inline or on a worker; the worker never records on
//! the carried track itself, and neither does the caller while it
//! runs its own share of the map under the same adoption.
//!
//! # Overhead when disabled
//!
//! [`enabled`] is one relaxed atomic load; the [`crate::flight!`] and
//! [`crate::flight_track!`] macros do not evaluate their arguments
//! when the recorder is off. The `telemetry_overhead` bench pins the
//! disabled-path cost next to the PR 1 span/counter envelope.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of ring shards; events hash to a shard by track id, so
/// unrelated tracks rarely contend on the same lock.
const NSHARDS: usize = 16;

/// Default per-shard event capacity (~262k events total). Overflow
/// never blocks and never reorders: excess events are counted in
/// [`FlightLog::dropped`] instead.
pub const DEFAULT_SHARD_CAPACITY: usize = 1 << 14;

/// Sentinel: no track entered on this thread.
const UNTRACKED: u64 = 0;

/// A typed simulation event. Variants map one-to-one onto the
/// instrumented layers (`cat` in the Chrome export = [`SimEvent::layer`]).
#[derive(Debug, Clone, PartialEq)]
pub enum SimEvent {
    /// CC dispatched a round of DCs (`sim.ccdc.run_round` entry).
    RoundDispatch {
        /// DCs dispatched in the round.
        dcs: u64,
    },
    /// The CC watchdog fired for a DC.
    WatchdogFire {
        /// DC index within the round.
        dc: u64,
        /// Hang attempt count for this DC so far.
        attempt: u64,
        /// Whether the DC was restarted (vs. abandoned).
        restarted: bool,
    },
    /// A CC/DC round retired (duration = round makespan).
    RoundRetire {
        /// DCs that completed clean.
        completed: u64,
        /// DCs that completed with an infected (dropped/corrupted) result.
        infected: u64,
        /// DCs abandoned after exhausting restarts.
        abandoned: u64,
        /// Watchdog fires during the round.
        watchdog_fires: u64,
        /// Restarts issued during the round.
        restarts: u64,
        /// Round makespan in cycles.
        makespan_cycles: u64,
    },
    /// A fault-injection draw infected a DC execution.
    Infection {
        /// DC index the draw was made for.
        dc: u64,
    },
    /// A batch drop-mask sampling (`FaultInjector::sample_infections`).
    InfectionSample {
        /// Threads sampled.
        threads: u64,
        /// Threads infected.
        infected: u64,
    },
    /// A checkpoint plan was computed (Young/Daly).
    CheckpointPlan {
        /// Mean time between failures, cycles.
        mtbf_cycles: f64,
        /// Chosen checkpoint interval, cycles.
        interval_cycles: f64,
    },
    /// One application phase ran (duration = `cycles`).
    Phase {
        /// Phase index within the app.
        index: u64,
        /// `"control"` or `"data"`.
        kind: &'static str,
        /// Phase duration in cycles.
        cycles: u64,
    },
    /// Barrier wait at the end of a data phase (duration = `cycles`).
    BarrierWait {
        /// Cycles the earliest-finishing DC waited.
        cycles: u64,
    },
    /// An application run retired (duration = makespan).
    AppRetire {
        /// Phases executed.
        phases: u64,
        /// Total app makespan in cycles.
        makespan_cycles: u64,
    },
    /// The runtime controller replanned the cluster allocation.
    Replan {
        /// Epoch index at which the replan happened.
        epoch: u64,
        /// Clusters engaged after the replan.
        clusters: u64,
        /// Frequency the plan assumes, GHz.
        f_ghz: f64,
    },
    /// A runtime epoch retired (duration = `cycles`).
    EpochRetire {
        /// Epoch index.
        epoch: u64,
        /// Epoch length in cycles.
        cycles: u64,
        /// Fraction of total work completed after this epoch.
        work_done_frac: f64,
    },
    /// A per-cluster safe-frequency selection (VARIUS timing model).
    SafeFreq {
        /// Selected safe frequency, GHz.
        f_ghz: f64,
    },
    /// One pareto grid cell solved by the batched (columnar) sweep
    /// engine. The payload is a pure function of the cell inputs —
    /// no wall-clock — so recordings stay byte-identical at any job
    /// count.
    SweepCellSolve {
        /// Cluster counts probed before the search stopped.
        probed: u64,
        /// Accepted cluster count; 0 when no count achieved iso-time
        /// (the cell is N-limited and yields no point).
        clusters: u64,
        /// Problem size in parts-per-thousand of the STV default.
        size_milli: u64,
    },
    /// One mode-family pareto front finished extracting (batched
    /// engine).
    SweepFrontRetire {
        /// Frequency policy, `"safe"` or `"speculative"`.
        policy: &'static str,
        /// Problem scaling, `"compress"`, `"expand"` or `"still"`.
        scaling: &'static str,
        /// Grid cells evaluated for this front.
        cells: u64,
        /// Points accepted onto the front.
        points: u64,
    },
    /// One optimizer generation retired (NSGA-II loop in
    /// `accordion-opt`). The payload is a pure function of the seeded
    /// search state — no wall-clock — so recordings stay
    /// byte-identical at any job count.
    OptGeneration {
        /// Generation index (0 = the seeded scout grid).
        generation: u64,
        /// Fresh evaluator calls this generation (memo misses).
        evals: u64,
        /// Evaluator memo hits this generation.
        cache_hits: u64,
        /// Size of the archive's rank-0 front after this generation.
        front: u64,
    },
    /// One stage of an HTTP request's lifecycle completed (parse,
    /// cache lookup, pool fanout, serialize). The serving layer runs
    /// its track clocks in microseconds, so `us` doubles as the
    /// interval duration. `stage` must be a dotted `serve.*` name —
    /// it is used verbatim as the Chrome event name.
    ServeStage {
        /// Dotted stage name, e.g. `"serve.parse"`.
        stage: &'static str,
        /// Stage duration in microseconds.
        us: u64,
    },
    /// An HTTP request retired (the whole-request interval).
    RequestRetire {
        /// HTTP status code sent.
        status: u64,
        /// Response body bytes.
        bytes: u64,
        /// Total handler latency in microseconds.
        us: u64,
    },
}

impl SimEvent {
    /// Event name (Chrome `name` field), dotted by layer.
    pub fn name(&self) -> &'static str {
        match self {
            SimEvent::RoundDispatch { .. } => "ccdc.dispatch",
            SimEvent::WatchdogFire { .. } => "ccdc.watchdog",
            SimEvent::RoundRetire { .. } => "ccdc.round",
            SimEvent::Infection { .. } => "fault.infect",
            SimEvent::InfectionSample { .. } => "fault.sample",
            SimEvent::CheckpointPlan { .. } => "checkpoint.plan",
            SimEvent::Phase { .. } => "phases.phase",
            SimEvent::BarrierWait { .. } => "phases.barrier",
            SimEvent::AppRetire { .. } => "phases.app",
            SimEvent::Replan { .. } => "runtime.replan",
            SimEvent::EpochRetire { .. } => "runtime.epoch",
            SimEvent::SafeFreq { .. } => "timing.safe_freq",
            SimEvent::SweepCellSolve { .. } => "sweep.cell",
            SimEvent::SweepFrontRetire { .. } => "sweep.front",
            SimEvent::OptGeneration { .. } => "opt.generation",
            SimEvent::ServeStage { stage, .. } => stage,
            SimEvent::RequestRetire { .. } => "serve.request",
        }
    }

    /// The instrumented layer this event belongs to (Chrome `cat`).
    pub fn layer(&self) -> &'static str {
        self.name().split('.').next().expect("dotted name")
    }

    /// For interval-like events, the duration in cycles; instant
    /// events return `None`. The timestamp of an interval event is its
    /// *end* (the emitting layer advances the track clock first), so
    /// exporters recover the start as `t_cycles - duration`.
    pub fn duration_cycles(&self) -> Option<u64> {
        match self {
            SimEvent::RoundRetire {
                makespan_cycles, ..
            }
            | SimEvent::AppRetire {
                makespan_cycles, ..
            } => Some(*makespan_cycles),
            SimEvent::Phase { cycles, .. }
            | SimEvent::BarrierWait { cycles }
            | SimEvent::EpochRetire { cycles, .. } => Some(*cycles),
            SimEvent::ServeStage { us, .. } | SimEvent::RequestRetire { us, .. } => Some(*us),
            _ => None,
        }
    }

    /// The event payload as a JSON object (Chrome `args`).
    pub fn args_json(&self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        match self {
            SimEvent::RoundDispatch { dcs } => Json::obj(vec![("dcs", n(*dcs))]),
            SimEvent::WatchdogFire {
                dc,
                attempt,
                restarted,
            } => Json::obj(vec![
                ("dc", n(*dc)),
                ("attempt", n(*attempt)),
                ("restarted", Json::Bool(*restarted)),
            ]),
            SimEvent::RoundRetire {
                completed,
                infected,
                abandoned,
                watchdog_fires,
                restarts,
                makespan_cycles,
            } => Json::obj(vec![
                ("completed", n(*completed)),
                ("infected", n(*infected)),
                ("abandoned", n(*abandoned)),
                ("watchdog_fires", n(*watchdog_fires)),
                ("restarts", n(*restarts)),
                ("makespan_cycles", n(*makespan_cycles)),
            ]),
            SimEvent::Infection { dc } => Json::obj(vec![("dc", n(*dc))]),
            SimEvent::InfectionSample { threads, infected } => {
                Json::obj(vec![("threads", n(*threads)), ("infected", n(*infected))])
            }
            SimEvent::CheckpointPlan {
                mtbf_cycles,
                interval_cycles,
            } => Json::obj(vec![
                ("mtbf_cycles", Json::Num(*mtbf_cycles)),
                ("interval_cycles", Json::Num(*interval_cycles)),
            ]),
            SimEvent::Phase {
                index,
                kind,
                cycles,
            } => Json::obj(vec![
                ("index", n(*index)),
                ("kind", Json::str(*kind)),
                ("cycles", n(*cycles)),
            ]),
            SimEvent::BarrierWait { cycles } => Json::obj(vec![("cycles", n(*cycles))]),
            SimEvent::AppRetire {
                phases,
                makespan_cycles,
            } => Json::obj(vec![
                ("phases", n(*phases)),
                ("makespan_cycles", n(*makespan_cycles)),
            ]),
            SimEvent::Replan {
                epoch,
                clusters,
                f_ghz,
            } => Json::obj(vec![
                ("epoch", n(*epoch)),
                ("clusters", n(*clusters)),
                ("f_ghz", Json::Num(*f_ghz)),
            ]),
            SimEvent::EpochRetire {
                epoch,
                cycles,
                work_done_frac,
            } => Json::obj(vec![
                ("epoch", n(*epoch)),
                ("cycles", n(*cycles)),
                ("work_done_frac", Json::Num(*work_done_frac)),
            ]),
            SimEvent::SafeFreq { f_ghz } => Json::obj(vec![("f_ghz", Json::Num(*f_ghz))]),
            SimEvent::SweepCellSolve {
                probed,
                clusters,
                size_milli,
            } => Json::obj(vec![
                ("probed", n(*probed)),
                ("clusters", n(*clusters)),
                ("size_milli", n(*size_milli)),
            ]),
            SimEvent::SweepFrontRetire {
                policy,
                scaling,
                cells,
                points,
            } => Json::obj(vec![
                ("policy", Json::str(*policy)),
                ("scaling", Json::str(*scaling)),
                ("cells", n(*cells)),
                ("points", n(*points)),
            ]),
            SimEvent::OptGeneration {
                generation,
                evals,
                cache_hits,
                front,
            } => Json::obj(vec![
                ("generation", n(*generation)),
                ("evals", n(*evals)),
                ("cache_hits", n(*cache_hits)),
                ("front", n(*front)),
            ]),
            SimEvent::ServeStage { us, .. } => Json::obj(vec![("us", n(*us))]),
            SimEvent::RequestRetire { status, bytes, us } => Json::obj(vec![
                ("status", n(*status)),
                ("bytes", n(*bytes)),
                ("us", n(*us)),
            ]),
        }
    }
}

/// One recorded event with its full addressing context.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Track id (see [`TrackGuard`]).
    pub track: u64,
    /// Per-track sequence number (deterministic).
    pub seq: u64,
    /// Sim-domain timestamp, cycles on the track's clock.
    pub t_cycles: u64,
    /// Host wall-clock, nanoseconds since the recorder was enabled
    /// (nondeterministic; excluded from the deterministic export).
    pub host_ns: u64,
    /// Host lane: 0 = the calling/main thread, `n` = pool worker
    /// `n - 1` (set by `accordion-pool` via [`set_lane`]).
    pub lane: u32,
    /// The typed payload.
    pub event: SimEvent,
}

struct TrackState {
    name: String,
    next_seq: u64,
    sim_cycles: u64,
}

struct Recorder {
    start: Instant,
    shards: Vec<Mutex<Vec<FlightEvent>>>,
    tracks: Mutex<BTreeMap<u64, TrackState>>,
    capacity: AtomicUsize,
    dropped: AtomicU64,
    untracked: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| Recorder {
        start: Instant::now(),
        shards: (0..NSHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        tracks: Mutex::new(BTreeMap::new()),
        capacity: AtomicUsize::new(DEFAULT_SHARD_CAPACITY),
        dropped: AtomicU64::new(0),
        untracked: AtomicU64::new(0),
    })
}

thread_local! {
    static CTX: RefCell<Ctx> = RefCell::new(Ctx::root());
    static LANE: Cell<u32> = const { Cell::new(0) };
}

struct Ctx {
    track: u64,
    name: String,
    next_seq: u64,
    sim_cycles: u64,
    /// Whether this thread entered `track` and so may record on it;
    /// false for the root and for a track carried from another thread.
    owned: bool,
}

impl Ctx {
    fn root() -> Self {
        Ctx {
            track: UNTRACKED,
            name: String::new(),
            next_seq: 0,
            sim_cycles: 0,
            owned: false,
        }
    }
}

/// Whether the flight recorder is on. One relaxed load — this is the
/// gate the `flight!` macros check before evaluating anything.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the recorder on (idempotent). Call [`drain`] first if a
/// previous recording should not bleed into the new one.
pub fn enable() {
    recorder();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the recorder off. Buffered events stay until [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Overrides the per-shard ring capacity (total capacity = 16×).
pub fn set_capacity(per_shard: usize) {
    recorder()
        .capacity
        .store(per_shard.max(1), Ordering::SeqCst);
}

/// Tags the current thread's host lane (0 = main, `n` = pool worker
/// `n - 1`). Called by `accordion-pool` when it spawns workers; cheap
/// enough to call unconditionally.
pub fn set_lane(lane: u32) {
    LANE.set(lane);
}

/// Human label for a host lane.
pub fn lane_name(lane: u32) -> String {
    if lane == 0 {
        "main".to_string()
    } else {
        format!("worker-{}", lane - 1)
    }
}

fn track_id(parent: u64, label: &str) -> u64 {
    // FNV-1a over the parent id and the label; stable across runs,
    // platforms and job counts.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parent.to_le_bytes().iter().chain(label.as_bytes()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    if h == UNTRACKED {
        0x9e37_79b9_7f4a_7c15
    } else {
        h
    }
}

/// RAII guard binding the current thread to a (possibly nested)
/// track. Track identity is `(parent track, label)` — deterministic,
/// independent of which pool worker runs the closure. Re-entering a
/// label resumes that track's sequence counter and sim clock, so a
/// track may be built up across multiple sequential scopes; it must
/// never be live on two threads at once.
pub struct TrackGuard {
    prev: Option<Ctx>,
}

impl TrackGuard {
    /// An inert guard (recorder disabled).
    pub fn inert() -> Self {
        TrackGuard { prev: None }
    }

    /// Enters a track named `label` under the current track, entered
    /// here or carried from the calling thread (see [`adopt`]), or as a
    /// root track if there is none.
    pub fn enter(label: &str) -> Self {
        if !enabled() {
            return Self::inert();
        }
        let rec = recorder();
        CTX.with(|c| {
            let mut ctx = c.borrow_mut();
            let (parent, full) = if ctx.track == UNTRACKED {
                (UNTRACKED, label.to_string())
            } else {
                (ctx.track, format!("{}/{}", ctx.name, label))
            };
            let id = track_id(parent, label);
            let mut tracks = rec.tracks.lock().expect("track table");
            let st = tracks.entry(id).or_insert_with(|| TrackState {
                name: full,
                next_seq: 0,
                sim_cycles: 0,
            });
            let new = Ctx {
                track: id,
                name: st.name.clone(),
                next_seq: st.next_seq,
                sim_cycles: st.sim_cycles,
                owned: true,
            };
            drop(tracks);
            let prev = std::mem::replace(&mut *ctx, new);
            TrackGuard { prev: Some(prev) }
        })
    }
}

impl Drop for TrackGuard {
    fn drop(&mut self) {
        let Some(prev) = self.prev.take() else {
            return;
        };
        CTX.with(|c| {
            let mut ctx = c.borrow_mut();
            if let Some(rec) = RECORDER.get() {
                let mut tracks = rec.tracks.lock().expect("track table");
                // Absent entry means a drain() raced the guard; the
                // context is stale either way, so just restore.
                if let Some(st) = tracks.get_mut(&ctx.track) {
                    st.next_seq = ctx.next_seq;
                    st.sim_cycles = ctx.sim_cycles;
                }
            }
            *ctx = prev;
        });
    }
}

/// A live track carried to another thread, where it parents the
/// tracks that thread enters; see [`carry`] and [`adopt`].
#[derive(Debug)]
pub struct CarriedTrack {
    id: u64,
    name: String,
}

/// The current thread's live track, for a pool to carry to its
/// workers. `None` when no track is live, and after one relaxed load
/// when the recorder is off.
pub fn carry() -> Option<CarriedTrack> {
    if !enabled() {
        return None;
    }
    CTX.with(|c| {
        let ctx = c.borrow();
        (ctx.track != UNTRACKED).then(|| CarriedTrack {
            id: ctx.track,
            name: ctx.name.clone(),
        })
    })
}

/// Makes `carried` the parent of the tracks this thread enters, as on
/// the thread that carried it, until the returned guard drops and
/// restores this thread's own context. Under the guard this thread
/// never records on `carried` itself, so an event recorded outside a
/// track of its own stays untracked. `accordion-pool` adopts on each
/// worker, and on the calling thread while it runs its own share of a
/// map, so a task records the same events on either.
pub fn adopt(carried: &CarriedTrack) -> AdoptGuard {
    let adopted = Ctx {
        track: carried.id,
        name: carried.name.clone(),
        next_seq: 0,
        sim_cycles: 0,
        owned: false,
    };
    AdoptGuard {
        prev: Some(CTX.with(|c| std::mem::replace(&mut *c.borrow_mut(), adopted))),
    }
}

/// Restores the context a thread had before [`adopt`] when dropped.
#[must_use = "dropping the guard ends the adoption at once"]
pub struct AdoptGuard {
    prev: Option<Ctx>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CTX.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Advances the current track's simulated clock by `cycles`.
pub fn advance_sim(cycles: u64) {
    if !enabled() {
        return;
    }
    CTX.with(|c| c.borrow_mut().sim_cycles += cycles);
}

/// Records an event at the current track clock. See [`record_at`].
pub fn record(event: SimEvent) {
    record_at(0, event);
}

/// Records an event `offset_cycles` past the current track clock.
/// No-op when the recorder is disabled; counted-and-dropped when this
/// thread has entered no track (untracked events cannot be ordered
/// deterministically).
pub fn record_at(offset_cycles: u64, event: SimEvent) {
    if !enabled() {
        return;
    }
    let rec = recorder();
    let Some((track, seq, t_cycles)) = CTX.with(|c| {
        let mut ctx = c.borrow_mut();
        if !ctx.owned {
            return None;
        }
        let seq = ctx.next_seq;
        ctx.next_seq += 1;
        Some((ctx.track, seq, ctx.sim_cycles + offset_cycles))
    }) else {
        rec.untracked.fetch_add(1, Ordering::Relaxed);
        crate::counter!("telemetry.flight.untracked").inc();
        return;
    };
    let host_ns = rec.start.elapsed().as_nanos() as u64;
    let ev = FlightEvent {
        track,
        seq,
        t_cycles,
        host_ns,
        lane: LANE.get(),
        event,
    };
    let shard = &rec.shards[(track as usize) % NSHARDS];
    let mut buf = shard.lock().expect("event shard");
    if buf.len() < rec.capacity.load(Ordering::Relaxed) {
        buf.push(ev);
    } else {
        rec.dropped.fetch_add(1, Ordering::Relaxed);
    }
}

/// A drained, deterministically ordered flight recording.
#[derive(Debug, Clone, Default)]
pub struct FlightLog {
    /// Events sorted by (track name, sequence number).
    pub events: Vec<FlightEvent>,
    /// Track id → full track name ("fab36/chip0/cluster3").
    pub track_names: BTreeMap<u64, String>,
    /// Events lost to ring overflow.
    pub dropped: u64,
    /// Events dropped because no track was entered.
    pub untracked: u64,
}

impl FlightLog {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The track name for an event.
    pub fn track_name(&self, ev: &FlightEvent) -> &str {
        self.track_names
            .get(&ev.track)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Event count per instrumented layer.
    pub fn layer_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for ev in &self.events {
            *m.entry(ev.event.layer()).or_insert(0) += 1;
        }
        m
    }
}

/// Drains all buffered events and resets the recorder (track table,
/// sequence counters, overflow counters) so back-to-back recordings of
/// the same workload produce identical logs. Call from a point with no
/// live [`TrackGuard`]s.
pub fn drain() -> FlightLog {
    let rec = recorder();
    let mut events = Vec::new();
    for shard in &rec.shards {
        events.append(&mut shard.lock().expect("event shard"));
    }
    let mut tracks = rec.tracks.lock().expect("track table");
    let track_names: BTreeMap<u64, String> = tracks
        .iter()
        .map(|(id, st)| (*id, st.name.clone()))
        .collect();
    tracks.clear();
    drop(tracks);
    let dropped = rec.dropped.swap(0, Ordering::SeqCst);
    let untracked = rec.untracked.swap(0, Ordering::SeqCst);
    events.sort_by(|a, b| {
        let na = track_names.get(&a.track);
        let nb = track_names.get(&b.track);
        na.cmp(&nb).then(a.seq.cmp(&b.seq))
    });
    FlightLog {
        events,
        track_names,
        dropped,
        untracked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex as StdMutex, OnceLock as StdOnceLock};

    // The recorder is process-global; unit tests serialize on this.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: StdOnceLock<StdMutex<()>> = StdOnceLock::new();
        GATE.get_or_init(|| StdMutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_recorder_drops_everything() {
        let _g = lock();
        disable();
        let _t = TrackGuard::enter("t");
        record(SimEvent::SafeFreq { f_ghz: 1.0 });
        enable();
        let log = drain();
        assert!(log.is_empty());
        disable();
    }

    #[test]
    fn tracked_events_are_ordered_and_named() {
        let _g = lock();
        enable();
        drain();
        {
            let _a = TrackGuard::enter("alpha");
            record(SimEvent::SafeFreq { f_ghz: 1.0 });
            advance_sim(10);
            record(SimEvent::SafeFreq { f_ghz: 2.0 });
            {
                let _b = TrackGuard::enter("beta");
                record(SimEvent::Infection { dc: 7 });
            }
        }
        let log = drain();
        disable();
        assert_eq!(log.len(), 3);
        assert_eq!(log.track_name(&log.events[0]), "alpha");
        assert_eq!(log.events[0].seq, 0);
        assert_eq!(log.events[1].seq, 1);
        assert_eq!(log.events[1].t_cycles, 10);
        assert_eq!(log.track_name(&log.events[2]), "alpha/beta");
        assert_eq!(log.layer_counts()["timing"], 2);
        assert_eq!(log.layer_counts()["fault"], 1);
    }

    #[test]
    fn untracked_events_are_counted_not_recorded() {
        let _g = lock();
        enable();
        drain();
        record(SimEvent::SafeFreq { f_ghz: 1.0 });
        let log = drain();
        disable();
        assert!(log.is_empty());
        assert_eq!(log.untracked, 1);
    }

    #[test]
    fn a_carried_track_parents_tracks_but_takes_no_events() {
        let _g = lock();
        enable();
        drain();
        let (carried, inline_id) = {
            let _req = TrackGuard::enter("req");
            let carried = carry().expect("a live track is carried");
            let inline_id = {
                let _p = TrackGuard::enter("point0");
                CTX.with(|c| c.borrow().track)
            };
            (carried, inline_id)
        };
        std::thread::spawn(move || {
            let _adopted = adopt(&carried);
            record(SimEvent::SafeFreq { f_ghz: 1.0 });
            let _p = TrackGuard::enter("point0");
            assert_eq!(CTX.with(|c| c.borrow().track), inline_id);
            record(SimEvent::SafeFreq { f_ghz: 2.0 });
        })
        .join()
        .expect("worker");
        let log = drain();
        disable();
        assert_eq!(log.untracked, 1);
        assert_eq!(log.len(), 1);
        assert_eq!(log.track_name(&log.events[0]), "req/point0");
    }

    #[test]
    fn an_adopt_guard_restores_the_adopting_threads_own_track() {
        let _g = lock();
        enable();
        drain();
        {
            let _own = TrackGuard::enter("own");
            let carried = carry().expect("a live track is carried");
            {
                let _adopted = adopt(&carried);
                record(SimEvent::SafeFreq { f_ghz: 1.0 });
            }
            record(SimEvent::SafeFreq { f_ghz: 2.0 });
        }
        let log = drain();
        disable();
        assert_eq!(log.untracked, 1, "the adopted track takes no events");
        assert_eq!(log.len(), 1);
        assert_eq!(log.track_name(&log.events[0]), "own");
        assert_eq!(log.events[0].seq, 0);
    }

    #[test]
    fn reentering_a_track_resumes_seq_and_clock() {
        let _g = lock();
        enable();
        drain();
        {
            let _t = TrackGuard::enter("resume");
            record(SimEvent::SafeFreq { f_ghz: 1.0 });
            advance_sim(5);
        }
        {
            let _t = TrackGuard::enter("resume");
            record(SimEvent::SafeFreq { f_ghz: 2.0 });
        }
        let log = drain();
        disable();
        assert_eq!(log.len(), 2);
        assert_eq!(log.events[1].seq, 1);
        assert_eq!(log.events[1].t_cycles, 5);
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let _g = lock();
        enable();
        drain();
        set_capacity(2);
        {
            let _t = TrackGuard::enter("over");
            for _ in 0..5 {
                record(SimEvent::Infection { dc: 0 });
            }
        }
        let log = drain();
        set_capacity(DEFAULT_SHARD_CAPACITY);
        disable();
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped, 3);
    }
}
