//! Zero-dependency work-stealing thread pool for the Monte-Carlo hot
//! paths of the Accordion reproduction.
//!
//! The paper's evaluation is a Monte-Carlo study over a population of
//! VARIUS-NTV chip instances. Every per-chip (and per-benchmark)
//! computation draws from an independent `SeedStream` substream (see
//! `accordion_stats::rng::SeedStream`), so the work can be fanned out
//! across threads with **bit-identical** output: each item's result
//! depends only on its own derived seed, and the combinators below
//! return results in input order, so any downstream reduction sees
//! exactly the sequence the sequential code saw.
//!
//! Two entry points:
//!
//! * [`par_map`] / [`par_map_indexed`] — ordered-result parallel map
//!   over owned items / index ranges, the workhorses of the population
//!   and figure generators; tasks may borrow from the enclosing
//!   environment and may open nested `par_map`s;
//! * [`par_map_with`] / [`par_map_indexed_with`] — the same maps with
//!   an explicit worker count, for callers (the `accordion-served`
//!   request handlers) that must bound their own parallelism without
//!   touching the process-global [`set_jobs`] override.
//!
//! Beside them sits [`Memo`], the bounded singleflight memo every
//! cache in the workspace is built on: concurrent callers of one key
//! share one computation, wherever the pool schedules them.
//!
//! # Determinism contract
//!
//! For a pure `f` (no shared mutable state), `par_map_indexed(n, f)`
//! returns exactly `(0..n).map(f).collect()` for **every** thread
//! count, including 1. The repo's golden-value suite and the
//! `--jobs 1` vs `--jobs 8` determinism tests enforce this end to end.
//!
//! # Thread count
//!
//! [`jobs`] resolves, in priority order: an explicit [`set_jobs`]
//! override (the `repro --jobs N` flag), the `ACCORDION_JOBS`
//! environment variable, then [`std::thread::available_parallelism`].
//! `jobs() == 1` runs every combinator on the calling thread with no
//! worker threads at all — the old sequential path.
//!
//! A map over `w > 1` workers splits the indices into `w` contiguous
//! shares. The calling thread runs share 0 itself and spawns `w − 1`
//! scoped threads, `pool-w1` … `pool-w{w−1}`, for the others; any of
//! them steals from the others' tails when its own share runs dry. So
//! `pool.workers_spawned` counts `w − 1` per map, and a request's
//! maps cost one thread spawn fewer each than with a worker per share.
//!
//! # Panics
//!
//! A panic inside a task, on a spawned worker or in the caller's own
//! share, is caught there, the remaining work is abandoned, and the
//! first payload is re-raised on the calling thread once the map's
//! threads have been joined — the pool itself is never poisoned, and
//! the next call starts clean.
//!
//! # Example
//!
//! ```
//! let squares = accordion_pool::par_map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! let doubled = accordion_pool::par_map(vec![1, 2, 3], |x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//! ```
//!
//! Every task opens a `pool.task` telemetry span, so `ACCORDION_TRACE`
//! / `repro --trace` shows per-task timing, and `pool.tasks` /
//! `pool.steals` counters land in run manifests.
//!
//! # Trace context
//!
//! Workers carry the calling thread's live flight-recorder track
//! (`accordion_telemetry::event::carry`) as the parent of the tracks
//! their tasks enter, so a track entered inside a task has the same
//! full name and id whether the task runs inline or on a worker. The
//! caller adopts the same carried track while it runs share 0, or the
//! whole map when it runs on one worker, so a task records exactly
//! what it would on a worker at any worker count (nothing lands on
//! the caller's live track itself). With the recorder off this costs
//! one relaxed load per map.
//!
//! Host lanes (the Chrome host view): `pool-w{k}` records on lane
//! `k + 1` (`worker-k`), and the caller's share records on the
//! caller's own lane — lane 0 (`main`) for the main thread — so lane
//! 1 (`worker-0`) stays empty.

#![deny(missing_docs)]

mod memo;

pub use memo::{Memo, MemoStats};

use accordion_telemetry::event::CarriedTrack;
use accordion_telemetry::{counter, span};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

type PanicPayload = Box<dyn Any + Send + 'static>;

/// `set_jobs` override; 0 means "no override".
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the worker-thread count for every subsequent pool
/// operation (`Some(n)` clamps to at least 1; `None` restores the
/// `ACCORDION_JOBS` / auto-detect default). Process-global: the
/// `repro --jobs N` flag and the determinism tests are the intended
/// callers.
pub fn set_jobs(n: Option<usize>) {
    JOBS_OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::Relaxed);
}

/// The worker-thread count pool operations will use: the [`set_jobs`]
/// override if present, else a positive integer `ACCORDION_JOBS`, else
/// the machine's available parallelism.
pub fn jobs() -> usize {
    let o = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("ACCORDION_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one task under the pool's telemetry envelope.
fn run_one<R>(f: impl FnOnce() -> R) -> R {
    let _span = span!("pool.task");
    counter!("pool.tasks").inc();
    f()
}

/// Parallel map over an index range with results in index order.
///
/// Equivalent to `(0..n).map(f).collect()` — bit-identical for pure
/// `f` — but executed on [`jobs`] work-stealing workers, the calling
/// thread among them. Each worker starts on its own contiguous block
/// (cache-friendly) and steals from the tail of other blocks when it
/// runs dry.
///
/// # Panics
///
/// Re-raises the first panic from `f` after abandoning remaining
/// items; subsequent pool calls are unaffected.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indexed_with(jobs(), n, f)
}

/// [`par_map_indexed`] with an explicit worker-thread cap instead of
/// the global [`jobs`] setting.
///
/// Results are bit-identical to the sequential map for **every**
/// `workers` value — the cap only bounds how many OS threads this one
/// call may occupy. Long-lived services use this to give each request
/// a bounded slice of the machine while other requests run
/// concurrently; `workers` is clamped to at least 1 and at most `n`.
///
/// # Example
///
/// ```
/// let a = accordion_pool::par_map_indexed_with(1, 5, |i| i * i);
/// let b = accordion_pool::par_map_indexed_with(4, 5, |i| i * i);
/// assert_eq!(a, b);
/// ```
///
/// # Panics
///
/// Re-raises the first panic from `f` after abandoning remaining
/// items; subsequent pool calls are unaffected.
pub fn par_map_indexed_with<R, F>(workers: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.max(1).min(n);
    let parent = accordion_telemetry::event::carry();
    if workers <= 1 {
        // Inline, under the carried track too: a task records what it
        // would on a worker, whatever the worker count.
        let _adopted = parent.as_ref().map(accordion_telemetry::event::adopt);
        return (0..n).map(|i| run_one(|| f(i))).collect();
    }

    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Contiguous block per worker; stealing rebalances uneven costs.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = w * n / workers;
            let hi = (w + 1) * n / workers;
            Mutex::new((lo..hi).collect())
        })
        .collect();
    let panicked: Mutex<Option<PanicPayload>> = Mutex::new(None);
    // Worker `w`'s loop: its own block, then steals, until every index
    // is claimed or a task has panicked.
    let work = |w: usize| loop {
        let i = {
            let own = queues[w].lock().expect("pool queue lock").pop_front();
            match own.or_else(|| steal_index(&queues, w)) {
                Some(i) => i,
                None => return, // every index claimed
            }
        };
        if panicked.lock().expect("pool panic lock").is_some() {
            return; // abandon remaining work after a panic
        }
        match catch_unwind(AssertUnwindSafe(|| run_one(|| f(i)))) {
            Ok(v) => *slots[i].lock().expect("pool slot lock") = Some(v),
            Err(p) => {
                let mut slot = panicked.lock().expect("pool panic lock");
                if slot.is_none() {
                    *slot = Some(p);
                }
                return;
            }
        }
    };

    std::thread::scope(|s| {
        let work = &work;
        for w in 1..workers {
            spawn_worker(s, w, parent.as_ref(), move || work(w));
        }
        // The caller runs share 0 under the carried track, as a worker
        // would, so its tasks record exactly what they would there.
        let _adopted = parent.as_ref().map(accordion_telemetry::event::adopt);
        work(0);
    });

    if let Some(p) = panicked.into_inner().expect("pool panic lock") {
        resume_unwind(p);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("pool slot lock")
                .expect("every index computed")
        })
        .collect()
}

/// Spawns one named worker thread into a scope. The name shows up in
/// OS-level profilers and panic messages; the telemetry lane tags the
/// thread's flight-recorder events for the Chrome host-track view, and
/// the caller's carried flight track parents the tracks its tasks
/// enter.
fn spawn_worker<'scope, 'env: 'scope>(
    s: &'scope std::thread::Scope<'scope, 'env>,
    w: usize,
    parent: Option<&'scope CarriedTrack>,
    body: impl FnOnce() + Send + 'scope,
) {
    std::thread::Builder::new()
        .name(format!("pool-w{w}"))
        .spawn_scoped(s, move || {
            counter!("pool.workers_spawned").inc();
            accordion_telemetry::event::set_lane(w as u32 + 1);
            let _adopted = parent.map(accordion_telemetry::event::adopt);
            body()
        })
        .expect("spawn pool worker");
}

/// Steals one index from the back of another worker's queue.
fn steal_index(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    let nq = queues.len();
    for off in 1..nq {
        let o = (w + off) % nq;
        if let Some(i) = queues[o].lock().expect("pool queue lock").pop_back() {
            counter!("pool.steals").inc();
            return Some(i);
        }
    }
    None
}

/// Parallel map over owned items with results in input order.
///
/// Equivalent to `items.into_iter().map(f).collect()` for pure `f`.
///
/// # Panics
///
/// Re-raises the first panic from `f`; see [`par_map_indexed`].
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_with(jobs(), items, f)
}

/// [`par_map`] with an explicit worker-thread cap; see
/// [`par_map_indexed_with`] for the semantics of `workers`.
///
/// # Panics
///
/// Re-raises the first panic from `f`; see [`par_map_indexed`].
pub fn par_map_with<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    par_map_indexed_with(workers, slots.len(), |i| {
        let item = slots[i]
            .lock()
            .expect("pool item lock")
            .take()
            .expect("each index claimed exactly once");
        f(item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-global jobs override.
    static JOBS_LOCK: Mutex<()> = Mutex::new(());

    fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_jobs(Some(n));
        let r = f();
        set_jobs(None);
        r
    }

    #[test]
    fn jobs_override_wins() {
        let _guard = JOBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_jobs(Some(3));
        assert_eq!(jobs(), 3);
        set_jobs(Some(0)); // clamps to 1
        assert_eq!(jobs(), 1);
        set_jobs(None);
        assert!(jobs() >= 1);
    }

    #[test]
    fn par_map_indexed_matches_sequential() {
        for n in [0usize, 1, 2, 7, 64, 257] {
            let seq: Vec<u64> = (0..n)
                .map(|i| (i as u64).wrapping_mul(2654435761))
                .collect();
            let par = with_jobs(8, || {
                par_map_indexed(n, |i| (i as u64).wrapping_mul(2654435761))
            });
            assert_eq!(seq, par, "n={n}");
        }
    }

    #[test]
    fn par_map_preserves_order_under_uneven_cost() {
        let items: Vec<usize> = (0..40).collect();
        let out = with_jobs(4, || {
            par_map(items, |i| {
                // Make early items the slowest so stealing reorders
                // execution but not results.
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i * 10
            })
        });
        assert_eq!(out, (0..40).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn workers_are_named_for_profilers() {
        let caller = std::thread::current().id();
        let runners = with_jobs(4, || {
            par_map_indexed(16, |_| {
                let t = std::thread::current();
                (t.id(), t.name().map(str::to_string))
            })
        });
        let spawned = |name: &str| {
            name.strip_prefix("pool-w")
                .and_then(|k| k.parse::<usize>().ok())
                .is_some_and(|k| (1..4).contains(&k))
        };
        assert!(
            runners
                .iter()
                .all(|(id, name)| *id == caller || name.as_deref().is_some_and(spawned)),
            "tasks run on the caller or on pool-w1..pool-w3: {runners:?}"
        );
    }

    #[test]
    fn a_panic_in_the_callers_share_is_reraised_after_the_workers_join() {
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        let released = AtomicBool::new(false);
        let running = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            par_map_indexed_with(4, 8, |i| {
                if std::thread::current().id() == caller {
                    released.store(true, Ordering::SeqCst);
                    panic!("caller share {i}");
                }
                // Each worker holds its first task until the caller's
                // share has panicked, so the caller's block is never
                // stolen before the caller reaches it.
                running.fetch_add(1, Ordering::SeqCst);
                while !released.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                // Still running well after the caller's panic: a
                // re-raise before the join would see `running > 0`.
                std::thread::sleep(std::time::Duration::from_millis(2));
                running.fetch_sub(1, Ordering::SeqCst);
                i
            })
        }));
        let payload = outcome.expect_err("the caller's panic is re-raised");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("caller share 0")
        );
        assert_eq!(running.load(Ordering::SeqCst), 0, "workers joined first");
        assert_eq!(
            par_map_indexed_with(4, 8, |i| i * 3),
            (0..8).map(|i| i * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn explicit_worker_cap_is_independent_of_global_jobs() {
        // `par_map_*_with` must ignore the process-global override:
        // a request-scoped cap of 2 runs 2 workers even when the
        // global setting says 1 (and vice versa), with identical
        // results either way.
        let seq: Vec<usize> = (0..33).map(|i| i * 7).collect();
        let a = with_jobs(1, || par_map_indexed_with(4, 33, |i| i * 7));
        let b = with_jobs(8, || par_map_indexed_with(1, 33, |i| i * 7));
        assert_eq!(a, seq);
        assert_eq!(b, seq);
        let items: Vec<usize> = (0..33).collect();
        let c = with_jobs(1, || par_map_with(4, items, |i| i * 7));
        assert_eq!(c, seq);
    }

    #[test]
    fn workers_nest_tracks_under_the_callers_live_track() {
        use accordion_telemetry::event::{self, SimEvent};
        use accordion_telemetry::flight_track;
        event::enable();
        event::drain();
        let record = |workers: usize| {
            {
                let _req = flight_track!("req{:08}", 7);
                par_map_indexed_with(workers, 4, |i| {
                    let _point = flight_track!("point{}", i);
                    event::record(SimEvent::SafeFreq { f_ghz: 1.0 });
                });
            }
            event::drain()
        };
        let inline = record(1);
        let spread = record(4);
        // A task never records on the carried track, inline or on a
        // worker: the track's owner is the calling thread.
        let stray = [1, 4].map(|workers| {
            {
                let _req = flight_track!("req{:08}", 7);
                par_map_indexed_with(workers, 4, |_| {
                    event::record(SimEvent::SafeFreq { f_ghz: 2.0 })
                });
            }
            event::drain()
        });
        event::disable();

        let points: Vec<&str> = spread.events.iter().map(|e| spread.track_name(e)).collect();
        assert_eq!(
            points,
            [0, 1, 2, 3].map(|i| format!("req00000007/point{i}")),
            "{:?}",
            spread.track_names
        );
        assert_eq!(inline.track_names, spread.track_names, "same names and ids");
        assert_eq!(spread.untracked, 0);
        for log in stray {
            assert!(log.is_empty(), "{:?}", log.track_names);
            assert_eq!(log.untracked, 4);
        }
    }

    #[test]
    fn sequential_mode_uses_calling_thread() {
        let caller = std::thread::current().id();
        let ids = with_jobs(1, || par_map_indexed(3, |_| std::thread::current().id()));
        assert!(ids.iter().all(|id| *id == caller));
    }
}
