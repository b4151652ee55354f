//! A bounded, singleflight memo for pure functions of a key.
//!
//! Every cache in the workspace memoizes a pure function: a population
//! is fixed by `(topology, seed, count)`, a variation sampler by its
//! correlation structure, quality fronts by their app, a response by
//! its route and body. [`Memo`] is the one primitive they share:
//!
//! * **Bounded LRU.** At most `capacity` values are resident. A hit is
//!   a hash lookup plus a recency stamp, and lookups accept borrowed
//!   keys (`&str` for `String`, `&[u8]` for `Vec<u8>`). Only an insert
//!   into a full memo scans for the least recently used value.
//! * **Singleflight.** Pending and ready entries live in one map under
//!   one lock. The first caller of a missing key (the *leader*)
//!   computes it outside the lock; concurrent callers of the same key
//!   (*joiners*) wait for the leader instead of computing again. A
//!   leader that unwinds wakes its joiners, who retry, and leaves
//!   nothing pending.
//! * **Errors are never stored.** An `Err` reaches the leader and the
//!   joiners of that flight only; the next lookup computes afresh. A
//!   caller that wants failures cached stores the `Result` itself as
//!   the value.
//! * **Metrics.** Each memo owns `{name}.hits`, `{name}.misses`,
//!   `{name}.joins` and `{name}.evictions` counters and a
//!   `{name}.entries` gauge in the telemetry registry, resolved once at
//!   construction. `hits + misses` counts lookups; `joins` counts the
//!   hits that waited on a leader. [`Memo::stats`] reports the same
//!   counts for one instance when several share a name.
//!
//! A computation may consult other memos, but the memos reachable from
//! a computation must form a DAG: a leader that waits, directly or
//! through another memo, on its own pending key waits forever.
//!
//! # Example
//!
//! ```
//! use accordion_pool::Memo;
//!
//! let squares: Memo<u64, u64> = Memo::new("doc.squares", 2);
//! assert_eq!(squares.get_or_insert_with(&3, || 9), 9);
//! assert_eq!(squares.get_or_insert_with(&3, || unreachable!()), 9);
//! assert_eq!((squares.stats().hits, squares.stats().misses), (1, 1));
//! ```

use accordion_telemetry::registry::{global, Counter, Gauge};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Lifetime lookup counts of one [`Memo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered with a resident value or a leader's value.
    pub hits: u64,
    /// Lookups that computed, or shared a leader's error.
    pub misses: u64,
    /// Hits that waited on a concurrent leader.
    pub joins: u64,
    /// Values dropped to stay within capacity.
    pub evictions: u64,
}

/// A bounded LRU memo with singleflight computation; see the module
/// docs. `E` is the error type of fallible computations.
pub struct Memo<K, V, E = Infallible> {
    capacity: usize,
    state: Mutex<State<K, V, E>>,
    hits: &'static Counter,
    misses: &'static Counter,
    joins: &'static Counter,
    evictions: &'static Counter,
    entries: &'static Gauge,
}

struct State<K, V, E> {
    map: HashMap<K, Slot<V, E>>,
    /// Ready entries; pending ones do not count against capacity.
    ready: usize,
    /// Recency clock, advanced by every hit and insert.
    clock: u64,
    stats: MemoStats,
}

enum Slot<V, E> {
    Ready { value: V, used: u64 },
    Pending(Arc<Flight<V, E>>),
}

/// One running computation, which joiners wait on.
struct Flight<V, E> {
    outcome: Mutex<Outcome<V, E>>,
    done: Condvar,
}

enum Outcome<V, E> {
    Running,
    Done(Result<V, E>),
    /// The leader unwound; joiners retry.
    Abandoned,
}

/// What a lookup does once it has looked at the map.
enum Step<V, E> {
    Hit(V),
    Join(Arc<Flight<V, E>>),
    Lead(Arc<Flight<V, E>>),
}

/// Locks `m`, ignoring poison: the memo's critical sections only hash
/// keys and clone values, and leave the map consistent wherever one of
/// those could panic, so a poisoned lock still guards valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<K: Hash + Eq, V: Clone, E: Clone> Memo<K, V, E> {
    /// An empty memo holding at most `capacity` values, reporting under
    /// `{name}.*` in the telemetry registry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: &str, capacity: usize) -> Self {
        assert!(capacity > 0, "memo {name}: capacity must be positive");
        let reg = global();
        let counter = |what: &str| reg.counter(&format!("{name}.{what}"));
        Self {
            capacity,
            state: Mutex::new(State {
                map: HashMap::new(),
                ready: 0,
                clock: 0,
                stats: MemoStats::default(),
            }),
            hits: counter("hits"),
            misses: counter("misses"),
            joins: counter("joins"),
            evictions: counter("evictions"),
            entries: reg.gauge(&format!("{name}.entries")),
        }
    }

    /// The value for `key`, computing it with `f` on a miss, and
    /// whether the lookup was a hit: `true` when the value was resident
    /// or came from a concurrent leader, `false` when this call
    /// computed it.
    ///
    /// # Errors
    ///
    /// The error `f` returned, in this call or in the concurrent
    /// leader's call this one joined. Errors are not stored.
    pub fn lookup<Q>(&self, key: &Q, f: impl FnOnce() -> Result<V, E>) -> Result<(V, bool), E>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let flight = loop {
            match self.enter(key) {
                Step::Hit(value) => {
                    self.hits.inc();
                    return Ok((value, true));
                }
                Step::Lead(flight) => {
                    self.misses.inc();
                    break flight;
                }
                Step::Join(flight) => match flight.wait() {
                    Some(Ok(value)) => {
                        let mut st = lock(&self.state);
                        st.stats.hits += 1;
                        st.stats.joins += 1;
                        drop(st);
                        self.hits.inc();
                        self.joins.inc();
                        return Ok((value, true));
                    }
                    Some(Err(e)) => {
                        lock(&self.state).stats.misses += 1;
                        self.misses.inc();
                        return Err(e);
                    }
                    None => continue,
                },
            }
        };
        let mut guard = LeaderGuard {
            memo: self,
            key,
            flight: &flight,
            armed: true,
        };
        let result = f();
        guard.armed = false;
        self.finish(key, &flight, Some(&result));
        result.map(|value| (value, false))
    }

    /// Looks `key` up under the lock: a hit refreshes its recency, a
    /// pending key is joined, and a missing key becomes pending with
    /// this caller as its leader.
    fn enter<Q>(&self, key: &Q) -> Step<V, E>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        match st.map.get_mut(key) {
            Some(Slot::Ready { value, used }) => {
                st.clock += 1;
                *used = st.clock;
                st.stats.hits += 1;
                Step::Hit(value.clone())
            }
            Some(Slot::Pending(flight)) => Step::Join(flight.clone()),
            None => {
                let flight = Arc::new(Flight {
                    outcome: Mutex::new(Outcome::Running),
                    done: Condvar::new(),
                });
                st.map.insert(key.to_owned(), Slot::Pending(flight.clone()));
                st.stats.misses += 1;
                Step::Lead(flight)
            }
        }
    }

    /// Ends a leader's flight: stores a value (evicting the least
    /// recently used one if full) or drops the pending entry, then
    /// hands the outcome to the joiners. `None` means the leader
    /// unwound.
    fn finish<Q>(&self, key: &Q, flight: &Flight<V, E>, result: Option<&Result<V, E>>)
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        let mut evicted = false;
        match result {
            Some(Ok(value)) => {
                if st.ready == self.capacity {
                    st.evict_oldest();
                    evicted = true;
                }
                st.clock += 1;
                let slot = st.map.get_mut(key).expect("a flight's key stays pending");
                *slot = Slot::Ready {
                    value: value.clone(),
                    used: st.clock,
                };
                st.ready += 1;
                self.entries.set(st.ready as f64);
            }
            _ => {
                st.map.remove(key);
            }
        }
        drop(guard);
        if evicted {
            self.evictions.inc();
        }
        *lock(&flight.outcome) = match result {
            Some(r) => Outcome::Done(r.clone()),
            None => Outcome::Abandoned,
        };
        flight.done.notify_all();
    }

    /// Number of resident values (pending computations excluded).
    pub fn len(&self) -> usize {
        lock(&self.state).ready
    }

    /// Whether no value is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This instance's lookup counts so far.
    pub fn stats(&self) -> MemoStats {
        lock(&self.state).stats
    }
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// The value for `key`, computing it with `f` on a miss.
    pub fn get_or_insert_with<Q>(&self, key: &Q, f: impl FnOnce() -> V) -> V
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let Ok((value, _)) = self.lookup(key, || Ok(f()));
        value
    }
}

impl<K, V, E> State<K, V, E> {
    /// Drops the least recently used ready value.
    fn evict_oldest(&mut self) {
        let oldest = self
            .map
            .values()
            .filter_map(|slot| match slot {
                Slot::Ready { used, .. } => Some(*used),
                Slot::Pending(_) => None,
            })
            .min();
        if let Some(oldest) = oldest {
            self.map
                .retain(|_, slot| !matches!(slot, Slot::Ready { used, .. } if *used == oldest));
            self.ready -= 1;
            self.stats.evictions += 1;
        }
    }
}

impl<V: Clone, E: Clone> Flight<V, E> {
    /// Blocks until the leader finishes: its result, or `None` if it
    /// unwound.
    fn wait(&self) -> Option<Result<V, E>> {
        let mut outcome = lock(&self.outcome);
        loop {
            match &*outcome {
                Outcome::Running => {
                    outcome = self
                        .done
                        .wait(outcome)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Outcome::Done(result) => return Some(result.clone()),
                Outcome::Abandoned => return None,
            }
        }
    }
}

/// Ends the flight as abandoned if the leader's computation unwinds,
/// so joiners retry instead of waiting forever.
struct LeaderGuard<'a, K: Hash + Eq + Borrow<Q>, V: Clone, E: Clone, Q: Hash + Eq + ?Sized> {
    memo: &'a Memo<K, V, E>,
    key: &'a Q,
    flight: &'a Flight<V, E>,
    armed: bool,
}

impl<K: Hash + Eq + Borrow<Q>, V: Clone, E: Clone, Q: Hash + Eq + ?Sized> Drop
    for LeaderGuard<'_, K, V, E, Q>
{
    fn drop(&mut self) {
        if self.armed {
            self.memo.finish(self.key, self.flight, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// How many parties hold `key`'s pending flight: the map, the
    /// leader, and one per joiner.
    fn flight_holders<K: Hash + Eq, V, E>(memo: &Memo<K, V, E>, key: &K) -> usize {
        match lock(&memo.state).map.get(key) {
            Some(Slot::Pending(flight)) => Arc::strong_count(flight),
            _ => 0,
        }
    }

    #[test]
    fn racing_threads_compute_each_key_once() {
        const KEYS: usize = 200;
        const THREADS: usize = 64;
        let memo: Memo<usize, usize> = Memo::new("test.memo.race", 256);
        let computed: Vec<AtomicUsize> = (0..KEYS).map(|_| AtomicUsize::new(0)).collect();
        let start = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (memo, computed, start) = (&memo, &computed, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..KEYS {
                        let k = (i + t * 7) % KEYS;
                        let v = memo.get_or_insert_with(&k, || {
                            computed[k].fetch_add(1, Ordering::SeqCst);
                            std::thread::yield_now();
                            k * 3
                        });
                        assert_eq!(v, k * 3);
                    }
                });
            }
        });
        for (k, n) in computed.iter().enumerate() {
            assert_eq!(
                n.load(Ordering::SeqCst),
                1,
                "key {k} computed more than once"
            );
        }
        let st = memo.stats();
        assert_eq!(st.misses, KEYS as u64);
        assert_eq!(st.hits + st.misses, (KEYS * THREADS) as u64);
        assert!(st.joins <= st.hits);
        assert_eq!(st.evictions, 0);
        assert_eq!(memo.len(), KEYS);
    }

    #[test]
    fn a_panicking_leader_wakes_its_joiners_and_leaves_nothing_pending() {
        const JOINERS: usize = 3;
        let memo: Memo<u32, u32> = Memo::new("test.memo.panic", 4);
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                memo.get_or_insert_with(&1, || {
                    while flight_holders(&memo, &1) < 2 + JOINERS {
                        std::thread::yield_now();
                    }
                    panic!("leader fails mid-computation");
                })
            });
            while flight_holders(&memo, &1) == 0 {
                std::thread::yield_now();
            }
            let joiners: Vec<_> = (0..JOINERS)
                .map(|_| s.spawn(|| memo.get_or_insert_with(&1, || 7)))
                .collect();
            assert!(leader.join().is_err(), "the leader's panic propagates");
            for j in joiners {
                assert_eq!(j.join().expect("joiners return"), 7);
            }
        });
        // One joiner recomputed after the panic and stored its value.
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.lookup(&1, || Ok(0)), Ok((7, true)));
        // A panic with no joiners leaves the key absent, not pending.
        let lone = std::panic::catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_insert_with(&2, || panic!("no joiners"))
        }));
        assert!(lone.is_err());
        assert_eq!(flight_holders(&memo, &2), 0);
        assert_eq!(memo.lookup(&2, || Ok(9)), Ok((9, false)));
    }

    #[test]
    fn errors_reach_the_joiners_and_are_not_stored() {
        const JOINERS: usize = 3;
        let memo: Memo<u32, u32, String> = Memo::new("test.memo.err", 4);
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                memo.lookup(&1, || {
                    while flight_holders(&memo, &1) < 2 + JOINERS {
                        std::thread::yield_now();
                    }
                    Err("model failure".to_string())
                })
            });
            while flight_holders(&memo, &1) == 0 {
                std::thread::yield_now();
            }
            // A joiner's own computation would succeed, so an `Err`
            // here can only be the leader's.
            let joiners: Vec<_> = (0..JOINERS)
                .map(|_| s.spawn(|| memo.lookup(&1, || Ok(5))))
                .collect();
            assert_eq!(leader.join().unwrap(), Err("model failure".to_string()));
            for j in joiners {
                assert_eq!(j.join().unwrap(), Err("model failure".to_string()));
            }
        });
        assert!(memo.is_empty(), "errors are not stored");
        assert_eq!(memo.stats().misses, 1 + JOINERS as u64);
        assert_eq!(memo.lookup(&1, || Ok(5)), Ok((5, false)));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn distinct_keys_from_many_threads_stay_within_capacity() {
        const CAP: usize = 8;
        let memo: Memo<usize, usize> = Memo::new("test.memo.bound", CAP);
        std::thread::scope(|s| {
            for t in 0..4 {
                let memo = &memo;
                s.spawn(move || {
                    for i in 0..10 * CAP {
                        let k = (i + t * 13) % (10 * CAP);
                        assert_eq!(memo.get_or_insert_with(&k, || k + 1), k + 1);
                        assert!(memo.len() <= CAP);
                    }
                });
            }
        });
        let st = memo.stats();
        assert_eq!(memo.len(), CAP);
        assert_eq!(st.evictions, st.misses - memo.len() as u64);
        assert_eq!(global().gauge("test.memo.bound.entries").get(), CAP as f64);
        assert_eq!(
            global().counter("test.memo.bound.evictions").get(),
            st.evictions
        );
    }

    #[test]
    fn a_recently_touched_key_survives_eviction() {
        const CAP: usize = 4;
        let memo: Memo<u32, u32> = Memo::new("test.memo.lru", CAP);
        let hot_computed = AtomicUsize::new(0);
        let hot = || {
            memo.get_or_insert_with(&0, || {
                hot_computed.fetch_add(1, Ordering::SeqCst);
                100
            })
        };
        hot();
        for cold in 1..=(CAP as u32 + 6) {
            memo.get_or_insert_with(&cold, || cold);
            assert_eq!(hot(), 100);
        }
        assert_eq!(
            hot_computed.load(Ordering::SeqCst),
            1,
            "a FIFO would evict it"
        );
        assert_eq!(memo.len(), CAP);
        // The cold keys aged out in insertion order.
        assert_eq!(memo.lookup(&1, || Ok(0)), Ok((0, false)));
    }

    #[test]
    fn lookups_borrow_their_keys() {
        let by_name: Memo<String, usize> = Memo::new("test.memo.str", 2);
        assert_eq!(by_name.get_or_insert_with("canneal", || 7), 7);
        assert_eq!(by_name.lookup("canneal", || Ok(0)), Ok((7, true)));
        let by_bytes: Memo<Vec<u8>, u8> = Memo::new("test.memo.bytes", 2);
        let body: &[u8] = b"{}";
        assert_eq!(by_bytes.get_or_insert_with(body, || 1), 1);
        assert_eq!(by_bytes.lookup(body, || Ok(0)), Ok((1, true)));
    }
}
