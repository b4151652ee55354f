//! Process-wide LRU cache of fabricated chip populations.
//!
//! Fabricating a population is the expensive half of every simulation
//! query: sampling the variation field and deriving per-cluster timing
//! costs ~0.3 ms per 288-core chip even with the envelope sampler
//! cache warm. A long-lived service ("accordion-served") answers many
//! queries against the *same* population — identical `(topology, seed,
//! count)` — so this module keeps the most recently used populations
//! alive behind `Arc`s and lets repeated queries skip fabrication
//! entirely.
//!
//! The cache key is `(topology, seed, count)`; the technology node and
//! [`VariationParams`] are the paper defaults baked into
//! [`Chip::fabricate_population`] (11 nm, Table 2), which is the only
//! configuration the repro stack fabricates. The cache is an
//! [`accordion_pool::Memo`] named `chip.popcache`: least recently used
//! populations are evicted once [`CAPACITY`] are resident (an evicted
//! population stays alive for as long as any caller still holds its
//! `Arc`), and concurrent misses on one key fabricate once.
//!
//! Hit/miss/join/eviction counts land in the telemetry registry under
//! `chip.popcache.*`, so `GET /metrics` shows cache effectiveness.

use crate::chip::Chip;
use crate::topology::Topology;
use accordion_pool::Memo;
use accordion_stats::field::FieldError;
use accordion_stats::rng::SeedStream;
use accordion_varius::params::VariationParams;
use std::sync::{Arc, LazyLock};

/// Maximum number of resident populations before LRU eviction.
pub const CAPACITY: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PopKey {
    topo: Topology,
    seed: u64,
    count: usize,
}

static CACHE: LazyLock<Memo<PopKey, Arc<Vec<Chip>>, FieldError>> =
    LazyLock::new(|| Memo::new("chip.popcache", CAPACITY));

/// Returns chips `0..count` of the population `(topo, seed)`, reusing
/// a cached population when one is resident.
///
/// The returned slice is exactly what
/// [`Chip::fabricate_population`] produces for the same arguments with
/// the default [`VariationParams`] — byte-identical simulation results
/// are preserved because the cache only memoizes, never re-seeds.
/// Fabrication on a miss runs *outside* the cache lock, so concurrent
/// warm lookups are never blocked behind a cold one; concurrent misses
/// on the same key wait for one fabrication and share its `Arc`.
///
/// # Errors
///
/// Propagates [`FieldError`] from the variation sampler.
///
/// # Example
///
/// ```
/// use accordion_chip::popcache;
/// use accordion_chip::topology::Topology;
///
/// let a = popcache::population(Topology::small(), 2014, 2)?;
/// let b = popcache::population(Topology::small(), 2014, 2)?;
/// assert!(std::sync::Arc::ptr_eq(&a, &b)); // second call is a hit
/// # Ok::<(), accordion_stats::field::FieldError>(())
/// ```
pub fn population(topo: Topology, seed: u64, count: usize) -> Result<Arc<Vec<Chip>>, FieldError> {
    population_with_status(topo, seed, count).map(|(pop, _)| pop)
}

/// [`population`] plus whether the lookup was a cache hit — for
/// callers (the serving access log) that report per-request cache
/// effectiveness. `true` means the population was already resident or
/// fabricated by a concurrent lookup this one waited on.
///
/// # Errors
///
/// Propagates [`FieldError`] from the variation sampler.
pub fn population_with_status(
    topo: Topology,
    seed: u64,
    count: usize,
) -> Result<(Arc<Vec<Chip>>, bool), FieldError> {
    CACHE.lookup(&PopKey { topo, seed, count }, || {
        Chip::fabricate_population(
            topo,
            &VariationParams::default(),
            SeedStream::new(seed),
            0,
            count,
        )
        .map(Arc::new)
    })
}

/// Lifetime hit/miss counts `(hits, misses)` — the numbers behind the
/// `/metrics` hit-ratio gauge.
pub fn stats() -> (u64, u64) {
    let stats = CACHE.stats();
    (stats.hits, stats.misses)
}

/// Number of resident populations (for tests and health reporting).
pub fn len() -> usize {
    CACHE.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The cache is process-wide: tests that fill it past capacity must
    // not evict another test's entries between its two lookups.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn hit_returns_the_resident_population() {
        let _serial = serial();
        let a = population(Topology::small(), 7001, 2).unwrap();
        let b = population(Topology::small(), 7001, 2).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let _serial = serial();
        let a = population(Topology::small(), 7002, 1).unwrap();
        let b = population(Topology::small(), 7003, 1).unwrap();
        let c = population(Topology::small(), 7002, 2).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn cached_population_matches_direct_fabrication() {
        let _serial = serial();
        let cached = population(Topology::small(), 7004, 2).unwrap();
        let direct = Chip::fabricate_population(
            Topology::small(),
            &VariationParams::default(),
            SeedStream::new(7004),
            0,
            2,
        )
        .unwrap();
        for (a, b) in cached.iter().zip(&direct) {
            assert_eq!(a.sample().cluster_vddmin_v, b.sample().cluster_vddmin_v);
        }
    }

    #[test]
    fn lru_evicts_the_oldest_entry() {
        let _serial = serial();
        // Fill well past capacity with unique keys; the earliest key
        // must no longer be pointer-identical on re-fetch.
        let first = population(Topology::small(), 7100, 1).unwrap();
        for s in 7101..(7101 + CAPACITY as u64) {
            population(Topology::small(), s, 1).unwrap();
        }
        assert!(len() <= CAPACITY);
        let refetched = population(Topology::small(), 7100, 1).unwrap();
        assert!(
            !Arc::ptr_eq(&first, &refetched),
            "7100 should have aged out"
        );
        // Evicted-then-refabricated populations are still identical.
        assert_eq!(
            first[0].sample().cluster_vddmin_v,
            refetched[0].sample().cluster_vddmin_v
        );
    }

    #[test]
    fn a_hot_population_survives_a_stream_of_cold_ones() {
        let _serial = serial();
        // Re-read between every cold insert, the hot population is the
        // most recently used entry each time a cold one evicts; a FIFO
        // would drop it after CAPACITY inserts.
        let hot = population(Topology::small(), 7200, 1).unwrap();
        for s in 7201..(7201 + CAPACITY as u64 + 2) {
            population(Topology::small(), s, 1).unwrap();
            let again = population(Topology::small(), 7200, 1).unwrap();
            assert!(
                Arc::ptr_eq(&hot, &again),
                "hot population evicted at seed {s}"
            );
        }
    }
}
