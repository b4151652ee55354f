//! Process-wide LRU cache of fabricated chips.
//!
//! Fabricating a chip is the expensive half of every simulation query:
//! sampling the variation field and deriving per-cluster timing costs
//! ~0.3 ms per 288-core chip even with the envelope sampler cache warm.
//! A long-lived service ("accordion-served") answers many queries
//! against the *same* chips, so this module keeps the most recently
//! used chips alive behind `Arc`s and lets repeated queries skip
//! fabrication entirely.
//!
//! The cache key is `(topology, seed, index)`. Chip `index` of a
//! population draws only from its own `("chip", index)` substream, so
//! it is the same chip in a population of any size: the population
//! size is not part of the key, and a query fabricates only the chip it
//! reads. The technology node and [`VariationParams`] are the paper
//! defaults baked into [`Chip::fabricate`] (11 nm, Table 2), which is
//! the only configuration the repro stack fabricates. The cache is an
//! [`accordion_pool::Memo`] named `chip.popcache`: least recently used
//! chips are evicted once [`CAPACITY`] are resident (an evicted chip
//! stays alive for as long as any caller still holds its `Arc`), and
//! concurrent misses on one key fabricate once.
//!
//! Hit/miss/join/eviction counts of chip lookups land in the telemetry
//! registry under `chip.popcache.*`, so `GET /metrics` shows cache
//! effectiveness.

use crate::chip::Chip;
use crate::topology::Topology;
use accordion_pool::Memo;
use accordion_stats::field::FieldError;
use accordion_stats::rng::SeedStream;
use accordion_varius::params::VariationParams;
use std::sync::{Arc, LazyLock};

/// Maximum number of resident chips before LRU eviction: eight
/// populations of the default eight chips.
pub const CAPACITY: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ChipKey {
    topo: Topology,
    seed: u64,
    index: usize,
}

static CACHE: LazyLock<Memo<ChipKey, Arc<Chip>, FieldError>> =
    LazyLock::new(|| Memo::new("chip.popcache", CAPACITY));

/// Chip `index` of the population `(topo, seed)`, and whether the
/// lookup was a cache hit — `true` when the chip was resident or
/// fabricated by a concurrent lookup this one waited on.
///
/// The chip is exactly what [`Chip::fabricate`] produces for the same
/// arguments with the default [`VariationParams`] — byte-identical
/// simulation results are preserved because the cache only memoizes,
/// never re-seeds. Fabrication on a miss runs *outside* the cache
/// lock, so concurrent warm lookups are never blocked behind a cold
/// one.
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
/// let (a, _) = popcache::chip(Topology::small(), 2014, 1)?;
/// let (b, hit) = popcache::chip(Topology::small(), 2014, 1)?;
/// assert!(hit && std::sync::Arc::ptr_eq(&a, &b));
/// # Ok::<(), accordion_stats::field::FieldError>(())
/// ```
pub fn chip(topo: Topology, seed: u64, index: usize) -> Result<(Arc<Chip>, bool), FieldError> {
    CACHE.lookup(&ChipKey { topo, seed, index }, || {
        Chip::fabricate(
            topo,
            &VariationParams::default(),
            SeedStream::new(seed),
            index as u64,
        )
        .map(Arc::new)
    })
}

/// Chips `0..count` of the population `(topo, seed)`: one [`chip`]
/// lookup per index, fanned out over the pool so cold chips fabricate
/// in parallel. Two populations of one seed share their common chips.
///
/// # Errors
///
/// Propagates [`FieldError`] from the variation sampler.
pub fn population(topo: Topology, seed: u64, count: usize) -> Result<Vec<Arc<Chip>>, FieldError> {
    accordion_pool::par_map_indexed(count, |i| chip(topo, seed, i).map(|(c, _)| c))
        .into_iter()
        .collect()
}

/// Lifetime chip-lookup counts `(hits, misses)` — the numbers behind
/// the `/metrics` hit-ratio gauge.
pub fn stats() -> (u64, u64) {
    let stats = CACHE.stats();
    (stats.hits, stats.misses)
}

/// Number of resident chips (for tests and health reporting).
pub fn len() -> usize {
    CACHE.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClusterId;
    use std::sync::Mutex;

    // The cache is process-wide: tests that fill it past capacity must
    // not evict another test's entries between its two lookups.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn small(seed: u64, index: usize) -> Arc<Chip> {
        chip(Topology::small(), seed, index).unwrap().0
    }

    #[test]
    fn hit_returns_the_resident_chip() {
        let _serial = serial();
        let (a, first_hit) = chip(Topology::small(), 7001, 1).unwrap();
        let (b, second_hit) = chip(Topology::small(), 7001, 1).unwrap();
        assert!(!first_hit && second_hit);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn populations_of_one_seed_share_their_chips() {
        let _serial = serial();
        let two = population(Topology::small(), 7002, 2).unwrap();
        let eight = population(Topology::small(), 7002, 8).unwrap();
        assert_eq!((two.len(), eight.len()), (2, 8));
        for i in 0..2 {
            assert!(Arc::ptr_eq(&two[i], &eight[i]), "chip {i} fabricated twice");
        }
        // Another seed or another index is another chip.
        assert!(!Arc::ptr_eq(&two[0], &small(7003, 0)));
        assert!(!Arc::ptr_eq(&two[0], &two[1]));
    }

    #[test]
    fn one_cold_chip_is_one_miss_and_matches_its_population() {
        let _serial = serial();
        let (len_before, before) = (len(), CACHE.stats());
        let cached = small(7004, 7);
        let after = CACHE.stats();
        assert_eq!(after.misses - before.misses, 1, "one lookup, one miss");
        assert_eq!(after.hits, before.hits);
        // A full cache makes room by evicting one chip.
        let evicted = (after.evictions - before.evictions) as usize;
        assert_eq!(len() + evicted, len_before + 1, "one resident chip");
        let direct = Chip::fabricate_population(
            Topology::small(),
            &VariationParams::default(),
            SeedStream::new(7004),
            0,
            8,
        )
        .unwrap();
        let reference = &direct[7];
        let safe_f_bits = |chip: &Chip| -> Vec<u64> {
            (0..chip.topology().num_clusters())
                .map(|c| chip.cluster_safe_f_ghz(ClusterId(c)).to_bits())
                .collect()
        };
        assert_eq!(cached.cluster_vddmin_v(), reference.cluster_vddmin_v());
        assert_eq!(
            cached.vdd_ntv_v().to_bits(),
            reference.vdd_ntv_v().to_bits()
        );
        assert_eq!(cached.sample().timing, reference.sample().timing);
        assert_eq!(safe_f_bits(&cached), safe_f_bits(reference));
    }

    #[test]
    fn lru_evicts_the_oldest_entry() {
        let _serial = serial();
        // Fill well past capacity with unique keys; the earliest key
        // must no longer be pointer-identical on re-fetch.
        let first = small(7100, 0);
        for s in 7101..(7101 + CAPACITY as u64) {
            small(s, 0);
        }
        assert!(len() <= CAPACITY);
        let refetched = small(7100, 0);
        assert!(
            !Arc::ptr_eq(&first, &refetched),
            "7100 should have aged out"
        );
        // Evicted-then-refabricated chips are still identical.
        assert_eq!(
            first.sample().cluster_vddmin_v,
            refetched.sample().cluster_vddmin_v
        );
    }

    #[test]
    fn a_hot_chip_survives_a_stream_of_cold_ones() {
        let _serial = serial();
        // Re-read between every cold insert, the hot chip is the most
        // recently used entry each time a cold one evicts; a FIFO
        // would drop it after CAPACITY inserts.
        let hot = small(7200, 0);
        for s in 7201..(7201 + 2 * CAPACITY as u64) {
            small(s, 0);
            assert!(
                Arc::ptr_eq(&hot, &small(7200, 0)),
                "hot chip evicted at seed {s}"
            );
        }
    }
}
