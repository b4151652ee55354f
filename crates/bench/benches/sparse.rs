//! Criterion benchmarks of the sparse compact-support variation
//! engine: dense vs envelope factorization, allocation-free per-chip
//! sampling, and end-to-end fabrication throughput at the paper's
//! 612-site default plan (φ = 0.1 → 2 mm range on a 20 mm die).
//!
//! `scripts/bench.sh` parses these into `BENCH_PR10.json` and computes
//! the dense/envelope construction and sampling speedup ratios.

use accordion_chip::chip::Chip;
use accordion_chip::floorplan::Floorplan;
use accordion_chip::topology::Topology;
use accordion_stats::field::{CorrelatedField, CorrelationModel};
use accordion_stats::rng::SeedStream;
use accordion_varius::params::VariationParams;
use accordion_varius::vmap::ChipVariation;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn paper_sites() -> (Vec<(f64, f64)>, f64) {
    let plan = Floorplan::paper_default().site_plan(&Topology::paper_default());
    let params = VariationParams::default();
    let range = params.phi * plan.chip_w_mm;
    (plan.all_points_mm(), range)
}

fn bench_factor(c: &mut Criterion) {
    let (points, range) = paper_sites();
    let model = CorrelationModel::Spherical { range };
    let mut group = c.benchmark_group("sparse/construct");
    group.sample_size(10);
    group.bench_function("dense_612", |b| {
        b.iter(|| black_box(CorrelatedField::new_dense(black_box(&points), model).unwrap()))
    });
    group.bench_function("envelope_612", |b| {
        b.iter(|| black_box(CorrelatedField::new(black_box(&points), model).unwrap()))
    });
    group.finish();

    // The full sampler (field + variation magnitudes), as artifact
    // generators build it. Dominated by the envelope factorization.
    let plan = Floorplan::paper_default().site_plan(&Topology::paper_default());
    let params = VariationParams::default();
    let mut group = c.benchmark_group("sparse");
    group.sample_size(10);
    group.bench_function("sampler_construct_612", |b| {
        b.iter(|| black_box(ChipVariation::sampler(black_box(&plan), &params).unwrap()))
    });
    group.finish();
}

fn bench_sample(c: &mut Criterion) {
    let (points, range) = paper_sites();
    let model = CorrelationModel::Spherical { range };
    let dense = CorrelatedField::new_dense(&points, model).unwrap();
    let envelope = CorrelatedField::new(&points, model).unwrap();
    assert!(
        envelope.is_sparse(),
        "paper plan should take the envelope engine"
    );
    let seed = SeedStream::new(1);
    let mut out = vec![0.0; points.len()];
    let mut group = c.benchmark_group("sparse/sample");
    group.bench_function("dense_612", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            dense.sample_into(&mut seed.stream("bench", i), &mut out);
            black_box(out[0])
        })
    });
    group.bench_function("envelope_612", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            envelope.sample_into(&mut seed.stream("bench", i), &mut out);
            black_box(out[0])
        })
    });
    group.finish();
}

fn bench_fabrication(c: &mut Criterion) {
    // End-to-end population fabrication: sampler (cached), field draws,
    // timing/SRAM models per chip. Per-iteration time divided by 8 is
    // the per-chip cost; bench.sh reports the inverse as chips/s.
    let topo = Topology::paper_default();
    let params = VariationParams::default();
    let mut group = c.benchmark_group("sparse");
    group.sample_size(10);
    group.bench_function("fabricate_population_8", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(
                Chip::fabricate_population(topo, &params, SeedStream::new(i), 0, 8)
                    .expect("population"),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_factor, bench_sample, bench_fabrication);
criterion_main!(benches);
