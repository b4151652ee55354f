//! Pareto-front extraction.
//!
//! One extraction answers every (flavor, size, cluster-count) cell of
//! a Figure 6/7 front for one benchmark on one chip — the hot loop of
//! the fig6/fig7 artifacts. `scripts/bench.sh --check` gates the
//! absolute `sweep_extract_batched` key against the committed baseline.
//!
//! Setup (chip fabrication, front measurement, extractor construction
//! including the one-time `ChipColumns` build) happens outside the
//! timed region: the gate measures the per-sweep cost a warm process
//! pays, not amortized startup.

use accordion::pareto::ParetoExtractor;
use accordion_apps::harness::FrontSet;
use accordion_apps::hotspot::Hotspot;
use accordion_bench::chip0;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_sweep(c: &mut Criterion) {
    let chip = chip0();
    let app = Hotspot::paper_default();
    let set = FrontSet::measured(&app);
    let extractor = ParetoExtractor::new(chip, &app, &set);

    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("extract_batched", |b| {
        b.iter(|| black_box(black_box(&extractor).extract()))
    });
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
