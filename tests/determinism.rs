//! Determinism proof for the parallel Monte-Carlo engine: every
//! parallelized loop must produce the same bytes at `--jobs 1`
//! (sequential, the pre-pool code path) and `--jobs 8`.
//!
//! This holds because each work item draws only from its own labelled
//! `SeedStream` substream and `accordion_pool::par_map*` returns
//! results in input order — thread count and steal order never touch
//! the data flow.
//!
//! `accordion_pool::set_jobs` is process-global, so every test in this
//! binary serializes on [`JOBS`].

use accordion::pareto::ParetoExtractor;
use accordion_apps::harness::FrontSet;
use accordion_apps::hotspot::Hotspot;
use accordion_bench::registry::generate;
use accordion_chip::chip::Chip;
use accordion_chip::topology::Topology;
use accordion_stats::rng::SeedStream;
use accordion_varius::params::VariationParams;
use std::sync::Mutex;

static JOBS: Mutex<()> = Mutex::new(());

fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
    accordion_pool::set_jobs(Some(n));
    let r = f();
    accordion_pool::set_jobs(None);
    r
}

/// The artifacts whose generators run at least one `accordion_pool`
/// parallel loop (population fabrication, per-chip reports, per-app
/// kernel sweeps, φ design points, error-model matrices).
const PARALLEL_ARTIFACTS: &[&str] = &[
    "fig5b",
    "fig6",
    "fig7",
    "tab2",
    "headline",
    "errmodel",
    "ablate-phi",
    "ext-validate",
];

#[test]
fn parallel_artifacts_are_byte_identical_across_job_counts() {
    let _guard = JOBS.lock().unwrap_or_else(|e| e.into_inner());
    for &id in PARALLEL_ARTIFACTS {
        let seq = with_jobs(1, || generate(id, 2).expect("known artifact"));
        let par = with_jobs(8, || generate(id, 2).expect("known artifact"));
        if seq != par {
            let line = seq
                .lines()
                .zip(par.lines())
                .position(|(a, b)| a != b)
                .map_or(seq.lines().count().min(par.lines().count()) + 1, |i| i + 1);
            panic!(
                "artifact {id}: --jobs 1 and --jobs 8 disagree \
                 (first difference at line {line})"
            );
        }
    }
}

/// The flight recorder must not merely keep artifact bytes stable —
/// its own serialized output must be byte-identical at any job count.
/// Events recorded from pool workers land on tracks derived from
/// stable labels, with per-track sequence numbers, so the drained log
/// (and hence the Chrome export) is independent of scheduling.
#[test]
fn flight_recording_is_byte_identical_across_job_counts() {
    use accordion_telemetry::chrome::chrome_trace;
    use accordion_telemetry::event;

    let _guard = JOBS.lock().unwrap_or_else(|e| e.into_inner());
    event::enable();
    // Reset anything a previous test in this binary may have buffered.
    let _ = event::drain();
    let run = || {
        generate("headline", 2).expect("known artifact");
        generate("ablate-phi", 2).expect("known artifact");
        accordion_bench::profile::protocol_probe();
        event::drain()
    };
    let seq = with_jobs(1, run);
    let par = with_jobs(8, run);
    event::disable();

    // Every instrumented layer contributes events through the probe.
    let layers = seq.layer_counts();
    for layer in ["ccdc", "checkpoint", "fault", "phases", "runtime", "timing"] {
        assert!(
            layers.contains_key(layer),
            "layer {layer} missing from recording: {layers:?}"
        );
    }
    assert_eq!(seq.untracked, par.untracked, "untracked counts differ");

    // The deterministic (sim-only) Chrome export must match bytewise;
    // host timestamps are excluded by design.
    let a = chrome_trace(&seq, false).render();
    let b = chrome_trace(&par, false).render();
    if a != b {
        let at = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(a.len().min(b.len()));
        panic!(
            "flight recording differs between --jobs 1 and --jobs 8 \
             (first difference at byte {at}: ...{}... vs ...{}...)",
            &a[at.saturating_sub(40)..(at + 40).min(a.len())],
            &b[at.saturating_sub(40)..(at + 40).min(b.len())],
        );
    }
}

/// The sweep must not depend on the worker count. `Debug` formatting
/// of `f64` round-trips bits (it even distinguishes `-0.0`), so
/// comparing the rendered fronts pins bit equality, not approximate
/// equality. The columnar engine's agreement with the object-path
/// oracle is pinned in `accordion::pareto`'s unit tests.
#[test]
fn pareto_sweep_is_jobs_invariant() {
    let _guard = JOBS.lock().unwrap_or_else(|e| e.into_inner());
    let chip = Chip::fabricate_default(0).expect("chip fabrication");
    let app = Hotspot::paper_default();
    let set = FrontSet::measured(&app);
    let extractor = ParetoExtractor::new(&chip, &app, &set);

    let seq = with_jobs(1, || extractor.extract());
    let par = with_jobs(8, || extractor.extract());
    assert_eq!(
        format!("{seq:?}"),
        format!("{par:?}"),
        "pareto sweep differs between --jobs 1 and --jobs 8"
    );
}

/// Front measurement runs each app's (scenario, knob) pairs through the
/// pool. The artifacts above read `FrontSet::measured`'s process-wide
/// cache, which only the first job count fills, so the fronts are
/// measured directly here and compared bit for bit through `Debug`.
#[test]
fn front_measurement_is_jobs_invariant() {
    let _guard = JOBS.lock().unwrap_or_else(|e| e.into_inner());
    let apps = accordion_apps::all_apps()
        .into_iter()
        .chain(accordion_apps::extension_apps());
    for app in apps {
        let seq = with_jobs(1, || FrontSet::measure(app.as_ref()));
        let par = with_jobs(8, || FrontSet::measure(app.as_ref()));
        assert_eq!(
            format!("{seq:?}"),
            format!("{par:?}"),
            "{}: fronts differ between --jobs 1 and --jobs 8",
            app.name()
        );
    }
}

#[test]
fn population_fabrication_is_jobs_invariant() {
    let _guard = JOBS.lock().unwrap_or_else(|e| e.into_inner());
    fn fabricate() -> Vec<Chip> {
        Chip::fabricate_population(
            Topology::small(),
            &VariationParams::default(),
            SeedStream::new(2014),
            0,
            6,
        )
        .expect("fabrication")
    }
    let seq = with_jobs(1, fabricate);
    let par = with_jobs(8, fabricate);
    assert_eq!(seq.len(), par.len());
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        // Exact equality: the parallel path must replay the identical
        // substream draws, not merely land close.
        assert_eq!(a.vdd_ntv_v(), b.vdd_ntv_v(), "chip {i}: VddNTV differs");
        assert_eq!(
            a.cluster_vddmin_v(),
            b.cluster_vddmin_v(),
            "chip {i}: per-cluster VddMIN differs"
        );
    }
}
