//! Exposition-format conformance: the registry's Prometheus rendering
//! must satisfy the format's structural rules, as checked by the
//! crate's own linter *and* by direct assertions (the linter and the
//! renderer must not share a blind spot).
//!
//! All tests share the process-global registry, so every metric name
//! is prefixed `promtest.` and assertions are substring/lint based
//! rather than whole-document equality.

use accordion_telemetry::prom;
use accordion_telemetry::registry::{exponential_bounds, global};

#[test]
fn counters_render_with_help_type_and_total_suffix() {
    let reg = global();
    reg.describe("promtest.deliveries", "test counter with help");
    reg.counter("promtest.deliveries").add(7);
    let text = prom::render(reg);
    assert!(
        text.contains("# HELP promtest_deliveries_total test counter with help\n"),
        "{text}"
    );
    assert!(text.contains("# TYPE promtest_deliveries_total counter\n"));
    assert!(text.contains("\npromtest_deliveries_total 7\n"));
}

#[test]
fn labeled_and_plain_samples_share_one_family_declaration() {
    let reg = global();
    reg.labeled_counter("promtest.shared", &[("outcome", "ok")])
        .add(3);
    reg.labeled_counter("promtest.shared", &[("outcome", "shed")])
        .inc();
    reg.counter("promtest.shared").add(5);
    let text = prom::render(reg);
    assert_eq!(
        text.matches("# TYPE promtest_shared_total counter").count(),
        1,
        "one TYPE line per family: {text}"
    );
    // The unlabelled sample renders first, right under the TYPE line.
    assert!(
        text.contains("# TYPE promtest_shared_total counter\npromtest_shared_total 5\n"),
        "{text}"
    );
    assert!(text.contains("promtest_shared_total{outcome=\"ok\"} 3\n"));
    assert!(text.contains("promtest_shared_total{outcome=\"shed\"} 1\n"));
}

#[test]
fn label_values_are_escaped() {
    let reg = global();
    reg.labeled_gauge("promtest.escapes", &[("path", "a\\b\"c\nd")])
        .set(1.0);
    let text = prom::render(reg);
    // Backslash, quote and newline must appear escaped on the wire.
    assert!(
        text.contains(r#"promtest_escapes{path="a\\b\"c\nd"} 1"#),
        "{text}"
    );
    // ...and the linter must be able to parse them back.
    prom::lint(&text).expect("escaped labels must lint clean");
}

#[test]
fn histogram_buckets_are_cumulative_and_match_count() {
    let reg = global();
    let h = reg.histogram("promtest.latency", &exponential_bounds(1.0, 2.0, 6));
    for v in [0.5, 1.5, 3.0, 3.5, 100.0] {
        h.record(v);
    }
    let text = prom::render(reg);
    let buckets: Vec<f64> = text
        .lines()
        .filter(|l| l.starts_with("promtest_latency_bucket{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert!(!buckets.is_empty(), "{text}");
    assert!(
        buckets.windows(2).all(|w| w[0] <= w[1]),
        "buckets must be cumulative: {buckets:?}"
    );
    let inf = text
        .lines()
        .find(|l| l.starts_with("promtest_latency_bucket{le=\"+Inf\"}"))
        .expect("+Inf bucket");
    assert!(inf.ends_with(" 5"), "{inf}");
    assert!(text.contains("\npromtest_latency_count 5\n"), "{text}");
    assert!(text.contains("\npromtest_latency_sum "), "{text}");
    assert!(text.contains("# TYPE promtest_latency histogram\n"));
}

#[test]
fn labeled_histograms_compose_with_le_and_render_exemplars() {
    let reg = global();
    reg.describe("promtest.labeled_hist", "labelled test histogram");
    reg.labeled_histogram(
        "promtest.labeled_hist",
        &[("outcome", "ok")],
        &exponential_bounds(1.0, 2.0, 6),
    )
    .record_with_exemplar(4.0, "request_id=\"9\"");
    let text = prom::render(reg);
    assert!(
        text.contains("# HELP promtest_labeled_hist labelled test histogram\n"),
        "{text}"
    );
    assert!(
        text.contains("promtest_labeled_hist_bucket{outcome=\"ok\",le=\""),
        "labels compose with le: {text}"
    );
    assert!(
        text.contains(
            "promtest_labeled_hist_bucket{outcome=\"ok\",le=\"4\"} 1 # {request_id=\"9\"} 4\n"
        ),
        "the exemplar decorates its bucket: {text}"
    );
    assert!(text.contains("promtest_labeled_hist_count{outcome=\"ok\"} 1\n"));
    prom::lint(&text).expect("exemplared labelled histogram lints clean");
}

#[test]
fn undescribed_metrics_get_a_fallback_help_line() {
    let reg = global();
    reg.counter("promtest.undocumented").inc();
    let text = prom::render(reg);
    assert!(
        text.contains(
            "# HELP promtest_undocumented_total accordion metric promtest.undocumented\n"
        ),
        "{text}"
    );
}

#[test]
fn the_full_document_lints_clean() {
    let reg = global();
    // Populate at least one of each shape, then lint everything the
    // registry currently holds (including other tests' metrics).
    reg.counter("promtest.full.counter").inc();
    reg.gauge("promtest.full.gauge").set(2.5);
    reg.labeled_counter("promtest.full.labeled", &[("k", "v")])
        .inc();
    reg.histogram("promtest.full.hist", &[1.0, 10.0])
        .record(3.0);
    let text = prom::render(reg);
    let report = prom::lint(&text).expect("registry output must lint clean");
    assert!(report.families >= 4, "{report:?}");
    assert!(report.samples >= 4, "{report:?}");
}

// ---- linter rejection cases: hand-written malformed documents ----

fn assert_rejected(doc: &str, why: &str) {
    let errors = prom::lint(doc).expect_err(why);
    assert!(!errors.is_empty());
}

#[test]
fn lint_rejects_samples_without_a_type() {
    assert_rejected("orphan_metric 1\n", "sample with no TYPE must fail");
}

#[test]
fn lint_rejects_type_without_help() {
    assert_rejected(
        "# TYPE nohelp counter\nnohelp_total 1\n",
        "TYPE without HELP must fail",
    );
}

#[test]
fn lint_rejects_duplicate_type_lines() {
    assert_rejected(
        "# HELP dup x\n# TYPE dup counter\ndup_total 1\n# TYPE dup counter\n",
        "duplicate TYPE must fail",
    );
}

#[test]
fn lint_rejects_decreasing_buckets() {
    assert_rejected(
        concat!(
            "# HELP h x\n# TYPE h histogram\n",
            "h_bucket{le=\"1\"} 5\n",
            "h_bucket{le=\"2\"} 3\n",
            "h_bucket{le=\"+Inf\"} 5\n",
            "h_sum 9\nh_count 5\n",
        ),
        "decreasing cumulative buckets must fail",
    );
}

#[test]
fn lint_rejects_inf_bucket_count_mismatch() {
    assert_rejected(
        concat!(
            "# HELP h x\n# TYPE h histogram\n",
            "h_bucket{le=\"1\"} 2\n",
            "h_bucket{le=\"+Inf\"} 5\n",
            "h_sum 9\nh_count 6\n",
        ),
        "+Inf bucket != _count must fail",
    );
}

#[test]
fn lint_rejects_missing_inf_bucket() {
    assert_rejected(
        concat!(
            "# HELP h x\n# TYPE h histogram\n",
            "h_bucket{le=\"1\"} 2\n",
            "h_sum 9\nh_count 2\n",
        ),
        "histogram without +Inf bucket must fail",
    );
}

#[test]
fn lint_rejects_unterminated_label_values() {
    assert_rejected(
        "# HELP bad x\n# TYPE bad gauge\nbad{k=\"unterminated} 1\n",
        "unbalanced quotes must fail",
    );
}

#[test]
fn lint_rejects_invalid_metric_names() {
    assert_rejected(
        "# HELP ok x\n# TYPE ok gauge\nok 1\n9starts_with_digit 2\n",
        "invalid metric name must fail",
    );
}
