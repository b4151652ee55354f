//! Artifact registry: maps artifact ids to their generators, shared by
//! the `repro` binary and the test suite (so `repro all` can never
//! silently rot), and renders the usage and `repro list` texts.

use crate::cli::COMMANDS;
use crate::figures::{ablate, errmodel, extensions, fig1, fig2, fig5, fig6, headline, tables};
use accordion_telemetry::counter;

/// Every reproducible artifact id, in report order.
pub const ARTIFACTS: &[&str] = &[
    "fig1a",
    "fig1b",
    "fig1c",
    "fig2",
    "fig4",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7",
    "tab1",
    "tab2",
    "tab3",
    "headline",
    "errmodel",
    "ablate-selection",
    "ablate-phi",
    "ablate-ncp",
    "ablate-fdomain",
    "ext-organization",
    "ext-checkpoint",
    "ext-weakscale",
    "ext-runtime",
    "ext-baselines",
    "ext-validate",
    "ext-sync",
    "ablate-vdd",
    "ext-vdddomains",
    "ext-temperature",
    "ext-thermal",
];

/// One-line summary per artifact id, in the same order as
/// [`ARTIFACTS`]. `repro list` and `repro --help` render from this
/// table, so adding an artifact without describing it fails a test
/// rather than silently shipping undocumented.
pub const ARTIFACT_SUMMARIES: &[(&str, &str)] = &[
    (
        "fig1a",
        "Fig 1a: frequency vs Vdd for the 11 nm device model",
    ),
    (
        "fig1b",
        "Fig 1b: timing error rate vs Vdd at the nominal clock",
    ),
    ("fig1c", "Fig 1c: timing guardband vs Vdd"),
    (
        "fig2",
        "Fig 2: RMS app quality vs problem size (safe input)",
    ),
    (
        "fig4",
        "Fig 4: quality under Drop 1/4 and Drop 1/2 scenarios",
    ),
    ("fig5a", "Fig 5a: per-cluster VddMIN histogram of one chip"),
    (
        "fig5b",
        "Fig 5b: per-cluster timing-error-rate curves at VddNTV",
    ),
    (
        "fig6",
        "Fig 6: iso-execution-time fronts (canneal, ferret, bodytrack, x264)",
    ),
    ("fig7", "Fig 7: iso-execution-time fronts (hotspot, srad)"),
    ("tab1", "Table 1: basic Accordion modes of operation"),
    ("tab2", "Table 2: chip organization and derived parameters"),
    (
        "tab3",
        "Table 3: measured knob dependencies of the RMS apps",
    ),
    (
        "headline",
        "Headline comparison: Accordion vs rigid baselines",
    ),
    (
        "errmodel",
        "Error-model validation: corruption modes vs Drop",
    ),
    ("ablate-selection", "Ablation: cluster-selection policies"),
    ("ablate-phi", "Ablation: correlation range phi"),
    ("ablate-ncp", "Ablation: critical-path count per core"),
    ("ablate-fdomain", "Ablation: frequency-domain granularity"),
    ("ext-organization", "Extension: CC/DC design space sweep"),
    ("ext-checkpoint", "Extension: checkpoint/restart overhead"),
    ("ext-weakscale", "Extension: weak-scaling behaviour"),
    ("ext-runtime", "Extension: runtime scheduling policies"),
    ("ext-baselines", "Extension: alternative baseline machines"),
    (
        "ext-validate",
        "Extension: protocol analytic-model validation",
    ),
    ("ext-sync", "Extension: synchronization-cost sensitivity"),
    ("ablate-vdd", "Ablation: supply-voltage operating points"),
    ("ext-vdddomains", "Extension: per-cluster Vdd domains"),
    ("ext-temperature", "Extension: temperature sensitivity"),
    ("ext-thermal", "Extension: thermal feedback loop"),
];

/// The usage text `repro --help` prints, generated from the flag
/// tables in [`COMMANDS`] and from [`ARTIFACTS`].
pub fn usage_text() -> String {
    let mut out = String::from("usage:\n");
    for cmd in COMMANDS {
        out.push_str(&format!("  {}\n      {}\n", cmd.usage(), cmd.help));
    }
    out.push_str(
        "\nflags:\n  \
         --chips N        Monte-Carlo population size (default 5)\n  \
         --jobs N         worker threads; 1 = sequential; output is\n                   \
         byte-identical at every job count (default: ACCORDION_JOBS\n                   \
         or available parallelism)\n  \
         --chrome-trace F record the flight recorder to a Chrome trace_event\n                   \
         JSON (ACCORDION_CHROME_HOST=1 adds host tracks)\n",
    );
    out.push_str("\nartifacts:\n");
    for (id, summary) in ARTIFACT_SUMMARIES {
        out.push_str(&format!("  {id:<18} {summary}\n"));
    }
    out
}

/// The `repro list` report: every artifact and subcommand, one per
/// line, machine-friendly (`<kind>\t<id>\t<summary>`; a subcommand's
/// line adds its usage line as a fourth column).
pub fn list_text() -> String {
    let mut out = String::new();
    for (id, summary) in ARTIFACT_SUMMARIES {
        out.push_str(&format!("artifact\t{id}\t{summary}\n"));
    }
    for cmd in COMMANDS {
        let name = match cmd.name {
            "" => cmd.operand,
            name => name,
        };
        let usage = cmd.usage();
        out.push_str(&format!("subcommand\t{name}\t{}\t{usage}\n", cmd.help));
    }
    out
}

/// Generates the report for `artifact`; `chips` sizes the Monte-Carlo
/// population where applicable. Returns `None` for unknown ids.
pub fn generate(artifact: &str, chips: usize) -> Option<String> {
    // Artifact ids are a small fixed set, so interpolating them into
    // the span name keeps metric cardinality bounded.
    let _span = accordion_telemetry::span::SpanGuard::enter(&format!("bench.artifact.{artifact}"));
    let report = match artifact {
        "fig1a" => fig1::fig1a_report(),
        "fig1b" => fig1::fig1b_report(),
        "fig1c" => fig1::fig1c_report(),
        "fig2" => fig2::fig2_report(),
        "fig4" => fig2::fig4_report(),
        "fig5a" => fig5::fig5a_report(),
        "fig5b" => fig5::fig5b_report(),
        "fig6" => fig6::fig6_report(),
        "fig7" => fig6::fig7_report(),
        "tab1" => tables::tab1_report(),
        "tab2" => tables::tab2_report(chips),
        "tab3" => tables::tab3_report(),
        "headline" => headline::Headline::compute(chips).report(),
        "errmodel" => errmodel::errmodel_report(),
        "ablate-selection" => ablate::selection_report(),
        "ablate-phi" => ablate::phi_report(),
        "ablate-ncp" => ablate::ncp_report(),
        "ablate-fdomain" => ablate::fdomain_report(),
        "ext-organization" => extensions::organization_report(),
        "ext-checkpoint" => extensions::checkpoint_report(),
        "ext-weakscale" => extensions::weakscale_report(),
        "ext-runtime" => extensions::runtime_report(),
        "ext-baselines" => extensions::baselines_report(),
        "ext-validate" => extensions::validate_report(),
        "ext-sync" => extensions::sync_report(),
        "ablate-vdd" => extensions::vdd_report(),
        "ext-vdddomains" => extensions::vdddomains_report(),
        "ext-temperature" => extensions::temperature_report(),
        "ext-thermal" => extensions::thermal_report(),
        _ => return None,
    };
    counter!("bench.artifacts_generated").inc();
    counter!("bench.report_bytes").add(report.len() as u64);
    Some(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_artifact_is_none() {
        assert!(generate("fig99", 1).is_none());
    }

    #[test]
    fn cheap_artifacts_all_generate() {
        // The quick artifacts (no chip population, no full kernel
        // sweeps) must render non-empty reports.
        for id in [
            "fig1a",
            "fig1b",
            "fig1c",
            "tab1",
            "tab2",
            "ablate-ncp",
            "ext-checkpoint",
        ] {
            let r = generate(id, 1).expect("known id");
            assert!(r.len() > 100, "{id} report suspiciously short");
        }
    }

    #[test]
    fn summaries_cover_artifacts_exactly() {
        let ids: Vec<&str> = ARTIFACT_SUMMARIES.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, ARTIFACTS, "summary table out of sync with ARTIFACTS");
        for (id, summary) in ARTIFACT_SUMMARIES {
            assert!(!summary.is_empty(), "{id} has an empty summary");
        }
    }

    #[test]
    fn generated_help_mentions_everything() {
        let usage = usage_text();
        let list = list_text();
        for id in ARTIFACTS {
            assert!(usage.contains(id), "usage missing artifact {id}");
            assert!(list.contains(id), "list missing artifact {id}");
        }
        for name in [
            "list",
            "serve",
            "optimize",
            "profile",
            "validate-trace",
            "dash",
            "validate-alerts",
        ] {
            assert!(usage.contains(name), "usage missing subcommand {name}");
            assert!(list.contains(name), "list missing subcommand {name}");
        }
    }

    #[test]
    fn registry_has_no_duplicates() {
        let mut ids = ARTIFACTS.to_vec();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ARTIFACTS.len());
    }
}
