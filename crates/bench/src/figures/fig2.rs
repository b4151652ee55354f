//! Figures 2 and 4: quality of computing versus problem size under
//! Default, Drop 1/4 and Drop 1/2 execution.
//!
//! Figure 2 shows `canneal` and `hotspot`; Figure 4 the remaining four
//! benchmarks. Both axes are normalized to the default Accordion
//! input, profiled under 64 threads (32 for `srad`).

use crate::output::{f, TextTable};
use accordion_apps::app::{all_apps, RmsApp};
use accordion_apps::harness::FrontSet;

/// Measures the front sets for a named subset of benchmarks, served
/// from the process-wide [`FrontSet::measured`] cache.
pub fn front_sets(names: &[&str]) -> Vec<FrontSet> {
    all_apps()
        .iter()
        .filter(|a| names.contains(&a.name()))
        .map(|a| FrontSet::measured(a.as_ref()).as_ref().clone())
        .collect()
}

/// Measures the Figure 2 benchmarks (canneal, hotspot).
pub fn fig2_sets() -> Vec<FrontSet> {
    front_sets(&["canneal", "hotspot"])
}

/// Measures the Figure 4 benchmarks (ferret, bodytrack, x264, srad).
pub fn fig4_sets() -> Vec<FrontSet> {
    front_sets(&["ferret", "bodytrack", "x264", "srad"])
}

fn render_sets(title: &str, sets: &[FrontSet]) -> String {
    let mut out = format!("{title}\n");
    for set in sets {
        let mut t = TextTable::new(["scenario", "knob", "size_norm", "quality_norm"]);
        for front in &set.fronts {
            for p in &front.points {
                t.row([
                    front.scenario.label(),
                    f(p.knob),
                    f(p.size_norm),
                    f(p.quality_norm),
                ]);
            }
        }
        out.push_str(&format!("\n[{}]\n{}", set.app, t.render()));
    }
    out
}

/// Renders Figure 2.
pub fn fig2_report() -> String {
    render_sets(
        "Figure 2 — quality vs problem size (canneal, hotspot)",
        &fig2_sets(),
    )
}

/// Renders Figure 4.
pub fn fig4_report() -> String {
    render_sets(
        "Figure 4 — quality vs problem size (ferret, bodytrack, x264, srad)",
        &fig4_sets(),
    )
}

/// The benchmark registry entry for `name`.
pub fn app_by_name(name: &str) -> Box<dyn RmsApp> {
    all_apps()
        .into_iter()
        .find(|a| a.name() == name)
        .expect("known benchmark name")
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_apps::harness::Scenario;

    #[test]
    fn fig2_has_both_benchmarks_with_three_fronts() {
        let sets = fig2_sets();
        assert_eq!(sets.len(), 2);
        for s in &sets {
            assert_eq!(s.fronts.len(), 3);
            for front in &s.fronts {
                assert_eq!(front.points.len(), 8);
            }
        }
    }

    #[test]
    fn quality_monotone_under_default_for_fig2_apps() {
        for set in fig2_sets() {
            let front = set.front(Scenario::Default).unwrap();
            for w in front.points.windows(2) {
                assert!(
                    w[1].quality_norm >= w[0].quality_norm - 0.02,
                    "{}: Q must increase with size",
                    set.app
                );
            }
        }
    }

    #[test]
    fn drop_half_not_excessive_except_bodytrack() {
        // Paper: "With the exception of bodytrack, Q degradation does
        // not become excessive even if half of the threads are
        // dropped."
        for set in fig2_sets().into_iter().chain(fig4_sets()) {
            let d = set.front(Scenario::Drop(0.5)).unwrap();
            let q_at_default = d
                .points
                .iter()
                .min_by(|a, b| {
                    (a.size_norm - 1.0)
                        .abs()
                        .partial_cmp(&(b.size_norm - 1.0).abs())
                        .unwrap()
                })
                .unwrap()
                .quality_norm;
            if set.app == "bodytrack" {
                assert!(
                    q_at_default < 0.85,
                    "bodytrack must be Drop-sensitive, got {q_at_default}"
                );
            } else {
                assert!(
                    q_at_default > 0.5,
                    "{}: Drop 1/2 must not be catastrophic, got {q_at_default}",
                    set.app
                );
            }
        }
    }

    #[test]
    fn report_renders_all_sections() {
        let r = fig2_report();
        assert!(r.contains("[canneal]") && r.contains("[hotspot]"));
    }
}
