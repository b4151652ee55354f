//! Extension experiments beyond the paper's evaluation: the Figure 3
//! CC/DC organization comparison, checkpoint-recovery overhead under
//! speculation, strict weak scaling (Section 7), and dynamic runtime
//! orchestration (Section 7).

use crate::chip0;
use crate::output::{f, TextTable};
use accordion::baselines::compare_at;
use accordion::mode::{FrequencyPolicy, Mode, ProblemScaling};
use accordion::pareto::ParetoExtractor;
use accordion::runtime::RuntimeController;
use accordion::validation::validate_point;
use accordion_apps::app::extension_apps;
use accordion_apps::harness::FrontSet;
use accordion_chip::organization::{chip_yield, CcDcOrganization};
use accordion_chip::topology::ClusterId;
use accordion_sim::checkpoint::CheckpointParams;
use accordion_sim::sync::BarrierModel;
use accordion_sim::workload::Workload;
use accordion_varius::params::VariationParams;

/// Figure 3 design-space comparison: chip-wide DC throughput and
/// control power for the three organizations.
pub fn organization_rows() -> Vec<(String, f64, f64)> {
    let chip = chip0();
    let params = VariationParams::default();
    CcDcOrganization::figure3_variants()
        .iter()
        .map(|&org| {
            let (core_ghz, control_w) = chip_yield(chip, org, &params);
            (org.label().to_string(), core_ghz, control_w)
        })
        .collect()
}

/// Renders the organization comparison.
pub fn organization_report() -> String {
    let mut t = TextTable::new([
        "organization",
        "DC throughput (core-GHz)",
        "control power (W)",
    ]);
    for (label, core_ghz, control_w) in organization_rows() {
        t.row([label, f(core_ghz), f(control_w)]);
    }
    format!(
        "Extension — Figure 3 CC/DC organization design space\n{}",
        t.render()
    )
}

/// Checkpoint-recovery dilation across speculative error rates and
/// escalation fractions.
pub fn checkpoint_rows() -> Vec<(f64, f64, f64)> {
    let cp = CheckpointParams::paper_default();
    let mut rows = Vec::new();
    for perr_exp in [6, 8, 10] {
        for esc_exp in [0, 3, 6] {
            let perr = 10f64.powi(-perr_exp);
            let esc = 10f64.powi(-esc_exp);
            rows.push((perr, esc, cp.dilation_for_error_rate(perr, esc)));
        }
    }
    rows
}

/// Renders the checkpoint ablation.
pub fn checkpoint_report() -> String {
    let mut t = TextTable::new(["Perr/cycle", "escalation", "time dilation"]);
    for (perr, esc, d) in checkpoint_rows() {
        t.row([
            crate::output::sci(perr),
            crate::output::sci(esc),
            format!("{:.4}x", d),
        ]);
    }
    format!(
        "Extension — checkpoint-recovery overhead under speculation\n\
         (the Section 4.1 claim: the safety net is cheap while the\n\
         application absorbs almost all errors)\n{}",
        t.render()
    )
}

/// Strict weak scaling (Section 7): the hashsearch extension kernel's
/// quality fronts and iso-time fronts.
pub fn weakscale_report() -> String {
    let apps = extension_apps();
    let app = apps
        .iter()
        .find(|a| a.name() == "hashsearch")
        .expect("hashsearch registered");
    let set = FrontSet::measured(app.as_ref());
    let mut t = TextTable::new(["scenario", "size_norm", "quality_norm"]);
    for front in &set.fronts {
        for p in &front.points {
            t.row([front.scenario.label(), f(p.size_norm), f(p.quality_norm)]);
        }
    }
    // Iso-time fronts through the regular machinery: strict weak
    // scaling is the Accordion best case.
    let fronts = ParetoExtractor::new(chip0(), app.as_ref(), &set).extract();
    let mut t2 = TextTable::new(["mode", "size_norm", "N_ratio", "MIPSW_ratio", "quality"]);
    for front in &fronts {
        for p in &front.points {
            t2.row([
                front.flavor.to_string(),
                f(p.size_norm),
                f(p.n_ratio),
                f(p.eff_norm),
                f(p.quality_norm),
            ]);
        }
    }
    format!(
        "Extension — strict weak scaling (hashsearch, Section 7)\n{}\niso-execution-time fronts:\n{}",
        t.render(),
        t2.render()
    )
}

/// Section 8 comparison: Accordion's equal-f discipline versus the
/// Booster and EnergySmart variation-mitigation baselines at matched
/// cluster counts.
pub fn baselines_report() -> String {
    let chip = chip0();
    let exec = accordion_sim::exec::ExecModel::paper_default();
    let w = Workload::rms_default(1e6);
    let mut t = TextTable::new(["clusters", "mechanism", "core-GHz", "power (W)", "MIPS/W"]);
    for n in [4usize, 9, 18, 36] {
        for plan in compare_at(chip, n) {
            t.row([
                n.to_string(),
                plan.mechanism.to_string(),
                f(plan.core_ghz),
                f(plan.power_w),
                f(plan.mips_per_w(&exec, &w)),
            ]);
        }
    }
    format!(
        "Extension — Section 8 baselines: Booster & EnergySmart vs equal-f\n{}",
        t.render()
    )
}

/// The Section 4 equal-frequency discipline, quantified: equal-f with
/// even task dealing versus per-cluster frequencies with
/// speed-proportional (integral) task apportionment, across task
/// granularities, on the 9 most efficient clusters of chip 0.
/// Proportional scheduling wins on raw time (it is EnergySmart's
/// advantage); the gap narrows as tasks coarsen, and equal-f needs no
/// speed-aware scheduler at all — the simplicity/scalability trade the
/// paper makes.
pub fn sync_report() -> String {
    let chip = chip0();
    let mut order: Vec<usize> = (0..36).collect();
    order.sort_by(|&a, &b| {
        chip.cluster_efficiency(ClusterId(b))
            .partial_cmp(&chip.cluster_efficiency(ClusterId(a)))
            .expect("finite")
    });
    let groups: Vec<(usize, f64)> = order[..9]
        .iter()
        .map(|&c| (8usize, chip.cluster_safe_f_ghz(ClusterId(c))))
        .collect();
    let f_min = groups.iter().map(|g| g.1).fold(f64::INFINITY, f64::min);
    let equal_groups: Vec<(usize, f64)> = groups.iter().map(|&(c, _)| (c, f_min)).collect();
    let work = 1e9;
    let mut t = TextTable::new([
        "tasks/phase",
        "equal-f time (ms)",
        "proportional time (ms)",
        "winner",
    ]);
    for tasks in [16u32, 64, 256, 4096] {
        let m = BarrierModel {
            task_quantum: work / tasks as f64,
            barrier_cost_s: 1e-6,
        };
        let te = m.phase_time_s(work, &equal_groups, false) * 1e3;
        let tp = m.phase_time_s(work, &groups, true) * 1e3;
        t.row([
            tasks.to_string(),
            f(te),
            f(tp),
            if te <= tp { "equal-f" } else { "proportional" }.to_string(),
        ]);
    }
    format!(
        "Extension — synchronization & scheduling: equal-f vs per-cluster f\n\
         (the cost of the Section 4 equal-progress discipline)\n{}",
        t.render()
    )
}

/// Operating-voltage sensitivity: what raising the designated Vdd
/// above the chip's VddMIN-dictated floor buys and costs, full chip at
/// safe frequencies.
pub fn vdd_report() -> String {
    let chip = chip0();
    let params = VariationParams::default();
    let fm = chip.freq_model();
    let core_model = chip.power_model().core_model();
    let tech = fm.technology();
    let mut t = TextTable::new(["Vdd (V)", "core-GHz", "power (W)", "core-GHz/W"]);
    let mut vdd = chip.vdd_ntv_v();
    while vdd <= chip.vdd_ntv_v() + 0.101 {
        let mut core_ghz = 0.0;
        let mut power = 0.0;
        for c in 0..36 {
            // Cluster safe f at this Vdd: slowest member core.
            let mut f_cluster = f64::INFINITY;
            for core in chip.topology().cores_of(ClusterId(c)) {
                let dv = chip.sample().variation.core_vth_delta_v[core.0];
                let lm = chip.sample().variation.core_leff_mult[core.0];
                let timing = accordion_varius::timing::CoreTiming::new(fm, &params, vdd, dv, lm);
                f_cluster = f_cluster.min(timing.safe_frequency_ghz(&params));
            }
            for core in chip.topology().cores_of(ClusterId(c)) {
                let dv = chip.sample().variation.core_vth_delta_v[core.0];
                let lm = chip.sample().variation.core_leff_mult[core.0];
                power += core_model.core_power(vdd, f_cluster, dv, lm).total_w();
            }
            power += chip
                .power_model()
                .cluster_uncore_w(vdd, f_cluster / tech.f_nom_ghz);
            core_ghz += 8.0 * f_cluster;
        }
        t.row([f(vdd), f(core_ghz), f(power), f(core_ghz / power)]);
        vdd += 0.02;
    }
    format!(
        "Ablation — designated operating voltage above the VddMIN floor\n\
         (full chip, per-cluster safe frequencies)\n{}",
        t.render()
    )
}

/// Per-cluster Vdd domains: the paper designates one chip-wide VddNTV
/// (the worst cluster's VddMIN); with per-cluster supply rails each
/// cluster could sit at its own floor instead. Quantifies what that
/// extra supply-network complexity would buy.
pub fn vdddomains_report() -> String {
    let chip = chip0();
    let params = VariationParams::default();
    let fm = chip.freq_model();
    let core_model = chip.power_model().core_model();
    let tech = fm.technology();
    let mut rows: Vec<(&str, f64, f64)> = Vec::new();
    for &(label, per_cluster) in &[
        ("chip-wide VddNTV (paper)", false),
        ("per-cluster Vdd domains", true),
    ] {
        let mut core_ghz = 0.0;
        let mut power = 0.0;
        for c in 0..36 {
            let vdd = if per_cluster {
                chip.cluster_vddmin_v()[c]
            } else {
                chip.vdd_ntv_v()
            };
            let mut f_cluster = f64::INFINITY;
            for core in chip.topology().cores_of(ClusterId(c)) {
                let dv = chip.sample().variation.core_vth_delta_v[core.0];
                let lm = chip.sample().variation.core_leff_mult[core.0];
                let t = accordion_varius::timing::CoreTiming::new(fm, &params, vdd, dv, lm);
                f_cluster = f_cluster.min(t.safe_frequency_ghz(&params));
            }
            for core in chip.topology().cores_of(ClusterId(c)) {
                let dv = chip.sample().variation.core_vth_delta_v[core.0];
                let lm = chip.sample().variation.core_leff_mult[core.0];
                power += core_model.core_power(vdd, f_cluster, dv, lm).total_w();
            }
            power += chip
                .power_model()
                .cluster_uncore_w(vdd, f_cluster / tech.f_nom_ghz);
            core_ghz += 8.0 * f_cluster;
        }
        rows.push((label, core_ghz, power));
    }
    let mut t = TextTable::new(["supply scheme", "core-GHz", "power (W)", "core-GHz/W"]);
    for (label, g, p) in &rows {
        t.row([label.to_string(), f(*g), f(*p), f(g / p)]);
    }
    format!(
        "Extension — chip-wide vs per-cluster Vdd domains (full chip, safe f)\n{}",
        t.render()
    )
}

/// Operating-temperature sensitivity: leakage, thermal voltage and the
/// safe frequency of a nominal core as the die heats from 40 to
/// 100 degC, holding the 80 degC-calibrated device constants.
pub fn temperature_report() -> String {
    use accordion_vlsi::tech::Technology;
    let base = Technology::node_11nm();
    let fm80 = chip0().freq_model().clone();
    let params = VariationParams::default();
    let mut t = TextTable::new(["T (degC)", "safe f (GHz)", "leakage (rel. 80C)"]);
    let leak80 = accordion_vlsi::device::leakage_current(&base, 0.6, 0.0, 1.0);
    for tc in [40.0f64, 60.0, 80.0, 100.0] {
        let tech = Technology {
            temperature_k: tc + 273.15,
            ..base.clone()
        };
        let fm = fm80.with_technology(&tech);
        let timing = accordion_varius::timing::CoreTiming::new(&fm, &params, 0.6, 0.0, 1.0);
        let leak = accordion_vlsi::device::leakage_current(&tech, 0.6, 0.0, 1.0);
        t.row([
            format!("{tc}"),
            f(timing.safe_frequency_ghz(&params)),
            f(leak / leak80),
        ]);
    }
    format!(
        "Extension — operating-temperature sensitivity (0.6 V, nominal core)\n\
         (hotter: more subthreshold current, exponentially more leakage)\n{}",
        t.render()
    )
}

/// Thermal feedback: operating temperature and stability of the full
/// NTV chip across cooling qualities, plus temperature vs engaged
/// core count at the paper's cooling.
pub fn thermal_report() -> String {
    use accordion_chip::thermal::{solve, ThermalParams, ThermalSolution};
    let chip = chip0();
    let pm = chip.power_model().core_model().clone();
    let topo = *chip.topology();
    let mut t = TextTable::new(["R_th (K/W)", "outcome", "T (degC)", "power (W)"]);
    for r in [0.2f64, 0.35, 0.5, 0.8, 1.2, 2.0] {
        let th = ThermalParams {
            ambient_k: 318.15,
            r_th_k_per_w: r,
        };
        match solve(&pm, &topo, &th, 288, 36, 0.55, 1.0) {
            ThermalSolution::Stable {
                temperature_k,
                power_w,
            } => {
                t.row([
                    f(r),
                    "stable".to_string(),
                    f(temperature_k - 273.15),
                    f(power_w),
                ]);
            }
            ThermalSolution::Runaway => {
                t.row([
                    f(r),
                    "RUNAWAY".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
            }
        }
    }
    let mut t2 = TextTable::new(["active cores", "T (degC)"]);
    let th = ThermalParams::paper_default();
    for clusters in [4usize, 9, 18, 27, 36] {
        if let ThermalSolution::Stable { temperature_k, .. } =
            solve(&pm, &topo, &th, clusters * 8, clusters, 0.55, 1.0)
        {
            t2.row([(clusters * 8).to_string(), f(temperature_k - 273.15)]);
        }
    }
    format!(
        "Extension — leakage-temperature feedback (NTV full chip)\n\
         (the cooling limit behind Table 2's P_MAX/T_MIN pairing)\n{}\n\
         temperature vs engaged cores at the paper cooling:\n{}",
        t.render(),
        t2.render()
    )
}

/// End-to-end validation of the speculative quality model: for each
/// benchmark, drive the CC/DC protocol at the speculative Still
/// point's error rate, run the real kernel under the protocol-derived
/// masks, and compare against the interpolated estimate.
pub fn validate_report() -> String {
    let chip = chip0();
    let mut t = TextTable::new([
        "benchmark",
        "estimated Q",
        "measured Q",
        "dropped",
        "infected",
    ]);
    // Per-benchmark validation (front measurement + protocol-driven
    // kernel run) is independent work; compute rows in parallel, then
    // render them in the fixed benchmark order.
    let rows = accordion_pool::par_map(accordion_apps::app::all_apps(), |app| {
        let set = FrontSet::measured(app.as_ref());
        let extractor = ParetoExtractor::new(chip, app.as_ref(), &set);
        let point = extractor.solve_point(
            Mode {
                scaling: ProblemScaling::Still,
                policy: FrequencyPolicy::Speculative,
            },
            1.0,
        )?;
        let v = validate_point(app.as_ref(), &set, &point, 2014);
        Some([
            app.name().to_string(),
            f(v.estimated_quality),
            f(v.measured_quality),
            f(v.dropped_fraction),
            f(v.infected_fraction),
        ])
    });
    for row in rows.into_iter().flatten() {
        t.row(row);
    }
    format!(
        "Extension — end-to-end validation of the speculative quality model\n\
         (protocol-simulated errors drive the real kernels)\n{}",
        t.render()
    )
}

/// Dynamic orchestration (Section 7): static versus dynamic cluster
/// re-planning under a mid-run 25 % chip-wide derating.
pub fn runtime_report() -> String {
    let chip = chip0();
    let w = Workload::rms_default(2e7);
    // Deadline: the 9-most-efficient-cluster plan with 2 % slack.
    let exec = accordion_sim::exec::ExecModel::paper_default();
    let mut order: Vec<usize> = (0..36).collect();
    order.sort_by(|&a, &b| {
        chip.cluster_efficiency(ClusterId(b))
            .partial_cmp(&chip.cluster_efficiency(ClusterId(a)))
            .expect("finite")
    });
    let f9 = order[..9]
        .iter()
        .map(|&c| chip.cluster_safe_f_ghz(ClusterId(c)))
        .fold(f64::INFINITY, f64::min);
    let deadline = exec.execution_time_s(&w, 72, f9) * 1.02;
    let controller = RuntimeController::new(chip, w, deadline);
    let mut schedule = vec![vec![1.0; 36]];
    for _ in 0..7 {
        schedule.push(vec![0.75; 36]);
    }
    let fixed = controller.run(&schedule, false);
    let dynamic = controller.run(&schedule, true);

    let mut t = TextTable::new([
        "policy",
        "met deadline",
        "elapsed (s)",
        "energy (J)",
        "final clusters",
    ]);
    for (label, run) in [("static", &fixed), ("dynamic", &dynamic)] {
        t.row([
            label.to_string(),
            if run.met_deadline { "yes" } else { "NO" }.to_string(),
            f(run.elapsed_s),
            f(run.energy_j),
            run.epochs.last().map_or(0, |e| e.clusters).to_string(),
        ]);
    }
    format!(
        "Extension — dynamic runtime orchestration under mid-run derating\n\
         (25% chip-wide safe-f derate from epoch 1 of 8)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use accordion_apps::harness::Scenario;

    #[test]
    fn heterogeneous_maximizes_dc_throughput() {
        let rows = organization_rows();
        let het = rows.iter().find(|r| r.0.contains("3c")).unwrap();
        let spa = rows.iter().find(|r| r.0.contains("3a")).unwrap();
        let tmx = rows.iter().find(|r| r.0.contains("3b")).unwrap();
        assert!(het.1 > spa.1 && het.1 > tmx.1);
        // …at the highest control power.
        assert!(het.2 > spa.2 && het.2 > tmx.2);
    }

    #[test]
    fn checkpoint_dilation_grows_with_escalation() {
        let rows = checkpoint_rows();
        // Fix Perr = 1e-6; dilation must grow with escalation.
        let d_rare: f64 = rows.iter().find(|r| r.0 == 1e-6 && r.1 == 1e-6).unwrap().2;
        let d_all: f64 = rows.iter().find(|r| r.0 == 1e-6 && r.1 == 1.0).unwrap().2;
        assert!(d_all > d_rare);
        assert!(d_rare < 1.01, "rare escalation is near-free: {d_rare}");
    }

    #[test]
    fn weakscale_front_is_proportional() {
        // For a strictly weak-scaling search, quality_norm ≈ size_norm
        // under Default (finding gold scales with space searched).
        let apps = extension_apps();
        let app = &apps[0];
        let set = FrontSet::measure(app.as_ref());
        let d = set.front(Scenario::Default).unwrap();
        for p in &d.points {
            assert!(
                (p.quality_norm - p.size_norm).abs() < 0.35 * p.size_norm.max(0.5),
                "quality {} vs size {}",
                p.quality_norm,
                p.size_norm
            );
        }
    }

    #[test]
    fn runtime_report_shows_dynamic_advantage() {
        let r = runtime_report();
        assert!(r.contains("dynamic"));
        let lines: Vec<&str> = r.lines().collect();
        let static_line = lines.iter().find(|l| l.starts_with("static")).unwrap();
        let dynamic_line = lines.iter().find(|l| l.starts_with("dynamic")).unwrap();
        assert!(static_line.contains("NO"), "static misses: {static_line}");
        assert!(
            dynamic_line.contains("yes"),
            "dynamic recovers: {dynamic_line}"
        );
    }
}
