//! Chip explorer: inspect how parametric variation shapes a fabricated
//! NTC chip — per-cluster VddMIN, safe frequencies, the Perr(f) knee,
//! and what the energy-efficiency-ordered selection would pick.
//!
//! ```text
//! cargo run --release --example chip_explorer -- [chip_index]
//! ```

use accordion_chip::chip::Chip;
use accordion_chip::selection::{ClusterSelection, SelectionPolicy};
use accordion_chip::topology::ClusterId;
use accordion_varius::params::VariationParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let index: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(0);
    let chip = Chip::fabricate_default(index)?;
    let params = VariationParams::default();

    println!("chip {index}: VddNTV = {:.3} V", chip.vdd_ntv_v());
    println!("\ncluster  VddMIN(V)  safe f(GHz)  f@Perr=1e-6  efficiency(core-GHz/W)");
    for c in 0..chip.topology().num_clusters() {
        let id = ClusterId(c);
        println!(
            "{:>7}  {:>9.3}  {:>11.3}  {:>11.3}  {:>10.3}",
            c,
            chip.cluster_vddmin_v()[c],
            chip.cluster_safe_f_ghz(id),
            chip.cluster_f_for_perr_ghz(id, 1e-6),
            chip.cluster_efficiency(id),
        );
    }

    // The Perr(f) knee of the slowest cluster (a Figure 5b curve).
    let slowest = (0..chip.topology().num_clusters())
        .min_by(|&a, &b| {
            chip.cluster_safe_f_ghz(ClusterId(a))
                .partial_cmp(&chip.cluster_safe_f_ghz(ClusterId(b)))
                .expect("finite")
        })
        .expect("clusters exist");
    println!("\nPerr(f) of slowest cluster {slowest}:");
    let timing = &chip.sample().timing;
    let core = timing
        .cluster_cores(slowest)
        .nth(timing.cluster_slowest_core(slowest, params.perr_safe_target))
        .expect("the slowest member is a member");
    for k in 1..=14 {
        let f = 0.1 * k as f64;
        println!("  f={:.1} GHz  Perr={:.3e}", f, core.perr(f));
    }

    // What would the framework pick at growing cluster counts?
    println!("\nenergy-efficiency-ordered selection:");
    for n in [1usize, 2, 4, 9, 18, 36] {
        let sel = ClusterSelection::select(&chip, n, SelectionPolicy::EnergyEfficiency);
        println!(
            "  {:>2} clusters -> binding safe f {:.3} GHz, {:6.2} W at that f",
            n,
            sel.safe_f_ghz(),
            sel.power_w(&chip, sel.safe_f_ghz()),
        );
    }
    Ok(())
}
