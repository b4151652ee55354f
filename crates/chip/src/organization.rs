//! The Accordion design space (paper Section 4.2, Figure 3):
//! how Control Cores are differentiated from Data Cores.
//!
//! * **Homogeneous, spatio-temporal** (Fig. 3a): identical cores; the
//!   fastest/most reliable core of each cluster is *assigned* the CC
//!   role. Flexible, but a core is lost to control per cluster.
//! * **Homogeneous, time-multiplexed** (Fig. 3b): every core
//!   time-multiplexes between CC and DC functionality. Best hardware
//!   utilization, but control work steals a slice of every core and
//!   the memory-protection domains cost switching overhead.
//! * **Heterogeneous** (Fig. 3c): dedicated CC hardware per cluster —
//!   robust by design (higher area), leaving all ordinary cores as
//!   DCs, but the CC:DC ratio is fixed at design time.

use crate::chip::Chip;
use crate::topology::ClusterId;
use accordion_varius::params::VariationParams;

/// CC/DC differentiation options (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcDcOrganization {
    /// Fig. 3a: per cluster, the most reliable core becomes the CC.
    HomogeneousSpatioTemporal {
        /// Control cores designated per cluster.
        ccs_per_cluster: usize,
    },
    /// Fig. 3b: all cores compute; each donates a duty-cycle fraction
    /// to control functionality.
    HomogeneousTimeMultiplexed {
        /// Fraction of each core's time spent on CC duties.
        control_duty: f64,
    },
    /// Fig. 3c: dedicated CC hardware; DCs keep computing, but the
    /// dedicated CC consumes extra area/power per cluster.
    Heterogeneous {
        /// Dedicated CCs per cluster.
        ccs_per_cluster: usize,
        /// CC area/power premium relative to a DC (paper: CCs are
        /// "expected to consume more area than DCs").
        cc_overhead: f64,
    },
}

impl CcDcOrganization {
    /// The three organizations at their natural configurations.
    pub fn figure3_variants() -> [CcDcOrganization; 3] {
        [
            CcDcOrganization::HomogeneousSpatioTemporal { ccs_per_cluster: 1 },
            CcDcOrganization::HomogeneousTimeMultiplexed { control_duty: 0.10 },
            CcDcOrganization::Heterogeneous {
                ccs_per_cluster: 1,
                cc_overhead: 0.5,
            },
        ]
    }

    /// Short display name matching the figure labels.
    pub fn label(&self) -> &'static str {
        match self {
            CcDcOrganization::HomogeneousSpatioTemporal { .. } => "homog. spatio-temporal (3a)",
            CcDcOrganization::HomogeneousTimeMultiplexed { .. } => "homog. time-multiplexed (3b)",
            CcDcOrganization::Heterogeneous { .. } => "heterogeneous (3c)",
        }
    }
}

/// What a cluster delivers for data-intensive computation under an
/// organization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterYield {
    /// Cores (or core-equivalents) available as Data Cores.
    pub dc_core_equivalents: f64,
    /// The frequency the DC set runs at, GHz.
    pub dc_f_ghz: f64,
    /// Extra power charged to control, in watts.
    pub control_power_w: f64,
}

impl ClusterYield {
    /// Data throughput proxy: DC core-equivalents × frequency.
    pub fn dc_core_ghz(&self) -> f64 {
        self.dc_core_equivalents * self.dc_f_ghz
    }
}

/// Evaluates what one cluster of `chip` yields under `org`.
///
/// Under the spatio-temporal option the designated CC is the cluster's
/// *fastest* core; removing it from the DC pool leaves the DC
/// frequency bound unchanged (the slowest core binds it) but costs one
/// core of throughput. Time multiplexing keeps all cores computing at
/// a reduced duty. Dedicated CCs keep all cores as DCs at a power
/// premium.
pub fn cluster_yield(
    chip: &Chip,
    cluster: ClusterId,
    org: CcDcOrganization,
    params: &VariationParams,
) -> ClusterYield {
    let cores = chip.topology().cores_per_cluster;
    let f_cluster = chip.cluster_safe_f_ghz(cluster);
    // Per-core power at the cluster's operating point, for charging
    // control overheads.
    let per_core_power = chip.cluster_power_w(cluster, f_cluster) / cores as f64;
    match org {
        CcDcOrganization::HomogeneousSpatioTemporal { ccs_per_cluster } => {
            let ccs = ccs_per_cluster.min(cores);
            // The CC must be reliable: it is the *fastest* core, which
            // by construction is not the one binding the cluster
            // frequency (unless the cluster has a single core).
            let dc_f_ghz = if cores - ccs == 0 {
                0.0
            } else {
                // DC frequency still bound by the slowest remaining
                // core — the slowest overall, since CCs take the fast
                // ones.
                chip.sample().timing.cluster_safe_f_ghz(cluster.0, params)
            };
            ClusterYield {
                dc_core_equivalents: (cores - ccs) as f64,
                dc_f_ghz,
                control_power_w: ccs as f64 * per_core_power,
            }
        }
        CcDcOrganization::HomogeneousTimeMultiplexed { control_duty } => ClusterYield {
            dc_core_equivalents: cores as f64 * (1.0 - control_duty.clamp(0.0, 1.0)),
            dc_f_ghz: f_cluster,
            control_power_w: cores as f64 * per_core_power * control_duty.clamp(0.0, 1.0),
        },
        CcDcOrganization::Heterogeneous {
            ccs_per_cluster,
            cc_overhead,
        } => ClusterYield {
            dc_core_equivalents: cores as f64,
            dc_f_ghz: f_cluster,
            control_power_w: ccs_per_cluster as f64 * per_core_power * (1.0 + cc_overhead),
        },
    }
}

/// Chip-wide DC throughput (core-GHz) and control power under an
/// organization.
pub fn chip_yield(chip: &Chip, org: CcDcOrganization, params: &VariationParams) -> (f64, f64) {
    let mut core_ghz = 0.0;
    let mut control_w = 0.0;
    for c in 0..chip.topology().num_clusters() {
        let y = cluster_yield(chip, ClusterId(c), org, params);
        core_ghz += y.dc_core_ghz();
        control_w += y.control_power_w;
    }
    (core_ghz, control_w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn chip() -> &'static Chip {
        static CHIP: OnceLock<Chip> = OnceLock::new();
        CHIP.get_or_init(|| Chip::fabricate_small(0).expect("chip"))
    }

    fn params() -> VariationParams {
        VariationParams::default()
    }

    #[test]
    fn spatio_temporal_loses_one_core_per_cluster() {
        let y = cluster_yield(
            chip(),
            ClusterId(0),
            CcDcOrganization::HomogeneousSpatioTemporal { ccs_per_cluster: 1 },
            &params(),
        );
        assert_eq!(
            y.dc_core_equivalents,
            (chip().topology().cores_per_cluster - 1) as f64
        );
        assert!(y.control_power_w > 0.0);
    }

    #[test]
    fn time_multiplexing_keeps_all_cores_at_reduced_duty() {
        let y = cluster_yield(
            chip(),
            ClusterId(0),
            CcDcOrganization::HomogeneousTimeMultiplexed { control_duty: 0.10 },
            &params(),
        );
        let cores = chip().topology().cores_per_cluster as f64;
        assert!((y.dc_core_equivalents - cores * 0.9).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_keeps_all_dcs_but_pays_power() {
        let het = cluster_yield(
            chip(),
            ClusterId(0),
            CcDcOrganization::Heterogeneous {
                ccs_per_cluster: 1,
                cc_overhead: 0.5,
            },
            &params(),
        );
        assert_eq!(
            het.dc_core_equivalents,
            chip().topology().cores_per_cluster as f64
        );
        let spa = cluster_yield(
            chip(),
            ClusterId(0),
            CcDcOrganization::HomogeneousSpatioTemporal { ccs_per_cluster: 1 },
            &params(),
        );
        assert!(het.dc_core_ghz() > spa.dc_core_ghz());
        assert!(het.control_power_w > spa.control_power_w);
    }

    #[test]
    fn chip_yield_aggregates_all_clusters() {
        let (core_ghz, control_w) = chip_yield(
            chip(),
            CcDcOrganization::HomogeneousTimeMultiplexed { control_duty: 0.1 },
            &params(),
        );
        assert!(core_ghz > 0.0);
        assert!(control_w > 0.0);
    }

    #[test]
    fn figure3_variants_cover_all_three() {
        let labels: Vec<&str> = CcDcOrganization::figure3_variants()
            .iter()
            .map(|o| o.label())
            .collect();
        assert!(labels[0].contains("3a"));
        assert!(labels[1].contains("3b"));
        assert!(labels[2].contains("3c"));
    }
}
