//! Manycore NTC chip model.
//!
//! Implements the hypothetical 288-core chip of the Accordion paper's
//! evaluation (Table 2): 36 clusters of 8 single-issue cores at 11 nm,
//! per-core private memories, per-cluster shared memories, a bus
//! inside each cluster and a 2D torus across clusters, a 100 W chip
//! power budget, and per-cluster frequency domains whose operating
//! point is bound by the slowest member core.
//!
//! * [`topology`] — cluster/core organization and id types,
//! * [`floorplan`] — die coordinates; builds the variation model's
//!   [`accordion_varius::layout::SitePlan`],
//! * [`memory`] — the Table 2 memory hierarchy parameters,
//! * [`network`] — bus + torus latency model,
//! * [`power`] — chip-level power aggregation and the STV core-count
//!   budget (`N_STV`),
//! * [`chip`] — a fabricated [`chip::Chip`] combining topology with one
//!   variation sample,
//! * [`popcache`] — a process-wide LRU cache of fabricated chips,
//!   the amortization layer behind `accordion-served`,
//! * [`organization`] — the Figure 3 CC/DC design space,
//! * [`thermal`] — the leakage–temperature feedback loop behind the
//!   Table 2 cooling limit,
//! * [`selection`] — energy-efficiency-ordered cluster selection,
//! * [`columns`] — columnar (struct-of-arrays) chip evaluation:
//!   precomputed selection order, prefix operating limits and
//!   per-supply timing contexts for batched sweeps.
//!
//! # Example
//!
//! ```
//! use accordion_chip::chip::Chip;
//!
//! let chip = Chip::fabricate_default(0)?;
//! assert_eq!(chip.topology().num_cores(), 288);
//! assert!(chip.vdd_ntv_v() > 0.4 && chip.vdd_ntv_v() < 0.7);
//! # Ok::<(), accordion_stats::field::FieldError>(())
//! ```

pub mod chip;
pub mod columns;
pub mod floorplan;
pub mod memory;
pub mod network;
pub mod organization;
pub mod popcache;
pub mod power;
pub mod selection;
pub mod thermal;
pub mod topology;

pub use chip::Chip;
pub use columns::{ChipColumns, OperatingTimings};
pub use power::ChipPowerModel;
pub use selection::ClusterSelection;
pub use topology::Topology;
