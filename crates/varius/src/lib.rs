//! VARIUS-NTV style process-variation model.
//!
//! Reproduces the variation substrate the Accordion paper builds on
//! (Karpuzcu et al., "VARIUS-NTV", DSN 2012; paper Sections 2.3, 5.1
//! and 6.1):
//!
//! * [`params`] — variation parameters (correlation range `φ = 0.1`,
//!   `σ/μ(Vth) = 15 %`, `σ/μ(Leff) = 7.5 %`, half systematic / half
//!   random, Table 2),
//! * [`layout`] — where on the die the model samples the systematic
//!   variation field (core sites and memory-block sites),
//! * [`vmap`] — per-chip realizations of the correlated `Vth`/`Leff`
//!   fields,
//! * [`timing`] — the single-core model: a critical-path delay
//!   distribution, the per-cycle timing-error rate `Perr(f)`
//!   (Figure 5b) and safe / speculative frequency solvers,
//! * [`columns`] — a chip's timing: every core's delay moments at one
//!   supply in struct-of-arrays columns, derived straight from the
//!   chip's variation sample, with each cluster bound by its slowest
//!   member,
//! * [`sram`] — per-memory-block minimum supply voltage `VddMIN`
//!   (Figure 5a) and the chip-wide `VddNTV` designation,
//! * [`mem_timing`] — memory access-time derating at the block's local
//!   variation corner,
//! * [`population`] — seeded Monte-Carlo chips: any index range of a
//!   population (the paper's 100-chip sample).
//!
//! # Example
//!
//! ```
//! use accordion_varius::{layout::SitePlan, params::VariationParams, vmap::ChipVariation};
//! use accordion_stats::rng::SeedStream;
//!
//! let plan = SitePlan::regular_grid(4, 2, 20.0, 20.0); // 8 cores
//! let params = VariationParams::default();
//! let sampler = ChipVariation::sampler(&plan, &params)?;
//! let chip = sampler.sample(&mut SeedStream::new(1).stream("chip", 0));
//! assert_eq!(chip.core_vth_delta_v.len(), 8);
//! # Ok::<(), accordion_stats::field::FieldError>(())
//! ```

#![forbid(unsafe_code)]

pub mod columns;
pub mod layout;
pub mod mem_timing;
pub mod params;
pub mod population;
pub mod sram;
pub mod timing;
pub mod vmap;

pub use columns::TimingColumns;
pub use layout::SitePlan;
pub use params::VariationParams;
pub use sram::SramModel;
pub use timing::CoreTiming;
pub use vmap::{ChipVariation, VariationSampler};
