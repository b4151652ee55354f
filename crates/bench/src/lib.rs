//! Reproduction harness for every table and figure of the Accordion
//! paper's evaluation.
//!
//! Each module under [`figures`] regenerates one artifact and returns
//! both structured data and a printable report; the `repro` binary
//! dispatches on artifact ids (`fig1a` … `headline`) and the
//! integration tests assert the *shapes* the paper reports (who wins,
//! by what factor, where crossovers fall).

pub mod cli;
pub mod dash;
pub mod figures;
pub mod loadtest;
pub mod output;
pub mod profile;
pub mod registry;

use accordion_chip::chip::Chip;
use std::sync::OnceLock;

/// The representative fabricated chip (instance 0 of the population)
/// shared across figure generators — fabrication factors a 612-site
/// correlation matrix, worth caching.
pub fn chip0() -> &'static Chip {
    static CHIP: OnceLock<Chip> = OnceLock::new();
    CHIP.get_or_init(|| Chip::fabricate_default(0).expect("chip fabrication"))
}
