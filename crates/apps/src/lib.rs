//! RMS benchmark kernels for the Accordion evaluation.
//!
//! Native Rust implementations of the six benchmarks of the paper's
//! Table 3, each exposing the same contract:
//!
//! * an **Accordion input** (a scalar knob) that governs both the
//!   problem size and the achievable output quality,
//! * a deterministic, seeded synthetic input,
//! * a data-parallel structure partitioned across logical threads,
//!   with the paper's Section 6.2 **Drop** hook (a dropped thread's
//!   contribution is skipped at exactly the operation the paper
//!   names) and end-result **corruption** hooks,
//! * an application-specific quality metric (Table 3).
//!
//! | Kernel | Domain | Accordion input | Quality metric |
//! |---|---|---|---|
//! | [`canneal`] | optimization | swaps per temperature step | relative routing cost |
//! | [`ferret`] | similarity search | size factor | common top-n images |
//! | [`bodytrack`] | computer vision | annealing layers | SSD-based |
//! | [`x264`] | multimedia | quantizer (QP) | SSIM-based |
//! | [`hotspot`] | physics simulation | iterations | SSD-based |
//! | [`srad`] | image processing | iterations | PSNR-based |
//!
//! A seventh, strictly weak-scaling kernel ([`hashsearch`]) implements
//! the paper's Section 7 extension direction and is exposed through
//! [`extension_apps`] (it is not part of the paper's evaluation set).
//!
//! The [`harness`] module sweeps knobs under the Default / Drop 1/4 /
//! Drop 1/2 scenarios to produce the quality-versus-problem-size
//! fronts of Figures 2 and 4; [`characterize`] recovers the Table 3
//! dependency types by fitting the measured Default front, without
//! running a kernel of its own.

pub mod app;
pub mod bodytrack;
pub mod canneal;
pub mod characterize;
pub mod config;
pub mod ferret;
pub mod harness;
pub mod hashsearch;
pub mod hotspot;
pub mod srad;
pub mod x264;

pub use app::{all_apps, extension_apps, RmsApp};
pub use config::RunConfig;
pub use harness::{QualityFront, Scenario};
