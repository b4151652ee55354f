//! # accordion-opt
//!
//! The operating-point optimizer: instead of sweeping grids and
//! eyeballing Pareto plots, search the paper's knob space — supply
//! voltage, engaged cluster count, problem size, timing guardband —
//! directly for the points that answer "cheapest at ≥99 % quality",
//! "fastest under 10 W", or "the whole power/time/quality trade
//! frontier".
//!
//! The crate is four layers, each usable on its own:
//!
//! * [`space`] — quantized candidates (integer millivolts / clusters /
//!   size-per-mille / guardband centi-decades), knob bounds, and the
//!   constraint model (quality floor, power budget, time budget);
//! * [`eval`] — the deterministic candidate evaluator, with a
//!   per-supply [`OperatingTimings`](accordion_chip::columns::OperatingTimings)
//!   context cache (reuse across adjacent candidates) and a candidate
//!   memo (repeat evaluations are hash lookups), fed by the
//!   process-wide popcache and quality-front caches;
//! * [`iso`] — iso-power / iso-time / iso-quality curve extraction by
//!   monotone bracketing and integer bisection;
//! * [`nsga`] — a seeded, byte-deterministic NSGA-II loop over an
//!   elitist archive seeded with a deterministic scout grid, so the
//!   reported front provably dominates-or-ties the equivalent sweep;
//! * [`report`] — the deterministic JSON report shared by
//!   `repro optimize` and `POST /v1/optimize`.
//!
//! Telemetry: `opt.generation` spans, `opt_eval_cache_*` (candidate
//! memo) and `opt_ctx_cache_*` (timing contexts) counters, and one
//! flight-recorder track per generation (`opt/gen{g}`) carrying
//! [`SimEvent::OptGeneration`](accordion_telemetry::event::SimEvent)
//! events.
//!
//! # Example
//!
//! ```no_run
//! use accordion_chip::topology::Topology;
//! use accordion_opt::nsga::OptConfig;
//! use accordion_opt::report::{optimize_report, OptimizeRequest};
//! use accordion_opt::space::{Constraints, KnobSpace};
//!
//! let req = OptimizeRequest {
//!     app: "canneal".to_string(),
//!     topo: Topology::paper_default(),
//!     pop_seed: 2014,
//!     chips: 8,
//!     chip: 0,
//!     cfg: OptConfig {
//!         seed: 0,
//!         population: 48,
//!         generations: 16,
//!         scout_steps: KnobSpace::SCOUT_STEPS,
//!         space: KnobSpace::full(36),
//!         constraints: Constraints {
//!             quality_floor: Some(0.99),
//!             ..Constraints::default()
//!         },
//!     },
//!     iso: true,
//!     grid_check: Some(KnobSpace::SCOUT_STEPS),
//! };
//! let report = optimize_report(&req, accordion_pool::jobs()).unwrap();
//! println!("{}", report.render_pretty());
//! ```

#![deny(missing_docs)]

pub mod eval;
pub mod iso;
pub mod nsga;
pub mod report;
pub mod space;

pub use eval::{Evaluator, OperatingPoint};
pub use nsga::{OptConfig, OptOutcome};
pub use report::{optimize_report, OptimizeRequest};
pub use space::{Candidate, Constraints, KnobSpace};
