//! `accordion-served` — a batched, cached HTTP simulation service.
//!
//! Running every question about the Accordion chip as a fresh `repro`
//! invocation re-pays the expensive setup each time: fabricating a
//! variation-mapped population (envelope Cholesky factorization plus
//! per-chip sampling) and measuring the application quality fronts
//! (real kernel executions). A long-lived service pays those once and
//! answers every subsequent operating-point query from warm caches —
//! the same amortization argument the paper makes for soft NTV chips
//! themselves: keep the expensive structure, vary the cheap knob.
//!
//! The server is zero-dependency (`std::net` plus the workspace's own
//! crates) and exposes:
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/simulate` | one operating point: app, size, Vdd, seed → frequency, quality, protocol outcome, energy |
//! | `POST /v1/sweep` | a Vdd × size grid, executed as one ordered parallel map |
//! | `POST /v1/optimize` | operating-point search: iso-metric fronts + seeded NSGA-II over the knob space |
//! | `GET /v1/artifacts` | registered repro artifact ids |
//! | `GET /v1/artifacts/{name}` | generate one artifact report (`?chips=N`), framed by `Content-Length` |
//! | `GET /healthz` | liveness plus cache occupancy |
//! | `GET /metrics` | text exposition of the telemetry registry |
//! | `POST /v1/shutdown` | cooperative shutdown; queued requests drain |
//!
//! The front end is a non-blocking **readiness loop** (`poll(2)`
//! behind [`reactor`]): one reactor thread multiplexes every
//! connection — HTTP/1.1 keep-alive, pipelining, incremental parsing —
//! while a fixed worker pool executes requests from a bounded queue.
//! Identical `/v1/simulate`, `/v1/sweep` and `/v1/optimize` requests
//! **coalesce**: one route-level memo keyed by the exact request body
//! answers repeats and makes concurrent duplicates wait for one
//! evaluation, surfaced as `served_coalesced_total`.
//!
//! Robustness bounds: a fixed worker pool, a bounded request queue
//! (overflow → `503` + `Retry-After`, answered by the reactor without
//! waiting for a worker), per-request read/write deadlines with `408`
//! slow-client eviction, an idle keep-alive reaper, head (`431`) and
//! body (`413`) size caps, and panic isolation per request.
//! Determinism: identical requests produce byte-identical JSON
//! regardless of `--jobs`, because responses render through the
//! deterministic [`accordion_telemetry::json`] renderer and all
//! parallel fan-out uses the ordered pool primitives.
//!
//! # Example
//!
//! ```
//! use accordion_served::{start, ServeConfig};
//!
//! let handle = start(ServeConfig {
//!     addr: "127.0.0.1:0".into(), // ephemeral port
//!     ..ServeConfig::default()
//! })?;
//! let addr = handle.addr();
//! assert_eq!(addr.ip().to_string(), "127.0.0.1");
//! handle.shutdown(); // drains, joins, flushes telemetry
//! # Ok::<(), std::io::Error>(())
//! ```
#![deny(missing_docs)]

pub mod engine;
pub mod http;
pub mod obs;
pub mod reactor;
pub mod server;

pub use engine::{optimize, simulate, sweep, EngineError, SimQuery};
pub use server::{start, ArtifactSource, ServeConfig, ServerHandle, ShutdownTrigger};
