//! Zero-dependency tracing, metrics and run-provenance for the
//! Accordion reproduction stack.
//!
//! Four cooperating pieces:
//!
//! * a global, thread-safe **metrics registry** ([`registry`]) of
//!   counters, gauges and fixed-bucket histograms, addressed by dotted
//!   names and cached per call-site by the [`counter!`] / [`gauge!`] /
//!   [`histogram!`] / [`span!`] macros;
//! * lightweight **spans** ([`mod@span`]) — RAII wall-clock timers with
//!   nesting, created by [`span!`], feeding per-span accounting and
//!   the sink layer;
//! * pluggable **sinks** ([`sink`]) — a human-readable stderr tracer
//!   gated by `ACCORDION_TRACE=<off|info|debug>` and a JSONL file sink
//!   (`ACCORDION_TRACE_JSON=<path>`) that both carry span boundaries,
//!   plus a per-run provenance [`manifest`] renderer;
//! * the **flight recorder** ([`event`]) — the one carrier of
//!   structured events: typed [`event::SimEvent`]s on deterministic
//!   tracks, recorded by [`flight!`] under [`flight_track!`].
//!
//! # Near-zero overhead when disabled
//!
//! With no sink installed and timing not requested, [`span!`] performs
//! one relaxed atomic load and returns an inert guard — no clock read,
//! no allocation. Counters are a single relaxed `fetch_add`
//! regardless. The `telemetry_overhead` bench in `accordion-bench`
//! documents both costs at nanosecond scale, which is why the hot
//! layers (fault injection, chip sampling) keep their instrumentation
//! unconditionally compiled in.
//!
//! # Example
//!
//! ```
//! use accordion_telemetry::{counter, span};
//!
//! fn hot_loop() {
//!     let _span = span!("example.hot_loop");
//!     for _ in 0..100 {
//!         counter!("example.iterations").inc();
//!     }
//! }
//! hot_loop();
//! assert_eq!(
//!     accordion_telemetry::registry::global()
//!         .counter("example.iterations")
//!         .get(),
//!     100
//! );
//! ```

#![deny(missing_docs)]

pub mod alerts;
pub mod chrome;
pub mod event;
pub mod json;
pub mod manifest;
pub mod prom;
pub mod registry;
pub mod sink;
pub mod span;
pub mod tsdb;

pub use manifest::RunManifest;

/// Looks up a counter by name, caching the handle per call-site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __CACHE: ::std::sync::OnceLock<&'static $crate::registry::Counter> =
            ::std::sync::OnceLock::new();
        *__CACHE.get_or_init(|| $crate::registry::global().counter($name))
    }};
}

/// Looks up a gauge by name, caching the handle per call-site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __CACHE: ::std::sync::OnceLock<&'static $crate::registry::Gauge> =
            ::std::sync::OnceLock::new();
        *__CACHE.get_or_init(|| $crate::registry::global().gauge($name))
    }};
}

/// Looks up a histogram by name (with bucket bounds fixed on first
/// registration), caching the handle per call-site.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr) => {{
        static __CACHE: ::std::sync::OnceLock<&'static $crate::registry::HistogramMetric> =
            ::std::sync::OnceLock::new();
        *__CACHE.get_or_init(|| $crate::registry::global().histogram($name, &$bounds))
    }};
}

/// Times the enclosing scope: `let _span = span!("layer.what");`.
/// The name is a literal because the stats handle is cached per
/// call-site; a name built at run time goes through
/// [`span::SpanGuard::enter`].
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __CACHE: ::std::sync::OnceLock<&'static $crate::registry::SpanStats> =
            ::std::sync::OnceLock::new();
        $crate::span::SpanGuard::start(|| {
            *__CACHE.get_or_init(|| $crate::registry::global().span_stats($name))
        })
    }};
}

/// Records a flight-recorder event (see [`event`]) when the recorder
/// is enabled; the event expression is not evaluated otherwise.
///
/// ```ignore
/// flight!(SimEvent::RoundDispatch { dcs: dcs as u64 });
/// ```
#[macro_export]
macro_rules! flight {
    ($event:expr) => {
        if $crate::event::enabled() {
            $crate::event::record($event);
        }
    };
}

/// Records a flight-recorder event `$offset` cycles past the current
/// track clock.
#[macro_export]
macro_rules! flight_at {
    ($offset:expr, $event:expr) => {
        if $crate::event::enabled() {
            $crate::event::record_at($offset, $event);
        }
    };
}

/// Enters a flight-recorder track with a formatted label; returns a
/// [`event::TrackGuard`]. The label is not formatted (no allocation)
/// when the recorder is disabled.
///
/// ```ignore
/// let _track = flight_track!("chip{}/cluster{}", chip, cluster);
/// ```
#[macro_export]
macro_rules! flight_track {
    ($($arg:tt)*) => {
        if $crate::event::enabled() {
            $crate::event::TrackGuard::enter(&format!($($arg)*))
        } else {
            $crate::event::TrackGuard::inert()
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_compile_and_register() {
        counter!("test.lib.counter").add(2);
        gauge!("test.lib.gauge").set(1.5);
        histogram!("test.lib.hist", [1.0, 10.0]).record(3.0);
        {
            let _span = span!("test.lib.span");
        }
        // Disabled-recorder path: neither evaluates its arguments.
        flight!(crate::event::SimEvent::SafeFreq { f_ghz: 1.0 });
        let _track = flight_track!("test.lib.track{}", 1);
        assert_eq!(
            crate::registry::global().counter("test.lib.counter").get(),
            2
        );
    }
}
