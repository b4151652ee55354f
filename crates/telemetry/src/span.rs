//! Scoped wall-clock spans with nesting.
//!
//! `let _guard = span!("varius.generate_chip");` times the enclosing
//! scope. When telemetry is inactive (no sink installed, no timing
//! requested) the guard is an empty `Option` and entering/dropping it
//! costs one relaxed atomic load — nanosecond-scale, verified by the
//! `telemetry_overhead` bench — so spans are safe in hot loops.

use std::cell::Cell;
use std::time::Instant;

use crate::registry::SpanStats;
use crate::sink::{self, Event, EventKind, Level};

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// RAII timer for one scope; created by the [`crate::span!`] macro.
#[must_use = "binding the guard to `_` drops it immediately; use `let _span = span!(..)`"]
pub struct SpanGuard {
    active: Option<(&'static SpanStats, Instant)>,
}

impl SpanGuard {
    /// Enters a span accounted in the stats `resolve` returns, if
    /// telemetry is active; otherwise returns an inert guard without
    /// resolving the stats or reading the clock. The [`crate::span!`]
    /// macro resolves through a per-call-site cache, so a live span
    /// neither allocates nor locks.
    pub fn start(resolve: impl FnOnce() -> &'static SpanStats) -> SpanGuard {
        if !sink::active() {
            return SpanGuard { active: None };
        }
        let stats = resolve();
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        emit(EventKind::SpanStart, Level::Debug, stats, depth, None);
        SpanGuard {
            active: Some((stats, Instant::now())),
        }
    }

    /// Enters a span whose name is built at run time, looking its
    /// stats up in the global registry by name.
    pub fn enter(name: &str) -> SpanGuard {
        Self::start(|| crate::registry::global().span_stats(name))
    }

    /// The span's name, when active.
    pub fn name(&self) -> Option<&str> {
        self.active.map(|(stats, _)| stats.name())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((stats, start)) = self.active.take() else {
            return;
        };
        let elapsed_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let depth = DEPTH.with(|d| {
            let depth = d.get().saturating_sub(1);
            d.set(depth);
            depth
        });
        stats.record_ns(elapsed_ns);
        emit(
            EventKind::SpanEnd,
            Level::Info,
            stats,
            depth,
            Some(elapsed_ns),
        );
    }
}

/// Reports a span boundary to the sinks listening at `level`.
fn emit(kind: EventKind, level: Level, stats: &SpanStats, depth: usize, elapsed_ns: Option<u64>) {
    if sink::level_enabled(level) {
        let thread = std::thread::current();
        sink::emit(&Event {
            seq: sink::next_seq(),
            kind,
            level,
            name: stats.name(),
            depth,
            elapsed_ns,
            thread: thread.name().unwrap_or("?"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn current_depth() -> usize {
        DEPTH.with(Cell::get)
    }

    // One test body: `set_timing` flips process-global state, so the
    // inert and active behaviors must be checked in a fixed order.
    #[test]
    fn span_lifecycle() {
        // No sink, no timing: the guard must not touch the registry.
        let guard = SpanGuard::enter("test.span.inert");
        assert!(guard.name().is_none());
        drop(guard);
        assert_eq!(
            crate::registry::global()
                .span_stats("test.span.inert")
                .calls(),
            0
        );

        sink::set_timing(true);
        {
            let _a = SpanGuard::enter("test.span.outer");
            assert_eq!(current_depth(), 1);
            {
                let _b = SpanGuard::enter("test.span.inner");
                assert_eq!(current_depth(), 2);
            }
            assert_eq!(current_depth(), 1);
        }
        assert_eq!(current_depth(), 0);
        sink::set_timing(false);
        let stats = crate::registry::global().span_stats("test.span.outer");
        assert_eq!(stats.calls(), 1);
        assert!(stats.total_ns() > 0);
        assert_eq!(
            crate::registry::global()
                .span_stats("test.span.inner")
                .calls(),
            1
        );
    }
}
