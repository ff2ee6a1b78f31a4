//! Dependency-free observability substrate for the `carta` workspace.
//!
//! Everything is scoped to an observer. An [`Obs`] names where the
//! observations of the work it is handed go: an optional
//! [`MetricsRegistry`] and an optional [`SpanSink`]. Whoever wants to
//! watch owns one and passes it down — the CLI per invocation, each
//! server per instance, a test per evaluator — so two observers never
//! see each other's numbers. [`Obs::default`] observes nothing: each
//! instrumented site then costs one `Option` check and reads no clock.
//!
//! - **Metrics** ([`metrics`]): a [`MetricsRegistry`] of named atomic
//!   [`Counter`]s, [`Gauge`]s and log₂-bucketed [`Histogram`]s, plus
//!   [`Obs::phase`] wall-time guards.
//! - **Tracing** ([`trace`]): scoped spans ([`span!`]) and point
//!   events ([`event!`]) delivered to a pluggable [`SpanSink`] —
//!   [`NullSink`], [`StderrSink`], [`RingBufferSink`] or
//!   [`JsonlSink`] (backs `carta --trace`). Field formatting is
//!   deferred behind a closure that runs only when a sink is present.
//!
//! Like the `shims/` crates, `carta-obs` has **zero external
//! dependencies**; [`json`] provides the small emitter/parser the
//! sinks and the `--metrics-json` schema tests share.
//!
//! ```
//! use carta_obs::{span, MetricsRegistry, Obs};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let obs = Obs::new(Some(registry.clone()), None);
//! {
//!     let _phase = obs.phase("analyze");
//!     let _span = span!(obs, "rta.bus", msgs = 64); // no sink: inert
//!     registry.counter("engine.cache.hits").inc();
//! }
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("engine.cache.hits"), Some(1));
//! assert!(snapshot.counter("phase.analyze.wall_ns").is_some());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Panic-free library surface: a malformed model must surface as a
// typed error, never a crash. Tests and benches may still unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSummary, MetricValue, MetricsRegistry, MetricsSnapshot,
    PhaseGuard,
};
pub use trace::{
    JsonlSink, NullSink, RingBufferSink, SpanEvent, SpanGuard, SpanKind, SpanSink, StderrSink,
};

use std::sync::Arc;

/// One observer: where the metrics and spans of the work it is handed
/// go. Clones share the registry and the sink.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    registry: Option<Arc<MetricsRegistry>>,
    sink: Option<Arc<dyn SpanSink>>,
}

impl Obs {
    /// An observer recording metrics into `registry` and spans into
    /// `sink`; either half may be absent.
    pub fn new(registry: Option<Arc<MetricsRegistry>>, sink: Option<Arc<dyn SpanSink>>) -> Self {
        Obs { registry, sink }
    }

    /// The registry metrics go to, if any.
    pub fn registry(&self) -> Option<&Arc<MetricsRegistry>> {
        self.registry.as_ref()
    }

    /// The sink spans and events go to, if any.
    pub fn sink(&self) -> Option<&Arc<dyn SpanSink>> {
        self.sink.as_ref()
    }

    /// Times the phase `name` into the counter `phase.<name>.wall_ns`
    /// until the guard drops; inert without a registry.
    #[must_use = "the phase is timed until the guard drops"]
    pub fn phase(&self, name: &'static str) -> PhaseGuard<'_> {
        PhaseGuard::start(self.registry.as_deref(), name)
    }
}

/// Convenience glob-import: `use carta_obs::prelude::*;`
pub mod prelude {
    pub use crate::metrics::{MetricsRegistry, MetricsSnapshot};
    pub use crate::trace::{RingBufferSink, SpanEvent, SpanSink};
    pub use crate::{event, span, Obs};
}
