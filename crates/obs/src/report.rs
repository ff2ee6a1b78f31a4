//! The `carta.metrics.v1` report document, shared by every frontend
//! that exports metrics: the CLI's `--metrics-json <path>` flag and
//! the server's `GET /v1/metrics` endpoint both emit exactly this
//! shape, so dashboards never need two parsers.
//!
//! One JSON object:
//!
//! ```json
//! {
//!   "schema": "carta.metrics.v1",
//!   "command": "loss",
//!   "wall_ms": 12.7,
//!   "metrics": {
//!     "engine.cache.hits": 13,
//!     "engine.batch.queue_depth": {"count": 1, "sum": 13, "min": 13,
//!                                   "max": 13, "p50": 13, "p99": 13,
//!                                   "mean": 13.0},
//!     "rta.iterations": 5301
//!   },
//!   "derived": {"cache_hit_rate": 0.5, "points_per_s": 1023.9}
//! }
//! ```
//!
//! `metrics` maps every metric of the reporting observer's registry
//! (one CLI invocation, or one server since bind) to its value:
//! counters and gauges to numbers, histograms to
//! `{count, sum, min, max, p50, p99, mean}` objects.

use crate::json::ObjectBuilder;
use crate::metrics::MetricsSnapshot;

/// The schema identifier stamped on every report.
pub const SCHEMA: &str = "carta.metrics.v1";

/// Headline numbers computed from the metrics of one window.
#[derive(Debug, Clone, Copy)]
pub struct Derived {
    /// Evaluator memo-cache hit rate over the window (0..1).
    pub cache_hit_rate: f64,
    /// Sweep points (or evaluations, when no sweep ran) per second.
    pub points_per_s: f64,
}

impl Derived {
    /// Computes the derived numbers from the metrics of a window (a
    /// registry snapshot, or the delta of two) and the wall-clock
    /// seconds the window spans.
    pub fn from_delta(delta: &MetricsSnapshot, wall_s: f64) -> Self {
        let hits = delta.counter("engine.cache.hits").unwrap_or(0);
        let misses = delta.counter("engine.cache.misses").unwrap_or(0);
        let cache_hit_rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        // Sweep points where a sweep ran; otherwise every evaluation
        // (cached or analyzed) counts as a point.
        let points = match delta.counter("sweep.points") {
            Some(p) if p > 0 => p,
            _ => hits + misses,
        };
        let points_per_s = if wall_s > 0.0 {
            points as f64 / wall_s
        } else {
            0.0
        };
        Derived {
            cache_hit_rate,
            points_per_s,
        }
    }
}

/// Builds the `carta.metrics.v1` JSON document (newline-terminated).
pub fn metrics_json(
    command: &str,
    wall_s: f64,
    delta: &MetricsSnapshot,
    derived: &Derived,
) -> String {
    let derived_obj = ObjectBuilder::new()
        .num("cache_hit_rate", derived.cache_hit_rate)
        .num("points_per_s", derived.points_per_s)
        .build();
    let mut doc = ObjectBuilder::new()
        .string("schema", SCHEMA)
        .string("command", command)
        .num("wall_ms", wall_s * 1000.0)
        .raw("metrics", &delta.to_json())
        .raw("derived", &derived_obj)
        .build();
    doc.push('\n');
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::metrics::MetricValue;

    #[test]
    fn derived_rates_from_counters() {
        let mut delta = MetricsSnapshot {
            values: Default::default(),
        };
        delta
            .values
            .insert("engine.cache.hits".into(), MetricValue::Counter(3));
        delta
            .values
            .insert("engine.cache.misses".into(), MetricValue::Counter(1));
        let d = Derived::from_delta(&delta, 2.0);
        assert!((d.cache_hit_rate - 0.75).abs() < 1e-12);
        assert!((d.points_per_s - 2.0).abs() < 1e-12);
        // Sweep points take precedence when present.
        delta
            .values
            .insert("sweep.points".into(), MetricValue::Counter(26));
        let d = Derived::from_delta(&delta, 2.0);
        assert!((d.points_per_s - 13.0).abs() < 1e-12);
    }

    #[test]
    fn empty_delta_has_zero_rates() {
        let delta = MetricsSnapshot {
            values: Default::default(),
        };
        let d = Derived::from_delta(&delta, 1.0);
        assert_eq!(d.cache_hit_rate, 0.0);
        assert_eq!(d.points_per_s, 0.0);
    }

    #[test]
    fn metrics_json_document_parses_and_has_schema() {
        let mut delta = MetricsSnapshot {
            values: Default::default(),
        };
        delta
            .values
            .insert("engine.cache.hits".into(), MetricValue::Counter(5));
        let derived = Derived::from_delta(&delta, 0.5);
        let doc = metrics_json("loss", 0.5, &delta, &derived);
        let parsed = json::parse(&doc).expect("valid json");
        assert_eq!(parsed.get("schema").and_then(Value::as_str), Some(SCHEMA));
        assert_eq!(parsed.get("command").and_then(Value::as_str), Some("loss"));
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("engine.cache.hits"))
                .and_then(Value::as_f64),
            Some(5.0)
        );
        assert!(parsed
            .get("derived")
            .and_then(|d| d.get("cache_hit_rate"))
            .is_some());
    }
}
