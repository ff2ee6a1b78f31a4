//! The metric catalogue and the result document.
//!
//! Every workload reports every metric of the catalogue: end-to-end
//! metrics on an untraced run, per-layer metrics on a traced one. A
//! per-layer metric a workload does not exercise reads 0 (for example
//! `server.*` on `sweep`, which has no transport).

use carta_obs::json::{self, ObjectBuilder};
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. The meaning of one "op" per
/// workload is in `README.md`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`, grouped by the layer (module) they
/// measure.
pub const PER_LAYER: [(&str, &str); 49] = [
    // server: open-loop latency, transport, admission and tenant pool,
    // state log
    ("server.open_loop_ms.p50", "ms"),
    ("server.open_loop_ms.p99", "ms"),
    ("server.transport_ms.p50", "ms"),
    ("server.transport_ms.p99", "ms"),
    ("server.transport_share.p50", "fraction"),
    ("server.connections", "count"),
    ("server.keepalive_reused", "count"),
    ("server.shed", "count"),
    ("server.degraded", "count"),
    ("server.tenants_evicted", "count"),
    ("server.upload_ms.p50", "ms"),
    ("server.upload_ms.p99", "ms"),
    ("server.state_appended", "count"),
    // api.wire
    ("wire.decode_us.p50", "us"),
    ("wire.encode_us.p50", "us"),
    ("wire.response_kib.mean", "KiB"),
    // api.handler
    ("handler.load_model_us.p50", "us"),
    ("handler.handle_us.p50", "us"),
    ("handler.handle_us.p99", "us"),
    // engine evaluator
    ("engine.hit_ratio", "fraction"),
    ("engine.evaluate_us.p50", "us"),
    ("engine.evaluate_us.hit_p50", "us"),
    ("engine.evaluate_us.miss_p50", "us"),
    ("engine.overhead_share", "fraction"),
    ("engine.batch_chunks", "count"),
    ("engine.shard_waits", "count"),
    ("engine.scratch_evictions", "count"),
    ("engine.cache_evictions", "count"),
    ("engine.compiles", "count"),
    ("engine.warm_start_ratio", "fraction"),
    // can.compiled: compile phase
    ("compile.us.p50", "us"),
    ("compile.count", "count"),
    // can.compiled: solve phase
    ("solve.us_per_point.p50", "us"),
    ("solve.iterations_per_point", "count"),
    ("solve.iters_saved_per_point", "count"),
    // can.prob
    ("prob.refine_us.p50", "us"),
    ("prob.refine_share", "fraction"),
    // explore
    ("explore.sensitivity_ms.p50", "ms"),
    ("explore.loss_ms.p50", "ms"),
    ("explore.prob_loss_ms.p50", "ms"),
    ("explore.points_per_answer", "count"),
    // optim
    ("optim.optimize_ms.p50", "ms"),
    ("optim.evaluations", "count"),
    ("optim.hit_ratio", "fraction"),
    ("optim.compiles_per_evaluation", "count"),
    // bench validity (not a layer of carta)
    ("bench.generator_lateness_ms.p99", "ms"),
    ("bench.trace_overhead", "fraction"),
    ("bench.machine_slowdown", "ratio"),
    ("bench.unattributed_ops", "count"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed: refused, degraded, errored or wrong.
    pub failed: u64,
    /// End-to-end values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Lines printed before the result (warnings, span summary).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets an end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`END_TO_END`] (a bug in the workload).
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.end_to_end.insert(name, value);
    }

    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`PER_LAYER`] (a bug in the workload).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.layers.insert(name, value);
    }

    /// Whether every attempted operation succeeded and checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics this run reports, `(name, unit, value)` in catalogue
    /// order: end-to-end when untraced, per-layer when traced. Missing
    /// values read 0 and non-finite ones are clamped so the document
    /// stays valid JSON.
    pub fn reported(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let (catalogue, values): (&[(&'static str, &'static str)], _) = if traced {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { f64::MAX };
                (name, unit, v)
            })
            .collect()
    }

    /// Sets `name` in the traced or untraced view.
    pub fn set(&mut self, traced: bool, name: &'static str, value: f64) {
        if traced {
            self.layer(name, value);
        } else {
            self.e2e(name, value);
        }
    }
}

/// The one-line result document:
/// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{}\":{}",
                json::escape(name),
                ObjectBuilder::new()
                    .raw("value", &format!("{value}"))
                    .string("unit", unit)
                    .build()
            )
        })
        .collect();
    ObjectBuilder::new()
        .bool("correct", correct)
        .uint("attempted", attempted)
        .uint("failed", failed)
        .raw("metrics", &format!("{{{}}}", body.join(",")))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
    }

    #[test]
    fn result_document_parses() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.e2e("setup_s", 0.125);
        o.e2e("latency_p95_ms", f64::INFINITY);
        let reported: Vec<(String, &str, f64)> = o
            .reported(false)
            .into_iter()
            .map(|(n, u, v)| (n.to_string(), u, v))
            .collect();
        let doc = result_json(o.correct(), o.attempted, o.failed, &reported);
        let parsed = json::parse(&doc).expect("valid json");
        let metrics = parsed.get("metrics").expect("metrics");
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.125)
        );
        assert_eq!(
            metrics
                .get("setup_s")
                .and_then(|m| m.get("unit"))
                .and_then(|v| v.as_str()),
            Some("s")
        );
        assert_eq!(parsed.get("correct").and_then(|v| v.as_bool()), Some(true));
    }
}
