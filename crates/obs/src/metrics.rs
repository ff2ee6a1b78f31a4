//! The metrics registry: named atomic counters, gauges and histograms.
//!
//! Recording is lock-free (`Relaxed` atomics on pre-resolved handles);
//! the registry itself is only locked when a handle is first resolved
//! or a snapshot is taken. There is no process-wide registry: each
//! observer owns one and hands it out inside an [`crate::Obs`], and
//! code without a registry records nothing.

use crate::json::ObjectBuilder;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins float gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two histogram buckets (covers the full `u64`
/// range: bucket `i` holds values with `floor(log2(v)) + 1 == i`,
/// bucket 0 holds zeros).
const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (typically nanoseconds
/// or counts). Quantiles are approximate — resolved to the geometric
/// midpoint of their bucket, clamped to the recorded range — which is
/// plenty for "is this microseconds or milliseconds" observability
/// questions.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("summary", &self.summary())
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time summary.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= target {
                    // Geometric midpoint of bucket i: [2^(i-1), 2^i).
                    return if i == 0 {
                        0
                    } else {
                        (1u64 << (i - 1)) + (1u64 << (i - 1)) / 2
                    };
                }
            }
            0
        };
        let min = if count == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        };
        let max = self.max.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            // A bucket midpoint can lie outside the samples it stands
            // for; no quantile may. (Not `clamp`: a snapshot racing the
            // first `record` may read `min > max`.)
            p50: quantile(0.50).max(min).min(max),
            p99: quantile(0.99).max(min).min(max),
        }
    }
}

/// Snapshot of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Approximate median (bucket midpoint within `[min, max]`).
    pub p50: u64,
    /// Approximate 99th percentile (bucket midpoint within
    /// `[min, max]`).
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A named metric handle.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One recorded value in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram summary.
    Histogram(HistogramSummary),
}

/// A registry of named metrics.
///
/// Handles are get-or-create: the first `counter("x")` call defines the
/// metric, later calls return the same atomic.
///
/// # Panics
///
/// Requesting an existing name as a different kind (e.g.
/// `gauge("engine.cache.hits")` after `counter("engine.cache.hits")`)
/// panics — such a collision is a programming error, not a runtime
/// condition.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (creating if needed) the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// Resolves (creating if needed) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// Resolves (creating if needed) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric `{name}` already registered as {other:?}"),
        }
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self
            .metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        MetricsSnapshot {
            values: metrics
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// An immutable snapshot of a registry, suitable for rendering and
/// differencing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Metric name → recorded value, sorted by name.
    pub values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// The counter total under `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value under `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.values.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram summary under `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        match self.values.get(name) {
            Some(MetricValue::Histogram(v)) => Some(*v),
            _ => None,
        }
    }

    /// The change from `before` to `self`: counters and histogram
    /// count/sum subtract (saturating); gauges and histogram min/max
    /// and quantiles keep the later value. Metrics absent from
    /// `before` pass through unchanged.
    pub fn delta(&self, before: &MetricsSnapshot) -> MetricsSnapshot {
        let values = self
            .values
            .iter()
            .map(|(name, after)| {
                let value = match (after, before.values.get(name)) {
                    (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                        MetricValue::Counter(a.saturating_sub(*b))
                    }
                    (MetricValue::Histogram(a), Some(MetricValue::Histogram(b))) => {
                        MetricValue::Histogram(HistogramSummary {
                            count: a.count.saturating_sub(b.count),
                            sum: a.sum.saturating_sub(b.sum),
                            ..*a
                        })
                    }
                    (other, _) => other.clone(),
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { values }
    }

    /// Renders the snapshot as one JSON object: counters and gauges
    /// become numbers, histograms become
    /// `{"count","sum","min","max","p50","p99","mean"}` objects.
    pub fn to_json(&self) -> String {
        let mut obj = ObjectBuilder::new();
        for (name, value) in &self.values {
            obj = match value {
                MetricValue::Counter(v) => obj.uint(name, *v),
                MetricValue::Gauge(v) => obj.num(name, *v),
                MetricValue::Histogram(h) => obj.raw(
                    name,
                    &ObjectBuilder::new()
                        .uint("count", h.count)
                        .uint("sum", h.sum)
                        .uint("min", h.min)
                        .uint("max", h.max)
                        .uint("p50", h.p50)
                        .uint("p99", h.p99)
                        .num("mean", h.mean())
                        .build(),
                ),
            };
        }
        obj.build()
    }
}

/// Scope guard recording the wall time of a named phase into the
/// counter `phase.<name>.wall_ns` of its observer's registry — the
/// per-phase timing of a CLI run or a server request. Made by
/// [`crate::Obs::phase`]; inert, reading no clock, without a registry.
#[derive(Debug)]
pub struct PhaseGuard<'a> {
    name: &'static str,
    timing: Option<(&'a MetricsRegistry, Instant)>,
}

impl<'a> PhaseGuard<'a> {
    pub(crate) fn start(registry: Option<&'a MetricsRegistry>, name: &'static str) -> Self {
        PhaseGuard {
            name,
            timing: registry.map(|registry| (registry, Instant::now())),
        }
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some((registry, start)) = self.timing {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            registry
                .counter(&format!("phase.{}.wall_ns", self.name))
                .add(ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn counters_gauges_histograms_record() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("c").get(), 5, "handles alias by name");
        reg.gauge("g").set(2.5);
        assert_eq!(reg.gauge("g").get(), 2.5);
        let h = reg.histogram("h");
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!((s.count, s.sum, s.min, s.max), (4, 106, 1, 100));
        assert!(s.p50 >= 1 && s.p50 <= 4, "median bucket: {}", s.p50);
        assert!(s.p99 >= 64, "p99 in the top bucket: {}", s.p99);
        assert!((s.mean() - 26.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = Histogram::default();
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collisions_panic() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_delta_subtracts_monotonic_parts() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(10);
        reg.gauge("g").set(1.0);
        reg.histogram("h").record(7);
        let before = reg.snapshot();
        reg.counter("c").add(5);
        reg.gauge("g").set(9.0);
        reg.histogram("h").record(9);
        let delta = reg.snapshot().delta(&before);
        assert_eq!(delta.counter("c"), Some(5));
        assert_eq!(delta.gauge("g"), Some(9.0));
        let h = delta.histogram("h").expect("present");
        assert_eq!((h.count, h.sum), (1, 9));
    }

    #[test]
    fn snapshot_json_is_parseable() {
        let reg = MetricsRegistry::new();
        reg.counter("engine.cache.hits").add(3);
        reg.histogram("rta.wall_ns").record(1000);
        let doc = reg.snapshot().to_json();
        let v = parse(&doc).expect("valid json");
        assert_eq!(
            v.get("engine.cache.hits").and_then(|x| x.as_f64()),
            Some(3.0)
        );
        assert_eq!(
            v.get("rta.wall_ns")
                .and_then(|x| x.get("count"))
                .and_then(|x| x.as_f64()),
            Some(1.0)
        );
    }

    #[test]
    fn quantiles_stay_inside_the_recorded_range() {
        let h = Histogram::default();
        h.record(8);
        h.record(8);
        let s = h.summary();
        assert_eq!((s.min, s.p50, s.p99, s.max), (8, 8, 8, 8));
    }

    #[test]
    fn phase_guard_records_only_with_a_registry() {
        drop(crate::Obs::default().phase("quiet"));
        let registry = Arc::new(MetricsRegistry::new());
        let obs = crate::Obs::new(Some(registry.clone()), None);
        drop(obs.phase("timed"));
        let snap = registry.snapshot();
        assert!(snap.counter("phase.timed.wall_ns").is_some());
        assert_eq!(snap.counter("phase.quiet.wall_ns"), None);
    }
}
