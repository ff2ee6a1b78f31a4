//! In-memory spans recorded by the benchmark around its own calls into
//! carta's public functions. Nothing inside the program is instrumented:
//! a span is the wall time of one call, its parent is the benchmark-side
//! operation that made the call, and `op` ties the spans of one
//! operation together.

use crate::stats::{median, quantile};
use carta_obs::json::ObjectBuilder;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
    /// Layer-qualified call name, e.g. `wire.decode`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span: where it started and where it will be stored.
#[derive(Debug)]
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

/// The span recorder. When off it still times calls (callers need the
/// durations), but stores nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on` selects whether spans are kept.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn on(&self) -> bool {
        self.on
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span named `name` for operation `op` under `parent`.
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<&Open>) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            self.spans.push(Span {
                parent: parent.and_then(|p| p.slot),
                op,
                name,
                start_ns: self.ns(start),
                end_ns: 0,
            });
            self.spans.len() - 1
        });
        Open { slot, start }
    }

    /// Closes a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            self.spans[slot].end_ns = self.ns(end);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    /// Times `f` as one span; returns its result and duration in seconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<&Open>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, op, parent);
        let out = f();
        (out, self.end(open))
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Self time of every span: its duration minus the part its
    /// children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Root spans named `root` whose unattributed self time exceeds
    /// `share` of their total.
    pub fn unattributed(&self, root: &str, share: f64) -> usize {
        let self_ns = self.self_ns();
        let mut has_children = vec![false; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                has_children[p] = true;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                s.parent.is_none()
                    && s.name == root
                    && has_children[*i]
                    && self_ns[*i] as f64 > share * s.dur_ns() as f64
            })
            .count()
    }

    /// Estimated cost of keeping one span, in seconds: the median of
    /// timed empty spans on a scratch recorder.
    pub fn span_cost_s() -> f64 {
        let mut scratch = Tracer::new(true);
        let samples: Vec<f64> = (0..64)
            .map(|_| {
                let start = Instant::now();
                for op in 0..256 {
                    let open = scratch.begin("calibrate", op, None);
                    scratch.end(open);
                }
                start.elapsed().as_secs_f64() / 256.0
            })
            .collect();
        median(&samples)
    }

    /// Per-span-name summary lines: count, total self time, p50 and p99
    /// of the durations.
    pub fn summary(&self) -> Vec<String> {
        let self_ns = self.self_ns();
        let mut by_name: BTreeMap<&str, (Vec<f64>, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let entry = by_name.entry(span.name).or_default();
            entry.0.push(span.dur_ns() as f64 / 1e6);
            entry.1 += own;
        }
        let mut lines = vec![format!(
            "{:<28} {:>8} {:>12} {:>10} {:>10}",
            "span", "count", "self_ms", "p50_ms", "p99_ms"
        )];
        for (name, (durs, own)) in by_name {
            lines.push(format!(
                "{name:<28} {:>8} {:>12.3} {:>10.4} {:>10.4}",
                durs.len(),
                own as f64 / 1e6,
                quantile(&durs, 0.5),
                quantile(&durs, 0.99)
            ));
        }
        lines
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let b = ObjectBuilder::new()
                .uint("id", i as u64)
                .uint("op", span.op)
                .string("name", span.name)
                .uint("start_ns", span.start_ns)
                .uint("end_ns", span.end_ns);
            let line = match span.parent {
                Some(p) => b.uint("parent", p as u64),
                None => b.raw("parent", "null"),
            }
            .build();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", 1, None);
        let (_, child) = t.time("child", 1, Some(&root), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let total = t.end(root);
        assert!(child <= total);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.unattributed("root", 0.9), 0);
    }

    #[test]
    fn off_tracer_times_without_keeping() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("x", 0, None, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
