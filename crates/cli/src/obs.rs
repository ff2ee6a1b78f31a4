//! CLI observability plumbing: the global `--metrics`,
//! `--metrics-json <path>` and `--trace [<path>]` flags, and the
//! `carta trace` replay subcommand.
//!
//! Every command runs inside an [`ObsSession`], which owns the
//! invocation's [`Obs`]: a fresh registry for `--metrics` and
//! `--metrics-json`, a JSONL span sink for `--trace`, or nothing at
//! all. The command's evaluator carries that `Obs`, so everything the
//! command runs (sweeps, request phases, optimizer and fuzz runs)
//! reports to it, and the session reports the registry as it is at the
//! end — this invocation's numbers and nothing else.
//!
//! The `--metrics-json` document is the shared `carta.metrics.v1`
//! schema built by [`carta_obs::report`] (the server's `/v1/metrics`
//! endpoint emits the same shape).

use crate::args::{ParseArgsError, ParsedArgs};
use crate::render::Table;
use carta_obs::json::{self, Value};
use carta_obs::metrics::{MetricValue, MetricsRegistry, MetricsSnapshot};
use carta_obs::report::{metrics_json, Derived};
use carta_obs::trace::{JsonlSink, SpanSink};
use carta_obs::Obs;
use std::error::Error;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Where `--trace` writes when no path is given, and where
/// `carta trace` reads from by default.
pub fn default_trace_path() -> PathBuf {
    std::env::temp_dir().join("carta-last-trace.jsonl")
}

/// Observability state of one CLI invocation.
#[derive(Debug)]
pub struct ObsSession {
    print_table: bool,
    json_path: Option<PathBuf>,
    trace_path: Option<PathBuf>,
    obs: Obs,
    start: Instant,
}

impl ObsSession {
    /// Reads the global observability flags and builds the observer
    /// they ask for.
    ///
    /// # Errors
    ///
    /// Returns an error for a valueless `--metrics-json` or when the
    /// trace sink file cannot be created.
    pub fn start(args: &ParsedArgs) -> Result<Self, Box<dyn Error>> {
        let print_table = args.has_flag("metrics");
        let json_path = match args.flag("metrics-json") {
            None => None,
            Some("") => {
                return Err(Box::new(ParseArgsError(
                    "--metrics-json needs a file path".into(),
                )))
            }
            Some(path) => Some(PathBuf::from(path)),
        };
        let trace_path = match args.flag("trace") {
            None => None,
            Some("") => Some(default_trace_path()),
            Some(path) => Some(PathBuf::from(path)),
        };
        let registry =
            (print_table || json_path.is_some()).then(|| Arc::new(MetricsRegistry::new()));
        let sink: Option<Arc<dyn SpanSink>> = match &trace_path {
            None => None,
            Some(path) => {
                Some(Arc::new(JsonlSink::create(path).map_err(|e| {
                    ParseArgsError(format!("cannot create trace file: {e}"))
                })?))
            }
        };
        Ok(ObsSession {
            print_table,
            json_path,
            trace_path,
            obs: Obs::new(registry, sink),
            start: Instant::now(),
        })
    }

    /// The invocation's observer, for the command's evaluator.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Closes the session: flushes the trace sink, writes the JSON
    /// report and appends the human-readable metrics table and file
    /// notes to `out` (nothing when no flag was given).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing the JSON report.
    pub fn finish(self, command: &str, out: &mut String) -> Result<(), Box<dyn Error>> {
        let wall = self.start.elapsed();
        if let (Some(sink), Some(path)) = (self.obs.sink(), &self.trace_path) {
            sink.flush();
            writeln!(
                out,
                "\ntrace written to {} (replay with `carta trace {}`)",
                path.display(),
                path.display()
            )?;
        }
        let Some(registry) = self.obs.registry() else {
            return Ok(());
        };
        let snapshot = registry.snapshot();
        let derived = Derived::from_delta(&snapshot, wall.as_secs_f64());
        if let Some(path) = &self.json_path {
            std::fs::write(
                path,
                metrics_json(command, wall.as_secs_f64(), &snapshot, &derived),
            )?;
            writeln!(out, "\nmetrics written to {}", path.display())?;
        }
        if self.print_table {
            out.push('\n');
            out.push_str(&metrics_table(wall.as_secs_f64(), &snapshot, &derived));
        }
        Ok(())
    }
}

/// Renders the human-readable `--metrics` table.
fn metrics_table(wall_s: f64, snapshot: &MetricsSnapshot, derived: &Derived) -> String {
    let mut table = Table::new(["metric", "value"]);
    for (name, value) in &snapshot.values {
        match value {
            MetricValue::Counter(v) => {
                table.row([name.clone(), v.to_string()]);
            }
            MetricValue::Gauge(v) => {
                table.row([name.clone(), format!("{v:.3}")]);
            }
            MetricValue::Histogram(h) => {
                if h.count == 0 {
                    continue;
                }
                table.row([
                    name.clone(),
                    format!(
                        "count {}  mean {:.1}  p50 {}  p99 {}  max {}",
                        h.count,
                        h.mean(),
                        h.p50,
                        h.p99,
                        h.max
                    ),
                ]);
            }
        }
    }
    table.row([
        "derived.cache_hit_rate".to_string(),
        format!("{:.1} %", derived.cache_hit_rate * 100.0),
    ]);
    table.row([
        "derived.points_per_s".to_string(),
        format!("{:.1}", derived.points_per_s),
    ]);
    table.row(["wall_ms".to_string(), format!("{:.1}", wall_s * 1000.0)]);
    format!("== metrics ==\n{}", table.render())
}

/// The `carta trace` subcommand: replays a JSONL trace written by
/// `--trace` as an indented, per-thread timeline.
///
/// # Errors
///
/// Returns an error when the file is missing or a line is not valid
/// trace JSON.
pub fn cmd_trace(args: &ParsedArgs) -> Result<String, Box<dyn Error>> {
    let default = default_trace_path();
    let path: &Path = match args.positional.first() {
        Some(p) => Path::new(p),
        None => &default,
    };
    let text = std::fs::read_to_string(path).map_err(|e| {
        ParseArgsError(format!(
            "cannot read trace `{}`: {e} (write one with any command plus --trace)",
            path.display()
        ))
    })?;
    let limit = args.numeric_flag("limit", usize::MAX)?;
    let mut out = String::new();
    let mut shown = 0usize;
    let mut total = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        total += 1;
        if shown >= limit {
            continue;
        }
        let event = json::parse(line).map_err(|e| {
            ParseArgsError(format!(
                "{}:{}: invalid trace line: {e}",
                path.display(),
                lineno + 1
            ))
        })?;
        writeln!(out, "{}", render_event(&event))?;
        shown += 1;
    }
    if shown < total {
        writeln!(out, "... {} more events (raise --limit)", total - shown)?;
    }
    if total == 0 {
        writeln!(out, "trace {} is empty", path.display())?;
    }
    Ok(out)
}

/// One replayed trace line: time, thread, indentation by span depth,
/// kind marker, name and fields.
fn render_event(event: &Value) -> String {
    let kind = event.get("kind").and_then(Value::as_str).unwrap_or("?");
    let name = event.get("name").and_then(Value::as_str).unwrap_or("?");
    let depth = event.get("depth").and_then(Value::as_f64).unwrap_or(0.0) as usize;
    let thread = event.get("thread").and_then(Value::as_str).unwrap_or("?");
    let t_us = event.get("t_ns").and_then(Value::as_f64).unwrap_or(0.0) / 1000.0;
    let marker = match kind {
        "enter" => ">",
        "exit" => "<",
        _ => "*",
    };
    let mut line = format!(
        "{t_us:>12.1} us  {thread:<12} {indent}{marker} {name}",
        indent = "  ".repeat(depth.min(20)),
    );
    if let Some(fields) = event.get("fields").and_then(Value::as_obj) {
        for (k, v) in fields {
            match v {
                Value::Str(s) => {
                    let _ = write!(line, " {k}={s}");
                }
                Value::Num(n) => {
                    let _ = write!(line, " {k}={}", json::number(*n));
                }
                other => {
                    let _ = write!(line, " {k}={other:?}");
                }
            }
        }
    }
    if let Some(dur) = event.get("dur_ns").and_then(Value::as_f64) {
        let _ = write!(line, " ({:.1} us)", dur / 1000.0);
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_table_includes_derived_rows() {
        let mut delta = MetricsSnapshot {
            values: Default::default(),
        };
        delta
            .values
            .insert("engine.cache.hits".into(), MetricValue::Counter(3));
        let derived = Derived::from_delta(&delta, 2.0);
        let table = metrics_table(2.0, &delta, &derived);
        assert!(table.contains("== metrics =="), "{table}");
        assert!(table.contains("engine.cache.hits"), "{table}");
        assert!(table.contains("derived.cache_hit_rate"), "{table}");
        assert!(table.contains("wall_ms"), "{table}");
    }

    #[test]
    fn event_rendering_is_indented_by_depth() {
        let line = render_event(
            &json::parse(
                r#"{"kind":"enter","name":"rta.bus","depth":2,"thread":"main","t_ns":1500,
                    "fields":{"msgs":64}}"#,
            )
            .expect("valid"),
        );
        assert!(line.contains("    > rta.bus"), "{line}");
        assert!(line.contains("msgs=64"), "{line}");
    }
}
