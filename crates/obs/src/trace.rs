//! Scoped-span tracing facade with pluggable sinks.
//!
//! Instrumented code opens spans with [`span!`](crate::span!) and emits point events
//! with [`event!`](crate::event!), both addressed to an [`crate::Obs`]. Without a sink
//! in that observer they are no-ops — one `Option` check, with field
//! formatting never evaluated and no clock read. Sinks receive
//! [`SpanEvent`] records; the crate ships a [`NullSink`], a
//! [`StderrSink`], an in-memory [`RingBufferSink`] and a [`JsonlSink`]
//! file writer (behind `carta --trace`).

use crate::json::ObjectBuilder;
use std::cell::Cell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a [`SpanEvent`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A span was opened.
    Enter,
    /// A span closed; `dur_ns` is set.
    Exit,
    /// A point-in-time event inside the current span.
    Instant,
}

impl SpanKind {
    /// Stable lowercase name used in JSONL output.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Enter => "enter",
            SpanKind::Exit => "exit",
            SpanKind::Instant => "instant",
        }
    }
}

/// One tracing record delivered to a [`SpanSink`].
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Enter, exit or instant.
    pub kind: SpanKind,
    /// Static span/event name, e.g. `"rta.bus"`.
    pub name: &'static str,
    /// Formatted key/value fields attached at the call site.
    pub fields: Vec<(&'static str, String)>,
    /// Nesting depth on the emitting thread (0 = top level).
    pub depth: usize,
    /// Emitting thread, e.g. `"ThreadId(3)"`.
    pub thread: String,
    /// Nanoseconds since the process tracing epoch.
    pub t_ns: u64,
    /// Span duration; set on `Exit` events only.
    pub dur_ns: Option<u64>,
}

impl SpanEvent {
    /// Renders the event as one JSON object (one JSONL line, sans
    /// newline).
    pub fn to_json(&self) -> String {
        let mut obj = ObjectBuilder::new()
            .string("kind", self.kind.as_str())
            .string("name", self.name)
            .uint("depth", self.depth as u64)
            .string("thread", &self.thread)
            .uint("t_ns", self.t_ns);
        if let Some(d) = self.dur_ns {
            obj = obj.uint("dur_ns", d);
        }
        if !self.fields.is_empty() {
            let mut fields = ObjectBuilder::new();
            for (k, v) in &self.fields {
                fields = fields.string(k, v);
            }
            obj = obj.raw("fields", &fields.build());
        }
        obj.build()
    }
}

/// Receives tracing records. Implementations must be cheap and
/// thread-safe; `record` is called from analysis worker threads.
pub trait SpanSink: Send + Sync {
    /// Delivers one event.
    fn record(&self, event: &SpanEvent);

    /// Flushes any buffered output (default: nothing to do).
    fn flush(&self) {}
}

impl std::fmt::Debug for dyn SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn SpanSink")
    }
}

/// Discards every event. Useful for measuring facade overhead.
#[derive(Debug, Default)]
pub struct NullSink;

impl SpanSink for NullSink {
    fn record(&self, _event: &SpanEvent) {}
}

/// Prints each event to stderr, indented by depth.
#[derive(Debug, Default)]
pub struct StderrSink;

impl SpanSink for StderrSink {
    fn record(&self, event: &SpanEvent) {
        let indent = "  ".repeat(event.depth);
        let fields: Vec<String> = event
            .fields
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let dur = event
            .dur_ns
            .map(|d| format!(" ({:.1} us)", d as f64 / 1_000.0))
            .unwrap_or_default();
        eprintln!(
            "[trace] {indent}{} {}{}{}",
            event.kind.as_str(),
            event.name,
            if fields.is_empty() {
                String::new()
            } else {
                format!(" {}", fields.join(" "))
            },
            dur
        );
    }
}

/// Keeps the most recent events in memory; old events are dropped once
/// `capacity` is reached. Backs the `carta trace` replay.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    events: Mutex<VecDeque<SpanEvent>>,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::new()),
        }
    }

    /// Removes and returns the buffered events, oldest first.
    pub fn drain(&self) -> Vec<SpanEvent> {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
            .collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl SpanSink for RingBufferSink {
    fn record(&self, event: &SpanEvent) {
        let mut events = self
            .events
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event.clone());
    }
}

/// Appends one JSON object per event to a file (JSON Lines).
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) `path` for writing.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }
}

impl SpanSink for JsonlSink {
    fn record(&self, event: &SpanEvent) {
        let mut w = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = writeln!(w, "{}", event.to_json());
    }

    fn flush(&self) {
        let _ = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .flush();
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Nanoseconds since the first traced event of the process.
fn now_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// RAII guard for one span: emits `Enter` on creation and `Exit` (with
/// duration) on drop. Created via the [`span!`](crate::span!) macro; inert when its
/// observer has no sink.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    name: &'static str,
    /// `Some` only when the guard actually opened a span.
    open: Option<(&'a Arc<dyn SpanSink>, Instant)>,
    depth: usize,
}

impl<'a> SpanGuard<'a> {
    /// Opens a span named `name` in `sink`; `fields` is only invoked
    /// when there is a sink. Prefer the [`span!`](crate::span!) macro.
    #[must_use = "the span closes when the guard drops"]
    pub fn new(
        sink: Option<&'a Arc<dyn SpanSink>>,
        name: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, String)>,
    ) -> Self {
        let Some(sink) = sink else {
            return SpanGuard {
                name,
                open: None,
                depth: 0,
            };
        };
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        sink.record(&SpanEvent {
            kind: SpanKind::Enter,
            name,
            fields: fields(),
            depth,
            thread: format!("{:?}", std::thread::current().id()),
            t_ns: now_ns(),
            dur_ns: None,
        });
        SpanGuard {
            name,
            open: Some((sink, Instant::now())),
            depth,
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some((sink, start)) = self.open else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        sink.record(&SpanEvent {
            kind: SpanKind::Exit,
            name: self.name,
            fields: Vec::new(),
            depth: self.depth,
            thread: format!("{:?}", std::thread::current().id()),
            t_ns: now_ns(),
            dur_ns: Some(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)),
        });
    }
}

/// Emits a point-in-time event into `sink`; `fields` is only invoked
/// when there is a sink. Prefer the [`event!`](crate::event!) macro.
pub fn instant(
    sink: Option<&Arc<dyn SpanSink>>,
    name: &'static str,
    fields: impl FnOnce() -> Vec<(&'static str, String)>,
) {
    let Some(sink) = sink else { return };
    sink.record(&SpanEvent {
        kind: SpanKind::Instant,
        name,
        fields: fields(),
        depth: DEPTH.with(Cell::get),
        thread: format!("{:?}", std::thread::current().id()),
        t_ns: now_ns(),
        dur_ns: None,
    });
}

/// Opens a scoped span in an observer:
/// `let _s = span!(obs, "rta.bus", msgs = n);`
///
/// The guard closes the span when dropped. Field values are formatted
/// with `Display` and only when the [`crate::Obs`] has a sink.
#[macro_export]
macro_rules! span {
    ($obs:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::trace::SpanGuard::new($obs.sink(), $name, || {
            vec![$((stringify!($key), format!("{}", $value))),*]
        })
    };
}

/// Emits a point event in an observer:
/// `event!(obs, "rta.verdict", ok = schedulable);`
///
/// Field values are formatted with `Display` and only when the
/// [`crate::Obs`] has a sink.
#[macro_export]
macro_rules! event {
    ($obs:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::trace::instant($obs.sink(), $name, || {
            vec![$((stringify!($key), format!("{}", $value))),*]
        })
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    use crate::Obs;

    #[test]
    fn spans_nest_and_balance() {
        let ring = Arc::new(RingBufferSink::new(64));
        let obs = Obs::new(None, Some(ring.clone()));
        {
            let _outer = span!(obs, "outer", a = 1);
            {
                let _inner = span!(obs, "inner");
                event!(obs, "tick", n = 2);
            }
        }
        let events = ring.drain();
        let kinds: Vec<(SpanKind, &str, usize)> =
            events.iter().map(|e| (e.kind, e.name, e.depth)).collect();
        assert_eq!(
            kinds,
            vec![
                (SpanKind::Enter, "outer", 0),
                (SpanKind::Enter, "inner", 1),
                (SpanKind::Instant, "tick", 2),
                (SpanKind::Exit, "inner", 1),
                (SpanKind::Exit, "outer", 0),
            ]
        );
        assert_eq!(events[0].fields, vec![("a", "1".to_string())]);
        assert!(events[4].dur_ns.is_some());
    }

    #[test]
    fn disabled_tracing_skips_field_formatting() {
        let mut formatted = false;
        let obs = Obs::default();
        {
            let _s = SpanGuard::new(obs.sink(), "quiet", || {
                formatted = true;
                Vec::new()
            });
        }
        assert!(!formatted, "field closure must not run without a sink");
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let ring = RingBufferSink::new(2);
        for i in 0..4 {
            ring.record(&SpanEvent {
                kind: SpanKind::Instant,
                name: "e",
                fields: vec![("i", i.to_string())],
                depth: 0,
                thread: "t".to_string(),
                t_ns: i,
                dur_ns: None,
            });
        }
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t_ns, 2);
        assert_eq!(events[1].t_ns, 3);
        assert!(ring.is_empty());
    }

    #[test]
    fn events_serialize_to_parseable_json() {
        let event = SpanEvent {
            kind: SpanKind::Exit,
            name: "rta.bus",
            fields: vec![("msgs", "64".to_string())],
            depth: 1,
            thread: "ThreadId(1)".to_string(),
            t_ns: 123,
            dur_ns: Some(456),
        };
        let v = parse(&event.to_json()).expect("valid json");
        assert_eq!(v.get("kind").and_then(|x| x.as_str()), Some("exit"));
        assert_eq!(v.get("name").and_then(|x| x.as_str()), Some("rta.bus"));
        assert_eq!(v.get("dur_ns").and_then(|x| x.as_f64()), Some(456.0));
        assert_eq!(
            v.get("fields")
                .and_then(|f| f.get("msgs"))
                .and_then(|x| x.as_str()),
            Some("64")
        );
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let path = std::env::temp_dir().join("carta-obs-jsonl-test.jsonl");
        let sink: Arc<dyn SpanSink> = Arc::new(JsonlSink::create(&path).expect("create"));
        let obs = Obs::new(None, Some(sink.clone()));
        {
            let _s = span!(obs, "file.span");
        }
        sink.flush();
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "enter + exit");
        for line in lines {
            parse(line).expect("each line is valid json");
        }
        let _ = std::fs::remove_file(&path);
    }
}
