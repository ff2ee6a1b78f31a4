//! End-to-end contract for the `--metrics-json` document: run the real
//! `carta` binary and assert the `carta.metrics.v1` schema holds.

mod common;

use carta_obs::json::{self, Value};
use common::ScratchDir;
use std::path::Path;
use std::process::Command;

fn carta() -> Command {
    Command::new(env!("CARGO_BIN_EXE_carta"))
}

fn run_with_metrics_json(args: &[&str], path: &Path) -> Value {
    let output = carta()
        .args(args)
        .arg("--metrics-json")
        .arg(path)
        .output()
        .expect("binary runs");
    assert!(
        output.status.success(),
        "carta {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(path).expect("metrics file written");
    json::parse(&text).expect("metrics file is valid JSON")
}

#[test]
fn loss_metrics_document_has_required_keys() {
    let dir = ScratchDir::new("loss_metrics_document_has_required_keys");
    let path = dir.path("loss.json");
    let doc = run_with_metrics_json(&["loss", "-"], &path);

    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("carta.metrics.v1")
    );
    assert_eq!(doc.get("command").and_then(Value::as_str), Some("loss"));
    assert!(
        doc.get("wall_ms").and_then(Value::as_f64).is_some(),
        "wall_ms missing"
    );

    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics map");
    for key in [
        "engine.cache.hits",
        "engine.cache.misses",
        "engine.batch.chunks",
        "engine.batch.worker_points",
        "rta.iterations",
        "sweep.runs",
        "sweep.points",
        "phase.load.wall_ns",
        "phase.analyze.wall_ns",
        "phase.render.wall_ns",
    ] {
        assert!(metrics.contains_key(key), "metrics missing `{key}`");
    }
    // A 14-point loss sweep analyzes at least one variant per point.
    let misses = metrics
        .get("engine.cache.misses")
        .and_then(Value::as_f64)
        .expect("counter is a number");
    assert!(misses >= 1.0, "no analyses recorded: {misses}");
    // The sweep runs through the chunked batch path at least once.
    let chunks = metrics
        .get("engine.batch.chunks")
        .and_then(Value::as_f64)
        .expect("counter is a number");
    assert!(chunks >= 1.0, "no batch chunks recorded: {chunks}");

    let derived = doc
        .get("derived")
        .and_then(Value::as_obj)
        .expect("derived map");
    for key in ["cache_hit_rate", "points_per_s"] {
        let v = derived
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("derived missing `{key}`"));
        assert!(v.is_finite() && v >= 0.0, "derived.{key} = {v}");
    }
}

#[test]
fn analyze_metrics_and_trace_round_trip() {
    let dir = ScratchDir::new("analyze_metrics_and_trace_round_trip");
    let json_path = dir.path("analyze.json");
    let trace_path = dir.path("analyze-trace.jsonl");
    let output = carta()
        .args(["analyze", "-", "--metrics"])
        .arg("--metrics-json")
        .arg(&json_path)
        .arg("--trace")
        .arg(&trace_path)
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("== metrics =="), "{stdout}");
    assert!(stdout.contains("trace written to"), "{stdout}");

    let doc =
        json::parse(&std::fs::read_to_string(&json_path).expect("written")).expect("valid JSON");
    assert_eq!(doc.get("command").and_then(Value::as_str), Some("analyze"));

    // Every line of the trace file is standalone JSON, and the replay
    // subcommand accepts it.
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    assert!(trace.lines().count() >= 2, "trace too short:\n{trace}");
    for line in trace.lines() {
        json::parse(line).expect("trace line is valid JSON");
    }
    let replay = carta()
        .arg("trace")
        .arg(&trace_path)
        .output()
        .expect("binary runs");
    assert!(replay.status.success());
    assert!(
        String::from_utf8_lossy(&replay.stdout).contains("rta.bus"),
        "replay misses rta.bus span"
    );
}

/// The counters of `doc`'s `metrics` map (absent names read as `None`).
fn counter(doc: &Value, name: &str) -> Option<f64> {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Value::as_f64)
}

/// `optimize` and `fuzz` run their own evaluators; both must report to
/// the invocation's registry.
#[test]
fn optimize_and_fuzz_report_their_own_counters() {
    let dir = ScratchDir::new("optimize_and_fuzz_report_their_own_counters");
    let path = dir.path("optimize.json");
    let doc = run_with_metrics_json(
        &["optimize", "-", "--population", "8", "--generations", "2"],
        &path,
    );
    assert_eq!(counter(&doc, "optim.generations"), Some(2.0));
    assert_eq!(counter(&doc, "optim.evaluations"), Some(16.0));
    assert!(
        counter(&doc, "engine.cache.misses").is_some_and(|m| m >= 1.0),
        "the GA's evaluator reports nothing"
    );

    let path = dir.path("fuzz.json");
    let doc = run_with_metrics_json(&["fuzz", "--cases", "1"], &path);
    assert_eq!(counter(&doc, "fuzz.laws"), Some(12.0));
    assert_eq!(counter(&doc, "fuzz.cases"), Some(12.0));
}
