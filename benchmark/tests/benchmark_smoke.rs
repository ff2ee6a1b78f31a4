//! Smoke test: every workload in `--quick` mode, untraced and traced.
//! Checks the result documents against `BENCHMARK.json`: every workload
//! and metric named there is emitted with its unit, every metric name is
//! well-formed, and no operation failed (the error rate is 0).

use carta_obs::json::{self, Value};
use std::process::Command;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names<'a>(spec: &'a Value, key: &str) -> Vec<(&'a str, Option<&'a str>)> {
    spec.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists `{key}`"))
        .iter()
        .map(|entry| {
            (
                entry.get("name").and_then(Value::as_str).expect("named"),
                entry.get("unit").and_then(Value::as_str),
            )
        })
        .collect()
}

/// Runs all four workloads once and returns the last stdout line, parsed.
fn quick_run(trace: &str) -> Value {
    let run_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--quick", "--seed", "2006", "--trace", trace, "--run-dir"])
        .arg(&run_dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "benchmark --quick --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last line is JSON")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn quick_runs_emit_every_benchmark_metric_without_errors() {
    let spec = spec();
    let workloads: Vec<&str> = names(&spec, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(
        workloads,
        ["serve_warm", "serve_cold", "sweep", "design_loop"]
    );
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let doc = quick_run(trace);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(
            doc.get("failed").and_then(Value::as_u64),
            Some(0),
            "error rate must be 0"
        );
        assert!(doc.get("attempted").and_then(Value::as_u64).unwrap_or(0) > 0);
        let metrics = doc.get("metrics").and_then(Value::as_obj).expect("metrics");
        for name in metrics.keys() {
            assert!(well_formed(name), "metric name `{name}`");
        }
        for workload in &workloads {
            for (metric, unit) in names(&spec, key) {
                let entry = metrics
                    .get(&format!("{workload}.{metric}"))
                    .unwrap_or_else(|| panic!("{workload} does not emit `{metric}`"));
                assert_eq!(entry.get("unit").and_then(Value::as_str), unit, "{metric}");
                assert!(
                    entry.get("value").and_then(Value::as_f64).is_some(),
                    "{metric}"
                );
            }
        }
    }
}
