//! Pins the `CARTA_JOBS` environment handling: a malformed or zero
//! value produces one warning line on stderr (and, with metrics on, an
//! `engine.jobs.env_invalid` counter) instead of a silent fallback,
//! while valid values and the `--jobs` flag stay quiet.

mod common;

use carta_obs::json::{self, Value};
use common::ScratchDir;
use std::process::Command;

fn run_analyze(env: Option<(&str, &str)>, extra: &[&str]) -> (bool, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_carta"));
    cmd.args(["analyze", "-"]).args(extra);
    cmd.env_remove("CARTA_JOBS");
    if let Some((key, value)) = env {
        cmd.env(key, value);
    }
    let output = cmd.output().expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn malformed_jobs_env_warns_on_stderr_and_still_runs() {
    let (ok, stderr) = run_analyze(Some(("CARTA_JOBS", "abc")), &[]);
    assert!(ok, "analyze must still succeed: {stderr}");
    assert!(
        stderr.contains("warning:") && stderr.contains("CARTA_JOBS"),
        "expected a CARTA_JOBS warning on stderr, got: {stderr:?}"
    );
    assert!(
        stderr.contains("not a valid worker count"),
        "warning must say why: {stderr:?}"
    );
}

#[test]
fn zero_jobs_env_warns_and_clamps() {
    let (ok, stderr) = run_analyze(Some(("CARTA_JOBS", "0")), &[]);
    assert!(ok, "analyze must still succeed: {stderr}");
    assert!(
        stderr.contains("zero workers"),
        "expected the clamp warning, got: {stderr:?}"
    );
}

#[test]
fn valid_jobs_env_and_explicit_flag_stay_quiet() {
    let (ok, stderr) = run_analyze(Some(("CARTA_JOBS", "2")), &[]);
    assert!(ok);
    assert!(
        !stderr.contains("CARTA_JOBS"),
        "valid env must not warn: {stderr:?}"
    );
    // An explicit --jobs wins without consulting the env at all.
    let (ok, stderr) = run_analyze(Some(("CARTA_JOBS", "abc")), &["--jobs", "1"]);
    assert!(ok);
    assert!(
        !stderr.contains("CARTA_JOBS"),
        "--jobs must bypass the env: {stderr:?}"
    );
}

#[test]
fn malformed_jobs_env_is_counted_in_metrics() {
    let dir = ScratchDir::new("malformed_jobs_env_is_counted_in_metrics");
    let path = dir.path("metrics.json");
    let output = Command::new(env!("CARGO_BIN_EXE_carta"))
        .args(["analyze", "-", "--metrics-json"])
        .arg(&path)
        .env("CARTA_JOBS", "many")
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let doc = json::parse(&std::fs::read_to_string(&path).expect("written")).expect("valid JSON");
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics map");
    assert_eq!(
        metrics
            .get("engine.jobs.env_invalid")
            .and_then(Value::as_f64),
        Some(1.0),
        "typed note missing from --metrics output"
    );
}
