//! `benchmark` — carta's end-to-end and per-layer benchmark.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!           [--repeat N] [--quick] [--run-dir PATH] [--spans PATH]
//! ```
//!
//! Workloads: `serve_warm`, `serve_cold`, `sweep`, `design_loop` (all
//! four when `--workload` is omitted). Every input is generated from
//! `--seed`. An untraced run (`--trace 0`) prints the end-to-end
//! metrics; a traced run (`--trace 1`) prints the per-layer metrics and
//! writes its spans as JSONL. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! 0 only when every operation succeeded and every checked output was
//! correct. See `README.md` for the workloads and metric definitions.

mod client;
mod design;
mod inputs;
mod metrics;
mod rng;
mod serve;
mod speed;
mod stats;
mod sweep;
mod trace;

use metrics::{result_json, Outcome};
use stats::{median, quartiles, ratio};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, in the order a full run executes them.
const WORKLOADS: [&str; 4] = ["serve_warm", "serve_cold", "sweep", "design_loop"];
/// Measured seconds per run unless `--seconds` says otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Measured seconds per run under `--quick`.
const QUICK_SECONDS: f64 = 0.6;
/// A traced op whose unattributed self time exceeds this share of its
/// total is reported.
const UNATTRIBUTED_SHARE: f64 = 0.10;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the measured phases take.
    pub seconds: f64,
    /// Whether this is a traced run.
    pub trace: bool,
    /// Smoke-test sizes: one set-up, short phases.
    pub quick: bool,
    /// Scratch directory for server state; removed afterwards.
    pub run_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub spans: PathBuf,
}

const USAGE: &str = "usage: benchmark [--workload serve_warm|serve_cold|sweep|design_loop] \
[--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--quick] [--run-dir PATH] [--spans PATH]";

struct Cli {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    run_dir: PathBuf,
    spans: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: WORKLOADS.to_vec(),
        seed: 2006,
        seconds: 0.0,
        trace: false,
        quick: false,
        repeat: 1,
        run_dir: PathBuf::from(".bench_run"),
        spans: None,
    };
    let mut seconds = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = WORKLOADS
                    .iter()
                    .find(|w| **w == name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                cli.workloads = vec![w];
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--repeat" => {
                cli.repeat = value()?.parse().map_err(|_| "--repeat needs an integer")?;
                if cli.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--quick" => cli.quick = true,
            "--run-dir" => cli.run_dir = PathBuf::from(value()?),
            "--spans" => cli.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cli.seconds = seconds.unwrap_or(if cli.quick {
        QUICK_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    Ok(cli)
}

fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    match name {
        "serve_warm" => serve::run(args, false),
        "serve_cold" => serve::run(args, true),
        "sweep" => sweep::run(args),
        "design_loop" => design::run(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Completes a traced run's per-layer view: tracing overhead, the
/// unattributed-time check, the per-span summary, and the JSONL file.
/// `op_root` names the span that wraps one operation of the workload.
pub fn finish_trace(args: &RunArgs, out: &mut Outcome, tr: &Tracer, op_root: &str, wall_s: f64) {
    if !tr.on() {
        return;
    }
    let spans = tr.spans().len() as f64;
    out.layer(
        "bench.trace_overhead",
        ratio(spans * Tracer::span_cost_s(), wall_s),
    );
    let unattributed = tr.unattributed(op_root, UNATTRIBUTED_SHARE);
    out.layer("bench.unattributed_ops", unattributed as f64);
    if unattributed > 0 {
        out.notes.push(format!(
            "warning: {unattributed} traced `{op_root}` ops spend more than {:.0}% of their time outside any layer span",
            UNATTRIBUTED_SHARE * 100.0
        ));
    }
    out.notes.extend(tr.summary());
    match tr.write_jsonl(&args.spans) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            tr.spans().len(),
            args.spans.display()
        )),
        Err(e) => out.notes.push(format!(
            "warning: cannot write spans to {}: {e}",
            args.spans.display()
        )),
    }
}

/// Runs `name` `cli.repeat` times (seeds `seed`, `seed + 1`, …). With
/// more than one run, prints the median and quartiles of every metric
/// and returns an outcome holding the medians.
fn measure(name: &str, cli: &Cli, scratch: &std::path::Path) -> Result<Outcome, String> {
    let mut runs = Vec::new();
    for r in 0..cli.repeat {
        let args = RunArgs {
            seed: cli.seed.wrapping_add(r as u64),
            seconds: cli.seconds,
            trace: cli.trace,
            quick: cli.quick,
            run_dir: scratch.to_path_buf(),
            spans: cli
                .spans
                .clone()
                .unwrap_or_else(|| cli.run_dir.join(format!("spans-{name}.jsonl"))),
        };
        let outcome = run_workload(name, &args)?;
        for note in &outcome.notes {
            println!("[{name} seed {}] {note}", args.seed);
        }
        runs.push(outcome);
    }
    if runs.len() == 1 {
        return Ok(runs.pop().expect("one run"));
    }
    let mut folded = Outcome {
        attempted: runs.iter().map(|o| o.attempted).sum(),
        failed: runs.iter().map(|o| o.failed).sum(),
        ..Outcome::default()
    };
    println!(
        "{name}: {} runs, seeds {}..={}",
        cli.repeat,
        cli.seed,
        cli.seed.wrapping_add(cli.repeat as u64 - 1)
    );
    println!(
        "{:<34} {:>14} {:>14} {:>14} {:>8}",
        "metric", "median", "q1", "q3", "spread"
    );
    let reported: Vec<_> = runs.iter().map(|o| o.reported(cli.trace)).collect();
    for (i, (metric, _, _)) in reported[0].iter().enumerate() {
        let values: Vec<f64> = reported.iter().map(|r| r[i].2).collect();
        let (q1, q3) = quartiles(&values);
        let mid = median(&values);
        println!(
            "{metric:<34} {mid:>14.6} {q1:>14.6} {q3:>14.6} {:>7.2}%",
            ratio(q3 - q1, mid) * 100.0
        );
        folded.set(cli.trace, metric, mid);
    }
    Ok(folded)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve") {
        return serve::serve_child();
    }
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = cli.run_dir.join(format!("run-{}", std::process::id()));
    let mut results = Vec::new();
    let mut error = None;
    for name in &cli.workloads {
        match measure(name, &cli, &scratch) {
            Ok(outcome) => results.push((*name, outcome)),
            Err(e) => {
                error = Some(format!("{name}: {e}"));
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(e) = error {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let single = results.len() == 1;
    let mut metrics = Vec::new();
    for (name, outcome) in &results {
        println!(
            "{name}: {} ops attempted, {} failed",
            outcome.attempted, outcome.failed
        );
        for (metric, unit, value) in outcome.reported(cli.trace) {
            println!("{name:<12} {metric:<34} {value:>16.6} {unit}");
            let key = if single {
                metric.to_string()
            } else {
                format!("{name}.{metric}")
            };
            metrics.push((key, unit, value));
        }
    }
    let correct = results.iter().all(|(_, o)| o.correct());
    let attempted = results.iter().map(|(_, o)| o.attempted).sum();
    let failed = results.iter().map(|(_, o)| o.failed).sum();
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
