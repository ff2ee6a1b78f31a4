//! The `carta` subcommands, routed through the shared `carta.api.v1`
//! layer: argv is parsed into a [`Request`], the [`Handler`] runs it,
//! and [`crate::render::render_response`] turns the [`Response`] into
//! text. Every command stays a pure function from parsed arguments to
//! the text it prints, so the full surface is unit testable without
//! spawning processes.

use crate::args::{ParseArgsError, ParsedArgs};
use crate::obs::ObsSession;
use crate::render::{render_fuzz, render_response};
use carta_api::prelude::{
    parse_backend, ApiError, ErrorCode, Handler, Model, ModelOptions, ModelSource, Request,
    Response, ScenarioSpec,
};
use carta_can::backend::BackendConfig;
use carta_engine::prelude::{Evaluator, Parallelism};
use carta_obs::Obs;
use std::error::Error;
use std::fmt::Write as _;
use std::sync::Arc;

type CmdResult = Result<String, Box<dyn Error>>;

/// Dispatches a parsed invocation inside an observability session
/// (the global `--metrics`, `--metrics-json` and `--trace` flags).
///
/// # Errors
///
/// Propagates I/O, parse and analysis errors as boxed errors whose
/// `Display` is the message shown to the user.
pub fn run(args: &ParsedArgs) -> CmdResult {
    let session = ObsSession::start(args)?;
    let mut out = dispatch(args, session.obs())?;
    session.finish(&args.command, &mut out)?;
    Ok(out)
}

fn dispatch(args: &ParsedArgs, obs: &Obs) -> CmdResult {
    match args.command.as_str() {
        "help" | "--help" | "-h" => Ok(help_text()),
        "trace" => crate::obs::cmd_trace(args),
        // Fuzz owns repro-file I/O on top of the shared handler.
        "fuzz" => cmd_fuzz(args, obs),
        _ => {
            let request = request_from(args)?;
            let handler = handler_from(args, obs)?;
            let response = handler.handle(&request)?;
            let _phase = obs.phase("render");
            Ok(render_response(&response)?)
        }
    }
}

/// The invocation's handler: one evaluator at the `--jobs`
/// parallelism, reporting to the session's observer.
fn handler_from(args: &ParsedArgs, obs: &Obs) -> Result<Handler, Box<dyn Error>> {
    let parallelism = parallelism_from(args, obs)?;
    let evaluator = Evaluator::builder()
        .parallelism(parallelism)
        .obs(obs.clone())
        .build();
    Ok(Handler::with_evaluator(Arc::new(evaluator), parallelism))
}

/// The `help` text.
pub fn help_text() -> String {
    "\
carta — compositional CAN timing analysis (SymTA/S-style)

USAGE: carta <command> [<kmatrix.csv>] [flags]

COMMANDS
  generate     emit the synthetic power-train K-Matrix CSV
                 --seed <n>
  load         bus-load (utilization) report
  analyze      worst-case response times per message
                 --scenario best|worst|sporadic:<ms>   (default worst)
                 --jitter <pct>          uniform jitter override
                 --assume-unknown <pct>  jitter for unknown messages
                 --backend can|can-fd    bus backend (default can)
                 --prob   convolution-based response-time distributions
                          and deadline-miss probabilities instead of
                          the worst/best-case bounds
  loss         message-loss curve over the 0–60 % jitter grid
                 --scenario ...
                 --prob   expected losses (sum of per-message miss
                          probabilities) with a certain/possible band
  sensitivity  response-vs-jitter classes per message
                 --message <name>        restrict to one message
  audsley      optimal (feasibility) identifier assignment
                 --scenario ... --jitter <pct>
  optimize     SPEA2 identifier optimization
                 --population <n> --generations <n> --emit-csv
  simulate     discrete-event simulation
                 --millis <n> --seed <n> --errors <ms> --gantt
  dimension    compare candidate bit rates
                 --rates <kbps,kbps,...>   (default 125,250,500,1000)
  lint         structural review of a K-Matrix
  diff         compare two matrices' analyses message by message
                 carta diff <before.csv> <after.csv> [--scenario ...]
  fuzz         randomized verification (metamorphic laws + the
               differential sim-vs-analysis oracle, shrinking failures)
                 --cases <n> --seed <n> --laws <name,name,...>
                 --backend can|can-fd    fuzz corpus backend
                 --repro <file>    replay a stored counterexample
                 --repro-dir <d>   where shrunk repros are written
                                   (default: fuzz-repros/)
  trace        replay the span trace of a previous --trace run
                 carta trace [<trace.jsonl>] [--limit <n>]

GLOBAL FLAGS
  --backend <b>        bus backend for every model-loading command:
                       can (classic, default) or can-fd (dual rate,
                       4x data phase, payloads to 64 bytes)
  --jobs <n>           worker threads for sweep/optimizer evaluation
                       (default: the CARTA_JOBS env var, else all cores)
  --metrics            append a metrics table (cache hit rate, RTA
                       iteration counts, per-phase wall times, ...)
  --metrics-json <p>   write the same metrics as JSON (schema
                       carta.metrics.v1) to <p>
  --trace [<p>]        record a span trace as JSONL (default path:
                       <tmp>/carta-last-trace.jsonl)

Use `-` as the K-Matrix path to analyze the built-in case study.
"
    .to_string()
}

/// Builds the API request for a subcommand; all file reads happen
/// here, so the handler itself never touches the filesystem.
fn request_from(args: &ParsedArgs) -> Result<Request, Box<dyn Error>> {
    Ok(match args.command.as_str() {
        "generate" => Request::Generate {
            seed: args.numeric_flag("seed", 42u64)?,
        },
        "load" => Request::Load {
            model: model_from(args)?,
        },
        "analyze" if args.has_flag("prob") => Request::ProbAnalyze {
            model: model_from(args)?,
            scenario: scenario_from(args)?,
        },
        "analyze" => Request::Analyze {
            model: model_from(args)?,
            scenario: scenario_from(args)?,
        },
        "loss" if args.has_flag("prob") => Request::ProbLoss {
            model: model_from(args)?,
            scenario: scenario_from(args)?,
        },
        "loss" => Request::Loss {
            model: model_from(args)?,
            scenario: scenario_from(args)?,
        },
        "sensitivity" => Request::Sensitivity {
            model: model_from(args)?,
            scenario: scenario_from(args)?,
            message: args.flag("message").map(str::to_string),
        },
        "audsley" => Request::Audsley {
            model: model_from(args)?,
            scenario: scenario_from(args)?,
        },
        "optimize" => Request::Optimize {
            model: model_from(args)?,
            population: args.numeric_flag("population", 60usize)?,
            generations: args.numeric_flag("generations", 40usize)?,
            emit_csv: args.has_flag("emit-csv"),
        },
        "simulate" => Request::Simulate {
            model: model_from(args)?,
            millis: args.numeric_flag("millis", 2_000u64)?,
            seed: args.numeric_flag("seed", 42u64)?,
            errors_ms: match args.flag("errors") {
                None => None,
                Some(ms) => Some(
                    ms.parse()
                        .map_err(|_| ParseArgsError(format!("invalid --errors `{ms}`")))?,
                ),
            },
            gantt: args.has_flag("gantt"),
        },
        "dimension" => Request::Dimension {
            model: model_from(args)?,
            scenario: scenario_from(args)?,
            rates: rates_from(args)?,
        },
        "lint" => Request::Lint {
            model: model_from(args)?,
        },
        "diff" => {
            let before_path = args.required_positional("two K-Matrix paths")?;
            let after_path = args
                .positional
                .get(1)
                .ok_or_else(|| ParseArgsError("diff needs two K-Matrix paths".into()))?;
            let options = options_from(args)?;
            Request::Diff {
                before: Model {
                    source: source_from(before_path)?,
                    options: options.clone(),
                },
                after: Model {
                    source: source_from(after_path)?,
                    options,
                },
                scenario: scenario_from(args)?,
            }
        }
        other => {
            return Err(Box::new(ParseArgsError(format!(
                "unknown command `{other}`; try `carta help`"
            ))))
        }
    })
}

/// Resolves a K-Matrix path into a model source: `-` is the built-in
/// case study, anything else is read as CSV here and shipped as text.
fn source_from(path: &str) -> Result<ModelSource, Box<dyn Error>> {
    if path == "-" {
        return Ok(ModelSource::CaseStudy { seed: 42 });
    }
    let text = std::fs::read_to_string(path)
        .map_err(|e| ApiError::io(format!("cannot read `{path}`: {e}")))?;
    Ok(ModelSource::Csv(text))
}

fn model_from(args: &ParsedArgs) -> Result<Model, Box<dyn Error>> {
    let path = args.required_positional("K-Matrix path (or `-`)")?;
    Ok(Model {
        source: source_from(path)?,
        options: options_from(args)?,
    })
}

fn options_from(args: &ParsedArgs) -> Result<ModelOptions, Box<dyn Error>> {
    Ok(ModelOptions {
        backend: backend_from(args)?,
        jitter_pct: pct_flag(args, "jitter")?,
        assume_unknown_pct: pct_flag(args, "assume-unknown")?,
    })
}

/// Resolves `--backend` (default classic CAN).
fn backend_from(args: &ParsedArgs) -> Result<BackendConfig, Box<dyn Error>> {
    match args.flag("backend") {
        None => Ok(BackendConfig::Can),
        Some(name) => Ok(parse_backend(name)?),
    }
}

fn pct_flag(args: &ParsedArgs, name: &str) -> Result<Option<f64>, Box<dyn Error>> {
    match args.flag(name) {
        None => Ok(None),
        Some(pct) => {
            Ok(Some(pct.parse().map_err(|_| {
                ParseArgsError(format!("invalid --{name} `{pct}`"))
            })?))
        }
    }
}

fn scenario_from(args: &ParsedArgs) -> Result<ScenarioSpec, Box<dyn Error>> {
    Ok(ScenarioSpec::parse(
        args.flag("scenario").unwrap_or("worst"),
    )?)
}

fn rates_from(args: &ParsedArgs) -> Result<Vec<u64>, Box<dyn Error>> {
    match args.flag("rates") {
        None => Ok(vec![125_000, 250_000, 500_000, 1_000_000]),
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .ok()
                    .and_then(|kbps| kbps.checked_mul(1000))
                    .ok_or_else(|| {
                        Box::new(ParseArgsError(format!("invalid rate `{s}`"))) as Box<dyn Error>
                    })
            })
            .collect(),
    }
}

/// Resolves `--jobs` into [`Parallelism`] (flag, then `CARTA_JOBS`,
/// then all hardware threads). A malformed or zero `CARTA_JOBS` is
/// warned about on stderr and counted as `engine.jobs.env_invalid` in
/// the session's registry.
fn parallelism_from(args: &ParsedArgs, obs: &Obs) -> Result<Parallelism, Box<dyn Error>> {
    let explicit = match args.flag("jobs") {
        None => None,
        Some(v) => Some(
            v.parse::<usize>()
                .map_err(|_| ParseArgsError(format!("invalid --jobs `{v}`")))?,
        ),
    };
    let env = std::env::var("CARTA_JOBS").ok();
    let (parallelism, warning) = Parallelism::resolve_with_env(explicit, env.as_deref());
    if let Some(warning) = warning {
        eprintln!("warning: {warning}");
        if let Some(registry) = obs.registry() {
            registry.counter("engine.jobs.env_invalid").inc();
        }
    }
    Ok(parallelism)
}

/// Maps a command error to the process exit code via the shared
/// `carta.api.v1` error table; argument-parsing failures count as
/// invalid requests, anything unrecognized exits 1.
pub fn exit_code_for(err: &(dyn Error + 'static)) -> u8 {
    if let Some(api) = err.downcast_ref::<ApiError>() {
        return api.code.exit_code();
    }
    if err.downcast_ref::<ParseArgsError>().is_some() {
        return ErrorCode::RequestInvalid.exit_code();
    }
    1
}

fn unexpected(resp: &Response) -> Box<dyn Error> {
    Box::new(ApiError::internal(format!(
        "unexpected response kind `{}`",
        resp.kind()
    )))
}

fn cmd_fuzz(args: &ParsedArgs, obs: &Obs) -> CmdResult {
    let handler = handler_from(args, obs)?;

    if let Some(path) = args.flag("repro") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ApiError::io(format!("cannot read repro `{path}`: {e}")))?;
        let resp = handler.handle(&Request::FuzzReplay { repro_json: text })?;
        return match &resp {
            Response::FuzzReplay(r) => Ok(format!(
                "repro `{path}` ({}, seed {}) passes — the defect no longer reproduces\n",
                r.law, r.seed
            )),
            other => Err(unexpected(other)),
        };
    }

    let request = Request::Fuzz {
        cases: args.numeric_flag("cases", 64u64)?,
        seed: args.numeric_flag("seed", 2006u64)?,
        laws: args.flag("laws").map(|list| {
            list.split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect()
        }),
        backend: backend_from(args)?,
    };
    let resp = handler.handle(&request)?;
    let summary = match &resp {
        Response::Fuzz(summary) => summary,
        other => return Err(unexpected(other)),
    };
    let _phase = obs.phase("render");
    let mut out = render_fuzz(summary)?;
    if summary.report.passed() {
        return Ok(out);
    }
    let dir = std::path::Path::new(args.flag("repro-dir").unwrap_or("fuzz-repros"));
    std::fs::create_dir_all(dir)
        .map_err(|e| ApiError::io(format!("cannot create `{}`: {e}", dir.display())))?;
    for o in summary.report.violations() {
        let repro = o.repro.as_ref().expect("violations carry a repro");
        let path = dir.join(repro.file_name());
        std::fs::write(&path, repro.to_json())
            .map_err(|e| ApiError::io(format!("cannot write `{}`: {e}", path.display())))?;
        writeln!(out, "\n{}", repro.violation)?;
        writeln!(
            out,
            "  shrunk to {} message(s) in {} steps; replay with `carta fuzz --repro {}`",
            repro.network.messages().len(),
            repro.shrink_steps,
            path.display()
        )?;
    }
    Err(Box::new(ApiError::new(
        ErrorCode::FuzzViolation,
        format!("fuzz found violations\n{out}"),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use carta_kmatrix::csv::from_csv;
    use carta_kmatrix::generator::{powertrain_kmatrix, CaseStudyConfig};

    fn run_line(line: &[&str]) -> CmdResult {
        run(&ParsedArgs::parse(line.iter().copied()).expect("parses"))
    }

    #[test]
    fn unknown_command_rejected() {
        let err = run_line(&["frobnicate"]).expect_err("unknown");
        assert!(err.to_string().contains("frobnicate"));
        assert_eq!(exit_code_for(err.as_ref()), 2);
    }

    #[test]
    fn generate_roundtrips_through_load() {
        let csv = run_line(&["generate", "--seed", "7"]).expect("generates");
        assert!(csv.starts_with("#kmatrix,powertrain"));
        let matrix = from_csv(&csv).expect("parses");
        assert_eq!(matrix.rows.len(), 64);
    }

    #[test]
    fn analyze_on_the_fd_backend_is_bounded() {
        // `--backend can` is the default spelled out.
        let classic = run_line(&["analyze", "-"]).expect("analyzes");
        let explicit = run_line(&["analyze", "-", "--backend", "can"]).expect("analyzes");
        assert_eq!(classic, explicit);
        let fd = run_line(&["analyze", "-", "--backend", "can-fd"]).expect("analyzes");
        assert!(!fd.contains("unbounded"), "{fd}");
        assert!(!fd.contains("DIVERGED"), "{fd}");
        assert!(fd.contains("0 of 64 messages can be lost"), "{fd}");
        assert_ne!(classic, fd, "FD must change the response times");
        let out = run_line(&["load", "-", "--backend", "can-fd"]).expect("loads");
        assert!(out.contains("backend: can-fd(x4)"), "{out}");
        let err = run_line(&["analyze", "-", "--backend", "flexray"]).expect_err("bad");
        assert!(err.to_string().contains("unknown backend `flexray`"));
        assert_eq!(exit_code_for(err.as_ref()), 2);
    }

    #[test]
    fn jobs_flag_accepted_and_validated() {
        let sequential = run_line(&["loss", "-", "--jobs", "1"]).expect("runs");
        let parallel = run_line(&["loss", "-", "--jobs", "4"]).expect("runs");
        assert_eq!(sequential, parallel, "job count must not change results");
        let err = run_line(&["loss", "-", "--jobs", "many"]).expect_err("invalid");
        assert!(err.to_string().contains("--jobs"));
    }

    #[test]
    fn dimension_rejects_a_rate_that_overflows_bit_per_s() {
        // 18446744073709552 kbit/s is past u64::MAX bit/s: refused,
        // not wrapped to a 384 bit/s row.
        let err = run_line(&["dimension", "-", "--rates", "250,18446744073709552"])
            .expect_err("overflow");
        assert!(err.to_string().contains("invalid rate"), "{err}");
        assert_eq!(exit_code_for(err.as_ref()), 2);
    }

    #[test]
    fn optimize_quick_emits_csv() {
        let out = run_line(&[
            "optimize",
            "-",
            "--population",
            "8",
            "--generations",
            "2",
            "--emit-csv",
        ])
        .expect("runs");
        let matrix = from_csv(&out).expect("valid csv");
        assert_eq!(matrix.rows.len(), 64);
        // The identifier pool is preserved.
        let base = powertrain_kmatrix(&CaseStudyConfig::default());
        let mut a: Vec<u32> = base.rows.iter().map(|r| r.id).collect();
        let mut b: Vec<u32> = matrix.rows.iter().map(|r| r.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn diff_against_self_is_safe() {
        // Write the built-in matrix to a temp file and diff it with a
        // jittered variant of itself.
        let dir = ScratchDir::new("diff_against_self_is_safe");
        let base = dir.path("base.csv");
        let csv = run_line(&["generate"]).expect("generates");
        std::fs::write(&base, &csv).expect("write");
        let out = run_line(&[
            "diff",
            base.to_str().expect("utf8"),
            base.to_str().expect("utf8"),
        ])
        .expect("runs");
        assert!(out.contains("safe change"), "{out}");
        assert!(out.contains("0 regression(s)"));
        let err = run_line(&["diff", base.to_str().expect("utf8")]).expect_err("one path");
        assert!(err.to_string().contains("two"));
    }

    #[test]
    fn metrics_flag_appends_table() {
        let out = run_line(&["analyze", "-", "--metrics"]).expect("runs");
        assert!(out.contains("== metrics =="), "{out}");
        assert!(out.contains("derived.cache_hit_rate"), "{out}");
        assert!(out.contains("derived.points_per_s"), "{out}");
        assert!(out.contains("wall_ms"), "{out}");
        assert!(out.contains("phase.analyze.wall_ns"), "{out}");
    }

    #[test]
    fn metrics_json_writes_schema_document() {
        let dir = ScratchDir::new("metrics_json_writes_schema_document");
        let path = dir.path("metrics.json");
        let out =
            run_line(&["loss", "-", "--metrics-json", path.to_str().expect("utf8")]).expect("runs");
        assert!(out.contains("metrics written to"), "{out}");
        let text = std::fs::read_to_string(&path).expect("written");
        let doc = carta_obs::json::parse(&text).expect("valid json");
        assert_eq!(
            doc.get("schema").and_then(carta_obs::json::Value::as_str),
            Some("carta.metrics.v1")
        );
        assert_eq!(
            doc.get("command").and_then(carta_obs::json::Value::as_str),
            Some("loss")
        );
        assert!(doc.get("wall_ms").is_some());
        assert!(doc
            .get("metrics")
            .and_then(|m| m.get("engine.cache.misses"))
            .is_some());
        assert!(doc
            .get("derived")
            .and_then(|d| d.get("points_per_s"))
            .is_some());
        let err = run_line(&["loss", "-", "--metrics-json"]).expect_err("needs path");
        assert!(err.to_string().contains("--metrics-json"));
    }

    #[test]
    fn trace_flag_writes_replayable_file() {
        let dir = ScratchDir::new("trace_flag_writes_replayable_file");
        let path = dir.path("trace.jsonl");
        let out =
            run_line(&["analyze", "-", "--trace", path.to_str().expect("utf8")]).expect("runs");
        assert!(out.contains("trace written to"), "{out}");
        assert!(path.exists());
        let replay =
            run_line(&["trace", path.to_str().expect("utf8"), "--limit", "5"]).expect("replays");
        assert!(
            replay.contains("rta.bus") || replay.contains("more events") || replay.contains("us"),
            "{replay}"
        );
        let err = run_line(&["trace", "/nonexistent/trace.jsonl"]).expect_err("missing");
        assert!(err.to_string().contains("cannot read trace"));
    }

    #[test]
    fn fuzz_smoke_on_the_fd_backend() {
        let out = run_line(&[
            "fuzz",
            "--cases",
            "2",
            "--seed",
            "2006",
            "--backend",
            "can-fd",
            "--jobs",
            "1",
        ])
        .expect("laws hold on FD");
        assert!(
            out.contains("all 12 laws held over 2 cases each (seed 2006)"),
            "{out}"
        );
        let err = run_line(&["fuzz", "--cases", "1", "--backend", "lin"]).expect_err("bad");
        assert!(err.to_string().contains("unknown backend `lin`"));
    }

    #[test]
    fn fuzz_runs_the_chaos_laws() {
        let out = run_line(&[
            "fuzz",
            "--cases",
            "3",
            "--laws",
            "degraded-is-sound,fault-isolation",
            "--jobs",
            "1",
        ])
        .expect("chaos laws hold");
        assert!(out.contains("degraded-is-sound"), "{out}");
        assert!(out.contains("fault-isolation"), "{out}");
        assert!(out.contains("all 2 laws held"), "{out}");
    }

    #[test]
    fn analyze_renders_degraded_diagnostics() {
        // The built-in case study plus an infeasible flood message:
        // the flood diverges and is diagnosed, the rest keeps bounds.
        let mut csv = run_line(&["generate", "--seed", "7"]).expect("generates");
        csv.push_str("flood,0x7fa,0,8,50,,,EMS,TCU\n");
        let dir = ScratchDir::new("analyze_renders_degraded_diagnostics");
        let path = dir.path("flooded.csv");
        std::fs::write(&path, csv).expect("write");
        let out = run_line(&["analyze", path.to_str().expect("utf8")]).expect("analyzes");
        assert!(out.contains("DIVERGED"), "{out}");
        assert!(out.contains("DEGRADED REPORT"), "{out}");
        assert!(out.contains("`flood`"), "{out}");
        assert!(out.contains("interference:"), "{out}");
        // Messages above the flood keep their verdicts.
        assert!(out.contains("ok"), "{out}");
    }

    #[test]
    fn fuzz_law_filter_and_validation() {
        let out =
            run_line(&["fuzz", "--cases", "1", "--laws", "load-schedulability"]).expect("runs");
        assert!(out.contains("all 1 laws held"), "{out}");
        let err = run_line(&["fuzz", "--cases", "1", "--laws", "no-such-law"]).expect_err("bad");
        assert!(err.to_string().contains("unknown law `no-such-law`"));
        assert!(err.to_string().contains("jitter-monotonicity"));
    }

    #[test]
    fn fuzz_replays_repro_files() {
        use carta_testkit::prelude::*;
        let err = run_line(&["fuzz", "--repro", "/nonexistent/r.json"]).expect_err("missing");
        assert!(err.to_string().contains("cannot read repro"));
        assert_eq!(exit_code_for(err.as_ref()), 66);

        let dir = ScratchDir::new("fuzz_replays_repro_files");
        let path = dir.path("repro.json");
        let repro = Repro {
            law: "load-schedulability".into(),
            seed: 11,
            errors: ErrorSpec::None,
            violation: "synthetic".into(),
            shrink_steps: 0,
            network: random_network(&NetShape::bus(), 11),
        };
        std::fs::write(&path, repro.to_json()).expect("write");
        let out = run_line(&["fuzz", "--repro", path.to_str().expect("utf8")]).expect("replays");
        assert!(out.contains("no longer reproduces"), "{out}");
        std::fs::write(&path, "{\"schema\":\"nope\"}").expect("write");
        let err = run_line(&["fuzz", "--repro", path.to_str().expect("utf8")]).expect_err("bad");
        assert!(err.to_string().contains("invalid repro"));
    }

    #[test]
    fn repro_with_a_retired_law_is_an_invalid_request_not_a_violation() {
        use carta_testkit::prelude::*;
        let dir = ScratchDir::new("repro_with_a_retired_law_is_an_invalid_request_not_a_violation");
        let path = dir.path("retired.json");
        let repro = Repro {
            law: "retired-law".into(),
            seed: 3,
            errors: ErrorSpec::None,
            violation: "synthetic".into(),
            shrink_steps: 0,
            network: random_network(&NetShape::bus(), 3),
        };
        std::fs::write(&path, repro.to_json()).expect("write");
        let err = run_line(&["fuzz", "--repro", path.to_str().expect("utf8")])
            .expect_err("unknown law must fail loudly, not silently pass another oracle");
        assert!(
            err.to_string().contains("unknown law `retired-law`"),
            "{err}"
        );
        assert!(
            err.to_string().contains("jitter-monotonicity"),
            "the error lists the known laws: {err}"
        );
        assert_eq!(
            exit_code_for(err.as_ref()),
            2,
            "a bad law name is a request error, not a fuzz violation"
        );
    }

    #[test]
    fn prob_analyze_reports_zero_risk_when_schedulable() {
        let out = run_line(&[
            "analyze",
            "-",
            "--prob",
            "--scenario",
            "best",
            "--jobs",
            "1",
        ])
        .expect("runs");
        assert!(out.contains("miss prob"), "{out}");
        assert!(
            out.contains("expected lost messages: 0"),
            "best case has no errors to convolve: {out}"
        );
        let worst = run_line(&["analyze", "-", "--prob", "--jobs", "1"]).expect("runs");
        assert!(worst.contains("p99"), "{worst}");
        assert!(worst.contains("quantum"), "{worst}");
    }

    #[test]
    fn prob_loss_curve_runs_and_stays_inside_the_envelope() {
        let prob = run_line(&["loss", "-", "--prob", "--jobs", "1"]).expect("runs");
        assert!(prob.contains("expected"), "{prob}");
        assert!(prob.lines().count() > 13, "{prob}");
    }

    #[test]
    fn scenario_parse_errors_are_friendly() {
        let err = run_line(&["analyze", "-", "--scenario", "chaotic"]).expect_err("bad");
        assert!(err.to_string().contains("chaotic"));
        let err = run_line(&["analyze"]).expect_err("missing path");
        assert!(err.to_string().contains("K-Matrix"));
        let err = run_line(&["load", "/nonexistent/file.csv"]).expect_err("missing file");
        assert!(err.to_string().contains("cannot read"));
        assert_eq!(exit_code_for(err.as_ref()), 66);
    }

    #[test]
    fn exit_codes_come_from_the_shared_table() {
        // Analysis divergence is a *degraded report*, not an error, so
        // exercise the table directly on representative errors.
        assert_eq!(
            exit_code_for(&ApiError::new(ErrorCode::FuzzViolation, "x")),
            4
        );
        assert_eq!(exit_code_for(&ApiError::model("bad csv")), 65);
        assert_eq!(exit_code_for(&ParseArgsError("bad flag".into())), 2);
        assert_eq!(exit_code_for(&std::io::Error::other("raw")), 1);
    }
}
