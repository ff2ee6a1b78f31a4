//! The `carta.api.v1` wire format: JSON encoding for every request
//! and response, and decoding for requests (the server's inbound
//! path), analyze responses and error envelopes (so clients — and the
//! e2e isolation test — can reconstruct a [`BusReport`] bit for bit).
//!
//! Envelopes:
//!
//! ```json
//! {"schema":"carta.api.v1","request":"analyze","params":{...}}
//! {"schema":"carta.api.v1","ok":true,"kind":"analyze","result":{...}}
//! {"schema":"carta.api.v1","ok":false,"error":{"code":"...","message":"..."}}
//! ```
//!
//! All durations are nanoseconds (`*_ns`); they stay below 2⁵³ and so
//! survive the JSON double representation exactly.

use crate::error::{divergence_code, ApiError, ErrorCode};
use crate::request::{parse_backend, Model, ModelOptions, ModelSource, Request, ScenarioSpec};
use crate::response::{AnalyzeReport, AudsleyRow, ProbAnalyzeReport, Response};
use carta_can::backend::{BackendConfig, CanFd};
use carta_can::frame::StuffingMode;
use carta_can::message::CanId;
use carta_can::prob::{ProbDist, ProbMessageReport, ProbOutcome};
use carta_can::rta::{BusReport, MessageReport, ResponseOutcome};
use carta_core::analysis::{DivergenceCause, MessageDiagnostic, ResponseBounds};
use carta_core::time::Time;
use carta_engine::prelude::CacheStats;
use carta_explore::prelude::{LossCurve, ProbLossCurve};
use carta_obs::json::{self, ObjectBuilder, Value};
use std::sync::Arc;

/// The schema identifier stamped on every document.
pub const SCHEMA: &str = "carta.api.v1";

fn arr(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

fn str_arr<'a>(items: impl IntoIterator<Item = &'a str>) -> String {
    arr(items
        .into_iter()
        .map(|s| format!("\"{}\"", json::escape(s))))
}

fn opt_uint(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |n| n.to_string())
}

fn opt_num(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), json::number)
}

// ---------------------------------------------------------------- encode

fn backend_json(backend: BackendConfig) -> String {
    match backend {
        BackendConfig::Can => ObjectBuilder::new().string("kind", "can").build(),
        BackendConfig::CanFd(fd) => ObjectBuilder::new()
            .string("kind", "can-fd")
            .uint("data_ratio", u64::from(fd.data_ratio))
            .build(),
    }
}

fn stuffing_str(mode: StuffingMode) -> &'static str {
    match mode {
        StuffingMode::WorstCase => "worst-case",
        StuffingMode::None => "none",
    }
}

fn model_json(model: &Model) -> String {
    let source = match &model.source {
        ModelSource::CaseStudy { seed } => ObjectBuilder::new()
            .string("kind", "case-study")
            .uint("seed", *seed)
            .build(),
        ModelSource::Csv(text) => ObjectBuilder::new()
            .string("kind", "csv")
            .string("csv", text)
            .build(),
    };
    ObjectBuilder::new()
        .raw("source", &source)
        .raw("backend", &backend_json(model.options.backend))
        .raw("jitter_pct", &opt_num(model.options.jitter_pct))
        .raw(
            "assume_unknown_pct",
            &opt_num(model.options.assume_unknown_pct),
        )
        .build()
}

/// Encodes a request document (with the model inline; servers accept
/// `{"kind":"session","id":...}` sources as well, resolved at decode
/// time).
pub fn encode_request(req: &Request) -> String {
    encode_request_with_deadline(req, None)
}

/// [`encode_request`] plus an optional top-level `deadline_ms` budget:
/// a server receiving the document derives a cancellation deadline for
/// the evaluation and answers `request.deadline_exceeded` (HTTP 504)
/// when it trips. Omitted (`None`) means no deadline — the wire
/// document is then byte-identical to [`encode_request`], so the field
/// is backward compatible.
pub fn encode_request_with_deadline(req: &Request, deadline_ms: Option<u64>) -> String {
    let params = match req {
        Request::Generate { seed } => ObjectBuilder::new().uint("seed", *seed).build(),
        Request::Load { model } | Request::Lint { model } => ObjectBuilder::new()
            .raw("model", &model_json(model))
            .build(),
        Request::Analyze { model, scenario }
        | Request::Loss { model, scenario }
        | Request::ProbAnalyze { model, scenario }
        | Request::ProbLoss { model, scenario }
        | Request::Audsley { model, scenario } => ObjectBuilder::new()
            .raw("model", &model_json(model))
            .string("scenario", &scenario.spec_str())
            .build(),
        Request::Sensitivity {
            model,
            scenario,
            message,
        } => {
            let b = ObjectBuilder::new()
                .raw("model", &model_json(model))
                .string("scenario", &scenario.spec_str());
            match message {
                Some(m) => b.string("message", m),
                None => b.raw("message", "null"),
            }
            .build()
        }
        Request::Optimize {
            model,
            population,
            generations,
            emit_csv,
        } => ObjectBuilder::new()
            .raw("model", &model_json(model))
            .uint("population", *population as u64)
            .uint("generations", *generations as u64)
            .bool("emit_csv", *emit_csv)
            .build(),
        Request::Simulate {
            model,
            millis,
            seed,
            errors_ms,
            gantt,
        } => ObjectBuilder::new()
            .raw("model", &model_json(model))
            .uint("millis", *millis)
            .uint("seed", *seed)
            .raw("errors_ms", &opt_uint(*errors_ms))
            .bool("gantt", *gantt)
            .build(),
        Request::Dimension {
            model,
            scenario,
            rates,
        } => ObjectBuilder::new()
            .raw("model", &model_json(model))
            .string("scenario", &scenario.spec_str())
            .raw("rates", &arr(rates.iter().map(u64::to_string)))
            .build(),
        Request::Diff {
            before,
            after,
            scenario,
        } => ObjectBuilder::new()
            .raw("before", &model_json(before))
            .raw("after", &model_json(after))
            .string("scenario", &scenario.spec_str())
            .build(),
        Request::Fuzz {
            cases,
            seed,
            laws,
            backend,
        } => {
            let b = ObjectBuilder::new()
                .uint("cases", *cases)
                .uint("seed", *seed)
                .raw("backend", &backend_json(*backend));
            match laws {
                Some(laws) => b.raw("laws", &str_arr(laws.iter().map(String::as_str))),
                None => b.raw("laws", "null"),
            }
            .build()
        }
        Request::FuzzReplay { repro_json } => {
            ObjectBuilder::new().string("repro", repro_json).build()
        }
    };
    let envelope = ObjectBuilder::new()
        .string("schema", SCHEMA)
        .string("request", req.kind())
        .raw("params", &params);
    match deadline_ms {
        Some(ms) => envelope.uint("deadline_ms", ms).build(),
        None => envelope.build(),
    }
}

fn diagnostic_json(d: &MessageDiagnostic) -> String {
    let cause = match d.cause {
        DivergenceCause::HorizonExceeded { horizon } => ObjectBuilder::new()
            .string("code", divergence_code(&d.cause))
            .uint("horizon_ns", horizon.as_ns())
            .build(),
        DivergenceCause::InstanceLimit { limit } => ObjectBuilder::new()
            .string("code", divergence_code(&d.cause))
            .uint("limit", limit)
            .build(),
        DivergenceCause::IterationBudget { budget } => ObjectBuilder::new()
            .string("code", divergence_code(&d.cause))
            .uint("budget", budget)
            .build(),
    };
    ObjectBuilder::new()
        .string("entity", &d.entity)
        .uint("priority_level", d.priority_level as u64)
        .uint("busy_window_ns", d.busy_window.as_ns())
        .uint("instances", d.instances)
        .raw(
            "interference",
            &str_arr(d.interference.iter().map(|s| s.as_ref())),
        )
        .raw("cause", &cause)
        .build()
}

fn message_report_json(m: &MessageReport) -> String {
    let b = ObjectBuilder::new()
        .uint("index", m.index as u64)
        .string("name", &m.name)
        .uint("id", u64::from(m.id.raw()))
        .bool(
            "extended",
            m.id.kind() == carta_can::frame::FrameKind::Extended,
        )
        .uint("c_max_ns", m.c_max.as_ns())
        .uint("c_min_ns", m.c_min.as_ns())
        .uint("blocking_ns", m.blocking.as_ns())
        .uint("deadline_ns", m.deadline.as_ns())
        .uint("instances", m.instances);
    match &m.outcome {
        ResponseOutcome::Bounded(bounds) => b
            .bool("bounded", true)
            .uint("wcrt_ns", bounds.worst().as_ns())
            .uint("bcrt_ns", bounds.best().as_ns()),
        ResponseOutcome::Overload(d) => b
            .bool("bounded", false)
            .raw("diagnostic", &diagnostic_json(d)),
    }
    .build()
}

fn analyze_json(a: &AnalyzeReport) -> String {
    ObjectBuilder::new()
        .string("scenario", &a.scenario)
        .bool("degraded", a.report.is_degraded())
        .bool("schedulable", a.report.schedulable())
        .uint("missed", a.report.missed_count() as u64)
        .string("error_model", &a.report.error_model)
        .string("stuffing", stuffing_str(a.report.stuffing))
        .raw("backend", &backend_json(a.report.backend))
        .raw(
            "messages",
            &arr(a.report.messages.iter().map(message_report_json)),
        )
        .build()
}

fn loss_curve_json(curve: &LossCurve) -> String {
    ObjectBuilder::new()
        .string("scenario", &curve.scenario)
        .raw(
            "points",
            &arr(curve.points.iter().map(|p| {
                ObjectBuilder::new()
                    .num("jitter_ratio", p.jitter_ratio)
                    .uint("missed", p.missed as u64)
                    .uint("total", p.total as u64)
                    .bool("failed", p.failed)
                    .build()
            })),
        )
        .build()
}

fn prob_dist_json(d: &ProbDist) -> String {
    // The raw PMF can run to thousands of bins; the wire carries the
    // summary statistics plus the CDF the quantiles were read from.
    ObjectBuilder::new()
        .uint("bcrt_ns", d.bcrt.as_ns())
        .uint("wcrt_ns", d.wcrt.as_ns())
        .num("miss_probability", d.miss_probability)
        .uint("p50_ns", d.p50.as_ns())
        .uint("p95_ns", d.p95.as_ns())
        .uint("p99_ns", d.p99.as_ns())
        .uint("support_min_ns", d.pmf.support_min().as_ns())
        .uint("support_max_ns", d.pmf.support_max().as_ns())
        .uint("bins", d.pmf.len() as u64)
        .num("total_mass", d.pmf.total_mass())
        .build()
}

fn prob_message_json(m: &ProbMessageReport) -> String {
    let b = ObjectBuilder::new()
        .uint("index", m.index as u64)
        .string("name", &m.name)
        .uint("id", u64::from(m.id.raw()))
        .uint("deadline_ns", m.deadline.as_ns())
        .num("miss_probability", m.outcome.miss_probability());
    match &m.outcome {
        ProbOutcome::Dist(d) => b.bool("bounded", true).raw("dist", &prob_dist_json(d)),
        ProbOutcome::Overload(d) => b
            .bool("bounded", false)
            .raw("diagnostic", &diagnostic_json(d)),
    }
    .build()
}

fn prob_analyze_json(a: &ProbAnalyzeReport) -> String {
    ObjectBuilder::new()
        .string("scenario", &a.scenario)
        .uint("quantum_ns", a.report.quantum.as_ns())
        .num("expected_missed", a.report.expected_missed())
        .uint("certain_missed", a.report.certain_missed() as u64)
        .uint("possible_missed", a.report.possible_missed() as u64)
        .string("error_model", &a.report.error_model)
        .string("stuffing", stuffing_str(a.report.stuffing))
        .raw("backend", &backend_json(a.report.backend))
        .raw(
            "messages",
            &arr(a.report.messages.iter().map(prob_message_json)),
        )
        .build()
}

fn prob_loss_curve_json(curve: &ProbLossCurve) -> String {
    ObjectBuilder::new()
        .string("scenario", &curve.scenario)
        .raw(
            "points",
            &arr(curve.points.iter().map(|p| {
                ObjectBuilder::new()
                    .num("jitter_ratio", p.jitter_ratio)
                    .num("expected_missed", p.expected_missed)
                    .uint("certain_missed", p.certain_missed as u64)
                    .uint("possible_missed", p.possible_missed as u64)
                    .uint("total", p.total as u64)
                    .bool("failed", p.failed)
                    .build()
            })),
        )
        .build()
}

fn cache_stats_json(cache: &CacheStats) -> String {
    ObjectBuilder::new()
        .uint("hits", cache.hits)
        .uint("misses", cache.misses)
        .uint("compiles", cache.compiles)
        .uint("warm_starts", cache.warm_starts)
        .uint("cold_starts", cache.cold_starts)
        .build()
}

fn result_json(resp: &Response) -> String {
    match resp {
        Response::Matrix { csv } => ObjectBuilder::new().string("csv", csv).build(),
        Response::Load(l) => ObjectBuilder::new()
            .uint("messages", l.messages as u64)
            .uint("bit_rate", l.bit_rate)
            .string("backend", &l.backend)
            .num("worst_util_percent", l.worst_util_percent)
            .num("best_util_percent", l.best_util_percent)
            .build(),
        Response::Analyze(a) => analyze_json(a),
        Response::Loss(curve) => loss_curve_json(curve),
        Response::ProbAnalyze(a) => prob_analyze_json(a),
        Response::ProbLoss(curve) => prob_loss_curve_json(curve),
        Response::Sensitivity(series) => ObjectBuilder::new()
            .raw(
                "series",
                &arr(series.iter().map(|s| {
                    ObjectBuilder::new()
                        .string("message", &s.message)
                        .string("class", &s.classify().to_string())
                        .raw(
                            "points",
                            &arr(s.points.iter().map(|(ratio, wcrt)| {
                                ObjectBuilder::new()
                                    .num("jitter_ratio", *ratio)
                                    .raw("wcrt_ns", &opt_uint(wcrt.map(Time::as_ns)))
                                    .build()
                            })),
                        )
                        .build()
                })),
            )
            .build(),
        Response::Audsley(order) => match order {
            None => ObjectBuilder::new().bool("feasible", false).build(),
            Some(rows) => ObjectBuilder::new()
                .bool("feasible", true)
                .raw(
                    "rows",
                    &arr(rows.iter().map(|r| {
                        ObjectBuilder::new()
                            .string("message", &r.message)
                            .string("new_id", &r.new_id)
                            .build()
                    })),
                )
                .build(),
        },
        Response::Optimize(o) => ObjectBuilder::new()
            .uint("evaluations", o.evaluations as u64)
            .raw(
                "objectives",
                &arr(o.objectives.iter().map(|v| json::number(*v))),
            )
            .raw("cache", &cache_stats_json(&o.cache))
            .raw("loss_before", &loss_curve_json(&o.loss_before))
            .raw("loss_after", &loss_curve_json(&o.loss_after))
            .build(),
        Response::Simulate(s) => {
            let b = ObjectBuilder::new()
                .uint("millis", s.millis)
                .num("observed_utilization", s.observed_utilization)
                .uint("error_hits", s.error_hits as u64)
                .raw(
                    "stats",
                    &arr(s.stats.iter().map(|m| {
                        ObjectBuilder::new()
                            .string("message", &m.name)
                            .uint("queued", m.queued)
                            .uint("completed", m.completed)
                            .uint("overwritten", m.overwritten)
                            .uint("deadline_misses", m.deadline_misses)
                            .raw(
                                "max_response_ns",
                                &opt_uint(m.max_response.map(Time::as_ns)),
                            )
                            .build()
                    })),
                );
            match &s.gantt {
                Some(g) => b.string("gantt", g),
                None => b.raw("gantt", "null"),
            }
            .build()
        }
        Response::Dimension(options) => ObjectBuilder::new()
            .raw(
                "options",
                &arr(options.iter().map(|o| {
                    ObjectBuilder::new()
                        .uint("bit_rate", o.bit_rate)
                        .num("load", o.load)
                        .bool("schedulable", o.schedulable)
                        .raw("jitter_slack", &opt_num(o.jitter_slack))
                        .uint("ecu_headroom", o.ecu_headroom as u64)
                        .build()
                })),
            )
            .build(),
        Response::Lint(findings) => ObjectBuilder::new()
            .raw(
                "findings",
                &arr(findings.iter().map(|f| {
                    ObjectBuilder::new()
                        .string(
                            "severity",
                            match f.severity {
                                carta_kmatrix::lint::Severity::Info => "info",
                                carta_kmatrix::lint::Severity::Warning => "warning",
                            },
                        )
                        .string("rule", f.rule)
                        .string("message", &f.message)
                        .build()
                })),
            )
            .build(),
        Response::Diff(diff) => ObjectBuilder::new()
            .raw(
                "rows",
                &arr(diff.rows.iter().map(|r| {
                    ObjectBuilder::new()
                        .string("message", &r.message)
                        .raw("before_ns", &opt_uint(r.before.map(Time::as_ns)))
                        .raw("after_ns", &opt_uint(r.after.map(Time::as_ns)))
                        .string("change", &r.change.to_string())
                        .build()
                })),
            )
            .raw("added", &str_arr(diff.added.iter().map(String::as_str)))
            .raw("removed", &str_arr(diff.removed.iter().map(String::as_str)))
            .uint("regressions", diff.regressions().len() as u64)
            .uint("fixes", diff.fixes().len() as u64)
            .bool("safe", diff.is_safe())
            .build(),
        Response::Fuzz(f) => ObjectBuilder::new()
            .uint("seed", f.report.seed)
            .uint("cases", f.cases)
            .bool("passed", f.report.passed())
            .raw(
                "outcomes",
                &arr(f.report.outcomes.iter().map(|o| {
                    let b = ObjectBuilder::new()
                        .string("law", &o.law)
                        .uint("cases_run", o.cases_run)
                        .bool("violated", o.repro.is_some());
                    match &o.repro {
                        Some(r) => b.string("violation", &r.violation),
                        None => b.raw("violation", "null"),
                    }
                    .build()
                })),
            )
            .build(),
        Response::FuzzReplay(r) => ObjectBuilder::new()
            .string("law", &r.law)
            .uint("seed", r.seed)
            .bool("passes", true)
            .build(),
    }
}

/// Encodes a successful response envelope.
pub fn encode_response(resp: &Response) -> String {
    ObjectBuilder::new()
        .string("schema", SCHEMA)
        .bool("ok", true)
        .string("kind", resp.kind())
        .raw("result", &result_json(resp))
        .build()
}

/// Encodes an error envelope.
pub fn encode_error(err: &ApiError) -> String {
    ObjectBuilder::new()
        .string("schema", SCHEMA)
        .bool("ok", false)
        .raw(
            "error",
            &ObjectBuilder::new()
                .string("code", err.code.as_str())
                .string("message", &err.message)
                .build(),
        )
        .build()
}

// ---------------------------------------------------------------- decode

fn malformed(what: &str) -> ApiError {
    ApiError::request(format!("malformed {SCHEMA} document: {what}"))
}

fn get<'a>(obj: &'a Value, key: &str) -> Result<&'a Value, ApiError> {
    obj.get(key)
        .ok_or_else(|| malformed(&format!("missing `{key}`")))
}

fn get_str<'a>(obj: &'a Value, key: &str) -> Result<&'a str, ApiError> {
    get(obj, key)?
        .as_str()
        .ok_or_else(|| malformed(&format!("`{key}` must be a string")))
}

fn get_u64(obj: &Value, key: &str) -> Result<u64, ApiError> {
    get(obj, key)?
        .as_u64()
        .ok_or_else(|| malformed(&format!("`{key}` must be an unsigned integer")))
}

fn get_bool(obj: &Value, key: &str) -> Result<bool, ApiError> {
    get(obj, key)?
        .as_bool()
        .ok_or_else(|| malformed(&format!("`{key}` must be a boolean")))
}

fn opt_u64(obj: &Value, key: &str, default: u64) -> Result<u64, ApiError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| malformed(&format!("`{key}` must be an unsigned integer"))),
    }
}

fn decode_backend(value: &Value) -> Result<BackendConfig, ApiError> {
    // Accept both the object form and a bare "can"/"can-fd" string.
    if let Some(name) = value.as_str() {
        return parse_backend(name);
    }
    let kind = get_str(value, "kind")?;
    let mut backend = parse_backend(kind)?;
    if let BackendConfig::CanFd(_) = backend {
        let ratio = opt_u64(value, "data_ratio", u64::from(CanFd::DEFAULT_DATA_RATIO))?;
        if ratio == 0 || ratio > u64::from(u32::MAX) {
            return Err(malformed("`data_ratio` out of range"));
        }
        backend = BackendConfig::CanFd(CanFd::new(ratio as u32));
    }
    Ok(backend)
}

fn decode_model(
    value: &Value,
    resolve_session: &dyn Fn(&str) -> Option<String>,
) -> Result<Model, ApiError> {
    let source = get(value, "source")?;
    let source = match get_str(source, "kind")? {
        "case-study" => ModelSource::CaseStudy {
            seed: opt_u64(source, "seed", 42)?,
        },
        "csv" => ModelSource::Csv(get_str(source, "csv")?.to_string()),
        "session" => {
            let id = get_str(source, "id")?;
            let csv = resolve_session(id).ok_or_else(|| {
                ApiError::new(
                    ErrorCode::SessionNotFound,
                    format!("unknown session `{id}`"),
                )
            })?;
            ModelSource::Csv(csv)
        }
        other => return Err(malformed(&format!("unknown model source `{other}`"))),
    };
    let backend = match value.get("backend") {
        None | Some(Value::Null) => BackendConfig::Can,
        Some(b) => decode_backend(b)?,
    };
    let num_opt = |key: &str| -> Result<Option<f64>, ApiError> {
        match value.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| malformed(&format!("`{key}` must be a number"))),
        }
    };
    Ok(Model {
        source,
        options: ModelOptions {
            backend,
            jitter_pct: num_opt("jitter_pct")?,
            assume_unknown_pct: num_opt("assume_unknown_pct")?,
        },
    })
}

fn decode_scenario(params: &Value) -> Result<ScenarioSpec, ApiError> {
    match params.get("scenario") {
        None | Some(Value::Null) => Ok(ScenarioSpec::Worst),
        Some(v) => ScenarioSpec::parse(
            v.as_str()
                .ok_or_else(|| malformed("`scenario` must be a string"))?,
        ),
    }
}

/// Decodes a request document. `resolve_session` maps a session id to
/// its uploaded CSV (servers pass their session store; transports
/// without sessions can pass `|_| None`).
///
/// # Errors
///
/// Returns [`ErrorCode::RequestInvalid`] for malformed documents and
/// [`ErrorCode::SessionNotFound`] for unknown session references.
pub fn decode_request(
    text: &str,
    resolve_session: &dyn Fn(&str) -> Option<String>,
) -> Result<Request, ApiError> {
    decode_envelope(text, resolve_session).map(|(req, _)| req)
}

/// [`decode_request`] plus the envelope's optional top-level
/// `deadline_ms` budget (see [`encode_request_with_deadline`]).
///
/// # Errors
///
/// As [`decode_request`]; additionally rejects a non-integer
/// `deadline_ms` as [`ErrorCode::RequestInvalid`].
pub fn decode_envelope(
    text: &str,
    resolve_session: &dyn Fn(&str) -> Option<String>,
) -> Result<(Request, Option<u64>), ApiError> {
    let doc = json::parse(text).map_err(|e| malformed(&e.to_string()))?;
    let schema = get_str(&doc, "schema")?;
    if schema != SCHEMA {
        return Err(ApiError::request(format!(
            "unsupported schema `{schema}` (expected `{SCHEMA}`)"
        )));
    }
    let deadline_ms = match doc.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| malformed("`deadline_ms` must be an unsigned integer"))?,
        ),
    };
    let kind = get_str(&doc, "request")?;
    let empty = Value::Obj(Default::default());
    let params = doc.get("params").unwrap_or(&empty);
    let model = |key: &str| -> Result<Model, ApiError> {
        match params.get(key) {
            None | Some(Value::Null) => Ok(Model::case_study()),
            Some(m) => decode_model(m, resolve_session),
        }
    };
    let request = match kind {
        "generate" => Ok(Request::Generate {
            seed: opt_u64(params, "seed", 42)?,
        }),
        "load" => Ok(Request::Load {
            model: model("model")?,
        }),
        "lint" => Ok(Request::Lint {
            model: model("model")?,
        }),
        "analyze" => Ok(Request::Analyze {
            model: model("model")?,
            scenario: decode_scenario(params)?,
        }),
        "loss" => Ok(Request::Loss {
            model: model("model")?,
            scenario: decode_scenario(params)?,
        }),
        "prob-analyze" => Ok(Request::ProbAnalyze {
            model: model("model")?,
            scenario: decode_scenario(params)?,
        }),
        "prob-loss" => Ok(Request::ProbLoss {
            model: model("model")?,
            scenario: decode_scenario(params)?,
        }),
        "audsley" => Ok(Request::Audsley {
            model: model("model")?,
            scenario: decode_scenario(params)?,
        }),
        "sensitivity" => Ok(Request::Sensitivity {
            model: model("model")?,
            scenario: decode_scenario(params)?,
            message: match params.get("message") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| malformed("`message` must be a string"))?
                        .to_string(),
                ),
            },
        }),
        "optimize" => Ok(Request::Optimize {
            model: model("model")?,
            population: opt_u64(params, "population", 60)? as usize,
            generations: opt_u64(params, "generations", 40)? as usize,
            emit_csv: match params.get("emit_csv") {
                None | Some(Value::Null) => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| malformed("`emit_csv` must be a boolean"))?,
            },
        }),
        "simulate" => Ok(Request::Simulate {
            model: model("model")?,
            millis: opt_u64(params, "millis", 2_000)?,
            seed: opt_u64(params, "seed", 42)?,
            errors_ms: match params.get("errors_ms") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_u64()
                        .ok_or_else(|| malformed("`errors_ms` must be an unsigned integer"))?,
                ),
            },
            gantt: match params.get("gantt") {
                None | Some(Value::Null) => false,
                Some(v) => v
                    .as_bool()
                    .ok_or_else(|| malformed("`gantt` must be a boolean"))?,
            },
        }),
        "dimension" => Ok(Request::Dimension {
            model: model("model")?,
            scenario: decode_scenario(params)?,
            rates: match params.get("rates") {
                None | Some(Value::Null) => vec![125_000, 250_000, 500_000, 1_000_000],
                Some(v) => v
                    .as_arr()
                    .ok_or_else(|| malformed("`rates` must be an array"))?
                    .iter()
                    .map(|r| {
                        r.as_u64()
                            .ok_or_else(|| malformed("`rates` entries must be unsigned integers"))
                    })
                    .collect::<Result<_, _>>()?,
            },
        }),
        "diff" => Ok(Request::Diff {
            before: match params.get("before") {
                None => return Err(malformed("missing `before`")),
                Some(m) => decode_model(m, resolve_session)?,
            },
            after: match params.get("after") {
                None => return Err(malformed("missing `after`")),
                Some(m) => decode_model(m, resolve_session)?,
            },
            scenario: decode_scenario(params)?,
        }),
        "fuzz" => Ok(Request::Fuzz {
            cases: opt_u64(params, "cases", 64)?,
            seed: opt_u64(params, "seed", 2006)?,
            laws: match params.get("laws") {
                None | Some(Value::Null) => None,
                Some(v) => Some(
                    v.as_arr()
                        .ok_or_else(|| malformed("`laws` must be an array"))?
                        .iter()
                        .map(|l| {
                            l.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| malformed("`laws` entries must be strings"))
                        })
                        .collect::<Result<_, _>>()?,
                ),
            },
            backend: match params.get("backend") {
                None | Some(Value::Null) => BackendConfig::Can,
                Some(b) => decode_backend(b)?,
            },
        }),
        "fuzz-replay" => Ok(Request::FuzzReplay {
            repro_json: get_str(params, "repro")?.to_string(),
        }),
        other => Err(ApiError::request(format!("unknown request `{other}`"))),
    }?;
    Ok((request, deadline_ms))
}

fn decode_stuffing(s: &str) -> Result<StuffingMode, ApiError> {
    match s {
        "worst-case" => Ok(StuffingMode::WorstCase),
        "none" => Ok(StuffingMode::None),
        other => Err(malformed(&format!("unknown stuffing mode `{other}`"))),
    }
}

fn decode_time(obj: &Value, key: &str) -> Result<Time, ApiError> {
    Ok(Time::from_ns(get_u64(obj, key)?))
}

fn decode_cause(value: &Value) -> Result<DivergenceCause, ApiError> {
    match get_str(value, "code")? {
        "diverged.horizon" => Ok(DivergenceCause::HorizonExceeded {
            horizon: decode_time(value, "horizon_ns")?,
        }),
        "diverged.instance_limit" => Ok(DivergenceCause::InstanceLimit {
            limit: get_u64(value, "limit")?,
        }),
        "diverged.iteration_budget" => Ok(DivergenceCause::IterationBudget {
            budget: get_u64(value, "budget")?,
        }),
        other => Err(malformed(&format!("unknown divergence code `{other}`"))),
    }
}

fn decode_message_report(value: &Value) -> Result<MessageReport, ApiError> {
    let raw = get_u64(value, "id")?;
    let raw = u32::try_from(raw).map_err(|_| malformed("`id` out of range"))?;
    let id = if get_bool(value, "extended")? {
        CanId::extended(raw)
    } else {
        CanId::standard(raw)
    }
    .map_err(|e| malformed(&e.to_string()))?;
    let outcome = if get_bool(value, "bounded")? {
        ResponseOutcome::Bounded(ResponseBounds::new(
            decode_time(value, "bcrt_ns")?,
            decode_time(value, "wcrt_ns")?,
        ))
    } else {
        let d = get(value, "diagnostic")?;
        ResponseOutcome::Overload(MessageDiagnostic {
            entity: Arc::from(get_str(d, "entity")?),
            priority_level: get_u64(d, "priority_level")? as usize,
            busy_window: decode_time(d, "busy_window_ns")?,
            instances: get_u64(d, "instances")?,
            interference: get(d, "interference")?
                .as_arr()
                .ok_or_else(|| malformed("`interference` must be an array"))?
                .iter()
                .map(|n| {
                    n.as_str()
                        .map(Arc::from)
                        .ok_or_else(|| malformed("`interference` entries must be strings"))
                })
                .collect::<Result<_, _>>()?,
            cause: decode_cause(get(d, "cause")?)?,
        })
    };
    Ok(MessageReport {
        index: get_u64(value, "index")? as usize,
        name: Arc::from(get_str(value, "name")?),
        id,
        c_max: decode_time(value, "c_max_ns")?,
        c_min: decode_time(value, "c_min_ns")?,
        blocking: decode_time(value, "blocking_ns")?,
        deadline: decode_time(value, "deadline_ns")?,
        outcome,
        instances: get_u64(value, "instances")?,
    })
}

/// Decodes a response envelope into an [`AnalyzeReport`],
/// reconstructing the [`BusReport`] bit for bit (so `PartialEq`
/// against a direct evaluator run is meaningful).
///
/// # Errors
///
/// Returns the envelope's own error for `ok:false` documents and
/// [`ErrorCode::RequestInvalid`] for malformed or non-analyze
/// envelopes.
pub fn decode_analyze(text: &str) -> Result<AnalyzeReport, ApiError> {
    let doc = json::parse(text).map_err(|e| malformed(&e.to_string()))?;
    if let Some(err) = decode_error_value(&doc) {
        return Err(err);
    }
    let kind = get_str(&doc, "kind")?;
    if kind != "analyze" {
        return Err(malformed(&format!(
            "expected an analyze envelope, got `{kind}`"
        )));
    }
    let result = get(&doc, "result")?;
    let report = BusReport {
        messages: get(result, "messages")?
            .as_arr()
            .ok_or_else(|| malformed("`messages` must be an array"))?
            .iter()
            .map(decode_message_report)
            .collect::<Result<_, _>>()?,
        error_model: get_str(result, "error_model")?.to_string(),
        stuffing: decode_stuffing(get_str(result, "stuffing")?)?,
        backend: decode_backend(get(result, "backend")?)?,
    };
    Ok(AnalyzeReport {
        scenario: get_str(result, "scenario")?.to_string(),
        report: Arc::new(report),
    })
}

fn decode_error_value(doc: &Value) -> Option<ApiError> {
    if doc.get("ok")?.as_bool()? {
        return None;
    }
    let err = doc.get("error")?;
    let code = ErrorCode::parse(err.get("code")?.as_str()?)?;
    Some(ApiError::new(code, err.get("message")?.as_str()?))
}

/// Decodes an error envelope, if `text` is one.
pub fn decode_error(text: &str) -> Option<ApiError> {
    decode_error_value(&json::parse(text).ok()?)
}

/// Decodes an Audsley response's rows (`None` when infeasible).
///
/// # Errors
///
/// Returns the envelope's own error for `ok:false` documents.
#[allow(clippy::type_complexity)]
pub fn decode_audsley(text: &str) -> Result<Option<Vec<AudsleyRow>>, ApiError> {
    let doc = json::parse(text).map_err(|e| malformed(&e.to_string()))?;
    if let Some(err) = decode_error_value(&doc) {
        return Err(err);
    }
    let result = get(&doc, "result")?;
    if !get_bool(result, "feasible")? {
        return Ok(None);
    }
    Ok(Some(
        get(result, "rows")?
            .as_arr()
            .ok_or_else(|| malformed("`rows` must be an array"))?
            .iter()
            .map(|r| {
                Ok(AudsleyRow {
                    message: get_str(r, "message")?.to_string(),
                    new_id: get_str(r, "new_id")?.to_string(),
                })
            })
            .collect::<Result<_, ApiError>>()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handler::Handler;
    use carta_engine::prelude::Parallelism;

    fn no_sessions(_: &str) -> Option<String> {
        None
    }

    #[test]
    fn analyze_roundtrips_bit_identically() {
        let h = Handler::new(Parallelism::sequential());
        let req = Request::Analyze {
            model: Model::case_study(),
            scenario: ScenarioSpec::Worst,
        };
        let resp = h.handle(&req).expect("analyzes");
        let encoded = encode_response(&resp);
        let decoded = decode_analyze(&encoded).expect("decodes");
        match resp {
            Response::Analyze(a) => {
                assert_eq!(decoded.scenario, a.scenario);
                assert_eq!(*decoded.report, *a.report);
            }
            other => panic!("wrong response kind {}", other.kind()),
        }
    }

    #[test]
    fn degraded_analyze_roundtrips_with_diagnostics() {
        let h = Handler::new(Parallelism::sequential());
        let mut csv = match h.handle(&Request::Generate { seed: 7 }).expect("generates") {
            Response::Matrix { csv } => csv,
            other => panic!("wrong response kind {}", other.kind()),
        };
        csv.push_str("flood,0x7fa,0,8,50,,,EMS,TCU\n");
        let resp = h
            .handle(&Request::Analyze {
                model: Model::from_csv(csv),
                scenario: ScenarioSpec::Worst,
            })
            .expect("analyzes");
        let decoded = decode_analyze(&encode_response(&resp)).expect("decodes");
        match resp {
            Response::Analyze(a) => {
                assert!(decoded.report.is_degraded());
                assert_eq!(*decoded.report, *a.report);
            }
            other => panic!("wrong response kind {}", other.kind()),
        }
    }

    #[test]
    fn request_roundtrips_through_the_wire() {
        let requests = [
            Request::Generate { seed: 7 },
            Request::Load {
                model: Model::case_study(),
            },
            Request::Analyze {
                model: Model {
                    source: ModelSource::Csv("#kmatrix,x,500000\n".into()),
                    options: ModelOptions {
                        backend: BackendConfig::can_fd(),
                        jitter_pct: Some(25.0),
                        assume_unknown_pct: None,
                    },
                },
                scenario: ScenarioSpec::SporadicMs(10),
            },
            Request::Sensitivity {
                model: Model::case_study(),
                scenario: ScenarioSpec::Best,
                message: Some("clutch_torque_1".into()),
            },
            Request::Optimize {
                model: Model::case_study(),
                population: 8,
                generations: 2,
                emit_csv: true,
            },
            Request::Simulate {
                model: Model::case_study(),
                millis: 100,
                seed: 42,
                errors_ms: Some(7),
                gantt: true,
            },
            Request::Dimension {
                model: Model::case_study(),
                scenario: ScenarioSpec::Worst,
                rates: vec![250_000, 500_000],
            },
            Request::Diff {
                before: Model::case_study(),
                after: Model::case_study(),
                scenario: ScenarioSpec::Worst,
            },
            Request::ProbAnalyze {
                model: Model::case_study(),
                scenario: ScenarioSpec::SporadicMs(5),
            },
            Request::ProbLoss {
                model: Model {
                    source: ModelSource::CaseStudy { seed: 9 },
                    options: ModelOptions {
                        backend: BackendConfig::can_fd(),
                        jitter_pct: None,
                        assume_unknown_pct: Some(10.0),
                    },
                },
                scenario: ScenarioSpec::Worst,
            },
            Request::Fuzz {
                cases: 2,
                seed: 2006,
                laws: Some(vec!["load-schedulability".into()]),
                backend: BackendConfig::Can,
            },
            Request::FuzzReplay {
                repro_json: "{}".into(),
            },
        ];
        for req in requests {
            let decoded = decode_request(&encode_request(&req), &no_sessions).expect("roundtrips");
            assert_eq!(decoded, req, "wire roundtrip changed the request");
        }
    }

    #[test]
    fn session_sources_resolve_through_the_callback() {
        let text = r#"{"schema":"carta.api.v1","request":"analyze",
            "params":{"model":{"source":{"kind":"session","id":"s1"}}}}"#;
        let resolved = decode_request(&text.replace('\n', ""), &|id: &str| {
            (id == "s1").then(|| "#kmatrix,up,500000\n".to_string())
        })
        .expect("resolves");
        match resolved {
            Request::Analyze { model, scenario } => {
                assert_eq!(scenario, ScenarioSpec::Worst);
                assert_eq!(
                    model.source,
                    ModelSource::Csv("#kmatrix,up,500000\n".into())
                );
            }
            other => panic!("wrong request kind {}", other.kind()),
        }
        let err = decode_request(&text.replace('\n', ""), &no_sessions).expect_err("unknown");
        assert_eq!(err.code, ErrorCode::SessionNotFound);
        assert_eq!(err.to_string(), "unknown session `s1`");
    }

    #[test]
    fn error_envelopes_roundtrip() {
        let err = ApiError::new(ErrorCode::AdmissionShed, "tenant over budget");
        let encoded = encode_error(&err);
        let decoded = decode_error(&encoded).expect("decodes");
        assert_eq!(decoded, err);
        assert!(decode_error(&encode_response(&Response::Matrix { csv: String::new() })).is_none());
    }

    #[test]
    fn malformed_documents_are_request_invalid() {
        let err = decode_request("{", &no_sessions).expect_err("parse error");
        assert_eq!(err.code, ErrorCode::RequestInvalid);
        let err = decode_request(
            r#"{"schema":"carta.api.v2","request":"load"}"#,
            &no_sessions,
        )
        .expect_err("wrong schema");
        assert!(err.to_string().contains("unsupported schema"));
        let err = decode_request(
            r#"{"schema":"carta.api.v1","request":"frobnicate"}"#,
            &no_sessions,
        )
        .expect_err("unknown kind");
        assert!(err.to_string().contains("unknown request `frobnicate`"));
    }
}
