//! End-to-end service tests over a real socket: two tenants, session
//! upload, `carta.api.v1` round-trips, the probabilistic payloads,
//! admission shedding, degraded analyze under pressure, tenant
//! isolation, and the `/v1/metrics` document.
//!
//! Every test spins its own server on an ephemeral port (`:0`) with a
//! 60 s admission window so budget arithmetic is deterministic.

use carta_api::prelude::{ErrorCode, Handler, Model, Request, Response, ScenarioSpec};
use carta_api::wire;
use carta_engine::prelude::Parallelism;
use carta_obs::json::{self, Value};
use carta_server::{Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

fn start(budget: u32) -> ServerHandle {
    start_with(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        window_ms: 60_000,
        budget,
        ..ServerConfig::default()
    })
}

fn start_with(config: ServerConfig) -> ServerHandle {
    Server::bind(config)
        .expect("binds an ephemeral port")
        .spawn()
        .expect("accept loop spawns")
}

/// One request over a fresh connection. Sends `connection: close` so
/// the keep-alive server closes after the response and `read_to_string`
/// terminates; keep-alive itself is exercised by dedicated tests.
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    tenant: Option<&str>,
    body: &str,
) -> (u16, String) {
    let (status, _headers, body) = http_full(addr, method, path, tenant, body);
    (status, body)
}

/// Like [`http`] but also returns the raw header block for tests that
/// assert on response headers (`retry-after`).
fn http_full(
    addr: SocketAddr,
    method: &str,
    path: &str,
    tenant: Option<&str>,
    body: &str,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connects");
    let tenant_header = tenant
        .map(|t| format!("x-carta-tenant: {t}\r\n"))
        .unwrap_or_default();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: carta\r\nconnection: close\r\n{tenant_header}content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("writes the request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("reads to close");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let (headers, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, headers, body)
}

fn generate_csv(seed: u64) -> String {
    match Handler::new(Parallelism::sequential())
        .handle(&Request::Generate { seed })
        .expect("generates")
    {
        Response::Matrix { csv } => csv,
        other => panic!("wrong response kind {}", other.kind()),
    }
}

fn upload(addr: SocketAddr, tenant: &str, csv: &str) -> String {
    let (status, body) = http(
        addr,
        "POST",
        &format!("/v1/tenants/{tenant}/sessions"),
        None,
        csv,
    );
    assert_eq!(status, 201, "{body}");
    let doc = json::parse(&body).expect("valid session envelope");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(wire::SCHEMA)
    );
    assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
    doc.get("result")
        .and_then(|r| r.get("id"))
        .and_then(Value::as_str)
        .expect("session id")
        .to_string()
}

fn analyze_session_body(id: &str) -> String {
    format!(
        r#"{{"schema":"carta.api.v1","request":"analyze","params":{{"model":{{"source":{{"kind":"session","id":"{id}"}}}},"scenario":"worst"}}}}"#
    )
}

/// The members of `value` named in `keys` (whitespace-separated) are
/// all present.
fn assert_has_keys(value: &Value, keys: &str) {
    for key in keys.split_whitespace() {
        assert!(value.get(key).is_some(), "missing `{key}` in {value:?}");
    }
}

#[test]
fn uploaded_session_analysis_is_bit_identical_to_a_direct_evaluator_run() {
    let server = start(32);
    let addr = server.addr();
    let (status, body) = http(addr, "GET", "/v1/healthz", None, "");
    assert_eq!(status, 200, "{body}");
    let health = json::parse(&body).expect("valid health document");
    assert_eq!(health.get("ok").and_then(Value::as_bool), Some(true));
    let csv = generate_csv(42);
    let id = upload(addr, "oem", &csv);

    let (status, body) = http(
        addr,
        "POST",
        "/v1/requests",
        Some("oem"),
        &analyze_session_body(&id),
    );
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("valid response envelope");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(wire::SCHEMA)
    );
    assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some("analyze"));

    let over_the_wire = wire::decode_analyze(&body).expect("decodes");
    let direct = match Handler::new(Parallelism::sequential())
        .handle(&Request::Analyze {
            model: Model::from_csv(csv),
            scenario: ScenarioSpec::Worst,
        })
        .expect("analyzes directly")
    {
        Response::Analyze(a) => a,
        other => panic!("wrong response kind {}", other.kind()),
    };
    assert_eq!(
        over_the_wire, direct,
        "the server's report must round-trip bit-identically"
    );
    assert!(!over_the_wire.report.is_degraded());
    // The derived verdicts are on the wire too, for clients that do not
    // rebuild the report.
    let result = doc.get("result").expect("result");
    assert_eq!(result.get("degraded").and_then(Value::as_bool), Some(false));
    assert_eq!(
        result.get("schedulable").and_then(Value::as_bool),
        Some(direct.report.schedulable())
    );
    server.stop();
}

/// Sends `request` on `session` for the "oem" tenant and returns the
/// `result` of its 200 envelope.
fn session_result(addr: SocketAddr, request: &str, session: &str) -> Value {
    let body = format!(
        r#"{{"schema":"carta.api.v1","request":"{request}","params":{{"model":{{"source":{{"kind":"session","id":"{session}"}}}},"scenario":"worst"}}}}"#
    );
    let (status, body) = http(addr, "POST", "/v1/requests", Some("oem"), &body);
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("valid response envelope");
    assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(doc.get("kind").and_then(Value::as_str), Some(request));
    doc.get("result").expect("result").clone()
}

/// `certain ≤ expected ≤ possible` missed messages, the expectation
/// within float tolerance.
fn assert_missed_bracket(v: &Value) {
    let num = |key: &str| v.get(key).and_then(Value::as_f64).expect(key);
    let (certain, expected, possible) = (
        num("certain_missed"),
        num("expected_missed"),
        num("possible_missed"),
    );
    assert!(certain <= possible, "{v:?}");
    assert!(
        certain - 1e-6 <= expected && expected <= possible + 1e-6,
        "{v:?}"
    );
}

#[test]
fn prob_payloads_carry_ordered_summaries_and_never_the_raw_pmf() {
    let server = start(32);
    let addr = server.addr();
    let id = upload(addr, "oem", &generate_csv(42));

    let res = session_result(addr, "prob-analyze", &id);
    assert_has_keys(&res, "scenario quantum_ns expected_missed certain_missed");
    assert_has_keys(&res, "possible_missed error_model stuffing backend");
    assert_missed_bracket(&res);
    let messages = res.get("messages").and_then(Value::as_arr).expect("array");
    assert_eq!(messages.len(), 64);
    let mut dists = 0;
    for m in messages {
        assert_has_keys(m, "name id deadline_ns miss_probability");
        let p = m.get("miss_probability").and_then(Value::as_f64);
        assert!(p.is_some_and(|p| (0.0..=1.0).contains(&p)), "{m:?}");
        let Some(d) = m.get("dist") else {
            assert_has_keys(m, "diagnostic");
            continue;
        };
        dists += 1;
        assert_has_keys(d, "bcrt_ns wcrt_ns p50_ns p95_ns p99_ns");
        assert_has_keys(d, "support_min_ns support_max_ns bins total_mass");
        assert!(d.get("pmf").is_none(), "the raw PMF stays off the wire");
        let quantiles: Vec<u64> = ["bcrt_ns", "p50_ns", "p95_ns", "p99_ns"]
            .iter()
            .map(|key| d.get(key).and_then(Value::as_u64).expect(key))
            .collect();
        assert!(quantiles.windows(2).all(|w| w[0] <= w[1]), "{d:?}");
        let mass = d.get("total_mass").and_then(Value::as_f64).expect("mass");
        assert!((mass - 1.0).abs() < 1e-6, "{d:?}");
    }
    assert!(dists > 0, "no bounded message to check");

    let res = session_result(addr, "prob-loss", &id);
    let points = res.get("points").and_then(Value::as_arr).expect("array");
    assert_eq!(points.len(), 13);
    for p in points {
        assert_has_keys(p, "jitter_ratio expected_missed certain_missed");
        assert_has_keys(p, "possible_missed total failed");
        assert_missed_bracket(p);
        let count = |key: &str| p.get(key).and_then(Value::as_u64).expect(key);
        assert!(count("possible_missed") <= count("total"), "{p:?}");
    }
    server.stop();
}

#[test]
fn flooding_tenant_degrades_and_sheds_while_the_other_tenant_is_untouched() {
    // Budget 2: the third and later requests of a window are pressure.
    let server = start(2);
    let addr = server.addr();
    // A second server in the same process that never sees a request:
    // its metrics must stay its own.
    let idle = start(2);

    // The "supplier" tenant uploads a flooded matrix: the appended row
    // is the same unschedulable lowest-priority probe
    // `carta_testkit::chaos::flooded` injects (id 0x7FA, 8 bytes every
    // 50 time units — several times the bus capacity).
    let mut flooded_csv = generate_csv(7);
    flooded_csv.push_str("flood,0x7fa,0,8,50,,,EMS,TCU\n");
    let flooded_id = upload(addr, "supplier", &flooded_csv);

    // Request 1 (within budget): a full analysis — degraded because
    // the *model* is overloaded, with the flood diagnosed.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/requests",
        Some("supplier"),
        &analyze_session_body(&flooded_id),
    );
    assert_eq!(
        status, 200,
        "an overloaded model is a report, not an error: {body}"
    );
    let report = wire::decode_analyze(&body).expect("decodes");
    assert!(report.report.is_degraded());
    assert!(
        report.report.diagnostics().count() >= 1,
        "the flood carries a diagnostic"
    );
    assert!(
        body.contains("\"diagnostic\""),
        "diagnostics are serialized: {body}"
    );

    // Request 2 burns the rest of the budget.
    let (status, _) = http(
        addr,
        "POST",
        "/v1/requests",
        Some("supplier"),
        &analyze_session_body(&flooded_id),
    );
    assert_eq!(status, 200);

    // Request 3 is over budget and heavy: shed with `admission.shed`.
    let loss_body = format!(
        r#"{{"schema":"carta.api.v1","request":"loss","params":{{"model":{{"source":{{"kind":"session","id":"{flooded_id}"}}}},"scenario":"worst"}}}}"#
    );
    let (status, headers, body) =
        http_full(addr, "POST", "/v1/requests", Some("supplier"), &loss_body);
    assert_eq!(status, 429, "{body}");
    let err = wire::decode_error(&body).expect("error envelope");
    assert_eq!(err.code, ErrorCode::AdmissionShed);
    assert!(err.message.contains("admission budget"), "{}", err.message);
    // The shed response tells the client when the window resets.
    let retry = headers
        .lines()
        .find_map(|l| l.strip_prefix("retry-after: "))
        .expect("retry-after header on 429");
    let seconds: u64 = retry.trim().parse().expect("whole seconds");
    assert!((1..=60).contains(&seconds), "retry-after {seconds}s");

    // Request 4 is over budget but `analyze`: an immediate partial
    // report under a strangled iteration budget — DEGRADED, not 429.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/requests",
        Some("supplier"),
        &analyze_session_body(&flooded_id),
    );
    assert_eq!(
        status, 200,
        "pressure analyze degrades instead of shedding: {body}"
    );
    let partial = wire::decode_analyze(&body).expect("decodes");
    assert!(partial.report.is_degraded());

    // The "oem" tenant has its own window, evaluator and sessions: a
    // clean matrix analyzes fully and matches a direct run bit for
    // bit, flood or no flood next door.
    let clean_csv = generate_csv(42);
    let clean_id = upload(addr, "oem", &clean_csv);
    let (status, body) = http(
        addr,
        "POST",
        "/v1/requests",
        Some("oem"),
        &analyze_session_body(&clean_id),
    );
    assert_eq!(status, 200, "{body}");
    let oem_report = wire::decode_analyze(&body).expect("decodes");
    assert!(!oem_report.report.is_degraded());
    let direct = match Handler::new(Parallelism::sequential())
        .handle(&Request::Analyze {
            model: Model::from_csv(clean_csv),
            scenario: ScenarioSpec::Worst,
        })
        .expect("analyzes directly")
    {
        Response::Analyze(a) => a,
        other => panic!("wrong response kind {}", other.kind()),
    };
    assert_eq!(oem_report, direct);

    // The process survived all of it: metrics and health still serve,
    // and the counters saw exactly the traffic above — the three
    // served analyses, the shed loss, the degraded analyze and the two
    // uploads.
    let (body, metric) = metrics_of(addr);
    assert_eq!(metric("server.requests.accepted"), 3.0, "{body}");
    assert_eq!(metric("server.requests.shed"), 1.0, "{body}");
    assert_eq!(metric("server.requests.degraded"), 1.0, "{body}");
    assert_eq!(metric("server.sessions.uploaded"), 2.0, "{body}");
    assert!(metric("engine.cache.misses") >= 1.0, "{body}");
    let (status, _) = http(addr, "GET", "/v1/healthz", None, "");
    assert_eq!(status, 200);
    let (body, metric) = metrics_of(idle.addr());
    assert_eq!(metric("server.requests.accepted"), 0.0, "{body}");
    idle.stop();
    server.stop();
}

/// `GET /v1/metrics`: the body, and a lookup of its counters (0 when
/// absent).
fn metrics_of(addr: SocketAddr) -> (String, impl Fn(&str) -> f64) {
    let (status, body) = http(addr, "GET", "/v1/metrics", None, "");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("valid metrics document");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("carta.metrics.v1")
    );
    assert_has_keys(&doc, "command wall_ms metrics derived");
    let metric = move |name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    (body, metric)
}

#[test]
fn the_error_surface_uses_stable_codes_and_statuses() {
    let server = start(32);
    let addr = server.addr();

    // Unknown session → 404 session.not_found.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/requests",
        Some("oem"),
        &analyze_session_body("s99"),
    );
    assert_eq!(status, 404, "{body}");
    let err = wire::decode_error(&body).expect("error envelope");
    assert_eq!(err.code, ErrorCode::SessionNotFound);
    assert!(
        err.message.contains("unknown session `s99`"),
        "{}",
        err.message
    );

    // Sessions are tenant-scoped: another tenant's id does not leak.
    let id = upload(addr, "oem", &generate_csv(42));
    let (status, _) = http(
        addr,
        "POST",
        "/v1/requests",
        Some("supplier"),
        &analyze_session_body(&id),
    );
    assert_eq!(status, 404);

    // Malformed JSON → 400 request.invalid.
    let (status, body) = http(addr, "POST", "/v1/requests", None, "{nope");
    assert_eq!(status, 400);
    let err = wire::decode_error(&body).expect("error envelope");
    assert_eq!(err.code, ErrorCode::RequestInvalid);

    // Wrong schema → 400 with the expected-schema message.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/requests",
        None,
        r#"{"schema":"carta.api.v2","request":"analyze"}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("unsupported schema"), "{body}");
    let err = wire::decode_error(&body).expect("error envelope");
    assert_eq!(err.code, ErrorCode::RequestInvalid);

    // Junk CSV upload → 422 model.invalid, and nothing is stored.
    let (status, body) = http(
        addr,
        "POST",
        "/v1/tenants/oem/sessions",
        None,
        "not,a,kmatrix",
    );
    assert_eq!(status, 422, "{body}");
    let err = wire::decode_error(&body).expect("error envelope");
    assert_eq!(err.code, ErrorCode::ModelInvalid);

    // Bad tenant names and unknown routes.
    let (status, _) = http(addr, "POST", "/v1/tenants/a%2Fb/sessions", None, "x,y");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "GET", "/v2/everything", None, "");
    assert_eq!(status, 404);
    server.stop();
}

/// Reads one HTTP response off a persistent connection: status, the
/// raw header block, and a body of exactly `content-length` bytes.
fn read_response<R: std::io::BufRead>(reader: &mut R) -> (u16, String, String) {
    let mut head = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("reads header line");
        assert!(n > 0, "connection closed mid-response");
        if line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
    }
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length header")
        .trim()
        .parse()
        .expect("numeric length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("reads body");
    (status, head, String::from_utf8(body).expect("utf-8 body"))
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = start(32);
    let addr = server.addr();
    let stream = TcpStream::connect(addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = std::io::BufReader::new(stream);
    for _ in 0..3 {
        write!(writer, "GET /v1/healthz HTTP/1.1\r\nhost: carta\r\n\r\n").expect("writes");
        let (status, head, body) = read_response(&mut reader);
        assert_eq!(status, 200, "{body}");
        assert!(head.contains("connection: keep-alive"), "{head}");
    }
    // Pipelined requests (both written before either response is
    // read) are answered in order on the same connection.
    write!(
        writer,
        "GET /v1/healthz HTTP/1.1\r\nhost: carta\r\n\r\nGET /v1/metrics HTTP/1.1\r\nhost: carta\r\n\r\n"
    )
    .expect("writes pipelined");
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("healthz"), "{body}");
    let (status, _, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("carta.metrics.v1"), "{body}");
    // An explicit `connection: close` is honored.
    write!(
        writer,
        "GET /v1/healthz HTTP/1.1\r\nhost: carta\r\nconnection: close\r\n\r\n"
    )
    .expect("writes");
    let (status, head, _) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(head.contains("connection: close"), "{head}");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut reader, &mut rest).expect("EOF after close");
    assert!(rest.is_empty(), "nothing after the final response");
    server.stop();
}

#[test]
fn bearer_auth_is_enforced_on_the_wire() {
    let server = start_with(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        window_ms: 60_000,
        budget: 32,
        tokens: vec![("sekrit".into(), "oem".into())],
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let body = r#"{"schema":"carta.api.v1","request":"generate","params":{"seed":1}}"#;

    // No credentials: 401 auth.required.
    let (status, raw) = http(addr, "POST", "/v1/requests", None, body);
    assert_eq!(status, 401, "{raw}");
    let err = wire::decode_error(&raw).expect("error envelope");
    assert_eq!(err.code, ErrorCode::Unauthenticated);
    assert_eq!(err.code.as_str(), "auth.required");

    // Valid bearer token: served as the token's tenant.
    let mut stream = TcpStream::connect(addr).expect("connects");
    write!(
        stream,
        "POST /v1/requests HTTP/1.1\r\nhost: carta\r\nconnection: close\r\nauthorization: Bearer sekrit\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("reads");
    assert!(raw.starts_with("HTTP/1.1 200 "), "{raw}");

    // Valid token claiming another tenant: 403 auth.forbidden.
    let mut stream = TcpStream::connect(addr).expect("connects");
    write!(
        stream,
        "POST /v1/requests HTTP/1.1\r\nhost: carta\r\nconnection: close\r\nauthorization: Bearer sekrit\r\nx-carta-tenant: rival\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("reads");
    assert!(raw.starts_with("HTTP/1.1 403 "), "{raw}");
    assert!(raw.contains("auth.forbidden"), "{raw}");
    server.stop();
}

#[test]
fn a_zero_deadline_returns_504_with_the_stable_code() {
    let server = start(32);
    let addr = server.addr();
    let body = wire::encode_request_with_deadline(
        &Request::Analyze {
            model: Model::case_study(),
            scenario: ScenarioSpec::Worst,
        },
        Some(0),
    );
    let (status, raw) = http(addr, "POST", "/v1/requests", Some("oem"), &body);
    assert_eq!(status, 504, "{raw}");
    let err = wire::decode_error(&raw).expect("error envelope");
    assert_eq!(err.code, ErrorCode::DeadlineExceeded);
    assert_eq!(err.code.as_str(), "request.deadline_exceeded");

    // A generous deadline changes nothing about the result.
    let relaxed = wire::encode_request_with_deadline(
        &Request::Analyze {
            model: Model::case_study(),
            scenario: ScenarioSpec::Worst,
        },
        Some(60_000),
    );
    let (status, with_deadline) = http(addr, "POST", "/v1/requests", Some("oem"), &relaxed);
    assert_eq!(status, 200, "{with_deadline}");
    let plain = wire::encode_request(&Request::Analyze {
        model: Model::case_study(),
        scenario: ScenarioSpec::Worst,
    });
    let (status, without_deadline) = http(addr, "POST", "/v1/requests", Some("oem"), &plain);
    assert_eq!(status, 200);
    assert_eq!(
        with_deadline, without_deadline,
        "an unexpired deadline must not perturb the report"
    );
    server.stop();
}

#[test]
fn graceful_drain_rejects_new_requests_with_503_and_stops_cleanly() {
    let server = start_with(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        window_ms: 60_000,
        budget: 32,
        idle_ms: 400,
        drain_ms: 2000,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    // A keep-alive connection opened before the drain.
    let stream = TcpStream::connect(addr).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = std::io::BufReader::new(stream);
    write!(writer, "GET /v1/healthz HTTP/1.1\r\nhost: carta\r\n\r\n").expect("writes");
    let (status, _, _) = read_response(&mut reader);
    assert_eq!(status, 200);

    let stopper = std::thread::spawn(move || server.stop());
    // Give the accept loop a few poll intervals to flip to draining.
    std::thread::sleep(std::time::Duration::from_millis(200));
    write!(writer, "GET /v1/healthz HTTP/1.1\r\nhost: carta\r\n\r\n").expect("writes");
    let (status, head, body) = read_response(&mut reader);
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("server.unavailable"), "{body}");
    assert!(head.contains("connection: close"), "{head}");
    stopper.join().expect("drain completes");
}

#[test]
fn oversized_bodies_are_refused_before_being_read() {
    let server = start(32);
    let addr = server.addr();
    let mut stream = TcpStream::connect(addr).expect("connects");
    // Claim a body far over the limit and send none of it: the server
    // must answer 413 from the header alone.
    write!(
        stream,
        "POST /v1/requests HTTP/1.1\r\nhost: carta\r\ncontent-length: 999999999\r\n\r\n"
    )
    .expect("writes");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("reads");
    assert!(raw.starts_with("HTTP/1.1 413 "), "{raw}");
    assert!(raw.contains("quota.exceeded"), "{raw}");
    server.stop();
}
