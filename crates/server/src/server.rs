//! The HTTP front door: routing, admission handling, auth, the
//! keep-alive worker pool, and the graceful-drain lifecycle.
//!
//! Three routes:
//!
//! * `POST /v1/tenants/<tenant>/sessions` — upload a K-Matrix CSV,
//!   get a session id back (fsync'd to the state log first when
//!   `CARTA_SERVER_STATE_DIR` is set),
//! * `POST /v1/requests` — one `carta.api.v1` request envelope
//!   (tenant from the bearer token when auth is configured, else the
//!   `x-carta-tenant` header, default `public`); an optional
//!   top-level `deadline_ms` bounds the evaluation cooperatively,
//! * `GET /v1/metrics` — the `carta.metrics.v1` document of this
//!   server's own registry since bind: the `server.*` counters (state
//!   log replay included) and the tenant evaluators' `engine.*`,
//!   `rta.*`, `sweep.*` and `phase.*` numbers. Another server in the
//!   same process never shows up in it.
//!
//! Failure policy: an analysis outcome is **never** a 500. Divergence
//! comes back as a degraded 200 report, model and request problems as
//! their `carta.api.v1` error codes, and even a panicking worker is
//! caught (`Evaluator::evaluate_batch` already contains analysis
//! panics; the route layer adds a second `catch_unwind` so the
//! process survives anything else too).
//!
//! Lifecycle: `stop()` (or SIGTERM via [`request_shutdown`]) starts a
//! drain — the listener stops accepting, requests that arrive on
//! already-open connections get `503 server.unavailable`, in-flight
//! requests get up to `drain_ms` to finish, stragglers are cancelled
//! cooperatively through the shared [`CancelToken`], and the process
//! exits 0. A client-supplied `deadline_ms` rides the same token as a
//! child deadline, so "this request ran out of time" (`504
//! request.deadline_exceeded`) and "the server is going away" (`503
//! server.unavailable`) stay distinct on the wire.

use crate::config::ServerConfig;
use crate::http::{self, HttpError, HttpRequest};
use crate::state::{SessionRecord, StateLog};
use crate::tenant::{Admission, TenantPool};
use carta_api::handler::{load_matrix, load_network};
use carta_api::prelude::{AnalyzeReport, ApiError, ErrorCode, Handler, Model, Request, Response};
use carta_api::wire;
use carta_can::rta::{analyze_bus, AnalysisConfig};
use carta_engine::prelude::CancelToken;
use carta_obs::json::ObjectBuilder;
use carta_obs::metrics::MetricsRegistry;
use carta_obs::report::{metrics_json, Derived};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often the accept loop wakes to poll the shutdown flag; also
/// the granularity of the drain wait.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Process-global shutdown request, set from the SIGTERM/SIGINT
/// handler in the binary. A signal handler may only do
/// async-signal-safe work; a single atomic store qualifies, so this is
/// the entire cross-thread surface of the signal path.
static GLOBAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Requests a graceful drain of every server in this process. Safe to
/// call from a signal handler.
pub fn request_shutdown() {
    GLOBAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

/// One response, ready to be written: status, JSON body, and any
/// extra headers (`retry-after` on shed requests).
#[derive(Debug)]
struct Reply {
    status: u16,
    body: String,
    headers: Vec<(String, String)>,
}

impl Reply {
    fn new(status: u16, body: String) -> Reply {
        Reply {
            status,
            body,
            headers: Vec::new(),
        }
    }
}

/// State shared by every connection worker.
#[derive(Debug)]
struct Shared {
    config: ServerConfig,
    pool: TenantPool,
    started: Instant,
    /// Everything `/v1/metrics` reports; the tenant evaluators record
    /// into it too.
    metrics: Arc<MetricsRegistry>,
    shutdown: AtomicBool,
    /// Set once the drain begins: stop serving *new* requests.
    draining: AtomicBool,
    /// Requests currently between dispatch entry and response write.
    inflight: AtomicU64,
    /// Root of every per-request cancellation token; `cancel()`ed when
    /// the drain budget runs out.
    drain: CancelToken,
    /// The fsync'd session log, when persistence is configured.
    state: Option<Mutex<StateLog>>,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || GLOBAL_SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// A bound (not yet serving) server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listen socket, creates the server's metrics registry
    /// (what `/v1/metrics` reports), and — when `state_dir` is
    /// configured — replays the session log so every previously acked
    /// upload resolves again, counting the replay in that registry.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure and state-log I/O errors (a server
    /// that cannot honor its durability contract must not come up).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let metrics = Arc::new(MetricsRegistry::new());
        let pool = TenantPool::new(config.clone(), Arc::clone(&metrics));
        let state = match &config.state_dir {
            None => None,
            Some(dir) => {
                let (log, records, stats) = StateLog::open(std::path::Path::new(dir))?;
                for record in records {
                    pool.restore_session(&record.tenant, &record.id, record.csv);
                }
                metrics.counter("server.state.replayed").add(stats.replayed);
                metrics
                    .counter("server.state.truncated_bytes")
                    .add(stats.truncated_bytes);
                Some(Mutex::new(log))
            }
        };
        let shared = Arc::new(Shared {
            pool,
            config,
            started: Instant::now(),
            metrics,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            drain: CancelToken::new(),
            state,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (the OS-chosen port when the config asked
    /// for `:0`).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until [`ServerHandle::stop`] or [`request_shutdown`],
    /// then drains: in-flight requests get up to `drain_ms` to finish
    /// before the shared token cancels them cooperatively. Returns
    /// `Ok(())` on a completed drain either way — a graceful stop is
    /// exit 0, never an error.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures other than shutdown.
    pub fn run(self) -> io::Result<()> {
        let (tx, rx) = channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<JoinHandle<()>> = (0..self.shared.config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&self.shared);
                thread::Builder::new()
                    .name(format!("carta-server-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))
                    .unwrap_or_else(|e| panic!("cannot spawn worker thread: {e}"))
            })
            .collect();
        // Nonblocking accept + poll keeps the loop responsive to the
        // shutdown flag without the old throwaway self-connection.
        self.listener.set_nonblocking(true)?;
        while !self.shared.shutdown_requested() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // Accepted sockets must be blocking regardless of
                    // what they inherit from the listener.
                    let _ = stream.set_nonblocking(false);
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL_INTERVAL),
                // Transient accept errors (e.g. a peer resetting
                // mid-handshake) must not take the service down.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionReset
                            | io::ErrorKind::ConnectionAborted
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(e),
            }
        }
        // Drain: no new requests, bounded wait for in-flight ones,
        // then cooperative cancellation of the stragglers.
        self.shared.draining.store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_millis(self.shared.config.drain_ms);
        while self.shared.inflight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(POLL_INTERVAL);
        }
        let stragglers = self.shared.inflight.load(Ordering::SeqCst);
        if stragglers > 0 {
            self.shared
                .metrics
                .counter("server.drain.cancelled")
                .add(stragglers);
            self.shared.drain.cancel();
        }
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        self.shared.metrics.counter("server.drain.completed").inc();
        Ok(())
    }

    /// Runs the accept loop on a background thread, returning a
    /// handle for the test harness (and a graceful `stop`).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let thread = thread::Builder::new()
            .name("carta-server-accept".into())
            .spawn(move || self.run())?;
        Ok(ServerHandle {
            addr,
            shared,
            thread: Some(thread),
        })
    }
}

/// A running server spawned with [`Server::spawn`].
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl ServerHandle {
    /// Where the server listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins the accept loop, which performs the
    /// full graceful drain before returning.
    pub fn stop(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn worker_loop(shared: &Shared, rx: &Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        let stream = {
            let Ok(guard) = rx.lock() else { return };
            guard.recv()
        };
        match stream {
            Ok(stream) => handle_connection(shared, stream),
            Err(_) => return, // accept loop gone: shutdown
        }
    }
}

/// Serves up to `keepalive_max` requests off one connection. The read
/// timeout doubles as the keep-alive idle timeout: a quiet peer is
/// closed, a peer that stalls *mid-request* gets a deterministic 400
/// (see `http::read_request`).
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(shared.config.idle_ms)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    for served in 0..shared.config.keepalive_max {
        let (reply, keep_alive) = match http::read_request(&mut reader, shared.config.max_body) {
            Ok(req) => {
                if served > 0 {
                    shared.metrics.counter("server.keepalive.reused").inc();
                }
                if shared.draining() {
                    // The drain contract: connections opened before the
                    // drain finish their *current* request; anything
                    // arriving after is told to go elsewhere.
                    (unavailable_reply(), false)
                } else {
                    let reply = dispatch(shared, &req);
                    let keep = !req.wants_close()
                        && served + 1 < shared.config.keepalive_max
                        && !shared.draining();
                    (reply, keep)
                }
            }
            Err(HttpError::Closed | HttpError::Io(_)) => return,
            Err(err @ HttpError::BodyTooLarge { .. }) => (
                Reply::new(
                    413,
                    wire::encode_error(&ApiError::new(ErrorCode::QuotaExceeded, err.to_string())),
                ),
                false,
            ),
            // Hostile or broken framing: answer a well-formed 400,
            // then close — the connection's byte stream can no longer
            // be trusted for another request.
            Err(err @ HttpError::Malformed(_)) => {
                shared.metrics.counter("server.requests.malformed").inc();
                (error_reply(&ApiError::request(err.to_string())), false)
            }
        };
        let headers: Vec<(&str, &str)> = reply
            .headers
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_str()))
            .collect();
        if http::write_response(
            &mut stream,
            reply.status,
            "application/json",
            &reply.body,
            keep_alive,
            &headers,
        )
        .is_err()
        {
            return;
        }
        let _ = stream.flush();
        if !keep_alive {
            return;
        }
    }
}

fn unavailable_reply() -> Reply {
    error_reply(&ApiError::new(
        ErrorCode::Unavailable,
        "server is draining for shutdown; retry against another instance",
    ))
}

/// Routes one request; panics anywhere below become a 500 here, and
/// the worker (and process) live on. The in-flight gauge brackets
/// exactly this scope — it is what the drain waits on.
fn dispatch(shared: &Shared, req: &HttpRequest) -> Reply {
    shared.inflight.fetch_add(1, Ordering::SeqCst);
    let reply = catch_unwind(AssertUnwindSafe(|| route(shared, req))).unwrap_or_else(|_| {
        shared.metrics.counter("server.requests.panicked").inc();
        error_reply(&ApiError::internal(
            "request handling panicked; the server is still up",
        ))
    });
    shared.inflight.fetch_sub(1, Ordering::SeqCst);
    reply
}

fn route(shared: &Shared, req: &HttpRequest) -> Reply {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/requests") => handle_api(shared, req),
        ("GET", "/v1/metrics") => Reply::new(200, metrics_document(shared)),
        ("GET", "/v1/healthz") => Reply::new(
            200,
            ObjectBuilder::new()
                .string("schema", wire::SCHEMA)
                .bool("ok", true)
                .string("kind", "healthz")
                .build(),
        ),
        ("POST", path) => match session_upload_tenant(path) {
            Some(tenant) => handle_upload(shared, tenant, req),
            None => not_found(path),
        },
        (_, path @ ("/v1/requests" | "/v1/metrics" | "/v1/healthz")) => Reply::new(
            405,
            wire::encode_error(&ApiError::request(format!(
                "method `{}` not allowed on `{path}`",
                req.method
            ))),
        ),
        (_, path) => not_found(path),
    }
}

/// `/v1/tenants/<tenant>/sessions` → `<tenant>`.
fn session_upload_tenant(path: &str) -> Option<&str> {
    path.strip_prefix("/v1/tenants/")?.strip_suffix("/sessions")
}

fn not_found(path: &str) -> Reply {
    Reply::new(
        404,
        wire::encode_error(&ApiError::request(format!("unknown route `{path}`"))),
    )
}

fn error_reply(err: &ApiError) -> Reply {
    Reply::new(err.code.http_status(), wire::encode_error(err))
}

/// The tenant a request's bearer token authorizes, when auth is
/// configured.
///
/// # Errors
///
/// `401 auth.required` for a missing/non-bearer/unknown credential.
fn bearer_tenant<'a>(shared: &'a Shared, req: &HttpRequest) -> Result<&'a str, ApiError> {
    let denied = |message: String| {
        shared.metrics.counter("server.auth.denied").inc();
        ApiError::new(ErrorCode::Unauthenticated, message)
    };
    let Some(auth) = req.header("authorization") else {
        return Err(denied(
            "missing credentials; send `Authorization: Bearer <token>`".into(),
        ));
    };
    let Some((scheme, token)) = auth.split_once(' ') else {
        return Err(denied("malformed authorization header".into()));
    };
    if !scheme.eq_ignore_ascii_case("bearer") {
        return Err(denied(format!(
            "unsupported authorization scheme `{scheme}`; use `Bearer`"
        )));
    }
    shared
        .config
        .tenant_for_token(token.trim())
        .ok_or_else(|| denied("unknown bearer token".into()))
}

/// Resolves the acting tenant for an API request. With auth
/// configured the token decides; an `x-carta-tenant` header is then
/// only accepted when it agrees (`403 auth.forbidden` otherwise).
/// Without auth the header is trusted as before.
fn api_tenant(shared: &Shared, req: &HttpRequest) -> Result<String, ApiError> {
    if !shared.config.auth_enabled() {
        return Ok(req.header("x-carta-tenant").unwrap_or("public").to_string());
    }
    let tenant = bearer_tenant(shared, req)?;
    if let Some(claimed) = req.header("x-carta-tenant") {
        if claimed != tenant {
            shared.metrics.counter("server.auth.denied").inc();
            return Err(ApiError::new(
                ErrorCode::Forbidden,
                format!("token is not authorized for tenant `{claimed}`"),
            ));
        }
    }
    Ok(tenant.to_string())
}

fn handle_upload(shared: &Shared, tenant: &str, req: &HttpRequest) -> Reply {
    if shared.config.auth_enabled() {
        match bearer_tenant(shared, req) {
            Err(err) => return error_reply(&err),
            Ok(authorized) if authorized != tenant => {
                shared.metrics.counter("server.auth.denied").inc();
                return error_reply(&ApiError::new(
                    ErrorCode::Forbidden,
                    format!("token is not authorized for tenant `{tenant}`"),
                ));
            }
            Ok(_) => {}
        }
    }
    if let Err(err) = TenantPool::validate_tenant(tenant) {
        return error_reply(&err);
    }
    let csv = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => return error_reply(&ApiError::request("session body is not UTF-8 K-Matrix CSV")),
    };
    // Reject junk at the door so `session` model sources can only
    // name parsable matrices.
    if let Err(err) = load_matrix(&carta_api::prelude::ModelSource::Csv(csv.to_string())) {
        return error_reply(&err);
    }
    let id = shared.pool.put_session(tenant, csv.to_string());
    // Durability before acknowledgement: the 201 must not leave until
    // the record is on stable storage.
    if let Some(state) = &shared.state {
        let record = SessionRecord {
            tenant: tenant.to_string(),
            id: id.clone(),
            csv: csv.to_string(),
        };
        let appended = {
            let mut log = match state.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            log.append(&record)
        };
        if let Err(e) = appended {
            shared.metrics.counter("server.state.append_failed").inc();
            return error_reply(&ApiError::internal(format!(
                "session could not be persisted: {e}; upload not acknowledged"
            )));
        }
        shared.metrics.counter("server.state.appended").inc();
    }
    shared.metrics.counter("server.sessions.uploaded").inc();
    let result = ObjectBuilder::new()
        .string("id", &id)
        .string("tenant", tenant)
        .build();
    let body = ObjectBuilder::new()
        .string("schema", wire::SCHEMA)
        .bool("ok", true)
        .string("kind", "session")
        .raw("result", &result)
        .build();
    Reply::new(201, body)
}

fn handle_api(shared: &Shared, req: &HttpRequest) -> Reply {
    let tenant = match api_tenant(shared, req) {
        Ok(tenant) => tenant,
        Err(err) => return error_reply(&err),
    };
    if let Err(err) = TenantPool::validate_tenant(&tenant) {
        return error_reply(&err);
    }
    let text = match std::str::from_utf8(&req.body) {
        Ok(text) => text,
        Err(_) => return error_reply(&ApiError::request("request body is not UTF-8")),
    };
    let resolve = |id: &str| shared.pool.session(&tenant, id).map(|csv| (*csv).clone());
    let (request, deadline_ms) = match wire::decode_envelope(text, &resolve) {
        Ok(decoded) => decoded,
        Err(err) => return error_reply(&err),
    };
    // Every evaluation runs under a child of the drain token: a
    // client deadline tightens it, a server drain cancels it, and the
    // engine polls it at chunk boundaries either way.
    let cancel = shared
        .drain
        .child_with_deadline(deadline_ms.map(Duration::from_millis));
    let (handler, admission) = shared.pool.checkout(&tenant);
    let handler = handler.scoped_cancel(cancel);
    let reply = match admission {
        Admission::Granted => serve(shared, &handler, &request),
        Admission::Pressure { retry_after_ms } if request.is_heavy() => {
            shared.metrics.counter("server.requests.shed").inc();
            shared.metrics.counter("server.retry_after_hints").inc();
            let mut reply = error_reply(&ApiError::new(
                ErrorCode::AdmissionShed,
                format!(
                    "tenant `{tenant}` is over its admission budget of {} requests per {} ms; \
                     heavy request `{}` shed — retry next window",
                    shared.config.budget,
                    shared.config.window_ms,
                    request.kind()
                ),
            ));
            // `Retry-After` is in whole seconds; round the window
            // remainder up so clients never retry early.
            reply.headers.push((
                "retry-after".into(),
                retry_after_ms.div_ceil(1000).to_string(),
            ));
            reply
        }
        Admission::Pressure { .. } => match &request {
            // `analyze` under pressure still answers, but with a
            // strangled iteration budget: whatever converges keeps its
            // bounds, the rest carries diagnostics, and the report is
            // marked degraded. A flooding tenant gets an honest
            // partial answer, never a 500 and never a free full run.
            Request::Analyze { model, scenario } => {
                shared.metrics.counter("server.requests.degraded").inc();
                match degraded_analyze(model, *scenario, shared.config.degraded_iterations) {
                    Ok(resp) => Reply::new(200, wire::encode_response(&resp)),
                    Err(err) => error_reply(&err),
                }
            }
            _ => serve(shared, &handler, &request),
        },
    };
    remap_cancellation(shared, reply)
}

/// A cancelled evaluation surfaces as `DeadlineExceeded`; when the
/// *drain* (not the client's deadline) tripped the token, the honest
/// answer is `503 server.unavailable` — the request didn't run out of
/// time, the server went away.
fn remap_cancellation(shared: &Shared, reply: Reply) -> Reply {
    if reply.status != ErrorCode::DeadlineExceeded.http_status() {
        return reply;
    }
    let Some(err) = wire::decode_error(&reply.body) else {
        return reply;
    };
    if err.code != ErrorCode::DeadlineExceeded {
        return reply;
    }
    if shared.drain.is_cancelled() {
        return error_reply(&ApiError::new(
            ErrorCode::Unavailable,
            "evaluation cancelled by server drain; retry against another instance",
        ));
    }
    shared
        .metrics
        .counter("server.requests.deadline_exceeded")
        .inc();
    error_reply(&ApiError::new(
        ErrorCode::DeadlineExceeded,
        format!(
            "{} (completed points are unaffected; retry with a larger `deadline_ms`)",
            err.message
        ),
    ))
}

fn serve(shared: &Shared, handler: &Handler, request: &Request) -> Reply {
    shared.metrics.counter("server.requests.accepted").inc();
    match handler.handle(request) {
        Ok(resp) => Reply::new(200, wire::encode_response(&resp)),
        Err(err) => error_reply(&err),
    }
}

/// The admission-pressure `analyze` path: a direct `analyze_bus` run
/// whose per-message fixpoints are capped at `max_iterations`, so the
/// answer is immediate and partial rather than queued or shed.
fn degraded_analyze(
    model: &Model,
    scenario: carta_api::prelude::ScenarioSpec,
    max_iterations: u64,
) -> Result<Response, ApiError> {
    let net = load_network(model)?;
    let scenario = scenario.to_scenario();
    let prepared = scenario.apply(&net);
    let config = AnalysisConfig {
        max_iterations,
        ..scenario.analysis_config()
    };
    let error_model = scenario.errors.model();
    let report = analyze_bus(&prepared, error_model.as_ref(), &config)?;
    Ok(Response::Analyze(AnalyzeReport {
        scenario: scenario.name,
        report: Arc::new(report),
    }))
}

fn metrics_document(shared: &Shared) -> String {
    let wall_s = shared.started.elapsed().as_secs_f64();
    let snapshot = shared.metrics.snapshot();
    let derived = Derived::from_delta(&snapshot, wall_s);
    metrics_json("server", wall_s, &snapshot, &derived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use carta_api::prelude::ScenarioSpec;

    fn shared_with(config: ServerConfig) -> Shared {
        let metrics = Arc::new(MetricsRegistry::new());
        Shared {
            pool: TenantPool::new(config.clone(), Arc::clone(&metrics)),
            config,
            started: Instant::now(),
            metrics,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            inflight: AtomicU64::new(0),
            drain: CancelToken::new(),
            state: None,
        }
    }

    fn shared() -> Shared {
        shared_with(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
    }

    fn post(path: &str, body: &str) -> HttpRequest {
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn with_header(mut req: HttpRequest, name: &str, value: &str) -> HttpRequest {
        req.headers.push((name.into(), value.into()));
        req
    }

    fn generated_csv() -> String {
        match Handler::default()
            .handle(&Request::Generate { seed: 42 })
            .expect("generates")
        {
            Response::Matrix { csv } => csv,
            other => panic!("wrong kind {}", other.kind()),
        }
    }

    #[test]
    fn unknown_routes_are_404_with_api_error_envelopes() {
        let shared = shared();
        let reply = route(&shared, &post("/v2/everything", ""));
        assert_eq!(reply.status, 404);
        let err = wire::decode_error(&reply.body).expect("error envelope");
        assert_eq!(err.code, ErrorCode::RequestInvalid);
        assert!(err.message.contains("unknown route"), "{}", err.message);
    }

    #[test]
    fn wrong_method_is_405() {
        let shared = shared();
        let mut req = post("/v1/metrics", "");
        req.method = "DELETE".into();
        let reply = route(&shared, &req);
        assert_eq!(reply.status, 405);
    }

    #[test]
    fn session_upload_rejects_junk_and_accepts_a_matrix() {
        let shared = shared();
        let reply = route(&shared, &post("/v1/tenants/oem/sessions", "not,a,kmatrix"));
        assert_eq!(reply.status, 422, "{}", reply.body);
        let csv = generated_csv();
        let reply = route(&shared, &post("/v1/tenants/oem/sessions", &csv));
        assert_eq!(reply.status, 201, "{}", reply.body);
        assert!(reply.body.contains("\"id\":\"s1\""), "{}", reply.body);
        assert!(shared.pool.session("oem", "s1").is_some());
    }

    #[test]
    fn degraded_analyze_is_partial_but_never_an_error() {
        let resp = degraded_analyze(&Model::case_study(), ScenarioSpec::Worst, 1)
            .expect("degraded, not an error");
        match resp {
            Response::Analyze(a) => {
                assert!(
                    a.report.is_degraded(),
                    "a 1-iteration budget cannot converge 64 messages"
                );
                assert!(a.report.diagnostics().count() > 0);
            }
            other => panic!("wrong kind {}", other.kind()),
        }
    }

    #[test]
    fn tenant_path_parsing_is_exact() {
        assert_eq!(
            session_upload_tenant("/v1/tenants/oem/sessions"),
            Some("oem")
        );
        assert_eq!(session_upload_tenant("/v1/tenants/oem/other"), None);
        assert_eq!(session_upload_tenant("/v1/tenants//sessions"), Some(""));
        assert!(TenantPool::validate_tenant("").is_err());
    }

    #[test]
    fn auth_gates_api_and_uploads_with_stable_codes() {
        let shared = shared_with(ServerConfig {
            addr: "127.0.0.1:0".into(),
            tokens: vec![("sekrit".into(), "oem".into())],
            ..ServerConfig::default()
        });
        // No credentials: 401 auth.required.
        let reply = route(&shared, &post("/v1/requests", "{}"));
        assert_eq!(reply.status, 401, "{}", reply.body);
        let err = wire::decode_error(&reply.body).expect("envelope");
        assert_eq!(err.code, ErrorCode::Unauthenticated);
        // Wrong token: still 401.
        let req = with_header(post("/v1/requests", "{}"), "authorization", "Bearer nope");
        assert_eq!(route(&shared, &req).status, 401);
        // Right token but claiming another tenant: 403 auth.forbidden.
        let req = with_header(
            with_header(post("/v1/requests", "{}"), "authorization", "Bearer sekrit"),
            "x-carta-tenant",
            "rival",
        );
        let reply = route(&shared, &req);
        assert_eq!(reply.status, 403, "{}", reply.body);
        assert_eq!(
            wire::decode_error(&reply.body).expect("envelope").code,
            ErrorCode::Forbidden
        );
        // Upload path: token tenant must match the path tenant.
        let csv = generated_csv();
        let req = with_header(
            post("/v1/tenants/rival/sessions", &csv),
            "authorization",
            "bearer sekrit",
        );
        assert_eq!(route(&shared, &req).status, 403);
        let req = with_header(
            post("/v1/tenants/oem/sessions", &csv),
            "authorization",
            "Bearer sekrit",
        );
        assert_eq!(route(&shared, &req).status, 201);
        // Without auth configured the tenant header is trusted as
        // before (compatibility with pre-auth deployments).
        let open = shared_with(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        });
        let req = with_header(post("/v1/requests", "{}"), "x-carta-tenant", "anyone");
        // Malformed body, but it got past auth: 400, not 401.
        assert_eq!(route(&open, &req).status, 400);
    }

    #[test]
    fn shed_requests_carry_a_retry_after_hint() {
        let shared = shared_with(ServerConfig {
            addr: "127.0.0.1:0".into(),
            budget: 1,
            window_ms: 60_000,
            ..ServerConfig::default()
        });
        let body = wire::encode_request(&Request::Analyze {
            model: Model::case_study(),
            scenario: ScenarioSpec::Worst,
        });
        // First request spends the budget (cheap `load` would too, but
        // analyze is heavy so the second one is shed, not degraded).
        let body_opt = wire::encode_request(&Request::Optimize {
            model: Model::case_study(),
            population: 4,
            generations: 1,
            emit_csv: false,
        });
        let _ = route(&shared, &post("/v1/requests", &body));
        let reply = route(&shared, &post("/v1/requests", &body_opt));
        assert_eq!(reply.status, 429, "{}", reply.body);
        let retry = reply
            .headers
            .iter()
            .find(|(n, _)| n == "retry-after")
            .map(|(_, v)| v.clone())
            .expect("retry-after header");
        let seconds: u64 = retry.parse().expect("whole seconds");
        assert!((1..=60).contains(&seconds), "retry-after {seconds}s");
    }

    #[test]
    fn zero_deadline_maps_to_504_deadline_exceeded() {
        let shared = shared();
        let body = wire::encode_request_with_deadline(
            &Request::Analyze {
                model: Model::case_study(),
                scenario: ScenarioSpec::Worst,
            },
            Some(0),
        );
        let reply = route(&shared, &post("/v1/requests", &body));
        assert_eq!(reply.status, 504, "{}", reply.body);
        let err = wire::decode_error(&reply.body).expect("envelope");
        assert_eq!(err.code, ErrorCode::DeadlineExceeded);
        assert_eq!(err.code.as_str(), "request.deadline_exceeded");
        // Without a deadline the same request succeeds.
        let body = wire::encode_request(&Request::Analyze {
            model: Model::case_study(),
            scenario: ScenarioSpec::Worst,
        });
        let reply = route(&shared, &post("/v1/requests", &body));
        assert_eq!(reply.status, 200, "{}", reply.body);
    }

    #[test]
    fn drain_cancellation_reports_unavailable_not_timeout() {
        let shared = shared();
        shared.drain.cancel();
        let body = wire::encode_request_with_deadline(
            &Request::Analyze {
                model: Model::case_study(),
                scenario: ScenarioSpec::Worst,
            },
            Some(60_000),
        );
        let reply = route(&shared, &post("/v1/requests", &body));
        assert_eq!(reply.status, 503, "{}", reply.body);
        assert_eq!(
            wire::decode_error(&reply.body).expect("envelope").code,
            ErrorCode::Unavailable
        );
    }
}
