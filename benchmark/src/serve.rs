//! `serve_warm` and `serve_cold`: `carta-server` driven over loopback
//! from one client process.
//!
//! The server runs as a child process (this binary re-executed with
//! `--serve`, which calls the server library's bind-and-run entry point)
//! with two workers, jobs = 1, an admission budget no run can exhaust,
//! and a state directory, so uploads are fsync'd before they are acked.
//! The client has two threads, each holding at most one connection.
//!
//! Each run: set up the server five times (spawn → first `healthz`
//! 200, which includes replaying a pre-seeded 256-session state log,
//! then the tenants' uploads and the warm-up) and keep the last one; an
//! open loop of seeded Poisson arrivals; a closed loop; `/v1/metrics`
//! deltas; then an in-process replay of the same requests through
//! `wire::decode_envelope` → `Handler::handle` → `wire::encode_response`
//! that checks every open-loop response (and every eighth closed-loop
//! one) byte for byte. A traced run replays and checks every request,
//! times the replay per call, takes the transport share from the
//! closed-loop requests, and probes load, compile, solve, refinement and
//! the evaluator directly on the open-loop ones.

use crate::client::{one_shot, request_bytes, Conn, Reply};
use crate::inputs::{kmatrix, probe_kernel, warm_up_probe};
use crate::metrics::Outcome;
use crate::rng::Rng;
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::Tracer;
use crate::RunArgs;
use carta_api::handler::load_network;
use carta_api::prelude::{Handler, Model, Request, ScenarioSpec};
use carta_api::wire;
use carta_engine::prelude::{BaseSystem, Evaluator, Parallelism, SystemVariant};
use carta_kmatrix::csv::to_csv;
use carta_obs::json::{self, ObjectBuilder};
use carta_server::{SessionRecord, StateLog};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tenants the workload's requests run as.
const TENANTS: usize = 4;
/// K-Matrices each tenant uploads during set-up.
const SETUP_SESSIONS: usize = 2;
/// Records in the pre-seeded state log the server replays on boot.
const ARCHIVE_SESSIONS: usize = 256;
/// Tenants owning the pre-seeded records.
const ARCHIVE_TENANTS: usize = 8;
/// Open-loop arrival rate in requests per second.
const RATE_PER_S: f64 = 25.0;
/// Share of the measured seconds spent in the open loop; the rest is
/// the closed loop.
const OPEN_SHARE: f64 = 0.5;
/// Client threads, each with at most one connection in flight.
const CLIENTS: usize = 2;
/// The server's default per-tenant evaluator cache quota, mirrored by
/// the in-process replay.
const CACHE_QUOTA: usize = 4096;
/// Sessions a cold request may reference per tenant: the newest ones,
/// well inside the server's default quota of 16 resident sessions.
const RESIDENT_WINDOW: usize = 12;
/// One closed-loop response in this many is checked byte for byte.
const CLOSED_SAMPLE: usize = 8;
/// Set-ups per run; the median is `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Open-loop generator lateness (p99) above which a run is marked
/// invalid: the machine, not the server, set its latencies.
const MAX_LATENESS_MS: f64 = 5.0;
/// How long to wait for a server to come up or an upload to be acked.
const WAIT: Duration = Duration::from_secs(30);

/// The request kinds of the two mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Kind {
    Analyze,
    Sensitivity,
    ProbAnalyze,
    Loss,
    ProbLoss,
    Upload,
}

impl Kind {
    fn wire(self) -> &'static str {
        match self {
            Kind::Analyze => "analyze",
            Kind::Sensitivity => "sensitivity",
            Kind::ProbAnalyze => "prob-analyze",
            Kind::Loss => "loss",
            Kind::ProbLoss => "prob-loss",
            Kind::Upload => "upload",
        }
    }
}

/// `serve_warm`: 50 % analyze, 20 % sensitivity, 15 % prob-analyze,
/// 15 % loss.
const WARM_MIX: [(Kind, u32); 4] = [
    (Kind::Analyze, 50),
    (Kind::Sensitivity, 20),
    (Kind::ProbAnalyze, 15),
    (Kind::Loss, 15),
];

/// `serve_cold`: 35 % analyze, 15 % prob-analyze, 15 % loss, 10 %
/// prob-loss, 15 % sensitivity, 10 % uploads.
const COLD_MIX: [(Kind, u32); 6] = [
    (Kind::Analyze, 35),
    (Kind::ProbAnalyze, 15),
    (Kind::Loss, 15),
    (Kind::ProbLoss, 10),
    (Kind::Sensitivity, 15),
    (Kind::Upload, 10),
];

/// Which uploaded session a request analyzes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Target {
    /// Set-up upload number `.1` of tenant `.0`.
    Setup(usize, usize),
    /// The session created by the upload with this op index.
    Upload(usize),
}

/// Model options and scenario of one request.
#[derive(Debug, Clone, PartialEq)]
struct Opts {
    backend: &'static str,
    jitter_pct: Option<f64>,
    assume_unknown_pct: Option<f64>,
    scenario: String,
}

impl Opts {
    fn plain() -> Opts {
        Opts {
            backend: "can",
            jitter_pct: None,
            assume_unknown_pct: None,
            scenario: "worst".into(),
        }
    }
}

/// One generated operation.
#[derive(Debug, Clone)]
struct Op {
    index: usize,
    tenant: usize,
    kind: Kind,
    target: Target,
    opts: Opts,
    csv: Option<Arc<String>>,
}

fn tenant_name(tenant: usize) -> String {
    format!("tenant-{tenant}")
}

fn opt_num(v: Option<f64>) -> String {
    v.map_or_else(|| "null".into(), json::number)
}

/// The `carta.api.v1` envelope of a request on session `id`.
fn request_body(kind: Kind, id: &str, opts: &Opts) -> String {
    let source = ObjectBuilder::new()
        .string("kind", "session")
        .string("id", id)
        .build();
    let model = ObjectBuilder::new()
        .raw("source", &source)
        .string("backend", opts.backend)
        .raw("jitter_pct", &opt_num(opts.jitter_pct))
        .raw("assume_unknown_pct", &opt_num(opts.assume_unknown_pct))
        .build();
    let params = ObjectBuilder::new()
        .raw("model", &model)
        .string("scenario", &opts.scenario);
    let params = if kind == Kind::Sensitivity {
        params.raw("message", "null")
    } else {
        params
    };
    ObjectBuilder::new()
        .string("schema", wire::SCHEMA)
        .string("request", kind.wire())
        .raw("params", &params.build())
        .build()
}

/// The seeded operation stream. Op indices continue from the open loop
/// into the closed loop, so both phases draw from one sequence.
struct Generator {
    cold: bool,
    rng: Rng,
    next: usize,
    /// Per tenant, the sessions a request may reference, newest last.
    resident: Vec<VecDeque<Target>>,
    /// Model/scenario combinations already requested (cold only):
    /// every cold request is a variant the server has never seen.
    seen: HashSet<String>,
}

impl Generator {
    fn new(seed: u64, cold: bool) -> Generator {
        Generator {
            cold,
            rng: Rng::new(seed, if cold { 0xC01D } else { 0x3A93 }),
            next: 0,
            resident: (0..TENANTS)
                .map(|t| (0..SETUP_SESSIONS).map(|s| Target::Setup(t, s)).collect())
                .collect(),
            seen: HashSet::new(),
        }
    }

    fn next_op(&mut self) -> Op {
        let index = self.next;
        self.next += 1;
        let mix: &[(Kind, u32)] = if self.cold { &COLD_MIX } else { &WARM_MIX };
        let weights: Vec<u32> = mix.iter().map(|(_, w)| *w).collect();
        let kind = mix[self.rng.weighted(&weights)].0;
        let tenant = self.rng.below(TENANTS);
        if kind == Kind::Upload {
            let csv = to_csv(&kmatrix(self.rng.next_u64()));
            let sessions = &mut self.resident[tenant];
            sessions.push_back(Target::Upload(index));
            while sessions.len() > RESIDENT_WINDOW {
                sessions.pop_front();
            }
            return Op {
                index,
                tenant,
                kind,
                target: Target::Upload(index),
                opts: Opts::plain(),
                csv: Some(Arc::new(csv)),
            };
        }
        let sessions = &self.resident[tenant];
        let target = sessions[self.rng.below(sessions.len())];
        let opts = if self.cold {
            loop {
                let opts = self.novel_opts();
                if self.seen.insert(format!("{target:?}|{opts:?}")) {
                    break opts;
                }
            }
        } else {
            Opts::plain()
        };
        Op {
            index,
            tenant,
            kind,
            target,
            opts,
            csv: None,
        }
    }

    /// Random what-if options: one jitter override in [0.5, 60) % at
    /// 0.001 % resolution, a scenario and a backend.
    fn novel_opts(&mut self) -> Opts {
        let pct = 0.5 + (self.rng.unit() * 59_500.0).floor() / 1000.0;
        let (jitter_pct, assume_unknown_pct) = if self.rng.below(2) == 0 {
            (Some(pct), None)
        } else {
            (None, Some(pct))
        };
        let scenario = match self.rng.below(3) {
            0 => "worst".to_string(),
            1 => "best".to_string(),
            _ => format!("sporadic:{}", 2 + self.rng.below(19)),
        };
        let backend = if self.rng.below(2) == 0 {
            "can"
        } else {
            "can-fd"
        };
        Opts {
            backend,
            jitter_pct,
            assume_unknown_pct,
            scenario,
        }
    }
}

/// Entry point of the `--serve` child: the server library's
/// bind-and-run, configured from `CARTA_SERVER_*`. The first stdout
/// line is the bound address.
pub fn serve_child() -> ExitCode {
    let config = carta_server::ServerConfig::from_env();
    let server = match carta_server::Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("error: no local address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running server child; killed and reaped on drop.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn spawn(state_dir: &Path) -> io::Result<ServerProc> {
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.arg("--serve");
        // Only the knobs set here configure the server.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("CARTA_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd
            .env("CARTA_SERVER_ADDR", "127.0.0.1:0")
            .env("CARTA_SERVER_WORKERS", CLIENTS.to_string())
            .env("CARTA_SERVER_JOBS", "1")
            .env("CARTA_SERVER_BUDGET", "1000000000")
            .env("CARTA_SERVER_STATE_DIR", state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        let proc = ServerProc {
            child,
            addr: line.trim().trim_start_matches("listening on ").to_string(),
        };
        if proc.addr.is_empty() {
            return Err(io::Error::other("server child exited before listening"));
        }
        Ok(proc)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Session ids: set-up uploads (known before measuring) and measured
/// uploads (published when their 201 arrives).
struct Ids {
    setup: Vec<Vec<String>>,
    uploads: Mutex<HashMap<usize, Option<String>>>,
    published: Condvar,
}

impl Ids {
    /// The session id `target` names; waits for an upload still in
    /// flight. `None` when the upload failed or never finished.
    fn resolve(&self, target: Target) -> Option<String> {
        match target {
            Target::Setup(t, s) => Some(self.setup[t][s].clone()),
            Target::Upload(index) => {
                let uploads = self.uploads.lock().expect("upload ids lock");
                let (uploads, _) = self
                    .published
                    .wait_timeout_while(uploads, WAIT, |u| !u.contains_key(&index))
                    .expect("upload ids lock");
                uploads.get(&index).cloned().flatten()
            }
        }
    }

    fn publish(&self, index: usize, id: Option<String>) {
        self.uploads
            .lock()
            .expect("upload ids lock")
            .insert(index, id);
        self.published.notify_all();
    }
}

/// One measured operation.
struct Record {
    op: Op,
    closed: bool,
    /// HTTP status; 0 when the request could not be sent or answered.
    status: u16,
    /// The request body sent (`carta.api.v1` envelope; empty for uploads).
    request: String,
    reply: String,
    /// Scheduled send (open loop) or pick-up (closed loop) to last byte.
    latency_s: f64,
    /// Send to last byte.
    service_s: f64,
    /// How late the generator sent, beyond the schedule and the
    /// connection becoming free.
    lateness_s: f64,
}

/// What the client threads draw operations from during one phase.
struct Source {
    gen: Generator,
    /// Open loop: the scheduled send times; closed loop: empty.
    schedule: Vec<Instant>,
    handed: usize,
    /// Closed loop: stop picking new operations at this instant.
    end: Instant,
}

impl Source {
    fn next(&mut self) -> Option<(Op, Option<Instant>)> {
        if self.schedule.is_empty() {
            if Instant::now() >= self.end {
                return None;
            }
            return Some((self.gen.next_op(), None));
        }
        let at = *self.schedule.get(self.handed)?;
        self.handed += 1;
        Some((self.gen.next_op(), Some(at)))
    }
}

/// The state every client thread shares.
struct Client<'a> {
    addr: &'a str,
    /// Keep-alive connections (warm) or one connection per request (cold).
    keepalive: bool,
    ids: &'a Ids,
    connections: AtomicU64,
}

impl Client<'_> {
    fn open(&self) -> io::Result<Conn> {
        self.connections.fetch_add(1, Ordering::Relaxed);
        Conn::open(self.addr)
    }

    /// Sends `bytes` on the thread's keep-alive connection (re-opening
    /// it when the server closed it) or on a fresh one.
    fn exchange(&self, conn: &mut Option<Conn>, bytes: &[u8], retry: bool) -> io::Result<Reply> {
        if !self.keepalive {
            self.connections.fetch_add(1, Ordering::Relaxed);
            return one_shot(self.addr, bytes);
        }
        let mut attempts = 0;
        loop {
            if conn.is_none() {
                *conn = Some(self.open()?);
            }
            let result = conn
                .as_mut()
                .expect("connection just opened")
                .exchange(bytes);
            match result {
                Ok(reply) => {
                    if reply.close {
                        *conn = None;
                    }
                    return Ok(reply);
                }
                // A keep-alive connection the server closed while idle:
                // reconnect and resend once (requests are idempotent).
                Err(_) if retry && attempts == 0 => {
                    *conn = None;
                    attempts += 1;
                }
                Err(e) => {
                    *conn = None;
                    return Err(e);
                }
            }
        }
    }

    /// One client thread: take the next operation whenever free, wait
    /// for its scheduled time, send it, and record it.
    fn worker(&self, source: &Mutex<Source>, closed: bool) -> Vec<Record> {
        let mut conn = None;
        let mut records = Vec::new();
        loop {
            let next = source.lock().expect("source lock").next();
            let Some((op, scheduled)) = next else {
                break;
            };
            let picked = Instant::now();
            if let Some(at) = scheduled {
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
            }
            let due = scheduled.map_or(picked, |at| at.max(picked));
            let lateness_s = due.elapsed().as_secs_f64();
            let start = scheduled.unwrap_or(picked);
            let (request, bytes) = match op.kind {
                Kind::Upload => (
                    String::new(),
                    request_bytes(
                        "POST",
                        &format!("/v1/tenants/{}/sessions", tenant_name(op.tenant)),
                        None,
                        !self.keepalive,
                        op.csv.as_deref().expect("uploads carry a matrix"),
                    ),
                ),
                _ => match self.ids.resolve(op.target) {
                    Some(id) => {
                        let body = request_body(op.kind, &id, &op.opts);
                        let bytes = request_bytes(
                            "POST",
                            "/v1/requests",
                            Some(&tenant_name(op.tenant)),
                            !self.keepalive,
                            &body,
                        );
                        (body, bytes)
                    }
                    None => {
                        records.push(Record {
                            op,
                            closed,
                            status: 0,
                            request: String::new(),
                            reply: "referenced upload failed".into(),
                            latency_s: f64::INFINITY,
                            service_s: f64::INFINITY,
                            lateness_s,
                        });
                        continue;
                    }
                },
            };
            let sent = Instant::now();
            let result = self.exchange(&mut conn, &bytes, op.kind != Kind::Upload);
            let done = Instant::now();
            let (status, reply) = match result {
                Ok(reply) => (reply.status, reply.body),
                Err(e) => (0, e.to_string()),
            };
            if op.kind == Kind::Upload {
                let id = (status == 201).then(|| session_id(&reply)).flatten();
                self.ids.publish(op.index, id);
            }
            records.push(Record {
                op,
                closed,
                status,
                request,
                reply,
                latency_s: (done - start).as_secs_f64(),
                service_s: (done - sent).as_secs_f64(),
                lateness_s,
            });
        }
        records
    }

    /// Runs one phase on `CLIENTS` threads; returns its records in op
    /// order, the generator (to continue the sequence) and the phase's
    /// wall seconds.
    fn phase(&self, source: Source, closed: bool) -> (Vec<Record>, Generator, f64) {
        let source = Mutex::new(source);
        let start = Instant::now();
        let mut records: Vec<Record> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|_| s.spawn(|| self.worker(&source, closed)))
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = start.elapsed().as_secs_f64();
        records.sort_by_key(|r| r.op.index);
        let gen = source.into_inner().expect("source lock").gen;
        (records, gen, wall_s)
    }
}

/// The `result.id` of a `201` upload response.
fn session_id(body: &str) -> Option<String> {
    let doc = json::parse(body).ok()?;
    Some(doc.get("result")?.get("id")?.as_str()?.to_string())
}

/// `GET /v1/metrics` as a flat name → number map (counters only).
fn server_counters(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let reply = one_shot(addr, &request_bytes("GET", "/v1/metrics", None, true, ""))
        .map_err(|e| format!("GET /v1/metrics: {e}"))?;
    let doc = json::parse(&reply.body).map_err(|e| format!("/v1/metrics: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_obj())
        .ok_or("/v1/metrics without `metrics`")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect())
}

fn delta(after: &BTreeMap<String, f64>, before: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Per-tenant in-process handlers configured like the server's tenant
/// pool, plus the sessions each tenant uploaded.
struct Replay {
    handlers: Vec<Handler>,
    sessions: Vec<HashMap<String, String>>,
}

/// One replayed request.
struct Served {
    body: String,
    request: Request,
    decode_s: f64,
    handle_s: f64,
    encode_s: f64,
    total_s: f64,
}

impl Replay {
    fn new() -> Replay {
        Replay {
            handlers: (0..TENANTS)
                .map(|_| {
                    let evaluator = Evaluator::builder()
                        .jobs(1)
                        .cache_capacity(CACHE_QUOTA)
                        .build();
                    Handler::with_evaluator(Arc::new(evaluator), Parallelism::new(1))
                })
                .collect(),
            sessions: vec![HashMap::new(); TENANTS],
        }
    }

    /// `decode_envelope` → `Handler::handle` → `encode_response`, each
    /// call one span under an `op` root.
    fn serve(&self, tr: &mut Tracer, op: u64, tenant: usize, body: &str) -> Result<Served, String> {
        let root = tr.begin("op", op, None);
        let result = (|| {
            let resolve = |id: &str| self.sessions[tenant].get(id).cloned();
            let (decoded, decode_s) = tr.time("wire.decode", op, Some(&root), || {
                wire::decode_envelope(body, &resolve)
            });
            let (request, _) = decoded.map_err(|e| e.to_string())?;
            let (response, handle_s) = tr.time("handler.handle", op, Some(&root), || {
                self.handlers[tenant].handle(&request)
            });
            let response = response.map_err(|e| e.to_string())?;
            let (body, encode_s) = tr.time("wire.encode", op, Some(&root), || {
                wire::encode_response(&response)
            });
            Ok((body, request, decode_s, handle_s, encode_s))
        })();
        let total_s = tr.end(root);
        result.map(|(body, request, decode_s, handle_s, encode_s)| Served {
            body,
            request,
            decode_s,
            handle_s,
            encode_s,
            total_s,
        })
    }
}

/// The model and scenario of an analysis request.
fn model_of(request: &Request) -> Option<(&Model, ScenarioSpec)> {
    match request {
        Request::Analyze { model, scenario }
        | Request::ProbAnalyze { model, scenario }
        | Request::Loss { model, scenario }
        | Request::ProbLoss { model, scenario }
        | Request::Sensitivity {
            model, scenario, ..
        } => Some((model, *scenario)),
        _ => None,
    }
}

/// Direct per-layer timings of one replayed request, in seconds.
#[derive(Default)]
struct Probes {
    load: Vec<f64>,
    compile: Vec<f64>,
    solve: Vec<f64>,
    iterations: Vec<f64>,
    iters_saved: Vec<f64>,
    refine: Vec<f64>,
    refine_share: Vec<f64>,
    miss: Vec<f64>,
    hit: Vec<f64>,
    kernel_share: Vec<f64>,
}

impl Probes {
    /// Times `load_network`, the kernel layers and a fresh evaluator's
    /// miss and hit on the request's model, under one `probe` root. Runs
    /// on a fresh thread: the engine keeps per-thread scratch state
    /// (compiled tables, warm-start workspaces) that would otherwise make
    /// the "miss" warm.
    fn take(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        kind: Kind,
        request: &Request,
    ) -> Result<(), String> {
        std::thread::scope(|s| s.spawn(|| self.take_here(tr, op, kind, request)).join())
            .map_err(|_| "probe thread panicked".to_string())?
    }

    fn take_here(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        kind: Kind,
        request: &Request,
    ) -> Result<(), String> {
        let Some((model, spec)) = model_of(request) else {
            return Ok(());
        };
        let scenario = spec.to_scenario();
        let prob = matches!(kind, Kind::ProbAnalyze | Kind::ProbLoss);
        warm_up_probe(&scenario, prob);
        let root = tr.begin("probe", op, None);
        let result = (|| {
            let (net, load_s) = tr.time("handler.load_model", op, Some(&root), || {
                load_network(model)
            });
            let net = net.map_err(|e| e.to_string())?;
            let kernel = probe_kernel(tr, op, Some(&root), &net, &scenario, prob)
                .map_err(|e| e.to_string())?;
            let evaluator = Evaluator::builder().jobs(1).build();
            let variant = SystemVariant::new(BaseSystem::new(net), scenario);
            let (miss, miss_s) = tr.time("engine.evaluate_miss", op, Some(&root), || {
                evaluator.evaluate(&variant)
            });
            let (hit, hit_s) = tr.time("engine.evaluate_hit", op, Some(&root), || {
                evaluator.evaluate(&variant)
            });
            miss.and(hit).map_err(|e| e.to_string())?;
            self.load.push(load_s);
            self.compile.push(kernel.compile_s);
            self.solve.push(kernel.solve_s);
            self.iterations.push(kernel.stats.iterations as f64);
            self.iters_saved.push(kernel.stats.iters_saved as f64);
            self.miss.push(miss_s);
            self.hit.push(hit_s);
            if kind == Kind::Analyze {
                self.kernel_share
                    .push(ratio(kernel.compile_s + kernel.solve_s, miss_s));
            }
            if let Some((base_s, refine_s)) = kernel.prob {
                self.refine.push(refine_s);
                self.refine_share.push(ratio(
                    refine_s,
                    kernel.compile_s + kernel.solve_s + base_s + refine_s,
                ));
            }
            Ok(())
        })();
        tr.end(root);
        result
    }
}

/// Runs one server workload.
pub fn run(args: &RunArgs, cold: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rng = Rng::new(args.seed, 0x5E7);
    let dir = args
        .run_dir
        .join(if cold { "serve_cold" } else { "serve_warm" });
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;

    // Inputs (not timed): the pre-seeded state log and each tenant's
    // set-up matrices.
    let seed_log = seed_state_log(&dir.join("seed"), &mut rng)?;
    let setup_csv: Vec<Vec<Arc<String>>> = (0..TENANTS)
        .map(|_| {
            (0..SETUP_SESSIONS)
                .map(|_| Arc::new(to_csv(&kmatrix(rng.next_u64()))))
                .collect()
        })
        .collect();
    let repeats = if args.quick { 1 } else { SETUP_REPEATS };

    let mut setup_s = Vec::new();
    let mut upload_ms = Vec::new();
    let mut replay = Replay::new();
    let mut references: HashMap<(usize, usize, Kind), String> = HashMap::new();
    let mut server = None;
    let mut setup_ids = Vec::new();
    for k in 0..repeats {
        drop(server.take());
        let state = dir.join(format!("state-{k}"));
        std::fs::create_dir_all(&state).map_err(|e| e.to_string())?;
        std::fs::copy(
            &seed_log,
            state.join(seed_log.file_name().expect("log file name")),
        )
        .map_err(|e| format!("copy state log: {e}"))?;
        let start = Instant::now();
        let proc = ServerProc::spawn(&state).map_err(|e| format!("spawn server: {e}"))?;
        wait_healthy(&proc.addr)?;
        let mut ids = Vec::new();
        for (t, csvs) in setup_csv.iter().enumerate() {
            let mut tenant_ids = Vec::new();
            for csv in csvs {
                let path = format!("/v1/tenants/{}/sessions", tenant_name(t));
                let sent = Instant::now();
                let reply = one_shot(&proc.addr, &request_bytes("POST", &path, None, true, csv))
                    .map_err(|e| format!("set-up upload: {e}"))?;
                upload_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                match (reply.status, session_id(&reply.body)) {
                    (201, Some(id)) => tenant_ids.push(id),
                    (status, _) => return Err(format!("set-up upload: {status} {}", reply.body)),
                }
            }
            ids.push(tenant_ids);
        }
        if k == 0 {
            // The in-process twin of the server's tenants, and (warm) the
            // reference response of every distinct request.
            for (t, tenant_ids) in ids.iter().enumerate() {
                for (s, id) in tenant_ids.iter().enumerate() {
                    replay.sessions[t].insert(id.clone(), setup_csv[t][s].to_string());
                }
            }
            if !cold {
                let mut off = Tracer::new(false);
                for (t, tenant_ids) in ids.iter().enumerate() {
                    for (s, id) in tenant_ids.iter().enumerate() {
                        for (kind, _) in WARM_MIX {
                            let body = request_body(kind, id, &Opts::plain());
                            let served = replay.serve(&mut off, 0, t, &body)?;
                            references.insert((t, s, kind), served.body);
                        }
                    }
                }
            }
        } else if ids != setup_ids {
            return Err("set-up session ids differ between set-ups".into());
        }
        warm_up(&proc.addr, cold, &ids, &references)?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup_ids = ids;
        server = Some(proc);
    }
    let server = server.expect("at least one set-up");
    out.e2e("setup_s", median(&setup_s));

    // Measured phases. Cold uploads are measured; warm ones happen only
    // at set-up.
    if cold {
        upload_ms.clear();
    }
    let ids = Ids {
        setup: setup_ids,
        uploads: Mutex::new(HashMap::new()),
        published: Condvar::new(),
    };
    let client = Client {
        addr: &server.addr,
        keepalive: !cold,
        ids: &ids,
        connections: AtomicU64::new(0),
    };
    let open_s = args.seconds * OPEN_SHARE;
    let before = server_counters(&server.addr)?;
    let mut arrivals = Rng::new(args.seed, 0xA77);
    let origin = Instant::now() + Duration::from_millis(5);
    let mut at = 0.0;
    let mut schedule = Vec::new();
    loop {
        at += arrivals.exp(RATE_PER_S);
        if at >= open_s {
            break;
        }
        schedule.push(origin + Duration::from_secs_f64(at));
    }
    let (open, gen, _) = client.phase(
        Source {
            gen: Generator::new(args.seed, cold),
            schedule,
            handed: 0,
            end: origin,
        },
        false,
    );
    let closed_start = Instant::now();
    let (closed, _, closed_wall_s) = client.phase(
        Source {
            gen,
            schedule: Vec::new(),
            handed: 0,
            end: closed_start + Duration::from_secs_f64(args.seconds - open_s),
        },
        true,
    );
    let after = server_counters(&server.addr)?;
    let connections = client.connections.load(Ordering::Relaxed);
    drop(server);

    // Check every open-loop response and a sample of closed-loop ones
    // against the in-process replay. A traced run replays and checks
    // every request and times the replay; closed-loop requests (the
    // samples of the end-to-end latency) give the transport share, and
    // open-loop ones are probed layer by layer.
    let mut tr = Tracer::new(args.trace);
    let traced_start = Instant::now();
    let mut failed_ops: HashSet<usize> = HashSet::new();
    let mut transport_ms = Vec::new();
    let mut transport_share = Vec::new();
    let (mut decode, mut handle, mut encode) = (Vec::new(), Vec::new(), Vec::new());
    let mut probes = Probes::default();
    let records: Vec<&Record> = open.iter().chain(closed.iter()).collect();
    for r in &records {
        let index = r.op.index;
        let expected = if r.op.kind == Kind::Upload { 201 } else { 200 };
        if r.status != expected {
            failed_ops.insert(index);
            out.notes.push(format!(
                "op {index} ({}): status {} {}",
                r.op.kind.wire(),
                r.status,
                r.reply.chars().take(160).collect::<String>()
            ));
            continue;
        }
        if r.op.kind == Kind::Upload {
            let id = session_id(&r.reply).expect("acked upload carries an id");
            let csv = r.op.csv.as_deref().expect("uploads carry a matrix");
            replay.sessions[r.op.tenant].insert(id, csv.to_string());
            if !r.closed {
                upload_ms.push(r.service_s * 1e3);
            }
            continue;
        }
        let check = args.trace || !r.closed || index % CLOSED_SAMPLE == 0;
        if !check {
            continue;
        }
        // Cold references are replayed per op; warm ones were computed
        // once at set-up.
        let replayed = if cold || args.trace {
            match replay.serve(&mut tr, index as u64, r.op.tenant, &r.request) {
                Ok(served) => Some(served),
                Err(e) => {
                    failed_ops.insert(index);
                    out.notes.push(format!("op {index}: replay failed: {e}"));
                    continue;
                }
            }
        } else {
            None
        };
        if let (true, Some(served)) = (args.trace, &replayed) {
            if r.closed {
                let transport_s = r.latency_s - served.total_s;
                transport_ms.push(transport_s * 1e3);
                transport_share.push(ratio(transport_s, r.latency_s));
            } else {
                probes.take(&mut tr, index as u64, r.op.kind, &served.request)?;
            }
            decode.push(served.decode_s);
            handle.push(served.handle_s);
            encode.push(served.encode_s);
        }
        let reference = match replayed {
            Some(served) => served.body,
            None => {
                let Target::Setup(t, s) = r.op.target else {
                    unreachable!("warm requests use set-up sessions")
                };
                references[&(t, s, r.op.kind)].clone()
            }
        };
        if r.reply != reference {
            failed_ops.insert(index);
            out.notes.push(format!(
                "op {index} ({}): response differs from the in-process reference",
                r.op.kind.wire()
            ));
        }
    }
    let traced_wall_s = traced_start.elapsed().as_secs_f64();

    // Admission must never engage: a shed or degraded request is a
    // failed op even where the sample did not catch it.
    let shed = delta(&after, &before, "server.requests.shed");
    let degraded = delta(&after, &before, "server.requests.degraded");
    out.attempted = records.len() as u64;
    out.failed = (failed_ops.len() as u64).max((shed + degraded) as u64);

    // A failed op misses any latency limit.
    let latency_ms = |records: &[Record]| -> Vec<f64> {
        records
            .iter()
            .map(|r| {
                if failed_ops.contains(&r.op.index) {
                    f64::INFINITY
                } else {
                    r.latency_s * 1e3
                }
            })
            .collect()
    };
    let (open_ms, closed_ms) = (latency_ms(&open), latency_ms(&closed));
    let good_closed = closed_ms.iter().filter(|v| v.is_finite()).count();
    // End-to-end latency comes from the closed loop. In the open loop a
    // keep-alive response stalls only when its request left within the
    // client's delayed-ACK window of the previous response, so at the
    // seed the open-loop distribution is bimodal and its median sits
    // between the modes; it is reported per layer instead.
    out.e2e("latency_p50_ms", quantile(&closed_ms, 0.50));
    out.e2e("latency_p95_ms", quantile(&closed_ms, 0.95));
    out.e2e("throughput_per_s", ratio(good_closed as f64, closed_wall_s));
    out.layer("server.open_loop_ms.p50", quantile(&open_ms, 0.50));
    out.layer("server.open_loop_ms.p99", quantile(&open_ms, 0.99));
    out.notes.push(format!(
        "open loop: {} requests at {RATE_PER_S}/s over {:.1} s; closed loop: {} requests in {closed_wall_s:.1} s",
        open.len(),
        open_s,
        closed.len()
    ));

    // Per-layer metrics.
    let d = |name: &str| delta(&after, &before, name);
    let lateness_ms: Vec<f64> = open.iter().map(|r| r.lateness_s * 1e3).collect();
    let request_kib: Vec<f64> = records
        .iter()
        .filter(|r| r.op.kind != Kind::Upload && r.status == 200)
        .map(|r| r.reply.len() as f64 / 1024.0)
        .collect();
    let us = |v: &[f64]| median(v) * 1e6;
    out.layer("server.transport_ms.p50", quantile(&transport_ms, 0.50));
    out.layer("server.transport_ms.p99", quantile(&transport_ms, 0.99));
    out.layer("server.transport_share.p50", median(&transport_share));
    out.layer("server.connections", connections as f64);
    out.layer("server.keepalive_reused", d("server.keepalive.reused"));
    out.layer("server.shed", shed);
    out.layer("server.degraded", degraded);
    out.layer("server.tenants_evicted", d("server.tenants.evicted"));
    out.layer("server.upload_ms.p50", quantile(&upload_ms, 0.50));
    out.layer("server.upload_ms.p99", quantile(&upload_ms, 0.99));
    out.layer("server.state_appended", d("server.state.appended"));
    out.layer("wire.decode_us.p50", us(&decode));
    out.layer("wire.encode_us.p50", us(&encode));
    out.layer("wire.response_kib.mean", mean(&request_kib));
    out.layer("handler.load_model_us.p50", us(&probes.load));
    out.layer("handler.handle_us.p50", us(&handle));
    out.layer("handler.handle_us.p99", quantile(&handle, 0.99) * 1e6);
    let (hits, misses) = (d("engine.cache.hits"), d("engine.cache.misses"));
    out.layer("engine.hit_ratio", ratio(hits, hits + misses));
    let met = if cold { &probes.miss } else { &probes.hit };
    out.layer("engine.evaluate_us.p50", us(met));
    out.layer("engine.evaluate_us.hit_p50", us(&probes.hit));
    out.layer("engine.evaluate_us.miss_p50", us(&probes.miss));
    if !probes.kernel_share.is_empty() {
        out.layer("engine.overhead_share", 1.0 - median(&probes.kernel_share));
    }
    out.layer("engine.batch_chunks", d("engine.batch.chunks"));
    out.layer("engine.shard_waits", d("engine.batch.shard_waits"));
    out.layer("engine.scratch_evictions", d("engine.scratch.evictions"));
    out.layer("engine.cache_evictions", d("engine.cache.evictions"));
    out.layer("engine.compiles", d("engine.rta.compiles"));
    let (warm, cold_starts) = (d("engine.rta.warm_starts"), d("engine.rta.cold_starts"));
    out.layer("engine.warm_start_ratio", ratio(warm, warm + cold_starts));
    out.layer("compile.us.p50", us(&probes.compile));
    out.layer("compile.count", d("engine.rta.compiles"));
    out.layer("solve.us_per_point.p50", us(&probes.solve));
    out.layer("solve.iterations_per_point", mean(&probes.iterations));
    out.layer("solve.iters_saved_per_point", mean(&probes.iters_saved));
    out.layer("prob.refine_us.p50", us(&probes.refine));
    out.layer("prob.refine_share", median(&probes.refine_share));
    let lateness_p99 = quantile(&lateness_ms, 0.99);
    out.layer("bench.generator_lateness_ms.p99", lateness_p99);
    if lateness_p99 > MAX_LATENESS_MS {
        out.notes.push(format!(
            "warning: run invalid: the open-loop generator sent {lateness_p99:.2} ms late (p99), above {MAX_LATENESS_MS} ms"
        ));
    }
    crate::finish_trace(args, &mut out, &tr, "op", traced_wall_s);
    Ok(out)
}

/// Writes the pre-seeded state log: `ARCHIVE_SESSIONS` uploads spread
/// over `ARCHIVE_TENANTS` tenants, through the server's own log writer.
fn seed_state_log(dir: &Path, rng: &mut Rng) -> Result<std::path::PathBuf, String> {
    let (mut log, _, _) = StateLog::open(dir).map_err(|e| format!("state log: {e}"))?;
    for i in 0..ARCHIVE_SESSIONS {
        let record = SessionRecord {
            tenant: format!("archive-{}", i % ARCHIVE_TENANTS),
            id: format!("s{}", i / ARCHIVE_TENANTS + 1),
            csv: to_csv(&kmatrix(rng.next_u64())),
        };
        log.append(&record).map_err(|e| format!("state log: {e}"))?;
    }
    Ok(log.path().to_path_buf())
}

/// Polls `GET /v1/healthz` until it answers 200.
fn wait_healthy(addr: &str) -> Result<(), String> {
    let start = Instant::now();
    let bytes = request_bytes("GET", "/v1/healthz", None, true, "");
    loop {
        if let Ok(reply) = one_shot(addr, &bytes) {
            if reply.status == 200 {
                return Ok(());
            }
        }
        if start.elapsed() > WAIT {
            return Err(format!("server at {addr} never became healthy"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Set-up's last step. Warm: serve every distinct request of the mix
/// once (and check it), so every measured request is a memo hit. Cold:
/// one plain analyze per tenant, a model/scenario the generator never
/// produces, so measured requests stay memo misses.
fn warm_up(
    addr: &str,
    cold: bool,
    ids: &[Vec<String>],
    references: &HashMap<(usize, usize, Kind), String>,
) -> Result<(), String> {
    for (t, tenant_ids) in ids.iter().enumerate() {
        for (s, id) in tenant_ids.iter().enumerate() {
            let kinds: &[Kind] = if cold {
                if s > 0 {
                    continue;
                }
                &[Kind::Analyze]
            } else {
                &WARM_MIX.map(|(kind, _)| kind)
            };
            for &kind in kinds {
                let body = request_body(kind, id, &Opts::plain());
                let tenant = tenant_name(t);
                let reply = one_shot(
                    addr,
                    &request_bytes("POST", "/v1/requests", Some(&tenant), true, &body),
                )
                .map_err(|e| format!("warm-up: {e}"))?;
                let expected = references.get(&(t, s, kind));
                if reply.status != 200 || expected.is_some_and(|e| *e != reply.body) {
                    return Err(format!(
                        "warm-up {} on {tenant}/{id}: status {}",
                        kind.wire(),
                        reply.status
                    ));
                }
            }
        }
    }
    Ok(())
}
