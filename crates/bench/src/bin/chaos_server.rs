//! Chaos soak for `carta-server`: a client fleet uploads sessions and
//! analyzes them while a supervisor `kill -9`s and restarts the server
//! on the same state directory. Invariants checked every cycle and at
//! the end:
//!
//! * **zero lost acks** — every session whose upload was acknowledged
//!   (201) before a crash resolves after the restart,
//! * **zero hung clients** — every client request completes (success,
//!   typed error, or connection error) within its timeout,
//! * **bit-identity** — the post-restart `analyze` of each acked
//!   session is byte-for-byte the envelope a fresh in-process
//!   [`Handler`] produces for the same CSV.
//!
//! Environment knobs: `CHAOS_CYCLES` (default 3), `CHAOS_CLIENTS`
//! (default 3), `CHAOS_UPLOADS_PER_CYCLE` (default 2), `CARTA_SERVER_BIN`
//! (default: sibling of this binary).

use carta_api::prelude::{Handler, Model, Request, Response, ScenarioSpec};
use carta_api::wire;
use carta_obs::json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Path of the `carta-server` binary: an explicit override, else the
/// sibling of this executable (both live in the same target dir).
fn server_bin() -> std::path::PathBuf {
    if let Ok(path) = std::env::var("CARTA_SERVER_BIN") {
        return path.into();
    }
    let exe = std::env::current_exe().expect("own path");
    exe.parent().expect("bin dir").join("carta-server")
}

/// Admission budget per window: wide open, so that the soak exercises
/// crashes and replay rather than shedding.
const BUDGET: u32 = 1000;

struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn launch(state_dir: &std::path::Path) -> ServerProc {
        let mut child = Command::new(server_bin())
            .env("CARTA_SERVER_ADDR", "127.0.0.1:0")
            .env("CARTA_SERVER_STATE_DIR", state_dir)
            .env("CARTA_SERVER_WORKERS", "4")
            .env("CARTA_SERVER_BUDGET", BUDGET.to_string())
            .env("CARTA_SERVER_WINDOW_MS", "1000")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot spawn {}: {e}", server_bin().display()));
        // Re-parse the OS-chosen address from stderr on every launch:
        // fixed ports would race TIME_WAIT sockets across restarts.
        let stderr = child.stderr.take().expect("piped stderr");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("stderr open until the listen line")
                .expect("readable stderr");
            if let Some(rest) = line.split("listening on http://").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("address token")
                    .to_string();
            }
        };
        std::thread::spawn(move || for _ in lines {});
        ServerProc { child, addr }
    }

    fn kill_hard(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill_hard();
    }
}

/// One `connection: close` request. `Err` means the connection failed
/// (expected while the server is dead); a response always carries a
/// status — a request never hangs past the timeout.
fn request(
    addr: &str,
    method: &str,
    path: &str,
    tenant: Option<&str>,
    body: &str,
) -> Result<(u16, String), std::io::Error> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let tenant_header = tenant
        .map(|t| format!("x-carta-tenant: {t}\r\n"))
        .unwrap_or_default();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nhost: carta\r\nconnection: close\r\n{tenant_header}content-length: {}\r\n\r\n{body}",
        body.len()
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line"))?
        .parse()
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn analyze_body(id: &str) -> String {
    format!(
        r#"{{"schema":"carta.api.v1","request":"analyze","params":{{"model":{{"source":{{"kind":"session","id":"{id}"}}}},"scenario":"worst"}}}}"#
    )
}

fn generate_csv(seed: u64) -> String {
    match Handler::default()
        .handle(&Request::Generate { seed })
        .expect("generates")
    {
        Response::Matrix { csv } => csv,
        other => panic!("wrong kind {}", other.kind()),
    }
}

/// The envelope a fresh in-process handler produces for this CSV —
/// the bit-identity reference for post-restart responses.
fn reference_envelope(csv: &str) -> String {
    let resp = Handler::default()
        .handle(&Request::Analyze {
            model: Model::from_csv(csv.to_string()),
            scenario: ScenarioSpec::Worst,
        })
        .expect("reference analyze");
    wire::encode_response(&resp)
}

#[derive(Clone)]
struct AckedSession {
    tenant: String,
    id: String,
    csv: String,
}

fn main() {
    let cycles = env_u64("CHAOS_CYCLES", 3);
    let clients = env_u64("CHAOS_CLIENTS", 3);
    let uploads_per_cycle = env_u64("CHAOS_UPLOADS_PER_CYCLE", 2);

    let state_dir = std::env::temp_dir().join(format!("carta-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    let ledger: Arc<Mutex<Vec<AckedSession>>> = Arc::new(Mutex::new(Vec::new()));
    let conn_errors = Arc::new(AtomicU64::new(0));
    let mut killed = 0u64;
    println!("chaos_server: {cycles} kill -9 cycles, {clients} clients");
    let mut server = ServerProc::launch(&state_dir);
    for cycle in 0..cycles {
        // Client fleet: upload + immediately analyze, recording every
        // *acked* upload in the ledger before moving on.
        let mut fleet = Vec::new();
        for client in 0..clients {
            let addr = server.addr.clone();
            let ledger = Arc::clone(&ledger);
            let conn_errors = Arc::clone(&conn_errors);
            fleet.push(std::thread::spawn(move || {
                let tenant = format!("fleet-{client}");
                for upload in 0..uploads_per_cycle {
                    let seed = cycle * 1000 + client * 100 + upload;
                    let csv = generate_csv(seed);
                    match request(
                        &addr,
                        "POST",
                        &format!("/v1/tenants/{tenant}/sessions"),
                        None,
                        &csv,
                    ) {
                        Ok((201, body)) => {
                            let id = json::parse(&body)
                                .ok()
                                .and_then(|d| {
                                    d.get("result")?.get("id")?.as_str().map(str::to_string)
                                })
                                .expect("ack carries an id");
                            ledger.lock().expect("ledger lock").push(AckedSession {
                                tenant: tenant.clone(),
                                id: id.clone(),
                                csv,
                            });
                            // Exercise the analysis path too; any
                            // outcome is fine while the killer runs.
                            let _ = request(
                                &addr,
                                "POST",
                                "/v1/requests",
                                Some(&tenant),
                                &analyze_body(&id),
                            );
                        }
                        Ok((status, _)) => {
                            // Un-acked upload (e.g. server died before
                            // the 201): by contract it may be lost.
                            assert!(status < 600, "well-formed status even under chaos");
                        }
                        Err(_) => {
                            conn_errors.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            }));
        }
        // Let the fleet get some acks in, then murder the server.
        std::thread::sleep(Duration::from_millis(150));
        server.kill_hard();
        killed += 1;
        for worker in fleet {
            worker.join().expect("no hung clients");
        }
        // Restart on the same state dir; replay must bring every
        // acked session back.
        server = ServerProc::launch(&state_dir);
        let acked = ledger.lock().expect("ledger lock").clone();
        for session in &acked {
            let (status, body) = request(
                &server.addr,
                "POST",
                "/v1/requests",
                Some(&session.tenant),
                &analyze_body(&session.id),
            )
            .expect("server is up");
            assert_eq!(
                status, 200,
                "cycle {cycle}: acked session {}/{} lost after restart: {body}",
                session.tenant, session.id
            );
            assert_eq!(
                body,
                reference_envelope(&session.csv),
                "cycle {cycle}: {}/{} not bit-identical after restart",
                session.tenant,
                session.id
            );
        }
        println!(
            "  cycle {}/{cycles}: {} acked sessions verified bit-identical after kill -9",
            cycle + 1,
            acked.len()
        );
    }
    let acked_total = ledger.lock().expect("ledger lock").len() as u64;
    assert!(acked_total > 0, "the soak must ack at least one session");

    println!(
        "chaos_server: PASS — {killed} kill -9 cycles, {acked_total} acked sessions, zero lost, \
         {} connection errors during outages",
        conn_errors.load(Ordering::SeqCst)
    );
    let _ = std::fs::remove_dir_all(&state_dir);
}
