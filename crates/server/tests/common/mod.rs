//! The socket suites' shared harness: one `connection: close` HTTP
//! client, the `carta-server` process under test, and the request
//! bodies and matrices both suites send.

// Each suite uses its own subset of the harness.
#![allow(dead_code)]

use carta_api::prelude::{Handler, Request, Response};
use carta_api::wire;
use carta_obs::json::{self, Value};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// One request over a fresh `connection: close` connection: status,
/// raw header block and body. `Err` when the connection fails or the
/// response is cut short (the server died mid-request); the 30 s read
/// timeout bounds every call.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    tenant: Option<&str>,
    body: &str,
) -> io::Result<(u16, String, String)> {
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
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((&raw, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok());
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|n| n.trim().parse::<usize>().ok());
    match (status, length) {
        (Some(status), Some(length)) if length == body.len() => {
            Ok((status, head.to_string(), body.to_string()))
        }
        _ => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("incomplete response {raw:?}"),
        )),
    }
}

/// The `carta-server` binary on an OS-chosen port, killed hard on
/// drop so a failing assert never leaks a process.
pub struct ServerProc {
    pub child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Boots the binary with two workers plus `env`, and returns once
    /// it prints its listen line.
    pub fn launch(env: &[(&str, &str)]) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_carta-server"))
            .env("CARTA_SERVER_ADDR", "127.0.0.1:0")
            .env("CARTA_SERVER_WORKERS", "2")
            .envs(env.iter().copied())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawns carta-server");
        // The actual address is parsed fresh on every launch, so a
        // restart never races a lingering socket on a fixed port.
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
                    .and_then(|a| a.parse().ok())
                    .expect("listen address");
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        ServerProc { child, addr }
    }

    /// `SIGKILL`: no drain, no flush.
    pub fn kill_hard(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// `SIGTERM`, through the same raw-binding pattern the binary uses
    /// for `signal(2)`.
    #[cfg(unix)]
    pub fn sigterm(&self) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        let pid = i32::try_from(self.child.id()).expect("pid fits pid_t");
        // SAFETY: `kill(2)` only reads its two integer arguments.
        assert_eq!(unsafe { kill(pid, SIGTERM) }, 0, "kill(2) failed");
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill_hard();
    }
}

/// `GET /v1/metrics`: the body, and a lookup of its counters (0 when
/// absent).
pub fn metrics_of(addr: SocketAddr) -> (String, impl Fn(&str) -> f64) {
    let (status, _, body) = request(addr, "GET", "/v1/metrics", None, "").expect("metrics");
    assert_eq!(status, 200, "{body}");
    let doc = json::parse(&body).expect("valid metrics document");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some("carta.metrics.v1")
    );
    for key in ["command", "wall_ms", "metrics", "derived"] {
        assert!(doc.get(key).is_some(), "missing `{key}` in {body}");
    }
    let metric = move |name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    (body, metric)
}

/// The id in a `201` session envelope.
pub fn session_id(body: &str) -> String {
    json::parse(body)
        .expect("session envelope")
        .get("result")
        .and_then(|r| r.get("id"))
        .and_then(Value::as_str)
        .expect("session id")
        .to_string()
}

/// Uploads `csv` as a session of `tenant`, requires the `201` ack, and
/// returns the session id.
pub fn upload(addr: SocketAddr, tenant: &str, csv: &str) -> String {
    let path = format!("/v1/tenants/{tenant}/sessions");
    let (status, _, body) = request(addr, "POST", &path, None, csv).expect("upload round-trip");
    assert_eq!(status, 201, "{body}");
    let doc = json::parse(&body).expect("valid session envelope");
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(wire::SCHEMA)
    );
    assert_eq!(doc.get("ok").and_then(Value::as_bool), Some(true));
    session_id(&body)
}

/// A worst-case `analyze` of stored session `id`.
pub fn analyze_session_body(id: &str) -> String {
    format!(
        r#"{{"schema":"carta.api.v1","request":"analyze","params":{{"model":{{"source":{{"kind":"session","id":"{id}"}}}},"scenario":"worst"}}}}"#
    )
}

/// Sends [`analyze_session_body`] for `tenant`: status and body.
pub fn analyze_session(addr: SocketAddr, tenant: &str, id: &str) -> (u16, String) {
    let (status, _, body) = request(
        addr,
        "POST",
        "/v1/requests",
        Some(tenant),
        &analyze_session_body(id),
    )
    .expect("analyze round-trip");
    (status, body)
}

/// A generated K-Matrix CSV.
pub fn generate_csv(seed: u64) -> String {
    match Handler::default()
        .handle(&Request::Generate { seed })
        .expect("generates")
    {
        Response::Matrix { csv } => csv,
        other => panic!("wrong response kind {}", other.kind()),
    }
}
