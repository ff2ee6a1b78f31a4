//! Crash-restart recovery against the real `carta-server` binary:
//! upload sessions with persistence on, `SIGKILL` the process, tear
//! the log tail the way an interrupted append would, restart on the
//! same state dir, and require that every *acked* session resolves
//! with a bit-identical analysis while the torn tail is truncated.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The server under test, killed hard on drop so a failing assert
/// never leaks a process.
struct ServerProc {
    child: Child,
    addr: String,
}

impl ServerProc {
    fn launch(state_dir: &std::path::Path) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_carta-server"))
            .env("CARTA_SERVER_ADDR", "127.0.0.1:0")
            .env("CARTA_SERVER_STATE_DIR", state_dir)
            .env("CARTA_SERVER_WORKERS", "2")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawns carta-server");
        // The binary prints its actual (OS-chosen) address on stderr;
        // parse it fresh on every launch so restarts never race a
        // lingering socket on a fixed port.
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
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        ServerProc { child, addr }
    }

    fn kill_hard(&mut self) {
        let _ = self.child.kill(); // SIGKILL on unix: no drain, no fsync flush
        let _ = self.child.wait();
    }

    /// One `connection: close` request; returns status and body.
    fn request(&self, method: &str, path: &str, tenant: Option<&str>, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let tenant_header = tenant
            .map(|t| format!("x-carta-tenant: {t}\r\n"))
            .unwrap_or_default();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: carta\r\nconnection: close\r\n{tenant_header}content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("writes");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("reads");
        let status = raw
            .split_whitespace()
            .nth(1)
            .expect("status line")
            .parse()
            .expect("numeric status");
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill_hard();
    }
}

fn session_id(body: &str) -> String {
    let doc = carta_obs::json::parse(body).expect("session envelope");
    doc.get("result")
        .and_then(|r| r.get("id"))
        .and_then(carta_obs::json::Value::as_str)
        .expect("session id")
        .to_string()
}

fn analyze_body(id: &str) -> String {
    format!(
        r#"{{"schema":"carta.api.v1","request":"analyze","params":{{"model":{{"source":{{"kind":"session","id":"{id}"}}}},"scenario":"worst"}}}}"#
    )
}

#[test]
fn acked_sessions_survive_sigkill_and_torn_tails_are_truncated() {
    let state_dir = std::env::temp_dir().join(format!("carta-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    // Generate distinct matrices through the API itself.
    let mut server = ServerProc::launch(&state_dir);
    let mut acked: Vec<(String, String, String)> = Vec::new(); // (id, csv, report)
    for seed in [11u64, 22, 33] {
        let (status, body) = server.request(
            "POST",
            "/v1/requests",
            Some("oem"),
            &format!(
                r#"{{"schema":"carta.api.v1","request":"generate","params":{{"seed":{seed}}}}}"#
            ),
        );
        assert_eq!(status, 200, "{body}");
        let csv = carta_obs::json::parse(&body)
            .expect("matrix envelope")
            .get("result")
            .and_then(|r| r.get("csv"))
            .and_then(carta_obs::json::Value::as_str)
            .expect("csv")
            .to_string();
        let (status, body) = server.request("POST", "/v1/tenants/oem/sessions", None, &csv);
        assert_eq!(status, 201, "ack required before the crash: {body}");
        let id = session_id(&body);
        let (status, report) =
            server.request("POST", "/v1/requests", Some("oem"), &analyze_body(&id));
        assert_eq!(status, 200, "{report}");
        acked.push((id, csv, report));
    }

    // Crash hard, then simulate the torn append a mid-write SIGKILL
    // leaves behind: a partial JSONL line with no newline.
    server.kill_hard();
    let log_path = state_dir.join("sessions.jsonl");
    let committed_len = std::fs::metadata(&log_path).expect("log exists").len();
    let torn = br#"{"v":"carta.state.v1","tenant":"oem","id":"s4","csv":"never-ack"#;
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(&log_path)
        .expect("opens log");
    log.write_all(torn).expect("tears the tail");
    drop(log);

    // Restart on the same state dir.
    let server = ServerProc::launch(&state_dir);

    // The restarted server counts its own replay in `/v1/metrics`.
    let (status, body) = server.request("GET", "/v1/metrics", None, "");
    assert_eq!(status, 200, "{body}");
    let doc = carta_obs::json::parse(&body).expect("metrics document");
    let counter = |name: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(name))
            .and_then(carta_obs::json::Value::as_f64)
    };
    assert_eq!(
        counter("server.state.replayed"),
        Some(acked.len() as f64),
        "{body}"
    );
    assert_eq!(
        counter("server.state.truncated_bytes"),
        Some(torn.len() as f64),
        "{body}"
    );

    // Every acked session resolves, and its analysis is bit-identical
    // on the wire to the pre-crash run.
    for (id, _, before) in &acked {
        let (status, after) =
            server.request("POST", "/v1/requests", Some("oem"), &analyze_body(id));
        assert_eq!(status, 200, "acked session {id} lost: {after}");
        assert_eq!(
            &after, before,
            "post-restart analysis of {id} must be bit-identical"
        );
    }

    // The torn (never-acked) record is gone — both from the API and
    // from the repaired log file.
    let (status, body) = server.request("POST", "/v1/requests", Some("oem"), &analyze_body("s4"));
    assert_eq!(status, 404, "torn session must not resurrect: {body}");
    assert_eq!(
        std::fs::metadata(&log_path).expect("log exists").len(),
        committed_len,
        "replay truncated the log back to its committed prefix"
    );

    // Fresh uploads continue the id sequence past the restored ones.
    let (status, body) = server.request("POST", "/v1/tenants/oem/sessions", None, &acked[0].1);
    assert_eq!(status, 201, "{body}");
    assert_eq!(session_id(&body), "s4", "ids continue after restore");

    drop(server);
    let _ = std::fs::remove_dir_all(&state_dir);
}
