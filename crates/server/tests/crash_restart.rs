//! Crash-restart recovery and shutdown against the real `carta-server`
//! binary: every *acked* session survives `SIGKILL` with a
//! bit-identical analysis, whether the kill tears the log tail or lands
//! on live uploads, and `SIGTERM` drains to exit status 0.

mod common;

use carta_api::prelude::{Handler, Model, Request, ScenarioSpec};
use carta_api::wire;
use common::{analyze_session, generate_csv, metrics_of, request, session_id, upload, ServerProc};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A per-test state directory, removed on drop: also when an
/// assertion fails.
struct StateDir(PathBuf);

impl StateDir {
    fn new(tag: &str) -> StateDir {
        let dir = std::env::temp_dir().join(format!("carta-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        StateDir(dir)
    }

    fn env(&self) -> (&'static str, &str) {
        let dir = self.0.to_str().expect("utf-8 temp dir");
        ("CARTA_SERVER_STATE_DIR", dir)
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn acked_sessions_survive_sigkill_and_torn_tails_are_truncated() {
    let state = StateDir::new("crash");
    let mut server = ServerProc::launch(&[state.env()]);
    let mut acked: Vec<(String, String, String)> = Vec::new(); // (id, csv, report)
    for seed in [11u64, 22, 33] {
        let csv = generate_csv(seed);
        let id = upload(server.addr, "oem", &csv);
        let (status, report) = analyze_session(server.addr, "oem", &id);
        assert_eq!(status, 200, "{report}");
        acked.push((id, csv, report));
    }

    // Crash hard, then simulate the torn append a mid-write SIGKILL
    // leaves behind: a partial JSONL line with no newline.
    server.kill_hard();
    let log_path = state.0.join("sessions.jsonl");
    let committed_len = std::fs::metadata(&log_path).expect("log exists").len();
    let torn = br#"{"v":"carta.state.v1","tenant":"oem","id":"s4","csv":"never-ack"#;
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(&log_path)
        .expect("opens log");
    log.write_all(torn).expect("tears the tail");
    drop(log);

    // Restart on the same state dir; the restarted server counts its
    // own replay in `/v1/metrics`.
    let server = ServerProc::launch(&[state.env()]);
    let (body, metric) = metrics_of(server.addr);
    assert_eq!(
        metric("server.state.replayed"),
        acked.len() as f64,
        "{body}"
    );
    assert_eq!(
        metric("server.state.truncated_bytes"),
        torn.len() as f64,
        "{body}"
    );

    // Every acked session resolves, and its analysis is bit-identical
    // on the wire to the pre-crash run.
    for (id, _, before) in &acked {
        let (status, after) = analyze_session(server.addr, "oem", id);
        assert_eq!(status, 200, "acked session {id} lost: {after}");
        assert_eq!(
            &after, before,
            "post-restart analysis of {id} must be bit-identical"
        );
    }

    // The torn (never-acked) record is gone — both from the API and
    // from the repaired log file.
    let (status, body) = analyze_session(server.addr, "oem", "s4");
    assert_eq!(status, 404, "torn session must not resurrect: {body}");
    assert_eq!(
        std::fs::metadata(&log_path).expect("log exists").len(),
        committed_len,
        "replay truncated the log back to its committed prefix"
    );

    // Fresh uploads continue the id sequence past the restored ones.
    let id = upload(server.addr, "oem", &acked[0].1);
    assert_eq!(id, "s4", "ids continue after restore");
}

/// The soak's fleet: each client uploads to its own tenant in a loop,
/// and the server is killed once each cycle has `CLIENTS × ACKS` new
/// acks, so every kill lands while the fleet is still sending.
const CLIENTS: usize = 3;
const CYCLES: usize = 3;
const ACKS: usize = 2;
/// A per-tenant session quota the whole log fits in, so no eviction
/// can hide or fake a lost ack.
const MAX_SESSIONS: usize = 64;

/// The envelope a fresh in-process handler produces for this CSV:
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

#[test]
fn kill_9_under_live_uploads_loses_no_acked_session() {
    let state = StateDir::new("soak");
    let quota = MAX_SESSIONS.to_string();
    // A wide-open admission budget: the soak checks replay, not
    // shedding, and a degraded analyze would not be bit-identical.
    let env = [
        state.env(),
        ("CARTA_SERVER_MAX_SESSIONS", quota.as_str()),
        ("CARTA_SERVER_BUDGET", "1000"),
    ];
    let mut acked: Vec<(String, String, Arc<String>)> = Vec::new(); // (tenant, id, reference)
    let mut server = ServerProc::launch(&env);
    for cycle in 0..CYCLES {
        let (tx, rx) = mpsc::channel();
        let fleet: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let tenant = format!("fleet-{client}");
                let csv = generate_csv((cycle * CLIENTS + client) as u64);
                let reference = Arc::new(reference_envelope(&csv));
                let (addr, tx) = (server.addr, tx.clone());
                let path = format!("/v1/tenants/{tenant}/sessions");
                std::thread::spawn(move || loop {
                    match request(addr, "POST", &path, None, &csv) {
                        Ok((201, _, body)) => {
                            let ack = (tenant.clone(), session_id(&body), Arc::clone(&reference));
                            tx.send(ack).expect("the supervisor listens");
                        }
                        ended => return ended,
                    }
                })
            })
            .collect();
        drop(tx);
        for _ in 0..CLIENTS * ACKS {
            let ack = rx
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|e| panic!("cycle {cycle}: fleet stopped before the kill: {e}"));
            acked.push(ack);
        }
        server.kill_hard();
        for client in fleet {
            let ended = client.join().expect("client thread joins");
            assert!(
                ended.is_err(),
                "cycle {cycle}: a client loop ended on a response, not the kill: {ended:?}"
            );
        }
        acked.extend(rx.try_iter());

        // Each client had at most one upload in flight at each kill, so
        // at most that many unacked records may come back.
        server = ServerProc::launch(&env);
        let (body, metric) = metrics_of(server.addr);
        let replayed = metric("server.state.replayed") as usize;
        let bound = acked.len() + CLIENTS * (cycle + 1);
        assert!(
            (acked.len()..=bound).contains(&replayed) && bound < MAX_SESSIONS,
            "cycle {cycle}: {} acked, {replayed} replayed, quota {MAX_SESSIONS}: {body}",
            acked.len()
        );
        for (tenant, id, reference) in &acked {
            let (status, body) = analyze_session(server.addr, tenant, id);
            assert_eq!(
                status, 200,
                "cycle {cycle}: acked session {tenant}/{id} lost: {body}"
            );
            assert_eq!(
                &body,
                reference.as_ref(),
                "cycle {cycle}: {tenant}/{id} not bit-identical after restart"
            );
        }
    }
}

/// `SIGTERM` drains and exits 0 within the drain budget:
/// orchestrators see a clean stop, not a crash.
#[cfg(unix)]
#[test]
fn sigterm_drains_and_exits_zero() {
    let mut server = ServerProc::launch(&[("CARTA_SERVER_DRAIN_MS", "2000")]);
    server.sigterm();
    // The 2 s drain budget plus a 5 s margin.
    let deadline = Instant::now() + Duration::from_secs(7);
    let status = loop {
        if let Some(status) = server.child.try_wait().expect("waitable child") {
            break status;
        }
        assert!(Instant::now() < deadline, "no exit within the drain budget");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "SIGTERM must exit 0, got {status}");
}
