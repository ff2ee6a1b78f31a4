//! Malformed configuration must stop the real binary from booting: a
//! skipped `CARTA_SERVER_TOKENS` entry could leave the token map empty,
//! which would serve every tenant without auth, and a silently ignored
//! numeric knob would run a configuration nobody asked for.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Boots `carta-server` with `key=value` and returns its stderr after
/// asserting it exited non-zero without ever listening.
fn refused_boot(key: &str, value: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_carta-server"))
        .env("CARTA_SERVER_ADDR", "127.0.0.1:0")
        .env(key, value)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawns carta-server");
    // A regression would boot and serve forever: bound the wait.
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("waitable") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("carta-server booted with {key}={value:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("readable stderr");
    assert!(!status.success(), "{stderr}");
    assert!(!stderr.contains("listening on"), "{stderr}");
    stderr
}

#[test]
fn malformed_token_map_refuses_to_boot() {
    let stderr = refused_boot("CARTA_SERVER_TOKENS", "tok:oem");
    assert!(stderr.contains("\"tok:oem\""), "{stderr}");
}

#[test]
fn unparsable_worker_count_refuses_to_boot() {
    let stderr = refused_boot("CARTA_SERVER_WORKERS", "four");
    assert!(stderr.contains("CARTA_SERVER_WORKERS=\"four\""), "{stderr}");
}
