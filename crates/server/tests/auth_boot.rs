//! A malformed `CARTA_SERVER_TOKENS` must stop the real binary from
//! booting: skipping the bad entry could leave the token map empty,
//! which would serve every tenant without auth.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn malformed_token_map_refuses_to_boot() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_carta-server"))
        .env("CARTA_SERVER_ADDR", "127.0.0.1:0")
        .env("CARTA_SERVER_TOKENS", "tok:oem")
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
            panic!("carta-server booted with a malformed token map");
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
    assert!(stderr.contains("\"tok:oem\""), "{stderr}");
    assert!(!stderr.contains("listening on"), "{stderr}");
}
