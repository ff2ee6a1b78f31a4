//! Golden pins for the CLI text surface.
//!
//! Every deterministic subcommand's output is committed under
//! `tests/golden/` and compared byte-for-byte. The pins exist so the
//! `carta-api` handler refactor (CLI and server as two thin frontends
//! over one request/response layer) provably cannot move a single byte
//! of the user-visible text.
//!
//! Regenerate after an intentional output change with
//! `CARTA_UPDATE_GOLDEN=1 cargo test -p carta-cli --test golden_cli`.

mod common;

use carta_cli::args::ParsedArgs;
use carta_cli::commands::run;
use common::ScratchDir;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn check(name: &str, argv: &[&str]) {
    let parsed = ParsedArgs::parse(argv.iter().copied()).expect("argv parses");
    let out = run(&parsed).unwrap_or_else(|e| panic!("`{argv:?}` failed: {e}"));
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var_os("CARTA_UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("mkdir golden");
        std::fs::write(&path, &out).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden `{}`: {e}", path.display()));
    assert_eq!(
        out,
        want,
        "`{argv:?}` drifted from {} (CARTA_UPDATE_GOLDEN=1 to re-pin)",
        path.display()
    );
}

/// Every deterministic command of the surface, pinned byte-for-byte.
/// `--jobs 1` keeps cache-statistics lines independent of the host's
/// core count; all seeds are fixed.
#[test]
fn cli_text_output_is_pinned() {
    check("help", &["help"]);
    check("generate_seed7", &["generate", "--seed", "7"]);
    check("load_builtin", &["load", "-"]);
    check("load_fd", &["load", "-", "--backend", "can-fd"]);
    check("analyze_worst", &["analyze", "-", "--jobs", "1"]);
    check(
        "analyze_best",
        &["analyze", "-", "--scenario", "best", "--jobs", "1"],
    );
    check(
        "analyze_jitter40",
        &["analyze", "-", "--jitter", "40", "--jobs", "1"],
    );
    check(
        "analyze_fd",
        &["analyze", "-", "--backend", "can-fd", "--jobs", "1"],
    );
    check(
        "analyze_sporadic10",
        &["analyze", "-", "--scenario", "sporadic:10", "--jobs", "1"],
    );
    check(
        "analyze_assume_unknown",
        &["analyze", "-", "--assume-unknown", "15", "--jobs", "1"],
    );
    check("analyze_prob", &["analyze", "-", "--prob", "--jobs", "1"]);
    check(
        "analyze_prob_fd",
        &[
            "analyze",
            "-",
            "--prob",
            "--backend",
            "can-fd",
            "--jobs",
            "1",
        ],
    );
    check("loss_prob", &["loss", "-", "--prob", "--jobs", "1"]);
    check(
        "loss_prob_fd",
        &["loss", "-", "--prob", "--backend", "can-fd", "--jobs", "1"],
    );
    check("loss_worst", &["loss", "-", "--jobs", "1"]);
    check(
        "loss_sporadic10",
        &["loss", "-", "--scenario", "sporadic:10", "--jobs", "1"],
    );
    check("sensitivity_all", &["sensitivity", "-", "--jobs", "1"]);
    check(
        "sensitivity_one",
        &[
            "sensitivity",
            "-",
            "--message",
            "clutch_torque_1",
            "--jobs",
            "1",
        ],
    );
    check("audsley_jitter25", &["audsley", "-", "--jitter", "25"]);
    check("dimension_default", &["dimension", "-", "--jobs", "1"]);
    check(
        "dimension_250_500",
        &["dimension", "-", "--rates", "250,500", "--jobs", "1"],
    );
    check(
        "simulate_gantt",
        &[
            "simulate", "-", "--millis", "100", "--seed", "42", "--errors", "7", "--gantt",
        ],
    );
    check("lint_builtin", &["lint", "-"]);
    check(
        "optimize_small",
        &[
            "optimize",
            "-",
            "--population",
            "8",
            "--generations",
            "2",
            "--jobs",
            "1",
        ],
    );
    check(
        "optimize_emit_csv",
        &[
            "optimize",
            "-",
            "--population",
            "8",
            "--generations",
            "2",
            "--emit-csv",
            "--jobs",
            "1",
        ],
    );
    check(
        "fuzz_2cases",
        &["fuzz", "--cases", "2", "--seed", "2006", "--jobs", "1"],
    );
}

/// `diff` and degraded `analyze` need scratch files; the outputs are
/// still deterministic and pinned.
#[test]
fn cli_file_commands_are_pinned() {
    let dir = ScratchDir::new("cli_file_commands_are_pinned");
    let base = dir.path("base.csv");
    let csv =
        run(&ParsedArgs::parse(["generate", "--seed", "7"]).expect("parses")).expect("generates");
    std::fs::write(&base, &csv).expect("write");
    let flooded = dir.path("flooded.csv");
    std::fs::write(&flooded, format!("{csv}flood,0x7fa,0,8,50,,,EMS,TCU\n")).expect("write");

    let base_s = base.to_str().expect("utf8");
    let flooded_s = flooded.to_str().expect("utf8");
    check("diff_self", &["diff", base_s, base_s, "--jobs", "1"]);
    check("diff_flood", &["diff", base_s, flooded_s, "--jobs", "1"]);
    check("analyze_degraded", &["analyze", flooded_s, "--jobs", "1"]);
}
