//! Pins the reproduction record byte for byte, and EXPERIMENTS.md to it.
//!
//! A change that moves any number of the paper's evaluation fails
//! `record_is_pinned` until the golden is re-pinned and CHANGES.md says
//! why. Re-pin after an intentional change with
//! `CARTA_UPDATE_GOLDEN=1 cargo test -p carta-bench --test run_all_golden`.

use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/run_all.txt")
}

fn read(path: &PathBuf) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read `{}`: {e}", path.display()))
}

#[test]
fn record_is_pinned() {
    let text = carta_bench::run_all().text;
    let path = golden_path();
    if std::env::var_os("CARTA_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    assert_eq!(
        text,
        read(&path),
        "the record drifted from {} (CARTA_UPDATE_GOLDEN=1 to re-pin)",
        path.display()
    );
}

/// Every fenced block of EXPERIMENTS.md is a verbatim excerpt of the
/// golden record, so the document cannot drift from the code.
#[test]
fn experiments_md_quotes_the_record() {
    let golden = read(&golden_path());
    let doc_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc = read(&doc_path);
    let mut blocks = Vec::new();
    let mut open: Option<String> = None;
    for line in doc.lines() {
        match (&mut open, line.starts_with("```")) {
            (None, true) => open = Some(String::new()),
            (Some(block), true) => {
                blocks.push(std::mem::take(block));
                open = None;
            }
            (Some(block), false) => {
                block.push_str(line);
                block.push('\n');
            }
            (None, false) => {}
        }
    }
    assert!(
        open.is_none(),
        "unterminated fenced block in EXPERIMENTS.md"
    );
    assert!(!blocks.is_empty(), "EXPERIMENTS.md quotes nothing");
    for block in &blocks {
        assert!(
            golden.contains(block.as_str()),
            "EXPERIMENTS.md block is not an excerpt of {}:\n{block}",
            golden_path().display()
        );
    }
}
