//! **E1 — Sec. 4 experiment 1**: "we assumed zero jitters and verified
//! that all messages will meet their deadlines", and the point the
//! paper stresses: such what-if observations run "within minutes,
//! without any simulation or test equipment" — here, microseconds. The
//! analysis time is a wall-clock reading, so it goes to
//! [`Record::wall_clock`].

use crate::{case_study, Record};
use carta_explore::jitter::with_jitter_ratio;
use carta_explore::scenario::Scenario;
use std::fmt::{self, Write};
use std::time::Instant;

/// Writes the E1 section.
pub(crate) fn run(out: &mut Record) -> fmt::Result {
    writeln!(out, "=== Experiment 1: zero jitters, no errors ===\n")?;
    let net = with_jitter_ratio(&case_study(), 0.0);
    let t0 = Instant::now();
    let report = Scenario::best_case().analyze(&net).expect("valid");
    out.wall_clock.push(format!(
        "exp1_zero_jitter: analysis wall time {:?} (paper: \"within minutes\")",
        t0.elapsed()
    ));

    writeln!(
        out,
        "{:<20} {:>10} {:>10} {:>8}",
        "message (10 slowest responses)", "WCRT", "deadline", "ok"
    )?;
    let mut rows: Vec<_> = report.messages.iter().collect();
    rows.sort_by_key(|m| std::cmp::Reverse(m.outcome.wcrt()));
    for m in rows.iter().take(10) {
        writeln!(
            out,
            "{:<20} {:>10} {:>10} {:>8}",
            m.name,
            m.outcome.wcrt().map(|t| t.to_string()).unwrap_or_default(),
            m.deadline.to_string(),
            if m.misses_deadline() { "MISS" } else { "yes" }
        )?;
    }
    writeln!(
        out,
        "\nresult: {} / {} deadlines met -> {}",
        report.messages.len() - report.missed_count(),
        report.messages.len(),
        if report.schedulable() {
            "VERIFIED (as in the paper)"
        } else {
            "FAILED"
        }
    )
}
