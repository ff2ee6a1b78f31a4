//! **F3 — Figure 3**: "Information Required for Reliable Schedulability
//! Analysis" and the OEM's actual scope (the gray area). Writes the
//! readiness report: what the OEM knows first-hand, what must be
//! covered by assumptions, and how datasheets shrink the gap.

use crate::{case_study, case_study_matrix, Record};
use carta_contract::scope::{analysis_readiness, InformationScope};
use std::fmt::{self, Write};

/// Writes the F3 section.
pub(crate) fn run(out: &mut Record) -> fmt::Result {
    writeln!(out, "=== Figure 3: information scopes ===\n")?;
    let matrix = case_study_matrix();
    let net = case_study();
    let known: Vec<String> = matrix
        .rows
        .iter()
        .filter(|r| r.jitter_us.is_some())
        .map(|r| r.name.clone())
        .collect();

    writeln!(
        out,
        "OEM first-hand knowledge: K-Matrix statics ({} messages), controller types, \
         {} published send jitters\n",
        matrix.rows.len(),
        known.len()
    )?;

    let mut scope = InformationScope::oem(known);
    let report = analysis_readiness(&scope, &net);
    writeln!(out, "--- initial readiness ---")?;
    writeln!(
        out,
        "can run: {} | complete: {} | assumptions needed: {}",
        report.can_run(),
        report.is_complete(),
        report.assumptions_needed.len()
    )?;
    for a in report.assumptions_needed.iter().take(6) {
        writeln!(out, "  needs assumption: {a}")?;
    }
    writeln!(
        out,
        "  ... ({} more)\n",
        report.assumptions_needed.len().saturating_sub(6)
    )?;

    // Suppliers publish datasheets for everything; the error model and
    // flashing profile are agreed contractually.
    for m in net.messages() {
        scope.learn_jitter(&m.name);
    }
    scope.error_model = true;
    scope.flashing_profile = true;
    let report = analysis_readiness(&scope, &net);
    writeln!(out, "--- after all datasheets arrived ---")?;
    write!(out, "{report}")
}
