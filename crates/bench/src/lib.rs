//! The reproduction record of the paper's evaluation: every figure and
//! experiment (DESIGN.md §3) is a library function that writes its
//! deterministic text into a [`Record`]. [`run_all`] runs them in
//! sequence, in process; the `run_all` binary prints the result. The
//! record is pinned by `tests/run_all_golden.rs`, and EXPERIMENTS.md
//! quotes it.

mod plot;

mod ablation_baselines;
mod ablation_error_models;
mod exp1_zero_jitter;
mod exp2_realistic;
mod fig1_load;
mod fig2_trace;
mod fig3_scope;
mod fig4_sensitivity;
mod fig5_loss;
mod fig6_duality;

use carta_explore::loss::LossCurve;
use carta_kmatrix::generator::powertrain_default;
use carta_kmatrix::model::KMatrix;
use std::fmt::{self, Write};

/// What the experiments write.
#[derive(Debug, Default)]
pub struct Record {
    /// The deterministic text: the same bytes on every run, at any
    /// `CARTA_JOBS`, in debug and in release.
    pub text: String,
    /// Wall-clock readings, one line each. They differ from run to run,
    /// so they stay out of `text`.
    pub wall_clock: Vec<String>,
}

impl Write for Record {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.text.push_str(s);
        Ok(())
    }
}

/// One experiment: writes its section of the record.
type Experiment = fn(&mut Record) -> fmt::Result;

/// Every section of the record in order, under its name.
const SECTIONS: [(&str, Experiment); 10] = [
    ("fig1_load", fig1_load::run),
    ("fig2_trace", fig2_trace::run),
    ("fig3_scope", fig3_scope::run),
    ("exp1_zero_jitter", exp1_zero_jitter::run),
    ("exp2_realistic", exp2_realistic::run),
    ("fig4_sensitivity", fig4_sensitivity::run),
    ("fig5_loss", fig5_loss::run),
    ("fig6_duality", fig6_duality::run),
    ("ablation_error_models", ablation_error_models::run),
    ("ablation_baselines", ablation_baselines::run),
];

/// Runs every section in order and returns the whole record.
pub fn run_all() -> Record {
    let mut record = Record::default();
    write_all(&mut record).expect("writing to a String cannot fail");
    record
}

fn write_all(record: &mut Record) -> fmt::Result {
    for (name, experiment) in SECTIONS {
        writeln!(record, "\n{:=^78}\n", format!(" {name} "))?;
        experiment(record)?;
    }
    writeln!(record, "\n{:=^78}", " done ")?;
    writeln!(record, "all {} experiments completed", SECTIONS.len())
}

/// The case-study network used by every experiment.
fn case_study() -> carta_can::network::CanNetwork {
    case_study_matrix()
        .to_network()
        .expect("generated matrix is always convertible")
}

/// The case-study K-Matrix (seed 42).
fn case_study_matrix() -> KMatrix {
    powertrain_default()
}

/// Writes a loss curve as one aligned row, the textual form of one
/// Figure-5 series.
fn write_loss_curve(out: &mut impl Write, label: &str, curve: &LossCurve) -> fmt::Result {
    write!(out, "{label:<26} |")?;
    for p in &curve.points {
        write!(out, " {:5.1}", p.fraction() * 100.0)?;
    }
    writeln!(out)
}

/// Writes the shared jitter header row for curve tables.
fn write_jitter_header(out: &mut impl Write, ratios: &[f64]) -> fmt::Result {
    write!(out, "{:<26} |", "jitter in % of period")?;
    for r in ratios {
        write!(out, " {:5.0}", r * 100.0)?;
    }
    writeln!(out)?;
    writeln!(out, "{}", "-".repeat(28 + 6 * ratios.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_is_stable() {
        let net = case_study();
        assert_eq!(net.messages().len(), 64);
        assert_eq!(net.nodes().len(), 8);
    }
}
