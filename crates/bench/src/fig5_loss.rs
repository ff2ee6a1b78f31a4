//! **F5 — Figure 5**: "Message Loss due to Jitter before and after
//! Optimization" — the paper's headline result. Four curves:
//!
//! * non-optimized best case (no errors, no stuffing),
//! * non-optimized worst case (burst errors + stuffing + min re-arrival
//!   deadline),
//! * optimized best case,
//! * optimized worst case,
//!
//! where "optimized" is the SPEA2 CAN-ID assignment of Sec. 4.3.
//!
//! Expected shape vs. the paper: best case flat at 0 % until ≈ 25–30 %
//! jitter then slightly rising; worst case losing messages from very
//! small jitters and rising rapidly; optimized worst case at 0 %
//! through the 25 % design point. The GA optimizes the worst case only:
//! nothing keeps the optimized best case below the non-optimized one
//! at every grid point.
//!
//! The optimizer's run time is a wall-clock reading, so it goes to
//! [`Record::wall_clock`]; its evaluation count is deterministic and
//! stays in the record.

use crate::plot::{line_chart, Series};
use crate::{case_study, write_jitter_header, write_loss_curve, Record};
use carta_engine::prelude::Evaluator;
use carta_explore::loss::paper_jitter_grid;
use carta_explore::scenario::Scenario;
use carta_explore::sweeps::Sweeps;
use carta_optim::canid::{optimize_can_ids, OptimizeIdsConfig};
use carta_optim::spea2::Spea2Config;
use std::fmt::{self, Write};
use std::time::Instant;

/// Writes the F5 section.
pub(crate) fn run(out: &mut Record) -> fmt::Result {
    writeln!(
        out,
        "=== Figure 5: message loss vs jitter, before/after optimization ===\n"
    )?;
    let net = case_study();
    let grid = paper_jitter_grid();
    let eval = Evaluator::default();

    let best = eval
        .loss_vs_jitter(&net, &Scenario::best_case(), &grid)
        .expect("valid");
    let worst = eval
        .loss_vs_jitter(&net, &Scenario::worst_case(), &grid)
        .expect("valid");

    let config = OptimizeIdsConfig {
        spea2: Spea2Config {
            population: 60,
            archive: 30,
            generations: 40,
            // Same budget and seed as the figure-5 acceptance test.
            seed: 3,
            ..Spea2Config::default()
        },
        ..OptimizeIdsConfig::default()
    };
    writeln!(
        out,
        "running SPEA2 (population {}, archive {}, {} generations)...",
        config.spea2.population, config.spea2.archive, config.spea2.generations
    )?;
    let t0 = Instant::now();
    let result = optimize_can_ids(&net, &config);
    out.wall_clock
        .push(format!("fig5_loss: optimizer wall time {:?}", t0.elapsed()));
    writeln!(
        out,
        "optimizer finished after {} evaluations\n",
        result.archive.evaluations
    )?;

    let opt_best = eval
        .loss_vs_jitter(&result.optimized, &Scenario::best_case(), &grid)
        .expect("valid");
    let opt_worst = eval
        .loss_vs_jitter(&result.optimized, &Scenario::worst_case(), &grid)
        .expect("valid");

    writeln!(out, "loss in % of all messages:\n")?;
    write_jitter_header(out, &grid)?;
    write_loss_curve(out, "non-opt. best case", &best)?;
    write_loss_curve(out, "non-opt. worst case", &worst)?;
    write_loss_curve(out, "optimized best case", &opt_best)?;
    write_loss_curve(out, "optimized worst case", &opt_worst)?;

    // The figure itself, as ASCII.
    let x: Vec<String> = grid.iter().map(|r| format!("{:.0}", r * 100.0)).collect();
    let to_series = |label: &str, mark: char, curve: &carta_explore::loss::LossCurve| Series {
        label: label.into(),
        mark,
        values: curve
            .points
            .iter()
            .map(|p| Some(p.fraction() * 100.0))
            .collect(),
    };
    writeln!(
        out,
        "\n{}",
        line_chart(
            &x,
            &[
                to_series("non-optimized best case", 'b', &best),
                to_series("non-optimized worst case", 'W', &worst),
                to_series("optimized best case", 'o', &opt_best),
                to_series("optimized worst case", 'P', &opt_worst),
            ],
            14,
            "%",
        )
    )?;

    writeln!(
        out,
        "zero-loss prefix, worst case: non-optimized {}, optimized {}",
        worst
            .zero_loss_up_to()
            .map(|r| format!("up to {:.0} %", r * 100.0))
            .unwrap_or_else(|| "none".into()),
        opt_worst
            .zero_loss_up_to()
            .map(|r| format!("up to {:.0} %", r * 100.0))
            .unwrap_or_else(|| "none".into()),
    )?;
    let at25 = opt_worst.fraction_at(0.25).expect("sampled");
    writeln!(
        out,
        "paper claim check — optimized system at 25 % jitter with errors and stuffing: \
         {:.1} % loss (paper: \"does not loose a single message\")",
        at25 * 100.0
    )
}
