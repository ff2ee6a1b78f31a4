//! **A3 — baseline comparison** for the Sec. 4.3 optimization: the
//! original (legacy) identifier assignment vs. three repair strategies:
//!
//! * **rate-monotonic** — the textbook static rule,
//! * **Audsley OPA** — optimal *feasibility* at the 25 % design point,
//! * **SPEA2** — the paper's multi-objective search, which also trades
//!   off high-jitter loss and robustness.

use crate::{case_study, write_jitter_header, write_loss_curve, Record};
use carta_can::opa::audsley_assignment;
use carta_engine::prelude::Evaluator;
use carta_explore::jitter::with_jitter_ratio;
use carta_explore::loss::paper_jitter_grid;
use carta_explore::scenario::Scenario;
use carta_explore::sweeps::Sweeps;
use carta_optim::canid::{optimize_can_ids, CanIdProblem, OptimizeIdsConfig};
use carta_optim::spea2::Spea2Config;
use std::fmt::{self, Write};

/// Writes the A3 section.
pub(crate) fn run(out: &mut Record) -> fmt::Result {
    writeln!(
        out,
        "=== A3: identifier-assignment baselines (worst-case scenario) ===\n"
    )?;
    let net = case_study();
    let grid = paper_jitter_grid();
    let scenario = Scenario::worst_case();

    // Rate monotonic.
    let problem = CanIdProblem::new(&net, scenario.clone(), vec![0.25]);
    let rm = problem.apply(&problem.rate_monotonic());

    // Audsley at the 25 % design point.
    let prepared = scenario.apply(&with_jitter_ratio(&net, 0.25));
    let opa = audsley_assignment(
        &prepared,
        scenario.errors.model().as_ref(),
        &scenario.analysis_config(),
    )
    .expect("valid network");
    let opa_net = opa.as_ref().map(|order| order.apply(&net));
    writeln!(
        out,
        "Audsley OPA at 25 % jitter: {}",
        if opa.is_some() {
            "feasible order found"
        } else {
            "infeasible"
        }
    )?;

    // SPEA2 with the experiment budget.
    let result = optimize_can_ids(
        &net,
        &OptimizeIdsConfig {
            spea2: Spea2Config {
                population: 60,
                archive: 30,
                generations: 40,
                ..Spea2Config::default()
            },
            ..OptimizeIdsConfig::default()
        },
    );

    writeln!(out)?;
    write_jitter_header(out, &grid)?;
    let eval = Evaluator::default();
    let orig = eval.loss_vs_jitter(&net, &scenario, &grid).expect("valid");
    write_loss_curve(out, "original (legacy IDs)", &orig)?;
    let rm_curve = eval.loss_vs_jitter(&rm, &scenario, &grid).expect("valid");
    write_loss_curve(out, "rate-monotonic", &rm_curve)?;
    if let Some(opa_net) = &opa_net {
        let c = eval
            .loss_vs_jitter(opa_net, &scenario, &grid)
            .expect("valid");
        write_loss_curve(out, "Audsley OPA @25%", &c)?;
    }
    let ga = eval
        .loss_vs_jitter(&result.optimized, &scenario, &grid)
        .expect("valid");
    write_loss_curve(out, "SPEA2 (paper Sec. 4.3)", &ga)?;

    writeln!(
        out,
        "\nreading: every repair is loss-free at the 25 % design point, where OPA proves\n\
         feasibility and nothing more (10.9 % at 30 %). Rate-monotonic is loss-free up\n\
         to 40 % and lowest from 45 to 55 %; SPEA2 with this seed is loss-free up to\n\
         30 % and reads 43.8 % at 60 %, above the legacy IDs' 39.1 %. No assignment is\n\
         lowest at every jitter."
    )
}
