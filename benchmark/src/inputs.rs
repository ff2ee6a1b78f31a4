//! Seeded inputs shared by the workloads: generated K-Matrices and the
//! direct per-layer probes run on them.

use crate::trace::{Open, Tracer};
use carta_can::compiled::{CompiledBus, RtaWorkspace, SolvePoint, SolveStats};
use carta_can::error_model::NoErrors;
use carta_can::network::CanNetwork;
use carta_can::prob::prob_from_reports;
use carta_core::analysis::AnalysisError;
use carta_engine::prelude::{BaseSystem, Evaluator, Scenario, SystemVariant};
use carta_kmatrix::csv::{from_csv, to_csv};
use carta_kmatrix::generator::{powertrain_kmatrix, CaseStudyConfig};
use carta_kmatrix::model::KMatrix;

/// Seed of the matrix [`warm_up_probe`] runs on. The probed matrices are
/// drawn from other seeds.
const WARM_UP_SEED: u64 = 0x5EED_3A93;

/// The 64-message power-train K-Matrix for `seed`: the paper's case
/// study shape with seed-dependent signals, senders, legacy identifier
/// inversions and known jitters.
pub fn kmatrix(seed: u64) -> KMatrix {
    powertrain_kmatrix(&CaseStudyConfig {
        seed,
        ..CaseStudyConfig::default()
    })
}

/// Runs every probed call once, untimed, on a matrix other than the
/// probed one: a probe thread then starts with warm instruction and data
/// caches, as the evaluator it is compared with does, but without the
/// probed network in the engine's per-thread scratch state, which would
/// turn the evaluator's miss into a partial hit.
pub fn warm_up_probe(scenario: &Scenario, prob: bool) {
    let csv = to_csv(&kmatrix(WARM_UP_SEED));
    let net = from_csv(&csv)
        .expect("a generated matrix parses")
        .to_network()
        .expect("a generated matrix converts");
    let mut off = Tracer::new(false);
    let _ = probe_kernel(&mut off, 0, None, &net, scenario, prob);
    let variant = SystemVariant::new(BaseSystem::new(net), scenario.clone());
    let _ = Evaluator::builder().jobs(1).build().evaluate(&variant);
}

/// Direct timings of the compile, solve and probabilistic-refinement
/// layers on one network under one scenario, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// `CompiledBus::compile`.
    pub compile_s: f64,
    /// One `solve_point` of the scenario's full error model, cold.
    pub solve_s: f64,
    /// Work accounting of that solve.
    pub stats: SolveStats,
    /// The error-free solve plus `prob_from_reports`, when asked for.
    pub prob: Option<(f64, f64)>,
}

/// Times the kernel layers on `net` under `scenario`, each call as one
/// span under `parent`: compile, a cold solve of the full scenario and,
/// with `prob`, the error-free solve and the refinement
/// `prob_from_reports` — the work an uncached `Evaluator::evaluate`
/// (or `evaluate_prob`) does, without the engine around it.
///
/// # Errors
///
/// Propagates compile and refinement errors (invalid models).
pub fn probe_kernel(
    tr: &mut Tracer,
    op: u64,
    parent: Option<&Open>,
    net: &CanNetwork,
    scenario: &Scenario,
    prob: bool,
) -> Result<Probe, AnalysisError> {
    let (compiled, compile_s) = tr.time("can.compile", op, parent, || {
        CompiledBus::compile(net, scenario.stuffing)
    });
    let compiled = compiled?;
    let point = SolvePoint::from_network(&scenario.apply(net));
    let errors = scenario.errors.model();
    let config = scenario.analysis_config();
    let mut ws = RtaWorkspace::new();
    let (full, solve_s) = tr.time("can.solve", op, parent, || {
        compiled.solve_point(&point, errors.as_ref(), &config, &mut ws)
    });
    let stats = ws.last_stats();
    let prob = if prob {
        let (base, base_s) = tr.time("can.solve", op, parent, || {
            compiled.solve_point(&point, &NoErrors, &config, &mut RtaWorkspace::new())
        });
        let (refined, refine_s) = tr.time("can.prob_refine", op, parent, || {
            prob_from_reports(&compiled, &base, &full, errors.as_ref())
        });
        refined?;
        Some((base_s, refine_s))
    } else {
        None
    };
    Ok(Probe {
        compile_s,
        solve_s,
        stats,
        prob,
    })
}
