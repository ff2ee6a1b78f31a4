//! The single interpreter of [`Request`]s over the analysis engine.
//!
//! Both frontends — the `carta` CLI and `carta-server` — construct a
//! [`Handler`] and call [`Handler::handle`]; neither contains any
//! analysis logic of its own. The handler owns (or borrows, in the
//! server's per-tenant pools) one [`Evaluator`] whose memo cache is
//! shared across requests. It reports through that evaluator's
//! [`carta_obs::Obs`]: request phases time into `phase.*`, and the
//! `optimize` and `fuzz` runs hand it to the evaluators they build.

use crate::error::ApiError;
use crate::request::{Model, ModelSource, Request};
use crate::response::{
    AnalyzeReport, AudsleyRow, FuzzReplay, FuzzSummary, LoadSummary, OptimizeSummary,
    ProbAnalyzeReport, Response, SimulateSummary,
};
use carta_can::frame::StuffingMode;
use carta_can::network::CanNetwork;
use carta_can::opa::audsley_assignment;
use carta_core::time::Time;
use carta_engine::prelude::{BaseSystem, CancelToken, Evaluator, Parallelism, SystemVariant};
use carta_explore::extensibility::EcuTemplate;
use carta_explore::jitter::{with_assumed_unknown_jitter, with_jitter_ratio};
use carta_explore::loss::paper_jitter_grid;
use carta_explore::sweeps::Sweeps;
use carta_kmatrix::csv::{from_csv, to_csv};
use carta_kmatrix::generator::{powertrain_kmatrix, CaseStudyConfig};
use carta_kmatrix::model::KMatrix;
use std::sync::Arc;

/// Materializes a model's K-Matrix (without network conversion).
///
/// # Errors
///
/// Returns [`crate::error::ErrorCode::ModelInvalid`] when the CSV does
/// not parse.
pub fn load_matrix(source: &ModelSource) -> Result<KMatrix, ApiError> {
    match source {
        ModelSource::CaseStudy { seed } => Ok(powertrain_kmatrix(&CaseStudyConfig {
            seed: *seed,
            ..CaseStudyConfig::default()
        })),
        ModelSource::Csv(text) => from_csv(text).map_err(|e| ApiError::model(e.to_string())),
    }
}

/// Materializes a model's network: matrix → network, then backend,
/// then the jitter overrides, in the order the CLI has always applied
/// them.
///
/// # Errors
///
/// Returns [`crate::error::ErrorCode::ModelInvalid`] for unparsable or
/// structurally invalid models.
pub fn load_network(model: &Model) -> Result<CanNetwork, ApiError> {
    let matrix = load_matrix(&model.source)?;
    let mut net = matrix
        .to_network()
        .map_err(|e| ApiError::model(e.to_string()))?;
    net.set_backend(model.options.backend);
    if let Some(pct) = model.options.jitter_pct {
        net = with_jitter_ratio(&net, pct / 100.0);
    }
    if let Some(pct) = model.options.assume_unknown_pct {
        net = with_assumed_unknown_jitter(&net, pct / 100.0);
    }
    Ok(net)
}

/// The shared request interpreter.
#[derive(Debug, Clone)]
pub struct Handler {
    evaluator: Arc<Evaluator>,
    parallelism: Parallelism,
}

impl Handler {
    /// A handler with a fresh evaluator at the given parallelism
    /// (the CLI shape: one evaluator per invocation).
    pub fn new(parallelism: Parallelism) -> Self {
        Handler {
            evaluator: Arc::new(Evaluator::builder().parallelism(parallelism).build()),
            parallelism,
        }
    }

    /// A handler borrowing an existing evaluator (the server shape:
    /// per-tenant pooled evaluators with cache quotas).
    pub fn with_evaluator(evaluator: Arc<Evaluator>, parallelism: Parallelism) -> Self {
        Handler {
            evaluator,
            parallelism,
        }
    }

    /// The evaluator answering this handler's requests.
    pub fn evaluator(&self) -> &Arc<Evaluator> {
        &self.evaluator
    }

    /// A cancel-scoped twin of this handler: it shares the same caches
    /// and counters (via [`Evaluator::scoped_cancel`]) but every
    /// evaluator-routed request polls `token` and surfaces a trip as
    /// `request.deadline_exceeded`. The server derives one per request
    /// from the drain token plus the request's `deadline_ms`.
    pub fn scoped_cancel(&self, token: CancelToken) -> Handler {
        Handler {
            evaluator: Arc::new(self.evaluator.scoped_cancel(token)),
            parallelism: self.parallelism,
        }
    }

    /// Interprets one request.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError`] carrying the stable `carta.api.v1` error
    /// code for every failure class; per-message divergence is *not*
    /// an error (degraded reports are successful responses).
    pub fn handle(&self, req: &Request) -> Result<Response, ApiError> {
        match req {
            Request::Generate { seed } => {
                let matrix = powertrain_kmatrix(&CaseStudyConfig {
                    seed: *seed,
                    ..CaseStudyConfig::default()
                });
                Ok(Response::Matrix {
                    csv: to_csv(&matrix),
                })
            }
            Request::Load { model } => self.load(model),
            Request::Analyze { model, scenario } => self.analyze(model, *scenario),
            Request::Loss { model, scenario } => self.loss(model, *scenario),
            Request::ProbAnalyze { model, scenario } => self.prob_analyze(model, *scenario),
            Request::ProbLoss { model, scenario } => self.prob_loss(model, *scenario),
            Request::Sensitivity {
                model,
                scenario,
                message,
            } => self.sensitivity(model, *scenario, message.as_deref()),
            Request::Audsley { model, scenario } => self.audsley(model, *scenario),
            Request::Optimize {
                model,
                population,
                generations,
                emit_csv,
            } => self.optimize(model, *population, *generations, *emit_csv),
            Request::Simulate {
                model,
                millis,
                seed,
                errors_ms,
                gantt,
            } => self.simulate(model, *millis, *seed, *errors_ms, *gantt),
            Request::Dimension {
                model,
                scenario,
                rates,
            } => self.dimension(model, *scenario, rates),
            Request::Lint { model } => {
                let matrix = load_matrix(&model.source)?;
                Ok(Response::Lint(carta_kmatrix::lint::lint(&matrix)))
            }
            Request::Diff {
                before,
                after,
                scenario,
            } => self.diff(before, after, *scenario),
            Request::Fuzz {
                cases,
                seed,
                laws,
                backend,
            } => self.fuzz(*cases, *seed, laws.as_deref(), *backend),
            Request::FuzzReplay { repro_json } => self.fuzz_replay(repro_json),
        }
    }

    fn load(&self, model: &Model) -> Result<Response, ApiError> {
        let net = {
            let _phase = self.evaluator.obs().phase("load");
            load_network(model)?
        };
        let worst = net.load(StuffingMode::WorstCase);
        let best = net.load(StuffingMode::None);
        Ok(Response::Load(LoadSummary {
            messages: net.messages().len(),
            bit_rate: net.bit_rate(),
            backend: net.backend().to_string(),
            worst_util_percent: worst.utilization_percent(),
            best_util_percent: best.utilization_percent(),
        }))
    }

    fn analyze(
        &self,
        model: &Model,
        scenario: crate::request::ScenarioSpec,
    ) -> Result<Response, ApiError> {
        let net = {
            let _phase = self.evaluator.obs().phase("load");
            load_network(model)?
        };
        let scenario = scenario.to_scenario();
        let report = {
            let _phase = self.evaluator.obs().phase("analyze");
            self.evaluator
                .evaluate(&SystemVariant::new(BaseSystem::new(net), scenario.clone()))?
        };
        Ok(Response::Analyze(AnalyzeReport {
            scenario: scenario.name,
            report,
        }))
    }

    fn loss(
        &self,
        model: &Model,
        scenario: crate::request::ScenarioSpec,
    ) -> Result<Response, ApiError> {
        let net = {
            let _phase = self.evaluator.obs().phase("load");
            load_network(model)?
        };
        let scenario = scenario.to_scenario();
        let grid = paper_jitter_grid();
        let curve = {
            let _phase = self.evaluator.obs().phase("analyze");
            self.evaluator.loss_vs_jitter(&net, &scenario, &grid)?
        };
        Ok(Response::Loss(curve))
    }

    fn prob_analyze(
        &self,
        model: &Model,
        scenario: crate::request::ScenarioSpec,
    ) -> Result<Response, ApiError> {
        let net = {
            let _phase = self.evaluator.obs().phase("load");
            load_network(model)?
        };
        let scenario = scenario.to_scenario();
        let report = {
            let _phase = self.evaluator.obs().phase("analyze");
            self.evaluator
                .evaluate_prob(&SystemVariant::new(BaseSystem::new(net), scenario.clone()))?
        };
        Ok(Response::ProbAnalyze(ProbAnalyzeReport {
            scenario: scenario.name,
            report,
        }))
    }

    fn prob_loss(
        &self,
        model: &Model,
        scenario: crate::request::ScenarioSpec,
    ) -> Result<Response, ApiError> {
        let net = {
            let _phase = self.evaluator.obs().phase("load");
            load_network(model)?
        };
        let scenario = scenario.to_scenario();
        let grid = paper_jitter_grid();
        let curve = {
            let _phase = self.evaluator.obs().phase("analyze");
            self.evaluator.prob_loss_vs_jitter(&net, &scenario, &grid)?
        };
        Ok(Response::ProbLoss(curve))
    }

    fn sensitivity(
        &self,
        model: &Model,
        scenario: crate::request::ScenarioSpec,
        message: Option<&str>,
    ) -> Result<Response, ApiError> {
        let net = {
            let _phase = self.evaluator.obs().phase("load");
            load_network(model)?
        };
        let scenario = scenario.to_scenario();
        let grid = paper_jitter_grid();
        let only = message.map(|m| vec![m]);
        let series = {
            let _phase = self.evaluator.obs().phase("analyze");
            self.evaluator
                .response_vs_jitter(&net, &scenario, &grid, only.as_deref())?
        };
        Ok(Response::Sensitivity(series))
    }

    fn audsley(
        &self,
        model: &Model,
        scenario: crate::request::ScenarioSpec,
    ) -> Result<Response, ApiError> {
        let net = {
            let _phase = self.evaluator.obs().phase("load");
            load_network(model)?
        };
        let scenario = scenario.to_scenario();
        let prepared = scenario.apply(&net);
        let order = audsley_assignment(
            &prepared,
            scenario.errors.model().as_ref(),
            &scenario.analysis_config(),
        )?;
        Ok(Response::Audsley(order.map(|order| {
            let fixed = order.apply(&net);
            order
                .strongest_first()
                .iter()
                .map(|&idx| AudsleyRow {
                    message: net.messages()[idx].name.clone(),
                    new_id: fixed.messages()[idx].id.to_string(),
                })
                .collect()
        })))
    }

    fn optimize(
        &self,
        model: &Model,
        population: usize,
        generations: usize,
        emit_csv: bool,
    ) -> Result<Response, ApiError> {
        use carta_optim::canid::{optimize_can_ids, OptimizeIdsConfig};
        use carta_optim::spea2::Spea2Config;
        // Jitter options are deliberately not applied here — the CLI's
        // `optimize` has always run on the as-modeled matrix.
        let (matrix, net) = {
            let _phase = self.evaluator.obs().phase("load");
            let matrix = load_matrix(&model.source)?;
            let mut net = matrix
                .to_network()
                .map_err(|e| ApiError::model(e.to_string()))?;
            net.set_backend(model.options.backend);
            (matrix, net)
        };
        let config = OptimizeIdsConfig {
            spea2: Spea2Config {
                population,
                archive: (population / 2).max(1),
                generations,
                ..Spea2Config::default()
            },
            parallelism: self.parallelism,
            obs: self.evaluator.obs().clone(),
            ..OptimizeIdsConfig::default()
        };
        let result = {
            let _phase = self.evaluator.obs().phase("analyze");
            optimize_can_ids(&net, &config)
        };
        if emit_csv {
            // Re-emit the matrix with the optimized identifiers.
            let mut out_matrix = matrix.clone();
            for (row, msg) in out_matrix.rows.iter_mut().zip(result.optimized.messages()) {
                debug_assert_eq!(row.name, msg.name);
                row.id = msg.id.raw();
            }
            return Ok(Response::Matrix {
                csv: to_csv(&out_matrix),
            });
        }
        let grid = paper_jitter_grid();
        let scenario = carta_engine::prelude::Scenario::worst_case();
        let loss_before = self.evaluator.loss_vs_jitter(&net, &scenario, &grid)?;
        let loss_after = self
            .evaluator
            .loss_vs_jitter(&result.optimized, &scenario, &grid)?;
        Ok(Response::Optimize(OptimizeSummary {
            evaluations: result.archive.evaluations,
            objectives: result.objectives,
            cache: result.cache,
            loss_before,
            loss_after,
        }))
    }

    fn simulate(
        &self,
        model: &Model,
        millis: u64,
        seed: u64,
        errors_ms: Option<u64>,
        gantt: bool,
    ) -> Result<Response, ApiError> {
        use carta_sim::engine::{simulate, SimConfig, SimStuffing};
        use carta_sim::gantt::{render, GanttConfig};
        use carta_sim::inject::{NoInjection, PeriodicInjection};
        let net = {
            let _phase = self.evaluator.obs().phase("load");
            load_network(model)?
        };
        let config = SimConfig {
            horizon: Time::from_ms(millis),
            seed,
            stuffing: SimStuffing::Random,
            record_trace: true,
        };
        let report = match errors_ms {
            Some(ms) => simulate(
                &net,
                &PeriodicInjection {
                    interval: Time::from_ms(ms),
                    phase: Time::from_us(137),
                },
                &config,
            ),
            None => simulate(&net, &NoInjection, &config),
        };
        let gantt = gantt.then(|| {
            let labels: Vec<String> = net.messages().iter().map(|m| m.name.clone()).collect();
            let window = Time::from_ms(millis.min(20));
            render(
                &report.trace,
                &labels,
                &GanttConfig {
                    from: Time::ZERO,
                    to: window,
                    columns: 100,
                },
            )
        });
        Ok(Response::Simulate(SimulateSummary {
            millis,
            observed_utilization: report.observed_utilization(),
            error_hits: report.trace.error_count(),
            stats: report.stats,
            gantt,
        }))
    }

    fn dimension(
        &self,
        model: &Model,
        scenario: crate::request::ScenarioSpec,
        rates: &[u64],
    ) -> Result<Response, ApiError> {
        let net = {
            let _phase = self.evaluator.obs().phase("load");
            load_network(model)?
        };
        let scenario = scenario.to_scenario();
        let options = {
            let _phase = self.evaluator.obs().phase("analyze");
            self.evaluator
                .compare_bit_rates(&net, &scenario, rates, &EcuTemplate::default())?
        };
        Ok(Response::Dimension(options))
    }

    fn diff(
        &self,
        before: &Model,
        after: &Model,
        scenario: crate::request::ScenarioSpec,
    ) -> Result<Response, ApiError> {
        use carta_explore::diff::diff_reports;
        let scenario = scenario.to_scenario();
        // Jitter options are not applied (parity with the CLI's
        // `diff`, which honors `--backend` only); the direct
        // `scenario.analyze` path keeps the diff independent of any
        // evaluator cache state.
        let net_before = load_matrix(&before.source)?
            .to_network()
            .map_err(|e| ApiError::model(e.to_string()))?
            .with_backend(before.options.backend);
        let net_after = load_matrix(&after.source)?
            .to_network()
            .map_err(|e| ApiError::model(e.to_string()))?
            .with_backend(after.options.backend);
        let report_before = scenario.analyze(&net_before)?;
        let report_after = scenario.analyze(&net_after)?;
        Ok(Response::Diff(diff_reports(&report_before, &report_after)))
    }

    fn fuzz(
        &self,
        cases: u64,
        seed: u64,
        laws: Option<&[String]>,
        backend: carta_can::backend::BackendConfig,
    ) -> Result<Response, ApiError> {
        use carta_testkit::prelude::{run_fuzz, FuzzConfig};
        let config = FuzzConfig {
            seed,
            cases,
            laws: laws.map(<[String]>::to_vec),
            parallelism: self.parallelism,
            backend,
            obs: self.evaluator.obs().clone(),
        };
        let report = {
            let _phase = self.evaluator.obs().phase("fuzz");
            run_fuzz(&config).map_err(|e| ApiError::request(e.to_string()))?
        };
        Ok(Response::Fuzz(FuzzSummary { report, cases }))
    }

    fn fuzz_replay(&self, repro_json: &str) -> Result<Response, ApiError> {
        use carta_testkit::prelude::{ReplayError, Repro};
        let repro = Repro::from_json(repro_json).map_err(|e| ApiError::request(e.to_string()))?;
        let _phase = self.evaluator.obs().phase("fuzz");
        match repro.replay() {
            Ok(()) => Ok(Response::FuzzReplay(FuzzReplay {
                law: repro.law,
                seed: repro.seed,
            })),
            // A retired/misspelled law name is a malformed request, not
            // a reproduced defect — it must not exit like a violation.
            Err(ReplayError::UnknownLaw(e)) => Err(ApiError::request(e.to_string())),
            Err(ReplayError::Violation(v)) => Err(ApiError::new(
                crate::error::ErrorCode::FuzzViolation,
                v.to_string(),
            )),
        }
    }
}

impl Default for Handler {
    fn default() -> Self {
        Handler::new(Parallelism::from_env())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ScenarioSpec;

    fn handler() -> Handler {
        Handler::new(Parallelism::sequential())
    }

    #[test]
    fn analyze_case_study_is_schedulable_under_best_case() {
        let resp = handler()
            .handle(&Request::Analyze {
                model: Model::case_study(),
                scenario: ScenarioSpec::Best,
            })
            .expect("analyzes");
        match resp {
            Response::Analyze(a) => {
                assert_eq!(a.scenario, "best case");
                assert_eq!(a.report.missed_count(), 0);
                assert_eq!(a.report.messages.len(), 64);
            }
            other => panic!("wrong response kind {}", other.kind()),
        }
    }

    #[test]
    fn generate_and_lint_share_the_matrix_pipeline() {
        let h = handler();
        let csv = match h.handle(&Request::Generate { seed: 7 }).expect("generates") {
            Response::Matrix { csv } => csv,
            other => panic!("wrong response kind {}", other.kind()),
        };
        assert!(csv.starts_with("#kmatrix,powertrain"));
        let lint = h
            .handle(&Request::Lint {
                model: Model::from_csv(csv),
            })
            .expect("lints");
        match lint {
            Response::Lint(findings) => assert!(!findings.is_empty()),
            other => panic!("wrong response kind {}", other.kind()),
        }
    }

    #[test]
    fn invalid_csv_maps_to_model_invalid() {
        let err = handler()
            .handle(&Request::Load {
                model: Model::from_csv("not,a,kmatrix"),
            })
            .expect_err("invalid");
        assert_eq!(err.code, crate::error::ErrorCode::ModelInvalid);
    }

    #[test]
    fn degraded_analysis_is_a_successful_response() {
        let h = handler();
        let mut csv = match h.handle(&Request::Generate { seed: 7 }).expect("generates") {
            Response::Matrix { csv } => csv,
            other => panic!("wrong response kind {}", other.kind()),
        };
        csv.push_str("flood,0x7fa,0,8,50,,,EMS,TCU\n");
        let resp = h
            .handle(&Request::Analyze {
                model: Model::from_csv(csv),
                scenario: ScenarioSpec::Worst,
            })
            .expect("degraded is not an error");
        match resp {
            Response::Analyze(a) => {
                assert!(a.report.is_degraded());
                assert_eq!(a.report.diagnostics().count(), 1);
            }
            other => panic!("wrong response kind {}", other.kind()),
        }
    }
}
