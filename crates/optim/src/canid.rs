//! CAN-ID (priority) assignment optimization — the paper's Section 4.3.
//!
//! The genome is a permutation: rank `k` names the message that
//! receives the `k`-th strongest identifier of the network's existing
//! identifier pool (IDs are *re-distributed*, never invented, so the
//! optimized matrix stays compatible with downstream tooling).
//!
//! As in the paper, the optimizer is configured "to favor robust
//! configurations over sensitive ones": besides the message-loss counts
//! at the reference jitter ratios, a robustness objective (sum of
//! response-to-deadline ratios) rewards margin even among zero-loss
//! configurations.

use crate::permutation::Permutation;
use crate::spea2::{archive_spread, optimize, Problem, Spea2Config, Spea2Result};
use carta_can::network::CanNetwork;
use carta_engine::prelude::{
    BaseSystem, CacheStats, EvalResult, Evaluator, Parallelism, SystemVariant,
};
use carta_explore::jitter::with_jitter_ratio;
use carta_explore::scenario::Scenario;
use carta_obs::metrics::MetricsRegistry;
use carta_obs::{span, Obs};
use rand::rngs::StdRng;
use std::sync::Arc;

/// Penalty charged per unbounded (overloaded) message in the
/// robustness objective.
const UNBOUNDED_PENALTY: f64 = 10.0;

/// The optimization problem fed to SPEA2. Genome evaluation routes
/// through a [`carta_engine::evaluator::Evaluator`]: each genome is a
/// permutation overlay over one shared [`BaseSystem`], whole
/// generations are submitted as one batch, and genomes resurfacing in
/// later generations hit the memo cache.
#[derive(Debug)]
pub struct CanIdProblem<'a> {
    base: &'a CanNetwork,
    system: Arc<BaseSystem>,
    evaluator: Evaluator,
    scenario: Scenario,
    eval_ratios: Vec<f64>,
}

impl<'a> CanIdProblem<'a> {
    /// Creates the problem for a network, evaluating loss under
    /// `scenario` at the given jitter ratios (the paper uses 25 % as
    /// the design point). Evaluation parallelism follows
    /// [`carta_engine::evaluator::Parallelism::from_env`]; use
    /// [`CanIdProblem::with_evaluator`] to override.
    pub fn new(base: &'a CanNetwork, scenario: Scenario, eval_ratios: Vec<f64>) -> Self {
        CanIdProblem {
            base,
            system: BaseSystem::new(base.clone()),
            evaluator: Evaluator::default(),
            scenario,
            eval_ratios,
        }
    }

    /// Replaces the evaluation engine (e.g. to set an explicit job
    /// count, or to share a cache with surrounding sweeps).
    pub fn with_evaluator(mut self, evaluator: Evaluator) -> Self {
        self.evaluator = evaluator;
        self
    }

    /// The engine evaluator (its [`carta_engine::evaluator::CacheStats`]
    /// show the per-genome hit rate after a run).
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// Applies a genome: message `perm[k]` receives the `k`-th
    /// strongest identifier of the pool.
    pub fn apply(&self, perm: &Permutation) -> CanNetwork {
        let mut net = self.base.clone();
        let pool = self.system.id_pool();
        for (rank, &msg_idx) in perm.as_slice().iter().enumerate() {
            net.messages_mut()[msg_idx].id = pool[rank];
        }
        net
    }

    /// The engine variants of one genome — one per evaluation ratio.
    fn variants(&self, perm: &Permutation) -> Vec<SystemVariant> {
        let overlay = Arc::new(perm.as_slice().to_vec());
        self.eval_ratios
            .iter()
            .map(|&ratio| {
                SystemVariant::new(self.system.clone(), self.scenario.clone())
                    .with_jitter_ratio(ratio)
                    .with_permutation(overlay.clone())
            })
            .collect()
    }

    /// Folds the per-ratio reports of one genome into its objective
    /// vector: loss counts per ratio, then the robustness sum at the
    /// design point.
    fn objectives(&self, results: &[EvalResult]) -> Vec<f64> {
        let mut objectives = Vec::with_capacity(self.eval_ratios.len() + 1);
        let mut robustness = 0.0;
        for (k, result) in results.iter().enumerate() {
            match result {
                Ok(report) => {
                    objectives.push(report.missed_count() as f64);
                    if k == 0 {
                        for m in &report.messages {
                            robustness += match m.outcome.wcrt() {
                                Some(wcrt) => {
                                    wcrt.as_ns() as f64 / m.deadline.as_ns().max(1) as f64
                                }
                                None => UNBOUNDED_PENALTY,
                            };
                        }
                    }
                }
                Err(_) => {
                    // Failed variant (injected fault, contained panic):
                    // rank it strictly worse than any analyzable genome
                    // but keep the fitness *finite* — infinities poison
                    // SPEA2's euclidean density estimation with NaNs and
                    // would let one bad candidate abort the whole run.
                    let n = self.base.messages().len() as f64;
                    objectives.push(n + 1.0);
                    robustness = (n + 1.0) * UNBOUNDED_PENALTY;
                }
            }
        }
        objectives.push(robustness);
        objectives
    }

    /// The rate-monotonic permutation (shorter period ⇒ stronger ID),
    /// used as a seed.
    pub fn rate_monotonic(&self) -> Permutation {
        let mut order: Vec<usize> = (0..self.base.messages().len()).collect();
        order.sort_by_key(|&i| {
            let m = &self.base.messages()[i];
            (m.activation.period(), m.id.arbitration_key())
        });
        Permutation::new(order)
    }
}

impl Problem for CanIdProblem<'_> {
    type Genome = Permutation;

    fn random_genome(&self, rng: &mut StdRng) -> Permutation {
        Permutation::random(self.base.messages().len(), rng)
    }

    fn seed_genomes(&self) -> Vec<Permutation> {
        let mut seeds = vec![
            Permutation::identity(self.base.messages().len()),
            self.rate_monotonic(),
        ];
        // Audsley's optimal priority assignment at the first design
        // point: if any ID order is feasible there, this seed already
        // achieves zero loss and the GA only has to improve the other
        // objectives.
        let ratio = self.eval_ratios.first().copied().unwrap_or(0.25);
        let prepared = self.scenario.apply(&with_jitter_ratio(self.base, ratio));
        if let Ok(Some(order)) = carta_can::opa::audsley_assignment(
            &prepared,
            self.scenario.errors.model().as_ref(),
            &self.scenario.analysis_config(),
        ) {
            seeds.push(Permutation::new(order.strongest_first().to_vec()));
        }
        seeds
    }

    fn crossover(&self, a: &Permutation, b: &Permutation, rng: &mut StdRng) -> Permutation {
        a.pmx(b, rng)
    }

    fn mutate(&self, genome: &mut Permutation, rng: &mut StdRng) {
        genome.swap_mutate(rng);
    }

    fn evaluate(&self, genome: &Permutation) -> Vec<f64> {
        let results = self.evaluator.evaluate_batch(&self.variants(genome));
        self.objectives(&results)
    }

    fn evaluate_population(&self, genomes: &[Permutation]) -> Vec<Vec<f64>> {
        let per_genome = self.eval_ratios.len();
        if per_genome == 0 {
            return genomes.iter().map(|g| self.evaluate(g)).collect();
        }
        // One flat batch: |genomes| × |ratios| variants, evaluated in
        // parallel and deduplicated by the engine's cache.
        let variants: Vec<SystemVariant> = genomes.iter().flat_map(|g| self.variants(g)).collect();
        let results = self.evaluator.evaluate_batch(&variants);
        results
            .chunks(per_genome)
            .map(|chunk| self.objectives(chunk))
            .collect()
    }
}

/// Configuration of [`optimize_can_ids`].
#[derive(Debug, Clone)]
pub struct OptimizeIdsConfig {
    /// The SPEA2 parameters.
    pub spea2: Spea2Config,
    /// Scenario under which loss is evaluated (default: worst case).
    pub scenario: Scenario,
    /// Jitter ratios at which loss counts become objectives
    /// (default: 25 %, 40 % and 60 % — the design point plus two
    /// tail anchors so the optimized curve stays below the original
    /// across the whole sweep).
    pub eval_ratios: Vec<f64>,
    /// Weights for picking the final solution from the Pareto archive
    /// (must have `eval_ratios.len() + 1` entries — loss counts first,
    /// robustness last).
    pub weights: Vec<f64>,
    /// Worker threads for genome evaluation (default:
    /// [`Parallelism::from_env`] — `CARTA_JOBS` or all hardware
    /// threads). Parallelism never changes the per-seed result.
    pub parallelism: Parallelism,
    /// Where the run reports: the GA's evaluator and the `optim.*`
    /// metrics and `optim.run` span (default: nowhere).
    pub obs: Obs,
}

impl Default for OptimizeIdsConfig {
    fn default() -> Self {
        OptimizeIdsConfig {
            spea2: Spea2Config::default(),
            scenario: Scenario::worst_case(),
            eval_ratios: vec![0.25, 0.40, 0.60],
            weights: vec![1000.0, 100.0, 150.0, 1.0],
            parallelism: Parallelism::from_env(),
            obs: Obs::default(),
        }
    }
}

/// Result of a CAN-ID optimization run.
#[derive(Debug)]
pub struct IdOptimizationResult {
    /// The network with optimized identifiers.
    pub optimized: CanNetwork,
    /// The winning permutation.
    pub permutation: Permutation,
    /// Objectives of the winner (loss counts per ratio, then
    /// robustness).
    pub objectives: Vec<f64>,
    /// The full Pareto archive.
    pub archive: Spea2Result<Permutation>,
    /// Engine cache counters of the run — the hit rate shows how many
    /// genome evaluations were answered without re-running the RTA.
    pub cache: CacheStats,
}

/// Records a finished run: generations, evaluations after the initial
/// population, one `optim.evals_per_gen` sample per generation, and the
/// size and spread of the final archive.
fn record_run(registry: &MetricsRegistry, result: &Spea2Result<Permutation>, population: usize) {
    let generations = result.generations as u64;
    registry.counter("optim.generations").add(generations);
    registry
        .counter("optim.evaluations")
        .add(result.evaluations.saturating_sub(population) as u64);
    let per_gen = registry.histogram("optim.evals_per_gen");
    for _ in 0..generations {
        per_gen.record(population as u64);
    }
    registry
        .gauge("optim.archive_size")
        .set(result.archive.len() as f64);
    registry
        .gauge("optim.archive_spread")
        .set(archive_spread(&result.archive));
}

/// Runs the SPEA2 identifier optimization.
///
/// # Panics
///
/// Panics if `config.weights` does not match
/// `config.eval_ratios.len() + 1` or the network has no messages.
pub fn optimize_can_ids(net: &CanNetwork, config: &OptimizeIdsConfig) -> IdOptimizationResult {
    assert!(!net.messages().is_empty(), "network has no messages");
    assert_eq!(
        config.weights.len(),
        config.eval_ratios.len() + 1,
        "one weight per loss ratio plus one for robustness"
    );
    let problem = CanIdProblem::new(net, config.scenario.clone(), config.eval_ratios.clone())
        .with_evaluator(
            Evaluator::builder()
                .parallelism(config.parallelism)
                .obs(config.obs.clone())
                .build(),
        );
    let _span = span!(
        config.obs,
        "optim.run",
        population = config.spea2.population,
        generations = config.spea2.generations
    );
    let result = optimize(&problem, &config.spea2);
    if let Some(registry) = config.obs.registry() {
        record_run(registry, &result, config.spea2.population);
    }
    // Selection is lexicographic in the first objective (loss at the
    // design point — the paper's non-negotiable "not a single message"
    // criterion), then weighted over the remaining objectives.
    let min_first = result
        .archive
        .iter()
        .map(|ind| ind.objectives[0])
        .fold(f64::INFINITY, f64::min);
    // SPEA2 always returns a non-empty archive for a non-empty
    // population, and the message-count assert above rules that out.
    #[allow(clippy::expect_used)]
    let best = result
        .archive
        .iter()
        .filter(|ind| ind.objectives[0] <= min_first)
        .map(|ind| {
            let score: f64 = ind
                .objectives
                .iter()
                .zip(&config.weights)
                .map(|(o, w)| o * w)
                .sum();
            (ind, score)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(ind, _)| ind)
        .expect("archive is never empty");
    let permutation = best.genome.clone();
    let objectives = best.objectives.clone();
    let optimized = problem.apply(&permutation);
    IdOptimizationResult {
        optimized,
        permutation,
        objectives,
        archive: result,
        cache: problem.evaluator().stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carta_can::controller::ControllerType;
    use carta_can::frame::Dlc;
    use carta_can::message::CanMessage;
    use carta_can::network::Node;
    use carta_core::time::Time;
    use carta_explore::sweeps::Sweeps;

    /// A deliberately inverted network: the fastest message has the
    /// weakest identifier. Chosen so that the inversion loses messages
    /// at 25 % jitter under the worst-case scenario while the
    /// rate-monotonic assignment is loss-free.
    fn inverted_net() -> CanNetwork {
        let mut net = CanNetwork::new(250_000);
        let a = net.add_node(Node::new("A", ControllerType::FullCan));
        let periods = [100u64, 100, 50, 50, 20, 20, 10, 10, 5, 5]; // slowest gets 0x100
        for (k, period) in periods.into_iter().enumerate() {
            net.add_message(CanMessage::new(
                format!("m{k}"),
                carta_can::message::CanId::standard(0x100 + 16 * k as u32).expect("valid"),
                Dlc::new(8),
                Time::from_ms(period),
                Time::ZERO,
                a,
            ));
        }
        net
    }

    fn quick_config() -> OptimizeIdsConfig {
        OptimizeIdsConfig {
            spea2: Spea2Config {
                population: 12,
                archive: 6,
                generations: 6,
                ..Spea2Config::default()
            },
            eval_ratios: vec![0.25],
            weights: vec![100.0, 1.0],
            ..OptimizeIdsConfig::default()
        }
    }

    #[test]
    fn permutation_application_redistributes_pool() {
        let net = inverted_net();
        let problem = CanIdProblem::new(&net, Scenario::worst_case(), vec![0.25]);
        let rm = problem.rate_monotonic();
        let optimized = problem.apply(&rm);
        // A 5 ms message (index 8 or 9) now holds the strongest ID.
        assert_eq!(optimized.messages()[8].id.raw(), 0x100);
        // Pool is preserved as a set.
        let mut before: Vec<u32> = net.messages().iter().map(|m| m.id.raw()).collect();
        let mut after: Vec<u32> = optimized.messages().iter().map(|m| m.id.raw()).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
        optimized.validate().expect("still valid");
    }

    #[test]
    fn optimization_removes_loss_at_design_point() {
        let net = inverted_net();
        let eval = Evaluator::default();
        let before = eval
            .loss_vs_jitter(&net, &Scenario::worst_case(), &[0.25])
            .expect("valid");
        let result = optimize_can_ids(&net, &quick_config());
        let after = eval
            .loss_vs_jitter(&result.optimized, &Scenario::worst_case(), &[0.25])
            .expect("valid");
        assert!(
            after.points[0].missed <= before.points[0].missed,
            "optimizer must not make things worse"
        );
        // The inverted net loses messages at 25 %; the optimum does not.
        assert!(before.points[0].missed > 0, "test net must start lossy");
        assert_eq!(after.points[0].missed, 0, "optimum should be loss-free");
        assert_eq!(result.objectives[0], 0.0);
        // Genomes recur across generations (seeds, converged offspring):
        // the engine cache must have answered a good share of them.
        assert!(
            result.cache.hits > 0,
            "expected cache hits across generations: {:?}",
            result.cache
        );
    }

    #[test]
    fn failed_candidates_get_finite_worst_rank_fitness() {
        use carta_engine::prelude::FaultPlan;
        let net = inverted_net();
        let problem = CanIdProblem::new(&net, Scenario::worst_case(), vec![0.25]).with_evaluator(
            Evaluator::builder()
                .jobs(1)
                .faults(FaultPlan {
                    panic_at: Some(0),
                    ..FaultPlan::default()
                })
                .build(),
        );
        let rm = problem.rate_monotonic();
        let faulted = problem.evaluate(&rm);
        assert!(
            faulted.iter().all(|o| o.is_finite()),
            "fitness must stay finite under faults: {faulted:?}"
        );
        let healthy = problem.evaluate(&rm);
        for (f, h) in faulted.iter().zip(&healthy) {
            assert!(f > h, "faulted rank {f} must be worse than healthy {h}");
        }
    }

    #[test]
    fn optimizer_is_deterministic() {
        let net = inverted_net();
        let a = optimize_can_ids(&net, &quick_config());
        let b = optimize_can_ids(&net, &quick_config());
        assert_eq!(a.permutation, b.permutation);
        assert_eq!(a.objectives, b.objectives);
    }

    #[test]
    fn generation_metrics_accumulate_when_enabled() {
        let registry = Arc::new(MetricsRegistry::new());
        let config = OptimizeIdsConfig {
            obs: Obs::new(Some(registry.clone()), None),
            ..quick_config()
        };
        let result = optimize_can_ids(&inverted_net(), &config);
        let snap = registry.snapshot();
        let (population, generations) = (config.spea2.population, config.spea2.generations);
        assert_eq!(snap.counter("optim.generations"), Some(generations as u64));
        // Per-generation evaluations exclude the initial population.
        assert_eq!(
            snap.counter("optim.evaluations"),
            Some((result.archive.evaluations - population) as u64)
        );
        let per_gen = snap.histogram("optim.evals_per_gen").expect("present");
        assert_eq!(per_gen.count, generations as u64);
        assert_eq!(
            (per_gen.min, per_gen.max),
            (population as u64, population as u64)
        );
        assert!(snap.gauge("optim.archive_size").expect("present") >= 1.0);
        // The GA's evaluator reports to the same observer.
        assert_eq!(
            snap.counter("engine.cache.misses"),
            Some(result.cache.misses)
        );
    }

    #[test]
    #[should_panic(expected = "one weight per loss ratio")]
    fn weight_arity_checked() {
        let net = inverted_net();
        let mut cfg = quick_config();
        cfg.weights = vec![1.0];
        cfg.eval_ratios = vec![0.25, 0.5];
        let _ = optimize_can_ids(&net, &cfg);
    }
}
