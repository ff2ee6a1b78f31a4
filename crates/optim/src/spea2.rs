//! SPEA2 — the Strength Pareto Evolutionary Algorithm 2 of Zitzler,
//! Laumanns & Thiele (TR-103, ref. \[10\] of the paper), the optimizer
//! behind SymTA/S's automatic CAN-ID exploration (Sec. 4.3).
//!
//! The implementation follows the published algorithm faithfully:
//!
//! 1. **Strength** `S(i)`: how many individuals `i` dominates.
//! 2. **Raw fitness** `R(i)`: sum of strengths of `i`'s dominators.
//! 3. **Density** `D(i) = 1 / (σᵏ + 2)` with `σᵏ` the distance to the
//!    `k`-th nearest neighbour, `k = √(N + N̄)`.
//! 4. **Environmental selection**: all non-dominated individuals enter
//!    the archive; overfull archives are truncated by iteratively
//!    removing the individual with the lexicographically smallest
//!    nearest-neighbour distance vector; underfull archives are topped
//!    up with the best dominated individuals.
//! 5. **Mating**: binary tournaments on the archive, then
//!    problem-defined crossover and mutation.
//!
//! All objectives are **minimized**.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mean per-objective extent (max − min) over the archive: a cheap
/// hypervolume proxy that grows as the front widens and collapses when
/// the archive degenerates to a point.
pub(crate) fn archive_spread<G>(archive: &[Individual<G>]) -> f64 {
    let Some(first) = archive.first() else {
        return 0.0;
    };
    let dims = first.objectives.len();
    if dims == 0 {
        return 0.0;
    }
    let mut spread = 0.0;
    for d in 0..dims {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for ind in archive {
            let v = ind.objectives[d];
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if hi > lo {
            spread += hi - lo;
        }
    }
    spread / dims as f64
}

/// An optimization problem for [`optimize`].
pub trait Problem {
    /// Genome representation.
    type Genome: Clone;

    /// Samples a random genome.
    fn random_genome(&self, rng: &mut StdRng) -> Self::Genome;

    /// Optional seed genomes injected into the initial population
    /// (e.g. the current configuration). Default: none.
    fn seed_genomes(&self) -> Vec<Self::Genome> {
        Vec::new()
    }

    /// Recombines two parents.
    fn crossover(&self, a: &Self::Genome, b: &Self::Genome, rng: &mut StdRng) -> Self::Genome;

    /// Mutates a genome in place.
    fn mutate(&self, genome: &mut Self::Genome, rng: &mut StdRng);

    /// Evaluates a genome into its objective vector (minimized).
    fn evaluate(&self, genome: &Self::Genome) -> Vec<f64>;

    /// Evaluates a whole population at once. The default maps
    /// [`Problem::evaluate`] sequentially; problems backed by the
    /// evaluation engine override this to submit one parallel,
    /// memoized batch per generation. `result[i]` must equal
    /// `self.evaluate(&genomes[i])` — the optimizer relies on batch
    /// and sequential evaluation being interchangeable.
    fn evaluate_population(&self, genomes: &[Self::Genome]) -> Vec<Vec<f64>> {
        genomes.iter().map(|g| self.evaluate(g)).collect()
    }
}

/// SPEA2 parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spea2Config {
    /// Population size `N`.
    pub population: usize,
    /// Archive size `N̄`.
    pub archive: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability of mutating each offspring.
    pub mutation_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Spea2Config {
    fn default() -> Self {
        Spea2Config {
            population: 40,
            archive: 20,
            generations: 30,
            mutation_rate: 0.3,
            seed: 42,
        }
    }
}

/// An evaluated individual.
#[derive(Debug, Clone)]
pub struct Individual<G> {
    /// The genome.
    pub genome: G,
    /// Its objective vector.
    pub objectives: Vec<f64>,
    fitness: f64,
}

impl<G> Individual<G> {
    /// SPEA2 fitness (raw + density); lower is better, `< 1` means
    /// non-dominated.
    pub fn fitness(&self) -> f64 {
        self.fitness
    }
}

/// The result of an optimization run: the final archive
/// (an approximation of the Pareto front).
#[derive(Debug, Clone)]
pub struct Spea2Result<G> {
    /// Final archive, sorted by fitness (best first).
    pub archive: Vec<Individual<G>>,
    /// Generations actually run.
    pub generations: usize,
    /// Total genome evaluations performed.
    pub evaluations: usize,
}

impl<G> Spea2Result<G> {
    /// The archive member minimizing the weighted sum of objectives.
    ///
    /// # Panics
    ///
    /// Panics if `weights` length differs from the objective count or
    /// the archive is empty.
    #[allow(clippy::expect_used)] // the empty-archive panic is documented
    pub fn best_weighted(&self, weights: &[f64]) -> &Individual<G> {
        self.archive
            .iter()
            .map(|ind| {
                assert_eq!(ind.objectives.len(), weights.len(), "weight arity mismatch");
                let score: f64 = ind.objectives.iter().zip(weights).map(|(o, w)| o * w).sum();
                (ind, score)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(ind, _)| ind)
            .expect("archive is never empty after a run")
    }
}

/// `true` if `a` Pareto-dominates `b` (all objectives ≤, one <).
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Runs SPEA2.
///
/// # Panics
///
/// Panics if `population` or `archive` is zero.
pub fn optimize<P: Problem>(problem: &P, config: &Spea2Config) -> Spea2Result<P::Genome> {
    assert!(config.population > 0, "population must be positive");
    assert!(config.archive > 0, "archive must be positive");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut evaluations = 0usize;

    // Whole generations are evaluated as one batch. The RNG stream is
    // consumed entirely during variation (before any evaluation), so
    // batching — and any parallelism inside `evaluate_population` —
    // cannot change the per-seed result.
    let eval_batch =
        |genomes: Vec<P::Genome>, evaluations: &mut usize| -> Vec<Individual<P::Genome>> {
            *evaluations += genomes.len();
            let objectives = problem.evaluate_population(&genomes);
            debug_assert_eq!(objectives.len(), genomes.len());
            genomes
                .into_iter()
                .zip(objectives)
                .map(|(genome, objectives)| Individual {
                    genome,
                    objectives,
                    fitness: f64::INFINITY,
                })
                .collect()
        };

    // Initial population: seeds first, then random.
    let mut genomes: Vec<P::Genome> = problem
        .seed_genomes()
        .into_iter()
        .take(config.population)
        .collect();
    while genomes.len() < config.population {
        genomes.push(problem.random_genome(&mut rng));
    }
    let mut population = eval_batch(genomes, &mut evaluations);

    let mut archive: Vec<Individual<P::Genome>> = Vec::new();
    for _ in 0..config.generations {
        // Fitness over the combined set.
        let mut combined: Vec<Individual<P::Genome>> = Vec::new();
        combined.append(&mut population);
        combined.append(&mut archive);
        assign_fitness(&mut combined);

        // Environmental selection.
        archive = environmental_selection(combined, config.archive);

        // Mating selection + variation, then one batched evaluation.
        let offspring: Vec<P::Genome> = (0..config.population)
            .map(|_| {
                let a = tournament(&archive, &mut rng);
                let b = tournament(&archive, &mut rng);
                let mut child = problem.crossover(&archive[a].genome, &archive[b].genome, &mut rng);
                if rng.gen_bool(config.mutation_rate.clamp(0.0, 1.0)) {
                    problem.mutate(&mut child, &mut rng);
                }
                child
            })
            .collect();
        population = eval_batch(offspring, &mut evaluations);
    }

    // Final fitness assignment on the last archive for reporting order.
    let mut final_set = archive;
    assign_fitness(&mut final_set);
    final_set.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
    Spea2Result {
        archive: final_set,
        generations: config.generations,
        evaluations,
    }
}

/// Computes SPEA2 fitness (raw + density) for every individual.
fn assign_fitness<G>(set: &mut [Individual<G>]) {
    let n = set.len();
    if n == 0 {
        return;
    }
    // Strength: number of individuals each one dominates.
    let mut strength = vec![0usize; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && dominates(&set[i].objectives, &set[j].objectives) {
                strength[i] += 1;
            }
        }
    }
    // Raw fitness: sum of strengths of dominators.
    let k = ((n as f64).sqrt() as usize).max(1);
    for i in 0..n {
        let mut raw = 0usize;
        for j in 0..n {
            if i != j && dominates(&set[j].objectives, &set[i].objectives) {
                raw += strength[j];
            }
        }
        // Density via k-th nearest neighbour.
        let mut dists: Vec<f64> = (0..n)
            .filter(|&j| j != i)
            .map(|j| distance(&set[i].objectives, &set[j].objectives))
            .collect();
        dists.sort_by(f64::total_cmp);
        let sigma_k = dists.get(k - 1).copied().unwrap_or(0.0);
        set[i].fitness = raw as f64 + 1.0 / (sigma_k + 2.0);
    }
}

/// SPEA2 environmental selection into an archive of exactly
/// `capacity` (or fewer if the candidate set is smaller).
fn environmental_selection<G: Clone>(
    mut combined: Vec<Individual<G>>,
    capacity: usize,
) -> Vec<Individual<G>> {
    combined.sort_by(|a, b| a.fitness.total_cmp(&b.fitness));
    let mut archive: Vec<Individual<G>> = combined
        .iter()
        .filter(|i| i.fitness < 1.0)
        .cloned()
        .collect();
    if archive.len() < capacity {
        // Top up with the best dominated individuals.
        for ind in combined.iter().filter(|i| i.fitness >= 1.0) {
            if archive.len() >= capacity {
                break;
            }
            archive.push(ind.clone());
        }
        return archive;
    }
    // Truncation: repeatedly remove the individual with the
    // lexicographically smallest sorted distance vector.
    while archive.len() > capacity {
        let n = archive.len();
        let dist_vectors: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut d: Vec<f64> = (0..n)
                    .filter(|&j| j != i)
                    .map(|j| distance(&archive[i].objectives, &archive[j].objectives))
                    .collect();
                d.sort_by(f64::total_cmp);
                d
            })
            .collect();
        let victim = (0..n).min_by(|&a, &b| {
            dist_vectors[a]
                .iter()
                .zip(&dist_vectors[b])
                .map(|(x, y)| x.total_cmp(y))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let Some(victim) = victim else { break };
        archive.remove(victim);
    }
    archive
}

/// Binary tournament by fitness; returns the winner's index.
fn tournament<G>(archive: &[Individual<G>], rng: &mut StdRng) -> usize {
    let a = rng.gen_range(0..archive.len());
    let b = rng.gen_range(0..archive.len());
    if archive[a].fitness <= archive[b].fitness {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize (x − 3)² and (x − 5)² over x ∈ \[0, 8\] encoded as f64 —
    /// the Pareto set is the interval \[3, 5\].
    struct TwoHumps;

    impl Problem for TwoHumps {
        type Genome = f64;

        fn random_genome(&self, rng: &mut StdRng) -> f64 {
            rng.gen_range(0.0..8.0)
        }

        fn crossover(&self, a: &f64, b: &f64, _rng: &mut StdRng) -> f64 {
            (a + b) / 2.0
        }

        fn mutate(&self, g: &mut f64, rng: &mut StdRng) {
            *g = (*g + rng.gen_range(-1.0..1.0)).clamp(0.0, 8.0);
        }

        fn evaluate(&self, g: &f64) -> Vec<f64> {
            vec![(g - 3.0).powi(2), (g - 5.0).powi(2)]
        }
    }

    #[test]
    fn dominance_relation() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[1.0, 2.0]));
    }

    #[test]
    fn converges_to_pareto_interval() {
        let result = optimize(&TwoHumps, &Spea2Config::default());
        assert_eq!(result.generations, 30);
        assert!(result.evaluations >= 40 * 30);
        assert!(!result.archive.is_empty());
        // Every archive member should sit in (or very near) [3, 5].
        for ind in &result.archive {
            assert!(
                ind.genome > 2.5 && ind.genome < 5.5,
                "genome {} outside Pareto region",
                ind.genome
            );
        }
        // The extremes of the front should be approached.
        let best_f1 = result
            .archive
            .iter()
            .map(|i| i.objectives[0])
            .fold(f64::INFINITY, f64::min);
        assert!(best_f1 < 0.3, "f1 minimum not approached: {best_f1}");
    }

    #[test]
    fn weighted_pick_moves_with_weights() {
        let result = optimize(&TwoHumps, &Spea2Config::default());
        let toward_3 = result.best_weighted(&[1.0, 0.0]).genome;
        let toward_5 = result.best_weighted(&[0.0, 1.0]).genome;
        assert!(toward_3 < toward_5);
        assert!((toward_3 - 3.0).abs() < 1.0);
        assert!((toward_5 - 5.0).abs() < 1.0);
    }

    #[test]
    fn population_evaluation_is_batched() {
        use std::cell::Cell;
        struct Counting {
            batches: Cell<usize>,
        }
        impl Problem for Counting {
            type Genome = f64;
            fn random_genome(&self, rng: &mut StdRng) -> f64 {
                rng.gen_range(0.0..8.0)
            }
            fn crossover(&self, a: &f64, b: &f64, _rng: &mut StdRng) -> f64 {
                (a + b) / 2.0
            }
            fn mutate(&self, g: &mut f64, rng: &mut StdRng) {
                *g = (*g + rng.gen_range(-1.0..1.0)).clamp(0.0, 8.0);
            }
            fn evaluate(&self, g: &f64) -> Vec<f64> {
                vec![(g - 3.0).powi(2), (g - 5.0).powi(2)]
            }
            fn evaluate_population(&self, genomes: &[f64]) -> Vec<Vec<f64>> {
                self.batches.set(self.batches.get() + 1);
                genomes.iter().map(|g| self.evaluate(g)).collect()
            }
        }
        let problem = Counting {
            batches: Cell::new(0),
        };
        let config = Spea2Config {
            generations: 3,
            ..Spea2Config::default()
        };
        let result = optimize(&problem, &config);
        // One batch for the initial population, one per generation.
        assert_eq!(problem.batches.get(), 4);
        assert_eq!(result.evaluations, 40 * 4);
        // Batching must not change the per-seed outcome.
        let plain = optimize(&TwoHumps, &config);
        let ga: Vec<f64> = result.archive.iter().map(|i| i.genome).collect();
        let gb: Vec<f64> = plain.archive.iter().map(|i| i.genome).collect();
        assert_eq!(ga, gb);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = optimize(&TwoHumps, &Spea2Config::default());
        let b = optimize(&TwoHumps, &Spea2Config::default());
        let ga: Vec<f64> = a.archive.iter().map(|i| i.genome).collect();
        let gb: Vec<f64> = b.archive.iter().map(|i| i.genome).collect();
        assert_eq!(ga, gb);
    }

    #[test]
    fn seeds_enter_population() {
        struct Seeded;
        impl Problem for Seeded {
            type Genome = f64;
            fn random_genome(&self, rng: &mut StdRng) -> f64 {
                rng.gen_range(100.0..200.0) // random genomes are awful
            }
            fn seed_genomes(&self) -> Vec<f64> {
                vec![4.0] // the seed is optimal
            }
            fn crossover(&self, a: &f64, b: &f64, _r: &mut StdRng) -> f64 {
                (a + b) / 2.0
            }
            fn mutate(&self, g: &mut f64, rng: &mut StdRng) {
                *g += rng.gen_range(-0.1..0.1);
            }
            fn evaluate(&self, g: &f64) -> Vec<f64> {
                vec![(g - 4.0).abs()]
            }
        }
        let result = optimize(
            &Seeded,
            &Spea2Config {
                generations: 5,
                ..Spea2Config::default()
            },
        );
        let best = result.best_weighted(&[1.0]);
        assert!(best.objectives[0] < 1.0, "seeded optimum must survive");
        assert!(best.fitness() < 1.0);
    }

    #[test]
    fn archive_spread_of_degenerate_archives() {
        assert_eq!(archive_spread::<f64>(&[]), 0.0);
        let point = vec![
            Individual {
                genome: 1.0,
                objectives: vec![2.0, 3.0],
                fitness: 0.0,
            };
            3
        ];
        assert_eq!(archive_spread(&point), 0.0);
        let spread = vec![
            Individual {
                genome: 1.0,
                objectives: vec![0.0, 0.0],
                fitness: 0.0,
            },
            Individual {
                genome: 2.0,
                objectives: vec![2.0, 4.0],
                fitness: 0.0,
            },
        ];
        assert!((archive_spread(&spread) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn archive_capacity_respected() {
        let result = optimize(
            &TwoHumps,
            &Spea2Config {
                archive: 5,
                ..Spea2Config::default()
            },
        );
        assert!(result.archive.len() <= 5);
        assert!(!result.archive.is_empty());
    }
}
