//! The evaluation engine's core contract: batched, parallel, memoized
//! evaluation is *observationally identical* to the fresh sequential
//! clone-and-analyze path. Whatever the parallelism, cache temperature
//! or overlay combination, every message's [`ResponseBounds`] must be
//! bit-identical.

use carta::prelude::*;
use carta_testkit::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Shape selection only — generation lives in `carta_testkit::gen`.
/// Odd seeds use the mixed-controller shape so basicCAN and FIFO TX
/// paths stay covered.
fn net_for(seed: u64) -> CanNetwork {
    let shape = if seed.is_multiple_of(2) {
        NetShape::two_node()
    } else {
        NetShape::mixed()
    };
    random_network(&shape.messages(6), seed)
}

fn scenario_for(pick: u8) -> Scenario {
    match pick % 4 {
        0 => Scenario::best_case(),
        1 => Scenario::best_case_period_deadline(),
        2 => Scenario::worst_case(),
        _ => Scenario::sporadic_errors(Time::from_ms(10)),
    }
}

/// The reference path the engine must match: clone the base, apply the
/// jitter transform and identifier permutation by hand, run the plain
/// sequential analysis.
fn fresh_sequential(
    net: &CanNetwork,
    scenario: &Scenario,
    ratio: f64,
    perm: Option<&[usize]>,
) -> BusReport {
    let mut candidate = net.clone();
    if let Some(perm) = perm {
        let mut pool: Vec<CanId> = net.messages().iter().map(|m| m.id).collect();
        pool.sort_by_key(|id| id.arbitration_key());
        for (rank, &msg_idx) in perm.iter().enumerate() {
            candidate.messages_mut()[msg_idx].id = pool[rank];
        }
    }
    scenario
        .analyze(&with_jitter_ratio(&candidate, ratio))
        .expect("valid model")
}

/// A distinct-key scenario ladder for the large-batch grids: every
/// (scenario, jitter ratio) pair below maps to a unique [`VariantKey`],
/// so cache hit/miss counts cannot race between workers and the full
/// [`CacheStats`] become a pure function of the grid.
fn scenario_ladder() -> Vec<Scenario> {
    vec![
        Scenario::best_case(),
        Scenario::best_case_period_deadline(),
        Scenario::worst_case(),
        Scenario::sporadic_errors(Time::from_ms(5)),
        Scenario::sporadic_errors(Time::from_ms(10)),
        Scenario::sporadic_errors(Time::from_ms(20)),
        Scenario::sporadic_errors(Time::from_ms(40)),
        Scenario::sporadic_errors(Time::from_ms(80)),
    ]
}

fn grid(base: &Arc<BaseSystem>, ratios_per_scenario: usize) -> Vec<SystemVariant> {
    let scenarios = scenario_ladder();
    let mut variants = Vec::with_capacity(scenarios.len() * ratios_per_scenario);
    for scenario in &scenarios {
        for k in 0..ratios_per_scenario {
            variants.push(
                SystemVariant::new(base.clone(), scenario.clone())
                    .with_jitter_ratio(k as f64 * 0.0005),
            );
        }
    }
    variants
}

/// The chunked batch contract at scale: a ≥10k-point deterministic grid
/// comes out bit-identical — results *and* the full [`CacheStats`],
/// warm/cold solve counts included — at `--jobs` 1, 2 and 8. Chunks are
/// assigned round-robin by index and each starts from invalidated
/// warm-start state, so nothing observable depends on the worker count.
#[test]
fn large_deterministic_batches_are_bit_identical_across_jobs() {
    let base = BaseSystem::new(random_network(&NetShape::mixed().messages(6), 42));
    let variants = grid(&base, 1260);
    assert!(
        variants.len() >= 10_000,
        "grid too small: {}",
        variants.len()
    );
    let mut reference: Option<(Vec<EvalResult>, CacheStats)> = None;
    for jobs in [1usize, 2, 8] {
        let eval = Evaluator::new(Parallelism::new(jobs));
        let out = eval.evaluate_batch(&variants);
        let stats = eval.stats();
        match &reference {
            None => reference = Some((out, stats)),
            Some((ref_out, ref_stats)) => {
                assert_eq!(
                    &stats, ref_stats,
                    "cache statistics must be reproducible at jobs={jobs}"
                );
                for (i, (a, b)) in out.iter().zip(ref_out).enumerate() {
                    let (a, b) = (a.as_ref().expect("valid"), b.as_ref().expect("valid"));
                    assert_eq!(a, b, "point {i} diverged at jobs={jobs}");
                }
            }
        }
    }
}

#[test]
fn permutation_batches_are_bit_identical_across_jobs() {
    let base = BaseSystem::new(random_network(&NetShape::two_node().messages(6), 7));
    let n = base.network().messages().len();
    let perms: Vec<Arc<Vec<usize>>> = (1..4)
        .map(|rot| Arc::new((0..n).map(|i| (i + rot) % n).collect()))
        .collect();
    let mut variants = Vec::new();
    for k in 0..640usize {
        let v = SystemVariant::new(base.clone(), Scenario::worst_case())
            .with_jitter_ratio(k as f64 * 0.0008);
        variants.push(v.clone());
        for perm in &perms {
            variants.push(v.clone().with_permutation(perm.clone()));
        }
    }
    let mut reference: Option<(Vec<EvalResult>, CacheStats)> = None;
    for jobs in [1usize, 2, 8] {
        let eval = Evaluator::new(Parallelism::new(jobs));
        let out = eval.evaluate_batch(&variants);
        let stats = eval.stats();
        match &reference {
            None => reference = Some((out, stats)),
            Some((ref_out, ref_stats)) => {
                assert_eq!(
                    &stats, ref_stats,
                    "cache statistics must be reproducible at jobs={jobs}"
                );
                for (i, (a, b)) in out.iter().zip(ref_out).enumerate() {
                    let (a, b) = (a.as_ref().expect("valid"), b.as_ref().expect("valid"));
                    assert_eq!(a, b, "point {i} diverged at jobs={jobs}");
                }
            }
        }
    }
}

/// The probabilistic path under the same contract, stats included. The
/// warm-up batch contains every grid point *plus* its error-free twin
/// (deduplicated by key), so the prob phase is answered entirely from
/// the deterministic cache and the final [`CacheStats`] — warm/cold
/// counts included — are again a pure function of the grid. The grid is
/// smaller than the deterministic one only because each retained
/// [`ProbBusReport`] carries per-message PMFs (up to 4096 bins each).
#[test]
fn prob_batches_are_bit_identical_across_jobs() {
    let base = BaseSystem::new(random_network(&NetShape::mixed().messages(6), 11));
    let variants = grid(&base, 63);
    let mut seen = std::collections::HashSet::new();
    let mut warmup = Vec::new();
    for v in &variants {
        for candidate in [v.clone(), v.clone().with_errors(ErrorSpec::None)] {
            if seen.insert(candidate.key()) {
                warmup.push(candidate);
            }
        }
    }
    let mut reference: Option<(Vec<Arc<ProbBusReport>>, CacheStats)> = None;
    for jobs in [1usize, 2, 8] {
        let eval = Evaluator::new(Parallelism::new(jobs));
        let _ = eval.evaluate_batch(&warmup);
        let out: Vec<Arc<ProbBusReport>> = variants
            .iter()
            .map(|v| eval.evaluate_prob(v).expect("analyzable"))
            .collect();
        let stats = eval.stats();
        match &reference {
            None => reference = Some((out, stats)),
            Some((ref_out, ref_stats)) => {
                assert_eq!(
                    &stats, ref_stats,
                    "prob-path cache statistics must be reproducible at jobs={jobs}"
                );
                for (i, (a, b)) in out.iter().zip(ref_out).enumerate() {
                    assert_eq!(a, b, "prob point {i} diverged at jobs={jobs}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_warm_cache_matches_fresh_sequential(
        seed in 0u64..5_000,
        pick in 0u8..4,
        jobs in 1usize..5,
    ) {
        let net = net_for(seed);
        let scenario = scenario_for(pick);
        let ratios = [0.0, 0.1, 0.25, 0.4, 0.6];
        // A rotation permutation derived from the seed (plus identity
        // via `None`) exercises the reordered-tables path.
        let n = net.messages().len();
        let rot = (seed as usize) % n;
        let perm: Arc<Vec<usize>> = Arc::new((0..n).map(|i| (i + rot) % n).collect());

        let base = BaseSystem::new(net.clone());
        let mut variants = Vec::new();
        let mut expected = Vec::new();
        for &ratio in &ratios {
            let plain = SystemVariant::new(base.clone(), scenario.clone())
                .with_jitter_ratio(ratio);
            variants.push(plain.clone());
            expected.push(fresh_sequential(&net, &scenario, ratio, None));
            variants.push(plain.with_permutation(perm.clone()));
            expected.push(fresh_sequential(&net, &scenario, ratio, Some(&perm)));
        }

        let eval = Evaluator::new(Parallelism::new(jobs));
        let cold = eval.evaluate_batch(&variants);
        let warm = eval.evaluate_batch(&variants);
        prop_assert!(
            eval.stats().hits >= variants.len() as u64,
            "second batch must be answered from the cache: {:?}",
            eval.stats()
        );

        for (i, ((c, w), fresh)) in cold.iter().zip(&warm).zip(&expected).enumerate() {
            let (c, w) = (c.as_ref().expect("valid"), w.as_ref().expect("valid"));
            prop_assert!(Arc::ptr_eq(c, w), "variant {i}: warm result not shared");
            prop_assert_eq!(c.messages.len(), fresh.messages.len());
            for (e, d) in c.messages.iter().zip(&fresh.messages) {
                // Bit-identical response bounds (and everything else the
                // report carries about the message).
                prop_assert_eq!(e.outcome, d.outcome, "variant {}, message {}", i, &e.name);
                prop_assert_eq!(e.id, d.id);
                prop_assert_eq!(e.deadline, d.deadline);
                prop_assert_eq!(e.blocking, d.blocking);
                prop_assert_eq!(e.c_min, d.c_min);
                prop_assert_eq!(e.instances, d.instances);
            }
        }
    }

    // The probabilistic analysis inherits the same contract: results
    // are bit-identical (every PMF bin, every derived quantile) across
    // cache temperature, worker count, and bus backend — a fresh
    // single-threaded evaluator and a warm multi-threaded one must not
    // differ in a single bit.
    #[test]
    fn prob_results_are_bit_identical_across_cache_and_jobs(
        seed in 0u64..5_000,
        pick in 0u8..4,
        jobs in 2usize..5,
    ) {
        // Rotate through classic two-node, mixed-controller, and CAN FD
        // shapes so both backends' prob paths are pinned.
        let shape = match seed % 3 {
            0 => NetShape::two_node(),
            1 => NetShape::mixed(),
            _ => NetShape::fd(),
        };
        let net = random_network(&shape.messages(6), seed);
        let scenario = scenario_for(pick);
        let base = BaseSystem::new(net.clone());
        let variants: Vec<SystemVariant> = [0.0, 0.2, 0.5]
            .iter()
            .map(|&r| SystemVariant::new(base.clone(), scenario.clone()).with_jitter_ratio(r))
            .collect();

        let reference = Evaluator::new(Parallelism::new(1));
        let parallel = Evaluator::new(Parallelism::new(jobs));
        // Warm the parallel evaluator's deterministic cache first so the
        // prob path runs against a warm cache there and a cold one on
        // the reference.
        let _ = parallel.evaluate_batch(&variants);

        for (i, v) in variants.iter().enumerate() {
            let cold = parallel.evaluate_prob(v).expect("analyzable");
            let warm = parallel.evaluate_prob(v).expect("analyzable");
            prop_assert!(Arc::ptr_eq(&cold, &warm), "variant {i}: prob result not cached");
            let fresh = reference.evaluate_prob(v).expect("analyzable");
            prop_assert_eq!(&*cold, &*fresh, "variant {} diverges across evaluators", i);
        }
    }
}
