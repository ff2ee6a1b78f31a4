//! Count, then time: the engine's work on fixed workloads, pinned
//! exactly. Cache hits and misses, compiles, warm and cold fixpoint
//! starts and busy-window iterations do not move with code layout, the
//! machine or the worker count, so a lost warm start, a lost memo hit or
//! an extra recompile fails here on any machine. Every point is also
//! checked against [`Scenario::analyze`] of the materialized network.
//!
//! The workloads: the case study's 64-point worst-case jitter ladder on
//! classic CAN and on CAN FD, and a 1024-point sporadic-error batch
//! (256 jitter ratios × 4 error intervals) at jobs 1 and 2.

use carta::prelude::*;
use carta_obs::metrics::MetricsRegistry;
use std::sync::Arc;

/// The work an evaluator has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    stats: CacheStats,
    /// Busy-window fixpoint iterations (`rta.iterations`).
    iterations: u64,
}

fn case_study() -> CanNetwork {
    powertrain_default().to_network().expect("convertible")
}

/// Jitter ratios 0, 1/64, …, 63/64 under the worst-case scenario.
fn jitter_ladder(net: CanNetwork) -> Vec<SystemVariant> {
    let base = BaseSystem::new(net);
    (0..64)
        .map(|i| {
            SystemVariant::new(base.clone(), Scenario::worst_case())
                .with_jitter_ratio(i as f64 / 64.0)
        })
        .collect()
}

/// 256 jitter ratios in [0, 0.6) × sporadic errors every 2, 2.25, 2.5
/// and 2.75 ms: 1024 distinct variants.
fn sporadic_batch() -> Vec<SystemVariant> {
    let base = BaseSystem::new(case_study());
    (0..1024u64)
        .map(|i| {
            let interval = Time::from_us(2_000 + 250 * (i / 256));
            SystemVariant::new(base.clone(), Scenario::sporadic_errors(interval))
                .with_jitter_ratio((i % 256) as f64 / 256.0 * 0.6)
        })
        .collect()
}

/// Evaluates `variants` twice on one fresh evaluator with `jobs`
/// workers and returns the counts after the cold and after the warm
/// pass. Both passes must agree with the reference analysis.
fn cold_then_warm(variants: &[SystemVariant], jobs: usize) -> (Counts, Counts) {
    let registry = Arc::new(MetricsRegistry::new());
    let eval = Evaluator::builder().jobs(jobs).metrics(&registry).build();
    let counts = || Counts {
        stats: eval.stats(),
        iterations: registry
            .snapshot()
            .counter("rta.iterations")
            .expect("bound at build"),
    };
    let cold = eval.evaluate_batch(variants);
    let after_cold = counts();
    let warm = eval.evaluate_batch(variants);
    let after_warm = counts();
    for (i, ((cold, warm), v)) in cold.iter().zip(&warm).zip(variants).enumerate() {
        let (cold, warm) = (cold.as_ref().expect("valid"), warm.as_ref().expect("valid"));
        assert!(Arc::ptr_eq(cold, warm), "point {i}: warm pass re-solved");
        let reference = v.scenario().analyze(&v.materialize()).expect("valid");
        assert_eq!(
            **cold, reference,
            "point {i} diverged from Scenario::analyze"
        );
    }
    (after_cold, after_warm)
}

/// The warm pass answers every point from the memo and solves nothing.
fn warm_after(cold: Counts, points: usize) -> Counts {
    Counts {
        stats: CacheStats {
            hits: cold.stats.hits + points as u64,
            ..cold.stats
        },
        ..cold
    }
}

#[test]
fn classic_jitter_ladder_counts_are_exact() {
    let (cold, warm) = cold_then_warm(&jitter_ladder(case_study()), 1);
    let expected = Counts {
        stats: CacheStats {
            hits: 0,
            misses: 64,
            compiles: 1,
            warm_starts: 4032,
            cold_starts: 64,
        },
        iterations: 7008,
    };
    assert_eq!(cold, expected);
    assert_eq!(warm, warm_after(expected, 64));
}

#[test]
fn fd_jitter_ladder_counts_are_exact() {
    let fd = case_study().with_backend(BackendConfig::can_fd());
    let (cold, warm) = cold_then_warm(&jitter_ladder(fd), 1);
    let expected = Counts {
        stats: CacheStats {
            hits: 0,
            misses: 64,
            compiles: 1,
            warm_starts: 4032,
            cold_starts: 64,
        },
        iterations: 5355,
    };
    assert_eq!(cold, expected);
    assert_eq!(warm, warm_after(expected, 64));
}

/// Chunks start from invalidated warm-start state, so the counts are
/// the same at any worker count.
#[test]
fn sporadic_batch_counts_are_exact_at_jobs_1_and_2() {
    let batch = sporadic_batch();
    let expected = Counts {
        stats: CacheStats {
            hits: 0,
            misses: 1024,
            compiles: 1,
            warm_starts: 64512,
            cold_starts: 1024,
        },
        iterations: 86616,
    };
    for jobs in [1, 2] {
        let (cold, warm) = cold_then_warm(&batch, jobs);
        assert_eq!(cold, expected, "cold pass at jobs={jobs}");
        assert_eq!(warm, warm_after(expected, 1024), "warm pass at jobs={jobs}");
    }
}
