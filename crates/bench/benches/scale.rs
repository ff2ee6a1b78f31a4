//! Multi-core batch-solve scaling: the deterministic chunked
//! `evaluate_batch` path at several worker counts, the warm read-pass
//! upper bound, and the raw structure-of-arrays `solve_batch` kernel.
//! The full ~1M-point jitter × error × permutation sweep lives in the
//! `scale` bin, which records BENCH_scale.json; this bench carries the
//! CI-checkable rows (`scale/cold_1024pts_jobs/1`, `scale/warm_1024pts`)
//! the perf gate compares against that record.
//!
//! Before anything is timed, a bit-identity gate evaluates a
//! permutation-free and a mixed-permutation grid at jobs 1, 2 and 8 and
//! asserts that results and the full `CacheStats` are identical. CI
//! runs this gate via `--test`.

use carta_bench::{case_study, scale_batch_1k, scale_perms, scale_point};
use carta_can::prelude::{CompiledBus, RtaWorkspace, SolvePoint};
use carta_engine::prelude::{BaseSystem, Evaluator, Parallelism, Scenario, SystemVariant};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Results and cache statistics must not depend on the worker count —
/// the contract every timed row below rides on.
fn assert_jobs_invariance() {
    let base = BaseSystem::new(case_study());
    let perms = scale_perms(base.network().messages().len(), 2);
    let plain: Vec<SystemVariant> = (0..192)
        .map(|i| scale_point(&base, &perms[..1], 48, 4, i))
        .collect();
    let mixed: Vec<SystemVariant> = (0..192)
        .map(|i| scale_point(&base, &perms, 24, 4, i))
        .collect();
    for (name, grid) in [("plain", &plain), ("permuted", &mixed)] {
        let mut reference = None;
        for jobs in [1usize, 2, 8] {
            let eval = Evaluator::new(Parallelism::new(jobs));
            let out = eval.evaluate_batch(grid);
            let stats = eval.stats();
            match &reference {
                None => reference = Some((out, stats)),
                Some((ref_out, ref_stats)) => {
                    assert_eq!(&stats, ref_stats, "{name} stats diverged at jobs={jobs}");
                    for (a, b) in out.iter().zip(ref_out) {
                        assert_eq!(
                            a.as_ref().expect("valid"),
                            b.as_ref().expect("valid"),
                            "{name} grid diverged at jobs={jobs}"
                        );
                    }
                }
            }
        }
    }
}

fn bench_scale(c: &mut Criterion) {
    assert_jobs_invariance();

    let points = scale_batch_1k();
    let mut group = c.benchmark_group("scale");

    // jobs ∈ {1, 2, 4, max}, deduplicated for the cores present — on a
    // single-core host only jobs=1 is a meaningful scaling row, and it
    // doubles as the BENCH_scale.json perf-gate reference.
    let ncpu = Parallelism::available();
    let mut job_counts: Vec<usize> = [1usize, 2, 4, ncpu]
        .into_iter()
        .filter(|&j| j == 1 || j <= ncpu)
        .collect();
    job_counts.sort_unstable();
    job_counts.dedup();
    for jobs in job_counts {
        group.bench_with_input(
            BenchmarkId::new("cold_1024pts_jobs", jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    let eval = Evaluator::new(Parallelism::new(jobs));
                    black_box(eval.evaluate_batch(&points))
                })
            },
        );
    }

    let warm = Evaluator::new(Parallelism::sequential());
    warm.evaluate_batch(&points);
    group.bench_function("warm_1024pts", |b| {
        b.iter(|| black_box(warm.evaluate_batch(&points)))
    });

    // The raw SoA kernel under the engine: one CompiledBus, per-message
    // activation/deadline vectors laid out once, the whole jitter
    // ladder solved in one `solve_batch` call.
    let scenario = Scenario::worst_case();
    let config = scenario.analysis_config();
    let model = scenario.errors.model();
    let base = BaseSystem::new(case_study());
    let n = base.network().messages().len();
    let compiled = CompiledBus::compile(base.network(), config.stuffing).expect("valid case study");
    let variants: Vec<SystemVariant> = (0..64)
        .map(|i| {
            SystemVariant::new(base.clone(), scenario.clone()).with_jitter_ratio(i as f64 / 64.0)
        })
        .collect();
    let solve_points: Vec<SolvePoint> = variants
        .iter()
        .map(|v| {
            let mut p = SolvePoint::new();
            p.fill_with(n, |i| v.solve_row(i));
            p
        })
        .collect();
    // The SoA batch must agree bit-for-bit with per-point solves.
    let mut gate_ws = RtaWorkspace::new();
    let (batch_reports, _) =
        compiled.solve_batch(&solve_points, model.as_ref(), &config, &mut gate_ws);
    for (point, fast) in solve_points.iter().zip(&batch_reports) {
        let naive = compiled.solve_point(point, model.as_ref(), &config, &mut RtaWorkspace::new());
        assert_eq!(&naive, fast, "solve_batch diverged from solve_point");
    }
    let mut ws = RtaWorkspace::new();
    group.bench_function("solve_batch_soa_64pts", |b| {
        b.iter(|| black_box(compiled.solve_batch(&solve_points, model.as_ref(), &config, &mut ws)))
    });
    group.finish();
}

criterion_group!(benches, bench_scale);
criterion_main!(benches);
