//! Benchmarks the unified evaluation engine (`carta-engine`): batched
//! candidate throughput at different worker counts, the gap between a
//! cold and a warm memo cache, and the cost of metrics collection on
//! the warm path. The warm path is the one every repeat caller (sweeps
//! re-visiting a grid, the GA re-visiting genomes) hits. `warm_64pts`
//! runs an evaluator without an observer — the default, where the <2%
//! overhead budget applies (one `Option` check per instrumented site)
//! — while `warm_64pts_metrics` prices recording into a registry.
//!
//! The `rta_*` variants isolate the compiled RTA kernel itself
//! (BENCH_rta.json): `rta_cold_compiled_64pts` prices the solve phase
//! alone (tables compiled once, every fixpoint cold), and
//! `rta_warm_64pts` adds workspace warm-starting across the sweep. Both
//! are gated by a bit-identity assertion against the naive
//! `analyze_bus` path.

use carta_bench::case_study;
use carta_can::backend::BackendConfig;
use carta_can::network::CanNetwork;
use carta_can::prelude::{analyze_bus, BusReport, CompiledBus, RtaWorkspace};
use carta_engine::prelude::{BaseSystem, Evaluator, Parallelism, Scenario, SystemVariant};
use carta_obs::metrics::MetricsRegistry;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

const POINTS: usize = 64;

fn batch() -> Vec<SystemVariant> {
    let base = BaseSystem::new(case_study());
    let scenario = Scenario::worst_case();
    (0..POINTS)
        .map(|i| {
            SystemVariant::new(base.clone(), scenario.clone())
                .with_jitter_ratio(i as f64 / POINTS as f64)
        })
        .collect()
}

fn bench_engine_throughput(c: &mut Criterion) {
    let points = batch();
    let mut group = c.benchmark_group("engine_throughput");

    let mut job_counts = vec![1usize];
    let ncpu = Parallelism::available();
    if ncpu > 1 {
        job_counts.push(ncpu);
    }
    for jobs in job_counts {
        group.bench_with_input(
            BenchmarkId::new("cold_64pts_jobs", jobs),
            &jobs,
            |b, &jobs| {
                b.iter(|| {
                    // Fresh evaluator per iteration: every point is a
                    // cache miss, i.e. a full busy-window analysis.
                    let eval = Evaluator::new(Parallelism::new(jobs));
                    black_box(eval.evaluate_batch(&points))
                })
            },
        );
    }

    let warm = Evaluator::default();
    warm.evaluate_batch(&points);
    group.bench_function("warm_64pts", |b| {
        b.iter(|| black_box(warm.evaluate_batch(&points)))
    });

    // Same warm batch with every counter live (a bound registry) — the
    // delta to `warm_64pts` is the cost of recording, paid only when
    // someone asks for metrics.
    let registry = Arc::new(MetricsRegistry::new());
    let instrumented = Evaluator::builder().metrics(&registry).build();
    let bare = instrumented.evaluate_batch(&points);
    // Instrumentation must not perturb results: the engine is
    // deterministic, so the two evaluators agree bit-for-bit.
    for (a, b) in bare.iter().zip(warm.evaluate_batch(&points)) {
        let (a, b) = (a.as_ref().expect("valid"), b.as_ref().expect("valid"));
        assert_eq!(a.messages.len(), b.messages.len());
        for (x, y) in a.messages.iter().zip(&b.messages) {
            assert_eq!(x.outcome, y.outcome, "metrics changed {}", x.name);
        }
    }
    group.bench_function("warm_64pts_metrics", |b| {
        b.iter(|| black_box(instrumented.evaluate_batch(&points)))
    });

    // Compiled RTA kernel, isolated from the engine's memo cache: the
    // tables are compiled once and each iteration solves all 64 points.
    let nets: Vec<CanNetwork> = points.iter().map(|v| v.materialize()).collect();
    let scenario = Scenario::worst_case();
    let config = scenario.analysis_config();
    let model = scenario.errors.model();
    let compiled = CompiledBus::compile(&nets[0], config.stuffing).expect("valid case study");
    // Bit-identity gate: warm-started and cold compiled solves must
    // both reproduce the naive analysis exactly (this is what CI's
    // `--test` mode asserts).
    let mut gate_ws = RtaWorkspace::new();
    for net in &nets {
        let naive = analyze_bus(net, model.as_ref(), &config).expect("valid case study");
        let warm = compiled.solve(net, model.as_ref(), &config, &mut gate_ws);
        let cold = compiled.solve(net, model.as_ref(), &config, &mut RtaWorkspace::new());
        assert_identical(&warm, &naive, "warm-started compiled solve");
        assert_identical(&cold, &naive, "cold compiled solve");
    }

    group.bench_function("rta_cold_compiled_64pts", |b| {
        b.iter(|| {
            for net in &nets {
                black_box(compiled.solve(net, model.as_ref(), &config, &mut RtaWorkspace::new()));
            }
        })
    });

    let mut ws = RtaWorkspace::new();
    group.bench_function("rta_warm_64pts", |b| {
        b.iter(|| {
            for net in &nets {
                black_box(compiled.solve(net, model.as_ref(), &config, &mut ws));
            }
        })
    });

    // The CAN FD twin of the sweep: same matrix and scenario on the
    // dual-rate backend. Tables are backend-specific, so this prices a
    // full compile-once/solve-64 pass through the FD wire model, gated
    // by its own bit-identity assertion against the naive path.
    let fd_nets: Vec<CanNetwork> = nets
        .iter()
        .map(|n| n.clone().with_backend(BackendConfig::can_fd()))
        .collect();
    let fd_compiled = CompiledBus::compile(&fd_nets[0], config.stuffing).expect("valid case study");
    for net in &fd_nets {
        let naive = analyze_bus(net, model.as_ref(), &config).expect("valid case study");
        let cold = fd_compiled.solve(net, model.as_ref(), &config, &mut RtaWorkspace::new());
        assert_identical(&cold, &naive, "cold FD compiled solve");
    }
    group.bench_function("rta_fd_cold_64pts", |b| {
        b.iter(|| {
            for net in &fd_nets {
                black_box(fd_compiled.solve(
                    net,
                    model.as_ref(),
                    &config,
                    &mut RtaWorkspace::new(),
                ));
            }
        })
    });
    group.finish();
}

/// Every field a report row exposes must match the naive analysis.
fn assert_identical(fast: &BusReport, naive: &BusReport, what: &str) {
    assert_eq!(fast.messages.len(), naive.messages.len(), "{what}");
    assert_eq!(fast.error_model, naive.error_model, "{what}");
    assert_eq!(fast.stuffing, naive.stuffing, "{what}");
    assert_eq!(fast.backend, naive.backend, "{what}");
    for (a, b) in fast.messages.iter().zip(&naive.messages) {
        let identical = a.name == b.name
            && a.id == b.id
            && a.c_max == b.c_max
            && a.c_min == b.c_min
            && a.blocking == b.blocking
            && a.deadline == b.deadline
            && a.outcome == b.outcome
            && a.instances == b.instances;
        assert!(identical, "{what} diverged for `{}`", a.name);
    }
}

criterion_group!(benches, bench_engine_throughput);
criterion_main!(benches);
