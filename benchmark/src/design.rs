//! `design_loop`: the paper's workflow on 1024 generated K-Matrices. For
//! each matrix: load the CSV, Fig. 4 `response_vs_jitter`, Fig. 5
//! `loss_vs_jitter` and `prob_loss_vs_jitter` on the paper grid, SPEA2
//! `optimize_can_ids` (population 16, 8 generations, jobs 1), then a
//! worst-case `evaluate` of the optimized matrix. Everything except the
//! optimizer's own evaluator runs through one long-lived evaluator with
//! a 4,096-entry cache. Matrices are taken in order until the measured
//! seconds are used up.
//!
//! Each optimized matrix must analyze the same under a fresh evaluator.

use crate::inputs::{kmatrix, probe_kernel, warm_up_probe};
use crate::metrics::Outcome;
use crate::rng::Rng;
use crate::speed::Speed;
use crate::stats::{mean, median, quantile, ratio};
use crate::trace::Tracer;
use crate::RunArgs;
use carta_engine::evaluator::EvalResult;
use carta_engine::prelude::{
    BaseSystem, CacheStats, Evaluator, Parallelism, Scenario, SystemVariant,
};
use carta_explore::loss::paper_jitter_grid;
use carta_explore::sweeps::Sweeps;
use carta_kmatrix::csv::{from_csv, to_csv};
use carta_obs::metrics::MetricsRegistry;
use carta_optim::canid::{optimize_can_ids, OptimizeIdsConfig};
use carta_optim::spea2::Spea2Config;
use std::sync::Arc;
use std::time::Instant;

/// Enough matrices that a run never revisits one: a revisit finds its
/// probabilistic answers still in the evaluator's prob memo, which has
/// no capacity bound, so the run's cost would depend on how many
/// designs the machine got through.
const MATRICES: usize = 1024;
const QUICK_MATRICES: usize = 16;
const POPULATION: usize = 16;
const GENERATIONS: usize = 8;
const CACHE: usize = 4096;
/// Set-ups per run; the median is `setup_s`.
const SETUP_REPEATS: usize = 7;

/// Per-call timings and counts collected over the designs.
#[derive(Default)]
struct Layers {
    sensitivity_s: Vec<f64>,
    loss_s: Vec<f64>,
    prob_loss_s: Vec<f64>,
    points_per_answer: Vec<f64>,
    optimize_s: Vec<f64>,
    evaluations: Vec<f64>,
    optim_cache: CacheStats,
    load_s: Vec<f64>,
    miss_s: Vec<f64>,
    hit_s: Vec<f64>,
    compile_s: Vec<f64>,
    solve_s: Vec<f64>,
    iterations: Vec<f64>,
    refine_s: Vec<f64>,
    refine_share: Vec<f64>,
    kernel_share: Vec<f64>,
}

/// One explore answer as a span; records its wall time and the
/// evaluator points it asked for.
fn answer<T>(
    tr: &mut Tracer,
    name: &'static str,
    op: u64,
    parent: &crate::trace::Open,
    eval: &Evaluator,
    points: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let before = eval.stats();
    let (out, secs) = tr.time(name, op, Some(parent), f);
    let after = eval.stats();
    points.push(((after.hits + after.misses) - (before.hits + before.misses)) as f64);
    (out, secs)
}

/// Runs the design-loop workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let registry = args.trace.then(|| Arc::new(MetricsRegistry::new()));
    let matrices = if args.quick { QUICK_MATRICES } else { MATRICES };
    let repeats = if args.quick { 1 } else { SETUP_REPEATS };

    // Set-up: generate the matrices as the CSV documents a designer
    // exchanges, each with the seed of its optimizer run (independent
    // per design, so one unlucky GA stream cannot shift a whole run),
    // and the long-lived evaluator.
    let mut setup_s = Vec::new();
    let mut setup_speed = Speed::default();
    let mut designs = Vec::new();
    let mut eval = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let mut rng = Rng::new(args.seed, 0xDE516);
        designs = (0..matrices)
            .map(|_| (to_csv(&kmatrix(rng.next_u64())), rng.next_u64()))
            .collect::<Vec<(String, u64)>>();
        let builder = Evaluator::builder().jobs(1).cache_capacity(CACHE);
        eval = Some(match &registry {
            Some(registry) => builder.metrics(registry).build(),
            None => builder.build(),
        });
        setup_s.push(start.elapsed().as_secs_f64());
        setup_speed.sample();
    }
    let eval = eval.expect("at least one set-up");

    let worst = Scenario::worst_case();
    let grid = paper_jitter_grid();
    let mut optimize = OptimizeIdsConfig {
        spea2: Spea2Config {
            population: POPULATION,
            archive: POPULATION / 2,
            generations: GENERATIONS,
            ..Spea2Config::default()
        },
        parallelism: Parallelism::new(1),
        ..OptimizeIdsConfig::default()
    };

    let mut tr = Tracer::new(args.trace);
    let mut layers = Layers::default();
    let mut design_s: Vec<f64> = Vec::new();
    let mut checks: Vec<(SystemVariant, EvalResult)> = Vec::new();
    let mut failed = 0u64;
    let mut speed = Speed::default();
    let registry_before = registry.as_ref().map(|r| r.snapshot());
    let start = Instant::now();
    loop {
        let n = design_s.len();
        let last = design_s.last().copied().unwrap_or(0.0);
        if n > 0 && start.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
        let op = n as u64;
        let (csv, ga_seed) = &designs[n % matrices];
        optimize.spea2.seed = *ga_seed;
        let root = tr.begin("design", op, None);
        let result = (|| {
            let (net, load_s) = tr.time("handler.load_model", op, Some(&root), || {
                from_csv(csv)
                    .map_err(|e| e.to_string())?
                    .to_network()
                    .map_err(|e| e.to_string())
            });
            let net = net?;
            let points = &mut layers.points_per_answer;
            let (fig4, fig4_s) = answer(
                &mut tr,
                "explore.sensitivity",
                op,
                &root,
                &eval,
                points,
                || eval.response_vs_jitter(&net, &worst, &grid, None),
            );
            let (fig5, fig5_s) = answer(&mut tr, "explore.loss", op, &root, &eval, points, || {
                eval.loss_vs_jitter(&net, &worst, &grid)
            });
            let (fig5p, fig5p_s) = answer(
                &mut tr,
                "explore.prob_loss",
                op,
                &root,
                &eval,
                points,
                || eval.prob_loss_vs_jitter(&net, &worst, &grid),
            );
            fig4.map_err(|e| e.to_string())?;
            fig5.map_err(|e| e.to_string())?;
            fig5p.map_err(|e| e.to_string())?;
            let (optimized, optimize_s) = tr.time("optim.optimize", op, Some(&root), || {
                optimize_can_ids(&net, &optimize)
            });
            let variant = SystemVariant::new(BaseSystem::new(optimized.optimized), worst.clone());
            let (report, miss_s) = tr.time("engine.evaluate_miss", op, Some(&root), || {
                eval.evaluate(&variant)
            });
            layers.load_s.push(load_s);
            layers.sensitivity_s.push(fig4_s);
            layers.loss_s.push(fig5_s);
            layers.prob_loss_s.push(fig5p_s);
            layers.optimize_s.push(optimize_s);
            layers
                .evaluations
                .push(optimized.archive.evaluations as f64);
            let cache = &mut layers.optim_cache;
            cache.hits += optimized.cache.hits;
            cache.misses += optimized.cache.misses;
            cache.compiles += optimized.cache.compiles;
            layers.miss_s.push(miss_s);
            Ok::<_, String>((net, variant, report))
        })();
        design_s.push(tr.end(root));
        speed.sample();
        match result {
            Ok((net, variant, report)) => {
                if args.trace {
                    probe(&mut tr, op, &eval, &net, &variant, &worst, &mut layers)?;
                }
                checks.push((variant, report));
            }
            Err(e) => {
                failed += 1;
                out.notes.push(format!("design {n}: {e}"));
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Each optimized matrix must analyze the same under a fresh evaluator.
    for (variant, report) in &checks {
        let fresh = Evaluator::builder().jobs(1).build().evaluate(variant);
        let agrees = match (report, &fresh) {
            (Ok(got), Ok(want)) => got == want,
            _ => false,
        };
        if !agrees {
            failed += 1;
            out.notes.push(format!(
                "optimized matrix {:#x} analyzes differently under a fresh evaluator",
                variant.base().fingerprint()
            ));
        }
    }
    out.attempted = design_s.len() as u64;
    out.failed = failed;
    out.notes.push(format!(
        "{} designs over {wall_s:.2} s ({matrices} matrices)",
        design_s.len()
    ));

    let scaled = speed.scale(&design_s);
    let design_ms: Vec<f64> = scaled.iter().map(|s| s * 1e3).collect();
    out.e2e("latency_p50_ms", median(&design_ms));
    out.e2e("latency_p95_ms", quantile(&design_ms, 0.95));
    out.e2e(
        "throughput_per_s",
        ratio(design_s.len() as f64, scaled.iter().sum()),
    );
    out.e2e("setup_s", median(&setup_speed.scale(&setup_s)));
    out.layer("bench.machine_slowdown", speed.slowdown());

    let stats = eval.stats();
    let ms = |v: &[f64]| median(v) * 1e3;
    let us = |v: &[f64]| median(v) * 1e6;
    out.layer("explore.sensitivity_ms.p50", ms(&layers.sensitivity_s));
    out.layer("explore.loss_ms.p50", ms(&layers.loss_s));
    out.layer("explore.prob_loss_ms.p50", ms(&layers.prob_loss_s));
    out.layer("explore.points_per_answer", mean(&layers.points_per_answer));
    out.layer("optim.optimize_ms.p50", ms(&layers.optimize_s));
    out.layer("optim.evaluations", mean(&layers.evaluations));
    out.layer("optim.hit_ratio", layers.optim_cache.hit_rate());
    out.layer(
        "optim.compiles_per_evaluation",
        ratio(
            layers.optim_cache.compiles as f64,
            layers.evaluations.iter().sum(),
        ),
    );
    out.layer("handler.load_model_us.p50", us(&layers.load_s));
    out.layer("engine.hit_ratio", stats.hit_rate());
    out.layer("engine.evaluate_us.p50", us(&layers.miss_s));
    out.layer("engine.evaluate_us.miss_p50", us(&layers.miss_s));
    out.layer("engine.evaluate_us.hit_p50", us(&layers.hit_s));
    out.layer("engine.compiles", stats.compiles as f64);
    out.layer("engine.warm_start_ratio", stats.warm_start_rate());
    out.layer("compile.count", stats.compiles as f64);
    if let (Some(registry), Some(before)) = (&registry, &registry_before) {
        let delta = registry.snapshot().delta(before);
        let c = |name: &str| delta.counter(name).unwrap_or(0) as f64;
        out.layer("engine.batch_chunks", c("engine.batch.chunks"));
        out.layer("engine.shard_waits", c("engine.batch.shard_waits"));
        out.layer("engine.scratch_evictions", c("engine.scratch.evictions"));
        out.layer("engine.cache_evictions", c("engine.cache.evictions"));
    }
    if !layers.kernel_share.is_empty() {
        out.layer("engine.overhead_share", 1.0 - median(&layers.kernel_share));
    }
    out.layer("compile.us.p50", us(&layers.compile_s));
    out.layer("solve.us_per_point.p50", us(&layers.solve_s));
    out.layer("solve.iterations_per_point", mean(&layers.iterations));
    out.layer("prob.refine_us.p50", us(&layers.refine_s));
    out.layer("prob.refine_share", median(&layers.refine_share));
    crate::finish_trace(args, &mut out, &tr, "design", wall_s);
    Ok(out)
}

/// Traced runs: the kernel layers, a fresh evaluator's miss and the
/// long-lived evaluator's hit, timed directly on the design's matrix and
/// its optimized variant. Runs on a fresh thread, so the engine's
/// per-thread scratch state left by the design cannot make the miss warm.
fn probe(
    tr: &mut Tracer,
    op: u64,
    eval: &Evaluator,
    net: &carta_can::network::CanNetwork,
    variant: &SystemVariant,
    worst: &Scenario,
    layers: &mut Layers,
) -> Result<(), String> {
    std::thread::scope(|s| {
        s.spawn(|| probe_here(tr, op, eval, net, variant, worst, layers))
            .join()
    })
    .map_err(|_| "probe thread panicked".to_string())?
}

fn probe_here(
    tr: &mut Tracer,
    op: u64,
    eval: &Evaluator,
    net: &carta_can::network::CanNetwork,
    variant: &SystemVariant,
    worst: &Scenario,
    layers: &mut Layers,
) -> Result<(), String> {
    warm_up_probe(worst, true);
    let root = tr.begin("probe", op, None);
    let result = (|| {
        let kernel =
            probe_kernel(tr, op, Some(&root), net, worst, true).map_err(|e| e.to_string())?;
        let (hit, hit_s) = tr.time("engine.evaluate_hit", op, Some(&root), || {
            eval.evaluate(variant)
        });
        hit.map_err(|e| e.to_string())?;
        let fresh = Evaluator::builder().jobs(1).build();
        let twin = SystemVariant::new(BaseSystem::new(net.clone()), worst.clone());
        let (miss, miss_s) = tr.time("engine.evaluate_miss", op, Some(&root), || {
            fresh.evaluate(&twin)
        });
        miss.map_err(|e| e.to_string())?;
        layers.hit_s.push(hit_s);
        layers.compile_s.push(kernel.compile_s);
        layers.solve_s.push(kernel.solve_s);
        layers.iterations.push(kernel.stats.iterations as f64);
        layers
            .kernel_share
            .push(ratio(kernel.compile_s + kernel.solve_s, miss_s));
        if let Some((base_s, refine_s)) = kernel.prob {
            layers.refine_s.push(refine_s);
            layers.refine_share.push(ratio(
                refine_s,
                kernel.compile_s + kernel.solve_s + base_s + refine_s,
            ));
        }
        Ok(())
    })();
    tr.end(root);
    result
}
