//! `sweep`: design-space throughput. A 262,144-point grid (1024 jitter
//! ratios × 64 sporadic-error intervals × 4 identifier permutations)
//! over one generated 64-message matrix — the `scale` shape at a quarter
//! of its size — streamed through `Evaluator::evaluate_batch` with a
//! 4,096-entry cache and jobs = 1. One batch is one jitter curve: the
//! 1024 ratios of one (error interval, permutation) pair. Batches run in
//! grid order, wrapping around, until the measured seconds are used up.
//!
//! The batches are this short, rather than the 8,192-point slabs of
//! `scale`, so that the machine-speed samples taken between them (see
//! `speed.rs`) follow the machine closely: between 0.7 s slabs they left
//! the throughput of six identical runs 13 % apart.
//!
//! Sampled rows are checked against `analyze_bus` on the materialized
//! network, independently of the memo cache and the batch path. A traced
//! run also solves every batch directly with `CompiledBus::solve_batch`
//! on the same structure-of-arrays rows, which prices the engine's
//! overhead around the kernel.

use crate::inputs::kmatrix;
use crate::metrics::Outcome;
use crate::rng::Rng;
use crate::speed::Speed;
use crate::stats::{median, quantile, ratio};
use crate::trace::Tracer;
use crate::RunArgs;
use carta_can::compiled::{CompiledBus, RtaWorkspace, SolvePoint};
use carta_can::frame::StuffingMode;
use carta_can::rta::analyze_bus;
use carta_core::time::Time;
use carta_engine::evaluator::EvalResult;
use carta_engine::prelude::{BaseSystem, CacheStats, Evaluator, Scenario, SystemVariant};
use carta_obs::metrics::MetricsRegistry;
use std::sync::Arc;
use std::time::Instant;

const RATIOS: usize = 1024;
const ERRORS: usize = 64;
const PERMS: usize = 4;
const GRID: usize = RATIOS * ERRORS * PERMS;
/// Points per `evaluate_batch` call: one jitter curve.
const BATCH: usize = RATIOS;
/// Consecutive batches that together spread over the error intervals.
const GROUP: usize = 8;
const CACHE: usize = 4096;
/// The evaluator's batch chunk: the direct kernel restarts its
/// warm-start workspace at the same boundaries.
const CHUNK: usize = 64;
/// One row in this many is checked against `analyze_bus`.
const CHECK_STRIDE: usize = 499;
/// Set-up takes well under a millisecond, so its median needs many.
const SETUP_REPEATS: usize = 31;

/// `(jitter rank, error interval, permutation)` of grid point `i`. The
/// jitter rank runs fastest (the order the batch path warm-starts
/// along), then come the 256 (error interval, permutation) pairs, one
/// per batch. Group `g` of eight consecutive batches spreads its error
/// intervals evenly over the 64 (`g % 8`, `g % 8 + 8`, …) and uses every
/// permutation twice, so wherever the measured seconds cut the grid,
/// the batches done cover the error range alike.
fn coordinates(i: usize) -> (usize, usize, usize) {
    let i = i % GRID;
    let (group, pair) = (i / (GROUP * BATCH), (i / BATCH) % GROUP);
    let err = pair * (ERRORS / GROUP) + group % GROUP;
    let perm = (group / GROUP + pair) % PERMS;
    (i % RATIOS, err, perm)
}

/// The grid and the evaluator streaming it.
struct Sweep {
    base: Arc<BaseSystem>,
    perms: Vec<Option<Arc<Vec<usize>>>>,
    eval: Evaluator,
}

impl Sweep {
    /// Set-up: generate the matrix, wrap the base, draw the
    /// permutations, and compile once through a first evaluation.
    fn set_up(seed: u64, registry: Option<&Arc<MetricsRegistry>>) -> Result<Sweep, String> {
        let mut rng = Rng::new(seed, 0x5EE9);
        let net = kmatrix(rng.next_u64())
            .to_network()
            .map_err(|e| e.to_string())?;
        let n = net.messages().len();
        let base = BaseSystem::new(net);
        let perms = (0..PERMS)
            .map(|p| (p > 0).then(|| Arc::new(rng.permutation(n))))
            .collect();
        let builder = Evaluator::builder().jobs(1).cache_capacity(CACHE);
        let eval = match registry {
            Some(registry) => builder.metrics(registry).build(),
            None => builder.build(),
        };
        eval.evaluate(&SystemVariant::new(base.clone(), Scenario::worst_case()))
            .map_err(|e| e.to_string())?;
        Ok(Sweep { base, perms, eval })
    }

    /// Grid point `i` (see [`coordinates`]).
    fn point(&self, i: usize) -> SystemVariant {
        let (rank, err, perm) = coordinates(i);
        let ratio = rank as f64 / RATIOS as f64 * 0.6;
        let scenario = Scenario::sporadic_errors(Time::from_us(2_000 + 250 * err as u64));
        let v = SystemVariant::new(self.base.clone(), scenario).with_jitter_ratio(ratio);
        match &self.perms[perm] {
            Some(perm) => v.with_permutation(perm.clone()),
            None => v,
        }
    }
}

/// Direct kernel timings of one batch.
struct Kernel {
    compile_s: Vec<f64>,
    solve_s: f64,
    iterations: u64,
    iters_saved: u64,
}

/// Solves `batch` with `CompiledBus::solve_batch` on the rows the
/// evaluator would build, one compile and one solve per (permutation,
/// error interval) run of points, restarting the workspace every
/// `CHUNK` points.
fn kernel(
    tr: &mut Tracer,
    op: u64,
    sweep: &Sweep,
    batch: &[SystemVariant],
) -> Result<Kernel, String> {
    let root = tr.begin("probe", op, None);
    let result = (|| {
        let n = sweep.base.network().messages().len();
        let mut k = Kernel {
            compile_s: Vec::new(),
            solve_s: 0.0,
            iterations: 0,
            iters_saved: 0,
        };
        let same_perm = |a: &SystemVariant, b: &SystemVariant| {
            a.permutation().map(Arc::as_ptr) == b.permutation().map(Arc::as_ptr)
        };
        for group in batch.chunk_by(|a, b| a.scenario() == b.scenario() && same_perm(a, b)) {
            let net = match group[0].permutation() {
                Some(_) => group[0].materialize(),
                None => sweep.base.network().clone(),
            };
            let (compiled, compile_s) = tr.time("can.compile", op, Some(&root), || {
                CompiledBus::compile(&net, StuffingMode::WorstCase)
            });
            let compiled = compiled.map_err(|e| e.to_string())?;
            k.compile_s.push(compile_s);
            let errors = group[0].scenario().errors.model();
            let config = group[0].scenario().analysis_config();
            let points: Vec<SolvePoint> = group
                .iter()
                .map(|v| {
                    let mut p = SolvePoint::new();
                    p.fill_with(n, |i| v.solve_row(i));
                    p
                })
                .collect();
            let (stats, secs) = tr.time("can.solve", op, Some(&root), || {
                let mut agg = (0u64, 0u64);
                for chunk in points.chunks(CHUNK) {
                    let (_, stats) = compiled.solve_batch(
                        chunk,
                        errors.as_ref(),
                        &config,
                        &mut RtaWorkspace::new(),
                    );
                    agg.0 += stats.iterations;
                    agg.1 += stats.iters_saved;
                }
                agg
            });
            k.solve_s += secs;
            k.iterations += stats.0;
            k.iters_saved += stats.1;
        }
        Ok(k)
    })();
    tr.end(root);
    result
}

/// Adds the counters that moved between `before` and `after` to `sum`.
fn accumulate(sum: &mut CacheStats, before: CacheStats, after: CacheStats) {
    sum.hits += after.hits - before.hits;
    sum.misses += after.misses - before.misses;
    sum.compiles += after.compiles - before.compiles;
    sum.warm_starts += after.warm_starts - before.warm_starts;
    sum.cold_starts += after.cold_starts - before.cold_starts;
}

/// Runs the sweep workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let registry = args.trace.then(|| Arc::new(MetricsRegistry::new()));
    let repeats = if args.quick { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut setup_speed = Speed::default();
    let mut sweep = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let fresh = Sweep::set_up(args.seed, registry.as_ref())?;
        setup_s.push(start.elapsed().as_secs_f64());
        setup_speed.sample();
        sweep = Some(fresh);
    }
    let sweep = sweep.expect("at least one set-up");

    let mut tr = Tracer::new(args.trace);
    let offset = Rng::new(args.seed, 0xC4EC).below(CHECK_STRIDE);
    let mut checks: Vec<(SystemVariant, EvalResult)> = Vec::new();
    let mut batch_s = Vec::new();
    let mut hit_s = Vec::new();
    let mut kernels = Vec::new();
    let mut failed = 0u64;
    let mut cache = CacheStats::default();
    let mut speed = Speed::default();
    let registry_before = registry.as_ref().map(|r| r.snapshot());
    let start = Instant::now();
    let mut next = 0usize;
    loop {
        let last = batch_s.last().copied().unwrap_or(0.0);
        if next > 0 && start.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
        let op = (next / BATCH) as u64;
        let root = tr.begin("batch", op, None);
        let batch: Vec<SystemVariant> = (next..next + BATCH).map(|i| sweep.point(i)).collect();
        let before = sweep.eval.stats();
        let (results, secs) = tr.time("engine.evaluate_batch", op, Some(&root), || {
            sweep.eval.evaluate_batch(&batch)
        });
        accumulate(&mut cache, before, sweep.eval.stats());
        batch_s.push(secs);
        for (j, result) in results.iter().enumerate() {
            if result.is_err() {
                failed += 1;
                out.notes.push(format!("point {}: {:?}", next + j, result));
            } else if (next + j) % CHECK_STRIDE == offset {
                checks.push((batch[j].clone(), result.clone()));
            }
        }
        tr.end(root);
        speed.sample();
        if args.trace {
            kernels.push(kernel(&mut tr, op, &sweep, &batch)?);
            let last = &batch[BATCH - 1];
            let before = sweep.eval.stats();
            let (_, secs) = tr.time("engine.evaluate_hit", op, None, || {
                sweep.eval.evaluate(last)
            });
            if sweep.eval.stats().hits > before.hits {
                hit_s.push(secs);
            }
        }
        next += BATCH;
    }
    let wall_s = start.elapsed().as_secs_f64();

    // Independent check: sampled rows against a from-scratch analysis.
    for (variant, result) in &checks {
        let scenario = variant.scenario();
        let expected = analyze_bus(
            &variant.materialize(),
            scenario.errors.model().as_ref(),
            &scenario.analysis_config(),
        );
        let agrees = match (result, &expected) {
            (Ok(got), Ok(want)) => **got == *want,
            _ => false,
        };
        if !agrees {
            failed += 1;
            out.notes.push(format!(
                "sweep row ({:?}) differs from analyze_bus",
                variant.key()
            ));
        }
    }
    out.attempted = next as u64;
    out.failed = failed;
    out.notes.push(format!(
        "{next} points in {} batches over {wall_s:.2} s; {} rows checked against analyze_bus",
        batch_s.len(),
        checks.len()
    ));

    let scaled = speed.scale(&batch_s);
    let batch_ms: Vec<f64> = scaled.iter().map(|s| s * 1e3).collect();
    out.e2e("latency_p50_ms", median(&batch_ms));
    out.e2e("latency_p95_ms", quantile(&batch_ms, 0.95));
    out.e2e("throughput_per_s", ratio(next as f64, scaled.iter().sum()));
    out.e2e("setup_s", median(&setup_speed.scale(&setup_s)));
    out.layer("bench.machine_slowdown", speed.slowdown());

    let per_point_us: Vec<f64> = batch_s.iter().map(|s| s / BATCH as f64 * 1e6).collect();
    out.layer("engine.hit_ratio", cache.hit_rate());
    out.layer("engine.evaluate_us.p50", median(&per_point_us));
    out.layer("engine.evaluate_us.miss_p50", median(&per_point_us));
    out.layer("engine.evaluate_us.hit_p50", median(&hit_s) * 1e6);
    out.layer("engine.compiles", cache.compiles as f64);
    out.layer("engine.warm_start_ratio", cache.warm_start_rate());
    out.layer("compile.count", cache.compiles as f64);
    if let (Some(registry), Some(before)) = (&registry, &registry_before) {
        let delta = registry.snapshot().delta(before);
        let c = |name: &str| delta.counter(name).unwrap_or(0) as f64;
        out.layer("engine.batch_chunks", c("engine.batch.chunks"));
        out.layer("engine.shard_waits", c("engine.batch.shard_waits"));
        out.layer("engine.scratch_evictions", c("engine.scratch.evictions"));
        out.layer("engine.cache_evictions", c("engine.cache.evictions"));
    }
    if !kernels.is_empty() {
        let probed = (kernels.len() * BATCH) as f64;
        let kernel_s: f64 = kernels
            .iter()
            .map(|k| k.solve_s + k.compile_s.iter().sum::<f64>())
            .sum();
        let evaluate_s: f64 = batch_s.iter().sum();
        out.layer("engine.overhead_share", 1.0 - ratio(kernel_s, evaluate_s));
        let compile_us: Vec<f64> = kernels
            .iter()
            .flat_map(|k| k.compile_s.iter().map(|s| s * 1e6))
            .collect();
        out.layer("compile.us.p50", median(&compile_us));
        let solve_us: Vec<f64> = kernels
            .iter()
            .map(|k| k.solve_s / BATCH as f64 * 1e6)
            .collect();
        out.layer("solve.us_per_point.p50", median(&solve_us));
        let iterations: u64 = kernels.iter().map(|k| k.iterations).sum();
        let saved: u64 = kernels.iter().map(|k| k.iters_saved).sum();
        out.layer("solve.iterations_per_point", iterations as f64 / probed);
        out.layer("solve.iters_saved_per_point", saved as f64 / probed);
    }
    crate::finish_trace(args, &mut out, &tr, "batch", wall_s);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn the_grid_visits_every_point_once_and_groups_spread_the_errors() {
        let seen: HashSet<_> = (0..GRID).map(coordinates).collect();
        assert_eq!(seen.len(), GRID);
        for batch in (0..GRID).step_by(BATCH) {
            let pair = (coordinates(batch).1, coordinates(batch).2);
            assert!((batch..batch + BATCH).all(|i| (coordinates(i).1, coordinates(i).2) == pair));
        }
        for group in 0..GRID / (GROUP * BATCH) {
            let start = group * GROUP * BATCH;
            let mut errors: Vec<usize> = (start..start + GROUP * BATCH)
                .step_by(BATCH)
                .map(|i| coordinates(i).1)
                .collect();
            errors.sort_unstable();
            let first = group % GROUP;
            assert_eq!(errors, (0..8).map(|k| first + 8 * k).collect::<Vec<_>>());
        }
    }
}
