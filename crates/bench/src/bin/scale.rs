//! **Million-point scale sweep** — records BENCH_scale.json.
//!
//! Runs a jitter × error × permutation sweep (default 4096 × 64 × 4 =
//! 1,048,576 points) over the 64-message case study through the
//! engine's deterministic chunked batch path, once per worker count in
//! {1, 2, 4, max hardware threads} (deduplicated), and records:
//!
//! * the **points/s-per-core curve** across those job counts,
//! * **cold and warm single-core** numbers for the shared 1024-point
//!   reference batch (`scale/cold_1024pts_jobs/1`, `scale/warm_1024pts`
//!   — the same workload the `scale` criterion bench times, which is
//!   how CI's perf gate ties the committed record to a fresh run),
//! * a cross-jobs **bit-identity proof**: every run folds all 1M
//!   reports into an order-dependent WCRT checksum, and the sweep
//!   aborts if any job count disagrees in a single bit.
//!
//! The sweep streams in slabs of 8192 points against a bounded cache
//! (4096 entries), so memory stays flat at any point count.
//!
//! Flags: `--quick` (65,536 points), `--points N` (N must be a
//! multiple of 256), `--out PATH` (default BENCH_scale.json).

use carta_bench::{case_study, scale_batch_1k, scale_perms, scale_point};
use carta_engine::evaluator::EvalResult;
use carta_engine::prelude::{BaseSystem, Evaluator, Parallelism};
use carta_obs::json::ObjectBuilder;
use std::time::Instant;

const ERRORS: usize = 64;
const PERMS: usize = 4;
const SLAB: usize = 8192;
const CACHE_CAPACITY: usize = 4096;
const DEFAULT_POINTS: usize = 1 << 20;

struct SweepRun {
    jobs: usize,
    wall_s: f64,
    checksum: u64,
    schedulable: u64,
    hits: u64,
    misses: u64,
}

/// Order-dependent fold over every message's WCRT (unbounded responses
/// fold as `u64::MAX`), so two runs agree iff every report agrees.
fn fold_checksum(mut checksum: u64, results: &[EvalResult]) -> (u64, u64) {
    let mut schedulable = 0u64;
    for result in results {
        let report = result.as_ref().expect("scale sweep points are valid");
        if report.schedulable() {
            schedulable += 1;
        }
        for m in &report.messages {
            let wcrt = m.outcome.wcrt().map_or(u64::MAX, |t| t.as_ns());
            checksum = checksum.wrapping_mul(0x100000001b3).wrapping_add(wcrt);
        }
    }
    (checksum, schedulable)
}

fn run_sweep(points: usize, jobs: usize) -> SweepRun {
    let base = BaseSystem::new(case_study());
    let perms = scale_perms(base.network().messages().len(), PERMS);
    let ratios = points / (ERRORS * PERMS);
    let eval = Evaluator::builder()
        .jobs(jobs)
        .cache_capacity(CACHE_CAPACITY)
        .build();
    let mut checksum = 0u64;
    let mut schedulable = 0u64;
    let start = Instant::now();
    let mut i = 0;
    while i < points {
        let slab_len = SLAB.min(points - i);
        let slab: Vec<_> = (i..i + slab_len)
            .map(|k| scale_point(&base, &perms, ratios, ERRORS, k))
            .collect();
        let results = eval.evaluate_batch(&slab);
        let (next, sched) = fold_checksum(checksum, &results);
        checksum = next;
        schedulable += sched;
        i += slab_len;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let stats = eval.stats();
    eprintln!(
        "  jobs={jobs}: {points} points in {wall_s:.1}s ({:.0} points/s, checksum {checksum:#018x})",
        points as f64 / wall_s
    );
    SweepRun {
        jobs,
        wall_s,
        checksum,
        schedulable,
        hits: stats.hits,
        misses: stats.misses,
    }
}

/// Median wall seconds of `reps` runs of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut points = DEFAULT_POINTS;
    let mut out = "BENCH_scale.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => points = 1 << 16,
            "--points" => {
                let raw = it.next().expect("--points needs a value");
                points = raw.parse().expect("--points needs an integer");
            }
            "--out" => out = it.next().expect("--out needs a path").clone(),
            other => panic!("unknown flag {other:?} (use --quick, --points N, --out PATH)"),
        }
    }
    assert!(
        points >= ERRORS * PERMS && points.is_multiple_of(ERRORS * PERMS),
        "--points must be a positive multiple of {}",
        ERRORS * PERMS
    );

    let ncpu = Parallelism::available();
    // jobs ∈ {1, 2, 4, max}: on a single-core host the jobs>1 runs
    // still execute (they price the worker threads' overhead and
    // feed the bit-identity check); only `max` collapses into the set.
    let mut job_counts: Vec<usize> = vec![1, 2, 4, ncpu];
    job_counts.sort_unstable();
    job_counts.dedup();

    eprintln!("scale sweep: {points} points (jitter x error x permutation), jobs {job_counts:?}");
    let runs: Vec<SweepRun> = job_counts.iter().map(|&j| run_sweep(points, j)).collect();

    // Cross-jobs bit-identity: the checksum folds every WCRT of every
    // report in batch order, so one differing bit anywhere fails here.
    for run in &runs[1..] {
        assert_eq!(
            run.checksum, runs[0].checksum,
            "jobs={} produced different results than jobs={}",
            run.jobs, runs[0].jobs
        );
        assert_eq!(
            (run.hits, run.misses),
            (runs[0].hits, runs[0].misses),
            "jobs={} produced different cache statistics than jobs={}",
            run.jobs,
            runs[0].jobs
        );
    }

    // Cold/warm single-core reference rows on the shared 1024-point
    // batch (same workload as the `scale` criterion bench).
    eprintln!("  single-core reference batch (1024 points, 15 reps each)");
    let reference = scale_batch_1k();
    let cold_s = median_secs(15, || {
        let eval = Evaluator::new(Parallelism::new(1));
        let _ = eval.evaluate_batch(&reference);
    });
    let warm_eval = Evaluator::new(Parallelism::new(1));
    let _ = warm_eval.evaluate_batch(&reference);
    let warm_s = median_secs(15, || {
        let _ = warm_eval.evaluate_batch(&reference);
    });

    let result_rows: Vec<String> = runs
        .iter()
        .map(|run| {
            let pps = points as f64 / run.wall_s;
            ObjectBuilder::new()
                .string("id", &format!("scale/sweep_jobs/{}", run.jobs))
                .uint("jobs", run.jobs as u64)
                .uint("points", points as u64)
                .num("wall_s", (run.wall_s * 1e3).round() / 1e3)
                .num("points_per_sec", pps.round())
                .num("points_per_sec_per_core", (pps / run.jobs as f64).round())
                .uint("schedulable_points", run.schedulable)
                .string("checksum", &format!("{:#018x}", run.checksum))
                .build()
        })
        .chain([
            ObjectBuilder::new()
                .string("id", "scale/cold_1024pts_jobs/1")
                .string(
                    "description",
                    "fresh evaluator per rep, 1024-point permutation-free reference batch \
                     (256 jitter ratios x 4 sporadic-error intervals), median of 15 reps - \
                     comparable to the `scale` criterion bench row of the same id",
                )
                .num("median_ms", (cold_s * 1e6).round() / 1e3)
                .num("points_per_sec_median", (1024.0 / cold_s).round())
                .build(),
            ObjectBuilder::new()
                .string("id", "scale/warm_1024pts")
                .string(
                    "description",
                    "same batch against a pre-warmed memo cache: every point is a memo hit \
                     and nothing is solved",
                )
                .num("median_us", (warm_s * 1e9).round() / 1e3)
                .build(),
        ])
        .collect();

    let curve: Vec<String> = runs
        .iter()
        .map(|run| {
            let pps = points as f64 / run.wall_s;
            format!(
                "{{\"jobs\": {}, \"points_per_sec\": {}, \"points_per_sec_per_core\": {}}}",
                run.jobs,
                pps.round(),
                (pps / run.jobs as f64).round()
            )
        })
        .collect();

    let machine_note = if ncpu == 1 {
        "single-core container: the jobs>1 rows price the worker threads' overhead \
         (no parallel speedup is measurable here); on a multi-core host the curve records \
         real scaling"
            .to_string()
    } else {
        format!("{ncpu} hardware threads available")
    };

    let doc = ObjectBuilder::new()
        .string(
            "bench",
            "scale (multi-core batch solve, deterministic chunking)",
        )
        .string("date", "2026-08-09")
        .string("command", "cargo run --release -p carta-bench --bin scale")
        .raw(
            "machine",
            &ObjectBuilder::new()
                .uint("cpus", ncpu as u64)
                .string("note", &machine_note)
                .build(),
        )
        .string(
            "workload",
            &format!(
                "{points} SystemVariant points over the 64-message powertrain case study: \
                 {} jitter ratios x {ERRORS} sporadic-error intervals x {PERMS} identifier \
                 permutations (incl. identity), streamed in slabs of {SLAB} against a \
                 {CACHE_CAPACITY}-entry bounded cache",
                points / (ERRORS * PERMS)
            ),
        )
        .raw("results", &format!("[{}]", result_rows.join(", ")))
        .raw(
            "points_per_sec_per_core_curve",
            &format!("[{}]", curve.join(", ")),
        )
        .string(
            "bit_identity",
            "every run folds all reports into an order-dependent WCRT checksum; the sweep \
             asserts all job counts produce the identical checksum and identical hit/miss \
             counts before this file is written",
        )
        .raw(
            "summary",
            &ObjectBuilder::new()
                .num(
                    "single_core_points_per_sec",
                    (points as f64 / runs[0].wall_s).round(),
                )
                .string(
                    "determinism",
                    "chunked round-robin assignment (64-point chunks, chunk c -> worker \
                     c % jobs) with per-chunk warm-start invalidation makes results a pure \
                     function of the batch at any job count",
                )
                .build(),
        )
        .build();

    std::fs::write(&out, format!("{doc}\n")).expect("write BENCH_scale.json");
    eprintln!("wrote {out}");
}
