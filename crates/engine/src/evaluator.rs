//! The memoizing, batching, parallel evaluator.
//!
//! One [`Evaluator`] instance serves a whole workload (a sweep, a GA
//! run, a CLI invocation): it owns the sharded result cache and the
//! parallelism budget, and hands out `Arc<BusReport>`s so repeated
//! evaluations of the same variant share one allocation.

use crate::variant::{SystemVariant, VariantKey};
use carta_can::compiled::{CompiledBus, RtaWorkspace, SolvePoint};
use carta_can::frame::StuffingMode;
use carta_can::prob::{prob_from_reports, ProbBusReport};
use carta_can::rta::BusReport;
use carta_core::analysis::AnalysisError;
use carta_core::cancel::CancelToken;
use carta_core::time::Time;
use carta_obs::metrics::{Counter, Histogram, MetricsRegistry};
use carta_obs::{event, span, Obs};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

/// Result of one evaluation: the analysis report, or the model error
/// (also cached — a malformed base fails identically every time).
pub type EvalResult = Result<Arc<BusReport>, AnalysisError>;

/// One compiled-bus cache entry: the tables, or the validation error of
/// the base (cached so a malformed base is validated once).
type CompiledEntry = Result<Arc<CompiledBus>, AnalysisError>;

/// Result of one probabilistic evaluation: the convolved distribution
/// report, or the model error (which the deterministic memo caches).
pub type ProbEvalResult = Result<Arc<ProbBusReport>, AnalysisError>;

/// How many worker threads a batch may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    jobs: usize,
}

impl Parallelism {
    /// Exactly `jobs` workers (clamped to at least one).
    pub fn new(jobs: usize) -> Self {
        Parallelism { jobs: jobs.max(1) }
    }

    /// Single-threaded evaluation.
    pub fn sequential() -> Self {
        Parallelism::new(1)
    }

    /// The number of hardware threads available to this process.
    pub fn available() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Resolves the job count the way the CLI does: an explicit
    /// request wins, then `env` — the raw `CARTA_JOBS` value, if set —
    /// then all available hardware threads. Returns the parallelism
    /// plus the warning a malformed or zero `env` deserves (the caller
    /// decides where it goes, instead of silently falling back).
    pub fn resolve_with_env(explicit: Option<usize>, env: Option<&str>) -> (Self, Option<String>) {
        if let Some(n) = explicit {
            return (Parallelism::new(n), None);
        }
        match env {
            None => (Parallelism::new(Self::available()), None),
            Some(raw) => match raw.trim().parse::<usize>() {
                Ok(0) => (
                    Parallelism::new(1),
                    Some(format!(
                        "CARTA_JOBS={raw} requests zero workers; clamping to 1"
                    )),
                ),
                Ok(n) => (Parallelism::new(n), None),
                Err(_) => (
                    Parallelism::new(Self::available()),
                    Some(format!(
                        "CARTA_JOBS={raw:?} is not a valid worker count; using all {} hardware threads",
                        Self::available()
                    )),
                ),
            },
        }
    }

    /// `CARTA_JOBS` / hardware-thread default (see
    /// [`Parallelism::resolve_with_env`]); a malformed or zero value
    /// is reported as one warning line on stderr.
    pub fn from_env() -> Self {
        let env = std::env::var("CARTA_JOBS").ok();
        let (resolved, warning) = Self::resolve_with_env(None, env.as_deref());
        if let Some(warning) = warning {
            eprintln!("warning: {warning}");
        }
        resolved
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::from_env()
    }
}

/// Deterministic fault injection for chaos testing — the hooks behind
/// `carta-testkit`'s chaos harness and the `fault-isolation` law.
///
/// Each hook fires on the N-th *uncached* analysis this evaluator
/// performs (cache hits replay completed work and never fault). An
/// injected result is never written to the memo cache, so retrying the
/// faulted point behaves exactly like a fresh evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic inside the analysis of the N-th uncached evaluation (with
    /// the thread's solve point taken out of its scratch), exercising
    /// the `catch_unwind` containment and scratch-reset path.
    pub panic_at: Option<u64>,
    /// Force the N-th uncached evaluation to diverge by sabotaging its
    /// busy-window horizon to zero, degrading every message of that
    /// report.
    pub diverge_at: Option<u64>,
    /// Fail the N-th uncached evaluation with an injected
    /// [`AnalysisError::InvalidModel`].
    pub invalid_at: Option<u64>,
}

impl FaultPlan {
    fn pick(&self, seq: u64) -> Option<InjectedFault> {
        if self.panic_at == Some(seq) {
            Some(InjectedFault::Panic)
        } else if self.diverge_at == Some(seq) {
            Some(InjectedFault::Diverge)
        } else if self.invalid_at == Some(seq) {
            Some(InjectedFault::Invalid)
        } else {
            None
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjectedFault {
    Panic,
    Diverge,
    Invalid,
}

/// Cache effectiveness counters (monotonically increasing over the
/// evaluator's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Evaluations answered from the memo cache.
    pub hits: u64,
    /// Evaluations that ran the analysis.
    pub misses: u64,
    /// RTA table builds: one per (base, stuffing mode) this evaluator
    /// analyzes — a full [`CompiledBus::compile`], or the identical
    /// tables a thread already holds from an earlier evaluator, handed
    /// over and counted so the figure never depends on what ran on the
    /// thread before — plus one [`CompiledBus::reordered`] recompile
    /// each time a thread's solves switch to another (base,
    /// permutation, stuffing) triple: at most once per run of one
    /// permutation within a batch chunk.
    pub compiles: u64,
    /// Busy-window fixpoints warm-started from a per-thread workspace.
    pub warm_starts: u64,
    /// Busy-window fixpoints solved from a cold start.
    pub cold_starts: u64,
}

impl CacheStats {
    /// Fraction of evaluations served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of solved busy-window fixpoints that warm-started
    /// (cached evaluations solve nothing and are not counted).
    pub fn warm_start_rate(&self) -> f64 {
        let total = self.warm_starts + self.cold_starts;
        if total == 0 {
            0.0
        } else {
            self.warm_starts as f64 / total as f64
        }
    }
}

const SHARDS: usize = 16;

/// Fixed batch chunk size — the warm-start and determinism unit: chunk
/// `c` of a batch always runs on worker `c % jobs` from invalidated
/// warm-start state, making work assignment and solve statistics a
/// pure function of the batch, not of scheduling. 64 points keep
/// warm-start runs long while keeping tail imbalance under a
/// millisecond of work.
const BATCH_CHUNK: usize = 64;

/// One planned unit of batch work: a chunk of the input and the
/// disjoint output rows it writes.
type ChunkWork<'a, 'b> = (&'a [SystemVariant], &'b mut [Option<EvalResult>]);

/// Identity of one table in a thread's scratch: the evaluator that
/// registered it (so stats never depend on another evaluator's work),
/// the base fingerprint and the stuffing mode.
type TablesKey = (u64, u64, StuffingMode);

/// Identity of one reordered table: its base table plus the identifier
/// permutation.
type ReorderKey = (TablesKey, Arc<Vec<usize>>);

/// Per-thread solve state: the SoA solve point rebuilt per variant, the
/// base tables last used on this thread (an `Arc` into the evaluator's
/// compiled-bus cache), the reordered tables of the last permutation
/// overlay (rebuilt when the (base, permutation, stuffing) triple
/// changes), and the RTA workspace that carries busy-window warm-start
/// data from one solve to the next.
#[derive(Default)]
struct Scratch {
    compiled: Option<(TablesKey, Arc<CompiledBus>)>,
    reordered: Option<(ReorderKey, Arc<CompiledBus>)>,
    ws: RtaWorkspace,
    point: SolvePoint,
}

impl Scratch {
    /// Starts a batch chunk: drops the warm-start state and the
    /// reordered tables, so the chunk's results, compiles and warm/cold
    /// counts depend on the chunk's own contents alone.
    fn start_chunk(&mut self) {
        self.ws.invalidate();
        self.reordered = None;
    }
}

thread_local! {
    /// One scratch slot per thread. Switching bases needs no eviction:
    /// the tables are re-fetched and the workspace's compile-epoch gate
    /// turns the switch into a cold start.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The one memo policy every evaluation goes through: [`SHARDS`]
/// hash-sharded maps keyed by [`VariantKey`]. Each shard holds at most
/// its share of [`EvaluatorBuilder::cache_capacity`]; a full shard is
/// cleared whole before the next insert (deterministic and
/// correctness-neutral: evicted variants are simply re-analysed on
/// their next request).
///
/// Poisoned locks are recovered, not propagated: shards only ever hold
/// fully-constructed entries (no lock is held across an analysis), so
/// a panic on another thread cannot leave a torn value behind.
struct Memo<T> {
    shards: Vec<Mutex<HashMap<VariantKey, T>>>,
    /// Per-shard entry budget; `None` is unbounded.
    shard_capacity: Option<usize>,
}

impl<T: Clone> Memo<T> {
    fn new(shard_capacity: Option<usize>) -> Self {
        Memo {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            shard_capacity,
        }
    }

    /// Locks `key`'s shard, counting contended acquisitions when there
    /// are metrics to count them in.
    fn shard(
        &self,
        key: &VariantKey,
        metrics: Option<&EngineMetrics>,
    ) -> MutexGuard<'_, HashMap<VariantKey, T>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        let shard = &self.shards[(h.finish() as usize) % SHARDS];
        let Some(metrics) = metrics else {
            return shard.lock().unwrap_or_else(PoisonError::into_inner);
        };
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                metrics.contention.inc();
                shard.lock().unwrap_or_else(PoisonError::into_inner)
            }
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        }
    }

    fn get(&self, key: &VariantKey, metrics: Option<&EngineMetrics>) -> Option<T> {
        self.shard(key, metrics).get(key).cloned()
    }

    /// Stores `value` under `key` and returns the canonical entry:
    /// racing threads may both compute, and the first insert wins so
    /// all callers share one value.
    fn insert(&self, key: VariantKey, value: T, metrics: Option<&EngineMetrics>) -> T {
        let mut shard = self.shard(&key, metrics);
        if let Some(capacity) = self.shard_capacity {
            if shard.len() >= capacity && !shard.contains_key(&key) {
                if let Some(metrics) = metrics {
                    metrics.evictions.add(shard.len() as u64);
                }
                shard.clear();
            }
        }
        shard.entry(key).or_insert(value).clone()
    }
}

/// Pre-resolved metric handles for the engine's hot paths, including
/// the `rta.*` numbers of the solves and compiles this evaluator runs
/// (the kernel itself records nothing).
///
/// Handles are resolved once at evaluator construction, and only when
/// its [`Obs`] has a registry, so the per-point cost while recording is
/// a handful of relaxed atomic adds — and without a registry, one
/// `Option` check.
struct EngineMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    contention: Arc<Counter>,
    evictions: Arc<Counter>,
    eval_wall_ns: Arc<Histogram>,
    batch_runs: Arc<Counter>,
    batch_points: Arc<Counter>,
    batch_wall_ns: Arc<Histogram>,
    queue_depth: Arc<Histogram>,
    batch_chunks: Arc<Counter>,
    batch_worker_points: Arc<Histogram>,
    rta_compiles: Arc<Counter>,
    rta_warm_starts: Arc<Counter>,
    rta_cold_starts: Arc<Counter>,
    fault_panics: Arc<Counter>,
    fault_injected: Arc<Counter>,
    solve_runs: Arc<Counter>,
    solve_messages: Arc<Counter>,
    solve_iterations: Arc<Counter>,
    iters_saved: Arc<Counter>,
    busy_instances: Arc<Histogram>,
    diverged: Arc<Counter>,
    compile_ns: Arc<Histogram>,
}

impl EngineMetrics {
    fn bind(registry: &MetricsRegistry) -> Self {
        EngineMetrics {
            hits: registry.counter("engine.cache.hits"),
            misses: registry.counter("engine.cache.misses"),
            contention: registry.counter("engine.cache.contention"),
            evictions: registry.counter("engine.cache.evictions"),
            eval_wall_ns: registry.histogram("engine.eval.wall_ns"),
            batch_runs: registry.counter("engine.batch.runs"),
            batch_points: registry.counter("engine.batch.points"),
            batch_wall_ns: registry.histogram("engine.batch.wall_ns"),
            queue_depth: registry.histogram("engine.batch.queue_depth"),
            batch_chunks: registry.counter("engine.batch.chunks"),
            batch_worker_points: registry.histogram("engine.batch.worker_points"),
            rta_compiles: registry.counter("engine.rta.compiles"),
            rta_warm_starts: registry.counter("engine.rta.warm_starts"),
            rta_cold_starts: registry.counter("engine.rta.cold_starts"),
            fault_panics: registry.counter("engine.faults.panics"),
            fault_injected: registry.counter("engine.faults.injected"),
            solve_runs: registry.counter("rta.runs"),
            solve_messages: registry.counter("rta.messages"),
            solve_iterations: registry.counter("rta.iterations"),
            iters_saved: registry.counter("rta.fixpoint_iters_saved"),
            busy_instances: registry.histogram("rta.busy_instances"),
            diverged: registry.counter("rta.diverged"),
            compile_ns: registry.histogram("rta.compile_ns"),
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Configures and constructs an [`Evaluator`] — the one way CLI, optim
/// and benches build one.
///
/// ```
/// use carta_engine::evaluator::Evaluator;
///
/// let evaluator = Evaluator::builder().jobs(2).cache_capacity(10_000).build();
/// assert_eq!(evaluator.parallelism().jobs(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct EvaluatorBuilder {
    parallelism: Option<Parallelism>,
    cache_capacity: Option<usize>,
    obs: Obs,
    faults: Option<FaultPlan>,
}

impl EvaluatorBuilder {
    /// Exactly `jobs` worker threads (clamped to at least one).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.parallelism = Some(Parallelism::new(jobs));
        self
    }

    /// A pre-resolved [`Parallelism`] (e.g. from
    /// [`Parallelism::resolve_with_env`]). Later of `jobs`/`parallelism`
    /// wins.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Bounds the memo cache to roughly `capacity` entries, separately
    /// for deterministic and probabilistic reports. When a cache shard
    /// outgrows its share the whole shard is cleared (a deterministic,
    /// correctness-neutral policy: evicted variants are simply
    /// re-analysed on their next request). Unbounded by default.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = Some(capacity);
        self
    }

    /// Records the evaluator's metrics (`engine.*`, `rta.*` and those
    /// of the sweeps run on it) into `registry`: the registry half of
    /// [`EvaluatorBuilder::obs`], keeping any span sink already set.
    pub fn metrics(mut self, registry: &Arc<MetricsRegistry>) -> Self {
        self.obs = Obs::new(Some(registry.clone()), self.obs.sink().cloned());
        self
    }

    /// The observer of everything this evaluator runs: its metrics go
    /// to the registry and its spans to the sink, where present. The
    /// default observes nothing. Replaces an earlier
    /// [`EvaluatorBuilder::metrics`].
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Arms deterministic fault injection; see [`FaultPlan`]. Chaos
    /// testing only — production callers never set this.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds the evaluator. Defaults: [`Parallelism::from_env`],
    /// unbounded cache, no observer.
    pub fn build(self) -> Evaluator {
        let metrics = self
            .obs
            .registry()
            .map(|registry| EngineMetrics::bind(registry));
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        // Per-shard budget; a capacity below SHARDS still keeps one
        // entry per shard rather than thrashing on every insert.
        let shard_capacity = self.cache_capacity.map(|c| (c / SHARDS).max(1));
        Evaluator {
            shared: Arc::new(EvalShared {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                parallelism: self.parallelism.unwrap_or_else(Parallelism::from_env),
                reports: Memo::new(shard_capacity),
                probs: Memo::new(shard_capacity),
                compiled: Mutex::new(HashMap::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                compiles: AtomicU64::new(0),
                warm_starts: AtomicU64::new(0),
                cold_starts: AtomicU64::new(0),
                obs: self.obs,
                metrics,
                faults: self.faults,
                fault_seq: AtomicU64::new(0),
            }),
            cancel: None,
        }
    }
}

/// The caches, counters and configuration every handle onto one
/// logical evaluator shares. [`Evaluator`] is a thin `Arc` around this:
/// [`Evaluator::scoped_cancel`] hands out additional handles carrying a
/// per-request [`CancelToken`] while hitting the same caches.
struct EvalShared {
    /// Process-unique identity, scoping per-thread scratch tables to
    /// this evaluator.
    id: u64,
    parallelism: Parallelism,
    reports: Memo<EvalResult>,
    /// Probabilistic reports. Only successes are stored: an error came
    /// from the deterministic memo, which already holds the cacheable
    /// ones, or is transient.
    probs: Memo<ProbEvalResult>,
    /// One compiled bus per (base fingerprint, stuffing mode), shared
    /// by every worker thread; compile errors are cached alongside so a
    /// malformed base is validated once.
    compiled: Mutex<HashMap<(u64, StuffingMode), CompiledEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    warm_starts: AtomicU64,
    cold_starts: AtomicU64,
    obs: Obs,
    /// Handles into `obs`'s registry; `None` without one.
    metrics: Option<EngineMetrics>,
    faults: Option<FaultPlan>,
    /// Counts uncached analyses, numbering them for [`FaultPlan`].
    fault_seq: AtomicU64,
}

/// Batched, memoized, parallel variant evaluation.
///
/// An `Evaluator` is a cheap handle onto shared state (caches,
/// counters, metric handles): [`Evaluator::scoped_cancel`] derives a
/// second handle over the *same* state whose evaluations poll a
/// [`CancelToken`] and abandon unfinished work with
/// [`AnalysisError::Cancelled`] — the server's request-deadline and
/// drain mechanism. Cancelled results are never cached, so completed
/// points stay bit-identical to an uncancelled run and retries behave
/// like fresh evaluations.
pub struct Evaluator {
    shared: Arc<EvalShared>,
    /// Token polled by this handle's evaluations (entry, chunk and
    /// per-message solve boundaries); `None` on the root handle.
    cancel: Option<CancelToken>,
}

impl std::fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Evaluator")
            .field("parallelism", &self.shared.parallelism)
            .field("stats", &self.stats())
            .field("cancel_scoped", &self.cancel.is_some())
            .finish_non_exhaustive()
    }
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator::new(Parallelism::from_env())
    }
}

impl Evaluator {
    /// Starts configuring an evaluator; see [`EvaluatorBuilder`].
    pub fn builder() -> EvaluatorBuilder {
        EvaluatorBuilder::default()
    }

    /// An evaluator with an empty cache and the given parallelism.
    /// Shorthand for `Evaluator::builder().parallelism(..).build()`.
    pub fn new(parallelism: Parallelism) -> Self {
        Evaluator::builder().parallelism(parallelism).build()
    }

    /// The configured parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.shared.parallelism
    }

    /// A cancel-scoped handle onto the *same* evaluator: the new handle
    /// shares every cache, counter and metric handle with `self`, but
    /// its evaluations poll `token` — at evaluation entry, at batch
    /// chunk boundaries, and between per-message busy-window fixpoints
    /// — and abandon unfinished work with [`AnalysisError::Cancelled`].
    /// Scoping is per-handle: evaluations running through other handles
    /// are unaffected, so a server can keep one long-lived evaluator
    /// per tenant and derive a scoped handle per request.
    pub fn scoped_cancel(&self, token: CancelToken) -> Evaluator {
        Evaluator {
            shared: Arc::clone(&self.shared),
            cancel: Some(token),
        }
    }

    /// The token this handle polls, if it is cancel-scoped (see
    /// [`Evaluator::scoped_cancel`]).
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Cache counters so far.
    pub fn stats(&self) -> CacheStats {
        self.shared.stats()
    }

    /// The observer this evaluator reports to (see
    /// [`EvaluatorBuilder::obs`]); work run on the evaluator's behalf —
    /// sweeps, request phases, optimizer and fuzz runs — reports to it
    /// too.
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// Evaluates one variant, consulting and filling the cache.
    ///
    /// # Errors
    ///
    /// Propagates (and caches) [`AnalysisError`] for malformed bases.
    /// A cancel-scoped handle whose token tripped returns (but never
    /// caches) [`AnalysisError::Cancelled`].
    pub fn evaluate(&self, variant: &SystemVariant) -> EvalResult {
        self.shared.evaluate(variant, self.cancel.as_ref())
    }

    /// Evaluates one variant probabilistically: the deterministic
    /// error-free and full analyses feed [`prob_from_reports`],
    /// producing per-message response-time distributions and
    /// deadline-miss probabilities. Successful reports are memoized by
    /// the same structural [`VariantKey`] as [`Evaluator::evaluate`],
    /// under the same capacity bound; both underlying deterministic
    /// analyses also land in the regular memo cache.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] for malformed bases (cached by the
    /// deterministic memo), and returns [`AnalysisError::Cancelled`] on
    /// a tripped cancel scope. No error enters the prob memo.
    pub fn evaluate_prob(&self, variant: &SystemVariant) -> ProbEvalResult {
        self.shared.evaluate_prob(variant, self.cancel.as_ref())
    }

    /// Evaluates a slice of variants, in parallel when both the batch
    /// and the configured [`Parallelism`] allow it. `results[i]`
    /// corresponds to `variants[i]`, identical to calling
    /// [`Evaluator::evaluate`] sequentially (the analysis is
    /// deterministic and the cache keyed structurally, so scheduling
    /// cannot change any result). On a cancel-scoped handle, chunks
    /// that start after the token trips fill their rows with
    /// [`AnalysisError::Cancelled`] deterministically; rows completed
    /// before the trip are bit-identical to an uncancelled run.
    pub fn evaluate_batch(&self, variants: &[SystemVariant]) -> Vec<EvalResult> {
        self.shared.evaluate_batch(variants, self.cancel.as_ref())
    }
}

impl EvalShared {
    /// Cache counters so far.
    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            warm_starts: self.warm_starts.load(Ordering::Relaxed),
            cold_starts: self.cold_starts.load(Ordering::Relaxed),
        }
    }

    /// The one memoized evaluation path: the cancel check, the memo
    /// lookup, the hit/miss counts, and `compute` on a miss — whose
    /// result is stored only when it reports itself cacheable.
    fn memoized<T>(
        &self,
        memo: &Memo<Result<Arc<T>, AnalysisError>>,
        variant: &SystemVariant,
        cancel: Option<&CancelToken>,
        compute: impl FnOnce() -> (Result<Arc<T>, AnalysisError>, bool),
    ) -> Result<Arc<T>, AnalysisError> {
        if cancel.is_some_and(|token| token.is_cancelled()) {
            return Err(AnalysisError::Cancelled);
        }
        let key = variant.key();
        let metrics = self.metrics.as_ref();
        if let Some(cached) = memo.get(&key, metrics) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if let Some(metrics) = metrics {
                metrics.hits.inc();
            }
            return cached;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Some(metrics) = metrics {
            metrics.misses.inc();
        }
        let (result, cacheable) = compute();
        if !cacheable {
            return result;
        }
        memo.insert(key, result, metrics)
    }

    /// Deterministic evaluation core; `cancel` (when present) is polled
    /// at entry and through the solve loop. Contained panics, injected
    /// faults and cancelled solves never enter the memo: a retry of the
    /// variant behaves exactly like a fresh evaluation.
    fn evaluate(&self, variant: &SystemVariant, cancel: Option<&CancelToken>) -> EvalResult {
        self.memoized(&self.reports, variant, cancel, || {
            self.timed(
                |m| &m.eval_wall_ns,
                || self.analyze_contained(variant, cancel),
            )
        })
    }

    /// Runs `work`, timing it into one histogram of the metrics when
    /// there are any (no clock is read otherwise).
    fn timed<T>(&self, histogram: fn(&EngineMetrics) -> &Histogram, work: impl FnOnce() -> T) -> T {
        let Some(metrics) = &self.metrics else {
            return work();
        };
        let start = Instant::now();
        let out = work();
        histogram(metrics).record(elapsed_ns(start));
        out
    }

    /// Probabilistic evaluation core (see [`Evaluator::evaluate_prob`]
    /// for the contract).
    fn evaluate_prob(
        &self,
        variant: &SystemVariant,
        cancel: Option<&CancelToken>,
    ) -> ProbEvalResult {
        self.memoized(&self.probs, variant, cancel, || {
            let result = self.compute_prob(variant, cancel);
            let cacheable = result.is_ok();
            (result, cacheable)
        })
    }

    /// One uncached probabilistic analysis (see
    /// [`Evaluator::evaluate_prob`]).
    fn compute_prob(
        &self,
        variant: &SystemVariant,
        cancel: Option<&CancelToken>,
    ) -> ProbEvalResult {
        let full = self.evaluate(variant, cancel)?;
        let base = self.evaluate(
            &variant
                .clone()
                .with_errors(crate::scenario::ErrorSpec::None),
            cancel,
        )?;
        let stuffing = variant.scenario().stuffing;
        let compiled =
            SCRATCH.with_borrow_mut(|scratch| self.tables_for(scratch, variant, stuffing))?;
        let model = variant.scenario().errors.model();
        prob_from_reports(&compiled, &base, &full, model.as_ref()).map(Arc::new)
    }

    /// Batch evaluation core (see [`Evaluator::evaluate_batch`] for the
    /// contract, including the cancellation semantics).
    fn evaluate_batch(
        &self,
        variants: &[SystemVariant],
        cancel: Option<&CancelToken>,
    ) -> Vec<EvalResult> {
        let _span = span!(
            self.obs,
            "engine.batch",
            points = variants.len(),
            jobs = self.parallelism.jobs()
        );
        if let Some(metrics) = &self.metrics {
            metrics.batch_runs.inc();
            metrics.batch_points.add(variants.len() as u64);
            metrics.queue_depth.record(variants.len() as u64);
        }
        self.timed(
            |m| &m.batch_wall_ns,
            || self.evaluate_batch_inner(variants, cancel),
        )
    }

    /// Deterministic chunked execution behind [`Evaluator::evaluate_batch`].
    ///
    /// The batch is cut into fixed-size chunks of [`BATCH_CHUNK`]
    /// points; chunk `c` always runs on worker `c % jobs`, in ascending
    /// chunk order within each worker. The assignment is a pure
    /// function of the batch and the job count — never of scheduling —
    /// so per-worker warm-start sequences, fault numbering under a
    /// fixed assignment, and the work distribution are reproducible
    /// run over run. Each chunk additionally starts from invalidated
    /// warm-start state and no reordered tables, which makes every
    /// result *and* the compile and warm/cold solve counters a pure
    /// function of the chunk's own contents:
    /// batches of distinct points are bit-identical, [`CacheStats`]
    /// included, at any `--jobs` value.
    fn evaluate_batch_inner(
        &self,
        variants: &[SystemVariant],
        cancel: Option<&CancelToken>,
    ) -> Vec<EvalResult> {
        if variants.len() <= 1 {
            return variants.iter().map(|v| self.evaluate(v, cancel)).collect();
        }
        let chunk_count = variants.len().div_ceil(BATCH_CHUNK);
        let jobs = self.parallelism.jobs().min(chunk_count);
        let mut out: Vec<Option<EvalResult>> = vec![None; variants.len()];
        if jobs <= 1 {
            for (chunk, rows) in variants
                .chunks(BATCH_CHUNK)
                .zip(out.chunks_mut(BATCH_CHUNK))
            {
                self.process_chunk(chunk, rows, cancel);
            }
            if let Some(metrics) = &self.metrics {
                metrics.batch_worker_points.record(variants.len() as u64);
            }
        } else {
            // Deterministic round-robin chunk plan, built before any
            // worker starts.
            let mut plans: Vec<Vec<ChunkWork>> = (0..jobs).map(|_| Vec::new()).collect();
            for (c, work) in variants
                .chunks(BATCH_CHUNK)
                .zip(out.chunks_mut(BATCH_CHUNK))
                .enumerate()
            {
                plans[c % jobs].push(work);
            }
            let worker_points: Vec<u64> = std::thread::scope(|scope| {
                let workers: Vec<_> = plans
                    .into_iter()
                    .map(|plan| {
                        scope.spawn(move || {
                            let mut points = 0u64;
                            for (chunk, rows) in plan {
                                points += chunk.len() as u64;
                                self.process_chunk(chunk, rows, cancel);
                            }
                            points
                        })
                    })
                    .collect();
                // Panics inside the analysis are contained by
                // `analyze_contained`, so a worker dying is a harness
                // bug — degrade its unclaimed points instead of
                // aborting the whole batch.
                workers.into_iter().filter_map(|w| w.join().ok()).collect()
            });
            if let Some(metrics) = &self.metrics {
                for points in worker_points {
                    metrics.batch_worker_points.record(points);
                }
            }
        }
        out.into_iter()
            .map(|r| {
                r.unwrap_or_else(|| {
                    Err(AnalysisError::Panicked {
                        detail: "evaluation worker died before reporting this point".into(),
                    })
                })
            })
            .collect()
    }

    /// Evaluates one chunk point by point through the memo path.
    ///
    /// Warm-start state and reordered tables are dropped on entry,
    /// making the chunk's results and solve statistics independent of
    /// whatever ran on this thread before — the keystone of cross-`jobs`
    /// bit-identity.
    fn process_chunk(
        &self,
        variants: &[SystemVariant],
        out: &mut [Option<EvalResult>],
        cancel: Option<&CancelToken>,
    ) {
        if cancel.is_some_and(|token| token.is_cancelled()) {
            // Chunk-boundary check: a chunk that starts after the trip
            // never touches a lock, the cache, or warm-start state —
            // every row degrades to `Cancelled` deterministically.
            for row in out.iter_mut() {
                *row = Some(Err(AnalysisError::Cancelled));
            }
            return;
        }
        SCRATCH.with_borrow_mut(Scratch::start_chunk);
        if let Some(metrics) = &self.metrics {
            metrics.batch_chunks.inc();
        }
        for (row, variant) in out.iter_mut().zip(variants) {
            *row = Some(self.evaluate(variant, cancel));
        }
    }

    /// The compiled bus of `variant`'s base under `stuffing`, from the
    /// shared cache. A miss counts one compile and stores `ready` —
    /// identical tables the thread already holds — or compiles the
    /// *base* network without them, timed into `rta.compile_ns`;
    /// permutation overlays reorder it per thread in
    /// [`EvalShared::tables_for`] instead of polluting this cache.
    fn compiled_for(
        &self,
        variant: &SystemVariant,
        fp: u64,
        stuffing: StuffingMode,
        ready: Option<Arc<CompiledBus>>,
    ) -> Result<Arc<CompiledBus>, AnalysisError> {
        let mut map = self.compiled.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry((fp, stuffing))
            .or_insert_with(|| {
                self.count_compile();
                match ready {
                    Some(tables) => Ok(tables),
                    None => self.timed(
                        |m| &m.compile_ns,
                        || CompiledBus::compile(variant.base().network(), stuffing).map(Arc::new),
                    ),
                }
            })
            .clone()
    }

    /// The tables `variant` solves against under `stuffing`, through
    /// the thread's scratch: the base's compiled bus, or — for a
    /// permutation overlay — its [`CompiledBus::reordered`] copy, built
    /// only when the (base, permutation, stuffing) triple changes.
    fn tables_for(
        &self,
        scratch: &mut Scratch,
        variant: &SystemVariant,
        stuffing: StuffingMode,
    ) -> Result<Arc<CompiledBus>, AnalysisError> {
        let fp = variant.base().fingerprint();
        let tables_key = (self.id, fp, stuffing);
        let compiled = match scratch.compiled.take() {
            Some((key, tables)) if key == tables_key => tables,
            // Tables another evaluator built for the same base on this
            // thread are handed over rather than recompiled.
            Some(((_, f, s), tables)) if (f, s) == (fp, stuffing) => {
                self.compiled_for(variant, fp, stuffing, Some(tables))?
            }
            _ => self.compiled_for(variant, fp, stuffing, None)?,
        };
        scratch.compiled = Some((tables_key, compiled.clone()));
        let Some(perm) = variant.permutation() else {
            return Ok(compiled);
        };
        let key = (tables_key, Arc::clone(perm));
        if let Some((k, reordered)) = &scratch.reordered {
            if *k == key {
                return Ok(reordered.clone());
            }
        }
        let reordered = Arc::new(compiled.reordered(variant.base().network(), &variant.ids()));
        self.count_compile();
        scratch.reordered = Some((key, reordered.clone()));
        Ok(reordered)
    }

    fn count_compile(&self) {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        if let Some(metrics) = &self.metrics {
            metrics.rta_compiles.inc();
        }
    }

    /// Counts the warm/cold busy-window starts of the latest solve and,
    /// for an observer, records the solve's `rta.*` numbers from the
    /// workspace's [`carta_can::compiled::SolveStats`] and the report,
    /// with one `rta.diverged` event per overload diagnostic.
    fn record_solve(&self, ws: &RtaWorkspace, report: &BusReport) {
        let stats = ws.last_stats();
        self.warm_starts
            .fetch_add(stats.warm_messages, Ordering::Relaxed);
        self.cold_starts
            .fetch_add(stats.cold_messages, Ordering::Relaxed);
        if let Some(metrics) = &self.metrics {
            metrics.rta_warm_starts.add(stats.warm_messages);
            metrics.rta_cold_starts.add(stats.cold_messages);
            metrics.solve_runs.inc();
            metrics.solve_messages.add(report.messages.len() as u64);
            metrics.solve_iterations.add(stats.iterations);
            metrics.iters_saved.add(stats.iters_saved);
            metrics.diverged.add(report.diagnostics().count() as u64);
            for message in &report.messages {
                metrics.busy_instances.record(message.instances);
            }
        }
        if self.obs.sink().is_none() {
            return;
        }
        for diag in report.diagnostics() {
            event!(
                self.obs,
                "rta.diverged",
                msg = diag.entity,
                level = diag.priority_level,
                w = diag.busy_window,
                q = diag.instances,
                cause = diag.cause,
            );
        }
    }

    /// Runs one uncached analysis behind a panic boundary. Returns the
    /// result plus whether it may enter the memo cache.
    ///
    /// A panic anywhere inside the analysis is contained here and
    /// surfaced as [`AnalysisError::Panicked`] instead of unwinding
    /// through the batch: one poisoned variant costs its own point,
    /// never the other 63. The thread's scratch state is dropped on the
    /// way out (the panic may have unwound mid-solve, leaving the solve
    /// point or warm-start workspace inconsistent), so the next analysis
    /// on this thread cold-starts from clean state.
    fn analyze_contained(
        &self,
        variant: &SystemVariant,
        cancel: Option<&CancelToken>,
    ) -> (EvalResult, bool) {
        let injected = self.faults.as_ref().and_then(|plan| {
            let seq = self.fault_seq.fetch_add(1, Ordering::Relaxed);
            plan.pick(seq)
        });
        if injected == Some(InjectedFault::Invalid) {
            if let Some(metrics) = &self.metrics {
                metrics.fault_injected.inc();
            }
            event!(self.obs, "engine.fault.injected", kind = "invalid-model");
            let err = AnalysisError::InvalidModel("injected fault: invalid model".into());
            return (Err(err), false);
        }
        if injected == Some(InjectedFault::Diverge) {
            if let Some(metrics) = &self.metrics {
                metrics.fault_injected.inc();
            }
            event!(
                self.obs,
                "engine.fault.injected",
                kind = "forced-divergence"
            );
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.analyze_uncached(variant, injected, cancel)
        }));
        match outcome {
            Ok(result) => {
                // Cancelled solves join panics and injected faults on
                // the never-cached path.
                let cacheable =
                    injected.is_none() && !matches!(result, Err(AnalysisError::Cancelled));
                (result, cacheable)
            }
            Err(payload) => {
                // Replaces the thread's scratch with a fresh default.
                SCRATCH.take();
                let detail = panic_detail(payload.as_ref());
                if let Some(metrics) = &self.metrics {
                    metrics.fault_panics.inc();
                }
                event!(self.obs, "engine.fault.contained", detail = detail);
                (Err(AnalysisError::Panicked { detail }), false)
            }
        }
    }

    /// Runs the analysis for a cache miss — the one path every variant
    /// takes, permuted or not: the per-thread SoA solve point is rebuilt
    /// row by row from the base plus overlays (no network is
    /// materialized), solved against [`EvalShared::tables_for`], and
    /// warm-started from the thread's [`RtaWorkspace`] wherever the
    /// epoch/dominance gate allows.
    fn analyze_uncached(
        &self,
        variant: &SystemVariant,
        fault: Option<InjectedFault>,
        cancel: Option<&CancelToken>,
    ) -> EvalResult {
        if cancel.is_some_and(|token| token.is_cancelled()) {
            return Err(AnalysisError::Cancelled);
        }
        variant.validate_overlays()?;
        SCRATCH.with_borrow_mut(|scratch| {
            let errors = variant.scenario().errors.model();
            let mut config = variant.scenario().analysis_config();
            if fault == Some(InjectedFault::Diverge) {
                // A zero busy-window horizon makes every message abort
                // with a `HorizonExceeded` diagnostic on first demand.
                config.horizon = Time::ZERO;
            }
            let tables = self.tables_for(scratch, variant, config.stuffing)?;
            let mut point = std::mem::take(&mut scratch.point);
            point.fill_with(variant.base().network().messages().len(), |i| {
                variant.solve_row(i)
            });
            if fault == Some(InjectedFault::Panic) {
                // Fires with the solve point taken out of the scratch,
                // so the containment path must genuinely discard dirty
                // state.
                panic!("injected fault: panic during analysis");
            }
            let _span = span!(self.obs, "rta.bus", msgs = point.len());
            let solved = match cancel {
                Some(token) => tables.solve_point_cancellable(
                    &point,
                    errors.as_ref(),
                    &config,
                    token,
                    &mut scratch.ws,
                ),
                None => Ok(tables.solve_point(&point, errors.as_ref(), &config, &mut scratch.ws)),
            };
            scratch.point = point;
            // A trip mid-solve abandons the point whole: the workspace
            // was invalidated by the solver, no stats are recorded, and
            // the caller never caches the error.
            let report = solved?;
            self.record_solve(&scratch.ws, &report);
            Ok(Arc::new(report))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::variant::BaseSystem;
    use carta_can::controller::ControllerType;
    use carta_can::frame::Dlc;
    use carta_can::message::{CanId, CanMessage};
    use carta_can::network::{CanNetwork, Node};
    use carta_core::time::Time;
    use std::time::Duration;

    fn net(n: usize) -> CanNetwork {
        let mut net = CanNetwork::new(250_000);
        let a = net.add_node(Node::new("A", ControllerType::FullCan));
        let b = net.add_node(Node::new("B", ControllerType::BasicCan));
        for k in 0..n {
            net.add_message(CanMessage::new(
                format!("m{k}"),
                CanId::standard(0x100 + 16 * k as u32).expect("valid"),
                Dlc::new(8),
                Time::from_ms(5 + 5 * (k as u64 % 4)),
                Time::from_us(500 * k as u64),
                if k % 2 == 0 { a } else { b },
            ));
        }
        net
    }

    #[test]
    fn cache_hits_on_repeated_variants() {
        let base = BaseSystem::new(net(6));
        let eval = Evaluator::new(Parallelism::sequential());
        let v = SystemVariant::new(base, Scenario::worst_case()).with_jitter_ratio(0.25);
        let first = eval.evaluate(&v).expect("valid");
        let second = eval.evaluate(&v).expect("valid");
        assert!(Arc::ptr_eq(&first, &second), "second call must be cached");
        let stats = eval.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn results_match_the_direct_path() {
        let base = BaseSystem::new(net(8));
        let eval = Evaluator::default();
        for scenario in [
            Scenario::best_case(),
            Scenario::worst_case(),
            Scenario::sporadic_errors(Time::from_ms(10)),
        ] {
            for ratio in [0.0, 0.25, 0.6] {
                let v = SystemVariant::new(base.clone(), scenario.clone()).with_jitter_ratio(ratio);
                let engine = eval.evaluate(&v).expect("valid");
                let direct = scenario
                    .analyze(&crate::jitter::with_jitter_ratio(base.network(), ratio))
                    .expect("valid");
                assert_eq!(engine.messages.len(), direct.messages.len());
                for (e, d) in engine.messages.iter().zip(&direct.messages) {
                    assert_eq!(e.outcome, d.outcome, "{} at {ratio}", e.name);
                    assert_eq!(e.deadline, d.deadline);
                    assert_eq!(e.blocking, d.blocking);
                }
            }
        }
    }

    #[test]
    fn batch_matches_sequential_and_preserves_order() {
        let base = BaseSystem::new(net(6));
        let variants: Vec<SystemVariant> = (0..20)
            .map(|k| {
                SystemVariant::new(base.clone(), Scenario::worst_case())
                    .with_jitter_ratio(k as f64 * 0.05)
            })
            .collect();
        let parallel = Evaluator::new(Parallelism::new(4));
        let sequential = Evaluator::new(Parallelism::sequential());
        let par = parallel.evaluate_batch(&variants);
        let seq = sequential.evaluate_batch(&variants);
        for (i, (p, s)) in par.iter().zip(&seq).enumerate() {
            let (p, s) = (p.as_ref().expect("valid"), s.as_ref().expect("valid"));
            for (pm, sm) in p.messages.iter().zip(&s.messages) {
                assert_eq!(pm.outcome, sm.outcome, "variant {i}, message {}", pm.name);
            }
        }
    }

    #[test]
    fn permutations_take_the_warm_path_with_one_reordered_compile_per_chunk() {
        let base = BaseSystem::new(net(6));
        let scenario = Scenario::worst_case();
        let perm = Arc::new(vec![5usize, 3, 1, 0, 2, 4]);
        // One permutation under ascending jitter, spanning two chunks.
        let variants: Vec<SystemVariant> = (0..2 * BATCH_CHUNK)
            .map(|k| {
                SystemVariant::new(base.clone(), scenario.clone())
                    .with_jitter_ratio(k as f64 * 0.003)
                    .with_permutation(perm.clone())
            })
            .collect();
        let eval = Evaluator::new(Parallelism::sequential());
        let out = eval.evaluate_batch(&variants);
        let stats = eval.stats();
        assert_eq!(
            stats.compiles,
            1 + 2,
            "the base tables plus exactly one reordered compile per chunk: {stats:?}"
        );
        // Only each chunk's first point solves cold; ascending jitter
        // dominates stream-wise, so every later point warm-starts.
        assert_eq!(stats.cold_starts, 2 * 6, "{stats:?}");
        assert_eq!(
            stats.warm_starts,
            2 * (BATCH_CHUNK as u64 - 1) * 6,
            "{stats:?}"
        );
        for (i, (v, report)) in variants.iter().zip(out).enumerate() {
            let direct = carta_can::rta::analyze_bus(
                &v.materialize(),
                scenario.errors.model().as_ref(),
                &scenario.analysis_config(),
            )
            .expect("valid");
            assert_eq!(*report.expect("valid"), direct, "point {i}");
        }
        // A second evaluator on this thread is handed the base tables
        // but still counts them: its stats never depend on what ran on
        // the thread before.
        let again = Evaluator::new(Parallelism::sequential());
        again.evaluate_batch(&variants);
        assert_eq!(again.stats(), stats);
    }

    #[test]
    fn jitter_sweeps_compile_once_and_warm_start() {
        let base = BaseSystem::new(net(6));
        let eval = Evaluator::new(Parallelism::sequential());
        for k in 0..8 {
            let v = SystemVariant::new(base.clone(), Scenario::worst_case())
                .with_jitter_ratio(k as f64 * 0.05);
            eval.evaluate(&v).expect("valid");
        }
        let stats = eval.stats();
        assert_eq!(stats.compiles, 1, "one compile serves the sweep: {stats:?}");
        assert_eq!(
            stats.warm_starts + stats.cold_starts,
            8 * 6,
            "every message of every point is solved exactly once: {stats:?}"
        );
        // Ascending jitter dominates the previous point stream-wise, so
        // every solve after the first warm-starts.
        assert_eq!(
            stats.cold_starts, 6,
            "only the first point runs cold: {stats:?}"
        );
        assert!(stats.warm_start_rate() > 0.8, "{stats:?}");
    }

    #[test]
    fn backends_never_share_cache_entries_or_warm_state() {
        let classic = BaseSystem::new(net(6));
        let fd = BaseSystem::new(net(6).with_backend(carta_can::backend::BackendConfig::can_fd()));
        assert_ne!(
            classic.fingerprint(),
            fd.fingerprint(),
            "backend must enter the structural fingerprint"
        );
        let eval = Evaluator::new(Parallelism::sequential());
        let scenario = Scenario::worst_case();
        let a = eval
            .evaluate(&SystemVariant::new(classic.clone(), scenario.clone()))
            .expect("valid");
        let b = eval
            .evaluate(&SystemVariant::new(fd.clone(), scenario.clone()))
            .expect("valid");
        let stats = eval.stats();
        assert_eq!((stats.hits, stats.misses), (0, 2), "{stats:?}");
        assert_eq!(stats.compiles, 2, "one compile per backend: {stats:?}");
        assert_eq!(
            stats.cold_starts,
            2 * 6,
            "warm-start state never crosses backends: {stats:?}"
        );
        assert_ne!(a.backend, b.backend);
        assert!(
            a.messages
                .iter()
                .zip(&b.messages)
                .all(|(x, y)| x.c_max > y.c_max),
            "FD frames must be strictly shorter at the default data ratio"
        );
        // Re-evaluating either backend hits exactly its own entry.
        eval.evaluate(&SystemVariant::new(classic, scenario.clone()))
            .expect("valid");
        eval.evaluate(&SystemVariant::new(fd, scenario))
            .expect("valid");
        assert_eq!(eval.stats().hits, 2);
        assert_eq!(eval.stats().compiles, 2, "no recompiles on the warm pass");
    }

    #[test]
    fn invalid_models_cache_their_error() {
        let empty = CanNetwork::new(500_000);
        let base = BaseSystem::new(empty);
        let eval = Evaluator::default();
        let v = SystemVariant::new(base, Scenario::best_case());
        assert!(eval.evaluate(&v).is_err());
        assert!(eval.evaluate(&v).is_err());
        assert_eq!(eval.stats().hits, 1);
    }

    #[test]
    fn cancelled_scope_degrades_without_caching() {
        let base = BaseSystem::new(net(4));
        let v = SystemVariant::new(base, Scenario::worst_case()).with_jitter_ratio(0.1);
        let eval = Evaluator::new(Parallelism::sequential());
        let token = CancelToken::new();
        token.cancel();
        let scoped = eval.scoped_cancel(token);
        assert!(matches!(scoped.evaluate(&v), Err(AnalysisError::Cancelled)));
        assert!(matches!(
            scoped.evaluate_prob(&v),
            Err(AnalysisError::Cancelled)
        ));
        // Nothing was cached: the root handle runs a real analysis.
        let fresh = eval.evaluate(&v).expect("uncancelled handle unaffected");
        assert!(!fresh.is_degraded());
        // And the prob cache was not poisoned either.
        eval.evaluate_prob(&v)
            .expect("prob retry is a real analysis");
    }

    #[test]
    fn cancelled_batch_keeps_completed_points_bit_identical() {
        let base = BaseSystem::new(net(6));
        let variants: Vec<SystemVariant> = (0..(2 * BATCH_CHUNK + 8))
            .map(|k| {
                SystemVariant::new(base.clone(), Scenario::worst_case())
                    .with_jitter_ratio(k as f64 * 0.003)
            })
            .collect();
        let reference = Evaluator::new(Parallelism::sequential()).evaluate_batch(&variants);

        // Pre-tripped token: every chunk starts after the trip, so the
        // whole batch degrades deterministically.
        let eval = Evaluator::new(Parallelism::new(2));
        let token = CancelToken::new();
        token.cancel();
        let all_cancelled = eval.scoped_cancel(token).evaluate_batch(&variants);
        assert_eq!(all_cancelled.len(), variants.len());
        for (i, r) in all_cancelled.iter().enumerate() {
            assert!(
                matches!(r, Err(AnalysisError::Cancelled)),
                "row {i} must be Cancelled, got {r:?}"
            );
        }

        // The same (shared) evaluator afterwards: nothing of the
        // cancelled run was cached, and every point is bit-identical to
        // the sequential reference.
        let retried = eval.evaluate_batch(&variants);
        for (i, (r, b)) in retried.iter().zip(&reference).enumerate() {
            let (r, b) = (r.as_ref().expect("valid"), b.as_ref().expect("valid"));
            assert_eq!(r.messages, b.messages, "point {i} must match the reference");
        }

        // A token that trips mid-batch: completed rows are bit-identical
        // to the reference, the rest are typed `Cancelled` — never a
        // torn report.
        let eval = Evaluator::new(Parallelism::sequential());
        let token = CancelToken::new();
        let scoped = eval.scoped_cancel(token.clone());
        // Cancel from a racing thread while the batch runs.
        let results = std::thread::scope(|scope| {
            let canceller = scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                token.cancel();
            });
            let results = scoped.evaluate_batch(&variants);
            canceller.join().expect("canceller thread");
            results
        });
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(report) => {
                    let reference = reference[i].as_ref().expect("valid");
                    assert_eq!(
                        report.messages, reference.messages,
                        "completed point {i} must be bit-identical"
                    );
                }
                Err(AnalysisError::Cancelled) => {}
                other => panic!("row {i}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn deadline_token_trips_running_evaluations() {
        let base = BaseSystem::new(net(6));
        let variants: Vec<SystemVariant> = (0..64)
            .map(|k| {
                SystemVariant::new(base.clone(), Scenario::worst_case())
                    .with_jitter_ratio(k as f64 * 0.01)
            })
            .collect();
        let eval = Evaluator::new(Parallelism::sequential());
        let scoped = eval.scoped_cancel(CancelToken::with_deadline(Duration::ZERO));
        let results = scoped.evaluate_batch(&variants);
        assert!(results
            .iter()
            .all(|r| matches!(r, Err(AnalysisError::Cancelled))));
        assert!(scoped.cancel_token().expect("scoped").is_cancelled());
        assert!(eval.cancel_token().is_none(), "root handle stays unscoped");
    }

    #[test]
    fn injected_panic_is_contained_and_isolated() {
        let base = BaseSystem::new(net(6));
        let variants: Vec<SystemVariant> = (0..8)
            .map(|k| {
                SystemVariant::new(base.clone(), Scenario::worst_case())
                    .with_jitter_ratio(k as f64 * 0.05)
            })
            .collect();
        let clean = Evaluator::new(Parallelism::sequential());
        let baseline = clean.evaluate_batch(&variants);

        let faulty = Evaluator::builder()
            .parallelism(Parallelism::sequential())
            .faults(FaultPlan {
                panic_at: Some(3),
                ..FaultPlan::default()
            })
            .build();
        let got = faulty.evaluate_batch(&variants);
        for (i, (g, b)) in got.iter().zip(&baseline).enumerate() {
            if i == 3 {
                match g {
                    Err(AnalysisError::Panicked { detail }) => {
                        assert!(detail.contains("injected fault"), "{detail}");
                    }
                    other => panic!("point 3 must be Panicked, got {other:?}"),
                }
            } else {
                let (g, b) = (g.as_ref().expect("isolated"), b.as_ref().expect("valid"));
                assert_eq!(g.messages, b.messages, "point {i} must be untouched");
            }
        }
        // Retrying the failed point is a fresh evaluation: nothing was
        // cached for it, and the fault (keyed to analysis #3) is spent.
        let retried = faulty.evaluate(&variants[3]).expect("retry succeeds");
        assert_eq!(
            retried.messages,
            baseline[3].as_ref().expect("valid").messages,
            "retry must be bit-identical to a clean evaluation"
        );
    }

    #[test]
    fn injected_faults_never_enter_the_cache() {
        let base = BaseSystem::new(net(4));
        let v = SystemVariant::new(base, Scenario::worst_case()).with_jitter_ratio(0.1);

        let eval = Evaluator::builder()
            .parallelism(Parallelism::sequential())
            .faults(FaultPlan {
                invalid_at: Some(0),
                ..FaultPlan::default()
            })
            .build();
        match eval.evaluate(&v) {
            Err(AnalysisError::InvalidModel(msg)) => assert!(msg.contains("injected")),
            other => panic!("expected injected InvalidModel, got {other:?}"),
        }
        // The injected error was not cached: the retry runs a real
        // analysis and succeeds.
        let retried = eval.evaluate(&v).expect("retry is a real analysis");
        assert!(!retried.is_degraded());
        assert_eq!(eval.stats().hits, 0, "no cache hit can have occurred");
    }

    #[test]
    fn forced_divergence_degrades_the_report_without_caching_it() {
        let registry = Arc::new(MetricsRegistry::new());
        let ring = Arc::new(carta_obs::RingBufferSink::new(64));
        let base = BaseSystem::new(net(4));
        let v = SystemVariant::new(base, Scenario::worst_case()).with_jitter_ratio(0.1);
        let eval = Evaluator::builder()
            .parallelism(Parallelism::sequential())
            .obs(Obs::new(Some(registry.clone()), Some(ring.clone())))
            .faults(FaultPlan {
                diverge_at: Some(0),
                ..FaultPlan::default()
            })
            .build();
        let degraded = eval.evaluate(&v).expect("degraded, not failed");
        assert!(degraded.is_degraded());
        assert_eq!(degraded.diagnostics().count(), 4, "every message aborts");
        let healthy = eval.evaluate(&v).expect("fresh analysis");
        assert!(
            !healthy.is_degraded(),
            "sabotaged report must not be cached"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.faults.injected"), Some(1));
        // The evaluator records the kernel's numbers from its reports.
        assert_eq!(snap.counter("rta.runs"), Some(2));
        assert_eq!(snap.counter("rta.diverged"), Some(4));
        let events = ring.drain();
        let named = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(named("rta.diverged"), 4, "one event per diagnostic");
        assert_eq!(named("rta.bus"), 4, "two solves, enter and exit each");
    }

    #[test]
    fn parallelism_resolution_precedence() {
        assert_eq!(Parallelism::new(0).jobs(), 1);
        assert_eq!(Parallelism::resolve_with_env(Some(3), None).0.jobs(), 3);
        assert!(Parallelism::from_env().jobs() >= 1);
        assert_eq!(Parallelism::sequential().jobs(), 1);
    }

    #[test]
    fn malformed_jobs_env_warns_instead_of_silently_falling_back() {
        let (p, w) = Parallelism::resolve_with_env(None, Some("4"));
        assert_eq!((p.jobs(), w), (4, None));
        let (p, w) = Parallelism::resolve_with_env(None, Some(" 2 "));
        assert_eq!((p.jobs(), w), (2, None), "whitespace is tolerated");
        let (p, w) = Parallelism::resolve_with_env(None, Some("0"));
        assert_eq!(p.jobs(), 1);
        assert!(w.expect("warned").contains("zero workers"));
        let (p, w) = Parallelism::resolve_with_env(None, Some("abc"));
        assert_eq!(p.jobs(), Parallelism::available());
        assert!(w.expect("warned").contains("not a valid worker count"));
        let (p, w) = Parallelism::resolve_with_env(Some(2), Some("abc"));
        assert_eq!(
            (p.jobs(), w),
            (2, None),
            "an explicit request wins without consulting the env"
        );
        let (p, w) = Parallelism::resolve_with_env(None, None);
        assert_eq!((p.jobs(), w), (Parallelism::available(), None));
    }

    #[test]
    fn chunked_batches_are_bit_identical_across_jobs() {
        let base = BaseSystem::new(net(6));
        // More than two chunks, all keys distinct, so hits, misses and
        // the chunk-local warm/cold split are jobs-invariant.
        let variants: Vec<SystemVariant> = (0..(3 * BATCH_CHUNK + 10))
            .map(|k| {
                SystemVariant::new(base.clone(), Scenario::worst_case())
                    .with_jitter_ratio(k as f64 * 0.003)
            })
            .collect();
        let mut reference: Option<(Vec<EvalResult>, CacheStats)> = None;
        for jobs in [1usize, 2, 8] {
            let eval = Evaluator::new(Parallelism::new(jobs));
            let out = eval.evaluate_batch(&variants);
            let stats = eval.stats();
            match &reference {
                None => reference = Some((out, stats)),
                Some((ref_out, ref_stats)) => {
                    assert_eq!(
                        stats, *ref_stats,
                        "cache statistics must be reproducible at jobs={jobs}"
                    );
                    for (i, (a, b)) in out.iter().zip(ref_out).enumerate() {
                        let (a, b) = (a.as_ref().expect("valid"), b.as_ref().expect("valid"));
                        assert_eq!(a.messages, b.messages, "point {i} diverged at jobs={jobs}");
                    }
                }
            }
        }
    }

    #[test]
    fn batch_repeats_are_hits_and_share_arcs() {
        let base = BaseSystem::new(net(6));
        // 8 distinct keys, each repeated 16 times within one batch.
        let variants: Vec<SystemVariant> = (0..128)
            .map(|k| {
                SystemVariant::new(base.clone(), Scenario::worst_case())
                    .with_jitter_ratio((k % 8) as f64 * 0.05)
            })
            .collect();
        let eval = Evaluator::new(Parallelism::sequential());
        let out = eval.evaluate_batch(&variants);
        let stats = eval.stats();
        assert_eq!(stats.misses, 8, "the first chunk analyses each key once");
        assert_eq!(stats.hits, 120, "every repeat is a memo hit");
        for (i, r) in out.iter().enumerate() {
            let r = r.as_ref().expect("valid");
            let canonical = out[i % 8].as_ref().expect("valid");
            assert!(
                Arc::ptr_eq(r, canonical),
                "row {i} must share the canonical Arc of its key"
            );
        }
    }

    #[test]
    fn builder_configures_jobs_and_capacity() {
        let eval = Evaluator::builder().jobs(3).cache_capacity(64).build();
        assert_eq!(eval.parallelism().jobs(), 3);
        assert_eq!(eval.shared.reports.shard_capacity, Some(4));
        assert_eq!(eval.shared.probs.shard_capacity, Some(4));
        // A tiny capacity still keeps one entry per shard.
        let tiny = Evaluator::builder().cache_capacity(1).build();
        assert_eq!(tiny.shared.reports.shard_capacity, Some(1));
    }

    #[test]
    fn bounded_cache_evicts_and_stays_correct() {
        let base = BaseSystem::new(net(6));
        let eval = Evaluator::builder()
            .jobs(1)
            .cache_capacity(SHARDS) // one entry per shard
            .build();
        let variants: Vec<SystemVariant> = (0..40)
            .map(|k| {
                SystemVariant::new(base.clone(), Scenario::worst_case())
                    .with_jitter_ratio(k as f64 * 0.01)
            })
            .collect();
        let first = eval.evaluate_batch(&variants);
        let unbounded = Evaluator::new(Parallelism::sequential());
        let reference = unbounded.evaluate_batch(&variants);
        for (a, b) in first.iter().zip(&reference) {
            let (a, b) = (a.as_ref().expect("valid"), b.as_ref().expect("valid"));
            for (am, bm) in a.messages.iter().zip(&b.messages) {
                assert_eq!(am.outcome, bm.outcome, "{}", am.name);
            }
        }
        // With 40 distinct variants across 16 single-entry shards, some
        // shard must have been cleared at least once.
        assert!(
            eval.stats().misses == 40,
            "all distinct variants analysed: {:?}",
            eval.stats()
        );
    }

    #[test]
    fn explicit_registry_mirrors_internal_counters() {
        let registry = Arc::new(MetricsRegistry::new());
        let base = BaseSystem::new(net(6));
        let eval = Evaluator::builder().jobs(2).metrics(&registry).build();
        let variants: Vec<SystemVariant> = (0..10)
            .map(|k| {
                SystemVariant::new(base.clone(), Scenario::worst_case())
                    .with_jitter_ratio((k % 5) as f64 * 0.1)
            })
            .collect();
        eval.evaluate_batch(&variants);
        eval.evaluate_batch(&variants); // warm pass: all hits
        let stats = eval.stats();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.cache.hits"), Some(stats.hits));
        assert_eq!(snap.counter("engine.cache.misses"), Some(stats.misses));
        assert_eq!(snap.counter("engine.batch.runs"), Some(2));
        assert_eq!(snap.counter("engine.batch.points"), Some(20));
        // Ten points fit one chunk; two batches, one chunk each.
        assert_eq!(snap.counter("engine.batch.chunks"), Some(2));
        let worker_points = snap
            .histogram("engine.batch.worker_points")
            .expect("present");
        assert_eq!((worker_points.count, worker_points.sum), (2, 20));
        let wall = snap.histogram("engine.eval.wall_ns").expect("present");
        assert_eq!(wall.count, stats.misses);
        assert!(wall.sum > 0);
    }

    #[test]
    fn injected_panic_never_enters_the_prob_memo() {
        let base = BaseSystem::new(net(6));
        let v = SystemVariant::new(base, Scenario::sporadic_errors(Time::from_ms(10)))
            .with_jitter_ratio(0.1);
        let clean = Evaluator::new(Parallelism::sequential())
            .evaluate_prob(&v)
            .expect("valid");
        let faulty = Evaluator::builder()
            .parallelism(Parallelism::sequential())
            .faults(FaultPlan {
                panic_at: Some(0),
                ..FaultPlan::default()
            })
            .build();
        assert!(matches!(
            faulty.evaluate_prob(&v),
            Err(AnalysisError::Panicked { .. })
        ));
        // The contained panic was not memoized: the retry is a real
        // analysis, identical to a clean evaluator's.
        let retried = faulty.evaluate_prob(&v).expect("retry is a real analysis");
        assert_eq!(*retried, *clean);
    }

    #[test]
    fn prob_memo_obeys_cache_capacity() {
        let base = BaseSystem::new(net(6));
        let eval = Evaluator::builder()
            .jobs(1)
            .cache_capacity(SHARDS) // one entry per shard
            .build();
        for k in 0..40 {
            let v = SystemVariant::new(base.clone(), Scenario::worst_case())
                .with_jitter_ratio(k as f64 * 0.01);
            eval.evaluate_prob(&v).expect("valid");
        }
        let entries: usize = eval
            .shared
            .probs
            .shards
            .iter()
            .map(|shard| shard.lock().expect("unpoisoned").len())
            .sum();
        assert!(entries <= SHARDS, "{entries} prob entries");
    }
}
