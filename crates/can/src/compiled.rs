//! The compiled RTA kernel: a compile/solve split of the busy-window
//! analysis.
//!
//! [`crate::rta::analyze_bus`] rebuilds the same per-topology data on
//! every call: priority-sorted index sets, worst/best-case frame-time
//! vectors, per-controller interference sets and error constants. For
//! workloads that analyze thousands of *variants* of one network
//! (jitter sweeps, identifier searches, fuzzing), that per-call work —
//! and its allocations — dominates. [`CompiledBus`] performs it once:
//!
//! * **compile** ([`CompiledBus::compile`]) derives everything that
//!   depends only on the topology (identifiers, payloads, senders,
//!   controllers, bit rate, stuffing mode): `c_max`/`c_min` vectors,
//!   hp/interference index sets, blocking and per-error-hit constants,
//!   and interned message names;
//! * **solve** ([`CompiledBus::solve`]) reads only the *event models*
//!   and deadlines from the network, so jitter and deadline overlays
//!   need no recompilation, and runs the busy-window fixpoints through
//!   a reusable [`RtaWorkspace`] that makes the steady state
//!   allocation-free and **warm-starts** each fixpoint from the
//!   previous solution when that is provably sound.
//!
//! # Warm-start soundness
//!
//! For message `i`, instance `q`, the busy window is the least fixpoint
//! of the monotone demand function
//!
//! ```text
//! f_q(w) = B_i + (q−1)·C_i + E(w + C_i) + Σ_{j ∈ I(i)} η⁺_j(w + τ)·C_j
//! ```
//!
//! Kleene iteration from any start `v ≤ lfp(f_q)` converges to exactly
//! `lfp(f_q)` (every iterate stays ≤ the fixpoint by monotonicity, and
//! the iteration cannot stop strictly below it). The previous
//! solution's fixpoint `w_q^old = lfp(f_q^old)` is therefore a valid
//! start whenever the *new* demand dominates the old one pointwise,
//! `f_q^new ≥ f_q^old`, which forces `lfp(f_q^old) ≤ lfp(f_q^new)`.
//! Note that a start *above* the least fixpoint would be unsound — the
//! iteration could settle on a larger post-fixpoint — and no local
//! probe at the old value can rule that out, so dominance of the demand
//! function itself is the gate:
//!
//! * the compiled tables (`C`, `B`, per-hit constant, interference
//!   sets) are unchanged — enforced by comparing the compile epoch;
//! * the error model and config are unchanged (`E` is the same
//!   monotone function);
//! * every interfering activation dominates its previous self:
//!   `η⁺_j^new ≥ η⁺_j^old` pointwise, for which
//!   `P_new ≤ P_old ∧ J_new ≥ J_old` plus a compatible `d_min` is
//!   sufficient (see `eta_dominates`).
//!
//! The message's *own* activation never appears in `f_q`, only in the
//! busy-period extension and the response-time subtraction — both are
//! evaluated fresh per solve — so it needs no dominance check. Because
//! the warm start converges to the *same* least fixpoint the cold start
//! would, the produced [`BusReport`] is bit-identical either way (the
//! `compiled-equals-naive` fuzz law in `carta-testkit` pins this).
//!
//! # Structure-of-arrays batch solving
//!
//! The solve phase reads exactly two things that vary between sweep
//! points: the activation models and the resolved deadlines. A
//! [`SolvePoint`] carries just those two dense vectors, and
//! [`CompiledBus::solve_batch`] iterates the solve over a slice of
//! points against the compiled `c_max`/`c_min`/interference tables laid
//! out once — no per-point network materialization, no per-point
//! re-walk of message structs, and the per-batch setup (the error-model
//! description) hoisted out of the loop.
//! [`CompiledBus::solve`] is the 1-point case of the same core, so
//! batch and per-point solves are bit-identical against the same
//! workspace sequence.

use crate::backend::BackendConfig;
use crate::controller::ControllerType;
use crate::error_model::ErrorModel;
use crate::frame::{bit_time, StuffingMode};
use crate::message::CanId;
use crate::network::CanNetwork;
use crate::rta::{AnalysisConfig, BusReport, MessageReport, ResponseOutcome};
use carta_core::analysis::{AnalysisError, DivergenceCause, MessageDiagnostic, ResponseBounds};
use carta_core::cancel::CancelToken;
use carta_core::event_model::EventModel;
use carta_core::time::Time;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing compile identity. Two [`CompiledBus`]
/// values never share an epoch, so a workspace's warm state can be tied
/// to exactly the tables it was produced with.
fn next_epoch() -> u64 {
    static EPOCH: AtomicU64 = AtomicU64::new(1);
    EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// `η⁺_new(Δ) ≥ η⁺_old(Δ)` for every window `Δ` — the per-stream gate
/// of the warm start.
///
/// With `η⁺(Δ) = min(⌈(Δ+J)/P⌉, ⌈Δ/d⌉)` (the `d` term absent when
/// `d = 0`), a sufficient condition is that both branches grew:
/// `P_new ≤ P_old`, `J_new ≥ J_old`, and the `d` branch of the new
/// model is no tighter than the old one's (`d_new = 0` means
/// unconstrained, i.e. `+∞`). The activation kind never enters `η⁺`.
pub(crate) fn eta_dominates(new: &EventModel, old: &EventModel) -> bool {
    new == old
        || (new.period() <= old.period()
            && new.jitter() >= old.jitter()
            && (new.dmin().is_zero() || (!old.dmin().is_zero() && new.dmin() <= old.dmin())))
}

/// Work accounting of one [`CompiledBus::solve`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Messages whose busy-window fixpoints were warm-started from the
    /// workspace's previous solution.
    pub warm_messages: u64,
    /// Messages solved from a cold start.
    pub cold_messages: u64,
    /// Fixpoint iterations spent in this solve.
    pub iterations: u64,
    /// Estimated fixpoint iterations avoided by warm starts: for every
    /// warm-started message, the iterations its *previous* solve spent
    /// minus the iterations this solve spent (floored at zero). An
    /// estimate — the true cold cost of the new parameters is unknown
    /// without running it — but a faithful trend indicator.
    pub iters_saved: u64,
}

/// One solve-phase input in structure-of-arrays form: the per-message
/// activation models and resolved deadlines — everything the solve
/// phase reads that is not already in the compiled tables. Batch
/// workloads lay points out once and feed slices of them to
/// [`CompiledBus::solve_batch`] without materializing a network per
/// point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolvePoint {
    activations: Vec<EventModel>,
    deadlines: Vec<Time>,
}

impl SolvePoint {
    /// An empty point (fill before solving).
    pub fn new() -> Self {
        Self::default()
    }

    /// The point describing `net` as-is: its activations and resolved
    /// deadlines, indexed like the network's messages.
    pub fn from_network(net: &CanNetwork) -> Self {
        let mut point = Self::default();
        point.fill_from_network(net);
        point
    }

    /// Rewrites this point from `net`, reusing the allocations.
    pub fn fill_from_network(&mut self, net: &CanNetwork) {
        let msgs = net.messages();
        self.fill_with(msgs.len(), |i| {
            let m = &msgs[i];
            (m.activation, m.resolved_deadline())
        });
    }

    /// Rewrites this point row by row: `row(i)` must return message
    /// `i`'s activation model and resolved deadline.
    pub fn fill_with(&mut self, n: usize, mut row: impl FnMut(usize) -> (EventModel, Time)) {
        self.activations.clear();
        self.deadlines.clear();
        self.activations.reserve(n);
        self.deadlines.reserve(n);
        for i in 0..n {
            let (activation, deadline) = row(i);
            self.activations.push(activation);
            self.deadlines.push(deadline);
        }
    }

    /// Number of messages in this point.
    pub fn len(&self) -> usize {
        self.activations.len()
    }

    /// `true` when the point has not been filled yet.
    pub fn is_empty(&self) -> bool {
        self.activations.is_empty()
    }

    /// The per-message activation models.
    pub fn activations(&self) -> &[EventModel] {
        &self.activations
    }

    /// The per-message resolved deadlines.
    pub fn deadlines(&self) -> &[Time] {
        &self.deadlines
    }
}

/// Reusable solve-phase state: busy-window warm-start data plus the
/// scratch buffers that make the steady state allocation-free.
///
/// A workspace belongs to one solving thread and may be reused across
/// arbitrary [`CompiledBus::solve`] calls — every warm-start gate
/// (compile epoch, error model, config, activation dominance) is
/// checked internally, so a stale or mismatched workspace degrades to a
/// cold start, never to a wrong result.
#[derive(Debug, Default)]
pub struct RtaWorkspace {
    /// Epoch of the [`CompiledBus`] the warm state belongs to
    /// (0 = no valid state).
    epoch: u64,
    /// `describe()` of the error model of the last solve.
    errors_desc: String,
    horizon: Time,
    max_instances: u64,
    /// Activations of the last solve, indexed like the network.
    activations: Vec<EventModel>,
    /// Converged per-instance busy windows of the last solve:
    /// `w[i][q-1]` is the least fixpoint of message `i`, instance `q`.
    /// May be a prefix when the last solve overloaded past it.
    w: Vec<Vec<Time>>,
    /// Per-message fixpoint iterations of the last solve.
    iters: Vec<u64>,
    /// Scratch: per-stream dominance flags of the current solve.
    dominates: Vec<bool>,
    /// Scratch: the window vector of the message being solved.
    w_next: Vec<Time>,
    /// Scratch: the SoA point [`CompiledBus::solve`] extracts from the
    /// network it is handed (reused so the steady state stays
    /// allocation-free).
    point: SolvePoint,
    /// Stats of the most recent solve.
    last: SolveStats,
}

impl RtaWorkspace {
    /// An empty workspace (first solve runs cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Work accounting of the most recent [`CompiledBus::solve`].
    pub fn last_stats(&self) -> SolveStats {
        self.last
    }

    /// Drops all warm-start state (subsequent solves run cold until
    /// they re-establish it).
    pub fn invalidate(&mut self) {
        self.epoch = 0;
    }

    fn resize(&mut self, n: usize) {
        self.w.resize_with(n, Vec::new);
        self.iters.resize(n, 0);
        self.dominates.resize(n, false);
    }
}

/// Precompiled per-topology tables of one CAN bus: everything the
/// busy-window solve needs that does not depend on event models or
/// deadlines.
#[derive(Debug, Clone)]
pub struct CompiledBus {
    epoch: u64,
    stuffing: StuffingMode,
    backend: BackendConfig,
    bit_rate: u64,
    /// One bit time on this bus.
    tau: Time,
    /// Interned message names, shared by every report produced from
    /// these tables (cloning an `Arc<str>` is a refcount bump).
    names: Vec<Arc<str>>,
    ids: Vec<CanId>,
    c_max: Vec<Time>,
    c_min: Vec<Time>,
    /// `hp[i]`: indices of the messages that out-arbitrate `i`,
    /// ascending.
    hp: Vec<Vec<usize>>,
    /// `interference[i]`: the index set whose `η⁺` feeds message `i`'s
    /// demand (hp for fullCAN senders; hp plus other-node lp for
    /// basicCAN/FIFO senders).
    interference: Vec<Vec<usize>>,
    /// Total (bus + controller-local) blocking charged to message `i`.
    blocking: Vec<Time>,
    /// Error overhead per hit while `i` waits: error frame plus the
    /// longest retransmission among `interference[i] ∪ {i}`.
    per_hit: Vec<Time>,
}

impl CompiledBus {
    /// Compiles the per-topology tables of `net` under `stuffing`.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidModel`] if the network fails
    /// [`CanNetwork::validate`].
    pub fn compile(net: &CanNetwork, stuffing: StuffingMode) -> Result<Self, AnalysisError> {
        net.validate()
            .map_err(|e| AnalysisError::InvalidModel(e.to_string()))?;
        let names = net
            .messages()
            .iter()
            .map(|m| Arc::from(m.name.as_str()))
            .collect();
        let ids: Vec<CanId> = net.messages().iter().map(|m| m.id).collect();
        Ok(Self::tables(net, &ids, stuffing, names))
    }

    /// Recompiles the tables of `net` with message `i` carrying
    /// `ids[i]` instead of its own identifier — exactly what a
    /// permutation overlay produces — reusing the interned names.
    /// `net` must be the compiled network; payloads, senders,
    /// controllers and bit rate are re-read from it, so no permuted
    /// copy of the network is ever materialized.
    ///
    /// The result carries a fresh epoch: warm-start state tied to the
    /// old tables is never applied to the new priority order.
    ///
    /// # Panics
    ///
    /// Panics if `net` or `ids` has a different message count.
    pub fn reordered(&self, net: &CanNetwork, ids: &[CanId]) -> Self {
        assert!(
            net.messages().len() == self.names.len() && ids.len() == self.names.len(),
            "reordered() requires the compiled network and one identifier per message"
        );
        Self::tables(net, ids, self.stuffing, self.names.clone())
    }

    /// Shared table construction; `net` is already validated and
    /// `ids[i]` is the identifier message `i` arbitrates with.
    fn tables(
        net: &CanNetwork,
        ids: &[CanId],
        stuffing: StuffingMode,
        names: Vec<Arc<str>>,
    ) -> Self {
        let msgs = net.messages();
        let n = msgs.len();
        let rate = net.bit_rate();
        let backend = net.backend();
        let c_max: Vec<Time> = msgs
            .iter()
            .zip(ids)
            .map(|(m, id)| backend.c_max(id.kind(), m.dlc, stuffing, rate))
            .collect();
        let c_min: Vec<Time> = msgs
            .iter()
            .zip(ids)
            .map(|(m, id)| backend.c_min(id.kind(), m.dlc, rate))
            .collect();
        let mut hp = Vec::with_capacity(n);
        let mut interference = Vec::with_capacity(n);
        let mut blocking = Vec::with_capacity(n);
        let mut per_hit = Vec::with_capacity(n);
        let keys: Vec<_> = ids.iter().map(CanId::arbitration_key).collect();
        for (i, &key) in keys.iter().enumerate() {
            let hp_i: Vec<usize> = (0..n).filter(|&j| keys[j] < key).collect();
            let lp_i: Vec<usize> = (0..n).filter(|&j| j != i && keys[j] > key).collect();
            let terms = demand_terms(net, &c_max, i, &hp_i, &lp_i);
            hp.push(hp_i);
            interference.push(terms.interference);
            blocking.push(terms.blocking);
            per_hit.push(terms.per_hit);
        }
        CompiledBus {
            epoch: next_epoch(),
            stuffing,
            backend,
            bit_rate: rate,
            tau: bit_time(rate),
            names,
            ids: ids.to_vec(),
            c_max,
            c_min,
            hp,
            interference,
            blocking,
            per_hit,
        }
    }

    /// Number of messages on the compiled bus.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` for an empty bus (never produced by [`CompiledBus::compile`],
    /// which rejects invalid networks).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The stuffing mode the tables were compiled under.
    pub fn stuffing(&self) -> StuffingMode {
        self.stuffing
    }

    /// The bus backend the tables were compiled under.
    pub fn backend(&self) -> BackendConfig {
        self.backend
    }

    /// The higher-priority index sets: `hp_sets()[i]` holds the indices
    /// of every message that out-arbitrates message `i`, ascending.
    pub fn hp_sets(&self) -> &[Vec<usize>] {
        &self.hp
    }

    /// The interference index sets: `interference_sets()[i]` holds the
    /// messages whose `η⁺` feeds message `i`'s busy-window demand (hp
    /// for fullCAN senders; hp plus other-node lp for basicCAN/FIFO
    /// senders). These are exactly the sets a divergence diagnostic
    /// names.
    pub fn interference_sets(&self) -> &[Vec<usize>] {
        &self.interference
    }

    /// One bit time on the compiled bus.
    pub(crate) fn tau(&self) -> Time {
        self.tau
    }

    /// Per-message worst-case transmission times.
    pub(crate) fn c_max(&self) -> &[Time] {
        &self.c_max
    }

    /// Per-message error overhead per hit (error frame plus the longest
    /// retransmission among the interference set and the message
    /// itself).
    pub(crate) fn per_hit_vec(&self) -> &[Time] {
        &self.per_hit
    }

    /// The interned message names.
    pub(crate) fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// The compiled identifiers.
    pub(crate) fn ids(&self) -> &[CanId] {
        &self.ids
    }

    /// Lifts an abandoned fixpoint into a degraded-mode diagnostic
    /// with interned names.
    fn diagnose(&self, i: usize, abort: BusyAbort) -> MessageDiagnostic {
        MessageDiagnostic {
            entity: self.names[i].clone(),
            priority_level: self.hp[i].len(),
            busy_window: abort.w,
            instances: abort.q,
            interference: self.interference[i]
                .iter()
                .map(|&j| self.names[j].clone())
                .collect(),
            cause: abort.cause,
        }
    }

    /// Runs the solve phase against `net`, which must be the compiled
    /// topology with possibly different event models and deadline
    /// policies (identifiers, payloads, senders and bit rate
    /// unchanged). Busy-window fixpoints warm-start from `ws` where the
    /// dominance gate allows; the report is bit-identical to a cold
    /// solve either way.
    ///
    /// # Panics
    ///
    /// Panics if `config.stuffing` differs from the compiled mode or
    /// the message count changed. Identifier agreement is the caller's
    /// contract (checked in debug builds).
    pub fn solve(
        &self,
        net: &CanNetwork,
        errors: &dyn ErrorModel,
        config: &AnalysisConfig,
        ws: &mut RtaWorkspace,
    ) -> BusReport {
        let msgs = net.messages();
        assert_eq!(
            msgs.len(),
            self.names.len(),
            "solve() requires the compiled topology"
        );
        debug_assert!(
            msgs.iter().zip(&self.ids).all(|(m, id)| m.id == *id),
            "identifiers diverged from the compiled tables; recompile or reorder first"
        );
        debug_assert_eq!(net.bit_rate(), self.bit_rate);
        debug_assert_eq!(
            net.backend(),
            self.backend,
            "bus backend diverged from the compiled tables; recompile first"
        );
        let mut point = std::mem::take(&mut ws.point);
        point.fill_from_network(net);
        let report = self.solve_point(&point, errors, config, ws);
        ws.point = point;
        report
    }

    /// The 1-point case of [`CompiledBus::solve_batch`]: solves one
    /// structure-of-arrays point against the compiled tables, with the
    /// same warm-start behavior as [`CompiledBus::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `config.stuffing` differs from the compiled mode or
    /// the point's message count differs from the compiled topology.
    pub fn solve_point(
        &self,
        point: &SolvePoint,
        errors: &dyn ErrorModel,
        config: &AnalysisConfig,
        ws: &mut RtaWorkspace,
    ) -> BusReport {
        match self.solve_core(point, errors, &errors.describe(), config, None, ws) {
            Ok(report) => report,
            // solve_core only aborts when a token trips; `None` cannot.
            Err(_) => unreachable!("uncancellable solve reported cancellation"),
        }
    }

    /// Like [`CompiledBus::solve_point`], but polls `cancel` between
    /// per-message busy-window fixpoints. A tripped token abandons the
    /// point *whole* — `Err(AnalysisError::Cancelled)`, never a partial
    /// report — and invalidates the workspace's warm state so a
    /// half-solved point can never seed a later warm start. Points that
    /// complete before the trip are bit-identical to an uncancelled
    /// solve.
    ///
    /// # Panics
    ///
    /// Panics if `config.stuffing` differs from the compiled mode or
    /// the point's message count differs from the compiled topology.
    pub fn solve_point_cancellable(
        &self,
        point: &SolvePoint,
        errors: &dyn ErrorModel,
        config: &AnalysisConfig,
        cancel: &CancelToken,
        ws: &mut RtaWorkspace,
    ) -> Result<BusReport, AnalysisError> {
        self.solve_core(point, errors, &errors.describe(), config, Some(cancel), ws)
    }

    /// Iterates the solve phase over a slice of SoA points against the
    /// compiled per-message vectors laid out once, carrying warm-start
    /// state from point to point through `ws` under the usual dominance
    /// gate. Per-batch setup (the error-model description) is hoisted
    /// out of the loop; each point is otherwise
    /// solved exactly like [`CompiledBus::solve_point`], so the reports
    /// are bit-identical to per-point solves against the same workspace
    /// sequence. Returns the reports plus the batch's aggregated
    /// [`SolveStats`].
    ///
    /// # Panics
    ///
    /// Panics if `config.stuffing` differs from the compiled mode or
    /// any point's message count differs from the compiled topology.
    pub fn solve_batch(
        &self,
        points: &[SolvePoint],
        errors: &dyn ErrorModel,
        config: &AnalysisConfig,
        ws: &mut RtaWorkspace,
    ) -> (Vec<BusReport>, SolveStats) {
        let desc = errors.describe();
        let mut agg = SolveStats::default();
        let reports = points
            .iter()
            .map(|point| {
                let report = match self.solve_core(point, errors, &desc, config, None, ws) {
                    Ok(report) => report,
                    Err(_) => unreachable!("uncancellable solve reported cancellation"),
                };
                agg.warm_messages += ws.last.warm_messages;
                agg.cold_messages += ws.last.cold_messages;
                agg.iterations += ws.last.iterations;
                agg.iters_saved += ws.last.iters_saved;
                report
            })
            .collect();
        (reports, agg)
    }

    /// The shared solve core: one SoA point against the compiled
    /// tables. `desc` is hoisted by the callers so batches pay for it
    /// once. `cancel` (when present) is polled between
    /// per-message fixpoints; a trip abandons the whole point with
    /// `Err(Cancelled)` after invalidating the warm-start state.
    #[allow(clippy::too_many_arguments)]
    fn solve_core(
        &self,
        point: &SolvePoint,
        errors: &dyn ErrorModel,
        desc: &str,
        config: &AnalysisConfig,
        cancel: Option<&CancelToken>,
        ws: &mut RtaWorkspace,
    ) -> Result<BusReport, AnalysisError> {
        let acts = point.activations();
        let deadlines = point.deadlines();
        let n = acts.len();
        assert_eq!(n, self.names.len(), "solve requires the compiled topology");
        assert_eq!(n, deadlines.len(), "solve point rows must be complete");
        assert_eq!(
            config.stuffing, self.stuffing,
            "config stuffing must match the compiled tables"
        );

        ws.resize(n);
        let warm_base = ws.epoch == self.epoch
            && ws.errors_desc == desc
            && ws.horizon == config.horizon
            && ws.max_instances == config.max_instances
            && ws.activations.len() == n;
        if warm_base {
            for (j, act) in acts.iter().enumerate() {
                ws.dominates[j] = eta_dominates(act, &ws.activations[j]);
            }
        }

        let mut stats = SolveStats::default();
        let mut reports = Vec::with_capacity(n);
        for (i, &deadline) in deadlines.iter().enumerate() {
            if cancel.is_some_and(|token| token.is_cancelled()) {
                // A half-solved point must not seed warm starts: the
                // per-message `w`/`iters` rows past `i` still describe
                // the *previous* point.
                ws.invalidate();
                ws.last = stats;
                return Err(AnalysisError::Cancelled);
            }
            let warm = warm_base && self.interference[i].iter().all(|&j| ws.dominates[j]);
            let blocking = self.blocking[i];
            let mut iterations = 0u64;
            let mut w_next = std::mem::take(&mut ws.w_next);
            let outcome = {
                let warm_hints: &[Time] = if warm { &ws.w[i] } else { &[] };
                busy_window(
                    acts,
                    i,
                    &self.interference[i],
                    &self.c_max,
                    blocking,
                    self.tau,
                    errors,
                    self.per_hit[i],
                    config,
                    warm_hints,
                    &mut w_next,
                    &mut iterations,
                )
            };
            std::mem::swap(&mut ws.w[i], &mut w_next);
            w_next.clear();
            ws.w_next = w_next;
            if warm {
                stats.warm_messages += 1;
                stats.iters_saved += ws.iters[i].saturating_sub(iterations);
            } else {
                stats.cold_messages += 1;
            }
            stats.iterations += iterations;
            ws.iters[i] = iterations;

            let (outcome_enum, instances) = match outcome {
                Ok((wcrt, q)) => (
                    ResponseOutcome::Bounded(ResponseBounds::new(
                        self.c_min[i],
                        wcrt.max(self.c_min[i]),
                    )),
                    q,
                ),
                Err(abort) => (ResponseOutcome::Overload(self.diagnose(i, abort)), 0),
            };
            reports.push(MessageReport {
                index: i,
                name: self.names[i].clone(),
                id: self.ids[i],
                c_max: self.c_max[i],
                c_min: self.c_min[i],
                blocking,
                deadline,
                outcome: outcome_enum,
                instances,
            });
        }

        ws.epoch = self.epoch;
        ws.errors_desc.clear();
        ws.errors_desc.push_str(desc);
        ws.horizon = config.horizon;
        ws.max_instances = config.max_instances;
        ws.activations.clear();
        ws.activations.extend_from_slice(acts);
        ws.last = stats;
        Ok(BusReport {
            messages: reports,
            error_model: desc.to_string(),
            stuffing: config.stuffing,
            backend: self.backend,
        })
    }
}

/// Abort state of an abandoned busy-window fixpoint: how far the
/// window had grown, which instance was being examined, and which
/// budget ran out. [`CompiledBus::solve`] lifts this into a
/// [`MessageDiagnostic`] with the interned names of the interference
/// set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BusyAbort {
    /// Busy-window length when the fixpoint was abandoned.
    pub(crate) w: Time,
    /// Instance under examination at the abort.
    pub(crate) q: u64,
    /// Which budget was exhausted.
    pub(crate) cause: DivergenceCause,
}

/// The controller-specific demand terms of one message: what its
/// busy-window fixpoint charges besides its own frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DemandTerms {
    /// Messages whose `η⁺` feeds the demand.
    pub(crate) interference: Vec<usize>,
    /// Total (bus + controller-local) blocking.
    pub(crate) blocking: Time,
    /// Error overhead per hit: error frame plus the longest frame that
    /// may need resending while the message waits.
    pub(crate) per_hit: Time,
}

/// Derives the demand terms of message `i` from explicit higher- and
/// lower-priority index sets — the one place the controller rules
/// live, shared by [`CompiledBus::compile`] and
/// [`crate::opa::audsley_assignment`]. The terms depend only on the
/// *sets* (never on the order within them), which is exactly the
/// property Audsley's optimal priority assignment requires.
///
/// For a fullCAN sender, lower-priority traffic contributes one frame
/// of non-preemption blocking. For basicCAN and FIFO senders, the
/// unrevokable local frame ahead of `i` can lose arbitration
/// *repeatedly* against other nodes' frames of any priority, so **all**
/// other-node messages count as full interference (sound,
/// conservative; the one just-started other-node frame is subsumed by
/// `η⁺ ≥ 1`), while same-node frames ahead of `i` appear as
/// controller-local blocking.
pub(crate) fn demand_terms(
    net: &CanNetwork,
    c_max: &[Time],
    i: usize,
    hp: &[usize],
    lp: &[usize],
) -> DemandTerms {
    let msgs = net.messages();
    let m = &msgs[i];
    let controller = net.controller_of(m);
    let interference = match controller {
        ControllerType::FullCan => hp.to_vec(),
        ControllerType::BasicCan | ControllerType::FifoQueue { .. } => {
            let mut set = hp.to_vec();
            set.extend(lp.iter().copied().filter(|&j| msgs[j].sender != m.sender));
            set
        }
    };
    // fullCAN: one just-started lower-priority frame on the bus;
    // basicCAN: the same-node lower-priority frame holding the register;
    // FIFO: up to `depth − 1` same-node frames queued ahead.
    let blocking = match controller {
        ControllerType::FullCan => lp.iter().map(|&j| c_max[j]).max(),
        ControllerType::BasicCan => lp
            .iter()
            .filter(|&&j| msgs[j].sender == m.sender)
            .map(|&j| c_max[j])
            .max(),
        ControllerType::FifoQueue { depth } => {
            let mut same: Vec<Time> = (0..msgs.len())
                .filter(|&j| j != i && msgs[j].sender == m.sender)
                .map(|j| c_max[j])
                .collect();
            same.sort_unstable_by(|a, b| b.cmp(a));
            Some(same.into_iter().take(depth.saturating_sub(1)).sum())
        }
    }
    .unwrap_or(Time::ZERO);
    let retx = interference
        .iter()
        .map(|&j| c_max[j])
        .max()
        .unwrap_or(c_max[i])
        .max(c_max[i]);
    let error_frame = Time::from_bits(net.backend().backend().error_frame_bits(), net.bit_rate());
    DemandTerms {
        interference,
        blocking,
        per_hit: error_frame + retx,
    }
}

/// Busy-window iteration for one message; returns `(wcrt, instances)`
/// or the [`BusyAbort`] state on overload / budget exhaustion. Each
/// inner fixpoint step adds one to `iterations` — the convergence-cost
/// figure surfaced as the `rta.iterations` metric.
///
/// The hot loop reads only the dense `activations` vector (SoA layout,
/// indexed like the compiled tables) — never message structs — so
/// batch sweeps stride contiguous event models.
///
/// `warm[q-1]`, when present, is a known lower bound on instance `q`'s
/// least fixpoint (see the module docs for the soundness argument);
/// the iteration starts at the maximum of the cold start and that
/// bound. Every converged window is pushed to `out_w` (cleared first),
/// so the caller can feed them back as the next solve's warm hints.
#[allow(clippy::too_many_arguments)]
pub(crate) fn busy_window(
    activations: &[EventModel],
    i: usize,
    interference: &[usize],
    c_max: &[Time],
    blocking: Time,
    tau: Time,
    errors: &dyn ErrorModel,
    per_hit: Time,
    config: &AnalysisConfig,
    warm: &[Time],
    out_w: &mut Vec<Time>,
    iterations: &mut u64,
) -> Result<(Time, u64), BusyAbort> {
    let c_m = c_max[i];
    let own = &activations[i];
    out_w.clear();
    let mut wcrt = Time::ZERO;
    // Per-message divergence budget, measured against the shared
    // cumulative counter so the hot loop stays branch-light.
    let budget_end = iterations.saturating_add(config.max_iterations);
    // `w` carries over between instances: the demand is monotone in
    // both `w` and `q`, so the least fixpoint for q+1 is at least the
    // one for q, and a warm hint can only raise the start further —
    // never past the least fixpoint it came below.
    let mut w = Time::ZERO;
    let mut q = 1u64;
    loop {
        // Fixpoint iteration for instance q.
        w = w.max(blocking + c_m * (q - 1));
        if let Some(&hint) = warm.get((q - 1) as usize) {
            w = w.max(hint);
        }
        loop {
            if *iterations >= budget_end {
                return Err(BusyAbort {
                    w,
                    q,
                    cause: DivergenceCause::IterationBudget {
                        budget: config.max_iterations,
                    },
                });
            }
            *iterations += 1;
            let mut demand = blocking + c_m * (q - 1);
            demand = demand
                .saturating_add(per_hit.saturating_mul(errors.max_hits(w.saturating_add(c_m))));
            for &j in interference {
                let eta = activations[j].eta_plus(w.saturating_add(tau));
                demand = demand.saturating_add(c_max[j].saturating_mul(eta));
            }
            if demand > config.horizon {
                return Err(BusyAbort {
                    w: demand,
                    q,
                    cause: DivergenceCause::HorizonExceeded {
                        horizon: config.horizon,
                    },
                });
            }
            if demand <= w {
                break; // fixpoint reached (demand == w on the way up)
            }
            w = demand;
        }
        out_w.push(w);
        let finish = w + c_m;
        wcrt = wcrt.max(finish.saturating_sub(own.delta_min(q)));
        // Does the busy period extend to the next instance?
        if finish > own.delta_min(q + 1) {
            q += 1;
            if q > config.max_instances {
                return Err(BusyAbort {
                    w,
                    q: q - 1,
                    cause: DivergenceCause::InstanceLimit {
                        limit: config.max_instances,
                    },
                });
            }
        } else {
            return Ok((wcrt, q));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_model::{NoErrors, SporadicErrors};
    use crate::frame::Dlc;
    use crate::message::CanMessage;
    use crate::network::Node;
    use crate::rta::analyze_bus;
    use carta_core::event_model::ActivationKind;

    fn net_with(messages: Vec<CanMessage>) -> CanNetwork {
        let mut net = CanNetwork::new(500_000);
        net.add_node(Node::new("A", ControllerType::FullCan));
        net.add_node(Node::new("B", ControllerType::BasicCan));
        for m in messages {
            net.add_message(m);
        }
        net
    }

    fn msg(name: &str, id: u32, dlc: u8, period_ms: u64, jitter_ms: u64, s: usize) -> CanMessage {
        CanMessage::new(
            name,
            CanId::standard(id).expect("valid id"),
            Dlc::new(dlc),
            Time::from_ms(period_ms),
            Time::from_ms(jitter_ms),
            s,
        )
    }

    fn same_rows(a: &BusReport, b: &BusReport) {
        assert_eq!(a.messages.len(), b.messages.len());
        for (x, y) in a.messages.iter().zip(&b.messages) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.id, y.id);
            assert_eq!(x.c_max, y.c_max);
            assert_eq!(x.c_min, y.c_min);
            assert_eq!(x.blocking, y.blocking);
            assert_eq!(x.deadline, y.deadline);
            assert_eq!(x.outcome, y.outcome, "{}", x.name);
            assert_eq!(x.instances, y.instances, "{}", x.name);
        }
    }

    fn with_jitter(net: &CanNetwork, jitter: Time) -> CanNetwork {
        let mut out = net.clone();
        for m in out.messages_mut() {
            let a = m.activation;
            m.activation = EventModel::new(a.kind(), a.period(), jitter, a.dmin());
        }
        out
    }

    #[test]
    fn warm_started_sweep_is_bit_identical_to_cold() {
        let base = net_with(vec![
            msg("a", 0x100, 8, 5, 0, 0),
            msg("b", 0x140, 4, 10, 0, 1),
            msg("c", 0x180, 8, 10, 0, 0),
            msg("d", 0x200, 2, 20, 0, 1),
        ]);
        let config = AnalysisConfig::default();
        let errors = SporadicErrors::new(Time::from_ms(20));
        let compiled = CompiledBus::compile(&base, config.stuffing).expect("valid");
        let mut ws = RtaWorkspace::new();
        // Ascending jitter: every step dominates the previous one, so
        // from the second point on the fixpoints warm-start.
        for (k, us) in [0u64, 200, 500, 1200, 2500].iter().enumerate() {
            let variant = with_jitter(&base, Time::from_us(*us));
            let fast = compiled.solve(&variant, &errors, &config, &mut ws);
            let naive = analyze_bus(&variant, &errors, &config).expect("valid");
            same_rows(&fast, &naive);
            if k > 0 {
                assert!(
                    ws.last_stats().warm_messages > 0,
                    "ascending jitter must warm-start (step {k}): {:?}",
                    ws.last_stats()
                );
            }
        }
        // Descending jitter breaks dominance: the solve must fall back
        // to cold starts and still agree. Only the top-priority fullCAN
        // message keeps its warm start — its interference set is empty,
        // so its demand function never depends on any activation.
        let variant = with_jitter(&base, Time::from_us(100));
        let fast = compiled.solve(&variant, &errors, &config, &mut ws);
        same_rows(
            &fast,
            &analyze_bus(&variant, &errors, &config).expect("valid"),
        );
        assert_eq!(ws.last_stats().warm_messages, 1);
    }

    #[test]
    fn solve_batch_is_bit_identical_to_per_point_solves() {
        let base = net_with(vec![
            msg("a", 0x100, 8, 5, 0, 0),
            msg("b", 0x140, 4, 10, 0, 1),
            msg("c", 0x180, 8, 10, 0, 0),
            msg("d", 0x200, 2, 20, 0, 1),
        ]);
        let config = AnalysisConfig::default();
        let errors = SporadicErrors::new(Time::from_ms(20));
        let compiled = CompiledBus::compile(&base, config.stuffing).expect("valid");
        // Ascending then descending jitter: the batch crosses both the
        // warm-start and the dominance-rejection regimes.
        let points: Vec<SolvePoint> = [0u64, 200, 500, 1200, 2500, 100]
            .iter()
            .map(|&us| SolvePoint::from_network(&with_jitter(&base, Time::from_us(us))))
            .collect();

        let mut ws = RtaWorkspace::new();
        let (batch, stats) = compiled.solve_batch(&points, &errors, &config, &mut ws);
        assert_eq!(batch.len(), points.len());
        assert!(
            stats.warm_messages > 0,
            "ascending jitter prefix must warm-start: {stats:?}"
        );
        assert_eq!(
            stats.warm_messages + stats.cold_messages,
            (points.len() * base.messages().len()) as u64
        );

        // Per-point solves through one workspace see the same warm
        // sequence; fresh-workspace solves pin the cold reference.
        let mut seq_ws = RtaWorkspace::new();
        for (k, (point, from_batch)) in points.iter().zip(&batch).enumerate() {
            let seq = compiled.solve_point(point, &errors, &config, &mut seq_ws);
            same_rows(from_batch, &seq);
            let cold = compiled.solve_point(point, &errors, &config, &mut RtaWorkspace::new());
            same_rows(from_batch, &cold);
            let net_solve = compiled.solve(
                &with_jitter(&base, Time::from_us([0u64, 200, 500, 1200, 2500, 100][k])),
                &errors,
                &config,
                &mut RtaWorkspace::new(),
            );
            same_rows(from_batch, &net_solve);
        }
    }

    #[test]
    fn error_model_change_rejects_warm_state() {
        let base = net_with(vec![
            msg("a", 0x100, 8, 5, 0, 0),
            msg("b", 0x200, 8, 5, 0, 1),
        ]);
        let config = AnalysisConfig::default();
        let compiled = CompiledBus::compile(&base, config.stuffing).expect("valid");
        let mut ws = RtaWorkspace::new();
        compiled.solve(&base, &NoErrors, &config, &mut ws);
        let errors = SporadicErrors::new(Time::from_ms(10));
        let fast = compiled.solve(&base, &errors, &config, &mut ws);
        assert_eq!(ws.last_stats().warm_messages, 0, "error model changed");
        same_rows(&fast, &analyze_bus(&base, &errors, &config).expect("valid"));
    }

    #[test]
    fn reordered_tables_match_a_fresh_compile() {
        let base = net_with(vec![
            msg("a", 0x100, 8, 5, 1, 0),
            msg("b", 0x140, 4, 10, 0, 1),
            msg("c", 0x180, 8, 10, 2, 0),
            CanMessage::new(
                "x",
                CanId::extended(0x1F00_0000).expect("valid"),
                Dlc::new(2),
                Time::from_ms(20),
                Time::ZERO,
                1,
            ),
        ]);
        let config = AnalysisConfig::default();
        let compiled = CompiledBus::compile(&base, config.stuffing).expect("valid");
        // Moving the extended identifier onto `a` changes frame lengths,
        // not only the priority order.
        let mut ids: Vec<CanId> = base.messages().iter().map(|m| m.id).collect();
        ids.swap(0, 2);
        ids.swap(0, 3);
        let mut permuted = base.clone();
        for (m, id) in permuted.messages_mut().iter_mut().zip(&ids) {
            m.id = *id;
        }
        let reordered = compiled.reordered(&base, &ids);
        let errors = NoErrors;
        let fast = reordered.solve(&permuted, &errors, &config, &mut RtaWorkspace::new());
        same_rows(
            &fast,
            &analyze_bus(&permuted, &errors, &config).expect("valid"),
        );
        // Names are shared, not re-interned.
        assert!(Arc::ptr_eq(&fast.messages[0].name, &compiled.names[0]));
        // Warm state from the old order must not leak into the new one.
        assert_ne!(reordered.epoch, compiled.epoch);
    }

    #[test]
    fn dominance_gate_matches_eta_plus_pointwise() {
        let p = |period_ms, jitter_ms, dmin_us| {
            EventModel::new(
                ActivationKind::Periodic,
                Time::from_ms(period_ms),
                Time::from_ms(jitter_ms),
                Time::from_us(dmin_us),
            )
        };
        let windows: Vec<Time> = (0..200u64).map(|k| Time::from_us(137 * k)).collect();
        let cases = [
            (p(10, 2, 0), p(10, 0, 0), true),     // jitter grew
            (p(10, 1, 0), p(10, 2, 0), false),    // jitter shrank
            (p(5, 1, 0), p(10, 1, 0), true),      // period shrank
            (p(20, 1, 0), p(10, 1, 0), false),    // period grew
            (p(10, 5, 400), p(10, 2, 500), true), // dmin tightened the cap less
            (p(10, 5, 0), p(10, 2, 500), true),   // cap dropped entirely
            (p(10, 5, 500), p(10, 2, 0), false),  // cap appeared
            (p(10, 2, 300), p(10, 2, 300), true), // identical
        ];
        for (new, old, expect) in cases {
            assert_eq!(eta_dominates(&new, &old), expect, "{new:?} vs {old:?}");
            if eta_dominates(&new, &old) {
                for w in &windows {
                    assert!(
                        new.eta_plus(*w) >= old.eta_plus(*w),
                        "dominance gate admitted a non-dominating pair at {w}: {new:?} vs {old:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn workspace_survives_overload_and_recovers() {
        // 135 bits every 200 us at 500 kbit/s: the bus is overloaded.
        let flood = CanMessage::new(
            "flood",
            CanId::standard(0x100).expect("valid"),
            Dlc::new(8),
            Time::from_us(200),
            Time::ZERO,
            0,
        );
        let net = net_with(vec![flood, msg("victim", 0x200, 8, 10, 0, 1)]);
        let config = AnalysisConfig::default();
        let compiled = CompiledBus::compile(&net, config.stuffing).expect("valid");
        let mut ws = RtaWorkspace::new();
        let first = compiled.solve(&net, &NoErrors, &config, &mut ws);
        assert!(!first.schedulable());
        // Re-solving with the overload-tainted workspace stays exact.
        let second = compiled.solve(&net, &NoErrors, &config, &mut ws);
        same_rows(&first, &second);
        same_rows(
            &second,
            &analyze_bus(&net, &NoErrors, &config).expect("valid"),
        );
    }

    #[test]
    fn hp_sets_follow_arbitration_order() {
        let net = net_with(vec![
            msg("weak", 0x200, 8, 10, 0, 0),
            msg("strong", 0x100, 8, 10, 0, 1),
        ]);
        let compiled = CompiledBus::compile(&net, StuffingMode::WorstCase).expect("valid");
        assert_eq!(compiled.hp_sets(), [vec![1], vec![]]);
    }

    #[test]
    fn compile_rejects_invalid_networks() {
        let empty = CanNetwork::new(500_000);
        assert!(matches!(
            CompiledBus::compile(&empty, StuffingMode::WorstCase),
            Err(AnalysisError::InvalidModel(_))
        ));
    }
}
