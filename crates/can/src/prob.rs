//! Convolution-based probabilistic response-time analysis.
//!
//! The deterministic busy-window analysis ([`crate::rta::analyze_bus`],
//! [`CompiledBus::solve`]) brackets every response time with a
//! best/worst-case envelope. This module refines the bracket into a
//! discrete response-time *distribution* per message, in the style of
//! convolution-based probabilistic RTA (Tindell-era stochastic
//! extensions; see "Improved Convolution-Based Analysis for Worst-Case
//! Probability Response Time of CAN", arXiv 2411.05835): the
//! error-free response is a point mass, every potential bus-error hit
//! contributes an independent retransmission mass, and the per-message
//! distribution is the convolution of the two, clamped into the
//! deterministic envelope.
//!
//! # Binning and quantum semantics
//!
//! A [`Pmf`] is a probability mass function over a fixed lattice of
//! time bins. The quantum is chosen per report as the smallest
//! power-of-two multiple of the bus bit time such that the largest
//! worst-case response fits into [`MAX_BINS`] bins. Bin `k` carries the
//! *upper edge* value `k·quantum`: any duration `t` is binned upward
//! (`⌈t/quantum⌉`), so a quantized value never under-states the
//! duration it stands for — quantization is always pessimistic.
//! Consequently [`Pmf::cdf_at`] sums only bins whose upper-edge value
//! is `≤ t` (floor semantics), so binning never lowers the hit model's
//! miss probability. That model is *not* an upper bound on the true
//! one: it ignores the interference a hit's longer busy window admits.
//!
//! # Dominance guarantee
//!
//! Every component of the convolution is a worst-case quantity: the
//! error-free point mass sits at the deterministic no-error WCRT, each
//! error hit is charged the compiled per-hit constant (error frame plus
//! the longest retransmission in the interference set), and the hit
//! count never exceeds the deterministic error-model bound for the
//! worst-case window. The final clamp into `[BCRT, WCRT]` then makes
//! the guarantee structural: the distribution's support never exceeds
//! the (upward-quantized) analytic worst case, and its CDF at that
//! bound is 1. The `prob-dominates-worst-case` metamorphic law in
//! `carta-testkit` pins exactly this.
//!
//! # Validation strategy
//!
//! Analytic distributions are validated against `carta-sim` Monte-Carlo
//! empirical CDFs: the empirical CDF must lie within the report's
//! stated confidence band — between the pessimistic envelope (all mass
//! at the worst case) and the optimistic envelope (all mass at the best
//! case), widened by a Dvoretzky–Kiefer–Wolfowitz margin for the sample
//! count. See `tests/prob_vs_sim.rs` at the workspace root.

use crate::compiled::{CompiledBus, RtaWorkspace};
use crate::error_model::{ErrorModel, NoErrors};
use crate::frame::StuffingMode;
use crate::message::CanId;
use crate::network::CanNetwork;
use crate::rta::{AnalysisConfig, BusReport};
use carta_core::analysis::{AnalysisError, MessageDiagnostic};
use carta_core::time::Time;
use std::sync::Arc;

/// Upper bound on the number of bins of one [`Pmf`]; the report quantum
/// is doubled (starting from the bus bit time) until the largest
/// worst-case response fits.
pub const MAX_BINS: u64 = 4096;

/// A discrete probability mass function over a fixed time lattice.
///
/// Bin `k` (absolute index, so two [`Pmf`]s with the same quantum share
/// a lattice) carries the upper-edge value `k·quantum`. The mass vector
/// is trimmed: its first and last entries are non-zero (a single-entry
/// vector may hold the whole mass).
#[derive(Debug, Clone, PartialEq)]
pub struct Pmf {
    quantum: Time,
    /// Absolute lattice index of `mass[0]`.
    offset: u64,
    mass: Vec<f64>,
}

/// Upward quantization: the smallest lattice index whose upper-edge
/// value is `≥ t`.
fn bin_up(t: Time, quantum: Time) -> u64 {
    t.div_ceil(quantum)
}

impl Pmf {
    /// A point mass at `value`, quantized upward onto the lattice.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn point(value: Time, quantum: Time) -> Self {
        assert!(!quantum.is_zero(), "quantum must be positive");
        Pmf {
            quantum,
            offset: bin_up(value, quantum),
            mass: vec![1.0],
        }
    }

    /// The distribution of `K·step` for `K ~ Binomial(trials, p)`: the
    /// total error-retransmission time when each of `trials` potential
    /// hits lands independently with probability `p`.
    ///
    /// Masses are computed by the multiplicative recurrence and
    /// re-normalized; if the recurrence degenerates (extreme `trials`
    /// underflowing `f64`), the whole mass is placed pessimistically at
    /// `trials·step`.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero or `p` is outside `[0, 1]`.
    pub fn binomial(trials: u64, p: f64, step: Time, quantum: Time) -> Self {
        assert!(!quantum.is_zero(), "quantum must be positive");
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if trials == 0 || p <= f64::EPSILON {
            return Pmf::point(Time::ZERO, quantum);
        }
        if p >= 1.0 - f64::EPSILON {
            return Pmf::point(step.saturating_mul(trials), quantum);
        }
        let top = bin_up(step.saturating_mul(trials), quantum);
        let mut mass = vec![0.0; (top + 1) as usize];
        let odds = p / (1.0 - p);
        let mut term = (1.0 - p).powi(i32::try_from(trials).unwrap_or(i32::MAX));
        let mut total = 0.0;
        for k in 0..=trials {
            let idx = bin_up(step.saturating_mul(k), quantum) as usize;
            mass[idx] += term;
            total += term;
            term *= odds * ((trials - k) as f64) / ((k + 1) as f64);
        }
        if total < 0.5 {
            // Underflowed start term: fall back to the sound pessimistic
            // degenerate distribution rather than a mass-less one.
            return Pmf::point(step.saturating_mul(trials), quantum);
        }
        for m in &mut mass {
            *m /= total;
        }
        Pmf {
            quantum,
            offset: 0,
            mass,
        }
        .trimmed()
    }

    /// Drops zero-mass margins (keeps at least one entry).
    fn trimmed(mut self) -> Self {
        let first = self.mass.iter().position(|&m| m > 0.0).unwrap_or(0);
        let last = self
            .mass
            .iter()
            .rposition(|&m| m > 0.0)
            .unwrap_or(self.mass.len() - 1);
        self.mass.drain(last + 1..);
        self.mass.drain(..first);
        self.offset += first as u64;
        if self.mass.is_empty() {
            self.mass.push(0.0);
        }
        self
    }

    /// The lattice quantum.
    pub fn quantum(&self) -> Time {
        self.quantum
    }

    /// Number of (contiguous) bins carried.
    pub fn len(&self) -> usize {
        self.mass.len()
    }

    /// `true` when no bin is carried (never produced by this module's
    /// constructors).
    pub fn is_empty(&self) -> bool {
        self.mass.is_empty()
    }

    /// Total carried mass (1 up to rounding for every constructor).
    pub fn total_mass(&self) -> f64 {
        self.mass.iter().sum()
    }

    /// Iterates `(upper-edge value, mass)` over the carried bins.
    pub fn bins(&self) -> impl Iterator<Item = (Time, f64)> + '_ {
        self.mass
            .iter()
            .enumerate()
            .map(move |(i, &m)| (self.quantum * (self.offset + i as u64), m))
    }

    /// The distribution of the sum of two independent durations: exact
    /// discrete convolution (lattice indices add, so the operation is
    /// commutative and associative up to `f64` rounding).
    ///
    /// # Panics
    ///
    /// Panics if the quanta differ.
    pub fn convolve(&self, other: &Pmf) -> Pmf {
        assert_eq!(
            self.quantum, other.quantum,
            "convolution requires a shared lattice"
        );
        let mut mass = vec![0.0; self.mass.len() + other.mass.len() - 1];
        for (i, &a) in self.mass.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (j, &b) in other.mass.iter().enumerate() {
                mass[i + j] += a * b;
            }
        }
        Pmf {
            quantum: self.quantum,
            offset: self.offset + other.offset,
            mass,
        }
        .trimmed()
    }

    /// Moves all mass outside `[lo, hi]` (both quantized upward) onto
    /// the nearest bound bin; total mass is preserved. This is the
    /// dominance clamp: afterwards the support lies within the
    /// deterministic envelope.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp_to(&self, lo: Time, hi: Time) -> Pmf {
        assert!(lo <= hi, "clamp bounds out of order");
        let lo_bin = bin_up(lo, self.quantum);
        let hi_bin = bin_up(hi, self.quantum).max(lo_bin);
        let mut mass = vec![0.0; (hi_bin - lo_bin + 1) as usize];
        for (i, &m) in self.mass.iter().enumerate() {
            let bin = (self.offset + i as u64).clamp(lo_bin, hi_bin);
            mass[(bin - lo_bin) as usize] += m;
        }
        Pmf {
            quantum: self.quantum,
            offset: lo_bin,
            mass,
        }
        .trimmed()
    }

    /// `P[T ≤ t]` under the pessimistic upper-edge convention: only
    /// bins whose value `k·quantum` is `≤ t` count, so the result
    /// never over-states the probability of meeting a deadline.
    pub fn cdf_at(&self, t: Time) -> f64 {
        let cap = t.div_floor(self.quantum);
        if cap < self.offset {
            return 0.0;
        }
        let upto = ((cap - self.offset + 1) as usize).min(self.mass.len());
        self.mass[..upto].iter().sum()
    }

    /// The `p`-quantile: the smallest bin value whose CDF reaches `p`
    /// (up to a `1e-12` rounding allowance). For `p` above the total
    /// mass, the support maximum.
    pub fn quantile(&self, p: f64) -> Time {
        let mut cum = 0.0;
        for (value, m) in self.bins() {
            cum += m;
            if cum + 1e-12 >= p {
                return value;
            }
        }
        self.support_max()
    }

    /// Smallest carried bin value.
    pub fn support_min(&self) -> Time {
        self.quantum * self.offset
    }

    /// Largest carried bin value.
    pub fn support_max(&self) -> Time {
        self.quantum * (self.offset + self.mass.len() as u64 - 1)
    }
}

/// The probabilistic verdict for one bounded message: the clamped
/// response-time distribution plus the deterministic envelope it lives
/// in and the derived headline figures.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbDist {
    /// The response-time distribution, clamped into `[bcrt, wcrt]`.
    pub pmf: Pmf,
    /// Deterministic best-case response time (optimistic envelope).
    pub bcrt: Time,
    /// Deterministic worst-case response time (pessimistic envelope).
    pub wcrt: Time,
    /// The hit model's deadline-miss probability, not an upper bound
    /// (`1 − cdf(deadline)`, forced to 0 when the deterministic WCRT
    /// already meets the deadline — quantization never overrules a
    /// deterministic guarantee).
    pub miss_probability: f64,
    /// Median response time.
    pub p50: Time,
    /// 95th-percentile response time.
    pub p95: Time,
    /// 99th-percentile response time.
    pub p99: Time,
}

/// Probabilistic outcome per message; overloads mirror the
/// deterministic diagnostic (an unbounded response has no
/// distribution).
#[derive(Debug, Clone, PartialEq)]
pub enum ProbOutcome {
    /// A bounded message with its distribution.
    Dist(ProbDist),
    /// The deterministic analysis diverged; the diagnostic is carried
    /// through and the message counts as missing with probability 1.
    Overload(MessageDiagnostic),
}

impl ProbOutcome {
    /// The distribution, when bounded.
    pub fn dist(&self) -> Option<&ProbDist> {
        match self {
            ProbOutcome::Dist(d) => Some(d),
            ProbOutcome::Overload(_) => None,
        }
    }

    /// Deadline-miss probability (1 for overloads).
    pub fn miss_probability(&self) -> f64 {
        match self {
            ProbOutcome::Dist(d) => d.miss_probability,
            ProbOutcome::Overload(_) => 1.0,
        }
    }
}

/// Probabilistic per-message report row.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbMessageReport {
    /// Index of the message in the network.
    pub index: usize,
    /// Message name (interned, shared with the compiled tables).
    pub name: Arc<str>,
    /// Message identifier.
    pub id: CanId,
    /// Resolved deadline the miss probability is measured against.
    pub deadline: Time,
    /// Probabilistic outcome.
    pub outcome: ProbOutcome,
}

/// The probabilistic analysis of a whole bus: per-message
/// distributions on one shared quantum lattice.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbBusReport {
    /// Per-message rows, in network order.
    pub messages: Vec<ProbMessageReport>,
    /// The shared lattice quantum of every distribution.
    pub quantum: Time,
    /// `describe()` of the error model analyzed under.
    pub error_model: String,
    /// Stuffing mode analyzed under.
    pub stuffing: StuffingMode,
    /// Bus backend analyzed under.
    pub backend: crate::backend::BackendConfig,
}

impl ProbBusReport {
    /// Sum of per-message deadline-miss probabilities — the expected
    /// number of lossy messages.
    pub fn expected_missed(&self) -> f64 {
        self.messages
            .iter()
            .map(|m| m.outcome.miss_probability())
            .sum()
    }

    /// Messages that miss with (numerical) certainty, including
    /// overloads.
    pub fn certain_missed(&self) -> usize {
        self.messages
            .iter()
            .filter(|m| m.outcome.miss_probability() >= 1.0 - 1e-9)
            .count()
    }

    /// Messages with any positive miss probability, including
    /// overloads — matches the deterministic missed count.
    pub fn possible_missed(&self) -> usize {
        self.messages
            .iter()
            .filter(|m| m.outcome.miss_probability() > 1e-12)
            .count()
    }

    /// Looks a row up by message name.
    pub fn by_name(&self, name: &str) -> Option<&ProbMessageReport> {
        self.messages.iter().find(|m| &*m.name == name)
    }
}

/// Picks the report quantum: the smallest power-of-two multiple of the
/// bus bit time `tau` such that `bound` fits into [`MAX_BINS`] bins.
fn pick_quantum(tau: Time, bound: Time) -> Time {
    let mut q = if tau.is_zero() { Time::from_ns(1) } else { tau };
    while bound.div_ceil(q) > MAX_BINS {
        q = q.saturating_mul(2);
    }
    q
}

/// Builds the probabilistic report from the compiled tables and the two
/// deterministic solves it refines: `base` under [`NoErrors`] and
/// `full` under `errors` (both on the same compiled topology). This is
/// the memoizable core — the engine's evaluator feeds it cached
/// deterministic reports.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidModel`] if the two reports do not
/// describe the compiled topology.
pub fn prob_from_reports(
    compiled: &CompiledBus,
    base: &BusReport,
    full: &BusReport,
    errors: &dyn ErrorModel,
) -> Result<ProbBusReport, AnalysisError> {
    let n = compiled.len();
    if base.messages.len() != n || full.messages.len() != n {
        return Err(AnalysisError::InvalidModel(
            "probabilistic analysis needs reports of the compiled topology".into(),
        ));
    }
    let bound = full
        .messages
        .iter()
        .filter_map(|m| m.outcome.wcrt())
        .max()
        .unwrap_or(Time::ZERO);
    let quantum = pick_quantum(compiled.tau(), bound);
    // Long-window hit rate: hits per nanosecond from the model's own
    // 10 s bound, used to thin the worst-case hit count into a
    // per-window landing probability.
    let horizon = Time::from_s(10);
    let rate = errors.max_hits(horizon) as f64 / horizon.as_ns() as f64;

    let mut messages = Vec::with_capacity(n);
    for (i, row) in full.messages.iter().enumerate() {
        let outcome = match row.outcome.wcrt().zip(row.outcome.bcrt()) {
            None => ProbOutcome::Overload(row.outcome.diagnostic().cloned().unwrap_or_else(|| {
                MessageDiagnostic {
                    entity: row.name.clone(),
                    priority_level: compiled.hp_sets()[i].len(),
                    busy_window: Time::ZERO,
                    instances: 0,
                    interference: Vec::new(),
                    cause: carta_core::analysis::DivergenceCause::HorizonExceeded {
                        horizon: Time::ZERO,
                    },
                }
            })),
            Some((wcrt, bcrt)) => {
                // The error-free response: the base solve's WCRT when
                // bounded (it always is when the dominating full solve
                // is), defensively the full WCRT otherwise.
                let err_free = base.messages[i].outcome.wcrt().unwrap_or(wcrt).min(wcrt);
                let trials = errors.max_hits(wcrt);
                let p = if trials == 0 {
                    0.0
                } else {
                    (rate * wcrt.as_ns() as f64 / trials as f64).clamp(0.0, 1.0)
                };
                let hits = Pmf::binomial(trials, p, compiled.per_hit_vec()[i], quantum);
                let pmf = Pmf::point(err_free, quantum)
                    .convolve(&hits)
                    .clamp_to(bcrt, wcrt);
                let miss_probability = if wcrt <= row.deadline {
                    0.0
                } else {
                    (1.0 - pmf.cdf_at(row.deadline)).clamp(0.0, 1.0)
                };
                ProbOutcome::Dist(ProbDist {
                    p50: pmf.quantile(0.50),
                    p95: pmf.quantile(0.95),
                    p99: pmf.quantile(0.99),
                    miss_probability,
                    bcrt,
                    wcrt,
                    pmf,
                })
            }
        };
        messages.push(ProbMessageReport {
            index: i,
            name: compiled.names()[i].clone(),
            id: compiled.ids()[i],
            deadline: row.deadline,
            outcome,
        });
    }
    Ok(ProbBusReport {
        messages,
        quantum,
        error_model: errors.describe(),
        stuffing: full.stuffing,
        backend: compiled.backend(),
    })
}

/// Self-contained probabilistic analysis of a network: compiles the
/// bus, runs the no-error and full deterministic solves, and refines
/// them into distributions. The engine's evaluator offers the cached
/// equivalent.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidModel`] for networks that fail
/// validation.
pub fn prob_analyze(
    net: &CanNetwork,
    errors: &dyn ErrorModel,
    config: &AnalysisConfig,
) -> Result<ProbBusReport, AnalysisError> {
    let compiled = CompiledBus::compile(net, config.stuffing)?;
    let mut ws = RtaWorkspace::new();
    let base = compiled.solve(net, &NoErrors, config, &mut ws);
    let full = compiled.solve(net, errors, config, &mut ws);
    prob_from_reports(&compiled, &base, &full, errors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerType;
    use crate::error_model::SporadicErrors;
    use crate::frame::Dlc;
    use crate::message::CanMessage;
    use crate::network::Node;

    fn q() -> Time {
        Time::from_us(2)
    }

    #[test]
    fn point_mass_quantizes_upward() {
        let p = Pmf::point(Time::from_us(3), q());
        assert_eq!(p.support_min(), Time::from_us(4));
        assert_eq!(p.support_max(), Time::from_us(4));
        assert!((p.total_mass() - 1.0).abs() < 1e-12);
        assert_eq!(p.cdf_at(Time::from_us(3)), 0.0, "upper edge is 4 us");
        assert_eq!(p.cdf_at(Time::from_us(4)), 1.0);
        assert_eq!(p.quantile(0.5), Time::from_us(4));
    }

    #[test]
    fn convolution_adds_supports() {
        let a = Pmf::point(Time::from_us(4), q());
        let b = Pmf::binomial(2, 0.5, Time::from_us(2), q());
        let c = a.convolve(&b);
        assert_eq!(c.support_min(), Time::from_us(4));
        assert_eq!(c.support_max(), Time::from_us(8));
        assert!((c.total_mass() - 1.0).abs() < 1e-9);
        assert!((c.cdf_at(Time::from_us(4)) - 0.25).abs() < 1e-9);
        assert!((c.cdf_at(Time::from_us(6)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn binomial_degenerate_edges() {
        let zero = Pmf::binomial(5, 0.0, Time::from_us(2), q());
        assert_eq!(zero.support_max(), Time::ZERO);
        let one = Pmf::binomial(5, 1.0, Time::from_us(2), q());
        assert_eq!(one.support_min(), Time::from_us(10));
        let none = Pmf::binomial(0, 0.7, Time::from_us(2), q());
        assert_eq!(none.support_max(), Time::ZERO);
    }

    #[test]
    fn clamp_preserves_mass_and_bounds_support() {
        let b = Pmf::binomial(10, 0.5, Time::from_us(2), q());
        let c = b.clamp_to(Time::from_us(6), Time::from_us(12));
        assert!((c.total_mass() - 1.0).abs() < 1e-9);
        assert!(c.support_min() >= Time::from_us(6));
        assert!(c.support_max() <= Time::from_us(12));
        assert!((c.cdf_at(Time::from_us(12)) - 1.0).abs() < 1e-9);
    }

    fn small_net() -> CanNetwork {
        let mut net = CanNetwork::new(500_000);
        let a = net.add_node(Node::new("A", ControllerType::FullCan));
        let b = net.add_node(Node::new("B", ControllerType::BasicCan));
        net.add_message(CanMessage::new(
            "hi",
            CanId::standard(0x100).expect("valid"),
            Dlc::new(8),
            Time::from_ms(5),
            Time::ZERO,
            a,
        ));
        net.add_message(CanMessage::new(
            "lo",
            CanId::standard(0x200).expect("valid"),
            Dlc::new(4),
            Time::from_ms(10),
            Time::from_ms(1),
            b,
        ));
        net
    }

    #[test]
    fn prob_report_is_dominated_by_the_deterministic_envelope() {
        let net = small_net();
        let config = AnalysisConfig::default();
        let errors = SporadicErrors::new(Time::from_ms(10));
        let det = crate::rta::analyze_bus(&net, &errors, &config).expect("valid");
        let prob = prob_analyze(&net, &errors, &config).expect("valid");
        assert_eq!(prob.messages.len(), det.messages.len());
        for (p, d) in prob.messages.iter().zip(&det.messages) {
            let dist = p.outcome.dist().expect("bounded");
            let wcrt = d.outcome.wcrt().expect("bounded");
            assert_eq!(dist.wcrt, wcrt);
            assert!(dist.pmf.support_max() < wcrt + prob.quantum);
            assert!((dist.pmf.cdf_at(dist.pmf.support_max()) - 1.0).abs() < 1e-9);
            assert!(dist.pmf.support_min() >= d.outcome.bcrt().expect("bounded"));
            assert!(dist.p50 <= dist.p95 && dist.p95 <= dist.p99);
            assert!(dist.miss_probability >= 0.0 && dist.miss_probability <= 1.0);
        }
    }

    #[test]
    fn no_errors_collapses_to_the_worst_case_point() {
        let net = small_net();
        let config = AnalysisConfig::default();
        let prob = prob_analyze(&net, &NoErrors, &config).expect("valid");
        for m in &prob.messages {
            let dist = m.outcome.dist().expect("bounded");
            assert_eq!(dist.pmf.len(), 1, "single point mass");
            assert_eq!(dist.miss_probability, 0.0);
        }
        assert_eq!(prob.possible_missed(), 0);
        assert_eq!(prob.expected_missed(), 0.0);
    }

    #[test]
    fn deterministic_ok_never_reports_a_miss() {
        let net = small_net();
        let config = AnalysisConfig::default();
        let errors = SporadicErrors::new(Time::from_ms(5));
        let det = crate::rta::analyze_bus(&net, &errors, &config).expect("valid");
        let prob = prob_analyze(&net, &errors, &config).expect("valid");
        for (p, d) in prob.messages.iter().zip(&det.messages) {
            if !d.misses_deadline() {
                assert_eq!(p.outcome.miss_probability(), 0.0, "{}", p.name);
            }
        }
    }

    #[test]
    fn quantum_respects_the_bin_cap() {
        let net = small_net();
        let config = AnalysisConfig::default();
        let errors = SporadicErrors::new(Time::from_ms(10));
        let prob = prob_analyze(&net, &errors, &config).expect("valid");
        for m in &prob.messages {
            let dist = m.outcome.dist().expect("bounded");
            assert!(dist.pmf.len() as u64 <= MAX_BINS + 1);
            assert_eq!(dist.pmf.quantum(), prob.quantum);
        }
    }
}
