//! The metamorphic law catalogue.
//!
//! Each [`Law`] states a relation the analysis stack must satisfy
//! between *related* inputs — monotonicity, dominance or equivalence —
//! so no ground-truth response times are needed to check it. The fuzz
//! runner feeds every law a corpus of generated networks; a violation
//! is shrunk and persisted as a repro file.

use crate::gen::random_variant;
use crate::oracle::{DiffOracle, Violation, ORACLE_LAW};
use carta_can::backend::BackendConfig;
use carta_can::compiled::{CompiledBus, RtaWorkspace};
use carta_can::error_model::ErrorModel;
use carta_can::frame::{Dlc, StuffingMode};
use carta_can::message::CanId;
use carta_can::network::CanNetwork;
use carta_can::rta::{analyze_bus, AnalysisConfig};
use carta_can::rta::{BusReport, MessageReport};
use carta_core::time::Time;
use carta_engine::prelude::{
    BaseSystem, DeadlineOverride, ErrorSpec, Evaluator, Scenario, SystemVariant,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One fuzz case: the seed that generated the network (laws derive
/// their own perturbations from it) and the ambient error model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LawCase {
    /// Seed of the generated network; also drives law-internal choices.
    pub seed: u64,
    /// Error specification the law analyzes (and simulates) under.
    pub errors: ErrorSpec,
}

/// A metamorphic property of the analysis stack.
pub trait Law: Send + Sync {
    /// Stable kebab-case name (used by `carta fuzz --laws` and repro
    /// files).
    fn name(&self) -> &'static str;

    /// Checks the law on one generated network.
    ///
    /// # Errors
    ///
    /// Returns a [`Violation`] describing the broken relation.
    fn check(&self, net: &CanNetwork, case: &LawCase, eval: &Evaluator) -> Result<(), Violation>;
}

/// The WCRT column of a report (`None` = unbounded/overload).
pub fn wcrts(report: &BusReport) -> Vec<Option<Time>> {
    report.messages.iter().map(|m| m.outcome.wcrt()).collect()
}

/// `a` is pointwise at most `b`, treating `None` (unbounded) as +∞.
pub fn pointwise_le(a: &[Option<Time>], b: &[Option<Time>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (_, None) => true,
            (None, Some(_)) => false,
            (Some(x), Some(y)) => x <= y,
        })
}

/// All laws in the catalogue, in presentation order.
pub fn all_laws() -> Vec<Box<dyn Law>> {
    vec![
        Box::new(JitterMonotonicity),
        Box::new(PriorityRaiseDominance),
        Box::new(ErrorModelDominance),
        Box::new(BitRateScaling),
        Box::new(CompiledEqualsNaive),
        Box::new(OverlayEqualsRebuilt),
        Box::new(LoadSchedulability),
        Box::new(FdDominatesClassic),
        Box::new(SimNeverExceedsAnalysis::default()),
        Box::new(ProbDominatesWorstCase),
        Box::new(crate::chaos::DegradedIsSound::default()),
        Box::new(crate::chaos::FaultIsolation),
    ]
}

/// Looks a law up by its stable name.
pub fn law_by_name(name: &str) -> Option<Box<dyn Law>> {
    all_laws().into_iter().find(|l| l.name() == name)
}

/// The stable names of every law, in presentation order.
pub fn law_names() -> Vec<&'static str> {
    all_laws().iter().map(|l| l.name()).collect()
}

fn analyzed(net: &CanNetwork, model: &dyn ErrorModel) -> BusReport {
    analyze_bus(net, model, &AnalysisConfig::default()).expect("generated networks are analyzable")
}

/// Raising one message's activation jitter must not decrease any WCRT.
#[derive(Debug, Clone, Copy, Default)]
pub struct JitterMonotonicity;

impl Law for JitterMonotonicity {
    fn name(&self) -> &'static str {
        "jitter-monotonicity"
    }

    fn check(&self, net: &CanNetwork, case: &LawCase, _eval: &Evaluator) -> Result<(), Violation> {
        let model = case.errors.model();
        let before = analyzed(net, model.as_ref());
        let mut bumped = net.clone();
        let idx = (case.seed as usize) % bumped.messages().len();
        let m = &mut bumped.messages_mut()[idx];
        let activation = m.activation;
        let extra = activation.period().percent(1 + case.seed % 25);
        m.activation = carta_core::event_model::EventModel::new(
            activation.kind(),
            activation.period(),
            activation.jitter() + extra,
            activation.dmin(),
        );
        let after = analyzed(&bumped, model.as_ref());
        if pointwise_le(&wcrts(&before), &wcrts(&after)) {
            Ok(())
        } else {
            Err(Violation::new(
                self.name(),
                format!(
                    "raising jitter of `{}` by {extra} decreased a WCRT (seed {})",
                    net.messages()[idx].name,
                    case.seed
                ),
            ))
        }
    }
}

/// Swapping a message's identifier with the next-stronger one must not
/// worsen *that message's* WCRT (its interference set shrinks by at
/// least as much as its blocking can grow, for every controller type).
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityRaiseDominance;

impl Law for PriorityRaiseDominance {
    fn name(&self) -> &'static str {
        "priority-raise-dominance"
    }

    fn check(&self, net: &CanNetwork, case: &LawCase, _eval: &Evaluator) -> Result<(), Violation> {
        let order = net.priority_order();
        if order.len() < 2 {
            return Ok(());
        }
        let rank = 1 + (case.seed as usize) % (order.len() - 1);
        let (stronger, weaker) = (order[rank - 1], order[rank]);
        let model = case.errors.model();
        let before = analyzed(net, model.as_ref());
        let mut raised = net.clone();
        let (id_hi, id_lo) = (raised.messages()[stronger].id, raised.messages()[weaker].id);
        raised.messages_mut()[stronger].id = id_lo;
        raised.messages_mut()[weaker].id = id_hi;
        let after = analyzed(&raised, model.as_ref());
        let was = before.messages[weaker].outcome.wcrt();
        let now = after.messages[weaker].outcome.wcrt();
        let worsened = match (now, was) {
            (None, Some(_)) => true,
            (Some(n), Some(w)) => n > w,
            _ => false,
        };
        if worsened {
            Err(Violation::new(
                self.name(),
                format!(
                    "raising `{}` one priority rank worsened its WCRT from {was:?} to {now:?} \
                     (seed {})",
                    net.messages()[weaker].name,
                    case.seed
                ),
            ))
        } else {
            Ok(())
        }
    }
}

/// Error-model dominance: no errors ≤ sporadic(T) ≤ a burst model that
/// allows at least one hit per T (checked through the evaluator, so the
/// engine cache serves all three scenarios).
#[derive(Debug, Clone, Copy, Default)]
pub struct ErrorModelDominance;

impl Law for ErrorModelDominance {
    fn name(&self) -> &'static str {
        "error-model-dominance"
    }

    fn check(&self, net: &CanNetwork, case: &LawCase, eval: &Evaluator) -> Result<(), Violation> {
        let interval = Time::from_ms(*[5u64, 10, 20].get(case.seed as usize % 3).unwrap());
        let base = BaseSystem::new(net.clone());
        let scen = |errors: ErrorSpec| Scenario {
            name: "error-dominance".into(),
            stuffing: StuffingMode::WorstCase,
            errors,
            deadline: DeadlineOverride::Keep,
        };
        let variants = [
            SystemVariant::new(Arc::clone(&base), scen(ErrorSpec::None)),
            SystemVariant::new(Arc::clone(&base), scen(ErrorSpec::Sporadic { interval })),
            SystemVariant::new(
                base,
                scen(ErrorSpec::Burst {
                    burst_len: 2,
                    intra_gap: Time::from_us(200),
                    inter_burst: interval,
                }),
            ),
        ];
        let reports: Vec<_> = eval
            .evaluate_batch(&variants)
            .into_iter()
            .map(|r| r.expect("generated networks are analyzable"))
            .collect();
        let (none, sporadic, burst) = (&reports[0], &reports[1], &reports[2]);
        if !pointwise_le(&wcrts(none), &wcrts(sporadic)) {
            return Err(Violation::new(
                self.name(),
                format!("sporadic({interval}) errors lowered a WCRT below the error-free bound"),
            ));
        }
        if !pointwise_le(&wcrts(sporadic), &wcrts(burst)) {
            return Err(Violation::new(
                self.name(),
                format!(
                    "burst errors (2 per {interval}) fell below sporadic({interval}) — dominance \
                     violated"
                ),
            ));
        }
        Ok(())
    }
}

/// Doubling the bus bit rate must not increase any WCRT.
#[derive(Debug, Clone, Copy, Default)]
pub struct BitRateScaling;

impl Law for BitRateScaling {
    fn name(&self) -> &'static str {
        "bit-rate-scaling"
    }

    fn check(&self, net: &CanNetwork, case: &LawCase, _eval: &Evaluator) -> Result<(), Violation> {
        let model = case.errors.model();
        let slow = analyzed(net, model.as_ref());
        let fast = analyzed(&at_bit_rate(net, net.bit_rate() * 2), model.as_ref());
        if pointwise_le(&wcrts(&fast), &wcrts(&slow)) {
            Ok(())
        } else {
            Err(Violation::new(
                self.name(),
                format!(
                    "doubling the bit rate from {} bit/s increased a WCRT (seed {})",
                    net.bit_rate(),
                    case.seed
                ),
            ))
        }
    }
}

/// The compiled RTA kernel must be invisible in the results: solving a
/// parameter sequence through precompiled tables with one shared,
/// warm-started workspace — and a permuted variant through
/// [`CompiledBus::reordered`] tables — is bit-identical to a fresh
/// `analyze_bus` of each network.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompiledEqualsNaive;

impl CompiledEqualsNaive {
    fn same_report(
        &self,
        fast: &BusReport,
        fresh: &BusReport,
        what: &str,
        seed: u64,
    ) -> Result<(), Violation> {
        let rows_match = fast.messages.len() == fresh.messages.len()
            && fast
                .messages
                .iter()
                .zip(fresh.messages.iter())
                .all(|(a, b)| same_report_row(a, b));
        if rows_match && fast.error_model == fresh.error_model && fast.stuffing == fresh.stuffing {
            Ok(())
        } else {
            Err(Violation::new(
                self.name(),
                format!("compiled solve diverged from the naive analysis at {what} (seed {seed})"),
            ))
        }
    }
}

impl Law for CompiledEqualsNaive {
    fn name(&self) -> &'static str {
        "compiled-equals-naive"
    }

    fn check(&self, net: &CanNetwork, case: &LawCase, _eval: &Evaluator) -> Result<(), Violation> {
        let scenario = Scenario {
            name: "compiled-equals-naive".into(),
            stuffing: StuffingMode::WorstCase,
            errors: case.errors,
            deadline: DeadlineOverride::Keep,
        };
        let model = scenario.errors.model();
        let config = scenario.analysis_config();
        let compiled =
            CompiledBus::compile(net, config.stuffing).expect("generated networks are analyzable");
        let base = BaseSystem::new(net.clone());
        let mut ws = RtaWorkspace::new();
        // A non-monotone jitter sequence: warm starts engage where the
        // dominance gate allows and must fall back to cold where not.
        let mut last: Option<CanNetwork> = None;
        for ratio in [0.0, 0.1, 0.3, 0.05] {
            let point = SystemVariant::new(Arc::clone(&base), scenario.clone())
                .with_jitter_ratio(ratio)
                .materialize();
            let fast = compiled.solve(&point, model.as_ref(), &config, &mut ws);
            let fresh = analyze_bus(&point, model.as_ref(), &config)
                .expect("generated networks are analyzable");
            self.same_report(&fast, &fresh, &format!("jitter ratio {ratio}"), case.seed)?;
            last = Some(point);
        }
        // Permutation variant: the reordered tables must agree with a
        // fresh analysis of the permuted network.
        let last = last.expect("sequence is non-empty");
        let mut rng = StdRng::seed_from_u64(case.seed ^ 0x5c);
        let mut ids: Vec<CanId> = last.messages().iter().map(|m| m.id).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let mut permuted = last.clone();
        for (m, id) in permuted.messages_mut().iter_mut().zip(&ids) {
            m.id = *id;
        }
        let reordered = compiled.reordered(net, &ids);
        let fresh = analyze_bus(&permuted, model.as_ref(), &config)
            .expect("generated networks are analyzable");
        let cold = reordered.solve(&permuted, model.as_ref(), &config, &mut RtaWorkspace::new());
        self.same_report(&cold, &fresh, "permutation (cold)", case.seed)
    }
}

/// Evaluating a variant through the engine (overlays + cache) must be
/// bit-identical to analyzing the materialized network directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlayEqualsRebuilt;

impl Law for OverlayEqualsRebuilt {
    fn name(&self) -> &'static str {
        "overlay-equals-rebuilt"
    }

    fn check(&self, net: &CanNetwork, case: &LawCase, eval: &Evaluator) -> Result<(), Violation> {
        let base = BaseSystem::new(net.clone());
        let variant = random_variant(&base, case.seed);
        let engine = eval
            .evaluate(&variant)
            .expect("generated variants are analyzable");
        let rebuilt = variant.materialize();
        let scenario = variant.scenario();
        let direct = analyze_bus(
            &rebuilt,
            scenario.errors.model().as_ref(),
            &scenario.analysis_config(),
        )
        .expect("generated variants are analyzable");
        for (a, b) in engine.messages.iter().zip(direct.messages.iter()) {
            if !same_report_row(a, b) {
                return Err(Violation::new(
                    self.name(),
                    format!(
                        "engine overlay evaluation diverged from the rebuilt network for `{}`: \
                         {:?} vs {:?} (seed {})",
                        a.name, a.outcome, b.outcome, case.seed
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// A schedulable verdict is only consistent with a bus load at or below
/// 100 % — utilization strictly above capacity must surface as overload
/// or a deadline miss, never as "schedulable".
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadSchedulability;

impl Law for LoadSchedulability {
    fn name(&self) -> &'static str {
        "load-schedulability"
    }

    fn check(&self, net: &CanNetwork, case: &LawCase, _eval: &Evaluator) -> Result<(), Violation> {
        let report = analyzed(net, case.errors.model().as_ref());
        let utilization = net.load(StuffingMode::WorstCase).utilization();
        if report.schedulable() && utilization > 1.0 + 1e-9 {
            Err(Violation::new(
                self.name(),
                format!(
                    "analysis reports schedulable at {:.1} % bus load (seed {})",
                    utilization * 100.0,
                    case.seed
                ),
            ))
        } else {
            Ok(())
        }
    }
}

/// At the same payloads, a CAN FD bus (data phase at twice the nominal
/// rate or faster) must not report a larger WCRT than classic CAN for
/// any message: every FD frame is strictly shorter on the wire (the FD
/// nominal phase is shorter than the classic header/trailer, and the
/// data+CRC phase runs at the higher rate), so every demand term of the
/// busy-window recurrence shrinks.
#[derive(Debug, Clone, Copy, Default)]
pub struct FdDominatesClassic;

impl Law for FdDominatesClassic {
    fn name(&self) -> &'static str {
        "fd-dominates-classic-at-same-payload"
    }

    fn check(&self, net: &CanNetwork, case: &LawCase, _eval: &Evaluator) -> Result<(), Violation> {
        let model = case.errors.model();
        // Same payloads on both buses: clamp to the classic 8-byte cap
        // (FD-generated networks may carry larger frames).
        let mut classic = net.clone();
        classic.set_backend(BackendConfig::Can);
        for m in classic.messages_mut() {
            if m.dlc.bytes() > 8 {
                m.dlc = Dlc::new(8);
            }
        }
        let mut fd = classic.clone();
        fd.set_backend(BackendConfig::can_fd());
        let slow = analyzed(&classic, model.as_ref());
        let fast = analyzed(&fd, model.as_ref());
        if pointwise_le(&wcrts(&fast), &wcrts(&slow)) {
            Ok(())
        } else {
            Err(Violation::new(
                self.name(),
                format!(
                    "CAN FD exceeded classic CAN at the same payload under {} (seed {})",
                    BackendConfig::can_fd(),
                    case.seed
                ),
            ))
        }
    }
}

/// The differential oracle as a law: simulated response times never
/// exceed the analytic bounds (and the engine's permutation path agrees
/// with the plain one).
#[derive(Debug, Clone, Copy, Default)]
pub struct SimNeverExceedsAnalysis {
    oracle: DiffOracle,
}

impl Law for SimNeverExceedsAnalysis {
    fn name(&self) -> &'static str {
        ORACLE_LAW
    }

    fn check(&self, net: &CanNetwork, case: &LawCase, eval: &Evaluator) -> Result<(), Violation> {
        self.oracle.check(eval, net, case.errors, case.seed)
    }
}

/// Name of the probabilistic dominance law, shared with CI and docs.
pub const PROB_LAW: &str = "prob-dominates-worst-case";

/// The probabilistic analysis never escapes the deterministic envelope:
/// every distribution's support stays within `[bcrt, wcrt]` (up to one
/// binning quantum at the top), its CDF reaches one at the worst-case
/// bound, total mass is conserved, and a message the deterministic
/// analysis proves schedulable carries zero miss probability.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProbDominatesWorstCase;

impl Law for ProbDominatesWorstCase {
    fn name(&self) -> &'static str {
        PROB_LAW
    }

    fn check(&self, net: &CanNetwork, case: &LawCase, eval: &Evaluator) -> Result<(), Violation> {
        let scenario = Scenario {
            name: "prob-dominance".into(),
            stuffing: StuffingMode::WorstCase,
            errors: case.errors,
            deadline: DeadlineOverride::Keep,
        };
        let variant = SystemVariant::new(BaseSystem::new(net.clone()), scenario);
        let det = eval
            .evaluate(&variant)
            .expect("generated networks are analyzable");
        let prob = eval
            .evaluate_prob(&variant)
            .expect("generated networks are analyzable");
        let quantum = prob.quantum;
        let fail = |detail: String| Err(Violation::new(self.name(), detail));
        for (row, prow) in det.messages.iter().zip(prob.messages.iter()) {
            match (row.outcome.wcrt(), prow.outcome.dist()) {
                (Some(wcrt), Some(dist)) => {
                    let bcrt = row.outcome.bcrt().unwrap_or(Time::ZERO);
                    let top = dist.pmf.support_max();
                    if top >= wcrt + quantum {
                        return fail(format!(
                            "`{}`: support max {top} exceeds quantized WCRT ({wcrt} + quantum \
                             {quantum}) (seed {})",
                            row.name, case.seed
                        ));
                    }
                    if (dist.pmf.cdf_at(top) - 1.0).abs() > 1e-6 {
                        return fail(format!(
                            "`{}`: CDF at the support max is {} — mass leaked past the worst \
                             case (seed {})",
                            row.name,
                            dist.pmf.cdf_at(top),
                            case.seed
                        ));
                    }
                    if dist.pmf.support_min() < bcrt {
                        return fail(format!(
                            "`{}`: support min {} undercuts the BCRT {bcrt} (seed {})",
                            row.name,
                            dist.pmf.support_min(),
                            case.seed
                        ));
                    }
                    if (dist.pmf.total_mass() - 1.0).abs() > 1e-6 {
                        return fail(format!(
                            "`{}`: total mass {} is not conserved (seed {})",
                            row.name,
                            dist.pmf.total_mass(),
                            case.seed
                        ));
                    }
                    if wcrt <= row.deadline && dist.miss_probability != 0.0 {
                        return fail(format!(
                            "`{}`: deterministically schedulable (WCRT {wcrt} ≤ deadline {}) \
                             yet miss probability is {} (seed {})",
                            row.name, row.deadline, dist.miss_probability, case.seed
                        ));
                    }
                }
                (None, None) => {} // both diverged — consistent
                (Some(_), None) => {
                    return fail(format!(
                        "`{}`: deterministic analysis bounded, probabilistic reported overload \
                         (seed {})",
                        row.name, case.seed
                    ));
                }
                (None, Some(_)) => {
                    return fail(format!(
                        "`{}`: deterministic analysis diverged, probabilistic produced a \
                         distribution (seed {})",
                        row.name, case.seed
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Everything a per-message report row exposes that must match between
/// two equivalent evaluations.
fn same_report_row(a: &MessageReport, b: &MessageReport) -> bool {
    a.name == b.name
        && a.id == b.id
        && a.c_max == b.c_max
        && a.c_min == b.c_min
        && a.blocking == b.blocking
        && a.deadline == b.deadline
        && a.outcome == b.outcome
        && a.instances == b.instances
}

/// A copy of `net` at a different bit rate (same backend).
fn at_bit_rate(net: &CanNetwork, bit_rate: u64) -> CanNetwork {
    let mut out = CanNetwork::new(bit_rate).with_backend(net.backend());
    for node in net.nodes() {
        out.add_node(node.clone());
    }
    for m in net.messages() {
        out.add_message(m.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_network, NetShape};

    #[test]
    fn catalogue_has_stable_unique_names() {
        let names = law_names();
        assert_eq!(names.len(), 12);
        assert!(law_by_name(PROB_LAW).is_some());
        assert!(law_by_name("compiled-equals-naive").is_some());
        assert!(law_by_name("fd-dominates-classic-at-same-payload").is_some());
        assert!(law_by_name(crate::chaos::DEGRADED_LAW).is_some());
        assert!(law_by_name(crate::chaos::ISOLATION_LAW).is_some());
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "law names must be unique");
        assert!(names.contains(&ORACLE_LAW));
        assert!(law_by_name("jitter-monotonicity").is_some());
        assert!(law_by_name("nope").is_none());
    }

    #[test]
    fn laws_hold_on_a_small_corpus() {
        let eval = Evaluator::default();
        let laws = all_laws();
        for seed in 0..4u64 {
            for shape in [NetShape::bus(), NetShape::mixed()] {
                let net = random_network(&shape, seed);
                let case = LawCase {
                    seed,
                    errors: if seed % 2 == 0 {
                        ErrorSpec::None
                    } else {
                        ErrorSpec::Sporadic {
                            interval: Time::from_ms(10),
                        }
                    },
                };
                for law in &laws {
                    law.check(&net, &case, &eval).unwrap_or_else(|v| {
                        panic!("law {} violated on seed {seed}: {v}", law.name())
                    });
                }
            }
        }
    }

    #[test]
    fn pointwise_le_treats_none_as_infinity() {
        let t = |ms| Some(Time::from_ms(ms));
        assert!(pointwise_le(&[t(1), None], &[t(2), None]));
        assert!(pointwise_le(&[t(1)], &[None]));
        assert!(!pointwise_le(&[None], &[t(1)]));
        assert!(!pointwise_le(&[t(3)], &[t(2)]));
        assert!(!pointwise_le(&[t(1)], &[t(1), t(2)]), "length mismatch");
    }
}
