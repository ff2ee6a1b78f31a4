//! Network variants as cheap overlays over a shared base.
//!
//! The sweep and optimization workloads evaluate thousands of networks
//! that differ from one base system only in a jitter assumption, an
//! identifier permutation and the scenario's deadline override. Instead
//! of cloning the network per point, a [`SystemVariant`] records those
//! deltas: the evaluator reads them row by row
//! ([`SystemVariant::solve_row`], [`SystemVariant::ids`]) and never
//! materializes a network.

use crate::scenario::{DeadlineOverride, Scenario};
use carta_can::message::{CanId, DeadlinePolicy};
use carta_can::network::CanNetwork;
use carta_core::analysis::AnalysisError;
use carta_core::event_model::EventModel;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

/// An immutable base network with the precomputed data the overlay
/// machinery needs: a structural fingerprint (cache key component) and
/// the sorted identifier pool (permutation overlays re-distribute
/// existing identifiers, never invent new ones).
#[derive(Debug)]
pub struct BaseSystem {
    net: CanNetwork,
    fingerprint: u64,
    id_pool: Vec<CanId>,
}

impl BaseSystem {
    /// Wraps a network for variant evaluation.
    pub fn new(net: CanNetwork) -> Arc<Self> {
        let fingerprint = fingerprint(&net);
        let mut id_pool: Vec<CanId> = net.messages().iter().map(|m| m.id).collect();
        id_pool.sort_by_key(|id| id.arbitration_key());
        Arc::new(BaseSystem {
            net,
            fingerprint,
            id_pool,
        })
    }

    /// The underlying network.
    pub fn network(&self) -> &CanNetwork {
        &self.net
    }

    /// Structural hash of the base network. Two bases with the same
    /// fingerprint are treated as interchangeable by the cache.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The network's identifiers, strongest (lowest arbitration key)
    /// first.
    pub fn id_pool(&self) -> &[CanId] {
        &self.id_pool
    }
}

/// Structural hash over everything the analysis can observe.
fn fingerprint(net: &CanNetwork) -> u64 {
    // DefaultHasher::new() uses fixed keys: deterministic within (and
    // across) processes, which keeps VariantKey stable for a given
    // network.
    let mut h = DefaultHasher::new();
    net.bit_rate().hash(&mut h);
    net.backend().hash(&mut h);
    net.nodes().len().hash(&mut h);
    for node in net.nodes() {
        node.name.hash(&mut h);
        node.controller.hash(&mut h);
    }
    net.messages().len().hash(&mut h);
    for m in net.messages() {
        m.name.hash(&mut h);
        m.id.hash(&mut h);
        m.dlc.hash(&mut h);
        m.activation.hash(&mut h);
        m.deadline.hash(&mut h);
        m.sender.hash(&mut h);
    }
    h.finish()
}

/// Jitter assumption applied on top of the base network's event models
/// (the plain-data mirror of the [`crate::jitter`] transforms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JitterOverlay {
    /// Every message's jitter becomes `ratio` of its period
    /// ([`crate::jitter::with_jitter_ratio`]).
    UniformRatio(f64),
    /// Only messages with unknown (zero) base jitter receive `ratio`
    /// of their period ([`crate::jitter::with_assumed_unknown_jitter`]).
    AssumedUnknownRatio(f64),
    /// Every existing jitter is scaled by the factor
    /// ([`crate::jitter::with_scaled_jitter`]).
    Scale(f64),
}

impl JitterOverlay {
    fn value(&self) -> f64 {
        match *self {
            JitterOverlay::UniformRatio(v)
            | JitterOverlay::AssumedUnknownRatio(v)
            | JitterOverlay::Scale(v) => v,
        }
    }

    fn discriminant(&self) -> u8 {
        match self {
            JitterOverlay::UniformRatio(_) => 0,
            JitterOverlay::AssumedUnknownRatio(_) => 1,
            JitterOverlay::Scale(_) => 2,
        }
    }

    /// The event model of one message under this overlay.
    fn activation(&self, base: &EventModel) -> EventModel {
        let period = base.period();
        match *self {
            JitterOverlay::UniformRatio(r) => {
                EventModel::new(base.kind(), period, period.scale(r), base.dmin())
            }
            JitterOverlay::AssumedUnknownRatio(r) => {
                if base.jitter().is_zero() {
                    EventModel::new(base.kind(), period, period.scale(r), base.dmin())
                } else {
                    *base
                }
            }
            JitterOverlay::Scale(f) => {
                EventModel::new(base.kind(), period, base.jitter().scale(f), base.dmin())
            }
        }
    }
}

/// Exact structural identity of one evaluation: everything that can
/// influence the produced [`carta_can::rta::BusReport`], and nothing
/// else (the scenario's display name, for instance, is excluded).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VariantKey {
    base: u64,
    stuffing: carta_can::frame::StuffingMode,
    errors: crate::scenario::ErrorSpec,
    deadline: DeadlineOverride,
    jitter: Option<(u8, u64)>,
    permutation: Option<Arc<Vec<usize>>>,
}

/// One candidate system: a shared base plus cheap overlay deltas.
#[derive(Debug, Clone)]
pub struct SystemVariant {
    base: Arc<BaseSystem>,
    scenario: Scenario,
    jitter: Option<JitterOverlay>,
    permutation: Option<Arc<Vec<usize>>>,
}

impl SystemVariant {
    /// A variant of `base` under `scenario`, with no further overlays.
    pub fn new(base: Arc<BaseSystem>, scenario: Scenario) -> Self {
        SystemVariant {
            base,
            scenario,
            jitter: None,
            permutation: None,
        }
    }

    /// Adds a jitter overlay.
    ///
    /// Hostile values (negative, NaN, infinite) are accepted here and
    /// rejected with [`AnalysisError::InvalidModel`] when the variant
    /// is evaluated — building a variant never panics.
    pub fn with_jitter(mut self, overlay: JitterOverlay) -> Self {
        self.jitter = Some(overlay);
        self
    }

    /// Shorthand for the paper's sweep axis: every jitter becomes
    /// `ratio` of the period.
    pub fn with_jitter_ratio(self, ratio: f64) -> Self {
        self.with_jitter(JitterOverlay::UniformRatio(ratio))
    }

    /// Checks the overlays for hostile values the type system cannot
    /// rule out (the analysis entry points call this before solving).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidModel`] when a jitter overlay
    /// carries a negative, NaN or infinite ratio/factor.
    pub fn validate_overlays(&self) -> Result<(), AnalysisError> {
        if let Some(overlay) = &self.jitter {
            let v = overlay.value();
            if !v.is_finite() || v < 0.0 {
                return Err(AnalysisError::InvalidModel(format!(
                    "jitter overlay value {v} must be a finite non-negative number"
                )));
            }
        }
        Ok(())
    }

    /// Adds an identifier permutation: message `perm[k]` receives the
    /// `k`-th strongest identifier of the base pool.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of the message indices.
    pub fn with_permutation(mut self, perm: Arc<Vec<usize>>) -> Self {
        let n = self.base.network().messages().len();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut seen = vec![false; n];
        for &i in perm.iter() {
            assert!(i < n && !seen[i], "not a permutation of 0..{n}");
            seen[i] = true;
        }
        self.permutation = Some(perm);
        self
    }

    /// This variant with the scenario's error model replaced; every
    /// other overlay (jitter, permutation, deadline override) is kept.
    /// The probabilistic analysis uses this to derive the error-free
    /// twin of a variant.
    pub fn with_errors(mut self, errors: crate::scenario::ErrorSpec) -> Self {
        self.scenario.errors = errors;
        self
    }

    /// The shared base system.
    pub fn base(&self) -> &Arc<BaseSystem> {
        &self.base
    }

    /// The scenario this variant is evaluated under.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The identifier permutation overlay, if any.
    pub fn permutation(&self) -> Option<&Arc<Vec<usize>>> {
        self.permutation.as_ref()
    }

    /// The cache key of this variant.
    pub fn key(&self) -> VariantKey {
        VariantKey {
            base: self.base.fingerprint(),
            stuffing: self.scenario.stuffing,
            errors: self.scenario.errors,
            deadline: self.scenario.deadline,
            jitter: self.jitter.map(|j| (j.discriminant(), j.value().to_bits())),
            permutation: self.permutation.clone(),
        }
    }

    /// The identifier of every message, indexed like the base's
    /// messages: under a permutation overlay message `perm[k]` carries
    /// the `k`-th strongest identifier of the pool; without one, every
    /// message keeps its own.
    pub fn ids(&self) -> Vec<CanId> {
        let mut ids: Vec<CanId> = self
            .base
            .network()
            .messages()
            .iter()
            .map(|m| m.id)
            .collect();
        if let Some(perm) = &self.permutation {
            let pool = self.base.id_pool();
            for (rank, &msg_idx) in perm.iter().enumerate() {
                ids[msg_idx] = pool[rank];
            }
        }
        ids
    }

    /// Message `i`'s event model under the jitter overlay.
    fn activation(&self, i: usize) -> EventModel {
        let src = &self.base.network().messages()[i].activation;
        match &self.jitter {
            Some(overlay) => overlay.activation(src),
            None => *src,
        }
    }

    /// Message `i`'s deadline policy under the scenario's override.
    fn deadline_policy(&self, i: usize) -> DeadlinePolicy {
        match self.scenario.deadline {
            DeadlineOverride::Keep => self.base.network().messages()[i].deadline,
            DeadlineOverride::Period => DeadlinePolicy::Period,
            DeadlineOverride::MinReArrival => DeadlinePolicy::MinReArrival,
        }
    }

    /// The structure-of-arrays row of message `i` under this variant's
    /// overlays: the overlaid activation model and the deadline it
    /// resolves to — exactly what [`SystemVariant::materialize`]
    /// followed by `resolved_deadline()` would produce, without
    /// touching a network. Feeds [`carta_can::compiled::SolvePoint`]
    /// construction on the evaluator's hot path. Identifier
    /// permutations are *not* reflected here: they change the compiled
    /// tables ([`SystemVariant::ids`]), not the solve rows.
    pub fn solve_row(&self, i: usize) -> (EventModel, carta_core::time::Time) {
        let activation = self.activation(i);
        (activation, self.deadline_policy(i).deadline(&activation))
    }

    /// Materializes the full network (one clone per call; the
    /// evaluator never needs it).
    pub fn materialize(&self) -> CanNetwork {
        let mut net = self.base.network().clone();
        let ids = self.ids();
        for (i, m) in net.messages_mut().iter_mut().enumerate() {
            m.id = ids[i];
            m.activation = self.activation(i);
            m.deadline = self.deadline_policy(i);
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jitter::{with_jitter_ratio, with_scaled_jitter};
    use carta_can::controller::ControllerType;
    use carta_can::frame::Dlc;
    use carta_can::message::CanMessage;
    use carta_can::network::Node;
    use carta_core::time::Time;

    fn net() -> CanNetwork {
        let mut net = CanNetwork::new(500_000);
        let a = net.add_node(Node::new("A", ControllerType::FullCan));
        net.add_message(CanMessage::new(
            "known",
            CanId::standard(0x200).expect("valid"),
            Dlc::new(8),
            Time::from_ms(10),
            Time::from_ms(1),
            a,
        ));
        net.add_message(CanMessage::new(
            "unknown",
            CanId::standard(0x100).expect("valid"),
            Dlc::new(4),
            Time::from_ms(20),
            Time::ZERO,
            a,
        ));
        net
    }

    #[test]
    fn overlays_match_the_clone_based_transforms() {
        let base = BaseSystem::new(net());
        for ratio in [0.0, 0.25, 0.6] {
            let v = SystemVariant::new(base.clone(), Scenario::worst_case())
                .with_jitter_ratio(ratio)
                .materialize();
            let expected = Scenario::worst_case().apply(&with_jitter_ratio(&net(), ratio));
            assert_eq!(v, expected, "ratio {ratio}");
        }
        let v = SystemVariant::new(base.clone(), Scenario::best_case())
            .with_jitter(JitterOverlay::Scale(2.0))
            .materialize();
        let expected = Scenario::best_case().apply(&with_scaled_jitter(&net(), 2.0));
        assert_eq!(v, expected);
        let v = SystemVariant::new(base.clone(), Scenario::best_case())
            .with_jitter(JitterOverlay::AssumedUnknownRatio(0.25))
            .materialize();
        let expected =
            Scenario::best_case().apply(&crate::jitter::with_assumed_unknown_jitter(&net(), 0.25));
        assert_eq!(v, expected);
    }

    #[test]
    fn solve_rows_mirror_materialize() {
        let base = BaseSystem::new(net());
        let scenarios = [
            Scenario::worst_case(),
            Scenario::best_case(),
            Scenario::best_case_period_deadline(),
        ];
        let overlays = [
            None,
            Some(JitterOverlay::UniformRatio(0.4)),
            Some(JitterOverlay::AssumedUnknownRatio(0.25)),
            Some(JitterOverlay::Scale(2.0)),
        ];
        for scenario in &scenarios {
            for overlay in &overlays {
                let mut v = SystemVariant::new(base.clone(), scenario.clone());
                if let Some(overlay) = overlay {
                    v = v.with_jitter(*overlay);
                }
                let materialized = v.materialize();
                for (i, m) in materialized.messages().iter().enumerate() {
                    let (activation, deadline) = v.solve_row(i);
                    assert_eq!(activation, m.activation, "{} row {i}", scenario.name);
                    assert_eq!(deadline, m.resolved_deadline(), "{} row {i}", scenario.name);
                }
            }
        }
    }

    #[test]
    fn permutation_redistributes_the_pool() {
        let base = BaseSystem::new(net());
        // Pool strongest-first: [0x100, 0x200]. perm [0, 1]: message 0
        // ("known", base 0x200) takes 0x100.
        let variant = SystemVariant::new(base.clone(), Scenario::best_case())
            .with_permutation(Arc::new(vec![0, 1]));
        let v = variant.materialize();
        let ids: Vec<CanId> = v.messages().iter().map(|m| m.id).collect();
        assert_eq!(variant.ids(), ids);
        assert_eq!(v.messages()[0].id.raw(), 0x100);
        assert_eq!(v.messages()[1].id.raw(), 0x200);
        let mut before: Vec<u32> = net().messages().iter().map(|m| m.id.raw()).collect();
        let mut after: Vec<u32> = v.messages().iter().map(|m| m.id.raw()).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
    }

    #[test]
    fn keys_identify_structure_not_names() {
        let base = BaseSystem::new(net());
        let a = SystemVariant::new(base.clone(), Scenario::worst_case()).with_jitter_ratio(0.25);
        let mut renamed = Scenario::worst_case();
        renamed.name = "same assumptions, different label".into();
        let b = SystemVariant::new(base.clone(), renamed).with_jitter_ratio(0.25);
        assert_eq!(a.key(), b.key());

        let c = SystemVariant::new(base.clone(), Scenario::worst_case()).with_jitter_ratio(0.26);
        assert_ne!(a.key(), c.key());
        let d = SystemVariant::new(base.clone(), Scenario::best_case()).with_jitter_ratio(0.25);
        assert_ne!(a.key(), d.key());
        let e = SystemVariant::new(base.clone(), Scenario::worst_case())
            .with_jitter_ratio(0.25)
            .with_permutation(Arc::new(vec![1, 0]));
        assert_ne!(a.key(), e.key());

        let mut other = net();
        other.messages_mut()[0].dlc = Dlc::new(1);
        let f = SystemVariant::new(BaseSystem::new(other), Scenario::worst_case())
            .with_jitter_ratio(0.25);
        assert_ne!(a.key(), f.key());
    }

    #[test]
    fn backend_separates_fingerprints() {
        let classic = BaseSystem::new(net());
        let fd = BaseSystem::new(net().with_backend(carta_can::backend::BackendConfig::can_fd()));
        assert_ne!(classic.fingerprint(), fd.fingerprint());
        let a = SystemVariant::new(classic, Scenario::worst_case());
        let b = SystemVariant::new(fd, Scenario::worst_case());
        assert_ne!(a.key(), b.key());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn malformed_permutations_rejected() {
        let base = BaseSystem::new(net());
        let _ =
            SystemVariant::new(base, Scenario::best_case()).with_permutation(Arc::new(vec![0, 0]));
    }
}
