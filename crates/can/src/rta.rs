//! Worst-case response-time analysis for CAN.
//!
//! The analysis follows Tindell & Burns (ref. \[7\] of the paper) in the
//! busy-window formulation with correct treatment of multiple instances
//! per busy period (the fix published by Davis et al. 2007), and is
//! generalized from pure periodic-with-jitter activation to arbitrary
//! standard event models via `η⁺`/`δ⁻` (Richter, ref. \[12\]):
//!
//! For message `m` and instance `q = 1, 2, …` the queuing delay is the
//! smallest solution of
//!
//! ```text
//! w = B_m + (q−1)·C_m + E(w + C_m) + Σ_{j ∈ hp(m)} η⁺_j(w + τ_bit)·C_j
//! ```
//!
//! where `B_m` is the non-preemption blocking (plus controller-specific
//! local blocking), `E` the error overhead and `τ_bit` one bit time.
//! The instance's response time is `R_q = w_q + C_m − δ⁻_m(q)` and the
//! busy period extends to instance `q+1` while `w_q + C_m > δ⁻_m(q+1)`.

use crate::backend::BackendConfig;
use crate::compiled::{CompiledBus, RtaWorkspace};
use crate::error_model::ErrorModel;
use crate::frame::StuffingMode;
use crate::message::CanId;
use crate::network::CanNetwork;
use carta_core::analysis::{AnalysisError, MessageDiagnostic, ResponseBounds};
use carta_core::time::Time;
use std::sync::Arc;

/// Tuning knobs of the analysis.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisConfig {
    /// Bit-stuffing assumption for worst-case frame lengths.
    pub stuffing: StuffingMode,
    /// Busy windows growing beyond this horizon are declared unbounded.
    pub horizon: Time,
    /// Maximum number of instances examined per busy period.
    pub max_instances: u64,
    /// Divergence budget: fixpoint iterations allowed per message
    /// before its busy window is abandoned with
    /// [`carta_core::analysis::DivergenceCause::IterationBudget`].
    /// Deliberately an iteration (not wall-clock) budget so the abort
    /// point — and with it every report — stays deterministic and
    /// cache-coherent; wall budgets exist one level up, on the global
    /// fixpoint ([`carta_core::comp::CompositionalSystem::with_wall_budget`]).
    pub max_iterations: u64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            stuffing: StuffingMode::WorstCase,
            horizon: Time::from_s(10),
            max_instances: 4096,
            max_iterations: 1_000_000,
        }
    }
}

impl AnalysisConfig {
    /// Default configuration with the given stuffing mode.
    pub fn with_stuffing(stuffing: StuffingMode) -> Self {
        AnalysisConfig {
            stuffing,
            ..Self::default()
        }
    }
}

/// The analysis verdict for one message.
///
/// Degraded mode: divergence is diagnosed per message, never escalated
/// to a whole-report failure — an overloaded priority level carries a
/// [`MessageDiagnostic`] (priority level, busy-window length at abort,
/// the interference set that overloaded it) while every lower-impact
/// message keeps its sound bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseOutcome {
    /// The message has bounded best/worst-case response times.
    Bounded(ResponseBounds),
    /// No bound exists (its priority level is overloaded, or a
    /// divergence budget ran out first); the diagnostic says why.
    Overload(MessageDiagnostic),
}

impl ResponseOutcome {
    /// Worst-case response time, if bounded.
    pub fn wcrt(&self) -> Option<Time> {
        match self {
            ResponseOutcome::Bounded(b) => Some(b.worst()),
            ResponseOutcome::Overload(_) => None,
        }
    }

    /// Best-case response time, if bounded.
    pub fn bcrt(&self) -> Option<Time> {
        match self {
            ResponseOutcome::Bounded(b) => Some(b.best()),
            ResponseOutcome::Overload(_) => None,
        }
    }

    /// The verdict as a `Result`: sound bounds, or the divergence
    /// diagnostic of the abandoned fixpoint.
    pub fn as_result(&self) -> Result<ResponseBounds, &MessageDiagnostic> {
        match self {
            ResponseOutcome::Bounded(b) => Ok(*b),
            ResponseOutcome::Overload(d) => Err(d),
        }
    }

    /// The divergence diagnostic, when the message has no bounds.
    pub fn diagnostic(&self) -> Option<&MessageDiagnostic> {
        match self {
            ResponseOutcome::Bounded(_) => None,
            ResponseOutcome::Overload(d) => Some(d),
        }
    }
}

/// Per-message analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageReport {
    /// Index of the message in the network's message list.
    pub index: usize,
    /// Message name, interned per [`crate::compiled::CompiledBus`]:
    /// every report produced from the same compiled tables shares one
    /// allocation per name.
    pub name: Arc<str>,
    /// CAN identifier.
    pub id: CanId,
    /// Worst-case transmission time (stuffing per config).
    pub c_max: Time,
    /// Best-case transmission time (no stuff bits).
    pub c_min: Time,
    /// Total blocking (non-preemption + controller-local).
    pub blocking: Time,
    /// Resolved deadline.
    pub deadline: Time,
    /// Response-time verdict.
    pub outcome: ResponseOutcome,
    /// Number of instances in the longest level-`m` busy period
    /// (0 when overloaded).
    pub instances: u64,
}

impl MessageReport {
    /// `true` if the message can miss its deadline (and thus be lost by
    /// buffer overwrite, in the paper's terms). Overloaded messages
    /// count as lost.
    pub fn misses_deadline(&self) -> bool {
        match self.outcome.wcrt() {
            Some(wcrt) => wcrt > self.deadline,
            None => true,
        }
    }

    /// Slack until the deadline (`None` when overloaded or missing).
    pub fn slack(&self) -> Option<Time> {
        self.outcome
            .wcrt()
            .filter(|w| *w <= self.deadline)
            .map(|w| self.deadline - w)
    }

    /// The per-message verdict as a `Result` (see
    /// [`ResponseOutcome::as_result`]).
    pub fn response(&self) -> Result<ResponseBounds, &MessageDiagnostic> {
        self.outcome.as_result()
    }
}

/// The full bus analysis result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusReport {
    /// Per-message reports, in network message order.
    pub messages: Vec<MessageReport>,
    /// Description of the error model used.
    pub error_model: String,
    /// Stuffing mode used.
    pub stuffing: StuffingMode,
    /// Bus backend the transmission times were derived from.
    pub backend: BackendConfig,
}

impl BusReport {
    /// `true` if every message meets its deadline.
    pub fn schedulable(&self) -> bool {
        self.messages.iter().all(|m| !m.misses_deadline())
    }

    /// Number of messages that can miss their deadline.
    pub fn missed_count(&self) -> usize {
        self.messages.iter().filter(|m| m.misses_deadline()).count()
    }

    /// Fraction of messages that can miss their deadline — the y-axis
    /// of the paper's Figure 5.
    pub fn miss_fraction(&self) -> f64 {
        if self.messages.is_empty() {
            0.0
        } else {
            self.missed_count() as f64 / self.messages.len() as f64
        }
    }

    /// Looks a report up by message name.
    pub fn by_name(&self, name: &str) -> Option<&MessageReport> {
        self.messages.iter().find(|m| &*m.name == name)
    }

    /// The largest worst-case response time on the bus, if all bounded.
    pub fn max_wcrt(&self) -> Option<Time> {
        self.messages
            .iter()
            .map(|m| m.outcome.wcrt())
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(Time::ZERO))
    }

    /// `true` if at least one message carries a divergence diagnostic
    /// instead of bounds (a *degraded* report: the remaining bounds are
    /// still sound).
    pub fn is_degraded(&self) -> bool {
        self.messages
            .iter()
            .any(|m| m.outcome.diagnostic().is_some())
    }

    /// The divergence diagnostics of this report, in message order.
    pub fn diagnostics(&self) -> impl Iterator<Item = &MessageDiagnostic> {
        self.messages.iter().filter_map(|m| m.outcome.diagnostic())
    }
}

/// Analyzes every message on the bus.
///
/// Shorthand for compiling the topology ([`CompiledBus::compile`]) and
/// solving once with a fresh [`RtaWorkspace`]. Callers that analyze
/// many variants of one topology should hold on to the compiled tables
/// and a workspace instead — that skips the per-call table derivation
/// and warm-starts the busy-window fixpoints (see [`crate::compiled`]).
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidModel`] if the network fails
/// [`CanNetwork::validate`]. Per-message overload is *not* an error; it
/// is reported as [`ResponseOutcome::Overload`] so that loss statistics
/// can be computed for overloaded what-if scenarios.
///
/// # Examples
///
/// ```
/// use carta_can::prelude::*;
/// use carta_core::time::Time;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = CanNetwork::new(500_000);
/// let ecu = net.add_node(Node::new("EMS", ControllerType::FullCan));
/// net.add_message(CanMessage::new(
///     "engine_rpm", CanId::standard(0x100)?, Dlc::new(8),
///     Time::from_ms(10), Time::ZERO, ecu,
/// ));
/// let report = analyze_bus(&net, &NoErrors, &AnalysisConfig::default())?;
/// // A lone 8-byte frame at 500 kbit/s: 135 bits = 270 us.
/// assert_eq!(report.messages[0].outcome.wcrt(), Some(Time::from_us(270)));
/// # Ok(())
/// # }
/// ```
pub fn analyze_bus(
    net: &CanNetwork,
    errors: &dyn ErrorModel,
    config: &AnalysisConfig,
) -> Result<BusReport, AnalysisError> {
    let compiled = CompiledBus::compile(net, config.stuffing)?;
    Ok(compiled.solve(net, errors, config, &mut RtaWorkspace::new()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerType;
    use crate::error_model::{BurstErrors, NoErrors, SporadicErrors};
    use crate::frame::Dlc;
    use crate::message::{CanMessage, DeadlinePolicy};
    use crate::network::Node;
    use carta_core::event_model::EventModel;

    fn net_with(messages: Vec<CanMessage>) -> CanNetwork {
        let mut net = CanNetwork::new(500_000);
        net.add_node(Node::new("A", ControllerType::FullCan));
        net.add_node(Node::new("B", ControllerType::FullCan));
        for m in messages {
            net.add_message(m);
        }
        net
    }

    fn msg(
        name: &str,
        id: u32,
        dlc: u8,
        period_ms: u64,
        jitter_ms: u64,
        sender: usize,
    ) -> CanMessage {
        CanMessage::new(
            name,
            CanId::standard(id).expect("valid id"),
            Dlc::new(dlc),
            Time::from_ms(period_ms),
            Time::from_ms(jitter_ms),
            sender,
        )
    }

    #[test]
    fn lone_message_wcrt_is_transmission_time() {
        let net = net_with(vec![msg("a", 0x100, 8, 10, 0, 0)]);
        let rep = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        let m = &rep.messages[0];
        assert_eq!(m.outcome.wcrt(), Some(Time::from_us(270)));
        assert_eq!(m.outcome.bcrt(), Some(Time::from_us(222)));
        assert_eq!(m.blocking, Time::ZERO);
        assert_eq!(m.instances, 1);
        assert!(rep.schedulable());
        assert_eq!(rep.miss_fraction(), 0.0);
    }

    #[test]
    fn fd_backend_shortens_the_data_phase() {
        let mut net = net_with(vec![msg("a", 0x100, 8, 10, 0, 0)]);
        net.set_backend(BackendConfig::can_fd());
        let rep = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        let m = &rep.messages[0];
        // Nominal phase 34 bits at 500 kbit/s = 68 us; data phase
        // 33 + 10·8 = 113 bits at 2 Mbit/s = 56.5 us.
        assert_eq!(m.outcome.wcrt(), Some(Time::from_ns(124_500)));
        // Best case: 30 nominal bits (60 us) + 96 data bits (48 us).
        assert_eq!(m.outcome.bcrt(), Some(Time::from_ns(108_000)));
        assert_eq!(rep.backend, BackendConfig::can_fd());
        assert!(rep.schedulable());
    }

    #[test]
    fn fd_sixty_four_byte_frames_are_bounded() {
        let mut net = net_with(vec![CanMessage::new(
            "bulk",
            CanId::standard(0x100).expect("valid id"),
            Dlc::fd(64),
            Time::from_ms(10),
            Time::ZERO,
            0,
        )]);
        net.set_backend(BackendConfig::can_fd());
        let rep = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        let m = &rep.messages[0];
        // 34 nominal bits (68 us) + 38 + 10·64 = 678 data bits with
        // CRC-21 at 2 Mbit/s (339 us).
        assert_eq!(m.outcome.wcrt(), Some(Time::from_ns(407_000)));
        assert!(rep.schedulable());
    }

    #[test]
    fn low_priority_suffers_interference() {
        let net = net_with(vec![
            msg("hi", 0x100, 8, 10, 0, 0),
            msg("lo", 0x200, 8, 10, 0, 1),
        ]);
        let rep = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        // lo waits for one hi frame then transmits: 270 + 270 us.
        assert_eq!(
            rep.by_name("lo").unwrap().outcome.wcrt(),
            Some(Time::from_us(540))
        );
        // hi is blocked by one just-started lo frame.
        assert_eq!(rep.by_name("hi").unwrap().blocking, Time::from_us(270));
        assert_eq!(
            rep.by_name("hi").unwrap().outcome.wcrt(),
            Some(Time::from_us(540))
        );
    }

    #[test]
    fn smaller_frames_block_less() {
        let net = net_with(vec![
            msg("hi", 0x100, 8, 10, 0, 0),
            msg("lo", 0x200, 1, 10, 0, 1), // 65-bit worst case = 130 us
        ]);
        let rep = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        assert_eq!(rep.by_name("hi").unwrap().blocking, Time::from_us(130));
        assert_eq!(
            rep.by_name("hi").unwrap().outcome.wcrt(),
            Some(Time::from_us(400))
        );
    }

    #[test]
    fn sporadic_error_adds_one_retransmission() {
        let net = net_with(vec![msg("a", 0x100, 8, 10, 0, 0)]);
        // One error may always strike during the transmission.
        let errors = SporadicErrors::new(Time::from_s(1));
        let rep = analyze_bus(&net, &errors, &AnalysisConfig::default()).expect("valid");
        // 31 bits error frame (62 us) + retransmission (270) + own (270).
        assert_eq!(
            rep.messages[0].outcome.wcrt(),
            Some(Time::from_us(270 + 62 + 270))
        );
    }

    #[test]
    fn burst_errors_hit_harder_than_sporadic_at_same_rate() {
        let mk = || {
            net_with(vec![
                msg("a", 0x100, 8, 5, 0, 0),
                msg("b", 0x200, 8, 5, 0, 1),
            ])
        };
        let sp = analyze_bus(
            &mk(),
            &SporadicErrors::new(Time::from_ms(10)),
            &AnalysisConfig::default(),
        )
        .expect("valid");
        let bu = analyze_bus(
            &mk(),
            &BurstErrors::new(3, Time::from_us(150), Time::from_ms(30)),
            &AnalysisConfig::default(),
        )
        .expect("valid");
        let wb = bu.by_name("b").unwrap().outcome.wcrt().expect("bounded");
        let ws = sp.by_name("b").unwrap().outcome.wcrt().expect("bounded");
        assert!(wb > ws, "burst {wb} should exceed sporadic {ws}");
    }

    #[test]
    fn overload_detected() {
        // 135 bits every 200 us on a 500 kbit/s bus: 135 % utilization.
        let net = net_with(vec![
            CanMessage::new(
                "flood",
                CanId::standard(0x100).expect("valid"),
                Dlc::new(8),
                Time::from_us(200),
                Time::ZERO,
                0,
            ),
            msg("victim", 0x200, 8, 10, 0, 1),
        ]);
        let rep = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        let victim = rep.by_name("victim").unwrap();
        assert!(matches!(victim.outcome, ResponseOutcome::Overload(_)));
        assert!(victim.misses_deadline());
        assert!(!rep.schedulable());
        assert!(rep.max_wcrt().is_none());
        assert!(rep.is_degraded());
        // The flooding message alone exceeds the bus bandwidth (135 %),
        // so even the top priority has no bound.
        let flood = rep.by_name("flood").unwrap();
        assert!(matches!(flood.outcome, ResponseOutcome::Overload(_)));
        // Degraded-mode diagnostics: the victim names its interference
        // set and abort state, the flood has nothing above it.
        let diag = victim.outcome.diagnostic().expect("diagnosed");
        assert_eq!(&*diag.entity, "victim");
        assert_eq!(diag.priority_level, 1);
        assert_eq!(diag.interference, vec![Arc::<str>::from("flood")]);
        assert!(diag.instances >= 1);
        assert!(diag.busy_window > Time::ZERO);
        assert_eq!(
            diag.cause,
            carta_core::analysis::DivergenceCause::HorizonExceeded {
                horizon: AnalysisConfig::default().horizon
            }
        );
        let fdiag = flood.outcome.diagnostic().expect("diagnosed");
        assert_eq!(fdiag.priority_level, 0);
        assert!(fdiag.interference.is_empty());
        assert_eq!(rep.diagnostics().count(), 2);
        assert!(victim.response().is_err());
    }

    #[test]
    fn jitter_tightens_deadline_and_raises_interference() {
        let base = net_with(vec![
            msg("hi", 0x100, 8, 1, 0, 0),
            msg("lo", 0x200, 8, 10, 0, 1),
        ]);
        let jittery = net_with(vec![
            CanMessage::new(
                "hi",
                CanId::standard(0x100).expect("valid"),
                Dlc::new(8),
                Time::from_ms(1),
                Time::from_us(800),
                0,
            ),
            msg("lo", 0x200, 8, 10, 0, 1),
        ]);
        let r0 = analyze_bus(&base, &NoErrors, &AnalysisConfig::default()).expect("valid");
        let r1 = analyze_bus(&jittery, &NoErrors, &AnalysisConfig::default()).expect("valid");
        let lo0 = r0.by_name("lo").unwrap().outcome.wcrt().expect("bounded");
        let lo1 = r1.by_name("lo").unwrap().outcome.wcrt().expect("bounded");
        // hi's jitter pulls a second hi frame into lo's busy window.
        assert_eq!(lo0, Time::from_us(540));
        assert_eq!(lo1, Time::from_us(810));
        // hi's own deadline shrinks to P - J = 200 us under MinReArrival.
        assert_eq!(r1.by_name("hi").unwrap().deadline, Time::from_us(200));
    }

    #[test]
    fn basic_can_adds_local_blocking() {
        let mut net = CanNetwork::new(500_000);
        let a = net.add_node(Node::new("A", ControllerType::BasicCan));
        let b = net.add_node(Node::new("B", ControllerType::FullCan));
        net.add_message(msg("hi", 0x100, 8, 10, 0, a));
        net.add_message(msg("mid", 0x180, 8, 10, 0, a));
        net.add_message(msg("other", 0x200, 8, 10, 0, b));
        let rep = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        // hi: the unrevokable register frame of its own lower-priority
        // sibling (270); other-node lower traffic counts as repeatable
        // interference rather than one-shot blocking.
        assert_eq!(rep.by_name("hi").unwrap().blocking, Time::from_us(270));
        // WCRT: register frame + one `other` interference + own frame.
        assert_eq!(
            rep.by_name("hi").unwrap().outcome.wcrt(),
            Some(Time::from_us(810))
        );

        // Same net with fullCAN: only the bus blocking remains.
        let mut net2 = CanNetwork::new(500_000);
        let a2 = net2.add_node(Node::new("A", ControllerType::FullCan));
        let b2 = net2.add_node(Node::new("B", ControllerType::FullCan));
        net2.add_message(msg("hi", 0x100, 8, 10, 0, a2));
        net2.add_message(msg("mid", 0x180, 8, 10, 0, a2));
        net2.add_message(msg("other", 0x200, 8, 10, 0, b2));
        let rep2 = analyze_bus(&net2, &NoErrors, &AnalysisConfig::default()).expect("valid");
        assert_eq!(rep2.by_name("hi").unwrap().blocking, Time::from_us(270));
        // fullCAN avoids the priority inversion: one blocking frame and
        // straight to the bus.
        assert_eq!(
            rep2.by_name("hi").unwrap().outcome.wcrt(),
            Some(Time::from_us(540))
        );
    }

    #[test]
    fn fifo_queue_blocking_scales_with_depth() {
        let mut net = CanNetwork::new(500_000);
        let a = net.add_node(Node::new("A", ControllerType::FifoQueue { depth: 3 }));
        net.add_node(Node::new("B", ControllerType::FullCan));
        net.add_message(msg("m1", 0x100, 8, 10, 0, a));
        net.add_message(msg("m2", 0x180, 8, 10, 0, a));
        net.add_message(msg("m3", 0x190, 8, 10, 0, a));
        net.add_message(msg("m4", 0x1A0, 8, 10, 0, a));
        let rep = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        // m1: two same-node frames ahead in the FIFO (depth 3); there
        // is no other-node traffic to interfere.
        assert_eq!(rep.by_name("m1").unwrap().blocking, Time::from_us(270 * 2));
        assert_eq!(
            rep.by_name("m1").unwrap().outcome.wcrt(),
            Some(Time::from_us(270 * 3))
        );
    }

    #[test]
    fn stuffing_mode_changes_results() {
        let mk = || {
            net_with(vec![
                msg("a", 0x100, 8, 10, 0, 0),
                msg("b", 0x200, 8, 10, 0, 1),
            ])
        };
        let worst = analyze_bus(&mk(), &NoErrors, &AnalysisConfig::default()).expect("valid");
        let none = analyze_bus(
            &mk(),
            &NoErrors,
            &AnalysisConfig::with_stuffing(StuffingMode::None),
        )
        .expect("valid");
        assert!(
            worst.by_name("b").unwrap().outcome.wcrt() > none.by_name("b").unwrap().outcome.wcrt()
        );
    }

    #[test]
    fn burst_activation_models_are_supported() {
        // A high-priority sender that emits 4-frame bursts.
        let burst = CanMessage::new(
            "burst",
            CanId::standard(0x080).expect("valid"),
            Dlc::new(8),
            Time::from_ms(100),
            Time::ZERO,
            0,
        )
        .with_activation(EventModel::burst(
            Time::from_ms(100),
            4,
            Time::from_us(250), // denser than one frame time: full pile-up
        ))
        .with_deadline(DeadlinePolicy::Period);
        let net = net_with(vec![burst.clone(), msg("lo", 0x200, 8, 50, 0, 1)]);
        let rep = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        // lo is delayed by all 4 burst frames: 4*270 + 270.
        assert_eq!(
            rep.by_name("lo").unwrap().outcome.wcrt(),
            Some(Time::from_us(4 * 270 + 270))
        );
        // With a 300 us intra-burst gap the 270 us victim frame slips
        // into the gap after the first burst frame: only one interferes.
        let sparse =
            burst.with_activation(EventModel::burst(Time::from_ms(100), 4, Time::from_us(300)));
        let net2 = net_with(vec![sparse, msg("lo", 0x200, 8, 50, 0, 1)]);
        let rep2 = analyze_bus(&net2, &NoErrors, &AnalysisConfig::default()).expect("valid");
        assert_eq!(
            rep2.by_name("lo").unwrap().outcome.wcrt(),
            Some(Time::from_us(270 + 270))
        );
    }

    #[test]
    fn invalid_network_is_an_error() {
        let net = CanNetwork::new(500_000);
        assert!(matches!(
            analyze_bus(&net, &NoErrors, &AnalysisConfig::default()),
            Err(AnalysisError::InvalidModel(_))
        ));
    }

    #[test]
    fn slack_reported_for_schedulable_messages() {
        let net = net_with(vec![msg("a", 0x100, 8, 10, 0, 0)]);
        let rep = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        let m = &rep.messages[0];
        assert_eq!(m.slack(), Some(Time::from_ms(10) - Time::from_us(270)));
    }

    #[test]
    fn own_jitter_spawns_multiple_instances() {
        // One message whose jitter exceeds its period: two queuings can
        // pile up, so the busy period spans multiple instances.
        let m = CanMessage::new(
            "j",
            CanId::standard(0x100).expect("valid"),
            Dlc::new(8),
            Time::from_ms(1),
            Time::from_ms(2),
            0,
        )
        .with_deadline(DeadlinePolicy::Period);
        let net = net_with(vec![m]);
        let rep = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        let r = &rep.messages[0];
        assert!(r.instances >= 2, "instances: {}", r.instances);
        // Three queuings back to back: the last starts after 2 earlier
        // frames, responds at 3*270us relative to its own queuing...
        // bounded and larger than a single frame in any case:
        assert!(r.outcome.wcrt().expect("bounded") > Time::from_us(270));
    }
}
