//! Extensibility headroom — the paper's integration questions "Can more
//! ECUs (and how many) be connected without overloading the bus? How
//! about diagnosis and ECU flashing?" (Sec. 2, Fig. 3).

use crate::scenario::Scenario;
use carta_can::frame::Dlc;
use carta_can::message::{CanId, CanMessage, DeadlinePolicy};
use carta_can::network::{CanNetwork, Node};
use carta_core::analysis::AnalysisError;
use carta_core::event_model::EventModel;
use carta_core::time::Time;
use carta_engine::prelude::{BaseSystem, Evaluator, SystemVariant};

/// Template for the traffic a prospective additional ECU would add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcuTemplate {
    /// Messages the new ECU sends.
    pub messages_per_ecu: usize,
    /// Their common period.
    pub period: Time,
    /// Payload size.
    pub dlc: u8,
    /// Raw identifier of the first added message; subsequent messages
    /// and ECUs count upward from here (keep above the existing ID
    /// range so existing traffic retains priority).
    pub base_id: u32,
}

impl Default for EcuTemplate {
    fn default() -> Self {
        EcuTemplate {
            messages_per_ecu: 6,
            period: Time::from_ms(100),
            dlc: 8,
            base_id: 0x500,
        }
    }
}

/// Returns a copy of the network with `count` template ECUs attached.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidModel`] if the identifier range
/// overflows the standard 11-bit space.
pub fn with_additional_ecus(
    net: &CanNetwork,
    template: &EcuTemplate,
    count: usize,
) -> Result<CanNetwork, AnalysisError> {
    let mut net = net.clone();
    for e in 0..count {
        let node = net.add_node(Node::new(format!("EXT{e}"), Default::default()));
        for k in 0..template.messages_per_ecu {
            let raw = template.base_id + (e * template.messages_per_ecu + k) as u32;
            let id = CanId::standard(raw).map_err(|err| {
                AnalysisError::InvalidModel(format!("extension identifier: {err}"))
            })?;
            net.add_message(CanMessage::new(
                format!("ext{e}_m{k}"),
                id,
                Dlc::new(template.dlc),
                template.period,
                Time::ZERO,
                node,
            ));
        }
    }
    Ok(net)
}

/// Binary-searches the largest number of template ECUs that can be
/// added while every message (old and new) still meets its deadline
/// under `scenario`.
///
/// Shared body of [`crate::sweeps::Sweeps::max_additional_ecus`]. Each
/// probe is a structurally different network (extra ECUs), so the win
/// of a shared evaluator is memoization across repeated searches —
/// e.g. the same count probed for several scenarios or templates
/// sharing a prefix.
pub(crate) fn max_additional_ecus_impl(
    eval: &Evaluator,
    net: &CanNetwork,
    scenario: &Scenario,
    template: &EcuTemplate,
    cap: usize,
) -> Result<usize, AnalysisError> {
    let _span = carta_obs::span!(eval.obs(), "sweep.ecu_headroom", cap = cap);
    let fits = |count: usize| -> Result<bool, AnalysisError> {
        let extended = with_additional_ecus(net, template, count)?;
        let v = SystemVariant::new(BaseSystem::new(extended), scenario.clone());
        Ok(eval.evaluate(&v)?.schedulable())
    };
    if !fits(0)? {
        return Ok(0);
    }
    let (mut lo, mut hi) = (0usize, cap);
    if fits(cap)? {
        return Ok(cap);
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if fits(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Adds a diagnosis/flashing stream: a sporadic, low-priority,
/// full-length data stream hammering the bus every `min_gap` — the
/// "flashing & diagnosis" influence of the paper's Figure 3.
pub fn with_diagnostic_stream(net: &CanNetwork, min_gap: Time) -> CanNetwork {
    let mut net = net.clone();
    let node = net.add_node(Node::new("TESTER", Default::default()));
    // 0x7E0 is a valid 11-bit identifier by construction.
    #[allow(clippy::expect_used)]
    let id = CanId::standard(0x7E0).expect("fixed diagnostic id is valid");
    let msg = CanMessage {
        name: "diag_flash".into(),
        id,
        dlc: Dlc::new(8),
        activation: EventModel::sporadic(min_gap),
        deadline: DeadlinePolicy::Period,
        sender: node,
    };
    net.add_message(msg);
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use carta_can::controller::ControllerType;

    fn base_net() -> CanNetwork {
        let mut net = CanNetwork::new(500_000);
        let a = net.add_node(Node::new("A", ControllerType::FullCan));
        for (k, period) in [10u64, 20, 50].into_iter().enumerate() {
            net.add_message(CanMessage::new(
                format!("m{k}"),
                CanId::standard(0x100 + 16 * k as u32).expect("valid"),
                Dlc::new(8),
                Time::from_ms(period),
                Time::ZERO,
                a,
            ));
        }
        net
    }

    #[test]
    fn extension_adds_nodes_and_messages() {
        let net = with_additional_ecus(&base_net(), &EcuTemplate::default(), 2).expect("fits");
        assert_eq!(net.nodes().len(), 3);
        assert_eq!(net.messages().len(), 3 + 12);
        net.validate().expect("valid");
    }

    #[test]
    fn headroom_found_and_bounded() {
        let net = base_net();
        // Lightly loaded bus: some extensions fit, but a 5 ms flood of
        // 6 messages each does not fit forever.
        let template = EcuTemplate {
            period: Time::from_ms(5),
            ..EcuTemplate::default()
        };
        use crate::sweeps::Sweeps;
        let n = Evaluator::default()
            .max_additional_ecus(&net, &Scenario::worst_case(), &template, 64)
            .expect("valid");
        assert!(n >= 1, "at least one ECU should fit, got {n}");
        assert!(n < 64, "cannot fit unboundedly many");
        // One more than the maximum must break.
        let broken = with_additional_ecus(&net, &template, n + 1).expect("constructible");
        assert!(!Scenario::worst_case()
            .analyze(&broken)
            .expect("valid")
            .schedulable());
    }

    #[test]
    fn id_space_exhaustion_reported() {
        let template = EcuTemplate {
            base_id: 0x7FE,
            ..EcuTemplate::default()
        };
        assert!(matches!(
            with_additional_ecus(&base_net(), &template, 1),
            Err(AnalysisError::InvalidModel(_))
        ));
    }

    #[test]
    fn diagnostic_stream_degrades_but_low_priority() {
        let net = base_net();
        let before = Scenario::worst_case().analyze(&net).expect("valid");
        let with_diag = with_diagnostic_stream(&net, Time::from_ms(2));
        let after = Scenario::worst_case().analyze(&with_diag).expect("valid");
        // Existing messages only gain (at most) one frame of blocking;
        // they keep their deadlines on this light bus.
        for m in &before.messages {
            let a = after.by_name(&m.name).expect("still present");
            assert!(a.outcome.wcrt() >= m.outcome.wcrt());
            assert!(!a.misses_deadline());
        }
    }
}
