//! Audsley's Optimal Priority Assignment (OPA) for CAN identifiers.
//!
//! A classical, deterministic baseline for the paper's Section 4.3
//! optimization experiment: priorities are assigned from the lowest
//! level upward; at each level *any* message that is schedulable with
//! all still-unassigned messages above it may take the level. The
//! algorithm is **optimal** for analyses whose verdict depends only on
//! the *sets* of higher- and lower-priority messages — which holds for
//! the busy-window analysis in [`crate::rta`] (interference from the
//! hp-set, blocking from the lp-set, error retransmission from the
//! hp-set maximum).
//!
//! OPA decides *feasibility* optimally but, unlike the SPEA2 search of
//! `carta-optim`, optimizes nothing beyond it (no robustness margins,
//! no multi-point trade-offs) — the comparison the reproduction record's
//! `ablation_baselines` section (A3, `carta-bench`) draws.

use crate::compiled::{busy_window, demand_terms, CompiledBus};
use crate::error_model::ErrorModel;
use crate::message::CanId;
use crate::network::CanNetwork;
use crate::rta::AnalysisConfig;
use carta_core::analysis::AnalysisError;
use carta_core::event_model::EventModel;

/// The result of a successful OPA run: `order[k]` is the index of the
/// message that receives the `k`-th **strongest** identifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PriorityOrder(Vec<usize>);

impl PriorityOrder {
    /// The strongest-first message ordering.
    pub fn strongest_first(&self) -> &[usize] {
        &self.0
    }

    /// Applies the order to a network by redistributing its existing
    /// identifier pool (smallest arbitration key to `order\[0\]`, etc.),
    /// exactly like the GA in `carta-optim` does.
    ///
    /// # Panics
    ///
    /// Panics if the order length does not match the network.
    pub fn apply(&self, net: &CanNetwork) -> CanNetwork {
        assert_eq!(self.0.len(), net.messages().len(), "order/network mismatch");
        let mut pool: Vec<CanId> = net.messages().iter().map(|m| m.id).collect();
        pool.sort_by_key(|id| id.arbitration_key());
        let mut out = net.clone();
        for (rank, &msg) in self.0.iter().enumerate() {
            out.messages_mut()[msg].id = pool[rank];
        }
        out
    }
}

/// Runs Audsley's algorithm on `net` (deadlines as resolved by each
/// message's policy). Returns `None` if no fixed-priority order can
/// make every message meet its deadline under this analysis — by OPA's
/// optimality, *no* identifier assignment can.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidModel`] if the network fails
/// validation.
pub fn audsley_assignment(
    net: &CanNetwork,
    errors: &dyn ErrorModel,
    config: &AnalysisConfig,
) -> Result<Option<PriorityOrder>, AnalysisError> {
    let compiled = CompiledBus::compile(net, config.stuffing)?;
    let n = compiled.len();
    let activations: Vec<EventModel> = net.messages().iter().map(|m| m.activation).collect();
    let deadlines: Vec<_> = net
        .messages()
        .iter()
        .map(|m| m.resolved_deadline())
        .collect();
    let mut window = Vec::new();

    let mut unassigned: Vec<usize> = (0..n).collect();
    let mut assigned_low: Vec<usize> = Vec::new(); // filled lowest-first

    // OPA probes many candidate assignments; its fixpoint iterations are
    // not part of the `rta.iterations` budget reported for analyses.
    let mut probe_iterations = 0u64;
    for _level in (0..n).rev() {
        let mut chosen = None;
        for (pos, &candidate) in unassigned.iter().enumerate() {
            let hp: Vec<usize> = unassigned
                .iter()
                .copied()
                .filter(|&j| j != candidate)
                .collect();
            let terms = demand_terms(net, compiled.c_max(), candidate, &hp, &assigned_low);
            let ok = busy_window(
                &activations,
                candidate,
                &terms.interference,
                compiled.c_max(),
                terms.blocking,
                compiled.tau(),
                errors,
                terms.per_hit,
                config,
                &[],
                &mut window,
                &mut probe_iterations,
            )
            .is_ok_and(|(wcrt, _)| wcrt <= deadlines[candidate]);
            if ok {
                chosen = Some(pos);
                break;
            }
        }
        match chosen {
            Some(pos) => {
                let msg = unassigned.remove(pos);
                assigned_low.push(msg);
            }
            None => return Ok(None),
        }
    }
    assigned_low.reverse(); // strongest first
    Ok(Some(PriorityOrder(assigned_low)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerType;
    use crate::error_model::{NoErrors, SporadicErrors};
    use crate::frame::Dlc;
    use crate::message::CanMessage;
    use crate::network::Node;
    use crate::rta::analyze_bus;
    use carta_core::time::Time;

    fn inverted_net(rate: u64) -> CanNetwork {
        let mut net = CanNetwork::new(rate);
        let a = net.add_node(Node::new("A", ControllerType::FullCan));
        // Slowest message gets the strongest identifier (bad).
        for (k, period) in [100u64, 50, 20, 10, 5].into_iter().enumerate() {
            net.add_message(CanMessage::new(
                format!("m{k}"),
                CanId::standard(0x100 + 16 * k as u32).expect("valid"),
                Dlc::new(8),
                Time::from_ms(period),
                Time::from_ms(period / 5),
                a,
            ));
        }
        net
    }

    #[test]
    fn repairs_an_inverted_assignment() {
        let net = inverted_net(125_000);
        let before = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        assert!(!before.schedulable(), "test net must start unschedulable");

        let order = audsley_assignment(&net, &NoErrors, &AnalysisConfig::default())
            .expect("valid")
            .expect("feasible order exists");
        let fixed = order.apply(&net);
        fixed.validate().expect("still valid");
        let after = analyze_bus(&fixed, &NoErrors, &AnalysisConfig::default()).expect("valid");
        assert!(after.schedulable(), "OPA order must be schedulable");
    }

    #[test]
    fn reports_infeasibility() {
        // 5 frames of 8 bytes every 5 ms on 125 kbit/s: 108 % load —
        // no priority order helps.
        let mut net = CanNetwork::new(125_000);
        let a = net.add_node(Node::new("A", ControllerType::FullCan));
        for k in 0..5u32 {
            net.add_message(CanMessage::new(
                format!("m{k}"),
                CanId::standard(0x100 + k).expect("valid"),
                Dlc::new(8),
                Time::from_ms(5),
                Time::ZERO,
                a,
            ));
        }
        let order = audsley_assignment(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        assert!(order.is_none());
    }

    #[test]
    fn order_is_set_based_hence_error_model_aware() {
        let net = inverted_net(250_000);
        let calm = audsley_assignment(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        let stormy = audsley_assignment(
            &net,
            &SporadicErrors::new(Time::from_ms(2)),
            &AnalysisConfig::default(),
        )
        .expect("valid");
        // Both may succeed, but the stormy one must also verify under
        // its error model end to end.
        if let Some(order) = stormy {
            let fixed = order.apply(&net);
            let rep = analyze_bus(
                &fixed,
                &SporadicErrors::new(Time::from_ms(2)),
                &AnalysisConfig::default(),
            )
            .expect("valid");
            assert!(rep.schedulable());
        }
        assert!(calm.is_some(), "error-free case must be feasible");
    }

    #[test]
    fn apply_preserves_the_id_pool() {
        let net = inverted_net(250_000);
        let order = audsley_assignment(&net, &NoErrors, &AnalysisConfig::default())
            .expect("valid")
            .expect("feasible");
        let fixed = order.apply(&net);
        let mut before: Vec<u32> = net.messages().iter().map(|m| m.id.raw()).collect();
        let mut after: Vec<u32> = fixed.messages().iter().map(|m| m.id.raw()).collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
        assert_eq!(order.strongest_first().len(), 5);
    }

    #[test]
    fn invalid_network_rejected() {
        let net = CanNetwork::new(500_000);
        assert!(audsley_assignment(&net, &NoErrors, &AnalysisConfig::default()).is_err());
    }
}
