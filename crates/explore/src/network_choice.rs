//! Upfront network-choice exploration.
//!
//! "OEMs can evaluate different network choices upfront and use our
//! SymTA/S technology to dimension optimized and robust buses with
//! known extensibility" (paper, Sec. 6). This module sweeps candidate
//! bus speeds for a fixed communication matrix and reports, per
//! candidate: load, schedulability, jitter slack and ECU headroom —
//! the decision table an OEM would put next to the wiring-cost table.

use crate::extensibility::{max_additional_ecus_impl, EcuTemplate};
use crate::scenario::Scenario;
use crate::sensitivity::max_schedulable_jitter_impl;
use carta_can::frame::StuffingMode;
use carta_can::network::CanNetwork;
use carta_core::analysis::AnalysisError;
use carta_engine::prelude::{BaseSystem, Evaluator, SystemVariant};

/// Evaluation of one candidate bus speed.
#[derive(Debug, Clone, PartialEq)]
pub struct BitRateOption {
    /// Candidate speed in bits per second.
    pub bit_rate: u64,
    /// Worst-case-stuffed utilization.
    pub load: f64,
    /// `true` if every message meets its deadline under the scenario.
    pub schedulable: bool,
    /// Largest uniform jitter ratio the bus tolerates (`None` when
    /// already failing at zero jitter).
    pub jitter_slack: Option<f64>,
    /// How many template ECUs could still be added.
    pub ecu_headroom: usize,
}

/// Sweeps candidate bit rates for a fixed matrix.
///
/// Shared body of [`crate::sweeps::Sweeps::compare_bit_rates`]. The
/// whole decision table — schedulability check, jitter-slack search
/// and ECU-headroom search per candidate speed — runs through one
/// memoized evaluator, so repeated sweeps (or overlapping candidate
/// sets) reuse each other's analyses.
pub(crate) fn compare_bit_rates_impl(
    eval: &Evaluator,
    net: &CanNetwork,
    scenario: &Scenario,
    candidates: &[u64],
    template: &EcuTemplate,
) -> Result<Vec<BitRateOption>, AnalysisError> {
    let _span = carta_obs::span!(eval.obs(), "sweep.bit_rates", candidates = candidates.len());
    let mut options = Vec::with_capacity(candidates.len());
    for &bit_rate in candidates {
        let variant = retimed(net, bit_rate);
        let report = eval.evaluate(&SystemVariant::new(
            BaseSystem::new(variant.clone()),
            scenario.clone(),
        ))?;
        let schedulable = report.schedulable();
        let jitter_slack = if schedulable {
            max_schedulable_jitter_impl(eval, &variant, scenario, 1.0, 0.02)?
        } else {
            None
        };
        let ecu_headroom = if schedulable {
            max_additional_ecus_impl(eval, &variant, scenario, template, 64)?
        } else {
            0
        };
        options.push(BitRateOption {
            bit_rate,
            load: variant.load(StuffingMode::WorstCase).utilization(),
            schedulable,
            jitter_slack,
            ecu_headroom,
        });
    }
    crate::sweeps::record_sweep_points(eval, candidates.len());
    Ok(options)
}

/// The same matrix on a different bus speed (backend carried over).
fn retimed(net: &CanNetwork, bit_rate: u64) -> CanNetwork {
    let mut out = CanNetwork::new(bit_rate).with_backend(net.backend());
    for n in net.nodes() {
        out.add_node(n.clone());
    }
    for m in net.messages() {
        out.add_message(m.clone());
    }
    out
}

/// The cheapest (slowest) candidate that is schedulable with at least
/// `min_slack` jitter reserve — the "dimensioning" answer.
pub fn cheapest_sufficient(options: &[BitRateOption], min_slack: f64) -> Option<&BitRateOption> {
    options
        .iter()
        .filter(|o| o.schedulable && o.jitter_slack.is_some_and(|s| s >= min_slack))
        .min_by_key(|o| o.bit_rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use carta_can::controller::ControllerType;
    use carta_can::frame::Dlc;
    use carta_can::message::{CanId, CanMessage};
    use carta_can::network::Node;
    use carta_core::time::Time;

    fn matrix() -> CanNetwork {
        let mut net = CanNetwork::new(500_000); // speed is overridden by the sweep
        let a = net.add_node(Node::new("A", ControllerType::FullCan));
        for (k, period) in [10u64, 10, 20, 20, 50, 100].into_iter().enumerate() {
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

    use crate::sweeps::Sweeps;

    #[test]
    fn sweep_orders_sensibly() {
        let options = Evaluator::default()
            .compare_bit_rates(
                &matrix(),
                &Scenario::worst_case(),
                &[50_000, 125_000, 250_000, 500_000],
                &EcuTemplate::default(),
            )
            .expect("valid");
        assert_eq!(options.len(), 4);
        // Load falls with speed.
        for w in options.windows(2) {
            assert!(w[0].load > w[1].load);
        }
        // Faster buses never lose schedulability that slower ones had.
        for w in options.windows(2) {
            assert!(!w[0].schedulable || w[1].schedulable);
        }
        // Headroom and slack grow with speed (weakly).
        let fast = options.last().expect("non-empty");
        assert!(fast.schedulable);
        assert!(fast.ecu_headroom >= options[1].ecu_headroom);
        // 50 kbit/s carries ~90 % raw load — unschedulable once burst
        // errors and non-preemption blocking are accounted for.
        assert!(options[0].load > 0.8);
        assert!(!options[0].schedulable);
        assert_eq!(options[0].ecu_headroom, 0);
        assert_eq!(options[0].jitter_slack, None);
    }

    #[test]
    fn dimensioning_picks_cheapest_sufficient() {
        let options = Evaluator::default()
            .compare_bit_rates(
                &matrix(),
                &Scenario::worst_case(),
                &[50_000, 125_000, 250_000, 500_000],
                &EcuTemplate::default(),
            )
            .expect("valid");
        let pick = cheapest_sufficient(&options, 0.25).expect("some candidate works");
        assert!(pick.schedulable);
        assert!(pick.jitter_slack.expect("slack computed") >= 0.25);
        // All cheaper candidates fail the slack requirement.
        for o in options.iter().filter(|o| o.bit_rate < pick.bit_rate) {
            assert!(!o.schedulable || o.jitter_slack.is_none_or(|s| s < 0.25));
        }
        // An impossible requirement yields no pick.
        assert!(cheapest_sufficient(&options, 2.0).is_none());
    }
}
