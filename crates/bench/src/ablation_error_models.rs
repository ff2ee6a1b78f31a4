//! **A1 — ablation** of the worst-case ingredients: how many messages
//! each of error model, bit stuffing and controller type costs at 25 %
//! jitter on the case study.

use crate::{case_study, Record};
use carta_can::controller::ControllerType;
use carta_can::frame::StuffingMode;
use carta_can::network::{CanNetwork, Node};
use carta_core::time::Time;
use carta_explore::jitter::with_jitter_ratio;
use carta_explore::scenario::{DeadlineOverride, ErrorSpec, Scenario};
use std::fmt::{self, Write};

/// The worst case built up one ingredient at a time.
fn scenarios() -> Vec<Scenario> {
    let burst = ErrorSpec::Burst {
        burst_len: 3,
        intra_gap: Time::from_us(200),
        inter_burst: Time::from_ms(25),
    };
    [
        ("none/none", StuffingMode::None, ErrorSpec::None),
        ("none/stuffing", StuffingMode::WorstCase, ErrorSpec::None),
        (
            "sporadic/stuffing",
            StuffingMode::WorstCase,
            ErrorSpec::Sporadic {
                interval: Time::from_ms(10),
            },
        ),
        ("burst/stuffing", StuffingMode::WorstCase, burst),
    ]
    .into_iter()
    .map(|(name, stuffing, errors)| Scenario {
        name: name.into(),
        stuffing,
        errors,
        deadline: DeadlineOverride::MinReArrival,
    })
    .collect()
}

/// The case study with every node on `controller`.
fn with_controller(net: &CanNetwork, controller: ControllerType) -> CanNetwork {
    let mut rebuilt = CanNetwork::new(net.bit_rate());
    for n in net.nodes() {
        rebuilt.add_node(Node::new(n.name.clone(), controller));
    }
    for m in net.messages() {
        rebuilt.add_message(m.clone());
    }
    rebuilt
}

/// Writes the A1 section.
pub(crate) fn run(out: &mut Record) -> fmt::Result {
    writeln!(
        out,
        "=== A1: error models, stuffing and controllers at 25 % jitter ===\n"
    )?;
    let net = case_study();
    let jittered = with_jitter_ratio(&net, 0.25);
    writeln!(out, "errors/stuffing (min re-arrival deadline):")?;
    for scenario in scenarios() {
        let report = scenario.analyze(&jittered).expect("valid");
        writeln!(
            out,
            "  {:<20} -> {:>2} of {} messages lost",
            scenario.name,
            report.missed_count(),
            report.messages.len()
        )?;
    }
    writeln!(out, "\ncontroller type (worst case):")?;
    for controller in [
        ControllerType::FullCan,
        ControllerType::BasicCan,
        ControllerType::FifoQueue { depth: 4 },
    ] {
        let fleet = with_jitter_ratio(&with_controller(&net, controller), 0.25);
        let report = Scenario::worst_case().analyze(&fleet).expect("valid");
        writeln!(
            out,
            "  all nodes {:<10} -> {:>2} of {} messages lost",
            controller.label(),
            report.missed_count(),
            report.messages.len()
        )?;
    }
    Ok(())
}
