//! The OEM ↔ supplier duality of Figure 6.
//!
//! *"For the bus dimensioning the OEM requires data about ECU2 sending
//! behavior. Likewise, the ECU3 supplier requires data from the OEM.
//! What is initially assumed and required, must later be guaranteed,
//! and vice versa."*
//!
//! This module derives all four artifacts:
//!
//! * [`oem_receive_guarantees`] — what the OEM can guarantee receivers
//!   about message arrival timing (from the bus analysis),
//! * [`oem_send_requirements`] — the send-jitter bounds the OEM can
//!   demand from one supplier so the bus stays schedulable (from
//!   per-message slack search, Sec. 5: "jitter constraints for the most
//!   critical messages can be formulated as requirements"),
//! * [`supplier_send_datasheet`] — the send models a supplier can
//!   guarantee (from its ECU analysis),
//! * supplier *receive* requirements are freshness bounds, checked with
//!   [`check_freshness`](crate::compat::check_freshness).

use crate::spec::{Datasheet, RequirementSpec};
use carta_can::network::CanNetwork;
use carta_can::rta::ResponseOutcome;
use carta_core::analysis::AnalysisError;
use carta_core::event_model::EventModel;
use carta_core::time::Time;
use carta_ecu::rta::{analyze_ecu, EcuAnalysisConfig};
use carta_ecu::send_jitter::message_model_from_task;
use carta_ecu::task::Task;
use carta_explore::scenario::Scenario;

/// What the OEM can guarantee receivers: the arrival event model of
/// every message (output model of the bus analysis). Messages without
/// a bounded response are returned separately — the OEM cannot
/// guarantee them at all.
///
/// # Errors
///
/// Propagates [`AnalysisError`] for malformed networks.
pub fn oem_receive_guarantees(
    net: &CanNetwork,
    scenario: &Scenario,
) -> Result<(Datasheet, Vec<String>), AnalysisError> {
    let report = scenario.analyze(net)?;
    let mut ds = Datasheet::new("OEM (bus arrival timing)");
    let mut unguaranteed = Vec::new();
    for m in &report.messages {
        match &m.outcome {
            ResponseOutcome::Bounded(bounds) => {
                let activation = net.messages()[m.index].activation;
                ds.guarantee(
                    m.name.to_string(),
                    activation.propagate(bounds.best(), bounds.worst(), m.c_min),
                );
            }
            ResponseOutcome::Overload(_) => unguaranteed.push(m.name.to_string()),
        }
    }
    Ok((ds, unguaranteed))
}

/// The largest send jitter of `message` (all other assumptions fixed)
/// at which the whole bus is still schedulable under `scenario`,
/// searched up to `cap`. Returns `None` if the bus fails even at zero
/// jitter for this message.
///
/// # Errors
///
/// Propagates [`AnalysisError`] for malformed networks.
pub fn max_message_jitter(
    net: &CanNetwork,
    scenario: &Scenario,
    message: &str,
    cap: Time,
) -> Result<Option<Time>, AnalysisError> {
    let idx = net
        .message_by_name(message)
        .map(|(i, _)| i)
        .ok_or_else(|| AnalysisError::InvalidModel(format!("unknown message `{message}`")))?;
    let with_jitter = |jitter: Time| -> CanNetwork {
        let mut v = net.clone();
        let m = &mut v.messages_mut()[idx];
        m.activation = EventModel::new(
            m.activation.kind(),
            m.activation.period(),
            jitter,
            m.activation.dmin(),
        );
        v
    };
    let ok = |jitter: Time| -> Result<bool, AnalysisError> {
        Ok(scenario.analyze(&with_jitter(jitter))?.schedulable())
    };
    if !ok(Time::ZERO)? {
        return Ok(None);
    }
    if ok(cap)? {
        return Ok(Some(cap));
    }
    let (mut lo, mut hi) = (Time::ZERO, cap);
    // Bisect to 10 µs precision — far finer than any datasheet states.
    while hi.saturating_sub(lo) > Time::from_us(10) {
        let mid = Time::from_ns((lo.as_ns() + hi.as_ns()) / 2);
        if ok(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(lo))
}

/// The requirement specification the OEM hands to the supplier owning
/// `node`: for each of the node's messages, the maximum send jitter
/// that keeps the bus schedulable (with a safety `margin` subtracted,
/// e.g. `0.8` keeps 20 % reserve), capped at `cap_ratio` of the period.
///
/// # Errors
///
/// Returns [`AnalysisError::InvalidModel`] if `node` is not a node of
/// `net` or if `margin` or `cap_ratio` is not in `(0, 1]`, and
/// propagates [`AnalysisError`] for malformed networks.
pub fn oem_send_requirements(
    net: &CanNetwork,
    scenario: &Scenario,
    node: usize,
    cap_ratio: f64,
    margin: f64,
) -> Result<RequirementSpec, AnalysisError> {
    for (what, ratio) in [("margin", margin), ("cap ratio", cap_ratio)] {
        if !(ratio > 0.0 && ratio <= 1.0) {
            return Err(AnalysisError::InvalidModel(format!(
                "{what} {ratio} must be in (0, 1]"
            )));
        }
    }
    let node_name = net
        .nodes()
        .get(node)
        .map(|n| n.name.clone())
        .ok_or_else(|| AnalysisError::InvalidModel(format!("node index {node} out of range")))?;
    let mut spec = RequirementSpec::new(format!("OEM requirements for {node_name}"));
    let names: Vec<(String, EventModel)> = net
        .messages()
        .iter()
        .filter(|m| m.sender == node)
        .map(|m| (m.name.clone(), m.activation))
        .collect();
    for (name, activation) in names {
        let cap = activation.period().scale(cap_ratio);
        let allowed = max_message_jitter(net, scenario, &name, cap)?
            .map(|j| j.scale(margin))
            .unwrap_or(Time::ZERO);
        spec.require(
            name,
            EventModel::new(
                activation.kind(),
                activation.period(),
                allowed,
                activation.dmin(),
            ),
        );
    }
    Ok(spec)
}

/// The datasheet a supplier derives from its ECU analysis: each
/// `(task index, message name)` pair maps a task completion to a
/// queued message whose send model follows the SymTA/S propagation
/// rule (Sec. 5.1: "ECU suppliers can perform analysis and provide all
/// the necessary info, at the same time protecting their essential
/// IP" — only the resulting event models are published).
///
/// # Errors
///
/// Returns [`AnalysisError::Unbounded`] if a mapped task has no
/// response bound, or propagates ECU analysis errors.
pub fn supplier_send_datasheet(
    provider: impl Into<String>,
    tasks: &[Task],
    config: &EcuAnalysisConfig,
    mapping: &[(usize, &str)],
) -> Result<Datasheet, AnalysisError> {
    let report = analyze_ecu(tasks, config)?;
    let mut ds = Datasheet::new(provider);
    for &(task_idx, message) in mapping {
        let task = tasks.get(task_idx).ok_or_else(|| {
            AnalysisError::InvalidModel(format!("task index {task_idx} out of range"))
        })?;
        let t = &report.tasks[task_idx];
        let bounds = t.bounds.ok_or_else(|| AnalysisError::Unbounded {
            entity: t.name.as_str().into(),
        })?;
        ds.guarantee(message, message_model_from_task(&task.activation, &bounds));
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{check, check_freshness};
    use carta_can::controller::ControllerType;
    use carta_can::frame::Dlc;
    use carta_can::message::{CanId, CanMessage};
    use carta_can::network::Node;
    use carta_ecu::task::Priority;

    fn bus() -> CanNetwork {
        let mut net = CanNetwork::new(500_000);
        let ems = net.add_node(Node::new("EMS", ControllerType::FullCan));
        let tcu = net.add_node(Node::new("TCU", ControllerType::FullCan));
        net.add_message(CanMessage::new(
            "engine_rpm",
            CanId::standard(0x100).expect("valid"),
            Dlc::new(8),
            Time::from_ms(10),
            Time::ZERO,
            ems,
        ));
        net.add_message(CanMessage::new(
            "gear_state",
            CanId::standard(0x200).expect("valid"),
            Dlc::new(4),
            Time::from_ms(20),
            Time::from_ms(2),
            tcu,
        ));
        net
    }

    fn tcu_tasks() -> Vec<Task> {
        vec![
            Task::periodic(
                "shift_ctrl",
                Priority(2),
                Time::from_ms(5),
                Time::from_us(300),
                Time::from_ms(1),
            ),
            Task::periodic(
                "comm_tx",
                Priority(1),
                Time::from_ms(20),
                Time::from_us(100),
                Time::from_us(500),
            ),
        ]
    }

    #[test]
    fn receive_guarantees_have_propagated_jitter() {
        let (ds, bad) = oem_receive_guarantees(&bus(), &Scenario::best_case()).expect("valid");
        assert!(bad.is_empty());
        let rpm = ds.get("engine_rpm").expect("guaranteed");
        assert_eq!(rpm.period(), Time::from_ms(10));
        // Arrival jitter = response span > 0 (blocking varies).
        assert!(rpm.jitter() > Time::ZERO);
        // gear_state keeps its own send jitter plus the response span.
        let gear = ds.get("gear_state").expect("guaranteed");
        assert!(gear.jitter() >= Time::from_ms(2));
    }

    #[test]
    fn overloaded_messages_cannot_be_guaranteed() {
        let mut net = bus();
        net.messages_mut()[1].activation = EventModel::periodic(Time::from_us(150));
        let (ds, bad) = oem_receive_guarantees(&net, &Scenario::best_case()).expect("valid");
        assert_eq!(bad, vec!["gear_state".to_string()]);
        assert!(ds.get("gear_state").is_none());
        assert!(ds.get("engine_rpm").is_some());
    }

    #[test]
    fn per_message_slack_is_found() {
        let net = bus();
        let j = max_message_jitter(
            &net,
            &Scenario::worst_case(),
            "gear_state",
            Time::from_ms(15),
        )
        .expect("valid");
        let j = j.expect("schedulable at zero");
        assert!(j > Time::ZERO);
        // Unknown message name is an error.
        assert!(
            max_message_jitter(&net, &Scenario::worst_case(), "ghost", Time::from_ms(1)).is_err()
        );
    }

    #[test]
    fn requirement_and_datasheet_close_the_loop() {
        let net = bus();
        // OEM formulates requirements for the TCU's messages.
        let req = oem_send_requirements(&net, &Scenario::worst_case(), 1, 0.9, 0.8).expect("valid");
        assert_eq!(req.len(), 1);
        let bound = req.get("gear_state").expect("required");
        assert!(bound.jitter() > Time::ZERO);

        // The TCU supplier derives its datasheet from its ECU analysis.
        let ds = supplier_send_datasheet(
            "TCU supplier",
            &tcu_tasks(),
            &EcuAnalysisConfig::default(),
            &[(1, "gear_state")],
        )
        .expect("bounded");
        let g = ds.get("gear_state").expect("guaranteed");
        // comm_tx: wcrt = 0.5 + 1 = 1.5 ms, bcrt = 0.1 ms -> J = 1.4 ms.
        assert_eq!(g.jitter(), Time::from_us(1400));

        // Figure 6 closes: guarantee vs requirement.
        let report = check(&ds, &req);
        assert!(report.all_satisfied(), "{report}");
    }

    #[test]
    fn supplier_receive_freshness_against_oem_guarantee() {
        let (ds, _) = oem_receive_guarantees(&bus(), &Scenario::best_case()).expect("valid");
        let rpm = ds.get("engine_rpm").expect("guaranteed");
        // The TCU control loop needs fresh rpm data within 15 ms.
        assert!(check_freshness(Time::from_ms(15), rpm).is_ok());
        // A 10.1 ms bound is too tight once arrival jitter is counted.
        assert!(!check_freshness(Time::from_ms(10) + Time::from_us(100), rpm).is_ok());
    }

    fn assert_refused(node: usize, cap_ratio: f64, margin: f64, named: &str) {
        match oem_send_requirements(&bus(), &Scenario::worst_case(), node, cap_ratio, margin) {
            Err(AnalysisError::InvalidModel(msg)) => assert!(msg.contains(named), "{msg}"),
            other => panic!("expected InvalidModel naming `{named}`, got {other:?}"),
        }
    }

    #[test]
    fn requirements_for_an_unknown_node_are_refused() {
        assert_refused(99, 0.5, 0.8, "node index 99");
    }

    #[test]
    fn requirements_refuse_ratios_outside_the_unit_interval() {
        assert_refused(1, 0.5, f64::NAN, "margin NaN");
        assert_refused(1, 0.0, 0.8, "cap ratio 0");
        assert_refused(1, 1.5, 0.8, "cap ratio 1.5");
    }

    #[test]
    fn datasheet_errors() {
        let tasks = tcu_tasks();
        assert!(matches!(
            supplier_send_datasheet("x", &tasks, &EcuAnalysisConfig::default(), &[(9, "m")]),
            Err(AnalysisError::InvalidModel(_))
        ));
        // An overloaded ECU cannot issue guarantees.
        let hog = vec![Task::periodic(
            "hog",
            Priority(1),
            Time::from_ms(1),
            Time::ZERO,
            Time::from_ms(2),
        )];
        assert!(matches!(
            supplier_send_datasheet("x", &hog, &EcuAnalysisConfig::default(), &[(0, "m")]),
            Err(AnalysisError::Unbounded { .. })
        ));
    }
}
