//! Iterative refinement — the paper's Section 5.2.
//!
//! "With such a clear interface, the analysis can be repeated as new
//! design details become available." A [`RefinementSession`] starts
//! from an assumption (uniform jitter ratio for every message without
//! first-hand data), then **commits** supplier datasheets as they
//! arrive, replacing assumptions by guarantees and re-analyzing after
//! each step. The step history shows how the design solidifies —
//! "newly appearing bottlenecks can be discovered quickly".

use crate::spec::Datasheet;
use carta_can::network::CanNetwork;
use carta_core::analysis::AnalysisError;
use carta_explore::jitter::with_assumed_unknown_jitter;
use carta_explore::scenario::Scenario;
use std::collections::BTreeSet;

/// One analysis step in the refinement history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefinementStep {
    /// What triggered the step.
    pub label: String,
    /// Messages missing their deadline after the step.
    pub missed: usize,
    /// Messages still running on assumed jitters.
    pub assumed_remaining: usize,
}

/// An evolving OEM analysis: assumptions replaced by guarantees.
#[derive(Debug, Clone)]
pub struct RefinementSession {
    net: CanNetwork,
    scenario: Scenario,
    assumed: BTreeSet<String>,
    history: Vec<RefinementStep>,
}

impl RefinementSession {
    /// Starts a session: every message whose modeled jitter is zero
    /// (unknown) is replaced by the assumption `jitter = ratio ×
    /// period` and marked as *assumed*. The initial analysis is step 0.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidModel`] if `assumed_ratio` is not
    /// in `[0, 1]`, and propagates [`AnalysisError`] from the initial
    /// analysis.
    pub fn start(
        net: &CanNetwork,
        scenario: Scenario,
        assumed_ratio: f64,
    ) -> Result<Self, AnalysisError> {
        if !(0.0..=1.0).contains(&assumed_ratio) {
            return Err(AnalysisError::InvalidModel(format!(
                "assumed jitter ratio {assumed_ratio} must be in [0, 1]"
            )));
        }
        let assumed = net
            .messages()
            .iter()
            .filter(|m| m.activation.jitter().is_zero())
            .map(|m| m.name.clone())
            .collect();
        let mut session = RefinementSession {
            net: with_assumed_unknown_jitter(net, assumed_ratio),
            scenario,
            assumed,
            history: Vec::new(),
        };
        session.record(format!(
            "initial assumptions ({assumed_ratio:.0$} ratio)",
            2
        ))?;
        Ok(session)
    }

    fn record(&mut self, label: String) -> Result<(), AnalysisError> {
        let report = self.scenario.analyze(&self.net)?;
        self.history.push(RefinementStep {
            label,
            missed: report.missed_count(),
            assumed_remaining: self.assumed.len(),
        });
        Ok(())
    }

    /// Commits a supplier datasheet: matching messages adopt the
    /// guaranteed event models and stop being assumptions. Returns the
    /// number of messages updated.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] from the re-analysis.
    pub fn commit_datasheet(&mut self, datasheet: &Datasheet) -> Result<usize, AnalysisError> {
        let mut updated = 0;
        for (name, model) in datasheet.iter() {
            if let Some((idx, _)) = self.net.message_by_name(name) {
                self.net.messages_mut()[idx].activation = *model;
                self.assumed.remove(name);
                updated += 1;
            }
        }
        self.record(format!(
            "committed datasheet `{}` ({updated} messages)",
            datasheet.provider
        ))?;
        Ok(updated)
    }

    /// The current network state (assumptions + committed guarantees).
    pub fn network(&self) -> &CanNetwork {
        &self.net
    }

    /// Messages still running on assumptions.
    pub fn assumed_remaining(&self) -> usize {
        self.assumed.len()
    }

    /// Deadline misses in the latest analysis.
    pub fn current_missed(&self) -> usize {
        self.history.last().map_or(0, |s| s.missed)
    }

    /// The full step history.
    pub fn history(&self) -> &[RefinementStep] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carta_can::controller::ControllerType;
    use carta_can::frame::Dlc;
    use carta_can::message::{CanId, CanMessage};
    use carta_can::network::Node;
    use carta_core::event_model::EventModel;
    use carta_core::time::Time;

    fn net() -> CanNetwork {
        let mut net = CanNetwork::new(500_000);
        let a = net.add_node(Node::new("A", ControllerType::FullCan));
        for (k, (name, period, jitter)) in [
            ("rpm", 10u64, 1u64), // known jitter
            ("gear", 20, 0),      // unknown
            ("brake", 10, 0),     // unknown
        ]
        .iter()
        .enumerate()
        {
            net.add_message(CanMessage::new(
                *name,
                CanId::standard(0x100 + 16 * k as u32).expect("valid"),
                Dlc::new(8),
                Time::from_ms(*period),
                Time::from_ms(*jitter),
                a,
            ));
        }
        net
    }

    #[test]
    fn session_tracks_assumptions_and_commits() {
        let mut session =
            RefinementSession::start(&net(), Scenario::worst_case(), 0.25).expect("valid");
        assert_eq!(session.assumed_remaining(), 2);
        assert_eq!(session.history().len(), 1);
        // Assumed jitter was applied.
        let (_, gear) = session.network().message_by_name("gear").expect("present");
        assert_eq!(gear.activation.jitter(), Time::from_ms(5));
        // The known message kept its first-hand value.
        let (_, rpm) = session.network().message_by_name("rpm").expect("present");
        assert_eq!(rpm.activation.jitter(), Time::from_ms(1));

        // A datasheet arrives: gear's real jitter is only 1 ms.
        let mut ds = Datasheet::new("TCU supplier");
        ds.guarantee(
            "gear",
            EventModel::periodic_with_jitter(Time::from_ms(20), Time::from_ms(1)),
        );
        let updated = session.commit_datasheet(&ds).expect("valid");
        assert_eq!(updated, 1);
        assert_eq!(session.assumed_remaining(), 1);
        assert_eq!(session.history().len(), 2);
        let (_, gear) = session.network().message_by_name("gear").expect("present");
        assert_eq!(gear.activation.jitter(), Time::from_ms(1));
        assert!(session.history()[1].label.contains("TCU supplier"));
    }

    #[test]
    fn committing_better_data_never_hurts_this_light_bus() {
        let mut session =
            RefinementSession::start(&net(), Scenario::worst_case(), 0.30).expect("valid");
        let before = session.current_missed();
        let mut ds = Datasheet::new("all suppliers");
        ds.guarantee("gear", EventModel::periodic(Time::from_ms(20)))
            .guarantee("brake", EventModel::periodic(Time::from_ms(10)));
        session.commit_datasheet(&ds).expect("valid");
        assert!(session.current_missed() <= before);
        assert_eq!(session.assumed_remaining(), 0);
    }

    #[test]
    fn a_ratio_outside_the_unit_interval_is_refused() {
        for ratio in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            match RefinementSession::start(&net(), Scenario::worst_case(), ratio) {
                Err(AnalysisError::InvalidModel(msg)) => {
                    assert!(msg.contains(&format!("ratio {ratio} ")), "{msg}")
                }
                other => panic!("ratio {ratio}: expected InvalidModel, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_datasheet_entries_are_ignored() {
        let mut session =
            RefinementSession::start(&net(), Scenario::worst_case(), 0.25).expect("valid");
        let mut ds = Datasheet::new("stranger");
        ds.guarantee("ghost", EventModel::periodic(Time::from_ms(5)));
        assert_eq!(session.commit_datasheet(&ds).expect("valid"), 0);
        assert_eq!(session.assumed_remaining(), 2);
    }
}
