//! Evaluator-centric sweep API.
//!
//! Every exploration in this crate is a family of system variants
//! pushed through the same analysis, so the natural home for the
//! entry points is the [`Evaluator`]: it owns the memo cache and the
//! worker pool that make repeated and overlapping sweeps cheap. The
//! [`Sweeps`] extension trait hangs each exploration off the
//! evaluator as a method:
//!
//! ```
//! use carta_explore::prelude::*;
//! use carta_engine::prelude::Evaluator;
//!
//! # fn net() -> carta_can::network::CanNetwork {
//! #     let mut net = carta_can::network::CanNetwork::new(500_000);
//! #     let a = net.add_node(carta_can::network::Node::new(
//! #         "A",
//! #         carta_can::controller::ControllerType::FullCan,
//! #     ));
//! #     net.add_message(carta_can::message::CanMessage::new(
//! #         "m0",
//! #         carta_can::message::CanId::standard(0x100).unwrap(),
//! #         carta_can::frame::Dlc::new(8),
//! #         carta_core::time::Time::from_ms(10),
//! #         carta_core::time::Time::ZERO,
//! #         a,
//! #     ));
//! #     net
//! # }
//! let eval = Evaluator::default();
//! let curve = eval
//!     .loss_vs_jitter(&net(), &Scenario::worst_case(), &paper_jitter_grid())
//!     .expect("valid model");
//! assert_eq!(curve.points.len(), 13);
//! ```
//!
//! This trait is the only entry point to the sweeps (the free
//! functions that predated it have been removed); construct one
//! [`Evaluator`] (see
//! [`Evaluator::builder`](carta_engine::evaluator::EvaluatorBuilder))
//! and call these methods on it.

use crate::buffers::{required_rx_depth_impl, required_tx_depths_impl, TxBufferNeed};
use crate::extensibility::{max_additional_ecus_impl, EcuTemplate};
use crate::loss::{loss_vs_jitter_impl, prob_loss_vs_jitter_impl, LossCurve, ProbLossCurve};
use crate::network_choice::{compare_bit_rates_impl, BitRateOption};
use crate::scenario::Scenario;
use crate::sensitivity::{
    max_schedulable_jitter_impl, response_vs_error_rate_impl, response_vs_jitter_impl,
    SensitivitySeries,
};
use carta_can::frame::StuffingMode;
use carta_can::network::CanNetwork;
use carta_core::analysis::AnalysisError;
use carta_core::time::Time;
use carta_engine::prelude::Evaluator;

/// Exploration sweeps as [`Evaluator`] methods.
///
/// Implemented for [`Evaluator`] only; the trait exists so the sweep
/// entry points can live in this crate while the evaluator lives in
/// `carta-engine`. Bring it into scope (directly or via the prelude)
/// and call the sweeps on whichever evaluator — default, or tuned via
/// [`Evaluator::builder`] — the application already holds.
pub trait Sweeps {
    /// Loss curve over jitter ratios — the paper's Figure 5. See
    /// [`LossCurve`].
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] from the bus analysis (per-message
    /// overload is *not* an error; overloaded messages count as lost).
    fn loss_vs_jitter(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        ratios: &[f64],
    ) -> Result<LossCurve, AnalysisError>;

    /// Probabilistic loss curve over jitter ratios: each message
    /// contributes its convolution-derived deadline-miss probability
    /// instead of a binary verdict, so the curve sits inside the
    /// deterministic Figure 5 envelope. See [`ProbLossCurve`].
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] from the bus analysis (per-message
    /// overload is *not* an error; overloaded messages count as lost
    /// with probability one).
    fn prob_loss_vs_jitter(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        ratios: &[f64],
    ) -> Result<ProbLossCurve, AnalysisError>;

    /// Per-message worst-case response times over a grid of uniform
    /// jitter ratios — the paper's Figure 4.
    ///
    /// `only` restricts the reported series to the named messages
    /// (all messages when `None`); the analysis always covers the
    /// whole bus.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] from the bus analysis, including
    /// unknown names in `only`.
    fn response_vs_jitter(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        ratios: &[f64],
        only: Option<&[&str]>,
    ) -> Result<Vec<SensitivitySeries>, AnalysisError>;

    /// Per-message worst-case response times over a grid of error
    /// inter-arrival times (smaller interval = harsher environment).
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] from the bus analysis, including
    /// unknown names in `only`.
    fn response_vs_error_rate(
        &self,
        net: &CanNetwork,
        stuffing: StuffingMode,
        intervals: &[Time],
        only: Option<&[&str]>,
    ) -> Result<Vec<SensitivitySeries>, AnalysisError>;

    /// Largest uniform jitter ratio (within `0.0..=max_ratio`, to
    /// `tolerance`) under which every message still meets its
    /// deadline; `None` when the bus already fails at zero jitter.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] from the bus analysis.
    fn max_schedulable_jitter(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        max_ratio: f64,
        tolerance: f64,
    ) -> Result<Option<f64>, AnalysisError>;

    /// Per-message sender-queue depths under `scenario`. See
    /// [`TxBufferNeed`].
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] from the bus analysis.
    fn required_tx_depths(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
    ) -> Result<Vec<TxBufferNeed>, AnalysisError>;

    /// Receiver/gateway queue depth for `node` drained every
    /// `drain_period`; `None` when a consumed stream is overloaded.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::InvalidModel`] for an out-of-range
    /// node index and propagates errors from the bus analysis.
    fn required_rx_depth(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        node: usize,
        drain_period: Time,
    ) -> Result<Option<u64>, AnalysisError>;

    /// Largest number of template ECUs (up to `cap`) that can be added
    /// while every message still meets its deadline.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] from the analysis or from
    /// identifier exhaustion.
    fn max_additional_ecus(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        template: &EcuTemplate,
        cap: usize,
    ) -> Result<usize, AnalysisError>;

    /// Decision table over candidate bus speeds: load, schedulability,
    /// jitter slack and ECU headroom per candidate. See
    /// [`BitRateOption`].
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError`] from the underlying analyses.
    fn compare_bit_rates(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        candidates: &[u64],
        template: &EcuTemplate,
    ) -> Result<Vec<BitRateOption>, AnalysisError>;
}

impl Sweeps for Evaluator {
    fn loss_vs_jitter(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        ratios: &[f64],
    ) -> Result<LossCurve, AnalysisError> {
        loss_vs_jitter_impl(self, net, scenario, ratios)
    }

    fn prob_loss_vs_jitter(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        ratios: &[f64],
    ) -> Result<ProbLossCurve, AnalysisError> {
        prob_loss_vs_jitter_impl(self, net, scenario, ratios)
    }

    fn response_vs_jitter(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        ratios: &[f64],
        only: Option<&[&str]>,
    ) -> Result<Vec<SensitivitySeries>, AnalysisError> {
        response_vs_jitter_impl(self, net, scenario, ratios, only)
    }

    fn response_vs_error_rate(
        &self,
        net: &CanNetwork,
        stuffing: StuffingMode,
        intervals: &[Time],
        only: Option<&[&str]>,
    ) -> Result<Vec<SensitivitySeries>, AnalysisError> {
        response_vs_error_rate_impl(self, net, stuffing, intervals, only)
    }

    fn max_schedulable_jitter(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        max_ratio: f64,
        tolerance: f64,
    ) -> Result<Option<f64>, AnalysisError> {
        max_schedulable_jitter_impl(self, net, scenario, max_ratio, tolerance)
    }

    fn required_tx_depths(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
    ) -> Result<Vec<TxBufferNeed>, AnalysisError> {
        required_tx_depths_impl(self, net, scenario)
    }

    fn required_rx_depth(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        node: usize,
        drain_period: Time,
    ) -> Result<Option<u64>, AnalysisError> {
        required_rx_depth_impl(self, net, scenario, node, drain_period)
    }

    fn max_additional_ecus(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        template: &EcuTemplate,
        cap: usize,
    ) -> Result<usize, AnalysisError> {
        max_additional_ecus_impl(self, net, scenario, template, cap)
    }

    fn compare_bit_rates(
        &self,
        net: &CanNetwork,
        scenario: &Scenario,
        candidates: &[u64],
        template: &EcuTemplate,
    ) -> Result<Vec<BitRateOption>, AnalysisError> {
        compare_bit_rates_impl(self, net, scenario, candidates, template)
    }
}

/// Bumps the sweep counters (`sweep.runs`, `sweep.points`) in the
/// evaluator's registry, if it has one. Called once per completed sweep
/// by the `*_impl` bodies.
pub(crate) fn record_sweep_points(eval: &Evaluator, points: usize) {
    if let Some(registry) = eval.obs().registry() {
        registry.counter("sweep.runs").inc();
        registry.counter("sweep.points").add(points as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carta_can::controller::ControllerType;
    use carta_can::frame::Dlc;
    use carta_can::message::{CanId, CanMessage};
    use carta_can::network::Node;

    fn net() -> CanNetwork {
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
    fn trait_methods_delegate_to_the_shared_impl() {
        let net = net();
        let scenario = Scenario::worst_case();
        let grid = [0.0, 0.1, 0.2];
        let eval = Evaluator::default();
        let via_trait = eval
            .loss_vs_jitter(&net, &scenario, &grid)
            .expect("valid model");
        let via_impl = loss_vs_jitter_impl(&eval, &net, &scenario, &grid).expect("valid model");
        assert_eq!(via_trait, via_impl);
    }

    #[test]
    fn sweep_counters_accumulate_when_enabled() {
        let registry = std::sync::Arc::new(carta_obs::MetricsRegistry::new());
        Evaluator::builder()
            .metrics(&registry)
            .build()
            .loss_vs_jitter(&net(), &Scenario::best_case(), &[0.0, 0.1])
            .expect("valid model");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sweep.runs"), Some(1));
        assert_eq!(snap.counter("sweep.points"), Some(2));
    }
}
