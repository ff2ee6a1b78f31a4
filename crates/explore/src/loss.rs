//! Message-loss analysis — the paper's Figure 5.
//!
//! For each assumed jitter ratio, the bus is analyzed under a
//! [`Scenario`] and the fraction of messages that can miss their
//! deadline (and thus be overwritten in the sender's buffer — "lost")
//! is recorded.

use crate::scenario::Scenario;
use carta_can::network::CanNetwork;
use carta_core::analysis::AnalysisError;
use carta_engine::prelude::{BaseSystem, Evaluator, SystemVariant};

/// One point of a loss curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossPoint {
    /// Assumed jitter as a fraction of each message's period.
    pub jitter_ratio: f64,
    /// Messages that can miss their deadline.
    pub missed: usize,
    /// Total messages on the bus.
    pub total: usize,
    /// `true` when this point's analysis failed outright (e.g. a
    /// contained panic). Failed points are classified as fully lost —
    /// `missed == total` — rather than silently dropped, preserving
    /// the Figure 5 semantics that an unanalyzable configuration is an
    /// unsafe one.
    pub failed: bool,
}

impl LossPoint {
    /// Fraction of messages lost (the paper's y-axis).
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.missed as f64 / self.total as f64
        }
    }
}

/// A loss curve over jitter ratios, under one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct LossCurve {
    /// Scenario name.
    pub scenario: String,
    /// Curve points, in the order of the requested ratios.
    pub points: Vec<LossPoint>,
}

impl LossCurve {
    /// The largest jitter ratio at which no message is lost — the
    /// paper's optimized system achieves 0.25 here.
    pub fn zero_loss_up_to(&self) -> Option<f64> {
        let mut best = None;
        for p in &self.points {
            if p.missed == 0 {
                best = Some(best.map_or(p.jitter_ratio, |b: f64| b.max(p.jitter_ratio)));
            } else {
                break;
            }
        }
        best
    }

    /// The loss fraction at the given ratio, if sampled.
    pub fn fraction_at(&self, ratio: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.jitter_ratio - ratio).abs() < 1e-9)
            .map(LossPoint::fraction)
    }
}

/// Shared body of [`crate::sweeps::Sweeps::loss_vs_jitter`]: the whole
/// ratio grid is one batch submission, so points are analyzed in
/// parallel and repeated grids (e.g. nominal vs. optimized system on
/// the same axis) hit the evaluator's cache.
pub(crate) fn loss_vs_jitter_impl(
    eval: &Evaluator,
    net: &CanNetwork,
    scenario: &Scenario,
    ratios: &[f64],
) -> Result<LossCurve, AnalysisError> {
    let _span = carta_obs::span!(eval.obs(), "sweep.loss", points = ratios.len());
    let base = BaseSystem::new(net.clone());
    let variants: Vec<SystemVariant> = ratios
        .iter()
        .map(|&ratio| SystemVariant::new(base.clone(), scenario.clone()).with_jitter_ratio(ratio))
        .collect();
    let results = eval.evaluate_batch(&variants);
    // A uniformly failing grid means the *base* model is broken: that
    // is a caller error, not a per-point classification.
    if let Some(Err(err)) = results.first() {
        if results.iter().all(|r| r.is_err()) {
            return Err(err.clone());
        }
    }
    let total = net.messages().len();
    let mut points = Vec::with_capacity(ratios.len());
    for (&ratio, result) in ratios.iter().zip(results) {
        let point = match result {
            Ok(report) => LossPoint {
                jitter_ratio: ratio,
                missed: report.missed_count(),
                total: report.messages.len(),
                failed: false,
            },
            Err(err) => {
                // Classify, don't drop: a point whose analysis died is
                // reported as fully lost so the curve stays aligned
                // with the requested grid.
                carta_obs::event!(eval.obs(), "sweep.point.failed", ratio = ratio, error = err);
                LossPoint {
                    jitter_ratio: ratio,
                    missed: total,
                    total,
                    failed: true,
                }
            }
        };
        carta_obs::event!(
            eval.obs(),
            "sweep.point",
            ratio = ratio,
            missed = point.missed,
            total = point.total
        );
        points.push(point);
    }
    crate::sweeps::record_sweep_points(eval, ratios.len());
    Ok(LossCurve {
        scenario: scenario.name.clone(),
        points,
    })
}

/// One point of a probabilistic loss curve: instead of the binary
/// lost/safe verdict of [`LossPoint`], each message contributes its
/// deadline-miss *probability* from the convolved response-time
/// distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbLossPoint {
    /// Assumed jitter as a fraction of each message's period.
    pub jitter_ratio: f64,
    /// Sum of per-message deadline-miss probabilities — the expected
    /// number of lost messages at this ratio.
    pub expected_missed: f64,
    /// Messages whose miss probability is ≈ 1 (lost for certain); this
    /// matches the deterministic Figure 5 "worst" envelope.
    pub certain_missed: usize,
    /// Messages with any non-negligible miss probability; this is the
    /// pessimistic edge of the confidence band.
    pub possible_missed: usize,
    /// Total messages on the bus.
    pub total: usize,
    /// `true` when this point's analysis failed outright; failed
    /// points are classified as fully lost, like [`LossPoint`].
    pub failed: bool,
}

impl ProbLossPoint {
    /// Expected fraction of messages lost (the probabilistic y-axis).
    pub fn expected_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.expected_missed / self.total as f64
        }
    }
}

/// A probabilistic loss curve over jitter ratios, under one scenario.
///
/// The deterministic [`LossCurve`] of the same scenario brackets this
/// curve: `certain_missed` ≤ `expected_missed` ≤ `possible_missed` ≤
/// the deterministic loss count at every ratio (a message the analysis
/// proves schedulable carries zero miss probability by construction).
#[derive(Debug, Clone, PartialEq)]
pub struct ProbLossCurve {
    /// Scenario name.
    pub scenario: String,
    /// Curve points, in the order of the requested ratios.
    pub points: Vec<ProbLossPoint>,
}

impl ProbLossCurve {
    /// The largest jitter ratio (scanning from the left) at which no
    /// message carries any miss probability — the probabilistic
    /// sharpening of [`LossCurve::zero_loss_up_to`].
    pub fn zero_risk_up_to(&self) -> Option<f64> {
        let mut best = None;
        for p in &self.points {
            if p.possible_missed == 0 && !p.failed {
                best = Some(best.map_or(p.jitter_ratio, |b: f64| b.max(p.jitter_ratio)));
            } else {
                break;
            }
        }
        best
    }

    /// The expected loss fraction at the given ratio, if sampled.
    pub fn expected_fraction_at(&self, ratio: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| (p.jitter_ratio - ratio).abs() < 1e-9)
            .map(ProbLossPoint::expected_fraction)
    }
}

/// Shared body of [`crate::sweeps::Sweeps::prob_loss_vs_jitter`]. The
/// deterministic halves of every point (error-free and full analyses)
/// are warmed through one parallel batch; the convolutions themselves
/// then run off the hot cache.
pub(crate) fn prob_loss_vs_jitter_impl(
    eval: &Evaluator,
    net: &CanNetwork,
    scenario: &Scenario,
    ratios: &[f64],
) -> Result<ProbLossCurve, AnalysisError> {
    let _span = carta_obs::span!(eval.obs(), "sweep.prob_loss", points = ratios.len());
    let base = BaseSystem::new(net.clone());
    let variants: Vec<SystemVariant> = ratios
        .iter()
        .map(|&ratio| SystemVariant::new(base.clone(), scenario.clone()).with_jitter_ratio(ratio))
        .collect();
    // Warm both deterministic legs of every point in parallel before
    // the (sequential, cheap) convolution pass.
    let warm: Vec<SystemVariant> = variants
        .iter()
        .flat_map(|v| {
            [
                v.clone(),
                v.clone()
                    .with_errors(carta_engine::scenario::ErrorSpec::None),
            ]
        })
        .collect();
    let _ = eval.evaluate_batch(&warm);
    let results: Vec<_> = variants.iter().map(|v| eval.evaluate_prob(v)).collect();
    if let Some(Err(err)) = results.first() {
        if results.iter().all(|r| r.is_err()) {
            return Err(err.clone());
        }
    }
    let total = net.messages().len();
    let mut points = Vec::with_capacity(ratios.len());
    for (&ratio, result) in ratios.iter().zip(results) {
        let point = match result {
            Ok(report) => ProbLossPoint {
                jitter_ratio: ratio,
                expected_missed: report.expected_missed(),
                certain_missed: report.certain_missed(),
                possible_missed: report.possible_missed(),
                total: report.messages.len(),
                failed: false,
            },
            Err(err) => {
                carta_obs::event!(eval.obs(), "sweep.point.failed", ratio = ratio, error = err);
                ProbLossPoint {
                    jitter_ratio: ratio,
                    expected_missed: total as f64,
                    certain_missed: total,
                    possible_missed: total,
                    total,
                    failed: true,
                }
            }
        };
        carta_obs::event!(
            eval.obs(),
            "sweep.point",
            ratio = ratio,
            expected = point.expected_missed,
            total = point.total
        );
        points.push(point);
    }
    crate::sweeps::record_sweep_points(eval, ratios.len());
    Ok(ProbLossCurve {
        scenario: scenario.name.clone(),
        points,
    })
}

/// The jitter grid of the paper's Figures 4 and 5: 0 % to 60 % in 5 %
/// steps.
pub fn paper_jitter_grid() -> Vec<f64> {
    (0..=12).map(|i| i as f64 * 0.05).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use carta_can::controller::ControllerType;
    use carta_can::frame::Dlc;
    use carta_can::message::{CanId, CanMessage};
    use carta_can::network::Node;
    use carta_core::time::Time;

    /// A moderately loaded 8-message bus where high jitter causes loss.
    fn loaded_net() -> CanNetwork {
        let mut net = CanNetwork::new(125_000);
        let a = net.add_node(Node::new("A", ControllerType::FullCan));
        let periods = [5u64, 5, 10, 10, 20, 20, 50, 50];
        for (k, period) in periods.into_iter().enumerate() {
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
    fn grid_matches_paper_axis() {
        let grid = paper_jitter_grid();
        assert_eq!(grid.len(), 13);
        assert_eq!(grid[0], 0.0);
        assert!((grid[12] - 0.60).abs() < 1e-12);
        assert!((grid[5] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn loss_curve_monotone_and_worst_dominates_best() {
        use crate::sweeps::Sweeps;
        let net = loaded_net();
        let grid = paper_jitter_grid();
        let eval = Evaluator::default();
        let best = eval
            .loss_vs_jitter(&net, &Scenario::best_case(), &grid)
            .expect("valid");
        let worst = eval
            .loss_vs_jitter(&net, &Scenario::worst_case(), &grid)
            .expect("valid");
        for w in best.points.windows(2) {
            assert!(
                w[1].missed >= w[0].missed,
                "best-case curve must be monotone"
            );
        }
        for w in worst.points.windows(2) {
            assert!(
                w[1].missed >= w[0].missed,
                "worst-case curve must be monotone"
            );
        }
        for (b, w) in best.points.iter().zip(&worst.points) {
            assert!(w.missed >= b.missed, "worst case dominates at every ratio");
        }
        // No loss at zero jitter in the best case (sanity of the net).
        assert_eq!(best.points[0].missed, 0);
    }

    #[test]
    fn prob_curve_sits_inside_the_deterministic_envelope() {
        use crate::sweeps::Sweeps;
        let net = loaded_net();
        let grid = paper_jitter_grid();
        let eval = Evaluator::default();
        let det = eval
            .loss_vs_jitter(&net, &Scenario::worst_case(), &grid)
            .expect("valid");
        let prob = eval
            .prob_loss_vs_jitter(&net, &Scenario::worst_case(), &grid)
            .expect("valid");
        assert_eq!(prob.points.len(), grid.len());
        for (d, p) in det.points.iter().zip(&prob.points) {
            assert_eq!(p.total, d.total);
            assert!(!p.failed);
            assert!(p.certain_missed <= p.possible_missed);
            assert!(
                p.possible_missed <= d.missed,
                "a deterministically schedulable message must carry zero miss probability \
                 (ratio {}: {} possible vs {} deterministic)",
                p.jitter_ratio,
                p.possible_missed,
                d.missed
            );
            assert!(p.expected_missed >= 0.0);
            assert!(
                p.expected_missed <= d.missed as f64 + 1e-9,
                "expected losses cannot exceed the deterministic count"
            );
            assert!(p.expected_missed >= p.certain_missed as f64 - 1e-9);
        }
        // The risk-free prefix can only extend past the deterministic
        // zero-loss prefix, never shrink it.
        if let Some(z) = prob.zero_risk_up_to() {
            assert!(z >= det.zero_loss_up_to().unwrap_or(0.0) - 1e-9);
        }
        // And the probabilistic sweep hits the memo cache on repeat.
        let again = eval
            .prob_loss_vs_jitter(&net, &Scenario::worst_case(), &grid)
            .expect("valid");
        assert_eq!(again, prob, "prob sweeps are deterministic and cached");
    }

    #[test]
    fn failed_points_are_classified_not_dropped() {
        use crate::sweeps::Sweeps;
        use carta_engine::prelude::FaultPlan;
        let net = loaded_net();
        let grid = [0.0, 0.1, 0.2, 0.3];
        let clean = Evaluator::builder()
            .jobs(1)
            .build()
            .loss_vs_jitter(&net, &Scenario::worst_case(), &grid)
            .expect("valid");
        let faulty = Evaluator::builder()
            .jobs(1)
            .faults(FaultPlan {
                panic_at: Some(2),
                ..FaultPlan::default()
            })
            .build();
        let curve = faulty
            .loss_vs_jitter(&net, &Scenario::worst_case(), &grid)
            .expect("isolated failure must not abort the sweep");
        assert_eq!(curve.points.len(), grid.len(), "grid stays aligned");
        assert!(curve.points[2].failed);
        assert_eq!(curve.points[2].missed, curve.points[2].total);
        assert_eq!(curve.points[2].fraction(), 1.0);
        for i in [0, 1, 3] {
            assert_eq!(curve.points[i], clean.points[i], "point {i} untouched");
        }
        // A grid where *every* point fails reports the error instead.
        let broken = Evaluator::builder()
            .jobs(1)
            .faults(FaultPlan {
                invalid_at: Some(0),
                ..FaultPlan::default()
            })
            .build();
        assert!(broken
            .loss_vs_jitter(&net, &Scenario::worst_case(), &[0.0])
            .is_err());
    }

    #[test]
    fn zero_loss_prefix_detection() {
        let curve = LossCurve {
            scenario: "x".into(),
            points: vec![
                LossPoint {
                    jitter_ratio: 0.0,
                    missed: 0,
                    total: 10,
                    failed: false,
                },
                LossPoint {
                    jitter_ratio: 0.1,
                    missed: 0,
                    total: 10,
                    failed: false,
                },
                LossPoint {
                    jitter_ratio: 0.2,
                    missed: 2,
                    total: 10,
                    failed: false,
                },
                LossPoint {
                    jitter_ratio: 0.3,
                    missed: 0,
                    total: 10,
                    failed: false,
                }, // after a loss: ignored
            ],
        };
        assert_eq!(curve.zero_loss_up_to(), Some(0.1));
        assert_eq!(curve.fraction_at(0.2), Some(0.2));
        assert_eq!(curve.fraction_at(0.15), None);
        let empty = LossCurve {
            scenario: "e".into(),
            points: vec![],
        };
        assert_eq!(empty.zero_loss_up_to(), None);
    }

    #[test]
    fn loss_point_fraction() {
        let p = LossPoint {
            jitter_ratio: 0.1,
            missed: 3,
            total: 12,
            failed: false,
        };
        assert!((p.fraction() - 0.25).abs() < 1e-12);
        let z = LossPoint {
            jitter_ratio: 0.1,
            missed: 0,
            total: 0,
            failed: false,
        };
        assert_eq!(z.fraction(), 0.0);
    }
}
