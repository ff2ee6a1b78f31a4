//! Sensitivity analysis — the paper's Section 4.1 / Figure 4.
//!
//! Two complementary views, both following Racu, Jersak & Ernst
//! (ref. \[9\] of the paper):
//!
//! * **curves** — worst-case response time of selected messages as a
//!   function of the assumed jitter ratio, classified into the paper's
//!   vocabulary: *robust*, *medium sensitivity*, *sensitive*, *very
//!   sensitive*;
//! * **slack search** — the largest jitter ratio a message (or the
//!   whole bus) tolerates before deadlines break, found by binary
//!   search.

use crate::scenario::Scenario;
use carta_can::network::CanNetwork;
use carta_core::analysis::AnalysisError;
use carta_core::time::Time;
use carta_engine::prelude::{BaseSystem, Evaluator, SystemVariant};
use std::fmt;

/// Response-vs-jitter series for one message.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivitySeries {
    /// Message name.
    pub message: String,
    /// `(jitter ratio, worst-case response)`; `None` = unbounded.
    pub points: Vec<(f64, Option<Time>)>,
}

/// The paper's Figure 4 classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SensitivityClass {
    /// Response time essentially flat over the sweep (growth < 15 %).
    Robust,
    /// Moderate growth (< 1.5×).
    Medium,
    /// Strong growth (< 2×).
    Sensitive,
    /// Explosive growth (≥ 2×) or loss of boundedness.
    VerySensitive,
}

impl fmt::Display for SensitivityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SensitivityClass::Robust => "robust",
            SensitivityClass::Medium => "medium sensitivity",
            SensitivityClass::Sensitive => "sensitive",
            SensitivityClass::VerySensitive => "very sensitive",
        };
        f.write_str(s)
    }
}

impl SensitivitySeries {
    /// Classifies the series by the growth of its response time across
    /// the sweep.
    pub fn classify(&self) -> SensitivityClass {
        let bounded: Option<Vec<Time>> = self.points.iter().map(|(_, r)| *r).collect();
        let Some(bounded) = bounded else {
            // Losing boundedness anywhere in the sweep is the worst class.
            return SensitivityClass::VerySensitive;
        };
        let first = match bounded.first() {
            Some(f) if !f.is_zero() => f.as_ns() as f64,
            _ => return SensitivityClass::Robust,
        };
        let last = bounded[bounded.len() - 1].as_ns() as f64;
        let growth = last / first;
        if growth < 1.15 {
            SensitivityClass::Robust
        } else if growth < 1.5 {
            SensitivityClass::Medium
        } else if growth < 2.0 {
            SensitivityClass::Sensitive
        } else {
            SensitivityClass::VerySensitive
        }
    }
}

/// The message indices selected by an `only` filter, in network order.
fn select(net: &CanNetwork, only: Option<&[&str]>) -> Vec<usize> {
    net.messages()
        .iter()
        .enumerate()
        .filter(|(_, m)| only.is_none_or(|names| names.contains(&m.name.as_str())))
        .map(|(i, _)| i)
        .collect()
}

fn empty_series(net: &CanNetwork, selected: &[usize], capacity: usize) -> Vec<SensitivitySeries> {
    selected
        .iter()
        .map(|&i| SensitivitySeries {
            message: net.messages()[i].name.clone(),
            points: Vec::with_capacity(capacity),
        })
        .collect()
}

/// Shared body of [`crate::sweeps::Sweeps::response_vs_jitter`]: the
/// whole ratio grid is submitted as one batch (parallel under the
/// evaluator's [`carta_engine::prelude::Parallelism`]) and repeated
/// grid points hit its cache.
pub(crate) fn response_vs_jitter_impl(
    eval: &Evaluator,
    net: &CanNetwork,
    scenario: &Scenario,
    ratios: &[f64],
    only: Option<&[&str]>,
) -> Result<Vec<SensitivitySeries>, AnalysisError> {
    let _span = carta_obs::span!(eval.obs(), "sweep.sensitivity", points = ratios.len());
    let selected = select(net, only);
    let mut series = empty_series(net, &selected, ratios.len());
    let base = BaseSystem::new(net.clone());
    let variants: Vec<SystemVariant> = ratios
        .iter()
        .map(|&ratio| SystemVariant::new(base.clone(), scenario.clone()).with_jitter_ratio(ratio))
        .collect();
    let results = eval.evaluate_batch(&variants);
    if let Some(Err(err)) = results.first() {
        if results.iter().all(|r| r.is_err()) {
            return Err(err.clone());
        }
    }
    for (&ratio, result) in ratios.iter().zip(results) {
        match result {
            Ok(report) => {
                carta_obs::event!(
                    eval.obs(),
                    "sweep.point",
                    ratio = ratio,
                    missed = report.missed_count()
                );
                for (k, &i) in selected.iter().enumerate() {
                    series[k]
                        .points
                        .push((ratio, report.messages[i].outcome.wcrt()));
                }
            }
            Err(err) => {
                // Classify, don't drop: a failed point counts as
                // unbounded for every message, pushing the affected
                // series into `VerySensitive`.
                carta_obs::event!(eval.obs(), "sweep.point.failed", ratio = ratio, error = err);
                for s in series.iter_mut() {
                    s.points.push((ratio, None));
                }
            }
        }
    }
    crate::sweeps::record_sweep_points(eval, ratios.len());
    Ok(series)
}

/// Error-sensitivity: worst-case response of selected messages as the
/// sporadic error interval shrinks (more errors). The paper notes
/// "similar results have been obtained for error-sensitivity"
/// alongside the jitter curves of Figure 4.
///
/// `intervals` should be ordered calm → stormy (largest interval
/// first) so [`SensitivitySeries::classify`] reads growth correctly;
/// the series' x-values are the error intervals in milliseconds.
///
/// Shared body of [`crate::sweeps::Sweeps::response_vs_error_rate`];
/// the interval grid is one batch submission.
pub(crate) fn response_vs_error_rate_impl(
    eval: &Evaluator,
    net: &CanNetwork,
    stuffing: carta_can::frame::StuffingMode,
    intervals: &[Time],
    only: Option<&[&str]>,
) -> Result<Vec<SensitivitySeries>, AnalysisError> {
    let _span = carta_obs::span!(eval.obs(), "sweep.error_rate", points = intervals.len());
    let selected = select(net, only);
    let mut series = empty_series(net, &selected, intervals.len());
    let base = BaseSystem::new(net.clone());
    let variants: Vec<SystemVariant> = intervals
        .iter()
        .map(|&interval| {
            let scenario = Scenario {
                name: format!("errors every {interval}"),
                stuffing,
                errors: crate::scenario::ErrorSpec::Sporadic { interval },
                deadline: crate::scenario::DeadlineOverride::MinReArrival,
            };
            SystemVariant::new(base.clone(), scenario)
        })
        .collect();
    let results = eval.evaluate_batch(&variants);
    if let Some(Err(err)) = results.first() {
        if results.iter().all(|r| r.is_err()) {
            return Err(err.clone());
        }
    }
    for (&interval, result) in intervals.iter().zip(results) {
        match result {
            Ok(report) => {
                carta_obs::event!(
                    eval.obs(),
                    "sweep.point",
                    interval_ms = interval.as_ms_f64(),
                    missed = report.missed_count()
                );
                for (k, &i) in selected.iter().enumerate() {
                    series[k]
                        .points
                        .push((interval.as_ms_f64(), report.messages[i].outcome.wcrt()));
                }
            }
            Err(err) => {
                carta_obs::event!(
                    eval.obs(),
                    "sweep.point.failed",
                    interval_ms = interval.as_ms_f64(),
                    error = err
                );
                for s in series.iter_mut() {
                    s.points.push((interval.as_ms_f64(), None));
                }
            }
        }
    }
    crate::sweeps::record_sweep_points(eval, intervals.len());
    Ok(series)
}

/// Binary-searches the largest jitter ratio in `[0, max_ratio]` at
/// which the bus is still fully schedulable under `scenario` — the
/// slack of the whole configuration in the Racu et al. sense. Returns
/// `None` if even zero jitter fails.
///
/// Shared body of [`crate::sweeps::Sweeps::max_schedulable_jitter`].
/// The probes are inherently sequential (each depends on the previous
/// verdict) but still benefit from the evaluator's cache when the
/// search revisits a ratio or runs after a sweep over the same grid.
pub(crate) fn max_schedulable_jitter_impl(
    eval: &Evaluator,
    net: &CanNetwork,
    scenario: &Scenario,
    max_ratio: f64,
    tolerance: f64,
) -> Result<Option<f64>, AnalysisError> {
    let _span = carta_obs::span!(eval.obs(), "sweep.jitter_slack", max_ratio = max_ratio);
    let base = BaseSystem::new(net.clone());
    let ok = |ratio: f64| -> Result<bool, AnalysisError> {
        let v = SystemVariant::new(base.clone(), scenario.clone()).with_jitter_ratio(ratio);
        Ok(eval.evaluate(&v)?.schedulable())
    };
    if !ok(0.0)? {
        return Ok(None);
    }
    if ok(max_ratio)? {
        return Ok(Some(max_ratio));
    }
    let (mut lo, mut hi) = (0.0f64, max_ratio);
    while hi - lo > tolerance.max(1e-6) {
        let mid = (lo + hi) / 2.0;
        if ok(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweeps::Sweeps;
    use carta_can::controller::ControllerType;
    use carta_can::frame::Dlc;
    use carta_can::message::{CanId, CanMessage};
    use carta_can::network::Node;

    fn net() -> CanNetwork {
        let mut net = CanNetwork::new(125_000);
        let a = net.add_node(Node::new("A", ControllerType::FullCan));
        for (k, period) in [5u64, 5, 10, 10, 20, 20, 50, 50].into_iter().enumerate() {
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
    fn series_are_monotone_and_priorities_differ() {
        let ratios = [0.0, 0.2, 0.4, 0.6];
        let series = Evaluator::default()
            .response_vs_jitter(&net(), &Scenario::best_case(), &ratios, None)
            .expect("valid");
        assert_eq!(series.len(), 8);
        for s in &series {
            for w in s.points.windows(2) {
                match (w[0].1, w[1].1) {
                    (Some(a), Some(b)) => {
                        assert!(b >= a, "{}: response must not shrink", s.message)
                    }
                    (Some(_), None) => {} // became unbounded: fine
                    (None, Some(_)) => panic!("{}: regained bound at higher jitter", s.message),
                    (None, None) => {}
                }
            }
        }
        // The top-priority message is robust; the bottom one is not.
        let top = series.iter().find(|s| s.message == "m0").expect("present");
        let bottom = series.iter().find(|s| s.message == "m7").expect("present");
        assert!(top.classify() <= bottom.classify());
        assert_eq!(top.classify(), SensitivityClass::Robust);
    }

    #[test]
    fn subset_selection() {
        let series = Evaluator::default()
            .response_vs_jitter(&net(), &Scenario::best_case(), &[0.0], Some(&["m2", "m5"]))
            .expect("valid");
        let names: Vec<&str> = series.iter().map(|s| s.message.as_str()).collect();
        assert_eq!(names, vec!["m2", "m5"]);
    }

    #[test]
    fn failed_point_classifies_as_very_sensitive() {
        use carta_engine::prelude::FaultPlan;
        let faulty = Evaluator::builder()
            .jobs(1)
            .faults(FaultPlan {
                panic_at: Some(1),
                ..FaultPlan::default()
            })
            .build();
        let series = faulty
            .response_vs_jitter(&net(), &Scenario::best_case(), &[0.0, 0.2, 0.4], None)
            .expect("isolated failure must not abort the sweep");
        for s in &series {
            assert_eq!(s.points.len(), 3, "{}: grid stays aligned", s.message);
            assert!(s.points[1].1.is_none(), "{}: failed point", s.message);
            assert_eq!(s.classify(), SensitivityClass::VerySensitive);
        }
    }

    #[test]
    fn classification_thresholds() {
        let mk = |first: u64, last: u64| SensitivitySeries {
            message: "x".into(),
            points: vec![
                (0.0, Some(Time::from_us(first))),
                (0.6, Some(Time::from_us(last))),
            ],
        };
        assert_eq!(mk(100, 110).classify(), SensitivityClass::Robust);
        assert_eq!(mk(100, 140).classify(), SensitivityClass::Medium);
        assert_eq!(mk(100, 180).classify(), SensitivityClass::Sensitive);
        assert_eq!(mk(100, 300).classify(), SensitivityClass::VerySensitive);
        let unbounded = SensitivitySeries {
            message: "x".into(),
            points: vec![(0.0, Some(Time::from_us(100))), (0.6, None)],
        };
        assert_eq!(unbounded.classify(), SensitivityClass::VerySensitive);
    }

    #[test]
    fn error_sensitivity_grows_with_error_rate() {
        use carta_can::frame::StuffingMode;
        // Calm -> stormy: 100 ms, 10 ms, 2 ms error intervals.
        let intervals = [Time::from_ms(100), Time::from_ms(10), Time::from_ms(2)];
        let eval = Evaluator::default();
        let series = eval
            .response_vs_error_rate(&net(), StuffingMode::WorstCase, &intervals, None)
            .expect("valid");
        assert_eq!(series.len(), 8);
        for s in &series {
            let mut last = Time::ZERO;
            for (_, r) in &s.points {
                match r {
                    Some(t) => {
                        assert!(
                            *t >= last,
                            "{}: response shrank with more errors",
                            s.message
                        );
                        last = *t;
                    }
                    None => break,
                }
            }
        }
        // A subset works too.
        let sub = eval
            .response_vs_error_rate(&net(), StuffingMode::WorstCase, &intervals, Some(&["m0"]))
            .expect("valid");
        assert_eq!(sub.len(), 1);
        assert_eq!(sub[0].points.len(), 3);
    }

    #[test]
    fn slack_search_brackets_the_break_point() {
        let n = net();
        let slack = Evaluator::default()
            .max_schedulable_jitter(&n, &Scenario::worst_case(), 1.0, 0.01)
            .expect("valid");
        match slack {
            Some(s) => {
                // Schedulable at the found ratio...
                let at = Scenario::worst_case()
                    .analyze(&crate::jitter::with_jitter_ratio(&n, s))
                    .expect("valid");
                assert!(at.schedulable());
                // ...and broken a bit above it (unless at the cap).
                if s < 0.99 {
                    let above = Scenario::worst_case()
                        .analyze(&crate::jitter::with_jitter_ratio(&n, s + 0.02))
                        .expect("valid");
                    assert!(!above.schedulable());
                }
            }
            None => {
                // Then it must already fail at zero.
                let at0 = Scenario::worst_case().analyze(&n).expect("valid");
                assert!(!at0.schedulable());
            }
        }
    }
}
