//! Standard event models.
//!
//! SymTA/S-style compositional analysis abstracts every activation
//! stream (task activations, CAN message queuings) into a **standard
//! event model** described by three parameters
//! (Richter's *period / jitter / minimum-distance* model, refs. \[11,12\]
//! of the paper):
//!
//! * `period`  `P` — the ideal distance between events (for sporadic
//!   streams: the minimum inter-arrival time),
//! * `jitter`  `J` — the maximum deviation of any event from its ideal
//!   periodic position,
//! * `dmin`    `d` — a lower bound on the distance of *consecutive*
//!   events, which caps transient burst rates when `J ≥ P`.
//!
//! From the three parameters the model derives the arrival curves used
//! by every analysis in this workspace:
//!
//! * `η⁺(Δt)` ([`EventModel::eta_plus`]) — the maximum number of events
//!   in any half-open time window of length `Δt`,
//! * `η⁻(Δt)` ([`EventModel::eta_minus`]) — the minimum number,
//! * `δ⁻(n)`  ([`EventModel::delta_min`]) — the minimum distance between
//!   the first and the last of any `n` consecutive events,
//! * `δ⁺(n)`  ([`EventModel::delta_max`]) — the maximum such distance
//!   (unbounded for sporadic streams).
//!
//! The two views are kept consistent by construction:
//! `η⁺(Δt) = max { n | δ⁻(n) < Δt }`.

use crate::time::Time;
use std::fmt;

/// Whether a stream recurs strictly or only has a minimum inter-arrival
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ActivationKind {
    /// Events keep arriving forever with bounded deviation from a
    /// periodic reference; `δ⁺` is defined.
    #[default]
    Periodic,
    /// `period` is only a minimum inter-arrival time; arbitrarily long
    /// gaps are possible, so `δ⁺` is unbounded.
    Sporadic,
}

/// A standard event model `(P, J, d)`.
///
/// # Examples
///
/// ```
/// use carta_core::{event_model::EventModel, time::Time};
///
/// // A 10 ms message with 2 ms queuing jitter.
/// let em = EventModel::periodic_with_jitter(Time::from_ms(10), Time::from_ms(2));
/// // At most 2 events can fall into one 11 ms window...
/// assert_eq!(em.eta_plus(Time::from_ms(11)), 2);
/// // ...and at least 8 ms separate two consecutive events.
/// assert_eq!(em.delta_min(2), Time::from_ms(8));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventModel {
    kind: ActivationKind,
    period: Time,
    jitter: Time,
    dmin: Time,
}

impl EventModel {
    /// Strictly periodic stream without jitter.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn periodic(period: Time) -> Self {
        Self::new(ActivationKind::Periodic, period, Time::ZERO, Time::ZERO)
    }

    /// Periodic stream whose events may deviate up to `jitter` from
    /// their ideal positions.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn periodic_with_jitter(period: Time, jitter: Time) -> Self {
        Self::new(ActivationKind::Periodic, period, jitter, Time::ZERO)
    }

    /// Sporadic stream with the given minimum inter-arrival time.
    ///
    /// # Panics
    ///
    /// Panics if `min_interarrival` is zero.
    pub fn sporadic(min_interarrival: Time) -> Self {
        Self::new(
            ActivationKind::Sporadic,
            min_interarrival,
            Time::ZERO,
            Time::ZERO,
        )
    }

    /// Full constructor.
    ///
    /// `dmin` is capped at `period`: a minimum distance above the
    /// (long-run) period would contradict the period itself, and the
    /// capped model describes the same event streams.
    ///
    /// A zero `period` is accepted as a *degenerate* model (unbounded
    /// arrivals in any window: `η⁺ = ∞`). It is representable so that
    /// hostile inputs can be diagnosed — every analysis entry point
    /// rejects it during validation instead of panicking here.
    pub fn new(kind: ActivationKind, period: Time, jitter: Time, dmin: Time) -> Self {
        EventModel {
            kind,
            period,
            jitter,
            dmin: dmin.min(period),
        }
    }

    /// A periodic burst: `burst_size` events every `outer_period`, with
    /// at least `intra_distance` between events inside a burst, mapped
    /// onto the `(P, J, d)` parameters as in Richter's thesis:
    /// `P = T/b`, `J = (b−1)·(P − d)`, `d = intra_distance`.
    ///
    /// # Panics
    ///
    /// Panics if `burst_size` is zero or `outer_period` is zero.
    pub fn burst(outer_period: Time, burst_size: u64, intra_distance: Time) -> Self {
        assert!(burst_size > 0, "burst size must be positive");
        assert!(
            !outer_period.is_zero(),
            "event model period must be positive"
        );
        let period = Time::from_ns((outer_period.as_ns()).div_ceil(burst_size));
        let jitter = period.saturating_sub(intra_distance) * (burst_size - 1);
        EventModel {
            kind: ActivationKind::Periodic,
            period,
            jitter,
            dmin: intra_distance,
        }
    }

    /// The activation kind.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }

    /// The (minimum inter-arrival) period `P`.
    pub fn period(&self) -> Time {
        self.period
    }

    /// The jitter `J`.
    pub fn jitter(&self) -> Time {
        self.jitter
    }

    /// The minimum distance `d` between consecutive events
    /// (zero = unconstrained).
    pub fn dmin(&self) -> Time {
        self.dmin
    }

    /// Returns a copy with the jitter replaced.
    pub fn with_jitter(self, jitter: Time) -> Self {
        EventModel { jitter, ..self }
    }

    /// Returns a copy with the minimum distance replaced.
    pub fn with_dmin(self, dmin: Time) -> Self {
        EventModel { dmin, ..self }
    }

    /// Jitter expressed as a fraction of the period (infinite for the
    /// degenerate zero-period model).
    pub fn jitter_ratio(&self) -> f64 {
        if self.period.is_zero() {
            return f64::INFINITY;
        }
        self.jitter.as_ns() as f64 / self.period.as_ns() as f64
    }

    /// `η⁺(Δt)`: the maximum number of events in any half-open window
    /// of length `window`.
    ///
    /// ```
    /// use carta_core::{event_model::EventModel, time::Time};
    /// let em = EventModel::periodic(Time::from_ms(10));
    /// assert_eq!(em.eta_plus(Time::ZERO), 0);
    /// assert_eq!(em.eta_plus(Time::from_ms(10)), 1);
    /// assert_eq!(em.eta_plus(Time::from_ms(10) + Time::from_ns(1)), 2);
    /// ```
    // Inlined into the busy-window fixpoint of `carta-can`, which calls
    // it once per interferer and iteration. As an out-of-line call, the
    // sweep benchmark's throughput moved by about 10 % with unrelated
    // code layout (2-vCPU Xeon VM).
    #[inline]
    pub fn eta_plus(&self, window: Time) -> u64 {
        if window.is_zero() {
            return 0;
        }
        if self.period.is_zero() {
            // Degenerate zero-period model: unbounded arrivals (the
            // dmin cap below still applies when a distance is given).
            return if self.dmin.is_zero() {
                u64::MAX
            } else {
                window.div_ceil(self.dmin)
            };
        }
        let by_period = window.saturating_add(self.jitter).div_ceil(self.period);
        if self.dmin.is_zero() {
            by_period
        } else {
            by_period.min(window.div_ceil(self.dmin))
        }
    }

    /// `η⁻(Δt)`: the minimum number of events in any half-open window
    /// of length `window`. Zero for sporadic streams is never returned
    /// incorrectly — sporadic streams always yield 0.
    pub fn eta_minus(&self, window: Time) -> u64 {
        if self.kind == ActivationKind::Sporadic {
            return 0;
        }
        if self.period.is_zero() {
            return u64::MAX; // degenerate: unbounded arrivals
        }
        window.saturating_sub(self.jitter).div_floor(self.period)
    }

    /// `δ⁻(n)`: the minimum time between the first and last of `n`
    /// consecutive events. Zero for `n ≤ 1`.
    pub fn delta_min(&self, n: u64) -> Time {
        if n <= 1 {
            return Time::ZERO;
        }
        let spread = n - 1;
        let by_period = self
            .period
            .saturating_mul(spread)
            .saturating_sub(self.jitter);
        let by_dmin = self.dmin.saturating_mul(spread);
        by_period.max(by_dmin)
    }

    /// `δ⁺(n)`: the maximum time between the first and last of `n`
    /// consecutive events, or `None` if unbounded (sporadic streams,
    /// or `n ≤ 1` trivially `Some(0)`).
    pub fn delta_max(&self, n: u64) -> Option<Time> {
        if n <= 1 {
            return Some(Time::ZERO);
        }
        match self.kind {
            ActivationKind::Sporadic => None,
            ActivationKind::Periodic => Some(
                self.period
                    .saturating_mul(n - 1)
                    .saturating_add(self.jitter),
            ),
        }
    }

    /// The event model seen *downstream* of a resource that delays
    /// events by a response time varying over `[r_min, r_max]` and emits
    /// consecutive outputs at least `min_output_spacing` apart
    /// (typically the minimum transmission/execution time).
    ///
    /// This is the SymTA/S propagation rule
    /// `J_out = J_in + (R_max − R_min)`.
    ///
    /// # Panics
    ///
    /// Panics if `r_max < r_min`.
    pub fn propagate(&self, r_min: Time, r_max: Time, min_output_spacing: Time) -> Self {
        assert!(r_max >= r_min, "response time bounds are inverted");
        EventModel {
            kind: self.kind,
            period: self.period,
            jitter: self.jitter + (r_max - r_min),
            dmin: min_output_spacing,
        }
    }

    /// `true` if a stream guaranteed by `guarantee` always satisfies the
    /// bound described by `self` (closed-form containment check used for
    /// supply-chain contracts): same period, no more jitter, no denser
    /// bursts.
    pub fn is_satisfied_by(&self, guarantee: &EventModel) -> bool {
        guarantee.period >= self.period
            && guarantee.jitter <= self.jitter
            && guarantee.dmin >= self.dmin
    }

    /// Exact containment check over all event counts reachable within
    /// `horizon`: `η⁺_G(Δt) ≤ η⁺_self(Δt)` for all `Δt` is equivalent to
    /// `δ⁻_G(n) ≥ δ⁻_self(n)` for all `n`, which this method verifies
    /// for every `n` up to the count fitting into `horizon`. Used to
    /// cross-validate [`EventModel::is_satisfied_by`] and for models
    /// with differing periods.
    pub fn is_satisfied_by_pointwise(&self, guarantee: &EventModel, horizon: Time) -> bool {
        let n_max = guarantee.eta_plus(horizon).max(self.eta_plus(horizon)) + 1;
        (2..=n_max).all(|n| guarantee.delta_min(n) >= self.delta_min(n))
    }

    /// Fits a `(P, J, d)` model around an observed activation trace
    /// (sorted event instants). Returns `None` for traces with fewer
    /// than two events. The fit uses the mean inter-arrival as period
    /// and derives the tightest jitter/dmin that still bound the trace.
    pub fn from_trace(trace: &[Time]) -> Option<Self> {
        if trace.len() < 2 {
            return None;
        }
        debug_assert!(
            trace.windows(2).all(|w| w[0] <= w[1]),
            "trace must be sorted"
        );
        let n = (trace.len() - 1) as u64;
        let span = trace[trace.len() - 1] - trace[0];
        let period = Time::from_ns((span.as_ns() / n).max(1));
        let t0 = trace[0];
        let mut max_dev_late = Time::ZERO;
        let mut max_dev_early = Time::ZERO;
        let mut dmin = Time::MAX;
        for (i, &t) in trace.iter().enumerate() {
            let ideal = t0 + period * (i as u64);
            if t >= ideal {
                max_dev_late = max_dev_late.max(t - ideal);
            } else {
                max_dev_early = max_dev_early.max(ideal - t);
            }
            if i > 0 {
                dmin = dmin.min(t - trace[i - 1]);
            }
        }
        Some(EventModel {
            kind: ActivationKind::Periodic,
            period,
            jitter: max_dev_late + max_dev_early,
            dmin,
        })
    }
}

/// Where a measured stream violates an event-model bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamViolation {
    /// Index of the first event of the violating window.
    pub at: usize,
    /// Number of events in the violating window.
    pub count: u64,
    /// Observed span of those events.
    pub span: Time,
    /// Minimum span the model requires for that many events.
    pub required: Time,
}

impl fmt::Display for StreamViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events within {} starting at index {} (model requires at least {})",
            self.count, self.span, self.at, self.required
        )
    }
}

impl EventModel {
    /// Checks that a measured, sorted event trace stays within this
    /// model's arrival bound: every window of `n` consecutive events
    /// must span at least `δ⁻(n)`. This is the conformance test a party
    /// runs against a datasheet it received — "what is assumed and
    /// required, must later be guaranteed" (paper, Sec. 5.1).
    ///
    /// Windows up to `max_window` events are checked (2 ≲ n ≲ trace
    /// length); pass `usize::MAX` for a full check.
    ///
    /// # Errors
    ///
    /// Returns the first [`StreamViolation`] found.
    pub fn bounds_stream(
        &self,
        instants: &[Time],
        max_window: usize,
    ) -> Result<(), StreamViolation> {
        debug_assert!(
            instants.windows(2).all(|w| w[0] <= w[1]),
            "trace must be sorted"
        );
        let n = instants.len();
        for k in 2..=max_window.min(n) {
            for (at, w) in instants.windows(k).enumerate() {
                let span = w[k - 1] - w[0];
                let required = self.delta_min(k as u64);
                if span < required {
                    return Err(StreamViolation {
                        at,
                        count: k as u64,
                        span,
                        required,
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for EventModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            ActivationKind::Periodic => "P",
            ActivationKind::Sporadic => "S",
        };
        write!(
            f,
            "{kind}(P={}, J={}, d={})",
            self.period, self.jitter, self.dmin
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(v: u64) -> Time {
        Time::from_ms(v)
    }

    #[test]
    fn periodic_eta_plus_matches_textbook() {
        let em = EventModel::periodic(ms(10));
        assert_eq!(em.eta_plus(Time::ZERO), 0);
        assert_eq!(em.eta_plus(Time::from_ns(1)), 1);
        assert_eq!(em.eta_plus(ms(10)), 1);
        assert_eq!(em.eta_plus(ms(10) + Time::from_ns(1)), 2);
        assert_eq!(em.eta_plus(ms(95)), 10);
    }

    #[test]
    fn jitter_admits_an_extra_event() {
        let em = EventModel::periodic_with_jitter(ms(10), ms(3));
        // Window of 8 ms can catch two events (one 3 ms late, next 3 ms early... bounded by J total).
        assert_eq!(em.eta_plus(ms(8)), 2);
        assert_eq!(em.eta_plus(ms(7)), 1);
        assert_eq!(em.delta_min(2), ms(7));
    }

    #[test]
    fn dmin_caps_burst_rate() {
        // J = 3 periods: up to 4 events can pile up, but dmin spaces them.
        let em = EventModel::new(ActivationKind::Periodic, ms(10), ms(30), ms(1));
        assert_eq!(em.eta_plus(Time::from_ns(1)), 1);
        assert_eq!(em.eta_plus(ms(1)), 1);
        assert_eq!(em.eta_plus(ms(1) + Time::from_ns(1)), 2);
        assert_eq!(em.eta_plus(ms(3) + Time::from_ns(1)), 4);
        // Beyond the burst, the periodic bound takes over.
        assert_eq!(em.eta_plus(ms(10)), 4);
    }

    #[test]
    fn eta_minus_for_periodic_and_sporadic() {
        let p = EventModel::periodic_with_jitter(ms(10), ms(2));
        assert_eq!(p.eta_minus(ms(10)), 0); // jitter may push the event out
        assert_eq!(p.eta_minus(ms(12)), 1);
        assert_eq!(p.eta_minus(ms(32)), 3);
        let s = EventModel::sporadic(ms(10));
        assert_eq!(s.eta_minus(ms(1000)), 0);
    }

    #[test]
    fn delta_max_unbounded_for_sporadic() {
        let s = EventModel::sporadic(ms(10));
        assert_eq!(s.delta_max(1), Some(Time::ZERO));
        assert_eq!(s.delta_max(2), None);
        let p = EventModel::periodic_with_jitter(ms(10), ms(2));
        assert_eq!(p.delta_max(3), Some(ms(22)));
    }

    #[test]
    fn propagation_grows_jitter() {
        let em = EventModel::periodic_with_jitter(ms(10), ms(1));
        let out = em.propagate(ms(2), ms(5), Time::from_us(100));
        assert_eq!(out.period(), ms(10));
        assert_eq!(out.jitter(), ms(4));
        assert_eq!(out.dmin(), Time::from_us(100));
    }

    #[test]
    fn burst_mapping() {
        // 5 events every 100 ms, 2 ms apart inside the burst.
        let em = EventModel::burst(ms(100), 5, ms(2));
        assert_eq!(em.period(), ms(20));
        assert_eq!(em.jitter(), ms(72)); // (5-1)*(20-2)
        assert_eq!(em.dmin(), ms(2));
        // All 5 burst events fit in a window slightly above 8 ms.
        assert_eq!(em.eta_plus(ms(8) + Time::from_ns(1)), 5);
    }

    #[test]
    fn contract_containment_closed_form() {
        let required = EventModel::periodic_with_jitter(ms(10), ms(3));
        let good = EventModel::periodic_with_jitter(ms(10), ms(2));
        let bad = EventModel::periodic_with_jitter(ms(10), ms(4));
        assert!(required.is_satisfied_by(&good));
        assert!(!required.is_satisfied_by(&bad));
        assert!(required.is_satisfied_by_pointwise(&good, ms(1000)));
        assert!(!required.is_satisfied_by_pointwise(&bad, ms(1000)));
    }

    #[test]
    fn trace_fitting_bounds_the_trace() {
        let trace: Vec<Time> = [0u64, 10, 19, 31, 40].iter().map(|&v| ms(v)).collect();
        let em = EventModel::from_trace(&trace).expect("trace long enough");
        assert_eq!(em.period(), ms(10));
        // Every pair spacing respects the fitted bounds.
        for w in trace.windows(2) {
            assert!(w[1] - w[0] >= em.delta_min(2));
        }
        assert!(EventModel::from_trace(&[ms(1)]).is_none());
        assert!(EventModel::from_trace(&[]).is_none());
    }

    #[test]
    fn stream_conformance() {
        let bound = EventModel::periodic_with_jitter(ms(10), ms(2));
        // Conforming trace: 10 ms nominal spacing, ±1 ms wiggle.
        let good: Vec<Time> = [0u64, 9, 21, 30, 41].iter().map(|&v| ms(v)).collect();
        assert!(bound.bounds_stream(&good, usize::MAX).is_ok());
        // Two events 5 ms apart violate δ⁻(2) = 8 ms.
        let bad: Vec<Time> = [0u64, 5, 20].iter().map(|&v| ms(v)).collect();
        let v = bound
            .bounds_stream(&bad, usize::MAX)
            .expect_err("violation");
        assert_eq!(v.at, 0);
        assert_eq!(v.count, 2);
        assert_eq!(v.span, ms(5));
        assert_eq!(v.required, ms(8));
        assert!(v.to_string().contains("2 events"));
        // A burst hidden from pairwise checks is caught by wider windows:
        // spacing 8,8 is pairwise fine but 3 events in 16 ms < δ⁻(3)=18.
        let sneaky: Vec<Time> = [0u64, 8, 16].iter().map(|&v| ms(v)).collect();
        assert!(bound.bounds_stream(&sneaky, 2).is_ok());
        let v = bound.bounds_stream(&sneaky, 3).expect_err("violation");
        assert_eq!(v.count, 3);
        // Empty and single-event traces trivially conform.
        assert!(bound.bounds_stream(&[], usize::MAX).is_ok());
        assert!(bound.bounds_stream(&[ms(5)], usize::MAX).is_ok());
    }

    #[test]
    fn display_is_informative() {
        let em = EventModel::periodic_with_jitter(ms(10), ms(2));
        assert_eq!(em.to_string(), "P(P=10ms, J=2ms, d=0)");
    }

    proptest! {
        #[test]
        fn eta_delta_consistency(
            period in 1u64..10_000,
            jitter in 0u64..50_000,
            dmin in 0u64..1_000,
            n in 2u64..50,
        ) {
            let em = EventModel::new(
                ActivationKind::Periodic,
                Time::from_ns(period),
                Time::from_ns(jitter),
                Time::from_ns(dmin),
            );
            let d = em.delta_min(n);
            // n events never fit in a window of length delta_min(n)...
            prop_assert!(em.eta_plus(d) < n || d.is_zero());
            // ...but do fit in a window 1 ns longer.
            prop_assert!(em.eta_plus(d + Time::from_ns(1)) >= n);
        }

        #[test]
        fn eta_plus_monotone(
            period in 1u64..10_000,
            jitter in 0u64..50_000,
            dmin in 0u64..1_000,
            a in 0u64..100_000,
            b in 0u64..100_000,
        ) {
            let em = EventModel::new(
                ActivationKind::Periodic,
                Time::from_ns(period),
                Time::from_ns(jitter),
                Time::from_ns(dmin),
            );
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(em.eta_plus(Time::from_ns(lo)) <= em.eta_plus(Time::from_ns(hi)));
        }

        #[test]
        fn eta_minus_never_exceeds_eta_plus(
            period in 1u64..10_000,
            jitter in 0u64..50_000,
            w in 0u64..200_000,
        ) {
            let em = EventModel::periodic_with_jitter(
                Time::from_ns(period),
                Time::from_ns(jitter),
            );
            let w = Time::from_ns(w);
            prop_assert!(em.eta_minus(w) <= em.eta_plus(w));
        }

        #[test]
        fn delta_min_superadditive_spacing(
            period in 1u64..10_000,
            jitter in 0u64..50_000,
            dmin in 0u64..1_000,
            n in 2u64..40,
        ) {
            let em = EventModel::new(
                ActivationKind::Periodic,
                Time::from_ns(period),
                Time::from_ns(jitter),
                Time::from_ns(dmin),
            );
            // delta_min is non-decreasing in n.
            prop_assert!(em.delta_min(n) <= em.delta_min(n + 1));
            // delta_max bounds delta_min.
            if let Some(dmax) = em.delta_max(n) {
                prop_assert!(em.delta_min(n) <= dmax);
            }
        }

        #[test]
        fn propagation_preserves_period_and_kind(
            period in 1u64..10_000,
            jitter in 0u64..10_000,
            rmin in 0u64..5_000,
            growth in 0u64..5_000,
        ) {
            let em = EventModel::periodic_with_jitter(
                Time::from_ns(period),
                Time::from_ns(jitter),
            );
            let out = em.propagate(
                Time::from_ns(rmin),
                Time::from_ns(rmin + growth),
                Time::ZERO,
            );
            prop_assert_eq!(out.period(), em.period());
            prop_assert_eq!(out.jitter(), em.jitter() + Time::from_ns(growth));
            // Larger jitter can only admit more events in any window.
            for w in [0u64, period / 2, period, 3 * period] {
                prop_assert!(out.eta_plus(Time::from_ns(w)) >= em.eta_plus(Time::from_ns(w)));
            }
        }
    }
}
