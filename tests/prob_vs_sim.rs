//! Monte-Carlo validation of the probabilistic RTA (DESIGN.md § 13).
//!
//! For every fuzzed scenario the convolution-based analysis claims a
//! response-time distribution per message. The simulator provides the
//! ground truth sample: its empirical CDF must
//!
//! 1. stay inside the deterministic envelope — every observed response
//!    in `[BCRT, WCRT]`, so the empirical CDF sits between the step
//!    functions at the two bounds, widened by the
//!    Dvoretzky–Kiefer–Wolfowitz (DKW) confidence radius
//!    `ε = sqrt(ln(2/δ) / 2n)`; and
//! 2. dominate the analytic CDF at every lattice point:
//!    `F_analysis(t) ≤ F_emp(t) + ε` on these seeds.
//!
//! What holds by construction is the envelope: the analysis clamps
//! its support into `[BCRT, WCRT]`. Its miss probability is *not* an
//! upper bound. The hit model places k hits at `R_0 + k·per_hit`, but a
//! hit also lengthens the busy window and admits more interference
//! (DESIGN.md § 13), and the simulator rarely reaches the critical
//! instant that would show it, so the second check is evidence on
//! these runs, not a guarantee.
//!
//! Seeds are fixed, so the checks are reproducible; the DKW radius
//! makes them principled rather than tuned.

use carta::prelude::*;
use carta_testkit::prelude::*;

/// DKW confidence level: the band covers the true CDF with
/// probability `1 - DELTA` per message.
const DELTA: f64 = 1e-6;

/// Simulation horizon per scenario: long enough for a few hundred
/// instances of a 10 ms message, short enough for a 70-scenario sweep.
const HORIZON: Time = Time::from_ms(1_000);

/// The DKW radius for an `n`-sample empirical CDF.
fn dkw_epsilon(n: usize) -> f64 {
    ((2.0 / DELTA).ln() / (2.0 * n as f64)).sqrt()
}

/// Fraction of `responses` at or below `t`.
fn empirical_cdf(responses: &[Time], t: Time) -> f64 {
    responses.iter().filter(|&&r| r <= t).count() as f64 / responses.len() as f64
}

/// Runs one scenario: probabilistic analysis through the engine,
/// matching seeded simulation, then the two CDF checks per message.
fn check_scenario(eval: &Evaluator, net: &CanNetwork, seed: u64, with_errors: bool) {
    let errors = if with_errors {
        ErrorSpec::Sporadic {
            interval: Time::from_ms(10),
        }
    } else {
        ErrorSpec::None
    };
    let scenario = Scenario {
        name: "prob-vs-sim".into(),
        stuffing: StuffingMode::WorstCase,
        errors,
        deadline: DeadlineOverride::Keep,
    };
    let variant = SystemVariant::new(BaseSystem::new(net.clone()), scenario);
    let prob = eval
        .evaluate_prob(&variant)
        .expect("generated networks are analyzable");

    let sim_config = SimConfig {
        horizon: HORIZON,
        seed,
        stuffing: SimStuffing::Random,
        record_trace: false,
    };
    // Same injection convention as the differential oracle: a periodic
    // process at the sporadic interval plus margin realizes (a subset
    // of) what the analytic error model admits.
    let sim = match errors {
        ErrorSpec::None => simulate(net, &NoInjection, &sim_config),
        ErrorSpec::Sporadic { interval } => simulate(
            net,
            &PeriodicInjection {
                interval: interval + Time::from_us(300),
                phase: Time::from_us(seed % 9_000),
            },
            &sim_config,
        ),
        ErrorSpec::Burst { .. } => unreachable!("corpus uses none/sporadic only"),
    };

    for m in &prob.messages {
        let Some(dist) = m.outcome.dist() else {
            continue; // overload: no distribution to validate
        };
        let stats = sim.by_name(&m.name).expect("every message is simulated");
        let responses = stats.responses();
        if responses.is_empty() {
            continue;
        }
        let eps = dkw_epsilon(responses.len());

        // Check 1 — envelope: the empirical CDF between the step
        // functions at WCRT (lower) and BCRT (upper), within ε. With a
        // sound deterministic analysis this means every response lies
        // in [BCRT, WCRT].
        for &(t, _) in &[(dist.bcrt, 0u8), (dist.wcrt, 1u8)] {
            let f = empirical_cdf(responses, t);
            let lower = if t >= dist.wcrt { 1.0 } else { 0.0 };
            let upper = if t >= dist.bcrt { 1.0 } else { 0.0 };
            assert!(
                f + eps >= lower && f - eps <= upper,
                "seed {seed} `{}`: empirical CDF {f:.4} at {t} outside envelope \
                 [{lower}, {upper}] ± {eps:.4}",
                m.name
            );
        }

        // Check 2 — pessimism: at every lattice point of the analytic
        // distribution the empirical CDF is at least the analytic one
        // (the bus is never slower than the analysis claims).
        for (t, _) in dist.pmf.bins() {
            let analytic = dist.pmf.cdf_at(t);
            let observed = empirical_cdf(responses, t);
            assert!(
                analytic <= observed + eps,
                "seed {seed} `{}`: analytic CDF {analytic:.4} exceeds empirical \
                 {observed:.4} + ε {eps:.4} at {t} (n = {})",
                m.name,
                responses.len()
            );
        }

        // A message the analysis certifies risk-free must never miss
        // its deadline in the simulation.
        if dist.miss_probability == 0.0 {
            assert_eq!(
                stats.deadline_misses, 0,
                "seed {seed} `{}`: certified risk-free but missed in simulation",
                m.name
            );
        }
    }
}

/// The fuzzed corpus: 64 classic scenarios (32 bus-shape, 32 mixed
/// controllers, error injection on every other seed) plus 8 CAN FD
/// scenarios, per the acceptance floor of 64.
#[test]
fn empirical_cdfs_stay_inside_the_confidence_band() {
    let eval = Evaluator::default();
    for seed in 0..32 {
        let net = random_network(&NetShape::bus().messages(6), seed);
        check_scenario(&eval, &net, seed, seed % 2 == 0);
    }
    for seed in 32..64 {
        let net = random_network(&NetShape::mixed().messages(6), seed);
        check_scenario(&eval, &net, seed, seed % 2 == 0);
    }
    for seed in 64..72 {
        let net = random_network(&NetShape::fd().messages(6), seed);
        check_scenario(&eval, &net, seed, seed % 2 == 0);
    }
}

/// The case study itself: the paper's power-train K-Matrix under the
/// worst-case scenario with sporadic errors.
#[test]
fn case_study_distribution_is_validated() {
    let eval = Evaluator::default();
    let net = powertrain_default().to_network().expect("convertible");
    check_scenario(&eval, &net, 2006, true);
    check_scenario(&eval, &net, 2007, false);
}
