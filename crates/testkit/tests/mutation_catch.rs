//! End-to-end sensitivity check: an intentionally-broken analysis
//! (every bounded WCRT lowered by the message's blocking term) must be
//! caught by the differential oracle, shrunk to a tiny counterexample,
//! survive a JSON round trip, and replay clean against the real
//! analysis.
//!
//! The mutant is built here, outside production code: the sound report
//! is rewritten and handed to [`DiffOracle::check_report`].

use carta_can::prelude::{analyze_bus, AnalysisConfig, CanNetwork, ResponseOutcome};
use carta_core::analysis::ResponseBounds;
use carta_testkit::prelude::*;

/// The oracle's verdict on the blocking-dropping mutant of `net`.
fn check_mutant(
    oracle: &DiffOracle,
    net: &CanNetwork,
    errors: ErrorSpec,
    seed: u64,
) -> Option<Violation> {
    let mut report =
        analyze_bus(net, errors.model().as_ref(), &AnalysisConfig::default()).expect("valid");
    for m in &mut report.messages {
        if let ResponseOutcome::Bounded(b) = m.outcome {
            let worst = b.worst().saturating_sub(m.blocking).max(b.best());
            m.outcome = ResponseOutcome::Bounded(ResponseBounds::new(b.best(), worst));
        }
    }
    oracle.check_report(net, &report, errors, seed).err()
}

#[test]
fn dropped_blocking_term_is_caught_and_shrunk() {
    let oracle = DiffOracle::default();
    let errors = ErrorSpec::None;
    let (seed, net, violation) = (0..48u64)
        .find_map(|seed| {
            let net = random_network(&NetShape::bus(), seed);
            check_mutant(&oracle, &net, errors, seed).map(|v| (seed, net, v))
        })
        .expect(
            "dropping the blocking term must be observable within 48 seeds — \
             the oracle lost its teeth",
        );
    let shrunk = shrink_case(&net, errors, violation, |n, e| {
        check_mutant(&oracle, n, e, seed)
    });
    let repro = Repro {
        law: ORACLE_LAW.into(),
        seed,
        errors: shrunk.errors,
        violation: shrunk.violation.detail,
        shrink_steps: shrunk.steps,
        network: shrunk.network,
    };
    assert!(
        repro.network.messages().len() <= 4,
        "shrinker left {} messages (steps: {}): {}",
        repro.network.messages().len(),
        repro.shrink_steps,
        repro.violation
    );

    // The counterexample must survive serialization untouched...
    let decoded = Repro::from_json(&repro.to_json()).expect("repro roundtrips");
    assert_eq!(decoded, repro);

    // ...and replay clean against the sound analysis.
    decoded
        .replay()
        .expect("the real analysis must pass the repro");
}
