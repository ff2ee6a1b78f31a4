//! Full supply-chain round trip across crates (Figures 3 and 6):
//! scope → assumptions → requirements → supplier datasheet →
//! compatibility → refinement, on top of the case-study K-Matrix.

use carta::prelude::*;

fn case_study() -> CanNetwork {
    powertrain_default().to_network().expect("convertible")
}

#[test]
fn scope_of_generated_matrix_matches_known_jitters() {
    let matrix = powertrain_default();
    let net = case_study();
    let known: Vec<String> = matrix
        .rows
        .iter()
        .filter(|r| r.jitter_us.is_some())
        .map(|r| r.name.clone())
        .collect();
    let scope = InformationScope::oem(known.clone());
    let report = analysis_readiness(&scope, &net);
    assert!(report.can_run());
    assert!(!report.is_complete());
    // One assumption per unknown-jitter message, plus errors + flashing.
    assert_eq!(
        report.assumptions_needed.len(),
        (net.messages().len() - known.len()) + 2
    );
}

#[test]
fn refinement_on_case_study_converges_to_fewer_assumptions() {
    let net = case_study();
    let mut session = RefinementSession::start(&net, Scenario::worst_case(), 0.20).expect("valid");
    let initially_assumed = session.assumed_remaining();
    assert_eq!(initially_assumed, 48, "64 messages minus 16 known jitters");

    // A batch of datasheets arrives from the EMS supplier: their real
    // jitters are a calm 5 % of the period.
    let mut ds = Datasheet::new("EMS supplier");
    let ems_messages: Vec<(String, Time)> = net
        .messages()
        .iter()
        .filter(|m| m.sender == 0 && m.activation.jitter().is_zero())
        .map(|m| (m.name.clone(), m.activation.period()))
        .collect();
    assert!(!ems_messages.is_empty());
    for (name, period) in &ems_messages {
        ds.guarantee(
            name.clone(),
            EventModel::periodic_with_jitter(*period, period.percent(5)),
        );
    }
    let misses_before = session.current_missed();
    let updated = session.commit_datasheet(&ds).expect("valid");
    assert_eq!(updated, ems_messages.len());
    assert_eq!(
        session.assumed_remaining(),
        initially_assumed - ems_messages.len()
    );
    // Replacing a 20 % assumption by a 5 % guarantee never hurts.
    assert!(session.current_missed() <= misses_before);
    assert_eq!(session.history().len(), 2);
}

#[test]
fn oem_requirements_are_satisfiable_and_checkable() {
    let net = case_study();
    // Requirements for the TCU (node 1) under the paper's worst case.
    let req = oem_send_requirements(&net, &Scenario::worst_case(), 1, 0.9, 0.8).expect("valid");
    assert!(!req.is_empty());

    // A cooperative supplier guarantees half the required jitter.
    let mut ds = Datasheet::new("TCU supplier");
    for (name, bound) in req.iter() {
        ds.guarantee(
            name,
            EventModel::new(
                bound.kind(),
                bound.period(),
                bound.jitter() / 2,
                bound.dmin(),
            ),
        );
    }
    let compat = check(&ds, &req);
    assert!(compat.all_satisfied(), "{compat}");

    // An uncooperative one exceeds it and is caught.
    let mut bad = Datasheet::new("rogue supplier");
    for (name, bound) in req.iter() {
        bad.guarantee(
            name,
            EventModel::new(
                bound.kind(),
                bound.period(),
                bound.jitter() + Time::from_ms(5),
                bound.dmin(),
            ),
        );
    }
    let compat = check(&bad, &req);
    assert!(!compat.all_satisfied());
    assert_eq!(compat.failures().len(), req.len());
}

#[test]
fn oem_guarantees_receivers_under_committed_requirements() {
    let net = case_study();
    // If every supplier honors a 20 % jitter budget, the OEM can state
    // arrival guarantees for every message in the best case.
    let committed = with_jitter_ratio(&net, 0.20);
    let (arrivals, unguaranteed) =
        oem_receive_guarantees(&committed, &Scenario::best_case()).expect("valid");
    assert!(unguaranteed.is_empty(), "unguaranteed: {unguaranteed:?}");
    assert_eq!(arrivals.len(), net.messages().len());
    // Arrival jitter strictly exceeds send jitter (response span > 0).
    for m in committed.messages() {
        let arrival = arrivals.get(&m.name).expect("guaranteed");
        assert!(arrival.jitter() > m.activation.jitter());
        assert_eq!(arrival.period(), m.activation.period());
    }
}

#[test]
fn csv_pipeline_feeds_the_whole_stack() {
    // K-Matrix CSV → network → analysis → datasheet → CSV again.
    let matrix = powertrain_default();
    let text = to_csv(&matrix);
    let reparsed = from_csv(&text).expect("parses");
    assert_eq!(matrix, reparsed);
    let net = reparsed.to_network().expect("convertible");
    let report = Scenario::best_case().analyze(&net).expect("valid");
    assert_eq!(report.messages.len(), 64);
    // Deterministic: same matrix, same verdicts, twice.
    let report2 = Scenario::best_case().analyze(&net).expect("valid");
    for (a, b) in report.messages.iter().zip(&report2.messages) {
        assert_eq!(a.outcome.wcrt(), b.outcome.wcrt());
    }
}
