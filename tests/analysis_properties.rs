//! Cross-cutting correctness properties of the analysis stack:
//!
//! * monotonicity — more jitter, more errors or more traffic can never
//!   *improve* a worst-case response time,
//! * OPA optimality — Audsley's assignment finds a feasible identifier
//!   order exactly when brute-force enumeration finds one (small nets).
//!
//! Networks come from `carta_testkit::gen` (the `two_node` and `tight`
//! shapes, the latter also with mixed controllers); the full metamorphic law catalogue lives in
//! `carta_testkit::laws` and is fuzzed by `carta fuzz` — this suite
//! keeps the historical direct checks plus the brute-force OPA cross
//! validation that is too expensive for the fuzz loop.

use carta::prelude::*;
use carta_testkit::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn jitter_monotonicity((seed, net) in networks(NetShape::two_node().messages(6)), bump in 1u64..20) {
        let cfg = AnalysisConfig::default();
        let base = analyze_bus(&net, &NoErrors, &cfg).expect("valid");
        // Bump one message's jitter.
        let mut noisy = net.clone();
        let idx = (seed % 6) as usize;
        let m = &mut noisy.messages_mut()[idx];
        m.activation = EventModel::periodic_with_jitter(
            m.activation.period(),
            m.activation.jitter() + m.activation.period().percent(bump),
        );
        let after = analyze_bus(&noisy, &NoErrors, &cfg).expect("valid");
        prop_assert!(
            pointwise_le(&wcrts(&base), &wcrts(&after)),
            "raising one jitter reduced some WCRT (seed {seed})"
        );
    }

    #[test]
    fn error_rate_monotonicity((seed, net) in networks(NetShape::two_node().messages(5))) {
        let cfg = AnalysisConfig::default();
        let calm = analyze_bus(&net, &SporadicErrors::new(Time::from_ms(50)), &cfg)
            .expect("valid");
        let stormy = analyze_bus(&net, &SporadicErrors::new(Time::from_ms(10)), &cfg)
            .expect("valid");
        prop_assert!(
            pointwise_le(&wcrts(&calm), &wcrts(&stormy)),
            "more errors reduced some WCRT (seed {seed})"
        );
        let none = analyze_bus(&net, &NoErrors, &cfg).expect("valid");
        prop_assert!(pointwise_le(&wcrts(&none), &wcrts(&calm)));
    }

    #[test]
    fn added_traffic_monotonicity((seed, net) in networks(NetShape::two_node().messages(5))) {
        let cfg = AnalysisConfig::default();
        let base = analyze_bus(&net, &NoErrors, &cfg).expect("valid");
        // Add one more message (any priority position).
        let mut bigger = net.clone();
        bigger.add_message(CanMessage::new(
            "intruder",
            CanId::standard(0x148).expect("valid"),
            Dlc::new(8),
            Time::from_ms(10),
            Time::ZERO,
            0,
        ));
        let after = analyze_bus(&bigger, &NoErrors, &cfg).expect("valid");
        // Compare the original five messages only.
        let before_w = wcrts(&base);
        let after_w: Vec<Option<Time>> = base
            .messages
            .iter()
            .map(|m| after.by_name(&m.name).expect("still present").outcome.wcrt())
            .collect();
        prop_assert!(
            pointwise_le(&before_w, &after_w),
            "adding a message reduced some WCRT (seed {seed})"
        );
    }

    #[test]
    fn stuffing_monotonicity((seed, net) in networks(NetShape::two_node().messages(6))) {
        let lean = analyze_bus(
            &net,
            &NoErrors,
            &AnalysisConfig::with_stuffing(StuffingMode::None),
        )
        .expect("valid");
        let stuffed = analyze_bus(&net, &NoErrors, &AnalysisConfig::default()).expect("valid");
        prop_assert!(
            pointwise_le(&wcrts(&lean), &wcrts(&stuffed)),
            "stuffing overhead reduced some WCRT (seed {seed})"
        );
    }
}

/// The law catalogue holds on the two-node shape as well (the fuzz
/// runner's corpus only covers the `bus` and `mixed` shapes).
#[test]
fn law_catalogue_holds_on_two_node_nets() {
    let eval = Evaluator::default();
    for law in all_laws() {
        for seed in 0..2u64 {
            let net = random_network(&NetShape::two_node(), seed);
            let case = LawCase {
                seed,
                errors: ErrorSpec::None,
            };
            law.check(&net, &case, &eval)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }
}

/// Exhaustively enumerate all identifier assignments of a small net and
/// compare against Audsley.
fn brute_force_feasible(net: &CanNetwork, errors: &dyn ErrorModel) -> bool {
    let n = net.messages().len();
    let mut ids: Vec<CanId> = net.messages().iter().map(|m| m.id).collect();
    ids.sort_by_key(|id| id.arbitration_key());
    let mut order: Vec<usize> = (0..n).collect();
    // Heap's algorithm, iterative.
    let mut c = vec![0usize; n];
    let cfg = AnalysisConfig::default();
    let check = |order: &[usize]| -> bool {
        let mut v = net.clone();
        for (rank, &m) in order.iter().enumerate() {
            v.messages_mut()[m].id = ids[rank];
        }
        analyze_bus(&v, errors, &cfg).expect("valid").schedulable()
    };
    if check(&order) {
        return true;
    }
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                order.swap(0, i);
            } else {
                order.swap(c[i], i);
            }
            if check(&order) {
                return true;
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    false
}

#[test]
fn opa_agrees_with_brute_force_on_small_nets() {
    let errors = SporadicErrors::new(Time::from_ms(15));
    let cfg = AnalysisConfig::default();
    // Small, tight nets on a slow bus so both verdicts occur: fullCAN
    // only, then two nodes of mixed controllers so the basicCAN/FIFO
    // demand terms are exercised through OPA too.
    let mixed = NetShape {
        mixed_controllers: true,
        node_range: (2, 2),
        ..NetShape::tight()
    };
    for (shape, seeds) in [(NetShape::tight(), 40u64), (mixed, 60)] {
        let mut feasible_seen = 0;
        let mut infeasible_seen = 0;
        for seed in 0..seeds {
            let net = random_network(&shape, seed);
            let opa = audsley_assignment(&net, &errors, &cfg).expect("valid network");
            let brute = brute_force_feasible(&net, &errors);
            assert_eq!(
                opa.is_some(),
                brute,
                "seed {seed}: OPA {:?} vs brute force {brute} ({shape:?})",
                opa.is_some()
            );
            if let Some(order) = opa {
                feasible_seen += 1;
                let fixed = order.apply(&net);
                assert!(analyze_bus(&fixed, &errors, &cfg)
                    .expect("valid")
                    .schedulable());
            } else {
                infeasible_seen += 1;
            }
        }
        // The seed range must exercise both outcomes for the test to
        // mean anything.
        assert!(feasible_seen > 3, "only {feasible_seen} feasible cases");
        assert!(
            infeasible_seen > 3,
            "only {infeasible_seen} infeasible cases"
        );
    }
}
