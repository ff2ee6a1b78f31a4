//! Observability must be a read-only window: the metrics the engine
//! exports agree with its own internal bookkeeping, spans nest and
//! close in a balanced way, and instrumenting a run never changes a
//! single analysis result.

use carta::prelude::*;
use carta_obs::metrics::MetricsRegistry;
use carta_obs::trace::{NullSink, RingBufferSink, SpanKind};
use carta_obs::Obs;
use carta_testkit::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Shape selection only — generation lives in `carta_testkit::gen`.
fn net_for(seed: u64) -> CanNetwork {
    random_network(&NetShape::two_node().messages(6), seed)
}

fn jitter_batch(net: &CanNetwork, scenario: &Scenario) -> Vec<SystemVariant> {
    let base = BaseSystem::new(net.clone());
    [0.0, 0.1, 0.25, 0.4, 0.6]
        .iter()
        .map(|&r| SystemVariant::new(base.clone(), scenario.clone()).with_jitter_ratio(r))
        .collect()
}

/// The cache counters an explicitly-bound registry collects must equal
/// the evaluator's own `CacheStats` — across a cold batch and a fully
/// warm repeat.
#[test]
fn explicit_registry_matches_evaluator_cache_stats() {
    let registry = Arc::new(MetricsRegistry::new());
    let eval = Evaluator::builder().jobs(2).metrics(&registry).build();
    let net = net_for(11);
    let variants = jitter_batch(&net, &Scenario::worst_case());

    eval.evaluate_batch(&variants); // cold: all misses
    eval.evaluate_batch(&variants); // warm: all hits

    let stats = eval.stats();
    assert!(stats.hits >= variants.len() as u64, "{stats:?}");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("engine.cache.hits"), Some(stats.hits));
    assert_eq!(snap.counter("engine.cache.misses"), Some(stats.misses));
    assert_eq!(
        snap.counter("engine.batch.points"),
        Some(2 * variants.len() as u64)
    );
    assert_eq!(snap.counter("engine.batch.runs"), Some(2));
}

/// Every span a single-threaded analysis opens must close, in LIFO
/// order. The sink belongs to this test's evaluator alone, so work in
/// concurrent tests cannot reach it.
#[test]
fn spans_nest_and_balance() {
    let sink = Arc::new(RingBufferSink::new(4096));
    let eval = Evaluator::builder()
        .jobs(1)
        .obs(Obs::new(None, Some(sink.clone())))
        .build();
    eval.loss_vs_jitter(&net_for(5), &Scenario::worst_case(), &[0.0, 0.2, 0.4])
        .expect("valid model");

    let events = sink.drain();
    assert!(!events.is_empty(), "the analysis emitted no spans");
    let mut stack: Vec<&'static str> = Vec::new();
    for event in &events {
        match event.kind {
            SpanKind::Enter => {
                assert_eq!(event.depth, stack.len(), "enter depth for {}", event.name);
                stack.push(event.name);
            }
            SpanKind::Exit => {
                assert_eq!(stack.pop(), Some(event.name), "exit out of order");
                assert_eq!(event.depth, stack.len(), "exit depth for {}", event.name);
                assert!(event.dur_ns.is_some(), "exit without duration");
            }
            SpanKind::Instant => assert!(!stack.is_empty(), "instant outside any span"),
        }
    }
    assert!(stack.is_empty(), "unclosed spans: {stack:?}");
    assert!(
        events
            .iter()
            .any(|e| e.kind == SpanKind::Enter && e.name.starts_with("sweep.")),
        "sweep span missing from {:?}",
        events.iter().map(|e| e.name).collect::<Vec<_>>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Turning the whole observability stack on — a registry *and* a
    // null span sink — must leave every response bound bit-identical
    // to a bare run.
    #[test]
    fn instrumentation_never_changes_results(seed in 0u64..5_000, pick in 0u8..4) {
        let net = net_for(seed);
        let scenario = match pick % 4 {
            0 => Scenario::best_case(),
            1 => Scenario::best_case_period_deadline(),
            2 => Scenario::worst_case(),
            _ => Scenario::sporadic_errors(Time::from_ms(10)),
        };
        let variants = jitter_batch(&net, &scenario);

        let bare = Evaluator::builder().jobs(1).build();
        let plain: Vec<_> = bare.evaluate_batch(&variants);

        let registry = Arc::new(MetricsRegistry::new());
        let observed = Evaluator::builder()
            .jobs(2)
            .obs(Obs::new(Some(registry.clone()), Some(Arc::new(NullSink))))
            .build()
            .evaluate_batch(&variants);

        for (i, (p, o)) in plain.iter().zip(&observed).enumerate() {
            let (p, o) = (p.as_ref().expect("valid"), o.as_ref().expect("valid"));
            prop_assert_eq!(p.messages.len(), o.messages.len());
            for (a, b) in p.messages.iter().zip(&o.messages) {
                prop_assert_eq!(a.outcome, b.outcome, "variant {}, message {}", i, &a.name);
                prop_assert_eq!(a.blocking, b.blocking);
                prop_assert_eq!(a.c_min, b.c_min);
                prop_assert_eq!(a.instances, b.instances);
            }
        }
        prop_assert!(registry.snapshot().counter("engine.cache.misses").unwrap_or(0) > 0);
    }
}
