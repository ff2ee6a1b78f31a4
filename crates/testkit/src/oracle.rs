//! The differential sim-vs-analysis oracle and the greedy shrinker.
//!
//! The oracle evaluates a network twice through the engine — once
//! plainly, once through the identifier-permutation overlay that
//! exercises the reordered-tables path — then simulates the same system
//! and checks the paper's soundness claim: nothing the simulator
//! observes may exceed the analytic bounds. A violation is shrunk
//! greedily (drop messages, zero jitter, shrink payloads, simplify the
//! error process) to a minimal counterexample and packaged as a
//! replayable [`Repro`].

use crate::repro::Repro;
use carta_can::controller::ControllerType;
use carta_can::frame::{Dlc, StuffingMode};
use carta_can::network::CanNetwork;
use carta_can::rta::BusReport;
use carta_core::event_model::EventModel;
use carta_core::time::Time;
use carta_engine::prelude::{
    BaseSystem, DeadlineOverride, ErrorSpec, Evaluator, Scenario, SystemVariant,
};
use carta_sim::prelude::{
    simulate, BurstInjection, NoInjection, PeriodicInjection, SimConfig, SimStuffing,
};
use std::fmt;
use std::sync::Arc;

/// The law name under which the oracle reports violations (also a
/// member of [`crate::laws::all_laws`]).
pub const ORACLE_LAW: &str = "sim-never-exceeds-analysis";

/// A broken invariant: which law failed and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated law.
    pub law: String,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl Violation {
    /// Creates a violation of `law` with the given detail.
    pub fn new(law: impl Into<String>, detail: impl Into<String>) -> Self {
        Violation {
            law: law.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.law, self.detail)
    }
}

impl std::error::Error for Violation {}

/// Differential oracle comparing the simulator against the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffOracle {
    /// Simulation horizon (longer horizons observe more instances).
    pub sim_horizon: Time,
}

impl Default for DiffOracle {
    fn default() -> Self {
        DiffOracle {
            sim_horizon: Time::from_s(3),
        }
    }
}

impl DiffOracle {
    /// Checks one network: analysis (plain and via the permutation
    /// overlay, both through [`Evaluator::evaluate_batch`] so the cache
    /// and permutation paths are under test) must dominate a seeded
    /// simulation.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] found.
    ///
    /// # Panics
    ///
    /// Panics if `net` fails validation — the oracle's contract is
    /// structurally valid inputs (everything [`crate::gen`] produces).
    pub fn check(
        &self,
        eval: &Evaluator,
        net: &CanNetwork,
        errors: ErrorSpec,
        seed: u64,
    ) -> Result<(), Violation> {
        let scenario = Scenario {
            name: "diff-oracle".into(),
            stuffing: StuffingMode::WorstCase,
            errors,
            deadline: DeadlineOverride::Keep,
        };
        let base = BaseSystem::new(net.clone());
        let plain = SystemVariant::new(Arc::clone(&base), scenario.clone());
        // The identity permutation materializes to the very same
        // network but routes the evaluation through the permutation
        // overlay's reordered tables — its report must be identical.
        let identity = Arc::new(net.priority_order());
        let permuted = SystemVariant::new(base, scenario).with_permutation(identity);
        let mut results = eval.evaluate_batch(&[plain, permuted]).into_iter();
        let report = results
            .next()
            .expect("batch of two")
            .expect("oracle networks are analyzable");
        let perm_report = results
            .next()
            .expect("batch of two")
            .expect("oracle networks are analyzable");
        for (a, b) in report.messages.iter().zip(perm_report.messages.iter()) {
            if a.outcome != b.outcome || a.blocking != b.blocking {
                return Err(Violation::new(
                    ORACLE_LAW,
                    format!(
                        "engine permutation path diverged for `{}`: {:?} vs {:?} (seed {seed})",
                        a.name, a.outcome, b.outcome
                    ),
                ));
            }
        }
        self.check_report(net, &report, errors, seed)
    }

    /// The simulation half of [`DiffOracle::check`]: `report` — the
    /// worst-case analysis of `net` under `errors` — must dominate a
    /// seeded simulation of the same system. Taking the report as input
    /// lets a sensitivity test hand the oracle a deliberately broken
    /// analysis without touching production code.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] found.
    ///
    /// # Panics
    ///
    /// Panics if `report` names a message `net` does not carry.
    pub fn check_report(
        &self,
        net: &CanNetwork,
        report: &BusReport,
        errors: ErrorSpec,
        seed: u64,
    ) -> Result<(), Violation> {
        let sim_config = SimConfig {
            horizon: self.sim_horizon,
            seed,
            stuffing: SimStuffing::Random,
            record_trace: false,
        };
        // Injection processes stay within the analytical error model's
        // bound (periodic at interval + margin ≤ sporadic; the burst
        // process is the model's exact worst-case realization).
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
            ErrorSpec::Burst {
                burst_len,
                intra_gap,
                inter_burst,
            } => simulate(
                net,
                &BurstInjection {
                    burst_len,
                    intra_gap,
                    inter_burst,
                    phase: Time::from_us(seed % 9_000),
                },
                &sim_config,
            ),
        };

        let with_errors = errors != ErrorSpec::None;
        for m in &report.messages {
            let stats = sim.by_name(&m.name).expect("every message is simulated");
            if let (Some(observed), Some(bound)) = (stats.max_response, m.outcome.wcrt()) {
                if observed > bound {
                    return Err(Violation::new(
                        ORACLE_LAW,
                        format!(
                            "`{}` observed response {observed} exceeds analytic WCRT {bound} \
                             (seed {seed}, errors {errors:?})",
                            m.name
                        ),
                    ));
                }
            }
            if let (Some(observed), Some(bound)) = (stats.min_response, m.outcome.bcrt()) {
                if observed < bound {
                    return Err(Violation::new(
                        ORACLE_LAW,
                        format!(
                            "`{}` observed response {observed} below analytic BCRT {bound} \
                             (seed {seed}, errors {errors:?})",
                            m.name
                        ),
                    ));
                }
            }
            // A message the analysis proves loss-free must not be
            // overwritten in an error-free simulation (FIFO senders
            // drop by queue overflow, a different loss mechanism).
            let fifo_sender = matches!(
                net.controller_of(&net.messages()[m.index]),
                ControllerType::FifoQueue { .. }
            );
            if !with_errors && !m.misses_deadline() && !fifo_sender && stats.overwritten != 0 {
                return Err(Violation::new(
                    ORACLE_LAW,
                    format!(
                        "`{}` lost {} instances despite its proven deadline (seed {seed})",
                        m.name, stats.overwritten
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Like [`DiffOracle::check`], but a violation is shrunk to a
    /// minimal counterexample and returned as a replayable [`Repro`].
    ///
    /// # Errors
    ///
    /// Returns the minimized [`Repro`] if the oracle finds a violation.
    pub fn check_and_shrink(
        &self,
        eval: &Evaluator,
        net: &CanNetwork,
        errors: ErrorSpec,
        seed: u64,
    ) -> Result<(), Box<Repro>> {
        let violation = match self.check(eval, net, errors, seed) {
            Ok(()) => return Ok(()),
            Err(v) => v,
        };
        let shrunk = shrink_case(net, errors, violation, |n, e| {
            self.check(eval, n, e, seed).err()
        });
        Err(Box::new(Repro {
            law: ORACLE_LAW.into(),
            seed,
            errors: shrunk.errors,
            violation: shrunk.violation.detail,
            shrink_steps: shrunk.steps,
            network: shrunk.network,
        }))
    }
}

/// A minimized counterexample produced by [`shrink_case`].
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The smallest still-violating network found.
    pub network: CanNetwork,
    /// The (possibly simplified) error specification.
    pub errors: ErrorSpec,
    /// The violation reported on the minimized case.
    pub violation: Violation,
    /// Number of accepted shrink steps.
    pub steps: u64,
}

/// Greedily shrinks a violating case to a local minimum: repeatedly
/// drop messages, zero jitters, halve payloads and simplify the error
/// process, keeping each candidate only if `violates` still reports a
/// violation, until a full pass makes no progress.
pub fn shrink_case<F>(
    net: &CanNetwork,
    errors: ErrorSpec,
    violation: Violation,
    violates: F,
) -> Shrunk
where
    F: Fn(&CanNetwork, ErrorSpec) -> Option<Violation>,
{
    let mut best_net = net.clone();
    let mut best_errors = errors;
    let mut best_v = violation;
    let mut steps = 0u64;
    loop {
        let mut progressed = false;

        // 1. Drop messages (keeping at least one).
        let mut i = 0;
        while best_net.messages().len() > 1 && i < best_net.messages().len() {
            let cand = without_message(&best_net, i);
            match violates(&cand, best_errors) {
                Some(v) => {
                    best_net = cand;
                    best_v = v;
                    steps += 1;
                    progressed = true;
                }
                None => i += 1,
            }
        }

        // 2. Zero jitters.
        for i in 0..best_net.messages().len() {
            let activation = best_net.messages()[i].activation;
            if activation.jitter().is_zero() {
                continue;
            }
            let mut cand = best_net.clone();
            cand.messages_mut()[i].activation = EventModel::new(
                activation.kind(),
                activation.period(),
                Time::ZERO,
                activation.dmin(),
            );
            if let Some(v) = violates(&cand, best_errors) {
                best_net = cand;
                best_v = v;
                steps += 1;
                progressed = true;
            }
        }

        // 3. Shrink payloads (halving, floor one byte). Halved FD
        //    payloads snap back up to the step table, so guard against
        //    a "shrink" that rounds to the same length.
        for i in 0..best_net.messages().len() {
            loop {
                let bytes = best_net.messages()[i].dlc.bytes();
                if bytes <= 1 {
                    break;
                }
                let halved = Dlc::fd(bytes / 2);
                if halved.bytes() >= bytes {
                    break;
                }
                let mut cand = best_net.clone();
                cand.messages_mut()[i].dlc = halved;
                match violates(&cand, best_errors) {
                    Some(v) => {
                        best_net = cand;
                        best_v = v;
                        steps += 1;
                        progressed = true;
                    }
                    None => break,
                }
            }
        }

        // 4. Simplify the error process: no errors at all, or a single
        //    error per burst window.
        let simpler: Vec<ErrorSpec> = match best_errors {
            ErrorSpec::None => Vec::new(),
            ErrorSpec::Sporadic { .. } => vec![ErrorSpec::None],
            ErrorSpec::Burst {
                intra_gap,
                inter_burst,
                ..
            } => vec![
                ErrorSpec::None,
                ErrorSpec::Burst {
                    burst_len: 1,
                    intra_gap,
                    inter_burst,
                },
            ],
        };
        for cand_errors in simpler {
            if cand_errors == best_errors {
                continue;
            }
            if let Some(v) = violates(&best_net, cand_errors) {
                best_errors = cand_errors;
                best_v = v;
                steps += 1;
                progressed = true;
                break;
            }
        }

        if !progressed {
            break;
        }
    }
    Shrunk {
        network: best_net,
        errors: best_errors,
        violation: best_v,
        steps,
    }
}

/// A copy of `net` without message `i` (nodes and backend untouched).
fn without_message(net: &CanNetwork, i: usize) -> CanNetwork {
    let mut out = CanNetwork::new(net.bit_rate()).with_backend(net.backend());
    for node in net.nodes() {
        out.add_node(node.clone());
    }
    for (j, m) in net.messages().iter().enumerate() {
        if j != i {
            out.add_message(m.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{random_network, NetShape};

    #[test]
    fn oracle_accepts_sound_networks() {
        let eval = Evaluator::default();
        let oracle = DiffOracle::default();
        for seed in 0..6 {
            let net = random_network(&NetShape::bus(), seed);
            oracle
                .check(&eval, &net, ErrorSpec::None, seed)
                .expect("sound analysis passes");
        }
        let net = random_network(&NetShape::mixed(), 3);
        oracle
            .check(
                &eval,
                &net,
                ErrorSpec::Sporadic {
                    interval: Time::from_ms(10),
                },
                3,
            )
            .expect("sound analysis passes with errors");
    }

    #[test]
    fn oracle_accepts_sound_fd_networks() {
        let eval = Evaluator::default();
        let oracle = DiffOracle::default();
        for seed in 0..6 {
            let net = random_network(&NetShape::fd(), seed);
            oracle
                .check(&eval, &net, ErrorSpec::None, seed)
                .expect("sound FD analysis passes");
        }
        let net = random_network(&NetShape::fd(), 3);
        oracle
            .check(
                &eval,
                &net,
                ErrorSpec::Sporadic {
                    interval: Time::from_ms(10),
                },
                3,
            )
            .expect("sound FD analysis passes with errors");
    }

    #[test]
    fn shrinking_fd_payloads_stays_on_the_step_table() {
        use carta_can::backend::{BackendConfig, FD_PAYLOAD_STEPS};
        // Synthetic predicate that always "violates": the shrinker
        // drives payloads to the floor without ever leaving the table.
        let net = random_network(&NetShape::fd().messages(3), 11);
        let violates = |_n: &CanNetwork, _e: ErrorSpec| Some(Violation::new("synthetic", "always"));
        let shrunk = shrink_case(
            &net,
            ErrorSpec::None,
            Violation::new("synthetic", "seed case"),
            violates,
        );
        assert_eq!(shrunk.network.backend(), BackendConfig::can_fd());
        for m in shrunk.network.messages() {
            assert!(FD_PAYLOAD_STEPS.contains(&m.dlc.bytes()));
        }
    }

    #[test]
    fn shrinker_reaches_a_local_minimum() {
        // A synthetic predicate: "violates" whenever the net still has
        // a message named m0 together with at least one other message —
        // the shrinker must reduce to exactly two messages, zero
        // jitter, one-byte payloads and no errors.
        let net = random_network(&NetShape::bus().messages(7), 9);
        let violates = |n: &CanNetwork, _e: ErrorSpec| {
            (n.message_by_name("m0").is_some() && n.messages().len() >= 2)
                .then(|| Violation::new("synthetic", "still violating"))
        };
        let shrunk = shrink_case(
            &net,
            ErrorSpec::Sporadic {
                interval: Time::from_ms(10),
            },
            Violation::new("synthetic", "seed case"),
            violates,
        );
        assert_eq!(shrunk.network.messages().len(), 2);
        assert!(shrunk.network.message_by_name("m0").is_some());
        assert_eq!(shrunk.errors, ErrorSpec::None);
        assert!(shrunk.steps > 0);
        for m in shrunk.network.messages() {
            assert!(m.activation.jitter().is_zero());
            assert_eq!(m.dlc.bytes(), 1);
        }
    }
}
