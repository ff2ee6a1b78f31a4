//! The fuzz loop behind `carta fuzz`.
//!
//! For every selected law the runner generates a corpus of networks
//! (seed-derived, alternating homogeneous and mixed-controller shapes,
//! cycling through error models), checks the law on each, and on the
//! first violation shrinks the case and stops that law with a
//! replayable [`Repro`]. A finished run is counted in `fuzz.*`
//! counters in the registry of [`FuzzConfig::obs`], if it has one.

use crate::gen::{random_network, NetShape};
use crate::laws::{all_laws, law_by_name, law_names, Law, LawCase};
use crate::oracle::shrink_case;
use crate::repro::Repro;
use carta_can::backend::BackendConfig;
use carta_core::time::Time;
use carta_engine::prelude::{ErrorSpec, Evaluator, Parallelism};
use carta_obs::Obs;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Configuration of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Base seed; case 0 of every law uses it verbatim, so a seed
    /// printed by a failing proptest strategy replays directly.
    pub seed: u64,
    /// Cases to run per law.
    pub cases: u64,
    /// Law names to check (`None` = the whole catalogue).
    pub laws: Option<Vec<String>>,
    /// Parallelism of the engine evaluator under test.
    pub parallelism: Parallelism,
    /// Bus backend of the generated corpus. A CAN FD backend widens
    /// payloads to the full FD step table (see
    /// [`NetShape::with_backend`]).
    pub backend: BackendConfig,
    /// Where the run reports: the evaluator under test and the `fuzz.*`
    /// counters (default: nowhere). The laws' own reference checks
    /// report nowhere.
    pub obs: Obs,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 2006,
            cases: 64,
            laws: None,
            parallelism: Parallelism::from_env(),
            backend: BackendConfig::Can,
            obs: Obs::default(),
        }
    }
}

/// Result of fuzzing one law.
#[derive(Debug, Clone)]
pub struct LawOutcome {
    /// The law's stable name.
    pub law: String,
    /// Cases executed (stops early on the first violation).
    pub cases_run: u64,
    /// The shrunk counterexample, if the law was violated.
    pub repro: Option<Repro>,
}

/// Result of a whole fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The base seed the run started from.
    pub seed: u64,
    /// Per-law outcomes, in catalogue order.
    pub outcomes: Vec<LawOutcome>,
}

impl FuzzReport {
    /// `true` if no law was violated.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.repro.is_none())
    }

    /// The outcomes that carry a counterexample.
    pub fn violations(&self) -> impl Iterator<Item = &LawOutcome> {
        self.outcomes.iter().filter(|o| o.repro.is_some())
    }
}

/// A law name passed to [`run_fuzz`] that is not in the catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownLawError {
    /// The unrecognized name.
    pub name: String,
}

impl fmt::Display for UnknownLawError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown law `{}`; known laws: {}",
            self.name,
            law_names().join(", ")
        )
    }
}

impl std::error::Error for UnknownLawError {}

/// The error model of case `case` (cycled so every law sees error-free,
/// calm and stormy sporadic conditions).
fn case_errors(case: u64) -> ErrorSpec {
    match case % 3 {
        0 => ErrorSpec::None,
        1 => ErrorSpec::Sporadic {
            interval: Time::from_ms(10),
        },
        _ => ErrorSpec::Sporadic {
            interval: Time::from_ms(20),
        },
    }
}

/// Derives the seed of case `case` for `law` from the base seed.
fn mix_seed(seed: u64, law: &str, case: u64) -> u64 {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    law.hash(&mut h);
    case.hash(&mut h);
    h.finish()
}

/// Runs the fuzz loop.
///
/// # Errors
///
/// Returns [`UnknownLawError`] if `config.laws` names a law that is not
/// in the catalogue. Violations are *not* errors — they are reported as
/// repros inside the [`FuzzReport`].
pub fn run_fuzz(config: &FuzzConfig) -> Result<FuzzReport, UnknownLawError> {
    let laws: Vec<Box<dyn Law>> = match &config.laws {
        None => all_laws(),
        Some(names) => names
            .iter()
            .map(|n| law_by_name(n).ok_or_else(|| UnknownLawError { name: n.clone() }))
            .collect::<Result<_, _>>()?,
    };
    let eval = Evaluator::builder()
        .parallelism(config.parallelism)
        .obs(config.obs.clone())
        .build();
    let mut outcomes = Vec::with_capacity(laws.len());
    for law in &laws {
        let mut cases_run = 0;
        let mut repro = None;
        for case in 0..config.cases {
            // Case 0 uses the base seed verbatim: `carta fuzz --seed N`
            // replays exactly the network a proptest failure reported.
            let seed = if case == 0 {
                config.seed
            } else {
                mix_seed(config.seed, law.name(), case)
            };
            let shape = if case % 2 == 0 {
                NetShape::bus()
            } else {
                NetShape::mixed()
            }
            .with_backend(config.backend);
            let errors = case_errors(case);
            let net = random_network(&shape, seed);
            cases_run += 1;
            if let Err(violation) = law.check(&net, &LawCase { seed, errors }, &eval) {
                let shrunk = shrink_case(&net, errors, violation, |n, e| {
                    law.check(n, &LawCase { seed, errors: e }, &eval).err()
                });
                repro = Some(Repro {
                    law: law.name().to_string(),
                    seed,
                    errors: shrunk.errors,
                    violation: shrunk.violation.detail,
                    shrink_steps: shrunk.steps,
                    network: shrunk.network,
                });
                break;
            }
        }
        outcomes.push(LawOutcome {
            law: law.name().to_string(),
            cases_run,
            repro,
        });
    }
    if let Some(registry) = config.obs.registry() {
        let repros = outcomes.iter().filter_map(|o| o.repro.as_ref());
        let cases = outcomes.iter().map(|o| o.cases_run).sum();
        registry.counter("fuzz.laws").add(outcomes.len() as u64);
        registry.counter("fuzz.cases").add(cases);
        registry
            .counter("fuzz.violations")
            .add(repros.clone().count() as u64);
        registry
            .counter("fuzz.shrink_steps")
            .add(repros.map(|r| r.shrink_steps).sum());
    }
    Ok(FuzzReport {
        seed: config.seed,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_passes_every_law() {
        let report = run_fuzz(&FuzzConfig {
            seed: 2006,
            cases: 2,
            laws: None,
            parallelism: Parallelism::sequential(),
            backend: BackendConfig::Can,
            ..FuzzConfig::default()
        })
        .expect("catalogue names are valid");
        assert!(report.passed(), "violations: {:?}", report.outcomes);
        assert_eq!(report.outcomes.len(), all_laws().len());
        assert!(report.outcomes.iter().all(|o| o.cases_run == 2));
        assert_eq!(report.violations().count(), 0);
    }

    #[test]
    fn small_fd_run_passes_every_law() {
        let report = run_fuzz(&FuzzConfig {
            seed: 2006,
            cases: 2,
            laws: None,
            parallelism: Parallelism::sequential(),
            backend: BackendConfig::can_fd(),
            ..FuzzConfig::default()
        })
        .expect("catalogue names are valid");
        assert!(report.passed(), "violations: {:?}", report.outcomes);
        assert_eq!(report.outcomes.len(), all_laws().len());
    }

    #[test]
    fn law_filter_is_honored() {
        let report = run_fuzz(&FuzzConfig {
            seed: 7,
            cases: 1,
            laws: Some(vec!["load-schedulability".into()]),
            parallelism: Parallelism::sequential(),
            backend: BackendConfig::Can,
            ..FuzzConfig::default()
        })
        .expect("known law");
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].law, "load-schedulability");
    }

    #[test]
    fn unknown_laws_are_rejected_up_front() {
        let err = run_fuzz(&FuzzConfig {
            laws: Some(vec!["no-such-law".into()]),
            ..FuzzConfig::default()
        })
        .expect_err("unknown law");
        assert_eq!(err.name, "no-such-law");
        assert!(err.to_string().contains("jitter-monotonicity"));
    }

    #[test]
    fn case_seeds_differ_between_laws_but_share_case_zero() {
        assert_ne!(mix_seed(1, "a", 1), mix_seed(1, "b", 1));
        assert_ne!(mix_seed(1, "a", 1), mix_seed(2, "a", 1));
    }
}
