//! # carta-testkit
//!
//! The single source of randomized verification across the carta
//! workspace. The paper's core claim is a *soundness* claim — analytic
//! worst-case response times must dominate anything a real bus (or a
//! faithful simulator) can produce — and this crate turns that claim,
//! plus the monotonicity/dominance structure behind it, into reusable
//! machinery:
//!
//! * [`gen`] — seeded, size-parameterized generators for networks,
//!   gateway chains, task sets and engine variants, exposed both as
//!   plain [`rand::rngs::StdRng`] constructors and as `proptest`
//!   strategies,
//! * [`oracle`] — the differential [`DiffOracle`](oracle::DiffOracle)
//!   running `carta-sim` against the analysis (routed through
//!   [`Evaluator::evaluate_batch`](carta_engine::evaluator::Evaluator)
//!   so the engine cache itself is under test), with greedy shrinking
//!   to a minimal counterexample,
//! * [`laws`] — the metamorphic [`Law`](laws::Law) catalogue (jitter
//!   monotonicity, priority-raise dominance, error-model dominance,
//!   bit-rate scaling, compiled == naive, overlay == rebuilt, load
//!   vs schedulability, sim ≤ analysis, prob ≤ worst case),
//! * [`chaos`] — the fault-injection harness:
//!   [`FaultPlan`](carta_engine::prelude::FaultPlan)-armed evaluators
//!   plus the resilience laws `degraded-is-sound` and
//!   `fault-isolation`,
//! * [`repro`] — replayable JSON counterexample files
//!   (`carta.repro.v1`) with the originating seed,
//! * [`runner`] — the fuzz loop behind the `carta fuzz` CLI command,
//!   reporting `fuzz.*` metrics through `carta-obs`.
//!
//! ```
//! use carta_testkit::prelude::*;
//!
//! let eval = Evaluator::default();
//! let net = random_network(&NetShape::bus(), 42);
//! DiffOracle::default()
//!     .check(&eval, &net, ErrorSpec::None, 42)
//!     .expect("analysis dominates simulation");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod gen;
pub mod laws;
pub mod oracle;
pub mod repro;
pub mod runner;

/// Convenient single import for the common types of this crate.
pub mod prelude {
    pub use crate::chaos::{
        chaotic_evaluator, flooded, DegradedIsSound, FaultIsolation, DEGRADED_LAW, ISOLATION_LAW,
    };
    pub use crate::gen::{
        chains, networks, random_chain, random_network, random_scenario, random_task_set,
        random_variant, GatewayChain, NetShape,
    };
    pub use crate::laws::{
        all_laws, law_by_name, law_names, pointwise_le, wcrts, Law, LawCase,
        ProbDominatesWorstCase, PROB_LAW,
    };
    pub use crate::oracle::{shrink_case, DiffOracle, Shrunk, Violation, ORACLE_LAW};
    pub use crate::repro::{ReplayError, Repro};
    pub use crate::runner::{run_fuzz, FuzzConfig, FuzzReport, LawOutcome, UnknownLawError};
    pub use carta_engine::prelude::{
        BaseSystem, ErrorSpec, Evaluator, FaultPlan, Parallelism, Scenario, SystemVariant,
    };
}
