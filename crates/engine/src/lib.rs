//! # carta-engine
//!
//! The unified evaluation engine of the `carta` workspace: every caller
//! that asks "what would the RTA say about this variant of the network"
//! — sensitivity sweeps, loss curves, extensibility searches, the SPEA2
//! identifier optimizer, benches — routes through one [`Evaluator`].
//!
//! The paper's headline workloads (Sec. 4.1–4.3) all reduce to
//! evaluating the same analysis over thousands of network variants.
//! Three mechanisms make that cheap:
//!
//! * **Overlays, not clones** — a [`SystemVariant`] is a shared
//!   [`BaseSystem`] plus small deltas (jitter assumption, error model,
//!   deadline override, identifier permutation). Every variant takes
//!   one solve path: its activation/deadline rows fill a per-thread
//!   solve point against the base's compiled tables — or, for a
//!   permutation, a per-thread reordered copy of them — and warm-start
//!   from the previous solve. No network is cloned per point.
//! * **Memoization** — the [`Evaluator`] caches reports in a sharded
//!   map keyed by the structural [`VariantKey`], so repeated genomes
//!   across GA generations and overlapping sweep grids hit the cache.
//! * **Parallel batches** — [`Evaluator::evaluate_batch`] fans a slice
//!   of variants out over [`Parallelism::jobs`] worker threads
//!   (`CARTA_JOBS` env var / `--jobs` CLI flag); results and
//!   [`CacheStats`] are bit-identical at any job count.
//!
//! ```
//! use carta_engine::prelude::*;
//! use carta_can::prelude::*;
//! use carta_core::time::Time;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = CanNetwork::new(500_000);
//! let a = net.add_node(Node::new("A", ControllerType::FullCan));
//! net.add_message(CanMessage::new(
//!     "m", CanId::standard(0x100)?, Dlc::new(8),
//!     Time::from_ms(10), Time::ZERO, a,
//! ));
//! let base = BaseSystem::new(net);
//! let eval = Evaluator::new(Parallelism::sequential());
//! let variants: Vec<SystemVariant> = [0.0, 0.25, 0.60]
//!     .iter()
//!     .map(|&r| SystemVariant::new(base.clone(), Scenario::worst_case()).with_jitter_ratio(r))
//!     .collect();
//! let reports = eval.evaluate_batch(&variants);
//! assert!(reports.iter().all(|r| r.is_ok()));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Panic-free library surface: a malformed model must surface as a
// typed error, never a crash. Tests and benches may still unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod evaluator;
pub mod jitter;
pub mod scenario;
pub mod variant;

/// Convenient single import for the common types of this crate.
pub mod prelude {
    pub use crate::evaluator::{
        CacheStats, EvalResult, Evaluator, EvaluatorBuilder, FaultPlan, Parallelism, ProbEvalResult,
    };
    pub use crate::jitter::{with_assumed_unknown_jitter, with_jitter_ratio, with_scaled_jitter};
    pub use crate::scenario::{DeadlineOverride, ErrorSpec, Scenario};
    pub use crate::variant::{BaseSystem, JitterOverlay, SystemVariant, VariantKey};
    pub use carta_core::cancel::CancelToken;
}
