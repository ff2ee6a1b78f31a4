//! # carta-contract
//!
//! The supply-chain layer of the `carta` workspace — the paper's
//! Section 5 turned into an API:
//!
//! * [`spec`] — datasheets (guarantees) and requirement specifications,
//!   the event-model interface of ref. \[11\] that protects both parties'
//!   IP,
//! * [`compat`] — "what is assumed and required must later be
//!   guaranteed": arrival-bound and freshness compatibility checks,
//! * [`duality`] — Figure 6 end to end: OEM receive guarantees, OEM
//!   send requirements (per-message jitter slack), supplier datasheets
//!   from ECU analysis,
//! * [`scope`] — Figure 3's information partition and the assumptions
//!   an analysis needs,
//! * [`refinement`] — Section 5.2's iterative refinement as
//!   assumptions are replaced by real data.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Panic-free library surface: a malformed model must surface as a
// typed error, never a crash. Tests and benches may still unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod compat;
pub mod duality;
pub mod refinement;
pub mod scope;
pub mod spec;

/// Convenient single import for the common types of this crate.
pub mod prelude {
    pub use crate::compat::{check, check_freshness, check_model, CompatReport, Verdict};
    pub use crate::duality::{
        max_message_jitter, oem_receive_guarantees, oem_send_requirements, supplier_send_datasheet,
    };
    pub use crate::refinement::{RefinementSession, RefinementStep};
    pub use crate::scope::{analysis_readiness, InformationScope, ReadinessReport};
    pub use crate::spec::{Datasheet, RequirementSpec};
}
