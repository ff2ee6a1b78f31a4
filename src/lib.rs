//! # carta — Compositional Automotive Real-Time Analysis
//!
//! A from-scratch, open reproduction of the SymTA/S technology surveyed
//! in *"How OEMs and Suppliers can face the Network Integration
//! Challenges"* (Richter, Jersak, Ernst, 2006): CAN worst-case
//! response-time analysis with bit stuffing, controller types and
//! bus-error models; ECU (OSEK) scheduling analysis; compositional
//! system-level analysis via standard event models; sensitivity,
//! message-loss and extensibility exploration; SPEA2-based CAN-ID
//! optimization; and the supply-chain contract layer (datasheets,
//! requirement specifications, iterative refinement).
//!
//! This crate is a facade: it re-exports the workspace crates under
//! one name. See the individual crates for the full documentation:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `carta-core` | time, event models, load analysis, compositional engine |
//! | [`can`] | `carta-can` | CAN model, error models, WCRT analysis |
//! | [`ecu`] | `carta-ecu` | OSEK tasks, ECU analysis, TimeTables, send jitters |
//! | [`kmatrix`] | `carta-kmatrix` | K-Matrix model, CSV I/O, case-study generator |
//! | [`sim`] | `carta-sim` | discrete-event bus simulator, traces, Gantt |
//! | [`engine`] | `carta-engine` | batched, parallel, memoized variant evaluation |
//! | [`obs`] | `carta-obs` | metrics registry, scoped-span tracing, sinks |
//! | [`explore`] | `carta-explore` | what-if scenarios, sensitivity, loss, extensibility |
//! | [`optim`] | `carta-optim` | SPEA2 and CAN-ID optimization |
//! | [`contract`] | `carta-contract` | datasheets, compatibility, duality, scopes, refinement |
//!
//! ## Quickstart
//!
//! ```
//! use carta::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The synthetic power-train case study (64 messages, 8 ECUs).
//! let network = powertrain_default().to_network()?;
//! // Experiment 1 of the paper: zero jitters, no errors — all fine.
//! let eval = Evaluator::default();
//! let report = eval.loss_vs_jitter(&network, &Scenario::best_case(), &[0.0])?;
//! assert_eq!(report.points[0].missed, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use carta_can as can;
pub use carta_contract as contract;
pub use carta_core as core;
pub use carta_ecu as ecu;
pub use carta_engine as engine;
pub use carta_explore as explore;
pub use carta_kmatrix as kmatrix;
pub use carta_obs as obs;
pub use carta_optim as optim;
pub use carta_sim as sim;

/// One-stop import of the most common types across all crates.
pub mod prelude {
    pub use carta_can::prelude::*;
    pub use carta_contract::prelude::*;
    pub use carta_core::{
        analysis::ResponseBounds,
        comp::{CompositionalSystem, NodeRef, Resource, SlotResponse},
        event_model::{ActivationKind, EventModel},
        load::{bus_load, LoadReport, TrafficSource},
        time::Time,
        AnalysisError,
    };
    pub use carta_ecu::prelude::*;
    pub use carta_engine::prelude::*;
    pub use carta_explore::prelude::*;
    pub use carta_kmatrix::prelude::*;
    pub use carta_optim::prelude::*;
    pub use carta_sim::prelude::*;
}
