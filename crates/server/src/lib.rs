//! `carta-server`: multi-tenant analysis-as-a-service over
//! `carta.api.v1`.
//!
//! The server is a thin shell around [`carta_api::Handler`] — it owns
//! **no analysis logic**. What it adds is the service layer the
//! library deliberately does not have:
//!
//! * an HTTP/1.1 + JSON transport built on `std::net` alone
//!   ([`http`]) — like the `shims/` crates, no registry access means
//!   no hyper, and the API surface (three routes, JSON bodies) does
//!   not need one,
//! * per-tenant [`Evaluator`](carta_engine::prelude::Evaluator) pools
//!   with memo-cache quotas and LRU tenant eviction ([`tenant`]),
//! * admission control and load shedding ([`server`]): a tenant over
//!   its window budget has heavy requests shed with
//!   `admission.shed`/429 while `analyze` degrades to an immediate
//!   partial report — mirroring on the service level what the
//!   degraded-mode RTA does on the bus level,
//! * `GET /v1/metrics` in the same `carta.metrics.v1` document the
//!   CLI's `--metrics-json` writes: the server's own registry since
//!   bind, with the `server.*` counters,
//! * production lifecycle hardening ([`server`], [`state`]): graceful
//!   drain on SIGTERM/`stop()` with cooperative cancellation of
//!   in-flight work, per-request `deadline_ms` budgets, bearer-token
//!   tenant auth, HTTP/1.1 keep-alive with per-connection caps, and
//!   crash-safe session persistence (fsync-before-ack JSONL replayed
//!   on boot).
//!
//! ```no_run
//! use carta_server::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::from_env())?;
//! eprintln!("listening on {}", server.local_addr()?);
//! server.run()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Panic-free service surface: a malformed request must surface as a
// typed error, never a crash. Tests may still unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod http;
pub mod server;
pub mod state;
pub mod tenant;

pub use config::ServerConfig;
pub use server::{request_shutdown, Server, ServerHandle};
pub use state::{SessionRecord, StateLog};
pub use tenant::{Admission, TenantPool};
