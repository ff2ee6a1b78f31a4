//! Per-tenant state: pooled evaluators with cache quotas, uploaded
//! K-Matrix sessions, and the admission window that decides when a
//! tenant is under pressure.
//!
//! One tenant = one [`Handler`] whose [`Evaluator`] carries a bounded
//! memo cache (`cache_quota` entries each for deterministic and
//! probabilistic reports; a shard that outgrows its share is cleared
//! whole inside the engine). Tenants themselves are also
//! an LRU set: beyond `max_tenants` the least-recently-used tenant is
//! dropped wholesale — evaluator cache, sessions, window — which is
//! exactly the "per-tenant cache eviction" the
//! `server.tenants.evicted` counter records. One misbehaving tenant
//! can therefore exhaust neither memory (quotas) nor compute
//! (admission window) for the others. Every tenant evaluator records
//! into the one registry of the server that owns the pool.

use crate::config::ServerConfig;
use carta_api::prelude::{ApiError, Handler};
use carta_engine::prelude::{Evaluator, Parallelism};
use carta_obs::metrics::MetricsRegistry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Admission verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Within the tenant's window budget: serve normally.
    Granted,
    /// Over budget: shed heavy requests, degrade `analyze`.
    Pressure {
        /// Milliseconds until the tenant's admission window resets —
        /// the honest `Retry-After` hint for a shed response.
        retry_after_ms: u64,
    },
}

/// One resident tenant.
#[derive(Debug)]
struct TenantState {
    handler: Handler,
    /// Uploaded K-Matrix CSVs, oldest first.
    sessions: Vec<(String, Arc<String>)>,
    next_session: u64,
    window_start: Instant,
    spent: u32,
    last_used: u64,
}

impl TenantState {
    fn new(
        config: &ServerConfig,
        metrics: &Arc<MetricsRegistry>,
        now: Instant,
        clock: u64,
    ) -> Self {
        let evaluator = Evaluator::builder()
            .parallelism(Parallelism::new(config.jobs))
            .cache_capacity(config.cache_quota)
            .metrics(metrics)
            .build();
        TenantState {
            handler: Handler::with_evaluator(Arc::new(evaluator), Parallelism::new(config.jobs)),
            sessions: Vec::new(),
            next_session: 1,
            window_start: now,
            spent: 0,
            last_used: clock,
        }
    }
}

#[derive(Debug)]
struct Inner {
    tenants: HashMap<String, TenantState>,
    clock: u64,
}

/// The tenant registry shared by every connection worker.
#[derive(Debug)]
pub struct TenantPool {
    config: ServerConfig,
    metrics: Arc<MetricsRegistry>,
    inner: Mutex<Inner>,
}

impl TenantPool {
    /// An empty pool with the given knobs, recording into `metrics`.
    pub fn new(config: ServerConfig, metrics: Arc<MetricsRegistry>) -> Self {
        TenantPool {
            config,
            metrics,
            inner: Mutex::new(Inner {
                tenants: HashMap::new(),
                clock: 0,
            }),
        }
    }

    /// Rejects tenant names that could not appear in a path segment or
    /// would make quota accounting ambiguous.
    ///
    /// # Errors
    ///
    /// [`carta_api::prelude::ErrorCode::RequestInvalid`] for empty,
    /// overlong or non `[A-Za-z0-9._-]` names.
    pub fn validate_tenant(name: &str) -> Result<(), ApiError> {
        let ok = !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
        if ok {
            Ok(())
        } else {
            Err(ApiError::request(format!(
                "invalid tenant name `{name}` (1-64 chars of [A-Za-z0-9._-])"
            )))
        }
    }

    /// The tenant's handler plus this request's admission verdict, in
    /// one lock acquisition. Creates the tenant on first contact and
    /// bumps its LRU position; the handler is cloned out (its
    /// evaluator is an `Arc`) so no analysis runs under the pool lock.
    pub fn checkout(&self, tenant: &str) -> (Handler, Admission) {
        let now = Instant::now();
        let mut inner = self.locked();
        let state = self.touch(&mut inner, tenant, now);
        if now.duration_since(state.window_start) >= Duration::from_millis(self.config.window_ms) {
            state.window_start = now;
            state.spent = 0;
        }
        state.spent = state.spent.saturating_add(1);
        let admission = if state.spent > self.config.budget {
            let window = Duration::from_millis(self.config.window_ms);
            let elapsed = now.duration_since(state.window_start);
            let remaining = window.saturating_sub(elapsed).as_millis() as u64;
            Admission::Pressure {
                retry_after_ms: remaining.max(1),
            }
        } else {
            Admission::Granted
        };
        let handler = state.handler.clone();
        drop(inner);
        self.evict_over_limit();
        (handler, admission)
    }

    /// Stores an uploaded K-Matrix CSV under a fresh session id
    /// (`s1`, `s2`, ...), evicting the tenant's oldest session beyond
    /// the per-tenant quota.
    pub fn put_session(&self, tenant: &str, csv: String) -> String {
        let now = Instant::now();
        let mut inner = self.locked();
        let state = self.touch(&mut inner, tenant, now);
        let id = format!("s{}", state.next_session);
        state.next_session += 1;
        state.sessions.push((id.clone(), Arc::new(csv)));
        let mut evicted = 0u64;
        while state.sessions.len() > self.config.max_sessions {
            state.sessions.remove(0);
            evicted += 1;
        }
        drop(inner);
        if evicted > 0 {
            self.metrics.counter("server.sessions.evicted").add(evicted);
        }
        self.evict_over_limit();
        id
    }

    /// Re-installs a session replayed from the persistence log under
    /// its *original* id, bumping the tenant's id counter past it so
    /// fresh uploads never collide with restored ones. Duplicate ids
    /// (an upload replayed twice) keep the last occurrence.
    pub fn restore_session(&self, tenant: &str, id: &str, csv: String) {
        let now = Instant::now();
        let mut inner = self.locked();
        let state = self.touch(&mut inner, tenant, now);
        if let Some(slot) = state.sessions.iter_mut().find(|(sid, _)| sid == id) {
            slot.1 = Arc::new(csv);
        } else {
            state.sessions.push((id.to_string(), Arc::new(csv)));
            while state.sessions.len() > self.config.max_sessions {
                state.sessions.remove(0);
            }
        }
        if let Some(n) = id.strip_prefix('s').and_then(|n| n.parse::<u64>().ok()) {
            state.next_session = state.next_session.max(n + 1);
        }
    }

    /// The CSV stored under `id` for `tenant`, if still resident.
    pub fn session(&self, tenant: &str, id: &str) -> Option<Arc<String>> {
        let inner = self.locked();
        inner
            .tenants
            .get(tenant)?
            .sessions
            .iter()
            .find(|(sid, _)| sid == id)
            .map(|(_, csv)| Arc::clone(csv))
    }

    /// Resident tenant count (test observability).
    pub fn tenant_count(&self) -> usize {
        self.locked().tenants.len()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            // A worker panicking while holding the lock cannot corrupt
            // the map (every critical section completes its mutation
            // before calling out); keep serving.
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn touch<'a>(&self, inner: &'a mut Inner, tenant: &str, now: Instant) -> &'a mut TenantState {
        inner.clock += 1;
        let clock = inner.clock;
        let state = inner
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState::new(&self.config, &self.metrics, now, clock));
        state.last_used = clock;
        state
    }

    /// Drops least-recently-used tenants (and with them their
    /// evaluator caches) until the resident set fits `max_tenants`.
    fn evict_over_limit(&self) {
        let mut evicted = 0u64;
        {
            let mut inner = self.locked();
            while inner.tenants.len() > self.config.max_tenants {
                let Some(coldest) = inner
                    .tenants
                    .iter()
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(name, _)| name.clone())
                else {
                    break;
                };
                inner.tenants.remove(&coldest);
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.metrics.counter("server.tenants.evicted").add(evicted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(budget: u32, max_tenants: usize, max_sessions: usize) -> TenantPool {
        TenantPool::new(
            ServerConfig {
                budget,
                max_tenants,
                max_sessions,
                window_ms: 60_000,
                ..ServerConfig::default()
            },
            Arc::new(MetricsRegistry::new()),
        )
    }

    #[test]
    fn budget_exhaustion_flips_to_pressure_per_tenant() {
        let pool = pool(2, 8, 16);
        assert_eq!(pool.checkout("a").1, Admission::Granted);
        assert_eq!(pool.checkout("a").1, Admission::Granted);
        match pool.checkout("a").1 {
            Admission::Pressure { retry_after_ms } => {
                assert!(retry_after_ms >= 1);
                assert!(retry_after_ms <= 60_000, "bounded by the window");
            }
            Admission::Granted => panic!("third request should hit pressure"),
        }
        // An unrelated tenant has its own window.
        assert_eq!(pool.checkout("b").1, Admission::Granted);
    }

    #[test]
    fn restored_sessions_keep_ids_and_advance_the_counter() {
        let pool = pool(32, 8, 16);
        pool.restore_session("a", "s4", "replayed".into());
        pool.restore_session("a", "s4", "replayed-again".into());
        assert_eq!(
            pool.session("a", "s4").as_deref().map(String::as_str),
            Some("replayed-again"),
            "duplicate replay keeps the last write"
        );
        let fresh = pool.put_session("a", "new".into());
        assert_eq!(fresh, "s5", "fresh ids never collide with restored ones");
    }

    #[test]
    fn sessions_store_resolve_and_evict_oldest_first() {
        let pool = pool(32, 8, 2);
        let s1 = pool.put_session("a", "one".into());
        let s2 = pool.put_session("a", "two".into());
        assert_eq!(
            pool.session("a", &s1).as_deref().map(String::as_str),
            Some("one")
        );
        let s3 = pool.put_session("a", "three".into());
        assert_eq!(pool.session("a", &s1), None, "oldest evicted");
        assert!(pool.session("a", &s2).is_some());
        assert!(pool.session("a", &s3).is_some());
        assert_eq!(pool.session("b", &s2), None, "sessions are tenant-scoped");
    }

    #[test]
    fn coldest_tenant_is_evicted_beyond_the_limit() {
        let pool = pool(32, 2, 16);
        pool.checkout("a");
        pool.checkout("b");
        pool.checkout("a"); // b is now coldest
        pool.checkout("c");
        assert_eq!(pool.tenant_count(), 2);
        let sid = pool.put_session("b", "csv".into());
        assert!(
            pool.session("b", &sid).is_some(),
            "an evicted tenant re-registers from scratch"
        );
    }

    #[test]
    fn tenant_names_are_validated() {
        assert!(TenantPool::validate_tenant("oem-1.prod").is_ok());
        assert!(TenantPool::validate_tenant("").is_err());
        assert!(TenantPool::validate_tenant("a/b").is_err());
        assert!(TenantPool::validate_tenant(&"x".repeat(65)).is_err());
    }

    #[test]
    fn evaluators_are_pooled_per_tenant() {
        let pool = pool(32, 8, 16);
        let (h1, _) = pool.checkout("a");
        let (h2, _) = pool.checkout("a");
        assert!(Arc::ptr_eq(h1.evaluator(), h2.evaluator()));
        let (h3, _) = pool.checkout("b");
        assert!(!Arc::ptr_eq(h1.evaluator(), h3.evaluator()));
    }
}
