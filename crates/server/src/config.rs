//! Server tuning knobs, every one overridable through a
//! `CARTA_SERVER_*` environment variable so deployments never need a
//! config file.

use std::str::FromStr;

/// All server tuning knobs with their defaults.
///
/// [`ServerConfig::from_env`] reads each field from the
/// `CARTA_SERVER_*` variable named in its doc comment. An unset
/// variable keeps the default; a set but malformed one — an
/// unparsable number or a bad `CARTA_SERVER_TOKENS` entry — refuses to
/// boot rather than run with a configuration nobody asked for.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`CARTA_SERVER_ADDR`). Use port `0` to let the
    /// OS pick — tests do.
    pub addr: String,
    /// Connection-handling worker threads (`CARTA_SERVER_WORKERS`).
    pub workers: usize,
    /// Per-tenant evaluator parallelism in jobs
    /// (`CARTA_SERVER_JOBS`). Tenants share the machine, so the
    /// default is sequential; raise it on dedicated hardware.
    pub jobs: usize,
    /// Per-tenant evaluator memo-cache quota in entries
    /// (`CARTA_SERVER_CACHE_QUOTA`), applied to deterministic and
    /// probabilistic reports alike. The engine's memo clears whole
    /// shards within a tenant once a shard's share of the quota is hit.
    pub cache_quota: usize,
    /// Resident tenant limit (`CARTA_SERVER_MAX_TENANTS`). The
    /// least-recently-used tenant — evaluator cache, sessions and all —
    /// is evicted beyond this.
    pub max_tenants: usize,
    /// Uploaded sessions kept per tenant
    /// (`CARTA_SERVER_MAX_SESSIONS`); oldest-first eviction beyond.
    pub max_sessions: usize,
    /// Request body ceiling in bytes (`CARTA_SERVER_MAX_BODY`).
    pub max_body: usize,
    /// Admission window length in milliseconds
    /// (`CARTA_SERVER_WINDOW_MS`).
    pub window_ms: u64,
    /// Requests one tenant may spend per window
    /// (`CARTA_SERVER_BUDGET`) before pressure handling kicks in:
    /// heavy requests are shed, `analyze` degrades.
    pub budget: u32,
    /// Fixpoint-iteration budget for degraded-mode `analyze`
    /// (`CARTA_SERVER_DEGRADED_ITERATIONS`). Deliberately tiny: the
    /// point of the degraded report is an immediate partial answer
    /// whose unconverged messages carry diagnostics, not a cheap way
    /// around admission control.
    pub degraded_iterations: u64,
    /// Graceful-drain budget in milliseconds (`CARTA_SERVER_DRAIN_MS`).
    /// On SIGTERM / `stop()` the server stops accepting, waits up to
    /// this long for in-flight requests, then cancels the stragglers
    /// cooperatively and exits 0 either way.
    pub drain_ms: u64,
    /// Session persistence directory (`CARTA_SERVER_STATE_DIR`).
    /// When set, every acked session upload is appended to
    /// `sessions.jsonl` in this directory and fsync'd before the `201`
    /// goes out; the log is replayed on boot so a crash never loses an
    /// acked session. Unset (the default) keeps sessions memory-only.
    pub state_dir: Option<String>,
    /// Bearer-token auth map (`CARTA_SERVER_TOKENS`), formatted as
    /// `token1=tenant1,token2=tenant2`. When non-empty, every request
    /// must carry `authorization: bearer <token>`; the token picks the
    /// tenant and the `x-carta-tenant` header is only honored if it
    /// names the same tenant. When empty (the default) the server
    /// trusts `x-carta-tenant`, preserving pre-auth behavior.
    pub tokens: Vec<(String, String)>,
    /// Requests served per connection before the server closes it
    /// (`CARTA_SERVER_KEEPALIVE_MAX`). Caps how long one client can
    /// monopolize a worker thread under HTTP/1.1 keep-alive.
    pub keepalive_max: u32,
    /// Idle timeout between keep-alive requests in milliseconds
    /// (`CARTA_SERVER_IDLE_MS`). A connection that sends nothing for
    /// this long is closed.
    pub idle_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7006".into(),
            workers: 4,
            jobs: 1,
            cache_quota: 4096,
            max_tenants: 8,
            max_sessions: 16,
            max_body: 1 << 20,
            window_ms: 1000,
            budget: 32,
            degraded_iterations: 4,
            drain_ms: 5000,
            state_dir: None,
            tokens: Vec::new(),
            keepalive_max: 64,
            idle_ms: 5000,
        }
    }
}

impl ServerConfig {
    /// The defaults overridden by whatever `CARTA_SERVER_*` variables
    /// are set in the environment.
    ///
    /// # Panics
    ///
    /// Panics — so the server refuses to boot — when a numeric knob is
    /// set to a value its type cannot parse (the message names the
    /// variable and the value), or when `CARTA_SERVER_TOKENS` is set but
    /// holds an entry without a `=` or with an empty token or tenant.
    /// Skipping a bad token entry instead could leave the map empty,
    /// which would silently disable auth.
    pub fn from_env() -> Self {
        let d = ServerConfig::default();
        ServerConfig {
            addr: std::env::var("CARTA_SERVER_ADDR").unwrap_or(d.addr),
            workers: env_parse("CARTA_SERVER_WORKERS", d.workers).max(1),
            jobs: env_parse("CARTA_SERVER_JOBS", d.jobs).max(1),
            cache_quota: env_parse("CARTA_SERVER_CACHE_QUOTA", d.cache_quota).max(1),
            max_tenants: env_parse("CARTA_SERVER_MAX_TENANTS", d.max_tenants).max(1),
            max_sessions: env_parse("CARTA_SERVER_MAX_SESSIONS", d.max_sessions).max(1),
            max_body: env_parse("CARTA_SERVER_MAX_BODY", d.max_body).max(1024),
            window_ms: env_parse("CARTA_SERVER_WINDOW_MS", d.window_ms).max(1),
            budget: env_parse("CARTA_SERVER_BUDGET", d.budget).max(1),
            degraded_iterations: env_parse(
                "CARTA_SERVER_DEGRADED_ITERATIONS",
                d.degraded_iterations,
            )
            .max(1),
            drain_ms: env_parse("CARTA_SERVER_DRAIN_MS", d.drain_ms),
            state_dir: std::env::var("CARTA_SERVER_STATE_DIR")
                .ok()
                .filter(|v| !v.is_empty()),
            tokens: match std::env::var("CARTA_SERVER_TOKENS") {
                Ok(raw) => parse_tokens(&raw).unwrap_or_else(|e| panic!("{e}")),
                Err(_) => d.tokens,
            },
            keepalive_max: env_parse("CARTA_SERVER_KEEPALIVE_MAX", d.keepalive_max).max(1),
            idle_ms: env_parse("CARTA_SERVER_IDLE_MS", d.idle_ms).max(1),
        }
    }

    /// The tenant a bearer token maps to, if auth is configured and
    /// the token is known.
    pub fn tenant_for_token(&self, token: &str) -> Option<&str> {
        self.tokens
            .iter()
            .find(|(t, _)| t == token)
            .map(|(_, tenant)| tenant.as_str())
    }

    /// Whether bearer-token auth is enforced (any token configured).
    pub fn auth_enabled(&self) -> bool {
        !self.tokens.is_empty()
    }
}

/// Parses `token1=tenant1,token2=tenant2`, failing closed: the error
/// names the first entry without a `=` or with an empty side.
fn parse_tokens(raw: &str) -> Result<Vec<(String, String)>, String> {
    raw.split(',')
        .map(|entry| match entry.split_once('=') {
            Some((token, tenant)) if !token.trim().is_empty() && !tenant.trim().is_empty() => {
                Ok((token.trim().to_string(), tenant.trim().to_string()))
            }
            _ => Err(format!(
                "CARTA_SERVER_TOKENS entry {:?} is not `token=tenant`; refusing to boot",
                entry.trim()
            )),
        })
        .collect()
}

/// The value of numeric knob `key`, or `default` when it is unset.
/// A set but unparsable value panics with [`parse_knob`]'s message.
fn env_parse<T: FromStr>(key: &str, default: T) -> T {
    match std::env::var_os(key) {
        None => default,
        Some(raw) => parse_knob(key, &raw.to_string_lossy()).unwrap_or_else(|e| panic!("{e}")),
    }
}

/// Parses `raw` (surrounding whitespace ignored), failing closed with
/// an error that names the variable and the value.
fn parse_knob<T: FromStr>(key: &str, raw: &str) -> Result<T, String> {
    raw.trim().parse().map_err(|_| {
        format!(
            "{key}={raw:?} is not a valid {}; refusing to boot",
            std::any::type_name::<T>()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.budget >= 1);
        assert!(c.degraded_iterations >= 1);
        assert!(c.max_body >= 1024);
        assert!(c.keepalive_max >= 1);
        assert!(c.state_dir.is_none());
        assert!(!c.auth_enabled());
    }

    #[test]
    fn numeric_knobs_parse_or_fail_closed_by_name() {
        assert_eq!(parse_knob::<usize>("CARTA_SERVER_WORKERS", " 4 "), Ok(4));
        assert_eq!(parse_knob::<u64>("CARTA_SERVER_DRAIN_MS", "0"), Ok(0));
        assert_eq!(
            parse_knob::<u32>("CARTA_SERVER_BUDGET", "1000000000"),
            Ok(1_000_000_000)
        );
        let err = parse_knob::<usize>("CARTA_SERVER_WORKERS", "four").expect_err("usize");
        assert!(err.contains("CARTA_SERVER_WORKERS=\"four\""), "{err}");
        let err = parse_knob::<u64>("CARTA_SERVER_IDLE_MS", "-5").expect_err("u64");
        assert!(err.contains("CARTA_SERVER_IDLE_MS=\"-5\""), "{err}");
        let err = parse_knob::<u32>("CARTA_SERVER_BUDGET", "4294967296").expect_err("u32");
        assert!(err.contains("CARTA_SERVER_BUDGET=\"4294967296\""), "{err}");
        let err = parse_knob::<u32>("CARTA_SERVER_KEEPALIVE_MAX", "").expect_err("empty");
        assert!(err.contains("refusing to boot"), "{err}");
    }

    #[test]
    fn token_map_parses_well_formed_entries() {
        let tokens = parse_tokens("alpha=oem-1, beta = supplier-2 ").expect("well formed");
        let config = ServerConfig {
            tokens,
            ..ServerConfig::default()
        };
        assert!(config.auth_enabled());
        assert_eq!(config.tenant_for_token("alpha"), Some("oem-1"));
        assert_eq!(config.tenant_for_token("beta"), Some("supplier-2"));
        assert_eq!(config.tenant_for_token("junk"), None);
    }

    #[test]
    fn token_map_rejects_malformed_entries_by_name() {
        for (raw, bad) in [
            ("alpha=oem-1,junk", "junk"),
            ("=x", "=x"),
            ("alpha=oem-1, y= ", "y="),
            ("alpha=oem-1,", ""),
            ("", ""),
        ] {
            let err = parse_tokens(raw).expect_err(raw);
            assert!(err.contains(&format!("{bad:?}")), "{raw}: {err}");
        }
    }

    #[test]
    fn a_token_typo_never_disables_auth() {
        // `:` instead of `=`: skipping the entry would leave no tokens
        // and switch auth off; the boot must fail instead.
        match parse_tokens("tok:oem") {
            Ok(tokens) => {
                let config = ServerConfig {
                    tokens,
                    ..ServerConfig::default()
                };
                assert!(config.auth_enabled(), "a typo disabled auth");
            }
            Err(e) => assert!(e.contains("\"tok:oem\""), "{e}"),
        }
    }
}
