//! Cooperative cancellation for long-running analyses.
//!
//! A [`CancelToken`] is a shared atomic flag plus an optional deadline.
//! Producers (a server drain, a per-request deadline, a test harness)
//! arm it; the engine's solve loops poll it at chunk and message
//! boundaries and abandon work with
//! [`AnalysisError::Cancelled`](crate::analysis::AnalysisError::Cancelled)
//! instead of running to completion.
//!
//! Cancellation is *cooperative and typed*: a cancelled evaluation
//! returns an error for the points it never finished, while every point
//! that completed before the trip is bit-identical to an uncancelled
//! run (the engine never caches or publishes partial solves).
//!
//! Tokens form a chain: [`CancelToken::child_with_deadline`] shares the parent's
//! flag (and deadline) while carrying its own, so a server can hold one
//! drain token and derive a per-request token with a tighter deadline —
//! cancelling the parent trips every child at once.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel for "no deadline" in the atomic nanosecond slot.
const NO_DEADLINE: u64 = u64::MAX;

#[derive(Debug)]
struct Inner {
    /// Explicit cancellation (drain, client gone, test).
    cancelled: AtomicBool,
    /// Deadline as nanoseconds after `base`; [`NO_DEADLINE`] when unset.
    deadline_ns: AtomicU64,
    /// The instant `deadline_ns` counts from (token creation).
    base: Instant,
    /// Ancestors whose cancellation trips this token too.
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn is_cancelled(&self) -> bool {
        if self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        let deadline = self.deadline_ns.load(Ordering::Relaxed);
        if deadline != NO_DEADLINE && elapsed_ns(self.base) >= deadline {
            return true;
        }
        match &self.parent {
            Some(parent) => parent.is_cancelled(),
            None => false,
        }
    }
}

fn elapsed_ns(base: Instant) -> u64 {
    u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(NO_DEADLINE - 1)
}

/// A shared, cloneable cancellation handle (flag + optional deadline).
///
/// Clones share state: cancelling any clone cancels them all. See the
/// [module docs](self) for the chaining contract.
///
/// ```
/// use carta_core::cancel::CancelToken;
/// use std::time::Duration;
///
/// let drain = CancelToken::new();
/// let request = drain.child_with_deadline(Some(Duration::from_secs(5)));
/// assert!(!request.is_cancelled());
/// drain.cancel();
/// assert!(request.is_cancelled(), "parent cancellation trips children");
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that only cancels when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline_ns: AtomicU64::new(NO_DEADLINE),
                base: Instant::now(),
                parent: None,
            }),
        }
    }

    /// A token that trips once `deadline` has elapsed from now (or when
    /// cancelled explicitly, whichever comes first).
    pub fn with_deadline(deadline: Duration) -> Self {
        let token = CancelToken::new();
        token.set_deadline(deadline);
        token
    }

    /// A child sharing this token's cancellation (and deadline) while
    /// carrying its own: the child trips when *either* its own deadline
    /// passes or any ancestor cancels. `deadline` is measured from now.
    pub fn child_with_deadline(&self, deadline: Option<Duration>) -> CancelToken {
        let child = CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline_ns: AtomicU64::new(NO_DEADLINE),
                base: Instant::now(),
                parent: Some(Arc::clone(&self.inner)),
            }),
        };
        if let Some(deadline) = deadline {
            child.set_deadline(deadline);
        }
        child
    }

    /// Arms (or tightens) the deadline to `deadline` from now.
    pub fn set_deadline(&self, deadline: Duration) {
        self.inner.deadline_ns.store(
            elapsed_ns(self.inner.base).saturating_add(duration_ns(deadline)),
            Ordering::Relaxed,
        );
    }

    /// Trips the token (and every clone and child) immediately.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether work holding this token should stop: explicitly
    /// cancelled, past its deadline, or any ancestor cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.inner.is_cancelled()
    }

    /// Time left until this token's own deadline (`None` when no
    /// deadline is armed; zero once it has passed). Ancestors'
    /// deadlines are not consulted — use [`CancelToken::is_cancelled`]
    /// for the effective verdict.
    pub fn remaining(&self) -> Option<Duration> {
        let deadline = self.inner.deadline_ns.load(Ordering::Relaxed);
        if deadline == NO_DEADLINE {
            return None;
        }
        Some(Duration::from_nanos(
            deadline.saturating_sub(elapsed_ns(self.inner.base)),
        ))
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tokens_never_cancel_until_asked() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.remaining(), None);
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadlines_trip_without_an_explicit_cancel() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled(), "a zero deadline has already passed");
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.remaining().is_some_and(|r| r > Duration::from_secs(3590)));
    }

    #[test]
    fn children_trip_on_parent_cancel_or_own_deadline() {
        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Some(Duration::from_secs(3600)));
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled());
        assert!(parent.child_with_deadline(None).remaining().is_none());

        let parent = CancelToken::new();
        let child = parent.child_with_deadline(Some(Duration::ZERO));
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "children never trip parents");
    }

    #[test]
    fn set_deadline_tightens() {
        let t = CancelToken::new();
        t.set_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
    }
}
