//! External cancellation and deadlines for in-flight runs.
//!
//! A [`CancelToken`] is a cheap clonable handle a caller keeps after
//! starting a run with
//! [`RuntimeConfig::with_cancel_token`](crate::RuntimeConfig::with_cancel_token).
//! Triggering it from any thread stops the run *cooperatively*: the
//! first worker to observe the trigger — at a step boundary, inside the
//! recovery receive loop, or mid-stall — records a typed
//! [`FailureReason::Cancelled`](crate::FailureReason::Cancelled) or
//! [`FailureReason::DeadlineExceeded`](crate::FailureReason::DeadlineExceeded)
//! and raises the run's existing first-failure-wins abort flag. Every
//! other worker then falls through its remaining barriers doing no
//! work, exactly like any other aborted run, so a cancelled run still
//! joins cleanly, leaks no threads, and yields a partial
//! [`RuntimeReport`](crate::RuntimeReport) inside
//! [`RuntimeError::Aborted`](crate::RuntimeError::Aborted).
//!
//! A deadline set with [`CancelToken::expire_at`] needs no timer
//! thread: the token turns itself into
//! [`CancelKind::DeadlineExceeded`] at the first poll past the
//! deadline, so the runtime's own checkpoints are where it is read. A
//! token without a deadline never reads the clock.
//!
//! Triggering is idempotent and first-wins: once a token is triggered,
//! later triggers (of either flavor) change nothing.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

/// Why a [`CancelToken`] was triggered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelKind {
    /// An explicit external cancellation request.
    Cancelled,
    /// The token's deadline passed before the run finished.
    DeadlineExceeded,
}

#[derive(Debug, Default)]
struct Shared {
    state: AtomicU8,
    deadline: OnceLock<Instant>,
}

/// A shared trigger that stops a running exchange between steps.
///
/// Clones share state; the token outliving the run is fine (triggering
/// after the run finished is a no-op).
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    shared: Arc<Shared>,
}

impl CancelToken {
    /// A fresh, untriggered token without a deadline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cooperative cancellation. Returns `true` if this call
    /// was the first trigger.
    pub fn cancel(&self) -> bool {
        self.trigger(CANCELLED)
    }

    /// Sets the instant past which the token reads as
    /// [`CancelKind::DeadlineExceeded`]. The first deadline set wins;
    /// returns `true` if this call set it.
    pub fn expire_at(&self, at: Instant) -> bool {
        self.shared.deadline.set(at).is_ok()
    }

    fn trigger(&self, value: u8) -> bool {
        self.shared
            .state
            .compare_exchange(LIVE, value, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The trigger state, if any. Workers poll this at step boundaries;
    /// the first poll past the deadline triggers the token, unless a
    /// `cancel` got there first.
    pub(crate) fn kind(&self) -> Option<CancelKind> {
        let mut state = self.shared.state.load(Ordering::Acquire);
        if state == LIVE {
            let at = self.shared.deadline.get()?;
            if Instant::now() < *at {
                return None;
            }
            self.trigger(DEADLINE);
            state = self.shared.state.load(Ordering::Acquire);
        }
        Some(if state == CANCELLED {
            CancelKind::Cancelled
        } else {
            CancelKind::DeadlineExceeded
        })
    }

    /// Whether the token has been triggered (either flavor).
    pub(crate) fn is_triggered(&self) -> bool {
        self.kind().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn past() -> Instant {
        Instant::now()
    }

    fn future() -> Instant {
        Instant::now() + Duration::from_secs(3600)
    }

    #[test]
    fn first_trigger_wins() {
        let token = CancelToken::new();
        assert_eq!(token.kind(), None);
        assert!(!token.is_triggered());
        assert!(token.cancel());
        assert!(!token.cancel(), "second trigger must not count");
        token.expire_at(past());
        assert_eq!(token.kind(), Some(CancelKind::Cancelled));
        assert!(token.is_triggered());
    }

    #[test]
    fn a_passed_deadline_reads_deadline_exceeded() {
        let token = CancelToken::new();
        assert!(token.expire_at(past()));
        assert_eq!(token.kind(), Some(CancelKind::DeadlineExceeded));
        assert!(!token.cancel(), "the deadline triggered first");
        assert_eq!(token.kind(), Some(CancelKind::DeadlineExceeded));
    }

    #[test]
    fn a_future_deadline_reads_none() {
        let token = CancelToken::new();
        assert!(token.expire_at(future()));
        assert_eq!(token.kind(), None);
        assert!(!token.is_triggered());
    }

    #[test]
    fn a_cancel_before_the_first_poll_past_the_deadline_wins() {
        let token = CancelToken::new();
        token.expire_at(past());
        assert!(token.cancel());
        assert_eq!(token.kind(), Some(CancelKind::Cancelled));
    }

    #[test]
    fn a_second_deadline_does_not_move_the_first() {
        let token = CancelToken::new();
        assert!(token.expire_at(future()));
        assert!(!token.expire_at(past()));
        assert_eq!(token.kind(), None);
    }

    #[test]
    fn clones_share_state() {
        let token = CancelToken::new();
        let clone = token.clone();
        token.cancel();
        assert!(clone.is_triggered());
        let token = CancelToken::new();
        token.clone().expire_at(past());
        assert_eq!(token.kind(), Some(CancelKind::DeadlineExceeded));
    }
}
