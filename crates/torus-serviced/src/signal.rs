//! SIGTERM hookup without a signal-handling dependency.
//!
//! The daemon's graceful-drain contract is "SIGTERM behaves like a
//! `drain` request". All a signal handler can safely do is set a flag,
//! so that is all this module does: `install()` registers a handler
//! that stores into a process-global atomic, and the daemon's reactor
//! checks `triggered()` once per loop iteration — when idle, within
//! its 50 ms idle poll. The libc `signal` entry point is declared
//! directly — the container has no signal crate, and one `extern "C"`
//! line beats carrying one.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

/// `SIGTERM` on every platform Linux CI runs this on.
#[cfg(unix)]
const SIGTERM: i32 = 15;

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn raise(signum: i32) -> i32;
}

#[cfg(unix)]
extern "C" fn on_sigterm(_signum: i32) {
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM-sets-a-flag handler. Safe to call repeatedly.
/// On non-unix targets this is a no-op ([`triggered`] then only fires
/// via [`raise_sigterm`]).
pub(crate) fn install() {
    #[cfg(unix)]
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
}

/// Whether a SIGTERM has arrived since [`install`].
pub(crate) fn triggered() -> bool {
    TERM_REQUESTED.load(Ordering::SeqCst)
}

/// Resets the flag — for tests that exercise the drain path twice.
pub fn reset() {
    TERM_REQUESTED.store(false, Ordering::SeqCst);
}

/// Delivers a real SIGTERM to this process (unix) or just sets the flag
/// (elsewhere). Used by the drain tests; with the handler installed the
/// process survives and the daemon sees the flag.
pub fn raise_sigterm() {
    #[cfg(unix)]
    unsafe {
        raise(SIGTERM);
    }
    #[cfg(not(unix))]
    TERM_REQUESTED.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_sigterm_sets_flag_and_process_survives() {
        install();
        reset();
        assert!(!triggered());
        raise_sigterm();
        assert!(triggered(), "handler must have caught the signal");
        reset();
    }
}
