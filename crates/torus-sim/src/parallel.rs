//! The workspace's worker-count default.
//!
//! The simulator itself runs single-threaded; the count resolved here
//! sizes the worker pools of the byte-moving runtime (`torus-runtime`)
//! and of the service engine (`torus-service`), which both depend on this
//! crate.

/// Number of worker threads to use by default.
///
/// The `TORUS_THREADS` environment variable, when set to a positive
/// integer, wins unconditionally. Otherwise this is the available
/// parallelism capped to 8 (per-node work is memory-bound; more threads
/// rarely help without an explicit opt-in).
pub fn default_threads() -> usize {
    if let Some(n) = env_threads() {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

/// The `TORUS_THREADS` override, if set to a positive integer (any other
/// value — unset, empty, zero, garbage — is ignored).
pub(crate) fn env_threads() -> Option<usize> {
    std::env::var("TORUS_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn env_threads_parses_positive_integers_only() {
        // Exercise the parser directly (default_threads_positive may run
        // concurrently, so only this test mutates the variable).
        std::env::set_var("TORUS_THREADS", "24");
        assert_eq!(env_threads(), Some(24));
        assert_eq!(default_threads(), 24); // override wins over the cap
        std::env::set_var("TORUS_THREADS", " 3 ");
        assert_eq!(env_threads(), Some(3));
        std::env::set_var("TORUS_THREADS", "0");
        assert_eq!(env_threads(), None);
        std::env::set_var("TORUS_THREADS", "lots");
        assert_eq!(env_threads(), None);
        std::env::remove_var("TORUS_THREADS");
        assert_eq!(env_threads(), None);
    }
}
