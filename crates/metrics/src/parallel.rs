//! Workspace-wide worker-pool sizing.
//!
//! Both parallel seams in the workspace — the figure harness's job grid
//! and [`EvalPlan`]'s chunked error evaluation nested inside it — size
//! themselves through [`worker_threads`], so one call to
//! [`set_worker_budget`] pins the parallelism for reproducible CI and
//! benchmarking on any core count. The binaries install `VCOORD_THREADS`
//! through it; this crate reads no environment.
//!
//! [`EvalPlan`]: crate::EvalPlan

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide budget installed by [`set_worker_budget`]; `0` = unset.
static BUDGET: AtomicUsize = AtomicUsize::new(0);

/// Cap every worker pool in this process at `n` threads (clamped to ≥ 1),
/// overriding the hardware default.
///
/// Used by binaries to install a `VCOORD_THREADS` pin (the benchmark's
/// child process installs its thread budget the same way).
pub fn set_worker_budget(n: usize) {
    BUDGET.store(n.max(1), Ordering::Relaxed);
}

/// Worker-pool width: a [`set_worker_budget`] cap when installed, else the
/// machine's available parallelism (minimum 1).
pub fn worker_threads() -> usize {
    match BUDGET.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        budget => budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn budget_caps_worker_threads() {
        // Runs in its own test process (unit tests of this crate share it,
        // but every consumer is bit-identical for any width, so a leaked
        // budget only affects scheduling).
        set_worker_budget(3);
        assert_eq!(worker_threads(), 3);
        set_worker_budget(0); // clamped to 1, never a zero-width pool
        assert_eq!(worker_threads(), 1);
    }
}
