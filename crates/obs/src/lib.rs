//! Structured observability for the vcoord workspace: counters, histograms,
//! and timed spans registered against static metric ids, recorded into
//! per-thread buffers, plus a JSONL trace exporter and its reader.
//!
//! # Design
//!
//! There is one recording plane. [`counter_add`], [`observe`], [`event`]
//! and [`span`] record against the metric-name registry into a per-thread
//! buffer, compiled around a single process-global mode flag
//! ([`set_mode`]). With the mode [`ObsMode::Off`] (the default) every
//! recording call is one relaxed atomic load and a branch: no allocation,
//! no clock read, no thread-local borrow — cheap enough to leave in the
//! hottest inspect/update/fit loops.
//!
//! # Ownership discipline
//!
//! Per-thread buffers are merged *sequentially*: a worker thread of a
//! figure's job pool records freely without synchronization, then
//! [`drain`]s its buffer into an [`ObsReport`] at a deterministic point
//! (the end of one job), and the coordinator [`absorb`]s the reports in a
//! deterministic order (job order). Traces produced this way are
//! byte-identical regardless of worker count — the same argument that keeps the pool
//! width out of the figure CSV bytes.
//!
//! # Invariants
//!
//! 1. **Numerics-inert**: nothing in this crate feeds back into simulation
//!    state; golden CSVs are byte-identical with tracing on or off.
//! 2. **Near-free when off**: the disabled path allocates nothing (asserted
//!    under [`testing::CountingAllocator`]) and reads no clock.
//!
//! # JSONL trace schema
//!
//! One file per figure, one JSON object per line ([`render_jsonl`] /
//! [`parse_jsonl`]), schema version 2:
//!
//! ```text
//! {"type":"meta","schema":2,"run":"smoke-seed2006","fig":"fig1","seed":2006,"scale":"smoke"}
//! {"type":"counter","metric":"defense.accept","value":123}
//! {"type":"hist","metric":"nps.round_evals","count":10,"sum":521,"min":8,"max":120,"p50":44.5,"p90":101,"p95":118,"p99":118}
//! {"type":"event","metric":"defense.flag","rep":0,"round":12,"node":5,"value":1}
//! ```
//!
//! The `meta` line is always first. `rep` is the repetition index (`-1`
//! outside any repetition), `round` the simulation round, `node` a node id
//! or `null` ([`NO_NODE`]), `value` a metric-specific payload. Counter and
//! hist lines summarize the whole run, each block in metric-name order
//! (metric ids are handed out on first use, which depends on thread timing
//! and on what the process ran earlier); event lines are the per-round
//! trace, in recording order. Trace files are **byte-deterministic** in
//! `(run, fig, seed, scale)`: the meta line carries no wall-clock fields,
//! and exporters call [`ObsReport::strip_timings`] so wall-clock
//! histograms (metric names ending `_ns`) never reach a trace file — they
//! remain available in-process (e.g. the bench-baseline `"obs"` block).

#![deny(unsafe_code)]

pub mod diff;
mod export;
mod hdr;
pub mod json;
mod record;
mod registry;
mod report;
// The counting `GlobalAlloc` is the workspace's only unsafe code outside
// the x86_64 keystream refill of the vendored `rand_chacha`.
#[allow(unsafe_code)]
pub mod testing;

pub use export::{parse_jsonl, render_jsonl, TraceError, TraceErrorKind, TraceLine, TraceMeta};
pub use record::{
    absorb, counter_add, drain, event, observe, reset, span, Event, HistData, ObsReport, Span,
    NO_NODE,
};
pub use registry::{metric, metric_name, MetricId};
pub use report::{digest, summarize, summary_text, Digest, HistRow, RoundRow, SummaryRow};

use std::sync::atomic::{AtomicU8, Ordering};

/// Global recording mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsMode {
    /// Default: recording calls are a load-and-branch no-op.
    Off,
    /// Counters, histograms and spans are live; events are dropped (their
    /// one reader is the JSONL export).
    Metrics,
    /// Everything in `Metrics`, plus events buffered per-thread for JSONL
    /// export.
    Trace,
}

static MODE: AtomicU8 = AtomicU8::new(0);

/// Set the process-global recording mode. Intended to be called once at
/// binary start-up (or around a test body); flipping it mid-run leaves
/// partially recorded buffers behind but is otherwise harmless.
pub fn set_mode(mode: ObsMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The current recording mode.
#[inline]
pub fn mode() -> ObsMode {
    match MODE.load(Ordering::Relaxed) {
        0 => ObsMode::Off,
        1 => ObsMode::Metrics,
        _ => ObsMode::Trace,
    }
}

/// Whether anything is recorded at all (mode is not [`ObsMode::Off`]).
///
/// Instrumentation sites that do extra work to *prepare* a record (clock
/// reads, id lookups) should gate on this; the recording calls themselves
/// already check.
#[inline]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != 0
}

/// Whether events are buffered for export (mode is [`ObsMode::Trace`]).
#[inline]
pub(crate) fn tracing() -> bool {
    MODE.load(Ordering::Relaxed) == ObsMode::Trace as u8
}

/// The mode is process-global and libtest runs unit tests on parallel
/// threads: every unit test that sets the mode, or relies on it being
/// `Off`, holds this guard for its whole body.
#[cfg(test)]
pub(crate) fn mode_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed holder restored nothing worth protecting; keep going.
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_round_trips() {
        let _mode = mode_test_guard();
        assert_eq!(mode(), ObsMode::Off);
        set_mode(ObsMode::Trace);
        assert_eq!(mode(), ObsMode::Trace);
        assert!(enabled() && tracing());
        set_mode(ObsMode::Metrics);
        assert!(enabled() && !tracing());
        set_mode(ObsMode::Off);
        assert!(!enabled());
    }
}
