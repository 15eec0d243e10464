//! The recording plane: per-thread counters, histograms, spans, and
//! event buffers, drained into [`ObsReport`]s and merged sequentially.

use crate::hdr;
use crate::registry::{metric_name, MetricId};
use crate::{enabled, tracing};
use std::cell::RefCell;
use std::time::Instant;

/// `node` value for events with no node subject.
pub const NO_NODE: u32 = u32::MAX;

/// `rep` value for events recorded outside any repetition (see
/// [`ObsReport::retag_rep`]).
pub const NO_REP: i32 = -1;

/// One structured event: something that happened to `node` at `round`
/// during repetition `rep`, with a metric-specific `value` payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    pub metric: MetricId,
    pub rep: i32,
    pub round: u64,
    pub node: u32,
    pub value: f64,
}

/// Summary histogram of [`observe`]d values for one metric: count, sum,
/// min/max, and HDR log buckets (allocated lazily on the first sample, so
/// an empty `HistData` costs nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct HistData {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: Vec<u64>,
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }
}

impl HistData {
    /// Record one sample: running count/sum/min/max plus an HDR bucket
    /// increment (buckets allocate lazily on the first sample).
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if self.buckets.is_empty() {
            self.buckets = vec![0; hdr::BUCKET_COUNT];
        }
        self.buckets[hdr::index_of(hdr::value_to_u64(value))] += 1;
    }

    /// Fold `other` into `self`: bucket-wise addition, so quantiles of the
    /// merge equal quantiles of recording the union into one histogram.
    pub fn merge(&mut self, other: &HistData) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if other.buckets.is_empty() {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = other.buckets.clone();
            return;
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observed value (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        self.sum / self.count as f64
    }

    /// Nearest-rank quantile estimate from the HDR buckets (`NaN` when
    /// empty); error bounded by one bucket width at that magnitude.
    pub fn quantile(&self, q: f64) -> f64 {
        hdr::quantile_from_buckets(&self.buckets, self.count, q)
    }

    /// Tail quantiles in one call: `(p50, p90, p95, p99)`.
    pub fn percentiles(&self) -> (f64, f64, f64, f64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

#[derive(Default)]
struct Recorder {
    counters: Vec<u64>,
    hists: Vec<HistData>,
    events: Vec<Event>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> R {
    RECORDER.with(|cell| f(&mut cell.borrow_mut()))
}

/// A drained snapshot of one thread's records.
/// Counters and histograms are sorted by metric *name*; events are in
/// recording order. Metric ids are handed out on first use, which races
/// between worker threads and depends on what the process ran before —
/// names do not, so whatever walks a report (a trace, the `obs` block of a
/// `BENCH_*.json`) lists its keys in the same order on every run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ObsReport {
    counters: Vec<(MetricId, u64)>,
    hists: Vec<(MetricId, HistData)>,
    events: Vec<Event>,
}

impl ObsReport {
    /// Non-zero counters, sorted by metric name.
    pub fn counters(&self) -> &[(MetricId, u64)] {
        &self.counters
    }

    /// Non-empty histograms, sorted by metric name.
    pub fn hists(&self) -> &[(MetricId, HistData)] {
        &self.hists
    }

    /// Buffered events in recording order (empty unless the run was in
    /// [`ObsMode::Trace`](crate::ObsMode::Trace)).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The value of one counter (0 if absent).
    pub fn counter(&self, id: MetricId) -> u64 {
        self.counters
            .iter()
            .find(|&&(i, _)| i == id)
            .map_or(0, |&(_, n)| n)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty() && self.events.is_empty()
    }

    /// Stamp `rep` onto every event still tagged [`NO_REP`]. Called by the
    /// repetition harness right after draining a worker, so nested merges
    /// never re-tag.
    pub fn retag_rep(&mut self, rep: i32) {
        for e in &mut self.events {
            if e.rep == NO_REP {
                e.rep = rep;
            }
        }
    }

    /// Drop every wall-clock histogram (`is_timing`). Trace files must
    /// be byte-identical across reruns and pool widths, and timing samples
    /// are the one nondeterministic thing the recorder holds — exporters
    /// call this before rendering; the timings remain available to
    /// in-process consumers (bench baselines, digests).
    pub fn strip_timings(&mut self) {
        self.hists.retain(|(id, _)| !is_timing(metric_name(*id)));
    }
}

/// Whether a histogram holds wall-clock samples: its metric name ends in
/// `_ns`. Everything else the recorder holds is a function of the seed —
/// the line traces and `obs-diff` draw between what must reproduce and what
/// only reports.
pub(crate) fn is_timing(metric: &str) -> bool {
    metric.ends_with("_ns")
}

/// Add `n` to a counter. One load-and-branch when the mode is off.
#[inline]
pub fn counter_add(id: MetricId, n: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        if r.counters.len() <= id.index() {
            r.counters.resize(id.index() + 1, 0);
        }
        r.counters[id.index()] += n;
    });
}

/// Record one histogram sample. One load-and-branch when the mode is off.
#[inline]
pub fn observe(id: MetricId, value: f64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| {
        if r.hists.len() <= id.index() {
            r.hists.resize_with(id.index() + 1, HistData::default);
        }
        r.hists[id.index()].record(value);
    });
}

/// Record one structured event: buffered for export in
/// [`ObsMode::Trace`](crate::ObsMode::Trace), one load-and-branch in every
/// other mode (the JSONL trace is the events' one reader). Use [`NO_NODE`]
/// when there is no node subject.
#[inline]
pub fn event(id: MetricId, round: u64, node: u32, value: f64) {
    if !tracing() {
        return;
    }
    with_recorder(|r| {
        r.events.push(Event {
            metric: id,
            rep: NO_REP,
            round,
            node,
            value,
        })
    });
}

/// A timing guard from [`span`]: records the elapsed nanoseconds as an
/// [`observe`] sample on drop. Inert (no clock read) when the mode is off
/// at creation.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    id: MetricId,
    start: Option<Instant>,
}

/// Start a timed span for `id`.
#[inline]
pub fn span(id: MetricId) -> Span {
    Span {
        id,
        start: enabled().then(Instant::now),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            observe(self.id, start.elapsed().as_nanos() as f64);
        }
    }
}

/// Take the calling thread's records, leaving the buffers empty (capacity
/// retained). The deterministic hand-off point between a worker and its
/// coordinator.
pub fn drain() -> ObsReport {
    with_recorder(|r| {
        let mut counters: Vec<(MetricId, u64)> = r
            .counters
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0)
            .map(|(i, &v)| (MetricId::from_index(i), v))
            .collect();
        counters.sort_by_cached_key(|&(id, _)| metric_name(id));
        let mut hists: Vec<(MetricId, HistData)> = r
            .hists
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.is_empty())
            .map(|(i, h)| (MetricId::from_index(i), h.clone()))
            .collect();
        hists.sort_by_cached_key(|&(id, _)| metric_name(id));
        r.counters.clear();
        r.hists.clear();
        let events = std::mem::take(&mut r.events);
        ObsReport {
            counters,
            hists,
            events,
        }
    })
}

/// Discard the calling thread's records (a [`drain`] whose report is
/// dropped). Call before a scoped run so earlier leftovers cannot leak in.
pub fn reset() {
    let _ = drain();
}

/// Fold a drained report into the calling thread's recorder, preserving
/// event order. Coordinators call this once per worker report, in a
/// deterministic order.
pub fn absorb(report: ObsReport) {
    with_recorder(|r| {
        for (id, n) in report.counters {
            if r.counters.len() <= id.index() {
                r.counters.resize(id.index() + 1, 0);
            }
            r.counters[id.index()] += n;
        }
        for (id, h) in report.hists {
            if r.hists.len() <= id.index() {
                r.hists.resize_with(id.index() + 1, HistData::default);
            }
            r.hists[id.index()].merge(&h);
        }
        r.events.extend(report.events);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metric, set_mode, ObsMode};

    // Mode is process-global: every test here holds `mode_test_guard` and
    // restores Off before returning. Each works on its own drained report
    // (recorders are thread-local).

    #[test]
    fn disabled_plane_records_nothing() {
        let _mode = crate::mode_test_guard();
        let id = metric("test.record.off");
        reset();
        counter_add(id, 5);
        observe(id, 1.0);
        event(id, 1, 2, 3.0);
        let _ = span(id);
        assert!(drain().is_empty());
    }

    #[test]
    fn counters_hists_events_round_trip_through_drain() {
        let _mode = crate::mode_test_guard();
        let a = metric("test.record.a");
        let b = metric("test.record.b");
        set_mode(ObsMode::Trace);
        reset();
        counter_add(a, 2);
        counter_add(a, 3);
        observe(b, 10.0);
        observe(b, 2.0);
        event(b, 7, 42, 1.5);
        {
            let _s = span(a);
        }
        set_mode(ObsMode::Off);
        let r = drain();
        assert_eq!(r.counter(a), 5);
        // `a` holds the span sample, `b` the two observes; interning order
        // is global, so look each up explicitly.
        assert_eq!(r.hists().len(), 2);
        let hb = &r.hists().iter().find(|(i, _)| *i == b).expect("hist b").1;
        assert_eq!(hb.count, 2);
        assert_eq!(hb.sum, 12.0);
        assert_eq!(hb.min, 2.0);
        assert_eq!(hb.max, 10.0);
        assert!((hb.mean() - 6.0).abs() < 1e-12);
        let ha = &r.hists().iter().find(|(i, _)| *i == a).expect("hist a").1;
        assert_eq!(ha.count, 1);
        assert!(ha.min >= 0.0);
        assert_eq!(
            r.events(),
            &[Event {
                metric: b,
                rep: NO_REP,
                round: 7,
                node: 42,
                value: 1.5
            }]
        );
        // Second drain is empty: the buffers were taken.
        assert!(drain().is_empty());
    }

    #[test]
    fn reports_list_metrics_by_name_whichever_thread_interned_first() {
        let _mode = crate::mode_test_guard();
        // Interned in descending name order, so id order is the reverse of
        // name order — what a worker that happened to run first does to
        // the ids of every metric it touches.
        let names = ["test.order.zz", "test.order.mm", "test.order.aa"];
        let ids = names.map(metric);
        set_mode(ObsMode::Metrics);
        let worker = |mine: [MetricId; 2]| {
            std::thread::spawn(move || {
                reset();
                for id in mine {
                    counter_add(id, 1);
                    observe(id, 2.0);
                }
                drain()
            })
        };
        let (first, second) = (worker([ids[0], ids[1]]), worker([ids[1], ids[2]]));
        let (first, second) = (first.join().unwrap(), second.join().unwrap());
        set_mode(ObsMode::Off);

        let listed = |r: &ObsReport| -> Vec<&str> {
            let hists: Vec<_> = r.hists().iter().map(|(id, _)| metric_name(*id)).collect();
            let counters: Vec<_> = r
                .counters()
                .iter()
                .map(|&(id, _)| metric_name(id))
                .collect();
            assert_eq!(hists, counters);
            counters
        };
        assert_eq!(listed(&first), ["test.order.mm", "test.order.zz"]);
        assert_eq!(listed(&second), ["test.order.aa", "test.order.mm"]);
        // Absorbed in either order: one report, in name order.
        let absorbed = |reports: [&ObsReport; 2]| {
            reset();
            for report in reports {
                absorb(report.clone());
            }
            drain()
        };
        let (ab, ba) = (absorbed([&first, &second]), absorbed([&second, &first]));
        assert_eq!(ab, ba);
        assert_eq!(
            listed(&ab),
            ["test.order.aa", "test.order.mm", "test.order.zz"]
        );
        assert_eq!(ab.counter(ids[1]), 2);
        assert_eq!(ab.counter(ids[0]), 1);
    }

    #[test]
    fn merge_adds_and_retag_stamps_only_untagged() {
        let _mode = crate::mode_test_guard();
        let a = metric("test.record.merge");
        set_mode(ObsMode::Trace);
        reset();
        counter_add(a, 1);
        event(a, 1, NO_NODE, 0.0);
        let mut first = drain();
        first.retag_rep(0);
        counter_add(a, 10);
        event(a, 2, NO_NODE, 0.0);
        let mut second = drain();
        set_mode(ObsMode::Off);
        second.retag_rep(1);
        absorb(first);
        absorb(second);
        let mut first = drain();
        assert_eq!(first.counter(a), 11);
        let reps: Vec<i32> = first.events().iter().map(|e| e.rep).collect();
        assert_eq!(reps, vec![0, 1]);
        first.retag_rep(9); // no NO_REP events left: a no-op
        let reps: Vec<i32> = first.events().iter().map(|e| e.rep).collect();
        assert_eq!(reps, vec![0, 1]);
    }

    #[test]
    fn absorb_then_drain_equals_original() {
        let _mode = crate::mode_test_guard();
        let a = metric("test.record.absorb");
        set_mode(ObsMode::Metrics);
        reset();
        counter_add(a, 4);
        observe(a, 8.0);
        let r = drain();
        absorb(r.clone());
        let again = drain();
        set_mode(ObsMode::Off);
        assert_eq!(r, again);
    }

    #[test]
    fn hist_quantiles_track_samples() {
        let mut h = HistData::default();
        assert!(h.buckets.is_empty());
        for v in [10.0, 30.0, 200.0] {
            h.record(v);
        }
        assert_eq!(h.buckets.len(), hdr::BUCKET_COUNT);
        // Median sample is 30; HDR resolution there is one bucket width.
        assert!((h.quantile(0.5) - 30.0).abs() <= hdr::width_of(30) as f64);
        let (p50, _, _, p99) = h.percentiles();
        assert_eq!(p50, h.quantile(0.5));
        assert!((p99 - 200.0).abs() <= hdr::width_of(200) as f64);
    }

    #[test]
    fn merge_handles_lazy_buckets() {
        let mut empty = HistData::default();
        let mut full = HistData::default();
        full.record(5.0);
        // empty ← full clones; full ← empty is a no-op on buckets.
        empty.merge(&full);
        assert_eq!(empty.count, 1);
        assert_eq!(empty.quantile(0.5), 5.5);
        full.merge(&HistData::default());
        assert_eq!(full.count, 1);
        let mut both = HistData::default();
        both.record(5.0);
        both.merge(&full);
        assert_eq!(both.count, 2);
        assert_eq!(both.buckets[hdr::index_of(5)], 2);
    }
}
