//! The benchmark's own in-memory spans, recorded around every call into a
//! layer of the program and written out when the repetition ends.
//!
//! Spans live in the benchmark's files only; spans inside the program are a
//! later change. A disabled tracer (every untraced repetition) reads no
//! clock and allocates nothing.

use std::cell::RefCell;
use std::time::Instant;

use crate::json::Json;

/// One closed span. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `vivaldi.step`.
    pub name: &'static str,
    /// What the span was about when one name covers many things (the
    /// figure id of a `core.run_figure` span); empty otherwise.
    pub detail: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<usize>,
}

impl SpanRec {
    pub fn dur_s(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

struct Inner {
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

/// Span recorder for one repetition (single-threaded: the benchmark calls
/// the program from one thread; the program's own pools are opaque to it).
pub struct Tracer {
    origin: Instant,
    inner: Option<RefCell<Inner>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            inner: enabled.then(|| {
                RefCell::new(Inner {
                    spans: Vec::new(),
                    open: Vec::new(),
                })
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_detail(name, "", f)
    }

    /// [`Tracer::span`] with a detail string (see [`SpanRec::detail`]).
    pub fn span_detail<T>(&self, name: &'static str, detail: &str, f: impl FnOnce() -> T) -> T {
        let Some(inner) = &self.inner else {
            return f();
        };
        let index = {
            let mut inner = inner.borrow_mut();
            let index = inner.spans.len();
            let parent = inner.open.last().copied();
            inner.spans.push(SpanRec {
                name,
                detail: detail.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            inner.open.push(index);
            index
        };
        let value = f();
        let mut inner = inner.borrow_mut();
        inner.spans[index].end_ns = self.now_ns();
        inner.open.pop();
        value
    }

    /// Every closed span, in start order. Empty when disabled.
    pub fn finish(self) -> Vec<SpanRec> {
        self.inner.map(|i| i.into_inner().spans).unwrap_or_default()
    }
}

/// Self time of span `index`: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_time_s(spans: &[SpanRec], index: usize) -> f64 {
    let me = &spans[index];
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| {
            s.end_ns
                .min(me.end_ns)
                .saturating_sub(s.start_ns.max(me.start_ns))
        })
        .sum();
    (me.end_ns
        .saturating_sub(me.start_ns)
        .saturating_sub(covered)) as f64
        / 1e9
}

/// Total duration of every span named `name`.
pub fn total_s(spans: &[SpanRec], name: &str) -> f64 {
    durations_s(spans, name).iter().sum()
}

/// Duration of each span named `name`, in start order.
pub fn durations_s(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::dur_s)
        .collect()
}

/// One JSON line per span: `{"rep":…,"span":…,"name":…,"detail":…,
/// "start_ns":…,"end_ns":…,"parent":…,"self_ns":…}`.
pub fn render_jsonl(spans: &[SpanRec], rep: &str) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let line = Json::obj([
            ("rep", Json::Str(rep.to_string())),
            ("span", Json::Num(i as f64)),
            ("name", Json::Str(s.name.to_string())),
            ("detail", Json::Str(s.detail.clone())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("self_ns", Json::Num((self_time_s(spans, i) * 1e9).round())),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            detail: String::new(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children_but_not_grandchildren() {
        let spans = vec![
            rec("rep", 0, 1000, None),
            rec("a", 100, 400, Some(0)),
            rec("b", 500, 900, Some(0)),
            rec("a.inner", 150, 350, Some(1)),
        ];
        // 1000 − (300 + 400): the grandchild is already inside `a`.
        assert_eq!(self_time_s(&spans, 0), 300e-9);
        assert_eq!(self_time_s(&spans, 1), 100e-9);
        assert_eq!(self_time_s(&spans, 2), 400e-9);
        assert_eq!(self_time_s(&spans, 3), 200e-9);
    }

    #[test]
    fn self_time_clips_a_child_that_outlives_its_parent() {
        let spans = vec![rec("p", 100, 200, None), rec("c", 150, 260, Some(0))];
        assert_eq!(self_time_s(&spans, 0), 50e-9);
    }

    #[test]
    fn tracer_records_nesting_and_order() {
        let t = Tracer::new(true);
        let v = t.span("outer", || {
            t.span("first", || ());
            t.span_detail("second", "fig7", || 41) + 1
        });
        assert_eq!(v, 42);
        let spans = t.finish();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            shape,
            [("outer", None), ("first", Some(0)), ("second", Some(0))]
        );
        assert_eq!(spans[2].detail, "fig7");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn disabled_tracer_runs_the_closure_and_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.finish().is_empty());
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            rec("step", 0, 2_000_000_000, None),
            rec("eval", 2_000_000_000, 2_500_000_000, None),
            rec("step", 2_500_000_000, 3_500_000_000, None),
        ];
        assert_eq!(durations_s(&spans, "step"), [2.0, 1.0]);
        assert_eq!(total_s(&spans, "step"), 3.0);
        assert_eq!(total_s(&spans, "absent"), 0.0);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let spans = vec![rec("rep", 0, 10, None), rec("a", 2, 6, Some(0))];
        let text = render_jsonl(&spans, "t1");
        let lines: Vec<_> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Json::Null));
        assert_eq!(lines[1].get("parent"), Some(&Json::Num(0.0)));
        assert_eq!(lines[0].get("self_ns"), Some(&Json::Num(6.0)));
        assert_eq!(lines[1].get("rep").and_then(Json::as_str), Some("t1"));
    }
}
