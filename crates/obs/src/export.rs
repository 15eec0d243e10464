//! The `TraceSink` JSONL format: render an [`ObsReport`] to one JSON
//! object per line, and parse it back through [`crate::json`], against the
//! small fixed schema documented in the crate root.

use crate::json::{json_escape, parse_json, Json};
use crate::record::{ObsReport, NO_NODE};
use crate::registry::metric_name;
use std::fmt;

/// Version stamped into every `meta` line, and the only one
/// [`parse_jsonl`] reads.
pub(crate) const TRACE_SCHEMA: u32 = 2;

/// Identity of one trace: which run, figure, seed, and scale produced it.
/// Deliberately free of wall-clock fields so traces of the same run are
/// byte-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    pub run: String,
    pub fig: String,
    pub seed: u64,
    pub scale: String,
}

/// One parsed line of a trace file.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceLine {
    Meta {
        schema: u32,
        run: String,
        fig: String,
        seed: u64,
        scale: String,
    },
    Counter {
        metric: String,
        value: u64,
    },
    Hist {
        metric: String,
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        /// `[p50, p90, p95, p99]` from the HDR buckets.
        quantiles: [f64; 4],
    },
    Event {
        metric: String,
        rep: i64,
        round: u64,
        node: Option<u32>,
        value: f64,
    },
}

/// Render `report` as JSONL: the `meta` line, counters and histograms each
/// in metric-name order (the order an [`ObsReport`] keeps them in, so the
/// bytes are a function of the report alone), then events in recording
/// order. `f64` payloads use Rust's shortest round-trippable formatting, so
/// parse-then-render is lossless.
pub fn render_jsonl(meta: &TraceMeta, report: &ObsReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"type\":\"meta\",\"schema\":{},\"run\":\"{}\",\"fig\":\"{}\",\"seed\":{},\"scale\":\"{}\"}}\n",
        TRACE_SCHEMA,
        json_escape(&meta.run),
        json_escape(&meta.fig),
        meta.seed,
        json_escape(&meta.scale),
    ));
    for &(id, value) in report.counters() {
        out.push_str(&format!(
            "{{\"type\":\"counter\",\"metric\":\"{}\",\"value\":{value}}}\n",
            json_escape(metric_name(id)),
        ));
    }
    for (id, h) in report.hists() {
        let (p50, p90, p95, p99) = h.percentiles();
        out.push_str(&format!(
            "{{\"type\":\"hist\",\"metric\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{p50},\"p90\":{p90},\"p95\":{p95},\"p99\":{p99}}}\n",
            json_escape(metric_name(*id)),
            h.count,
            h.sum,
            h.min,
            h.max,
        ));
    }
    for e in report.events() {
        let node = if e.node == NO_NODE {
            "null".to_string()
        } else {
            e.node.to_string()
        };
        out.push_str(&format!(
            "{{\"type\":\"event\",\"metric\":\"{}\",\"rep\":{},\"round\":{},\"node\":{node},\"value\":{}}}\n",
            json_escape(metric_name(e.metric)),
            e.rep,
            e.round,
            e.value,
        ));
    }
    out
}

/// Why a trace was refused: the 1-based `line` and what is wrong with it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError {
    pub line: usize,
    pub kind: TraceErrorKind,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TraceErrorKind {
    /// Not a JSON object, or one naming a key twice.
    Json(String),
    /// `key` holds `found` where the schema wants something else: a
    /// missing field, a nested value, a string for a number, a fraction or
    /// an out-of-range value for an integer, an unknown line `type`.
    Field { key: String, found: String },
    /// A `meta` line of a schema other than the one this reader takes (2).
    Schema(u32),
    /// The first line is not a `meta` record.
    NoMeta,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            TraceErrorKind::Json(e) => write!(f, "{e}"),
            TraceErrorKind::Field { key, found } => write!(f, "field {key:?} is {found}"),
            TraceErrorKind::Schema(s) => {
                write!(f, "trace schema {s}, this reader takes {TRACE_SCHEMA}")
            }
            TraceErrorKind::NoMeta => write!(f, "first line must be a meta record"),
        }
    }
}

/// One trace line's fields.
struct Fields<'a>(&'a [(String, Json)]);

impl<'a> Fields<'a> {
    /// The field under `key` as `read` reads it, or what sits there that
    /// `read` refuses.
    fn get<T>(&self, key: &str, read: impl Fn(&'a Json) -> Option<T>) -> Result<T, TraceErrorKind> {
        let value = self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        value.and_then(read).ok_or_else(|| TraceErrorKind::Field {
            key: key.to_string(),
            found: value.map_or("missing".to_string(), |v| format!("{v:?}")),
        })
    }

    fn string(&self, key: &str) -> Result<String, TraceErrorKind> {
        self.get(key, Json::as_str).map(str::to_string)
    }

    /// The error for a value the schema has no place for.
    fn refuse<T>(&self, key: &str) -> Result<T, TraceErrorKind> {
        self.get(key, |_| None)
    }
}

fn parse_line(line: &str) -> Result<TraceLine, TraceErrorKind> {
    let json = parse_json(line).map_err(TraceErrorKind::Json)?;
    let Some(object) = json.as_obj() else {
        return Err(TraceErrorKind::Json("not an object".to_string()));
    };
    let fields = Fields(object);
    // And a flat one: strings, numbers and null.
    if let Some((key, _)) = object
        .iter()
        .find(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_) | Json::Bool(_)))
    {
        return fields.refuse(key);
    }
    match fields.get("type", Json::as_str)? {
        "meta" => match fields.get("schema", Json::as_int)? {
            TRACE_SCHEMA => Ok(TraceLine::Meta {
                schema: TRACE_SCHEMA,
                run: fields.string("run")?,
                fig: fields.string("fig")?,
                seed: fields.get("seed", Json::as_int)?,
                scale: fields.string("scale")?,
            }),
            other => Err(TraceErrorKind::Schema(other)),
        },
        "counter" => Ok(TraceLine::Counter {
            metric: fields.string("metric")?,
            value: fields.get("value", Json::as_int)?,
        }),
        "hist" => Ok(TraceLine::Hist {
            metric: fields.string("metric")?,
            count: fields.get("count", Json::as_int)?,
            sum: fields.get("sum", Json::as_num)?,
            min: fields.get("min", Json::as_num)?,
            max: fields.get("max", Json::as_num)?,
            quantiles: [
                fields.get("p50", Json::as_num)?,
                fields.get("p90", Json::as_num)?,
                fields.get("p95", Json::as_num)?,
                fields.get("p99", Json::as_num)?,
            ],
        }),
        "event" => Ok(TraceLine::Event {
            metric: fields.string("metric")?,
            rep: fields.get("rep", Json::as_int)?,
            round: fields.get("round", Json::as_int)?,
            // `NO_NODE` is written as null; as a number it is no node id.
            node: fields.get("node", |v| match v {
                Json::Null => Some(None),
                _ => v.as_int().filter(|&id: &u32| id != NO_NODE).map(Some),
            })?,
            value: fields.get("value", Json::as_num)?,
        }),
        _ => fields.refuse("type"),
    }
}

/// Parse a whole trace, reporting the first bad line by number. Requires a
/// `meta` line of this reader's schema (2) first (the schema's one ordering
/// guarantee).
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceLine>, TraceError> {
    let mut lines = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |kind| TraceError { line: i + 1, kind };
        let parsed = parse_line(line).map_err(at)?;
        if lines.is_empty() && !matches!(parsed, TraceLine::Meta { .. }) {
            return Err(at(TraceErrorKind::NoMeta));
        }
        lines.push(parsed);
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{counter_add, drain, event, observe, reset, NO_NODE};
    use crate::registry::metric;
    use crate::{set_mode, ObsMode};

    #[test]
    fn render_parse_round_trip() {
        let _mode = crate::mode_test_guard();
        let a = metric("test.export.counter");
        let b = metric("test.export.hist");
        let c = metric("test.export.event");
        // Registered after `a` (larger id), named before it.
        let early = metric("test.export.a_counter");
        set_mode(ObsMode::Trace);
        reset();
        counter_add(a, 42);
        counter_add(early, 1);
        observe(b, 1.5);
        observe(b, 2.25);
        event(c, 7, 3, 0.125);
        event(c, 8, NO_NODE, -1.0);
        let report = drain();
        set_mode(ObsMode::Off);

        let meta = TraceMeta {
            run: "test-run".to_string(),
            fig: "fig\"x\"".to_string(), // exercises escaping
            seed: 2006,
            scale: "smoke".to_string(),
        };
        let text = render_jsonl(&meta, &report);
        let lines = parse_jsonl(&text).expect("parses");
        assert_eq!(
            lines[0],
            TraceLine::Meta {
                schema: TRACE_SCHEMA,
                run: "test-run".to_string(),
                fig: "fig\"x\"".to_string(),
                seed: 2006,
                scale: "smoke".to_string(),
            }
        );
        assert!(lines.contains(&TraceLine::Counter {
            metric: "test.export.counter".to_string(),
            value: 42
        }));
        // Samples 1.5 and 2.25 land in the exact HDR buckets [1,2) and
        // [2,3): p50 is the first sample's midpoint, the rest the second's.
        assert!(lines.contains(&TraceLine::Hist {
            metric: "test.export.hist".to_string(),
            count: 2,
            sum: 3.75,
            min: 1.5,
            max: 2.25,
            quantiles: [1.5, 2.5, 2.5, 2.5],
        }));
        assert!(lines.contains(&TraceLine::Event {
            metric: "test.export.event".to_string(),
            rep: -1,
            round: 7,
            node: Some(3),
            value: 0.125
        }));
        assert!(lines.contains(&TraceLine::Event {
            metric: "test.export.event".to_string(),
            rep: -1,
            round: 8,
            node: None,
            value: -1.0
        }));
        // Counter lines come in name order, not in registration order.
        assert!(
            text.find("test.export.a_counter") < text.find("test.export.counter"),
            "{text}"
        );
        // Render of the parse is byte-identical (lossless f64 formatting).
        assert_eq!(render_jsonl(&meta, &report), text);
    }

    const META: &str =
        "{\"type\":\"meta\",\"schema\":2,\"run\":\"r\",\"fig\":\"f\",\"seed\":1,\"scale\":\"s\"}\n";

    #[test]
    fn bad_lines_are_rejected_with_line_numbers() {
        let second = |line: &str| parse_jsonl(&format!("{META}{line}\n")).unwrap_err();
        let err = second("garbage");
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, TraceErrorKind::Json(_)), "{err}");
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        let err = parse_jsonl("{\"type\":\"counter\",\"metric\":\"m\",\"value\":1}\n").unwrap_err();
        assert_eq!((err.line, &err.kind), (1, &TraceErrorKind::NoMeta));
        let err = second("{\"type\":\"mystery\"}");
        assert!(
            err.to_string().contains("\"type\" is Str(\"mystery\")"),
            "{err}"
        );
        let err = second("{\"type\":\"counter\",\"metric\":\"m\"}");
        assert!(err.to_string().contains("\"value\" is missing"), "{err}");
        // A trace line is flat.
        let err = second("{\"type\":\"counter\",\"metric\":\"m\",\"value\":1,\"extra\":[1]}");
        assert!(
            matches!(&err.kind, TraceErrorKind::Field { key, .. } if key == "extra"),
            "{err}"
        );
    }

    /// Every row parsed before there was one parser: a negative, fractional
    /// or 2^32-and-over node became node 0, 1 or `NO_NODE`; a fractional
    /// rep 0; an oversized schema wrapped to 2; of two values under one key
    /// the first won; a hist line could leave its quantiles out; and no
    /// schema number was looked at.
    #[test]
    fn out_of_schema_lines_are_typed_errors() {
        let event = |fields: &str| {
            format!("{{\"type\":\"event\",\"metric\":\"m\",\"round\":1,\"value\":0,{fields}}}")
        };
        let meta = |schema: &str| META.replace("\"schema\":2", &format!("\"schema\":{schema}"));
        let field = |key: &str, found: &str| TraceErrorKind::Field {
            key: key.to_string(),
            found: found.to_string(),
        };
        let twice = event("\"rep\":0,\"node\":1,\"node\":2");
        let second = twice.rfind("\"node\"").expect("written above");
        let duplicate = TraceErrorKind::Json(format!("byte {second}: duplicate key \"node\""));
        let hist =
            "{\"type\":\"hist\",\"metric\":\"m\",\"count\":2,\"sum\":3.0,\"min\":1.0,\"max\":2.0}";
        let rows = [
            (2, event("\"rep\":0,\"node\":-3"), field("node", "Int(-3)")),
            (
                2,
                event("\"rep\":0,\"node\":1.5"),
                field("node", "Num(1.5)"),
            ),
            (
                2,
                event("\"rep\":0,\"node\":5000000000"),
                field("node", "Int(5000000000)"),
            ),
            (
                2,
                event("\"rep\":0,\"node\":4294967295"),
                field("node", "Int(4294967295)"),
            ),
            (
                2,
                event("\"rep\":0.7,\"node\":null"),
                field("rep", "Num(0.7)"),
            ),
            (2, twice, duplicate),
            (2, hist.to_string(), field("p50", "missing")),
            (1, meta("4294967298"), field("schema", "Int(4294967298)")),
            (1, meta("1"), TraceErrorKind::Schema(1)),
            (1, meta("99"), TraceErrorKind::Schema(99)),
        ];
        for (line, text, kind) in rows {
            let trace = if line == 1 {
                text
            } else {
                format!("{META}{text}\n")
            };
            assert_eq!(
                parse_jsonl(&trace),
                Err(TraceError { line, kind }),
                "{trace}"
            );
        }
        // What the renderer writes for the same fields still parses, the
        // largest seed and node id included.
        let text = format!(
            "{}{}\n",
            META.replace("\"seed\":1", "\"seed\":18446744073709551615"),
            event("\"rep\":-1,\"node\":4294967294")
        );
        let lines = parse_jsonl(&text).expect("in range");
        assert!(matches!(lines[0], TraceLine::Meta { seed: u64::MAX, .. }));
        assert!(matches!(
            lines[1],
            TraceLine::Event {
                rep: -1,
                node: Some(4294967294),
                ..
            }
        ));
    }
}
