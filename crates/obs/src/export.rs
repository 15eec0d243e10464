//! The `TraceSink` JSONL format: render an [`ObsReport`] to one JSON
//! object per line, and parse it back (the vendored serde is a no-op stub,
//! so both directions are hand-rolled against the small fixed schema
//! documented in the crate root).

use crate::record::{ObsReport, NO_NODE};
use crate::registry::metric_name;

/// Version stamped into every `meta` line. Schema 2 added the
/// `p50`/`p90`/`p95`/`p99` fields on `hist` lines; [`parse_line`] treats
/// them as optional so schema-1 traces still parse.
pub const TRACE_SCHEMA: u32 = 2;

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
        /// `[p50, p90, p95, p99]` from the HDR buckets; `None` when parsed
        /// from a schema-1 trace that predates quantile extraction.
        quantiles: Option<[f64; 4]>,
    },
    Event {
        metric: String,
        rep: i64,
        round: u64,
        node: Option<u32>,
        value: f64,
    },
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
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

/// A flat JSON value as this schema uses them.
#[derive(Debug, Clone, PartialEq)]
enum JsonVal {
    Str(String),
    Num(f64),
    Null,
}

/// Parse one flat JSON object (`{"key":value,...}` with string, number, or
/// null values — all this schema needs).
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let mut chars = line.trim().char_indices().peekable();
    let src = line.trim();
    let mut fields = Vec::new();

    let expect =
        |chars: &mut std::iter::Peekable<std::str::CharIndices>, want: char| match chars.next() {
            Some((_, c)) if c == want => Ok(()),
            other => Err(format!("expected {want:?}, found {other:?}")),
        };
    fn skip_ws(chars: &mut std::iter::Peekable<std::str::CharIndices>) {
        while matches!(chars.peek(), Some(&(_, c)) if c.is_whitespace()) {
            chars.next();
        }
    }
    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices>,
    ) -> Result<String, String> {
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(format!("expected string, found {other:?}")),
        }
        let mut s = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => return Ok(s),
                Some((_, '\\')) => match chars.next() {
                    Some((_, '"')) => s.push('"'),
                    Some((_, '\\')) => s.push('\\'),
                    Some((_, 'n')) => s.push('\n'),
                    Some((_, 't')) => s.push('\t'),
                    Some((_, 'r')) => s.push('\r'),
                    Some((_, 'u')) => {
                        let hex: String = (0..4)
                            .filter_map(|_| chars.next().map(|(_, c)| c))
                            .collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        s.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some((_, c)) => s.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    skip_ws(&mut chars);
    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some(&(_, '}'))) {
        chars.next();
        return Ok(fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        expect(&mut chars, ':')?;
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some(&(_, '"')) => JsonVal::Str(parse_string(&mut chars)?),
            Some(&(start, 'n')) => {
                for _ in 0..4 {
                    chars.next();
                }
                if src[start..].starts_with("null") {
                    JsonVal::Null
                } else {
                    return Err(format!("bad literal at {start}"));
                }
            }
            Some(&(start, _)) => {
                let mut end = start;
                while matches!(
                    chars.peek(),
                    Some(&(_, c)) if c.is_ascii_digit() || "+-.eE".contains(c)
                ) {
                    end = chars.next().expect("peeked").0 + 1;
                }
                let text = &src[start..end];
                JsonVal::Num(text.parse().map_err(|_| format!("bad number {text:?}"))?)
            }
            None => return Err("truncated object".to_string()),
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if let Some((i, c)) = chars.next() {
        return Err(format!("trailing {c:?} at {i}"));
    }
    Ok(fields)
}

struct Fields(Vec<(String, JsonVal)>);

impl Fields {
    fn get(&self, key: &str) -> Result<&JsonVal, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }
    fn str(&self, key: &str) -> Result<String, String> {
        match self.get(key)? {
            JsonVal::Str(s) => Ok(s.clone()),
            other => Err(format!("field {key:?} is not a string: {other:?}")),
        }
    }
    fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            JsonVal::Num(n) => Ok(*n),
            other => Err(format!("field {key:?} is not a number: {other:?}")),
        }
    }
    fn uint(&self, key: &str) -> Result<u64, String> {
        let n = self.num(key)?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("field {key:?} is not a non-negative integer: {n}"));
        }
        Ok(n as u64)
    }
}

/// Parse one trace line.
pub fn parse_line(line: &str) -> Result<TraceLine, String> {
    let fields = Fields(parse_flat_object(line)?);
    match fields.str("type")?.as_str() {
        "meta" => Ok(TraceLine::Meta {
            schema: fields.uint("schema")? as u32,
            run: fields.str("run")?,
            fig: fields.str("fig")?,
            seed: fields.uint("seed")?,
            scale: fields.str("scale")?,
        }),
        "counter" => Ok(TraceLine::Counter {
            metric: fields.str("metric")?,
            value: fields.uint("value")?,
        }),
        "hist" => Ok(TraceLine::Hist {
            metric: fields.str("metric")?,
            count: fields.uint("count")?,
            sum: fields.num("sum")?,
            min: fields.num("min")?,
            max: fields.num("max")?,
            // Schema 1 lines have no quantile fields; require all four
            // once any is present.
            quantiles: if fields.get("p50").is_ok() {
                Some([
                    fields.num("p50")?,
                    fields.num("p90")?,
                    fields.num("p95")?,
                    fields.num("p99")?,
                ])
            } else {
                None
            },
        }),
        "event" => Ok(TraceLine::Event {
            metric: fields.str("metric")?,
            rep: fields.num("rep")? as i64,
            round: fields.uint("round")?,
            node: match fields.get("node")? {
                JsonVal::Null => None,
                JsonVal::Num(n) => Some(*n as u32),
                other => return Err(format!("field \"node\" is not a number or null: {other:?}")),
            },
            value: fields.num("value")?,
        }),
        other => Err(format!("unknown line type {other:?}")),
    }
}

/// Parse a whole trace, reporting the first bad line by number. Requires a
/// `meta` line first (the schema's one ordering guarantee).
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceLine>, String> {
    let mut lines = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if lines.is_empty() && !matches!(parsed, TraceLine::Meta { .. }) {
            return Err("line 1: first line must be a meta record".to_string());
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
            quantiles: Some([1.5, 2.5, 2.5, 2.5]),
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

    #[test]
    fn schema1_hist_lines_still_parse() {
        // A pre-quantile (schema 1) hist line: quantiles come back None.
        let line =
            "{\"type\":\"hist\",\"metric\":\"m\",\"count\":2,\"sum\":3.0,\"min\":1.0,\"max\":2.0}";
        assert_eq!(
            parse_line(line).expect("parses"),
            TraceLine::Hist {
                metric: "m".to_string(),
                count: 2,
                sum: 3.0,
                min: 1.0,
                max: 2.0,
                quantiles: None,
            }
        );
        // A partial quantile set is an error, not a silent None.
        let partial = "{\"type\":\"hist\",\"metric\":\"m\",\"count\":2,\"sum\":3.0,\"min\":1.0,\"max\":2.0,\"p50\":1.5}";
        assert!(parse_line(partial).unwrap_err().contains("p90"));
    }

    #[test]
    fn bad_lines_are_rejected_with_line_numbers() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"type\":\"mystery\"}").is_err());
        assert!(parse_line("{\"type\":\"counter\",\"metric\":\"m\"}")
            .unwrap_err()
            .contains("value"));
        let err = parse_jsonl(
            "{\"type\":\"meta\",\"schema\":1,\"run\":\"r\",\"fig\":\"f\",\"seed\":1,\"scale\":\"s\"}\ngarbage\n",
        )
        .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = parse_jsonl("{\"type\":\"counter\",\"metric\":\"m\",\"value\":1}\n").unwrap_err();
        assert!(err.contains("meta"), "{err}");
    }
}
