//! The workspace's one JSON reader (the vendored serde is a no-op stub):
//! a recursive-descent parser over the full grammar, next to the string
//! escape its writers share. `BENCH_*.json` baselines are nested documents;
//! a trace line is one flat object ([`crate::parse_jsonl`] refuses nested
//! values there).

/// The body of a JSON string literal holding `s`: what every writer in the
/// workspace (trace lines, `BENCH_*.json`) puts between the quotes.
pub fn json_escape(s: &str) -> String {
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

/// A parsed JSON value. Objects preserve insertion order and never hold
/// one key twice.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// A number written as an integer (`-?[0-9]+`), kept exact: ids, seeds
    /// and counters do not survive a trip through `f64`.
    Int(i128),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Any number, as a float.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// An integer, if it is one `T` can hold.
    pub(crate) fn as_int<T: TryFrom<i128>>(&self) -> Option<T> {
        match self {
            Json::Int(i) => T::try_from(*i).ok(),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == want => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "byte {}: expected {:?}, found {:?}",
                self.pos,
                want as char,
                other.map(|c| c as char)
            )),
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(format!(
                "byte {}: unexpected {:?}",
                self.pos,
                other.map(|c| c as char)
            )),
        }
    }

    fn parse_literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("byte {}: bad literal", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
        match text.parse::<i128>() {
            // "-0" is the float negative zero, which an integer cannot hold.
            Ok(i) if i != 0 || !text.starts_with('-') => Ok(Json::Int(i)),
            _ => text
                .parse()
                .map(Json::Num)
                .map_err(|_| format!("byte {start}: bad number {text:?}")),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through byte-wise.
                    let rest =
                        std::str::from_utf8(&self.src[self.pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.parse_string()?;
            // Neither of two values under one key can be the one meant.
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(format!("byte {at}: duplicate key {key:?}"));
            }
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "byte {}: expected ',' or '}}', found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "byte {}: expected ',' or ']', found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }
}

/// Parse one JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        src: text.as_bytes(),
        pos: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(format!("byte {}: trailing content", p.pos));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parses_nested_documents() {
        let j = parse_json(r#"{"a": 1.5e-3, "b": {"c": [1, -0, null]}, "s": "x\"y", "t": true}"#)
            .expect("parses");
        assert_eq!(j.get("a").and_then(Json::as_num), Some(1.5e-3));
        let c = j.get("b").and_then(|b| b.get("c")).expect("b.c");
        let Json::Arr(items) = c else {
            panic!("not an array: {c:?}")
        };
        assert_eq!(items[0], Json::Int(1));
        assert!(matches!(items[1], Json::Num(z) if z == 0.0 && z.is_sign_negative()));
        assert_eq!(items[2], Json::Null);
        assert_eq!(j.get("s"), Some(&Json::Str("x\"y".to_string())));
        assert_eq!(j.get("t"), Some(&Json::Bool(true)));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn integers_stay_exact_and_duplicate_keys_are_refused() {
        // 2^64 - 1 and 2^53 + 1: neither survives f64.
        let j = parse_json(r#"{"seed": 18446744073709551615, "n": 9007199254740993}"#).unwrap();
        assert_eq!(j.get("seed"), Some(&Json::Int(u64::MAX as i128)));
        assert_eq!(j.get("n").and_then(Json::as_int), Some((1u64 << 53) + 1));
        assert_eq!(j.get("seed").and_then(Json::as_int::<u32>), None);
        // Past i128 a digit string is still a number, as a float.
        let big = parse_json(&"9".repeat(40)).unwrap();
        assert_eq!(big.as_num(), Some(1e40));
        let err = parse_json(r#"{"a": 1, "b": {"x": 1, "x": 2}}"#).unwrap_err();
        assert_eq!(err, "byte 23: duplicate key \"x\"");
    }
}
