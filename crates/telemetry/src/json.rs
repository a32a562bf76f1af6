//! Minimal JSON writer + parser for NDJSON export and round-trip tests.
//!
//! The workspace is offline (no serde), so this module hand-rolls the
//! tiny subset the telemetry layer needs: an object builder that emits
//! compact one-line JSON, and a recursive-descent parser good enough to
//! validate exported rows and round-trip [`crate::StatsDelta`].
//!
//! Numbers parse into `f64`; integer fields exported by this crate stay
//! well below 2⁵³ (virtual-ns across a whole simulated day is ~8.6e13),
//! so round-trips are exact in practice.

use std::collections::BTreeMap;

/// Builder for one compact JSON object (one NDJSON row).
#[derive(Debug, Default)]
pub struct JsonObj {
    buf: String,
}

impl JsonObj {
    /// Start an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(key, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Add an unsigned integer field.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Add a float field (finite; NaN/inf are emitted as 0 to keep the
    /// row parseable).
    pub(crate) fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key);
        if v.is_finite() {
            self.buf.push_str(&format!("{v:.6}"));
        } else {
            self.buf.push('0');
        }
        self
    }

    /// Add a string field (escaped).
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        escape_into(v, &mut self.buf);
        self.buf.push('"');
        self
    }

    /// Add a pre-serialized JSON value verbatim (nested object/array).
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Finish: the complete `{…}` string.
    #[must_use]
    pub fn finish(&self) -> String {
        format!("{{{}}}", self.buf)
    }
}

fn escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see the module docs on integer precision).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object (key order normalized).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object map, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Member `key` of an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_obj()?.get(key)
    }

    /// Numeric member `key` as `u64` (rounted; `None` if absent or not
    /// a number).
    #[must_use]
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            JsonValue::Num(n) => Some(n.round() as u64),
            _ => None,
        }
    }

    /// Numeric member `key` as `f64`.
    #[must_use]
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parse one JSON document. Returns `None` on any syntax error or
/// trailing garbage — callers treat an unparseable row as a failure.
#[must_use]
pub fn parse(input: &str) -> Option<JsonValue> {
    let mut pos = 0usize;
    let v = parse_value(input, &mut pos)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos == input.len() {
        Some(v)
    } else {
        None
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(s: &str, pos: &mut usize) -> Option<JsonValue> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' => parse_obj(s, pos),
        b'[' => parse_arr(s, pos),
        b'"' => Some(JsonValue::Str(parse_string(s, pos)?)),
        b't' => {
            expect(b, pos, "true")?;
            Some(JsonValue::Bool(true))
        }
        b'f' => {
            expect(b, pos, "false")?;
            Some(JsonValue::Bool(false))
        }
        b'n' => {
            expect(b, pos, "null")?;
            Some(JsonValue::Null)
        }
        _ => parse_num(b, pos),
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Some(())
    } else {
        None
    }
}

fn parse_obj(s: &str, pos: &mut usize) -> Option<JsonValue> {
    let b = s.as_bytes();
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(JsonValue::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(s, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return None;
        }
        *pos += 1;
        let val = parse_value(s, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(JsonValue::Obj(map));
            }
            _ => return None,
        }
    }
}

fn parse_arr(s: &str, pos: &mut usize) -> Option<JsonValue> {
    let b = s.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(s, pos)?);
        skip_ws(b, pos);
        match b.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(JsonValue::Arr(items));
            }
            _ => return None,
        }
    }
}

/// A string literal, its escapes resolved. Each run of bytes up to the
/// next `"` or `\` is copied as one slice: both are ASCII, so a run
/// ends on a character boundary and the whole parse is linear.
fn parse_string(s: &str, pos: &mut usize) -> Option<String> {
    let b = s.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let run = b[*pos..].iter().position(|&c| c == b'"' || c == b'\\')?;
        out.push_str(&s[*pos..*pos + run]);
        *pos += run;
        if b[*pos] == b'"' {
            *pos += 1;
            return Some(out);
        }
        *pos += 1;
        match *b.get(*pos)? {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hex = s.get(*pos + 1..*pos + 5)?;
                let code = u32::from_str_radix(hex, 16).ok()?;
                out.push(char::from_u32(code)?);
                *pos += 4;
            }
            _ => return None,
        }
        *pos += 1;
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Option<JsonValue> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    if *pos == start {
        return None;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(JsonValue::Num)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_compact_rows() {
        let mut o = JsonObj::new();
        o.u64("a", 1)
            .f64("b", 0.5)
            .str("c", "x\"y")
            .raw("d", "[1,2]");
        assert_eq!(
            o.finish(),
            "{\"a\":1,\"b\":0.500000,\"c\":\"x\\\"y\",\"d\":[1,2]}"
        );
    }

    #[test]
    fn strings_with_multibyte_characters_and_escapes_roundtrip() {
        // Multi-byte characters right against every escape the writer
        // emits, and against `\u` escapes of either case.
        let text = "é\"ü\\中\n🦀\r\t\u{1}ß\u{1f}€";
        let mut o = JsonObj::new();
        o.str(text, text);
        let v = parse(&o.finish()).expect("parses");
        assert_eq!(v.get(text), Some(&JsonValue::Str(text.into())));

        let escaped = r#""a\"\\\/\b\f\n\r\t\u00e9\u4E2D中\u0041z""#;
        assert_eq!(
            parse(escaped),
            Some(JsonValue::Str("a\"\\/\u{8}\u{c}\n\r\té中中Az".into()))
        );
        for bad in [
            r#""\x""#,
            r#""\u12""#,
            r#""\ud800""#,
            r#""open"#,
            r#""ends\"#,
        ] {
            assert_eq!(parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn parser_roundtrips_writer_output() {
        let mut o = JsonObj::new();
        o.u64("count", 12345).f64("rate", 3.25).str("name", "fig12");
        let v = parse(&o.finish()).expect("parses");
        assert_eq!(v.get_u64("count"), Some(12345));
        assert_eq!(v.get_f64("rate"), Some(3.25));
        assert_eq!(v.get("name"), Some(&JsonValue::Str("fig12".into())));
    }

    #[test]
    fn parser_handles_nesting_and_arrays() {
        let v = parse(r#"{"a":{"b":[1,2,{"c":true}]},"d":null,"e":-1.5e2}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap().get("b").unwrap(),
            &JsonValue::Arr(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.0),
                JsonValue::Obj(
                    [("c".to_string(), JsonValue::Bool(true))]
                        .into_iter()
                        .collect()
                ),
            ])
        );
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get_f64("e"), Some(-150.0));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_none());
        assert!(parse("{}x").is_none());
        assert!(parse("{\"a\":}").is_none());
        assert!(parse("").is_none());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut o = JsonObj::new();
        o.str("s", "tab\tnl\nquote\"backslash\\end");
        let v = parse(&o.finish()).unwrap();
        assert_eq!(
            v.get("s"),
            Some(&JsonValue::Str("tab\tnl\nquote\"backslash\\end".into()))
        );
    }
}
