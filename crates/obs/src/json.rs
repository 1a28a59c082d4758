//! A small hand-rolled JSON writer (and validating parser for tests),
//! replacing serde_json in this no-network workspace.
//!
//! The writer is a push API: callers open objects/arrays, emit keys and
//! values, and the writer inserts commas. It never produces invalid JSON
//! for balanced call sequences; non-finite floats are written as `null`.
//!
//! # Examples
//!
//! ```
//! use vip_obs::json::JsonWriter;
//!
//! let mut w = JsonWriter::new();
//! w.begin_object();
//! w.key("name");
//! w.string("strip");
//! w.key("bytes");
//! w.u64(45_056);
//! w.end_object();
//! assert_eq!(w.finish(), r#"{"name":"strip","bytes":45056}"#);
//! ```

/// Incremental JSON writer.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: `true` once the first element has
    /// been written (so the next element needs a leading comma).
    stack: Vec<bool>,
    /// Set between `key()` and its value inside an object.
    pending_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// A writer with pre-reserved capacity for large documents.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(bytes),
            ..JsonWriter::default()
        }
    }

    fn before_value(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(has_elems) = self.stack.last_mut() {
            if *has_elems {
                self.out.push(',');
            }
            *has_elems = true;
        }
    }

    /// Opens an object.
    pub fn begin_object(&mut self) {
        self.before_value();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.stack.pop();
        self.out.push('}');
    }

    /// Opens an array.
    pub fn begin_array(&mut self) {
        self.before_value();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.stack.pop();
        self.out.push(']');
    }

    /// Writes an object key; the next call must write its value.
    pub fn key(&mut self, key: &str) {
        if let Some(has_elems) = self.stack.last_mut() {
            if *has_elems {
                self.out.push(',');
            }
            *has_elems = true;
        }
        escape_into(&mut self.out, key);
        self.out.push(':');
        self.pending_key = true;
    }

    /// Writes a string value.
    pub fn string(&mut self, value: &str) {
        self.before_value();
        escape_into(&mut self.out, value);
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, value: u64) {
        self.before_value();
        self.out.push_str(&value.to_string());
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, value: i64) {
        self.before_value();
        self.out.push_str(&value.to_string());
    }

    /// Writes a float; non-finite values become `null` (JSON has no
    /// NaN/Infinity).
    pub fn f64(&mut self, value: f64) {
        self.before_value();
        if value.is_finite() {
            let text = format!("{value}");
            self.out.push_str(&text);
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a pre-formatted JSON number verbatim. The caller guarantees
    /// `text` is a valid JSON number — used for exact decimal timestamps
    /// that would lose precision through an `f64` round-trip.
    pub fn raw_number(&mut self, text: &str) {
        debug_assert!(
            text.parse::<f64>().is_ok(),
            "raw_number must receive a numeric literal, got {text:?}"
        );
        self.before_value();
        self.out.push_str(text);
    }

    /// Writes a boolean.
    pub fn bool(&mut self, value: bool) {
        self.before_value();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    /// Returns the accumulated document.
    ///
    /// # Panics
    ///
    /// Panics if containers are still open or a key awaits its value —
    /// those are caller bugs that would yield invalid JSON.
    #[must_use]
    pub fn finish(self) -> String {
        assert!(
            self.stack.is_empty() && !self.pending_key,
            "unbalanced JsonWriter: {} open container(s), pending key: {}",
            self.stack.len(),
            self.pending_key
        );
        self.out
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Validates that `text` is a single well-formed JSON value.
///
/// A recursive-descent recogniser — it builds no values, just checks the
/// grammar. Used by the exporter tests and `vipctl trace` as a sanity
/// check on emitted documents.
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error.
pub fn validate(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, "true"),
        Some(b'f') => parse_literal(bytes, pos, "false"),
        Some(b'n') => parse_literal(bytes, pos, "null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}")),
        None => Err(format!("unexpected end of input at byte {pos}")),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        parse_value(bytes, pos, depth + 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_value(bytes, pos, depth + 1)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '"'
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match bytes.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = bytes.get(*pos + 2..*pos + 6);
                    match hex {
                        Some(h) if h.iter().all(u8::is_ascii_hexdigit) => *pos += 6,
                        _ => return Err(format!("bad \\u escape at byte {pos}")),
                    }
                }
                _ => return Err(format!("bad escape at byte {pos}")),
            },
            c if c < 0x20 => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_digits = eat_digits(bytes, pos);
    if int_digits == 0 {
        return Err(format!("expected digits at byte {pos}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("expected fraction digits at byte {pos}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if eat_digits(bytes, pos) == 0 {
            return Err(format!("expected exponent digits at byte {pos}"));
        }
    }
    // Reject leading zeros like "042" (but allow "0", "0.5", "-0").
    let text = &bytes[start..*pos];
    let unsigned = if text.first() == Some(&b'-') {
        &text[1..]
    } else {
        text
    };
    if unsigned.len() > 1 && unsigned[0] == b'0' && unsigned[1].is_ascii_digit() {
        return Err(format!("leading zero in number at byte {start}"));
    }
    Ok(())
}

fn eat_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

/// A parsed JSON value — the reading half of [`JsonWriter`], used by the
/// trace-diff and bench-gate tooling to consume the documents this crate
/// writes. Object members keep their document order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`, which is lossless for the
    /// magnitudes this workspace writes).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as ordered `(key, value)` members.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a single JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset of the first syntax
    /// error; the grammar accepted is exactly [`validate`]'s.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        validate(text)?;
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = build_value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        debug_assert_eq!(pos, bytes.len(), "validate admitted trailing data");
        Ok(value)
    }

    /// Member `key` of an object (`None` for other variants or a missing
    /// key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Builds a value from input that [`validate`] already accepted, so no
/// syntax errors can occur here (enforced by the `parse` entry point).
fn build_value(bytes: &[u8], pos: &mut usize) -> JsonValue {
    match bytes[*pos] {
        b'{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            while bytes[*pos] != b'}' {
                skip_ws(bytes, pos);
                let key = build_string(bytes, pos);
                skip_ws(bytes, pos);
                *pos += 1; // ':'
                skip_ws(bytes, pos);
                members.push((key, build_value(bytes, pos)));
                skip_ws(bytes, pos);
                if bytes[*pos] == b',' {
                    *pos += 1;
                    skip_ws(bytes, pos);
                }
            }
            *pos += 1; // '}'
            JsonValue::Object(members)
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            while bytes[*pos] != b']' {
                items.push(build_value(bytes, pos));
                skip_ws(bytes, pos);
                if bytes[*pos] == b',' {
                    *pos += 1;
                    skip_ws(bytes, pos);
                }
            }
            *pos += 1; // ']'
            JsonValue::Array(items)
        }
        b'"' => JsonValue::String(build_string(bytes, pos)),
        b't' => {
            *pos += 4;
            JsonValue::Bool(true)
        }
        b'f' => {
            *pos += 5;
            JsonValue::Bool(false)
        }
        b'n' => {
            *pos += 4;
            JsonValue::Null
        }
        _ => {
            let start = *pos;
            let _ = parse_number(bytes, pos);
            let text = core::str::from_utf8(&bytes[start..*pos]).expect("validated ascii");
            JsonValue::Number(text.parse().expect("validated number"))
        }
    }
}

/// Unescapes a validated string starting at the opening quote.
fn build_string(bytes: &[u8], pos: &mut usize) -> String {
    *pos += 1; // opening '"'
    let mut out = String::new();
    loop {
        match bytes[*pos] {
            b'"' => {
                *pos += 1;
                return out;
            }
            b'\\' => {
                match bytes[*pos + 1] {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = core::str::from_utf8(&bytes[*pos + 2..*pos + 6])
                            .expect("validated hex");
                        let code = u32::from_str_radix(hex, 16).expect("validated hex");
                        // Lone surrogates cannot round-trip; the writer
                        // never emits them, so substitute on read.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => unreachable!("validated escape {other}"),
                }
                *pos += 2;
            }
            _ => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let len = utf8_len(bytes[*pos]);
                let text = core::str::from_utf8(&bytes[*pos..*pos + len]).expect("input was &str");
                out.push_str(text);
                *pos += len;
            }
        }
    }
}

/// Byte length of the UTF-8 sequence starting with `first`.
fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b < 0xe0 => 2,
        b if b < 0xf0 => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_nested_document() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("list");
        w.begin_array();
        w.u64(1);
        w.i64(-2);
        w.f64(2.5);
        w.bool(true);
        w.null();
        w.string("a \"b\"\n\t\\");
        w.end_array();
        w.key("empty");
        w.begin_object();
        w.end_object();
        w.end_object();
        let doc = w.finish();
        assert_eq!(
            doc,
            r#"{"list":[1,-2,2.5,true,null,"a \"b\"\n\t\\"],"empty":{}}"#
        );
        validate(&doc).unwrap();
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.f64(f64::NAN);
        w.f64(f64::INFINITY);
        w.f64(1.0);
        w.end_array();
        let doc = w.finish();
        assert_eq!(doc, "[null,null,1]");
        validate(&doc).unwrap();
    }

    #[test]
    fn control_chars_escape() {
        let mut out = String::new();
        escape_into(&mut out, "\u{1}x");
        assert_eq!(out, "\"\\u0001x\"");
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_finish_panics() {
        let mut w = JsonWriter::new();
        w.begin_object();
        let _ = w.finish();
    }

    #[test]
    fn validator_accepts_valid_documents() {
        for doc in [
            "null",
            "true",
            " false ",
            "0",
            "-0.5e+10",
            "\"ok \\u00e9\"",
            "[]",
            "[1, [2, {\"a\": null}]]",
            "{\"a\": {\"b\": [1.5, \"x\"]}}",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a: 1}",
            "042",
            "1.2.3",
            "nul",
            "[1] trailing",
            "\"unterminated",
            "\"bad \\q escape\"",
            "1e",
        ] {
            assert!(validate(doc).is_err(), "should reject: {doc}");
        }
    }

    #[test]
    fn validator_rejects_runaway_nesting() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(validate(&deep).is_err());
    }

    #[test]
    fn value_parser_round_trips_writer_output() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name");
        w.string("strip \"x\"\n");
        w.key("n");
        w.u64(42);
        w.key("speed");
        w.f64(3.766);
        w.key("ok");
        w.bool(true);
        w.key("none");
        w.null();
        w.key("list");
        w.begin_array();
        w.i64(-1);
        w.u64(2);
        w.end_array();
        w.end_object();
        let doc = w.finish();
        let v = JsonValue::parse(&doc).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("strip \"x\"\n"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(42.0));
        assert_eq!(v.get("speed").unwrap().as_f64(), Some(3.766));
        assert_eq!(v.get("ok"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("none"), Some(&JsonValue::Null));
        let list = v.get("list").unwrap().as_array().unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].as_f64(), Some(-1.0));
        assert_eq!(v.get("missing"), None);
        assert!(matches!(&v, JsonValue::Object(members) if members.len() == 6));
    }

    #[test]
    fn value_parser_handles_escapes_and_whitespace() {
        let v = JsonValue::parse(" { \"k\" : [ \"\\u00e9\\t/\" , 1e2 ] } ").unwrap();
        let items = v.get("k").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_str(), Some("é\t/"));
        assert_eq!(items[1].as_f64(), Some(100.0));
    }

    #[test]
    fn value_parser_rejects_what_validate_rejects() {
        assert!(JsonValue::parse("{\"a\":}").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("").is_err());
    }

    #[test]
    fn value_accessors_are_variant_strict() {
        let v = JsonValue::parse("[1]").unwrap();
        assert_eq!(v.get("x"), None);
        assert_eq!(v.as_f64(), None);
        assert_eq!(v.as_str(), None);
        assert!(JsonValue::parse("3").unwrap().as_array().is_none());
    }
}
