//! A minimal JSON parser used to validate exported Chrome traces.
//!
//! The build environment is offline (no `serde_json`), and the CI gate
//! needs to prove that `--fig timeline` writes a structurally valid trace.
//! This module implements just enough of RFC 8259 to parse a trace file
//! and check the fields `chrome://tracing` requires.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is not preserved.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object field `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, or a
/// complaint about trailing input.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(JsonValue::String(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Number)
        .map_err(|_| format!("invalid number '{text}' at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole run up to the next quote or backslash. Both
                // are ASCII, so they never split a multi-byte UTF-8 scalar
                // and the run is valid UTF-8 whenever the input is.
                let end = b[*pos..]
                    .iter()
                    .position(|c| matches!(c, b'"' | b'\\'))
                    .map_or(b.len(), |n| *pos + n);
                out.push_str(std::str::from_utf8(&b[*pos..end]).map_err(|e| e.to_string())?);
                *pos = end;
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// What [`validate_chrome_trace`] found in a well-formed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total events, metadata included.
    pub events: usize,
    /// Complete spans (`ph: "X"`).
    pub spans: usize,
    /// Instant events (`ph: "i"`).
    pub instants: usize,
    /// Distinct numeric `pid`s seen.
    pub processes: usize,
}

/// Parses `input` and checks the Chrome trace-event contract: a top-level
/// object with a `traceEvents` array whose entries carry a string `ph`, a
/// numeric `ts`, a `pid`, and a string `name`; `X` spans also need a
/// numeric `dur`.
///
/// # Errors
///
/// Returns a description of the first violated requirement.
pub fn validate_chrome_trace(input: &str) -> Result<ChromeTraceSummary, String> {
    let doc = parse(input)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents field")?
        .as_array()
        .ok_or("traceEvents is not an array")?;
    let mut spans = 0;
    let mut instants = 0;
    let mut pids: Vec<u64> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string ph"))?;
        e.get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing numeric ts"))?;
        let pid = e
            .get("pid")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))? as u64;
        e.get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {i}: missing string name"))?;
        if !pids.contains(&pid) {
            pids.push(pid);
        }
        match ph {
            "X" => {
                e.get("dur")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("event {i}: X span missing dur"))?;
                spans += 1;
            }
            "i" => instants += 1,
            _ => {}
        }
    }
    Ok(ChromeTraceSummary {
        events: events.len(),
        spans,
        instants,
        processes: pids.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny","d":null,"e":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn validates_a_good_trace_and_rejects_a_bad_one() {
        let good = r#"{"traceEvents":[
            {"name":"append","cat":"broker","ph":"X","ts":10.5,"dur":2,"pid":1,"tid":1},
            {"name":"kill","cat":"fault","ph":"i","ts":20,"pid":2,"tid":1,"s":"p"}
        ]}"#;
        let s = validate_chrome_trace(good).unwrap();
        assert_eq!(s.events, 2);
        assert_eq!(s.spans, 1);
        assert_eq!(s.instants, 1);
        assert_eq!(s.processes, 2);

        let missing_ts = r#"{"traceEvents":[{"name":"a","ph":"i","pid":1}]}"#;
        assert!(validate_chrome_trace(missing_ts)
            .unwrap_err()
            .contains("ts"));
        let missing_dur = r#"{"traceEvents":[{"name":"a","ph":"X","ts":1,"pid":1}]}"#;
        assert!(validate_chrome_trace(missing_dur)
            .unwrap_err()
            .contains("dur"));
        assert!(validate_chrome_trace("[]").is_err());
    }

    #[test]
    fn long_escaped_multibyte_string_round_trips() {
        // ~150 KB mixing multi-byte UTF-8 with quote, backslash and \u
        // escapes — long enough that re-validating the rest of the input
        // per character would stall — parses exactly.
        let unit = r#"héllo \"wörld\" \\ 日本 🚀 \u00e9\u65e5 "#;
        let expected_unit = "héllo \"wörld\" \\ 日本 🚀 é日 ";
        let n = 150_000 / unit.len() + 1;
        let doc = format!("\"{}\"", unit.repeat(n));
        assert!(doc.len() >= 100_000);
        let v = parse(&doc).unwrap();
        assert_eq!(v.as_str(), Some(expected_unit.repeat(n).as_str()));
        // Dropping the closing quote must still be an error.
        assert_eq!(
            parse(&doc[..doc.len() - 1]).unwrap_err(),
            "unterminated string"
        );
    }

    #[test]
    fn parses_unicode_escapes() {
        let v = parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }
}
