//! A minimal hand-rolled JSON reader and string escaper.
//!
//! The repo deliberately carries no serde; every emitter hand-rolls its
//! JSON strings. This module supplies the missing other half — a small
//! recursive-descent parser — so tests can validate emitted documents
//! (Chrome traces, metrics snapshots) and the profiling `EventLogger` can
//! re-import its line-delimited export.
//!
//! Numbers are kept as their raw source text and parsed on demand, which
//! preserves exact `u64` values that a round-trip through `f64` would
//! corrupt.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document, requiring that the whole input is consumed.
    pub(crate) fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Looks up a key in an object.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number parsed as `u64`, if this is a non-negative integer.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse::<u64>().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64`, if this is a number.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse::<f64>().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            byte as char,
            *pos,
            bytes.get(*pos).map(|b| *b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null").map(|()| Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected '{lit}' at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {} (found {other:?})",
                    *pos
                ))
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {} (found {other:?})",
                    *pos
                ))
            }
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| "non-ascii \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                        // Surrogate pairs are not needed by any emitter in
                        // this workspace; reject them rather than mis-decode.
                        let ch = char::from_u32(code)
                            .ok_or_else(|| format!("\\u escape {code:#x} is not a scalar"))?;
                        out.push(ch);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?} at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x80 => {
                out.push(b as char);
                *pos += 1;
            }
            Some(&b) => {
                // Consume one multi-byte UTF-8 scalar. Only the scalar's own
                // bytes are validated — re-checking the whole remaining
                // buffer per character would make parsing quadratic.
                let len = match b {
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    0xF0..=0xF7 => 4,
                    _ => return Err(format!("invalid UTF-8 at byte {}", *pos)),
                };
                let chunk = bytes
                    .get(*pos..*pos + len)
                    .ok_or_else(|| "truncated UTF-8 scalar".to_string())?;
                let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
                let ch = s.chars().next().ok_or("unterminated string")?;
                out.push(ch);
                *pos += len;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    if raw.is_empty() || raw.parse::<f64>().is_err() {
        return Err(format!("invalid number '{raw}' at byte {start}"));
    }
    Ok(Json::Num(raw.to_string()))
}

/// Escapes a string for embedding in a JSON document (no surrounding
/// quotes).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, -2.5, "x\ny", true, null], "b": {"c": 18446744073709551615}}"#;
        let v = Json::parse(doc).expect("parse");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("x\ny")
        );
        // Exact u64 round-trip that f64 would corrupt.
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_tokens() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let ugly = "quote\" slash\\ newline\n tab\t ctrl\u{0001} unicode\u{00e9}";
        let doc = format!("{{\"k\":\"{}\"}}", escape(ugly));
        let v = Json::parse(&doc).expect("parse escaped");
        assert_eq!(v.get("k").unwrap().as_str(), Some(ugly));
    }
}
