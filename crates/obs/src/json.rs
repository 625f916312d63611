//! The workspace's one JSON codec: a small value parser ([`Json`]),
//! string escaping ([`escape`]), and [`validate_json`] on top of the
//! parser.
//!
//! The vendor policy (no registry access) rules out serde. Documents are
//! rendered with `format!` throughout the workspace; this module reads
//! them back — HTTP request bodies (DESIGN.md §16) and emitted metrics
//! snapshots alike. The grammar is RFC 8259 (numbers, strings with the
//! standard escapes, arrays, objects) with two deliberate restrictions:
//! duplicate object keys are rejected rather than last-wins, so a
//! smuggled `{"k":1,"k":9999}` can't mean different things to different
//! layers, and a `\u` escape must name a scalar value (no surrogates).

use std::fmt;

/// One parsed JSON value. Object fields keep insertion order (requests
/// are tiny — linear lookup beats a map allocation).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value (with only whitespace around it).
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes after JSON value at offset {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup (None for missing fields and non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one (rejects
    /// fractional and negative numbers rather than truncating).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Whether `input` is one well-formed JSON value with nothing but
/// whitespace around it.
pub fn validate_json(input: &str) -> bool {
    Json::parse(input).is_ok()
}

/// Escape a string for embedding in a JSON document (adds the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Json::Str(string(b, pos)?)),
        Some(b't') => literal(b, pos, b"true", Json::Bool(true)),
        Some(b'f') => literal(b, pos, b"false", Json::Bool(false)),
        Some(b'n') => literal(b, pos, b"null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at offset {pos}")),
        None => Err("unexpected end of input".into()),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &[u8], v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields: Vec<(String, Json)> = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}"));
        }
        let key = string(b, pos)?;
        if fields.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate object key {key:?}"));
        }
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}"));
        }
        *pos += 1;
        let v = value(b, pos)?;
        fields.push((key, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // '"'
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => match b.get(*pos + 1) {
                Some(b'u') => {
                    let hex = b
                        .get(*pos + 2..*pos + 6)
                        .ok_or_else(|| "truncated \\u escape".to_string())?;
                    let code = std::str::from_utf8(hex)
                        .ok()
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| "bad \\u escape".to_string())?;
                    // Surrogates would need pairing; the serving protocol
                    // never emits them, so reject rather than mis-decode.
                    let c = char::from_u32(code)
                        .ok_or_else(|| "\\u escape is not a scalar value".to_string())?;
                    out.push(c);
                    *pos += 6;
                }
                Some(&e) => {
                    out.push(match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        _ => return Err(format!("bad escape \\{}", e as char)),
                    });
                    *pos += 2;
                }
                None => return Err("truncated escape".into()),
            },
            Some(&c) if c < 0x20 => {
                return Err(format!("raw control byte {c:#04x} in string"));
            }
            Some(_) => {
                // Multi-byte UTF-8: the input is a &str, so sequences are
                // valid — copy the whole scalar.
                let s = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
            None => return Err("unterminated string".into()),
        }
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(format!("expected digits at offset {pos}"));
    }
    if b[int_start] == b'0' && *pos - int_start > 1 {
        return Err("leading zeros are not valid JSON".into());
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == frac {
            return Err("digits required after '.'".into());
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let exp = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos == exp {
            return Err("digits required in exponent".into());
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|e| e.to_string())
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n:?}"),
            Json::Str(s) => write!(f, "{}", escape(s)),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{v}", escape(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every verdict the codec owes, one corpus: well-formed values,
    /// malformed ones, and RFC 8259 §7 string escapes (only the eight
    /// named escapes plus `\uXXXX` are legal, so a body smuggling `"\q"`
    /// fails the parse and the router answers 400, never a
    /// silently-mangled term).
    #[test]
    fn accepts_and_rejects_the_shared_corpus() {
        let accept = [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e3",
            "0",
            "\"a b\\n\\u00ff\"",
            r#"{"a": [1, 2, {"b": null}], "c": "x"}"#,
            "  { \"k\" : 1 }  ",
            r#""\"""#,
            r#""\\""#,
            r#""\/""#,
            r#""\b\f\n\r\t""#,
            r#""ÿ""#,
            r#""aÿ""#,
        ];
        let reject = [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "nulll",
            "\"unterminated",
            "{} trailing",
            "{} x",
            "{'a': 1}",
            r#"{"k":1,"k":2}"#,
            r#""\q""#,
            r#""\x41""#,
            r#""\U00FF""#,
            r#""\u00f""#,
            r#""\u00fz""#,
            r#""\ud800""#, // lone surrogate — not a scalar value
            r#""\"#,
            r#""ends with\"#,
            r#"{"a": "\e"}"#,
            r#"{"term": "\e"}"#,
        ];
        for ok in accept {
            assert!(Json::parse(ok).is_ok() && validate_json(ok), "{ok}");
        }
        for bad in reject {
            assert!(Json::parse(bad).is_err() && !validate_json(bad), "{bad}");
        }
    }

    #[test]
    fn parses_request_shaped_objects() {
        let v = Json::parse(r#"{"term": "fever", "context": null, "k": 5}"#).unwrap();
        assert_eq!(v.get("term").and_then(Json::as_str), Some("fever"));
        assert!(v.get("context").unwrap().is_null());
        assert_eq!(v.get("k").and_then(Json::as_u64), Some(5));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn rejects_fractional_and_negative_as_u64() {
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("12").unwrap().as_u64(), Some(12));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\there",
            "nl\nthere",
            "unicode Δέλτα",
        ] {
            let enc = escape(s);
            assert_eq!(Json::parse(&enc).unwrap().as_str(), Some(s), "{enc}");
        }
    }

    #[test]
    fn display_is_parseable() {
        let v = Json::parse(r#"{"a":[1,2.5,null,true],"b":"x\ny"}"#).unwrap();
        let rendered = v.to_string();
        assert_eq!(Json::parse(&rendered).unwrap(), v);
    }
}
