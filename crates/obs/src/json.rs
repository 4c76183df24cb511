//! The workspace's one JSON codec: string escaping and number
//! formatting for the exporters and wire replies, and a panic-free value
//! parser for requests and artifact checks.
//!
//! The parser accepts full JSON with two deliberate bounds: nesting depth
//! is capped (a hostile `[[[[…` cannot blow the stack) and numbers are
//! held as `f64` (integers above 2^53 lose precision, which no consumer
//! needs). Every code path returns `Err` on malformed input; the serve
//! fuzz suite feeds arbitrary bytes through [`parse`] and asserts it
//! never panics.

/// Escapes `s` as a JSON string literal (including the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number; non-finite values become `null`
/// (JSON has no NaN/Infinity).
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Validates that `s` is one complete JSON value (object, array, string,
/// number, `true`/`false`/`null`), nested at most [`MAX_DEPTH`] deep, with
/// nothing but whitespace after it.
///
/// # Errors
///
/// Returns a message describing the first violation and, where it has
/// one, its byte offset.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

/// Maximum nesting depth accepted by [`parse`].
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order (later duplicates win on
    /// [`JsonValue::get`] lookups only by being found first — we keep the
    /// first occurrence, matching a strict reading).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a message describing the first violation and, where it has
/// one, its byte offset.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth > MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH}"));
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {pos}", pos = *pos))
    }
}

/// Advances past ASCII digits, returning how many there were.
fn skip_digits(bytes: &[u8], pos: &mut usize) -> usize {
    let start = *pos;
    while matches!(bytes.get(*pos), Some(b) if b.is_ascii_digit()) {
        *pos += 1;
    }
    *pos - start
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    let invalid = || format!("invalid number at offset {start}");
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    if skip_digits(bytes, pos) == 0 {
        return Err(invalid());
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if skip_digits(bytes, pos) == 0 {
            return Err(invalid());
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if skip_digits(bytes, pos) == 0 {
            return Err(invalid());
        }
    }
    // The scanned span is ASCII by construction.
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| invalid())?;
    let v: f64 = text.parse().map_err(|_| invalid())?;
    if !v.is_finite() {
        return Err(format!("non-finite number at offset {start}"));
    }
    Ok(JsonValue::Num(v))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let at = *pos;
                        let hex = bytes
                            .get(at + 1..at + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .ok_or_else(|| format!("invalid \\u escape at offset {at}"))?;
                        let code = hex.iter().fold(0u32, |acc, &h| {
                            acc * 16 + (h as char).to_digit(16).unwrap_or(0)
                        });
                        // Surrogates are replaced rather than paired — no
                        // consumer carries astral-plane text.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at offset {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => {
                return Err(format!("control byte in string at offset {}", *pos))
            }
            Some(_) => {
                // Copy the run of plain bytes up to the next quote,
                // backslash or control byte. Those are all ASCII, so the
                // run ends on a char boundary of the (valid UTF-8) input.
                let run = *pos;
                while matches!(bytes.get(*pos), Some(&b) if b != b'"' && b != b'\\' && b >= 0x20)
                {
                    *pos += 1;
                }
                let text = std::str::from_utf8(&bytes[run..*pos])
                    .map_err(|_| format!("non-utf8 string at offset {run}"))?;
                out.push_str(text);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at offset {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "-3.25e-2",
            r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": []}}"#,
            "  {\n\"k\"\t: 1e9 }  ",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "{]",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "01x",
            "{} extra",
            "NaN",
            "{\"a\" 1}",
        ] {
            assert!(validate(doc).is_err(), "{doc:?} should be rejected");
        }
    }

    #[test]
    fn escape_round_trips_through_validate() {
        let s = escape("a\"b\\c\nd\u{1}e");
        validate(&s).unwrap();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001e\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(1.5), "1.5");
    }

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"op":"move_pins","design":"usb","moves":[{"pin":3,"x":1.5,"y":-2e-1}],"id":7}"#)
            .expect("valid");
        assert_eq!(v.get("op").and_then(JsonValue::as_str), Some("move_pins"));
        assert_eq!(v.get("id").and_then(JsonValue::as_u64), Some(7));
        let moves = v.get("moves").and_then(JsonValue::as_array).expect("array");
        assert_eq!(moves[0].get("pin").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(moves[0].get("y").and_then(JsonValue::as_f64), Some(-0.2));
    }

    #[test]
    fn decodes_escapes() {
        let v = parse(r#""a\"b\\c\n\u0041é→""#).expect("valid");
        assert_eq!(v.as_str(), Some("a\"b\\c\nAé→"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "}", "[1,", "{\"a\"}", "{\"a\":}", "nul", "tru", "01x", "-", "1.",
            ".5", "1e", "+4", "\"abc", "\"\\q\"", "{\"a\":1,}", "[1]extra", "nan",
            "Infinity", "1e999", "\"\\u+041\"",
        ] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn depth_is_bounded() {
        let deep = "[".repeat(MAX_DEPTH + 8) + &"]".repeat(MAX_DEPTH + 8);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(8) + &"]".repeat(8);
        assert!(parse(&ok).is_ok());
    }
}
