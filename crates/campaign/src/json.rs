//! Minimal hand-rolled JSON used by the campaign persistence layer.
//!
//! The offline shim set has no serde, so the store and plan files are
//! written and parsed by this module. It covers exactly the subset the
//! campaign formats need — objects, arrays, strings, and `f64` numbers —
//! with two conventions on top of plain JSON:
//!
//! * **Exact float round-trips.** Finite numbers are emitted with Rust's
//!   shortest-round-trip formatting (`{:?}`), which parses back to the
//!   identical bit pattern; non-finite values are emitted as the strings
//!   `"inf"`, `"-inf"`, `"nan"` (JSON has no literals for them) and
//!   [`Json::as_f64`] folds them back. Cache keys and byte-identical
//!   resume semantics depend on this exactness.
//! * **`u64` as hex strings.** JSON numbers are doubles, which cannot
//!   represent every 64-bit hash/seed; [`Json::hex`] / [`Json::as_hex_u64`]
//!   store them losslessly as lowercase hex strings.

/// One JSON value. Object fields keep insertion order so serialized
/// output is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string value.
    Str(String),
    /// A number (always an `f64`; see the module's exactness rules).
    Num(f64),
    /// An array of values.
    Arr(Vec<Json>),
    /// An object: ordered `(key, value)` fields.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// A `u64` persisted losslessly as a lowercase hex string.
    pub fn hex(v: u64) -> Json {
        Json::Str(format!("{v:x}"))
    }

    /// Field of an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required field of an object, with a path-style error.
    pub fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Number (accepting the `"inf"` / `"-inf"` / `"nan"` string forms).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Str(s) if matches!(s.as_str(), "inf" | "-inf" | "nan") => s.parse().ok(),
            _ => None,
        }
    }

    /// Non-negative integer that fits a `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        let v = self.as_f64()?;
        (v.fract() == 0.0 && v >= 0.0 && v <= u32::MAX as f64).then_some(v as usize)
    }

    /// String value, if this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// `u64` from the lossless hex-string form of [`Json::hex`].
    pub fn as_hex_u64(&self) -> Option<u64> {
        u64::from_str_radix(self.as_str()?, 16).ok()
    }

    /// Array items, if this is a [`Json::Arr`].
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line serialization (the JSONL record form).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Str(s) => write_escaped(s, out),
            Json::Num(v) => {
                if v.is_finite() {
                    // Shortest representation that round-trips exactly.
                    out.push_str(&format!("{v:?}"));
                } else if v.is_nan() {
                    out.push_str("\"nan\"");
                } else if *v > 0.0 {
                    out.push_str("\"inf\"");
                } else {
                    out.push_str("\"-inf\"");
                }
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse one JSON document (must consume the whole input). Arrays and
    /// objects nested more than 64 levels deep are an error, so corrupted
    /// input cannot overflow the stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// document the campaign formats write (a store record holding a custom
/// topology) nests fewer than 10 levels.
const MAX_DEPTH: usize = 64;

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `pos`, which sits inside `depth` enclosing
/// arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth >= MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(bytes, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '{'
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
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the full UTF-8 sequence starting here.
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xc0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number `{text}` at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_exactly() {
        for v in [
            0.0,
            -0.0,
            0.1 + 0.2, // the classic non-representable sum
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            -1234.567e-89,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let j = Json::Num(v).to_compact_string();
            let back = Json::parse(&j).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "value {v:?} via {j}");
        }
        // NaN round-trips to NaN (bit pattern not guaranteed, NaN-ness is).
        let j = Json::Num(f64::NAN).to_compact_string();
        assert!(Json::parse(&j).unwrap().as_f64().unwrap().is_nan());
    }

    #[test]
    fn hex_u64_round_trips() {
        for v in [0u64, 1, 42, u64::MAX, 0x9e37_79b9_7f4a_7c15] {
            assert_eq!(
                Json::parse(&Json::hex(v).to_compact_string())
                    .unwrap()
                    .as_hex_u64(),
                Some(v)
            );
        }
    }

    #[test]
    fn nested_document_round_trips() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::str("pack\"et\\n")),
            ("xs".into(), Json::Arr(vec![Json::Num(1.5), Json::str("a")])),
            ("inner".into(), Json::Obj(vec![("k".into(), Json::hex(7))])),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let text = doc.to_compact_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Whitespace-tolerant parsing.
        let spaced = text.replace(',', " ,\n ").replace(':', " : ");
        assert_eq!(Json::parse(&spaced).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "12x",
            "\"unterminated",
            "{} {}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            assert!(Json::parse(&open.repeat(100_000)).is_err(), "{open}");
        }
        // The cap itself still parses; one level more does not.
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    }
}
