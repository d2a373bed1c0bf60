//! A hand-rolled JSON value, serializer and parser.
//!
//! The registry is not always reachable from CI, so the workspace
//! carries no external dependencies; this module implements the small
//! JSON subset the wire protocol and the result cache need:
//!
//! * values: `null`, booleans, **integers only** (`i64` — wall times are
//!   integer microseconds by protocol, see `codec`), strings, arrays,
//!   objects;
//! * objects are a `Vec<(String, Json)>`, preserving insertion order, so
//!   serialization is **deterministic**: encoding the same value twice
//!   yields identical bytes (the cache's byte-identity guarantee rests
//!   on this);
//! * the parser accepts any standard JSON with integer numbers
//!   (duplicate keys keep the first occurrence on lookup) nested at most
//!   [`MAX_DEPTH`] arrays/objects deep. It recurses once per level, so
//!   the cap is what keeps a hostile line of `[[[[…` a typed error
//!   instead of a stack overflow that aborts the whole process.

use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. The protocol's
/// own documents nest under a dozen levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON document.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (the protocol never uses floats).
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministic (insertion) key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object (first occurrence).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer content, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean content, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string content, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an `Arr`.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serializes to the canonical compact form (no whitespace; object
    /// keys in stored order; strings minimally escaped). Deterministic:
    /// equal values produce identical bytes.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Str(s) => write_string(s, out),
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
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed; trailing
    /// non-whitespace is an error).
    pub fn parse(src: &str) -> Result<Json, JsonError> {
        let bytes = src.as_bytes();
        let mut p = Parser {
            src,
            bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(JsonError::at(p.pos, "trailing characters"));
        }
        Ok(v)
    }
}

fn write_string(s: &str, out: &mut String) {
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

/// A parse failure with its byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl JsonError {
    fn at(pos: usize, msg: impl Into<String>) -> Self {
        JsonError {
            pos,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    /// The input; `bytes` is its byte view.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::at(self.pos, format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(JsonError::at(self.pos, format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(JsonError::at(
                        self.pos,
                        format!("nesting deeper than {MAX_DEPTH} levels"),
                    ));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(JsonError::at(
                self.pos,
                format!("unexpected '{}'", c as char),
            )),
            None => Err(JsonError::at(self.pos, "unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(JsonError::at(self.pos, "floats are not supported"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at(start, "invalid utf-8 in number"))?;
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|_| JsonError::at(start, "integer out of range"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::at(self.pos, "unterminated string")),
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(JsonError::at(self.pos, "truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| JsonError::at(self.pos, "invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::at(self.pos, "invalid \\u escape"))?;
                            // Surrogate pairs are not needed by the
                            // protocol (escapes only cover control chars);
                            // reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| JsonError::at(self.pos, "invalid code point"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::at(self.pos, "invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one go. Both are ASCII, so the run ends on a char
                    // boundary of the input `&str` and needs no
                    // re-validation: the scan is linear in the string.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(JsonError::at(self.pos, "expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_round_trip() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Int(-42)),
            ("b".into(), Json::str("hi \"there\"\nline2")),
            (
                "c".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Bool(false)]),
            ),
            ("d".into(), Json::Obj(vec![])),
        ]);
        let text = v.encode();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        // Determinism: re-encoding is byte-identical.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = Json::parse(" { \"k\" : [ 1 , 2 ] , \"s\" : \"a\\u0041\\t\" } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("s").unwrap().as_str(), Some("aA\t"));
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("1e3").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("true false").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn integer_bounds() {
        assert_eq!(
            Json::parse("9223372036854775807").unwrap(),
            Json::Int(i64::MAX)
        );
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
        assert!(Json::parse("9223372036854775808").is_err());
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.pos, MAX_DEPTH);
        assert!(err.msg.contains("nesting"), "{err}");
        // Objects count toward the same cap.
        let objs = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objs).is_err());
        // 100 KB of `[` used to overflow the stack and abort.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Each character used to re-validate the whole remaining input
        // as UTF-8, so a 1 MB literal took minutes. Non-ASCII text and
        // escapes must survive the run-at-a-time copy.
        let text = "héllo ✶ 日本 \"q\" \\ \t 🎉 ".repeat(1 << 15);
        assert!(text.len() > 1_000_000);
        let v = Json::Obj(vec![("s".into(), Json::str(text.as_str()))]);
        let enc = v.encode();
        let started = std::time::Instant::now();
        let parsed = Json::parse(&enc).unwrap();
        let took = started.elapsed();
        assert!(
            took < std::time::Duration::from_secs(5),
            "1 MB string took {took:?}"
        );
        assert_eq!(parsed, v);
        assert_eq!(parsed.get("s").unwrap().as_str(), Some(text.as_str()));
    }

    #[test]
    fn control_chars_escape_round_trip() {
        let v = Json::str("\u{1}\u{2}x");
        let enc = v.encode();
        assert_eq!(enc, "\"\\u0001\\u0002x\"");
        assert_eq!(Json::parse(&enc).unwrap(), v);
    }
}
