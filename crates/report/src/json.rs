//! A minimal JSON document builder and parser.
//!
//! The workspace builds offline, so instead of `serde_json` the report layer
//! carries this small value type: enough to emit well-formed, escaped JSON
//! artifacts for every experiment, with non-finite numbers mapped to `null`
//! (JSON has no NaN/Infinity). [`JsonValue::parse`] reads the same dialect
//! back — the `repro serve` wire protocol and the bench baseline gate both
//! speak newline-delimited JSON, so the workspace needs to consume JSON, not
//! just emit it. Parsing is round-trip stable on this module's own output:
//! `JsonValue::parse(v.render())?.render() == v.render()` (numbers render
//! via `{:?}`, the shortest form that round-trips; integer tokens without
//! `.`/`e` stay [`JsonValue::Integer`]).

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Number(f64),
    /// An integer, rendered losslessly (an `f64` cannot hold every `u64`,
    /// e.g. Monte-Carlo seeds above 2^53).
    Integer(u64),
    /// A string (escaped on output).
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs.
    #[must_use]
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, JsonValue)>>(pairs: I) -> Self {
        Self::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    #[must_use]
    pub fn array<I: IntoIterator<Item = JsonValue>>(items: I) -> Self {
        Self::Array(items.into_iter().collect())
    }

    /// Serializes to a compact JSON string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact JSON text [`Self::render`] returns to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::Number(n) => {
                if n.is_finite() {
                    // `{:?}` is the shortest representation that round-trips.
                    out.push_str(&format!("{n:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Self::Integer(n) => out.push_str(&n.to_string()),
            Self::String(s) => write_escaped(s, out),
            Self::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Self::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// An error from [`JsonValue::parse`]: the byte offset where parsing failed
/// plus what was expected there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", char::from(byte))))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: a leading surrogate must be
                            // followed by `\uDC00..\uDFFF`.
                            let scalar = if (0xD800..0xDC00).contains(&hex) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let low = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| core::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .filter(|l| (0xDC00..0xE000).contains(l))
                                    .ok_or_else(|| self.err("unpaired surrogate"))?;
                                self.pos += 4;
                                0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                hex
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.err("invalid \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Multi-byte UTF-8: copy the whole character through.
                _ if b >= 0x80 => {
                    let start = self.pos - 1;
                    while self.peek().is_some_and(|n| n & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    let chunk = core::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
                _ if b < 0x20 => return Err(self.err("unescaped control character")),
                _ => out.push(char::from(b)),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // Integer tokens stay `Integer` so `parse(render(v))` re-renders
        // byte-identically (an f64 would turn `60000` into `60000.0`).
        if !fractional {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::Integer(n));
            }
        }
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(JsonValue::Number)
            .ok_or_else(|| self.err(format!("invalid number `{text}`")))
    }
}

impl JsonValue {
    /// Parses a JSON document. Trailing whitespace is allowed; trailing
    /// non-whitespace is an error (a protocol line must be exactly one
    /// value).
    ///
    /// # Errors
    ///
    /// [`JsonParseError`] with the byte offset of the first problem.
    pub fn parse(text: &str) -> Result<Self, JsonParseError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` for other variants or a missing
    /// key; first occurrence wins on duplicate keys).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload ([`Self::Number`] or [`Self::Integer`]).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Number(n) => Some(*n),
            #[allow(clippy::cast_precision_loss)]
            Self::Integer(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as an unsigned integer: an [`Self::Integer`], or a
    /// [`Self::Number`] with zero fraction.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Integer(n) => Some(*n),
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            Self::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            Self::Object(pairs) => Some(pairs),
            _ => None,
        }
    }
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        Self::Number(n)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        Self::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        Self::String(s)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        Self::Bool(b)
    }
}

impl core::fmt::Display for JsonValue {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.render())
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = JsonValue::object([
            ("name", JsonValue::from("fig10")),
            ("count", JsonValue::from(3.0)),
            ("ok", JsonValue::from(true)),
            (
                "tags",
                JsonValue::array([JsonValue::from("a"), JsonValue::Null]),
            ),
        ]);
        assert_eq!(
            doc.render(),
            r#"{"name":"fig10","count":3.0,"ok":true,"tags":["a",null]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let v = JsonValue::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(JsonValue::from(f64::NAN).render(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).render(), "null");
        assert_eq!(JsonValue::from(1.5e300).render(), "1.5e300");
    }

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("42").unwrap(), JsonValue::Integer(42));
        assert_eq!(JsonValue::parse("42.5").unwrap(), JsonValue::Number(42.5));
        assert_eq!(JsonValue::parse("-3").unwrap(), JsonValue::Number(-3.0));
        assert_eq!(JsonValue::parse("1e3").unwrap(), JsonValue::Number(1000.0));
        assert_eq!(
            JsonValue::parse(r#"{"a":[1,"x",{"b":false}],"c":null}"#).unwrap(),
            JsonValue::object([
                (
                    "a",
                    JsonValue::array([
                        JsonValue::Integer(1),
                        JsonValue::from("x"),
                        JsonValue::object([("b", JsonValue::Bool(false))]),
                    ]),
                ),
                ("c", JsonValue::Null),
            ])
        );
    }

    #[test]
    fn parse_render_round_trips_own_output() {
        // The wire protocol depends on this: a client that parses an
        // artifact envelope and re-renders the inner object must reproduce
        // the CLI's bytes exactly.
        let doc = JsonValue::object([
            ("intensity", JsonValue::from(380.0)),
            ("servers", JsonValue::Integer(60_000)),
            ("seed", JsonValue::Integer(u64::MAX)),
            ("ratio", JsonValue::from(1.28)),
            ("tiny", JsonValue::from(1.5e-9)),
            ("huge", JsonValue::from(1.5e300)),
            ("label", JsonValue::from("a\"b\\c\nd\te\u{1}ü")),
            ("none", JsonValue::Null),
            ("flags", JsonValue::array([JsonValue::Bool(true)])),
        ]);
        let rendered = doc.render();
        let reparsed = JsonValue::parse(&rendered).unwrap();
        assert_eq!(reparsed, doc);
        assert_eq!(reparsed.render(), rendered);
    }

    #[test]
    fn parses_string_escapes_and_surrogate_pairs() {
        assert_eq!(
            JsonValue::parse(r#""a\"b\\c\ndAü""#).unwrap(),
            JsonValue::from("a\"b\\c\nd\u{41}ü")
        );
        assert_eq!(JsonValue::parse(r#""😀""#).unwrap(), JsonValue::from("😀"));
        assert!(
            JsonValue::parse(r#""\ud83d""#).is_err(),
            "unpaired surrogate"
        );
    }

    #[test]
    fn rejects_malformed_documents_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a":}"#,
            r#"{"a" 1}"#,
            "nul",
            "1 2",
            "\"unterminated",
            "{\"a\":1,}",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "should reject `{bad}`");
        }
        let err = JsonValue::parse("[1, oops]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn accessors_navigate_parsed_documents() {
        let doc =
            JsonValue::parse(r#"{"name":"fig10","n":3,"x":1.5,"ok":true,"xs":[1,2]}"#).unwrap();
        assert_eq!(doc.get("name").and_then(JsonValue::as_str), Some("fig10"));
        assert_eq!(doc.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(doc.get("x").and_then(JsonValue::as_f64), Some(1.5));
        assert_eq!(doc.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(
            doc.get("xs").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert!(doc.get("missing").is_none());
        assert!(doc.as_object().is_some());
        assert!(JsonValue::Null.get("name").is_none());
    }
}
