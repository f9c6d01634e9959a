//! A minimal JSON document builder.
//!
//! The workspace builds fully offline, with no JSON serialization crate.
//! Reports that want a machine-readable form build a [`Json`] tree by
//! hand and render it; the output is plain RFC 8259 JSON suitable for
//! `jq` and CI diffing.
//!
//! # Examples
//!
//! ```
//! use blockpart_metrics::Json;
//!
//! let doc = Json::obj([
//!     ("name", Json::from("HASH")),
//!     ("k", Json::from(2u64)),
//!     ("cut", Json::from(0.5f64)),
//! ]);
//! assert_eq!(doc.render(), r#"{"name":"HASH","k":2,"cut":0.5}"#);
//! ```

/// A JSON value tree.
///
/// Equality is numeric across the two exact-integer variants: a JSON
/// number has no signedness, so `Json::Int(5) == Json::UInt(5)`. This
/// keeps parse/render round-trips stable — the parser normalises any
/// non-negative integer (including `-0`) to [`Json::UInt`], while builder
/// code may have produced the same number through `From<i64>`. Floats
/// ([`Json::Num`]) stay a distinct type: `Num(5.0)` renders as `5.0`, not
/// `5`, and never equals an integer variant.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer, rendered exactly.
    Int(i64),
    /// An unsigned integer, rendered exactly (no f64 precision loss).
    UInt(u64),
    /// A float. Non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Renders human/diff-friendly JSON with 2-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(f) if !f.is_finite() => out.push_str("null"),
            Json::Num(f) => {
                // Rust's shortest round-trip float formatting is valid
                // JSON except for integral values ("1" needs no ".0", but
                // emit it so consumers see a float-typed field)
                let s = f.to_string();
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    escape_into(key, out);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

impl Json {
    /// Parses a JSON document (the inverse of
    /// [`render`](Self::render)/[`render_pretty`](Self::render_pretty)).
    ///
    /// Accepts everything the builder emits (and thus everything RFC
    /// 8259 requires of those documents), plus a few lenient forms a
    /// strict validator would reject — leading-zero numbers, trailing
    /// `1.`, raw control characters inside strings. Use a strict tool if
    /// validation, rather than recovery of a report, is the goal.
    ///
    /// Numbers parse as [`Json::UInt`]/[`Json::Int`] when they carry no
    /// fraction or exponent, [`Json::Num`] otherwise — matching what the
    /// builder emits. Duplicate object keys are kept in document order
    /// (lookups see the first).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    ///
    /// # Examples
    ///
    /// ```
    /// use blockpart_metrics::Json;
    ///
    /// let doc = Json::parse(r#"{"stage": "graph-build", "median_ms": 12.5}"#).unwrap();
    /// assert_eq!(doc.get("median_ms").and_then(Json::as_f64), Some(12.5));
    /// assert_eq!(doc.render(), r#"{"stage":"graph-build","median_ms":12.5}"#);
    /// ```
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.at));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float: `Num` directly, `Int`/`UInt` widened.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Num(f) => Some(f),
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            _ => None,
        }
    }

    /// The value as an unsigned integer (`UInt`, or non-negative `Int`).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::UInt(u) => Some(u),
            Json::Int(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// `true` for [`Json::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::UInt(a), Json::UInt(b)) => a == b,
            (Json::Int(i), Json::UInt(u)) | (Json::UInt(u), Json::Int(i)) => {
                u64::try_from(*i) == Ok(*u)
            }
            _ => false,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.at) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", char::from(b), self.at))
        }
    }

    fn eat_literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.at)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
            }
        }
    }

    /// Reads exactly four hex digits of a `\u` escape. Strict: the JSON
    /// grammar allows only `[0-9A-Fa-f]{4}`, so the `+`/`-`/whitespace
    /// leniency of `u32::from_str_radix` must not leak in.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.at..self.at + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
        let mut code = 0u32;
        for &d in digits {
            let nibble = match d {
                b'0'..=b'9' => u32::from(d - b'0'),
                b'a'..=b'f' => u32::from(d - b'a') + 10,
                _ => u32::from(d.to_ascii_lowercase() - b'a') + 10,
            };
            code = code << 4 | nibble;
        }
        self.at += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.at;
            while let Some(&b) = self.bytes.get(self.at) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.at += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at])
                    .map_err(|_| format!("invalid utf-8 at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("unterminated escape at byte {}", self.at))?;
                    self.at += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            // Surrogate pairs: JSON encodes astral chars as
                            // two \u escapes.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.at..self.at + 2) != Some(b"\\u") {
                                    return Err(format!("unpaired surrogate at byte {}", self.at));
                                }
                                self.at += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(format!("unpaired surrogate at byte {}", self.at));
                                }
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| {
                                format!("invalid code point at byte {}", self.at)
                            })?);
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.at)),
                    }
                }
                _ => return Err(format!("unterminated string at byte {}", self.at)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut fractional = false;
        while let Some(&b) = self.bytes.get(self.at) {
            match b {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        if !fractional {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                // Normalise `-0` (and any other non-negative spelling that
                // failed the u64 path) so reserialization is a fixed point.
                return Ok(match u64::try_from(i) {
                    Ok(u) => Json::UInt(u),
                    Err(_) => Json::Int(i),
                });
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

fn escape_into(s: &str, out: &mut String) {
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

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::UInt(u64::from(v))
    }
}
impl From<u16> for Json {
    fn from(v: u16) -> Json {
        Json::UInt(u64::from(v))
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::from(true).render(), "true");
        assert_eq!(Json::from(42u64).render(), "42");
        assert_eq!(Json::from(-7i64).render(), "-7");
        assert_eq!(Json::from(0.5).render(), "0.5");
        assert_eq!(Json::from(3.0).render(), "3.0");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn large_u64_is_exact() {
        let v = u64::MAX;
        assert_eq!(Json::from(v).render(), v.to_string());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::from("a\"b\\c\nd\u{1}").render(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
    }

    #[test]
    fn nested_structure() {
        let doc = Json::obj([
            ("xs", Json::arr([Json::from(1u64), Json::from(2u64)])),
            ("empty", Json::arr([])),
            ("o", Json::obj::<&str>([])),
        ]);
        assert_eq!(doc.render(), r#"{"xs":[1,2],"empty":[],"o":{}}"#);
    }

    #[test]
    fn parse_roundtrips_render() {
        let doc = Json::obj([
            ("name", Json::from("bench/\"quoted\"\n")),
            ("k", Json::from(8u64)),
            ("neg", Json::from(-3i64)),
            ("ms", Json::from(1.25)),
            ("whole", Json::from(3.0)),
            ("flag", Json::from(true)),
            ("nothing", Json::Null),
            ("xs", Json::arr([Json::from(1u64), Json::from(2u64)])),
            ("o", Json::obj([("inner", Json::arr([]))])),
        ]);
        for rendered in [doc.render(), doc.render_pretty()] {
            let parsed = Json::parse(&rendered).unwrap();
            assert_eq!(parsed, doc, "mismatch for {rendered}");
        }
    }

    #[test]
    fn parse_accessors() {
        let doc = Json::parse(r#"{"a": [1, -2, 2.5], "s": "x", "b": false, "n": null}"#).unwrap();
        let xs = doc.get("a").unwrap().as_array().unwrap();
        assert_eq!(xs[0].as_u64(), Some(1));
        assert_eq!(xs[1].as_f64(), Some(-2.0));
        assert_eq!(xs[2].as_f64(), Some(2.5));
        assert_eq!(doc.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("b").unwrap().as_bool(), Some(false));
        assert!(doc.get("n").unwrap().is_null());
        assert!(doc.get("missing").is_none());
    }

    #[test]
    fn parse_escapes_and_unicode() {
        let doc = Json::parse(r#""é\t\\\" 😀""#).unwrap();
        assert_eq!(doc.as_str(), Some("é\t\\\" 😀"));
    }

    #[test]
    fn parse_exponents_and_big_ints() {
        assert_eq!(Json::parse("1e3").unwrap().as_f64(), Some(1000.0));
        assert_eq!(
            Json::parse(&u64::MAX.to_string()).unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(Json::parse("-5").unwrap(), Json::Int(-5));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "\"unterminated",
            "{\"a\" 1}",
            "1 2",
            "{,}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_rejects_bad_surrogates_without_panicking() {
        // a high surrogate followed by anything but a low-surrogate
        // escape must be a parse error, not an arithmetic underflow
        let not_low = String::from("\"\\uD83D\\u0041\""); // \uD83D\u0041
        let bare = String::from("\"\\uD83D\"");
        let not_escape = String::from("\"\\uD83DA\"");
        for bad in [&not_low, &bare, &not_escape] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // a valid pair still decodes
        let pair = String::from("\"\\uD83D\\uDE00\"");
        assert_eq!(Json::parse(&pair).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn pretty_is_reparseable_shape() {
        let doc = Json::obj([("a", Json::arr([Json::from(1u64)]))]);
        let pretty = doc.render_pretty();
        assert!(pretty.contains("\n  \"a\": [\n"));
        // compact and pretty carry the same tokens
        let strip = |s: &str| s.replace([' ', '\n'], "");
        assert_eq!(strip(&pretty), strip(&doc.render()));
    }
}
