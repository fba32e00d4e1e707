//! A small, dependency-free JSON value type with a parser and writers.
//!
//! The build environment is offline, so `serde_json` is not available;
//! this module covers what the workspace needs: building values
//! programmatically (trace export, the CLI's `--json` mode), writing
//! them compactly or pretty-printed, and parsing them back for
//! round-trip tests and CLI output assertions.
//!
//! Numbers are kept as `f64` (integers up to 2^53 round-trip exactly,
//! ample for every counter this repository emits). Object key order is
//! preserved as inserted, so output is deterministic.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or replaces) a key in an object; panics on non-objects.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Json>) -> &mut Json {
        let Json::Obj(entries) = self else {
            panic!("Json::set on a non-object");
        };
        let key = key.into();
        let value = value.into();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            entries.push((key, value));
        }
        self
    }

    /// Builder-style [`Json::set`].
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Json>) -> Json {
        self.set(key, value);
        self
    }

    /// Object field lookup; `Json::Null` when absent or not an object.
    pub fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    /// Array element lookup; `Json::Null` when out of range.
    pub fn idx(&self, i: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(i).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an integer, if it is a whole number below 2^53. From
    /// there up an `f64` may not hold the integer the text did
    /// (`9007199254740993` reads as `…992`) and `as u64` saturates, so the
    /// answer is `None`, not a different integer. No writer comes near:
    /// DSNs are 2^43-scale, and `t_ps` reaches 2^53 at 9,007 simulated
    /// seconds where the longest ladder run takes ~350.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(n) if (0.0..EXACT).contains(n) && n.trunc() == *n => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Compact one-line rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d)
                })
            }
            Json::Obj(entries) => {
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i, d| {
                    let (k, v) = &entries[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d)
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            for _ in 0..step * (depth + 1) {
                out.push(' ');
            }
        }
        item(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        for _ in 0..step * depth {
            out.push(' ');
        }
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; degrade explicitly.
    } else if n.trunc() == n && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
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

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

macro_rules! from_ints {
    ($($t:ty),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}

from_ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (surrounding whitespace allowed).
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError {
            at: pos,
            msg: "trailing characters",
        });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &'static str) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(JsonError {
            at: *pos,
            msg: "invalid literal",
        })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    match bytes.get(*pos) {
        None => Err(JsonError {
            at: *pos,
            msg: "unexpected end of input",
        }),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            msg: "expected ',' or ']'",
                        })
                    }
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError {
                        at: *pos,
                        msg: "expected ':'",
                    });
                }
                *pos += 1;
                skip_ws(bytes, pos);
                entries.push((key, parse_value(bytes, pos)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(entries));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            msg: "expected ',' or '}'",
                        })
                    }
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError {
            at: *pos,
            msg: "expected string",
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => {
                return Err(JsonError {
                    at: *pos,
                    msg: "unterminated string",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or(JsonError {
                    at: *pos,
                    msg: "unterminated escape",
                })?;
                *pos += 1;
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
                        let hex = bytes.get(*pos..*pos + 4).ok_or(JsonError {
                            at: *pos,
                            msg: "truncated \\u escape",
                        })?;
                        let hex = std::str::from_utf8(hex).map_err(|_| JsonError {
                            at: *pos,
                            msg: "invalid \\u escape",
                        })?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                            at: *pos,
                            msg: "invalid \\u escape",
                        })?;
                        *pos += 4;
                        // Surrogate pairs are not needed by this repo's
                        // writers; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => {
                        return Err(JsonError {
                            at: *pos,
                            msg: "unknown escape",
                        })
                    }
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| JsonError {
                    at: *pos,
                    msg: "invalid UTF-8",
                })?;
                let c = rest.chars().next().ok_or(JsonError {
                    at: *pos,
                    msg: "unterminated string",
                })?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(JsonError {
            at: start,
            msg: "invalid number",
        })
}

impl PartialEq<f64> for Json {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<i32> for Json {
    fn eq(&self, other: &i32) -> bool {
        self.as_f64() == Some(f64::from(*other))
    }
}

impl PartialEq<u64> for Json {
    fn eq(&self, other: &u64) -> bool {
        self.as_u64() == Some(*other)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_renders_objects() {
        let v = Json::object()
            .with("name", "mesh 3x3")
            .with("devices", 18u32)
            .with("time_s", 0.5)
            .with("ok", true)
            .with("tags", vec![Json::from("a"), Json::from("b")]);
        assert_eq!(
            v.to_string_compact(),
            r#"{"name":"mesh 3x3","devices":18,"time_s":0.5,"ok":true,"tags":["a","b"]}"#
        );
    }

    #[test]
    fn pretty_round_trips() {
        let v = Json::object()
            .with("a", 1u32)
            .with("b", vec![Json::Null, Json::from(false)])
            .with("c", Json::object().with("nested", "yes\n\"quoted\""));
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"a\": 1"));
        assert_eq!(parse(&pretty).unwrap(), v);
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn parses_numbers_strings_nesting() {
        let v = parse(r#" {"x": [1, -2.5, 1e3], "y": {"z": null}} "#).unwrap();
        assert_eq!(v.get("x").idx(0), &Json::Num(1.0));
        assert_eq!(v.get("x").idx(1), &Json::Num(-2.5));
        assert_eq!(v.get("x").idx(2), &Json::Num(1000.0));
        assert_eq!(v.get("y").get("z"), &Json::Null);
        assert_eq!(v.get("missing"), &Json::Null);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse(r#"{"a" 1}"#).is_err());
        assert!(parse("tru").is_err());
        assert!(parse("{} {}").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn escapes_round_trip() {
        let v = Json::Str("tab\t nl\n quote\" back\\ ctrl\u{1}".into());
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }

    #[test]
    fn integers_render_without_exponent() {
        assert_eq!(
            Json::from(1_000_000_000u64).to_string_compact(),
            "1000000000"
        );
        assert_eq!(Json::from(0.25).to_string_compact(), "0.25");
    }

    #[test]
    fn comparisons_used_by_cli_tests() {
        let v = parse(r#"{"devices_found": 18, "scenario": "remove"}"#).unwrap();
        assert_eq!(*v.get("devices_found"), 18);
        assert_eq!(*v.get("devices_found"), 18u64);
        assert_eq!(*v.get("scenario"), "remove");
    }

    #[test]
    fn malformed_escapes_report_errors_instead_of_panicking() {
        // Every one of these once reached an `unwrap()` path.
        assert!(parse(r#""\x""#).is_err()); // unknown escape
        assert!(parse(r#""\"#).is_err()); // escape at end of input
        assert!(parse(r#""\u12"#).is_err()); // truncated \u escape
        assert!(parse(r#""\uZZZZ""#).is_err()); // non-hex \u escape
        assert!(parse("\"abc").is_err()); // unterminated string
                                          // Lone surrogate: documented to decode as U+FFFD, not panic.
        assert_eq!(
            parse(r#""\ud800""#).unwrap(),
            Json::Str("\u{FFFD}".to_string())
        );
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use proptest::{Rejected, TestRng};

        /// Characters biased toward JSON syntax and escape machinery, so
        /// random strings actually exercise the parser's edge paths.
        const SPICE: &[char] = &[
            '"',
            '\\',
            'u',
            'n',
            '{',
            '}',
            '[',
            ']',
            ':',
            ',',
            '0',
            '9',
            '-',
            '.',
            'e',
            ' ',
            '\t',
            '\n',
            'a',
            '\u{1}',
            '\u{FFFD}',
            '\u{10348}',
        ];

        fn arb_string(rng: &mut TestRng) -> Result<String, Rejected> {
            let picks = vec((0usize..SPICE.len(), any::<u32>()), 0..12usize).generate(rng)?;
            Ok(picks
                .into_iter()
                .map(|(i, raw)| {
                    if raw & 1 == 0 {
                        SPICE[i]
                    } else {
                        char::from_u32(raw % 0x11_0000).unwrap_or('\u{FFFD}')
                    }
                })
                .collect())
        }

        /// Arbitrary [`Json`] value of bounded depth. Numbers are dyadic
        /// rationals so text round-trips are exact.
        struct ArbJson(u8);

        impl Strategy for ArbJson {
            type Value = Json;

            fn generate(&self, rng: &mut TestRng) -> Result<Json, Rejected> {
                let variants = if self.0 == 0 { 4u8 } else { 6 };
                Ok(match (0..variants).generate(rng)? {
                    0 => Json::Null,
                    1 => Json::Bool((0u8..2).generate(rng)? == 1),
                    2 => {
                        let n = (-1_000_000_000i64..1_000_000_000).generate(rng)?;
                        let denom = 1u64 << (0u32..8).generate(rng)?;
                        Json::Num(n as f64 / denom as f64)
                    }
                    3 => Json::Str(arb_string(rng)?),
                    4 => Json::Arr(vec(ArbJson(self.0 - 1), 0..4usize).generate(rng)?),
                    _ => {
                        let len = (0usize..4).generate(rng)?;
                        let mut entries = Vec::with_capacity(len);
                        for i in 0..len {
                            // Prefix keeps keys distinct whatever the
                            // random tail contains.
                            let key = format!("k{i}{}", arb_string(rng)?);
                            entries.push((key, ArbJson(self.0 - 1).generate(rng)?));
                        }
                        Json::Obj(entries)
                    }
                })
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn arbitrary_values_round_trip_both_renderings(v in ArbJson(3)) {
                prop_assert_eq!(&parse(&v.to_string_compact()).unwrap(), &v);
                prop_assert_eq!(&parse(&v.to_string_pretty()).unwrap(), &v);
            }

            /// Any prefix of a serialized document must parse or error —
            /// never panic — and a strict prefix of a container document
            /// is always an error (its bracket is unbalanced).
            #[test]
            fn truncated_documents_error_cleanly(
                v in ArbJson(3),
                cut in any::<prop::sample::Index>(),
            ) {
                let text = v.to_string_compact();
                let mut end = cut.index(text.len().max(1)).min(text.len());
                while !text.is_char_boundary(end) {
                    end -= 1;
                }
                let result = parse(&text[..end]);
                if end < text.len() && matches!(v, Json::Arr(_) | Json::Obj(_)) {
                    prop_assert!(result.is_err(), "prefix {:?} parsed", &text[..end]);
                }
            }

            /// Syntax-biased garbage never panics the parser.
            #[test]
            fn garbage_input_never_panics(
                picks in vec((0usize..SPICE.len(), any::<u32>()), 0..24usize),
            ) {
                let text: String = picks
                    .into_iter()
                    .map(|(i, raw)| {
                        if raw & 1 == 0 {
                            SPICE[i]
                        } else {
                            char::from_u32(raw % 0x11_0000).unwrap_or('\u{FFFD}')
                        }
                    })
                    .collect();
                let _ = parse(&text);
            }
        }
    }
}
