//! The workspace's one JSON implementation: a [`Value`] tree, its
//! writer, one string escaper and a parser.
//!
//! Every `BENCH_*.json` artefact, report record and metrics registry is
//! built as a [`Value`] and written by its [`Display`](fmt::Display);
//! the gates, `benchdiff` and the tests read documents back with
//! [`parse`]. The streaming trace and telemetry exporters format their
//! own records but escape every string through `quoted`.
//!
//! The writer prints integers verbatim, a [`Value::Fixed`] float at the
//! decimal places its field declares, and a [`Value::Float`] in its
//! shortest round-trip form, so a deterministic number prints the same
//! bytes on every platform. The parser takes the RFC 8259 grammar with
//! two limits: nesting deeper than [`MAX_DEPTH`] is an error rather than
//! a stack overflow, and `\u` escapes of UTF-16 surrogates (which the
//! writer never emits) are rejected. Any input yields `Ok` or `Err`.

use std::fmt::{self, Write};
use std::ops::Index;

/// Deepest nesting of arrays and objects [`parse`] accepts. The
/// artefacts nest four levels; the parser recurses once per level.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An integer, printed verbatim.
    Int(i128),
    /// A float printed in its shortest round-trip form (`null` when not
    /// finite). [`parse`] reads every number with a fraction or an
    /// exponent as one.
    Float(f64),
    /// A float printed at a fixed number of decimal places (`null` when
    /// not finite).
    Fixed(f64, u8),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in the order they were written.
    Object(Vec<(String, Value)>),
}

/// An object [`Value`] of `"key": value` members, in order; each value
/// is anything that converts `Into<Value>`.
///
/// ```
/// use obs::json::Value;
/// let row = obs::object!("users": 4u64, "p99_ms": Value::Fixed(360.71, 2), "onset": None::<u64>);
/// assert_eq!(row.to_string(), r#"{ "users": 4, "p99_ms": 360.71, "onset": null }"#);
/// ```
#[macro_export]
macro_rules! object {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Value::Object(vec![$(($key.to_owned(), $crate::json::Value::from($value))),*])
    };
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The member `key` of an object, mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Object(members) => members.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Any number, as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(n) => Some(n as f64),
            Value::Float(x) | Value::Fixed(x, _) => Some(x),
            _ => None,
        }
    }

    /// An integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// A string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// An array's items (empty for anything else).
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Array(items) => items,
            _ => &[],
        }
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let (open, close, members): (char, char, Vec<(Option<&str>, &Value)>) = match self {
            Value::Null => return f.write_str("null"),
            Value::Bool(b) => return write!(f, "{b}"),
            Value::Int(n) => return write!(f, "{n}"),
            Value::Float(x) if x.is_finite() => return write!(f, "{x:?}"),
            Value::Fixed(x, places) if x.is_finite() => return write!(f, "{x:.*}", *places as usize),
            Value::Float(_) | Value::Fixed(..) => return f.write_str("null"),
            Value::Str(s) => return write!(f, "{}", quoted(s)),
            Value::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Value::Object(members) => {
                ('{', '}', members.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
        };
        let flat = members.iter().all(|(_, v)| !matches!(v, Value::Array(_) | Value::Object(_)));
        // A one-line object pads its braces: `{ "a": 1 }`.
        let pad = if flat && open == '{' && !members.is_empty() { " " } else { "" };
        write!(f, "{open}{pad}")?;
        for (i, (key, value)) in members.iter().enumerate() {
            let comma = if i == 0 { "" } else { "," };
            if flat {
                f.write_str(if i == 0 { "" } else { ", " })?;
            } else {
                write!(f, "{comma}\n{:width$}", "", width = indent + 2)?;
            }
            if let Some(key) = key {
                write!(f, "{}: ", quoted(key))?;
            }
            value.write(f, indent + 2)?;
        }
        if !flat {
            write!(f, "\n{:indent$}", "")?;
        }
        write!(f, "{pad}{close}")
    }
}

/// The artefact layout: a container that holds only scalars prints on
/// one line (`{ "a": 1, "b": 2 }`, `[1, 2]`), any other one member per
/// line, indented two spaces a level.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

static NULL: Value = Value::Null;

/// The member `key`, or `null` when `self` is not an object or lacks it.
impl Index<&str> for Value {
    type Output = Value;
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

/// The item at `i`, or `null` when `self` is not an array or is shorter.
impl Index<usize> for Value {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.items().get(i).unwrap_or(&NULL)
    }
}

macro_rules! from {
    ($($t:ty => |$x:ident| $value:expr),* $(,)?) => {$(
        impl From<$t> for Value {
            fn from($x: $t) -> Value {
                $value
            }
        }
    )*};
}
from!(
    bool => |b| Value::Bool(b),
    u32 => |n| Value::Int(n.into()),
    u64 => |n| Value::Int(n.into()),
    i64 => |n| Value::Int(n.into()),
    usize => |n| Value::Int(n as i128),
    f64 => |x| Value::Float(x),
    &str => |s| Value::Str(s.to_owned()),
    String => |s| Value::Str(s),
);

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Array(items.into_iter().collect())
    }
}

/// `s` as a JSON string literal, quotes included: `"`, `\` and control
/// characters are escaped, everything else (non-ASCII too) is verbatim.
pub(crate) fn quoted(s: &str) -> Quoted<'_> {
    Quoted(s)
}

/// The [`Display`](fmt::Display) adaptor [`quoted`] returns.
pub(crate) struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// Parses one JSON document; whitespace may surround it, nothing else.
/// An error names what was wrong and the byte offset it was found at.
pub fn parse(text: &str) -> Result<Value, String> {
    Parser::new(text, true).document()
}

/// Checks `text` exactly as [`parse`] does without building the value,
/// so memory stays flat however large the document (a fleet trace is
/// ~1 KB of [`Value`] per event).
pub fn validate(text: &str) -> Result<(), String> {
    Parser::new(text, false).document().map(drop)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Whether to build the value; [`validate`] only checks it.
    keep: bool,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, keep: bool) -> Self {
        Parser { text, pos: 0, keep }
    }

    fn document(&mut self) -> Result<Value, String> {
        let value = self.value(0)?;
        match self.peek() {
            None => Ok(value),
            Some(_) => self.fail("trailing bytes after the document"),
        }
    }

    fn fail<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The next byte after any whitespace.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.byte()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            None => self.fail("unexpected end of input"),
            Some(b'[' | b'{') if depth == MAX_DEPTH => self.fail("nesting deeper than MAX_DEPTH"),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Value::Array(items));
                }
                loop {
                    let item = self.value(depth + 1)?;
                    if self.keep {
                        items.push(item);
                    }
                    if self.eat(b']') {
                        return Ok(Value::Array(items));
                    }
                    if !self.eat(b',') {
                        return self.fail("expected ',' or ']'");
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                if self.eat(b'}') {
                    return Ok(Value::Object(members));
                }
                loop {
                    if self.peek() != Some(b'"') {
                        return self.fail("expected a string key");
                    }
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return self.fail("expected ':'");
                    }
                    let value = self.value(depth + 1)?;
                    if self.keep {
                        members.push((key, value));
                    }
                    if self.eat(b'}') {
                        return Ok(Value::Object(members));
                    }
                    if !self.eat(b',') {
                        return self.fail("expected ',' or '}'");
                    }
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if !self.text[self.pos..].starts_with(word) {
            return self.fail("expected a value");
        }
        self.pos += word.len();
        Ok(value)
    }

    /// A string literal; `pos` is at its opening quote.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.byte(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            if self.keep {
                // The run stops at an ASCII byte or the end: a char boundary.
                out.push_str(&self.text[start..self.pos]);
            }
            match self.byte() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let c = self.escape()?;
                    if self.keep {
                        out.push(c);
                    }
                }
                Some(_) => return self.fail("control character in a string"),
            }
        }
    }

    /// One escape sequence; `pos` is at its backslash.
    fn escape(&mut self) -> Result<char, String> {
        self.pos += 1;
        let c = match self.byte() {
            None => return self.fail("unterminated escape"),
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = self.text.get(self.pos + 1..self.pos + 5);
                let hex = hex.filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                // `from_u32` refuses surrogates, which need a pair.
                match hex.and_then(|h| char::from_u32(u32::from_str_radix(h, 16).ok()?)) {
                    Some(c) => {
                        self.pos += 4;
                        c
                    }
                    None => return self.fail("bad or surrogate \\u escape"),
                }
            }
            Some(_) => return self.fail("unknown escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.pos += usize::from(self.byte() == Some(b'-'));
        match self.byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return self.fail("expected a value"),
        }
        let mut float = false;
        if self.byte() == Some(b'.') {
            self.pos += 1;
            float = true;
            if self.digits() == 0 {
                return self.fail("expected digits after '.'");
            }
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            self.pos += 1;
            float = true;
            self.pos += usize::from(matches!(self.byte(), Some(b'+' | b'-')));
            if self.digits() == 0 {
                return self.fail("expected exponent digits");
            }
        }
        let token = &self.text[start..self.pos];
        let value = if float {
            token.parse().ok().map(Value::Float)
        } else {
            token.parse().ok().map(Value::Int)
        };
        value.map_or_else(|| self.fail("integer out of range"), Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_writer_lays_out_artefacts() {
        let doc = object!(
            "experiment": "F0",
            "wall": object!("secs": Value::Fixed(0.5, 3), "n": 7u64),
            "rows": Value::Array(vec![object!("a": 1u64), object!()]),
            "pops": [10u64, 20].map(Value::from).into_iter().collect::<Value>(),
            "none": Value::Array(Vec::new()),
            "onset": None::<u64>,
        );
        assert_eq!(
            doc.to_string(),
            "{\n  \"experiment\": \"F0\",\n  \"wall\": { \"secs\": 0.500, \"n\": 7 },\n  \
             \"rows\": [\n    { \"a\": 1 },\n    {}\n  ],\n  \"pops\": [10, 20],\n  \
             \"none\": [],\n  \"onset\": null\n}"
        );
    }

    #[test]
    fn floats_print_at_their_places_or_shortest_and_never_as_nan() {
        assert_eq!(Value::Fixed(48.23449, 4).to_string(), "48.2345");
        assert_eq!(Value::Fixed(2.0, 1).to_string(), "2.0");
        assert_eq!(Value::Float(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
        assert_eq!(Value::Float(f64::NAN).to_string(), "null");
        assert_eq!(Value::Fixed(f64::INFINITY, 2).to_string(), "null");
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls_only() {
        let s = "a\"b\\c\nd\re\tf\u{1}é☃";
        assert_eq!(quoted(s).to_string(), "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001é☃\"");
        let escapes = parse("\"\\u00e9\\/\\b\\f\"");
        assert_eq!(escapes, Ok(Value::Str("é/\u{8}\u{c}".into())));
    }

    #[test]
    fn numbers_follow_the_grammar() {
        assert_eq!(parse("18446744073709551615"), Ok(Value::Int(u64::MAX.into())));
        assert_eq!(parse("-0"), Ok(Value::Int(0)));
        assert_eq!(parse("2.50"), Ok(Value::Float(2.5)));
        assert_eq!(parse("1e-7"), Ok(Value::Float(1e-7)));
        assert_eq!(parse("-1.5E+2"), Ok(Value::Float(-150.0)));
        for bad in ["01", "1.", ".5", "+1", "-", "1e", "0x10", "NaN", "1e+"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn malformed_documents_are_errors_and_validate_agrees() {
        for bad in [
            "", "{", "{\"a\": }", "{\"a\": 1} trailing", "{\"a\": 1", "[1,]", "[1 2]", "{a: 1}",
            "{\"a\" 1}", "\"open", "\"raw\ncontrol\"", "\"\\x\"", "\"\\ud800\"", "\"\\u12\"", "tru",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
            assert_eq!(validate(bad), parse(bad).map(drop), "{bad:?}");
        }
        assert_eq!(validate("{\"a\": [1, \"\\n\"]}"), Ok(()));
    }

    #[test]
    fn indexing_reads_members_and_items_or_null() {
        let doc = parse("{\"knee\": [{\"p99_ms\": 1.5}], \"n\": 3}").unwrap();
        assert_eq!(doc["knee"][0]["p99_ms"].as_f64(), Some(1.5));
        assert_eq!(doc["n"].as_u64(), Some(3));
        assert_eq!(doc["missing"][7], Value::Null);
        assert_eq!(doc["knee"].items().len(), 1);
    }
}
