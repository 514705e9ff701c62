//! The workspace's one JSON codec.
//!
//! The workspace has no JSON dependency, so replaying a recorded
//! `--telemetry` stream and reading or writing a `results/*.json` report
//! go through this module. [`parse`] is a strict recursive-descent parser
//! over the full JSON grammar — objects, arrays, strings with escapes,
//! numbers, booleans, null — kept deliberately tiny (no borrowed-slice
//! zero-copy tricks, no streaming) because the documents are short and
//! parsed once. [`Value`]'s `Display` is the writer: `{}` compact, `{:#}`
//! indented. [`read_records`] is the one stream reader every replay view
//! sits on: the inverse of [`crate::event::Event::to_json`], line by line.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::event::write_json_string;

/// A parsed JSON value. Numbers are uniformly `f64`, which is lossless
/// for every field telemetry itself emits (timestamps and durations stay
/// below 2^53 for ~285 years of microseconds).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is not preserved (sorted).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as an object map, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Appends the JSON form: on one line for `indent == None`, else one
    /// member per line, two spaces a level, starting at that level.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|level| level + 1);
        let newline = |out: &mut String, level: Option<usize>| {
            if let Some(level) = level {
                out.push('\n');
                out.extend(std::iter::repeat_n("  ", level));
            }
        };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN/Infinity literal. `{:?}` is the shortest
            // text that parses back to the same bits (`1.0`, `1e21`).
            Value::Num(n) if !n.is_finite() => out.push_str("null"),
            Value::Num(n) => {
                let _ = write!(out, "{n:?}");
            }
            Value::Str(s) => write_json_string(out, s),
            Value::Arr(items) if items.is_empty() => out.push_str("[]"),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    item.write(out, inner);
                }
                newline(out, indent);
                out.push(']');
            }
            Value::Obj(map) if map.is_empty() => out.push_str("{}"),
            Value::Obj(map) => {
                out.push('{');
                for (i, (key, value)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, inner);
                    write_json_string(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

/// The JSON text of the value, keys in sorted order: `{}` writes it on
/// one line, `{:#}` one member per line with two-space indentation.
/// Non-finite numbers become `null`, so the output always parses.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, f.alternate().then_some(0));
        f.write_str(&out)
    }
}

/// Parses one complete JSON document (e.g. one JSONL line).
///
/// # Errors
///
/// Returns a message naming the byte offset of the first syntax error,
/// including trailing garbage after the document.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

/// Walks a recorded telemetry stream once, line by line — the inverse of
/// [`crate::event::Event::to_json`]. `on_record(kind, name, fields)` runs
/// for every line that decodes to a record (a JSON object with string
/// `kind` and `name` and an object `fields`; the field values are what
/// the `from_event_fields` parsers take). Blank lines are ignored; the
/// return value counts every other line — a tail cut mid-line, foreign
/// text, JSON that is not a record.
pub fn read_records(stream: &str, mut on_record: impl FnMut(&str, &str, &Value)) -> usize {
    let mut skipped = 0;
    for line in stream.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let doc = parse(line).ok();
        let record = doc.as_ref().and_then(|v| {
            let fields = v.get("fields").filter(|f| f.as_obj().is_some())?;
            Some((v.get("kind")?.as_str()?, v.get("name")?.as_str()?, fields))
        });
        match record {
            Some((kind, name, fields)) => on_record(kind, name, fields),
            None => skipped += 1,
        }
    }
    skipped
}

/// Nesting beyond this is rejected rather than recursed into: a hostile
/// line of a hundred thousand `[` must be an error, not a stack overflow.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            ))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, String>,
    ) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting too deep at byte {}", self.pos));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(map)),
                _ => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos.saturating_sub(1)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(items)),
                _ => {
                    return Err(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos.saturating_sub(1)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pair: a high surrogate must be
                        // followed by an escaped low surrogate.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err("unpaired surrogate".into());
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".into());
                            }
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(combined).ok_or("invalid surrogate pair")?
                        } else {
                            char::from_u32(cp).ok_or("invalid unicode escape")?
                        };
                        out.push(c);
                    }
                    _ => return Err(format!("invalid escape at byte {}", self.pos)),
                },
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos - 1))
                }
                Some(b) => {
                    // Re-assemble multi-byte UTF-8 sequences: the input
                    // came from a &str, so the bytes are valid UTF-8.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    self.pos = start + len;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a') as u32 + 10,
                Some(b @ b'A'..=b'F') => (b - b'A') as u32 + 10,
                _ => return Err(format!("invalid \\u escape at byte {}", self.pos)),
            };
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
#[path = "../../../tests/proptest_util.rs"]
mod proptest_util;

#[cfg(test)]
mod tests {
    use super::proptest_util::{check, Gen};
    use super::*;
    use crate::event::{Event, EventKind, FieldValue};

    /// A random event: any kind, every `FieldValue` variant, and the
    /// text and numbers a serializer is most likely to get wrong.
    fn random_event(g: &mut Gen) -> Event {
        const KINDS: [EventKind; 5] = [
            EventKind::Span,
            EventKind::Counter,
            EventKind::Gauge,
            EventKind::Hist,
            EventKind::Event,
        ];
        const TEXT: [&str; 8] = [
            "",
            "round.transmit",
            "quo\"te",
            "back\\slash",
            "line\nfeed\r\ttab",
            "\u{1}\u{1f}\u{7f}",
            "é😀",
            "round;round.transmit",
        ];
        const FLOATS: [f64; 5] = [0.1, -1.5e-300, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let text = |g: &mut Gen| TEXT[g.usize_below(TEXT.len())];
        let fields: Vec<(String, FieldValue)> = (0..g.usize_below(6))
            .map(|i| {
                let value = match g.usize_below(5) {
                    // Integers are exact up to 2^53 inclusive.
                    0 => FieldValue::U64(g.next_u64() >> (11 + g.usize_below(53))),
                    1 => FieldValue::U64(1 << 53),
                    2 => FieldValue::F64(FLOATS[g.usize_below(FLOATS.len())]),
                    3 => FieldValue::F64(f64::from_bits(g.next_u64())),
                    _ => FieldValue::Str(text(g).into()),
                };
                (format!("{}{i}", text(g)), value)
            })
            .collect();
        let fields: Vec<(&str, FieldValue)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        Event::new(g.next_u64(), KINDS[g.usize_below(5)], text(g), &fields)
    }

    #[test]
    fn reader_inverts_the_event_serializer() {
        check(0x0010_ADED, 2_000, |case, g| {
            let e = random_event(g);
            let line = e.to_json();
            let mut seen = 0;
            let skipped = read_records(&line, |kind, name, fields| {
                seen += 1;
                assert_eq!((kind, name), (e.kind.as_str(), e.name.as_str()));
                let got = fields.as_obj().unwrap();
                assert_eq!(got.len(), e.fields.len(), "case {case}: {line}");
                for (key, value) in &e.fields {
                    let want = match value {
                        FieldValue::U64(n) => Value::Num(*n as f64),
                        FieldValue::F64(x) if x.is_finite() => Value::Num(*x),
                        FieldValue::F64(_) => Value::Null,
                        FieldValue::Str(s) => Value::Str(s.clone()),
                    };
                    assert_eq!(got[key], want, "case {case}: field {key:?} of {line}");
                }
            });
            assert_eq!((seen, skipped), (1, 0), "case {case}: {line}");
        });
    }

    /// A random document: every variant, nesting up to `depth`, the
    /// same awkward text as [`random_event`], any finite number.
    fn random_value(g: &mut Gen, depth: usize) -> Value {
        const TEXT: [&str; 5] = ["", "k", "quo\"te\\", "line\n\u{1}\u{7f}", "é😀"];
        let text = |g: &mut Gen| TEXT[g.usize_below(TEXT.len())].to_string();
        match g.usize_below(if depth == 0 { 5 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(g.bool()),
            2 => Value::Num((g.next_u64() >> g.usize_below(64)) as f64),
            // One exponent bit cleared: any finite value, never NaN or ±inf.
            3 => Value::Num(f64::from_bits(g.next_u64() & !(1 << 62))),
            4 => Value::Str(text(g)),
            5 => Value::Arr(
                (0..g.usize_below(4))
                    .map(|_| random_value(g, depth - 1))
                    .collect(),
            ),
            _ => Value::Obj(
                (0..g.usize_below(4))
                    .map(|i| (format!("{}{i}", text(g)), random_value(g, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn parser_inverts_the_writer() {
        check(0x0057_A17E, 2_000, |case, g| {
            let v = random_value(g, 3);
            let (compact, pretty) = (format!("{v}"), format!("{v:#}"));
            assert!(!compact.contains('\n'), "case {case}: {compact}");
            assert_eq!(parse(&compact).as_ref(), Ok(&v), "case {case}: {compact}");
            assert_eq!(parse(&pretty).as_ref(), Ok(&v), "case {case}: {pretty}");
        });
    }

    #[test]
    fn writer_shapes() {
        let v = parse(r#"{"b":[1,2.5,[]],"a":{"x":null,"y":{}},"c":"s"}"#).unwrap();
        assert_eq!(
            v.to_string(),
            r#"{"a":{"x":null,"y":{}},"b":[1.0,2.5,[]],"c":"s"}"#
        );
        assert_eq!(
            format!("{v:#}"),
            "{\n  \"a\": {\n    \"x\": null,\n    \"y\": {}\n  },\n  \"b\": [\n    1.0,\n    2.5,\n    []\n  ],\n  \"c\": \"s\"\n}"
        );
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(1e300).to_string(), "1e300");
    }

    #[test]
    fn reader_yields_complete_records_and_counts_the_rest() {
        let good = Event::new(1, EventKind::Counter, "x", &[("delta", 1u64.into())]).to_json();
        let cut = &good[..good.len() / 2];
        // CRLF endings, blank lines, garbage, JSON that is not a record
        // (no fields; not an object; fields not an object), a cut tail.
        let stream = format!(
            "{good}\r\n\r\n   \nnot json\n{good}\n{{\"kind\":\"span\",\"name\":\"a\"}}\n[1,2]\n\
             {{\"kind\":\"span\",\"name\":\"a\",\"fields\":3}}\n{good}\n{cut}"
        );
        let mut names = Vec::new();
        let skipped = read_records(&stream, |kind, name, fields| {
            assert_eq!(fields.get("delta"), Some(&Value::Num(1.0)));
            names.push(format!("{kind}:{name}"));
        });
        assert_eq!(names, ["counter:x"; 3]);
        assert_eq!(skipped, 5);
        assert_eq!(read_records("", |_, _, _| unreachable!()), 0);
    }

    #[test]
    fn reader_survives_hostile_bytes() {
        const ALPHABET: &[u8] = b"{}[]\",:\\/ \n\r\t-+.0123456789eEtrufalsn\x00\x7f\xc3\xa9\xf0";
        check(0x00F0_22ED, 10_000, |_, g| {
            // Random byte strings, biased towards JSON's own alphabet,
            // and single-byte mutations of valid lines.
            let bytes: Vec<u8> = if g.bool() {
                (0..g.usize_below(48))
                    .map(|_| match g.bool() {
                        true => ALPHABET[g.usize_below(ALPHABET.len())],
                        false => g.next_u64() as u8,
                    })
                    .collect()
            } else {
                let mut line = random_event(g).to_json().into_bytes();
                let at = g.usize_below(line.len());
                line[at] = g.next_u64() as u8;
                line
            };
            let text = String::from_utf8_lossy(&bytes);
            let mut records = 0;
            let skipped = read_records(&text, |_, _, _| records += 1);
            assert!(records + skipped <= text.lines().count());
        });
        // Nesting is bounded: an error, not a stack overflow.
        let nested = |depth: usize| format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn parses_telemetry_lines() {
        let line = r#"{"ts":1520,"kind":"span","name":"round.transmit","fields":{"micros":412,"path":"round;round.transmit"}}"#;
        let v = parse(line).unwrap();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("span"));
        assert_eq!(v.get("ts").and_then(Value::as_f64), Some(1520.0));
        let fields = v.get("fields").unwrap();
        assert_eq!(fields.get("micros").and_then(Value::as_f64), Some(412.0));
        assert_eq!(
            fields.get("path").and_then(Value::as_str),
            Some("round;round.transmit")
        );
    }

    #[test]
    fn parses_scalars_arrays_escapes() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(
            parse(r#"[1, "a\nb", {}]"#).unwrap(),
            Value::Arr(vec![
                Value::Num(1.0),
                Value::Str("a\nb".into()),
                Value::Obj(BTreeMap::new())
            ])
        );
        assert_eq!(parse(r#""é😀""#).unwrap(), Value::Str("é😀".into()));
    }

    #[test]
    fn round_trips_own_event_serializer() {
        use crate::event::{Event, EventKind};
        let e = Event::new(
            7,
            EventKind::Gauge,
            "fl.test_accuracy",
            &[("value", 0.5f64.into()), ("note", "a\"b\\c\nd".into())],
        );
        let v = parse(&e.to_json()).unwrap();
        assert_eq!(
            v.get("name").and_then(Value::as_str),
            Some("fl.test_accuracy")
        );
        assert_eq!(
            v.get("fields").unwrap().get("note").and_then(Value::as_str),
            Some("a\"b\\c\nd")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "\"abc", "12x", "{} extra"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }
}
