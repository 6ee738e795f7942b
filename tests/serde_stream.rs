//! The vendored serde shim streams both ways: `Serialize` pushes events
//! into a sink, `Deserialize` pulls them out of a source; `serde_json` is
//! a sink that writes bytes and a source that reads them, the `Value`
//! tree is another of each. These tests hold the streamed JSON to the
//! tree-walking emitter it replaced and the streamed reads to the
//! tree-building parser they replaced (both kept here as the reference),
//! for every shape the derive supports; hold the sink's own float text to
//! `core::fmt`'s, and what it copies from its memos to the reference
//! emitter; hold `to_writer` to its I/O contract; and feed the
//! reader, and the dataset and manifest readers built on it, truncated,
//! mutated and hostile bytes.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{Deserialize, Serialize, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{self, Write};

// ---------------------------------------------------------------------------
// The emitter `serde_json` had before streaming: JSON text from a `Value`.

fn reference_json(v: &Value, out: &mut String) {
    match v {
        Value::Unit => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::F64(x) if !x.is_finite() => out.push_str("null"),
        Value::F64(x) if *x == x.trunc() && x.abs() < 1.0e15 => out.push_str(&format!("{x:.1}")),
        Value::F64(x) => out.push_str(&format!("{x}")),
        Value::Str(s) => reference_str(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                reference_json(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match k {
                    Value::Str(s) => reference_str(s, out),
                    other => {
                        let mut inner = String::new();
                        reference_json(other, &mut inner);
                        reference_str(&inner, out);
                    }
                }
                out.push(':');
                reference_json(val, out);
            }
            out.push('}');
        }
    }
}

fn reference_str(s: &str, out: &mut String) {
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

// ---------------------------------------------------------------------------
// The reader `serde_json` had before streaming: JSON text to a `Value`, by
// recursive descent, for a type to deserialize out of. Verbatim but for the
// error type. Known differences of the streaming reader, all on purpose: it
// refuses more than 128 nested containers (this one overflows the stack), it
// decodes a `\u` surrogate pair to the scalar it encodes (this one to two
// U+FFFD), and it wants four hex digits after `\u` (`from_str_radix` here
// also takes `+12f`).

struct Reference<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn reference_parse(text: &str) -> Result<Value, String> {
    let mut p = Reference {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

impl Reference<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Unit),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            entries.push((Value::Str(key), val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
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
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|_| "number")?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| format!("invalid number `{text}`"))
    }
}

// ---------------------------------------------------------------------------
// One type per derive shape, and a document that nests them all.

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, PartialOrd, Eq, Ord, Serialize, Deserialize)]
struct Pair(u8, i8);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Meters(f64);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Event {
    Idle,
    Gauge(f64),
    Span(u32, String),
    Fault { code: i64, detail: Option<String> },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Doc {
    id: u64,
    delta: i32,
    ratio: f64,
    single: f32,
    label: String,
    initial: char,
    flag: bool,
    marker: Marker,
    pair: Pair,
    height: Meters,
    maybe: Option<f64>,
    events: Vec<Event>,
    grid: Vec<Vec<f64>>,
    fixed: [i16; 3],
    tuple: (u8, String, f64),
    named: BTreeMap<String, Vec<f64>>,
    boxed: Box<Event>,
}

#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Eq, Ord, Serialize)]
enum Tone {
    Low,
    High,
}

/// A named struct with a unit-variant field, for a map key.
#[derive(Debug, Clone, PartialEq, PartialOrd, Eq, Ord, Serialize)]
struct Slot {
    index: u8,
    tone: Tone,
    name: String,
}

/// Maps whose keys are not strings: JSON has no such thing, so the
/// writer quotes the key's own JSON text. Write-only (the quoted key
/// does not parse back into its type).
#[derive(Debug, Clone, PartialEq, Serialize)]
struct Keyed {
    by_index: BTreeMap<u32, String>,
    by_pair: BTreeMap<Pair, f64>,
    by_tuple: BTreeMap<(i8, bool), Vec<u8>>,
    /// A key that itself contains a map with non-string keys.
    by_map: BTreeMap<BTreeMap<u8, String>, u8>,
    by_option: BTreeMap<Option<u8>, u8>,
    /// Keys written through `field` and a unit variant's `str`.
    by_slot: BTreeMap<Slot, Tone>,
    /// A unit variant is a string: the key is that string, unquoted.
    by_tone: BTreeMap<Tone, String>,
}

// ---------------------------------------------------------------------------
// Generators.

struct Draw<'a>(&'a mut TestRng);

impl Draw<'_> {
    fn below(&mut self, n: u64) -> u64 {
        self.0.below(n)
    }

    fn f64(&mut self) -> f64 {
        match self.below(12) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            // Integral: small, at the `.1` / plain boundary, far past it.
            5 => (self.below(2_000_000) as f64 - 1.0e6).trunc(),
            6 => [9.99999999999999e14, 1.0e15, -1.0e15, 1.0e15 + 2.0][self.below(4) as usize],
            7 => [1.0e300, -1.7976931348623157e308, 5e-324, 2.5e-7][self.below(4) as usize],
            _ => f64::from_bits(self.0.next_u64()),
        }
    }

    fn string(&mut self) -> String {
        const PIECES: [&str; 12] = [
            "plain", "", " ", "\"", "\\", "\n", "\r\t", "\u{0}", "\u{1f}", "é", "日本", "🦀",
        ];
        let n = self.below(5);
        (0..n)
            .map(|_| PIECES[self.below(PIECES.len() as u64) as usize])
            .collect()
    }

    fn vec<T>(&mut self, max: u64, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.below(max + 1);
        (0..n).map(|_| item(self)).collect()
    }

    fn event(&mut self) -> Event {
        match self.below(4) {
            0 => Event::Idle,
            1 => Event::Gauge(self.f64()),
            2 => Event::Span(self.0.next_u64() as u32, self.string()),
            _ => Event::Fault {
                code: self.0.next_u64() as i64,
                detail: (self.below(2) == 0).then(|| self.string()),
            },
        }
    }

    fn pair(&mut self) -> Pair {
        Pair(self.0.next_u64() as u8, self.0.next_u64() as i8)
    }

    fn doc(&mut self) -> Doc {
        Doc {
            id: self.0.next_u64(),
            delta: self.0.next_u64() as i32,
            ratio: self.f64(),
            single: self.f64() as f32,
            label: self.string(),
            initial: ['a', '"', '\u{7}', 'ß', '漢'][self.below(5) as usize],
            flag: self.below(2) == 0,
            marker: Marker,
            pair: self.pair(),
            height: Meters(self.f64()),
            maybe: (self.below(3) > 0).then(|| self.f64()),
            events: self.vec(4, Self::event),
            grid: self.vec(3, |d| d.vec(3, Self::f64)),
            fixed: [0; 3].map(|_: i16| self.0.next_u64() as i16),
            tuple: (self.0.next_u64() as u8, self.string(), self.f64()),
            named: self
                .vec(3, |d| (d.string(), d.vec(2, Self::f64)))
                .into_iter()
                .collect(),
            boxed: Box::new(self.event()),
        }
    }

    fn keyed(&mut self) -> Keyed {
        Keyed {
            by_index: self
                .vec(3, |d| (d.0.next_u64() as u32, d.string()))
                .into_iter()
                .collect(),
            by_pair: self.vec(3, |d| (d.pair(), d.f64())).into_iter().collect(),
            by_tuple: self
                .vec(3, |d| {
                    let key = (d.0.next_u64() as i8, d.below(2) == 0);
                    (key, d.vec(3, |d| d.0.next_u64() as u8))
                })
                .into_iter()
                .collect(),
            by_map: self
                .vec(2, |d| {
                    let key = d
                        .vec(2, |d| (d.0.next_u64() as u8, d.string()))
                        .into_iter()
                        .collect();
                    (key, d.0.next_u64() as u8)
                })
                .into_iter()
                .collect(),
            by_option: self
                .vec(2, |d| {
                    let key = (d.below(2) == 0).then(|| d.0.next_u64() as u8);
                    (key, 1)
                })
                .into_iter()
                .collect(),
            by_slot: self
                .vec(3, |d| {
                    let key = Slot {
                        index: d.0.next_u64() as u8,
                        tone: d.tone(),
                        name: d.string(),
                    };
                    (key, d.tone())
                })
                .into_iter()
                .collect(),
            by_tone: self
                .vec(2, |d| (d.tone(), d.string()))
                .into_iter()
                .collect(),
        }
    }

    fn tone(&mut self) -> Tone {
        [Tone::Low, Tone::High][self.below(2) as usize]
    }
}

impl Draw<'_> {
    /// A value of any kind, for a field no type asks for.
    fn any_value(&mut self, depth: u64) -> Value {
        match self.below(if depth == 0 { 6 } else { 8 }) {
            0 => Value::Unit,
            1 => Value::Bool(self.below(2) == 0),
            2 => Value::U64(self.0.next_u64()),
            3 => Value::I64(-((self.0.next_u64() >> 1) as i64) - 1),
            4 => Value::F64([0.5, -1.0e300, 3.0, 1.0e15][self.below(4) as usize]),
            5 => Value::Str(self.string()),
            6 => Value::Seq(self.vec(3, |d| d.any_value(depth - 1))),
            _ => Value::Map(self.vec(3, |d| (Value::Str(d.string()), d.any_value(depth - 1)))),
        }
    }

    /// Rearrange the map of a struct's fields without changing what it
    /// reads as: add fields the struct does not have, shuffle, then
    /// repeat some of the struct's own fields (with a value of any kind)
    /// somewhere after the original.
    fn scramble_struct(&mut self, map: &mut Value) {
        let Value::Map(entries) = map else {
            panic!("a struct is a map")
        };
        let own: Vec<Value> = entries.iter().map(|(k, _)| k.clone()).collect();
        for i in 0..self.below(4) {
            entries.push((Value::Str(format!("not a field {i}")), self.any_value(2)));
        }
        for i in (1..entries.len()).rev() {
            entries.swap(i, self.below(i as u64 + 1) as usize);
        }
        for _ in 0..self.below(3) {
            let again = own[self.below(own.len() as u64) as usize].clone();
            let first = entries.iter().position(|(k, _)| *k == again).unwrap();
            let at = first + 1 + self.below((entries.len() - first) as u64) as usize;
            entries.insert(at, (again, self.any_value(2)));
        }
    }
}

/// The elements of field `name` of the struct `map`, or the field itself
/// when it is not a sequence.
fn field_mut<'a>(map: &'a mut Value, name: &str) -> &'a mut [Value] {
    let Value::Map(entries) = map else {
        panic!("a struct is a map")
    };
    let (_, field) = entries
        .iter_mut()
        .find(|(k, _)| k.as_str() == Some(name))
        .expect("the first entry of that name");
    match field {
        Value::Seq(items) => items,
        other => std::slice::from_mut(other),
    }
}

struct Docs;

impl Strategy for Docs {
    type Value = (Doc, Keyed);
    fn generate(&self, rng: &mut TestRng) -> (Doc, Keyed) {
        let mut draw = Draw(rng);
        (draw.doc(), draw.keyed())
    }
}

/// What every serializable value must satisfy: the streamed text is the
/// reference emitter's text of the value's tree, and it survives a trip
/// through the parser (compact and pretty).
fn check_streamed<T: Serialize + ?Sized>(value: &T) -> String {
    let streamed = serde_json::to_string(value).unwrap();
    let mut reference = String::new();
    reference_json(&value.serialize_value(), &mut reference);
    assert_eq!(streamed, reference);

    let mut written = Vec::new();
    serde_json::to_writer(&mut written, value).unwrap();
    assert_eq!(written, streamed.as_bytes());

    let parsed: Value = serde_json::from_str(&streamed).unwrap();
    assert_eq!(serde_json::to_string(&parsed).unwrap(), streamed);
    let pretty = serde_json::to_string_pretty(value).unwrap();
    let reparsed: Value = serde_json::from_str(&pretty).unwrap();
    assert_eq!(serde_json::to_string(&reparsed).unwrap(), streamed);
    streamed
}

/// Read `text` as a `T` both ways, straight off the text and out of the
/// reference parser's tree, and hold the two to each other; likewise the
/// untyped read and the reference tree itself. Returns what the value
/// serializes to, or the streamed read's error.
fn check_read<T: Deserialize + Serialize>(text: &str) -> Result<String, String> {
    let text_of = |read: Result<T, String>| read.map(|v| serde_json::to_string(&v).unwrap());
    let tree = reference_parse(text);
    assert_eq!(serde_json::from_str::<Value>(text).ok(), tree.clone().ok());
    let streamed = text_of(serde_json::from_str(text).map_err(|e| e.to_string()));
    let via_tree = text_of(tree.and_then(|t| T::deserialize_value(&t).map_err(|e| e.to_string())));
    assert_eq!(streamed.as_ref().ok(), via_tree.as_ref().ok(), "{text}");
    streamed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn streamed_json_equals_the_tree_emitters((doc, keyed) in Docs) {
        let text = check_streamed(&doc);
        // Typed round trip. NaN is not equal to itself and infinities
        // come back as NaN, so compare what the values serialize to.
        prop_assert_eq!(check_read::<Doc>(&text).unwrap(), text);
        check_streamed(&keyed);
    }

    /// Named fields are found by name: in any order, among fields the
    /// type does not have, the first of a duplicate kept; and each one
    /// has to be there.
    #[test]
    fn fields_are_read_by_name_in_any_order((doc, _) in Docs, seed in any::<u64>()) {
        let text = serde_json::to_string(&doc).unwrap();
        let mut draw_rng = TestRng::for_test(&format!("scramble {seed}"));
        let mut draw = Draw(&mut draw_rng);
        let mut tree = reference_parse(&text).unwrap();
        draw.scramble_struct(&mut tree);
        let boxed = draw.below(2) == 0;
        for event in field_mut(&mut tree, if boxed { "boxed" } else { "events" }) {
            if let Value::Map(variant) = event {
                if variant[0].0.as_str() == Some("Fault") {
                    draw.scramble_struct(&mut variant[0].1);
                }
            }
        }
        let scrambled = serde_json::to_string(&tree).unwrap();
        prop_assert_eq!(check_read::<Doc>(&scrambled).unwrap(), text);

        let Value::Map(entries) = &mut tree else { unreachable!() };
        let (gone, _) = entries.remove(draw.below(entries.len() as u64) as usize);
        let gone = gone.as_str().unwrap();
        // Unless it was not a field, or a repeat of it is still there.
        if !gone.starts_with("not a field") && entries.iter().all(|(k, _)| k.as_str() != Some(gone)) {
            let err = check_read::<Doc>(&serde_json::to_string(&tree).unwrap()).unwrap_err();
            prop_assert_eq!(err, format!("JSON error: missing field `{gone}`"));
        }
    }
}

#[test]
fn bare_scalars_and_empty_containers_stream_like_the_tree() {
    check_streamed(&Marker);
    check_streamed(&Event::Idle);
    check_streamed(&Vec::<u8>::new());
    check_streamed(&BTreeMap::<String, u8>::new());
    check_streamed(&vec![BTreeMap::<u8, Vec<Marker>>::new(); 2]);
    check_streamed("tab\tquote\"");
    assert_eq!(check_streamed(&-0.0f64), "-0.0");
    assert_eq!(check_streamed(&1.0e15f64), "1000000000000000");
    assert_eq!(check_streamed(&f64::NEG_INFINITY), "null");
    let keyed: BTreeMap<(u8, u8), u8> = [((1, 2), 3)].into();
    assert_eq!(check_streamed(&keyed), r#"{"[1,2]":3}"#);
    let slot = Slot {
        index: 1,
        tone: Tone::High,
        name: "a\"".into(),
    };
    let keyed: BTreeMap<Slot, Tone> = [(slot, Tone::Low)].into();
    assert_eq!(
        check_streamed(&keyed),
        r#"{"{\"index\":1,\"tone\":\"High\",\"name\":\"a\\\"\"}":"Low"}"#
    );
    let keyed: BTreeMap<Tone, u8> = [(Tone::Low, 0), (Tone::High, 1)].into();
    assert_eq!(check_streamed(&keyed), r#"{"Low":0,"High":1}"#);
}

// ---------------------------------------------------------------------------
// The sink writes an `f64`'s digits itself. `core::fmt`, which wrote them
// before, stays the reference: `reference_json`'s two `format!`s.

/// One float through the sink: `core::fmt`'s text, and the same bits back.
fn check_float(x: f64) {
    let text = serde_json::to_string(&x).unwrap();
    let mut reference = String::new();
    reference_json(&Value::F64(x), &mut reference);
    assert_eq!(text, reference, "bits {:#018x}", x.to_bits());
    if x.is_finite() {
        let back: f64 = serde_json::from_str(&text).unwrap();
        assert_eq!(back.to_bits(), x.to_bits(), "{text}");
    }
}

#[test]
fn float_text_is_core_fmts_on_random_artifact_and_tie_inputs() {
    let mut rng = TestRng::for_test("floats");
    for _ in 0..60_000 {
        check_float(f64::from_bits(rng.next_u64()));
        // What the artifacts hold: seconds, nanoseconds, joules.
        let mantissa = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        for scale in [0.05, 5.7e7, 2.1e6, 7.9, 0.066] {
            check_float(mantissa * scale);
            check_float(-mantissa * scale);
        }
        // Exact halves: 1 to 3 fractional bits under an integer that
        // leaves 15 to 17 significant digits. Where the shortest text
        // drops the final 5, both neighbours are equally close, and
        // `core::fmt` takes the upper one (`…610.625` is `…610.63`)
        // where the published algorithms take the even one.
        let bits = 1 + rng.below(3);
        let integer_digits = 15 + rng.below(3) - bits;
        let least = 10u64.pow(integer_digits as u32 - 1);
        let most = (10 * least).min(1 << (53 - bits));
        let integer = least + rng.below(most - least);
        let odd = 1 + 2 * rng.below(1 << (bits - 1));
        check_float(integer as f64 + odd as f64 / (1u64 << bits) as f64);
    }
    let edges = [
        0.0,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        1e15 - 1.0,
        1e15,
        1e16,
        1e21,
        1e22,
        1e23,
        9007199254740993.0,
        0.1,
        0.3,
        2.5e-7,
        // `…610.625`, the tie above, spelled so that clippy does not round it.
        95438016434610.0 + 0.625,
        f64::INFINITY,
        f64::NAN,
    ];
    for x in edges {
        check_float(x);
        check_float(-x);
    }
}

/// Every binade, at its ends, next to them and at each power of two
/// inside, and 2^20 random doubles.
#[test]
#[ignore = "1.5M floats, seconds: scripts/verify.sh runs it with --ignored"]
fn float_text_is_core_fmts_in_every_binade() {
    let mut rng = TestRng::for_test("binades");
    const LAST: u64 = (1 << 52) - 1;
    for exponent in 0..0x7ff_u64 {
        check_float(f64::from_bits(exponent << 52 | LAST));
        for bit in 0..52 {
            for mantissa in [(1 << bit) - 1, 1 << bit, (1 << bit) + 1, LAST ^ 1 << bit] {
                check_float(f64::from_bits(exponent << 52 | mantissa & LAST));
            }
        }
    }
    for _ in 0..1 << 20 {
        check_float(f64::from_bits(rng.next_u64()));
    }
}

// ---------------------------------------------------------------------------
// The source converts a number's text itself where it can. The scan and
// `str::parse` behind the reference parser stay the reference: every
// value bit for bit, every error where the reference errs.

/// `number` read by every typed and untyped read, alone and as the
/// second element of an array, held to the reference parser's tree.
fn check_number(number: &str) {
    let reference = reference_parse(number);
    let bits = |v: &Value| match v {
        Value::F64(x) => Some(x.to_bits()),
        _ => None,
    };
    match (&reference, serde_json::from_str::<Value>(number)) {
        (Ok(want), Ok(got)) => {
            assert_eq!((&got, bits(&got)), (want, bits(want)), "{number}")
        }
        (Err(_), Err(_)) => {}
        (want, got) => panic!("{number}: {got:?} where the reference has {want:?}"),
    }
    let want = reference.as_ref().ok();
    let f64_bits = serde_json::from_str::<f64>(number).ok().map(f64::to_bits);
    assert_eq!(
        f64_bits,
        want.and_then(Value::as_f64).map(f64::to_bits),
        "{number}"
    );
    let u = serde_json::from_str::<u64>(number).ok();
    assert_eq!(u, want.and_then(Value::as_u64), "{number}");
    let i = serde_json::from_str::<i64>(number).ok();
    assert_eq!(i, want.and_then(Value::as_i64), "{number}");

    // In a document: a refused number is refused where it starts, or
    // where the reference stops reading it.
    let doc = format!("[0,{number}]");
    match (
        reference_parse(&doc),
        serde_json::from_str::<Vec<f64>>(&doc),
    ) {
        (Ok(_), Ok(_)) => {}
        (Err(want), Err(got)) => {
            let got = got.to_string();
            let at = want.rsplit_once("at byte ").map_or("3", |(_, at)| at);
            assert!(
                got.ends_with(&format!("at byte {at}")),
                "{doc}: {got} / {want}"
            );
        }
        (want, got) => panic!("{doc}: {got:?} where the reference has {want:?}"),
    }
}

#[test]
fn numbers_read_as_str_parse_reads_them() {
    let mut rng = TestRng::for_test("numbers");
    // The shortest text of random bits in every binade, both layouts.
    for exponent in 0..0x7ff_u64 {
        for _ in 0..4 {
            let x = f64::from_bits(exponent << 52 | rng.next_u64() >> 12);
            for text in [format!("{x}"), format!("{x:e}"), format!("{:e}", -x)] {
                check_number(&text);
            }
        }
    }
    // 17 to 25 significant digits, the point anywhere, any exponent.
    for _ in 0..20_000 {
        let len = 17 + rng.below(9) as usize;
        let digits: String = (0..len)
            .map(|_| char::from(b'0' + rng.below(10) as u8))
            .collect();
        let point = rng.below(len as u64) as usize + 1;
        let exponent = rng.below(700) as i64 - 350;
        let sign = ["", "-"][rng.below(2) as usize];
        check_number(&format!(
            "{sign}{}.{}e{exponent}",
            &digits[..point],
            &digits[point..]
        ));
        check_number(&format!("{sign}{digits}"));
        check_number(&format!("{sign}0.{digits}"));
    }
    // Halfway between two doubles, and one unit either side: integers
    // in [2^53, 2^64) and halves in [2^52, 2^53).
    for _ in 0..20_000 {
        let shift = rng.below(11);
        let below = ((1u64 << 52 | rng.next_u64() >> 12) << shift) as u128;
        let tie = below + (1u128 << shift) / 2;
        for n in [tie - 1, tie, tie + 1] {
            check_number(&n.to_string());
            check_number(&format!("{n}e0"));
        }
        let half = (1u64 << 52 | rng.next_u64() >> 12) as f64 + 0.5;
        check_number(&format!("{half:.1}"));
    }
    for text in [
        // Around the ends of the range, and across the fast path's limits.
        "2.2250738585072011e-308",
        "2.2250738585072012e-308",
        "4.9406564584124654e-324",
        "2.4703282292062327e-324",
        "2.4703282292062328e-324",
        "1.7976931348623157e308",
        "1.7976931348623158e308",
        "1.7976931348623159e308",
        "9007199254740992",
        "9007199254740993",
        "9007199254740993.0",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "-999999999999999999",
        "-1000000000000000000",
        "9999999999999999999",
        "10000000000000000000",
        "1e22",
        "1e23",
        "123456789012345678e-40",
        // Exponent forms.
        "1e5",
        "1E5",
        "1e+5",
        "1e-5",
        "1.5E-0",
        "0e0",
        "0e-999999999999",
        "1e400",
        "-1e400",
        "1e-400",
        "1e00000000000000000000000000000001",
        "0.0000001e7",
        "100000000000000000000000e-23",
        // The lenient spellings the scan accepts, and what it refuses.
        "1.",
        "01",
        "-01",
        "00",
        "-.5",
        "-0",
        "-00",
        "-0.0",
        "-0e0",
        "1.e5",
        ".5",
        "+1",
        "-",
        "--1",
        "1e",
        "1e+",
        "1.5.5",
        "1+2",
        "1-2",
        "0x10",
        "1_000",
        "1.5e5e5",
        "1.5x",
    ] {
        check_number(text);
    }
}

/// A duplicate field keeps its first copy, also when that copy sits in
/// declaration order and the repeat does not.
#[test]
fn a_duplicate_field_in_declaration_order_keeps_its_first_copy() {
    let text = r#"{"code":1,"detail":"first","detail":"second","code":2}"#;
    let read: Event = serde_json::from_str(&format!(r#"{{"Fault":{text}}}"#)).unwrap();
    assert_eq!(
        read,
        Event::Fault {
            code: 1,
            detail: Some("first".into())
        }
    );
}

// ---------------------------------------------------------------------------
// The sink writes a float it has written before, and a `Sink::memo` block
// whose key it has seen, by copying the text it wrote the first time. The
// reference emitter renders every value afresh.

/// Numbers the sink may memoize as one block.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct Gauges {
    level: f64,
    count: u64,
    parts: Vec<f64>,
}

/// [`Gauges`] handed to the sink's memo, keyed by the bits of every
/// number in it, as `SampleTelemetry` keys its block.
#[derive(Debug, Clone, PartialEq)]
struct Memoized(Gauges);

impl Serialize for Memoized {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) -> Result<(), S::Error> {
        let Gauges {
            level,
            count,
            parts,
        } = &self.0;
        let mut key = vec![level.to_bits(), *count, parts.len() as u64];
        key.extend(parts.iter().map(|x| x.to_bits()));
        sink.memo(&key, &self.0)
    }
}

/// A map whose keys may be anything, entries in order.
struct Entries<K, V>(Vec<(K, V)>);

impl<K: Serialize, V: Serialize> Serialize for Entries<K, V> {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) -> Result<(), S::Error> {
        sink.map_begin()?;
        for (k, v) in &self.0 {
            sink.entry(k, v)?;
        }
        sink.map_end()
    }
}

/// `x` with the lowest bit of its representation flipped: one ulp away
/// for a finite nonzero `x`.
fn one_bit_off(x: f64) -> f64 {
    f64::from_bits(x.to_bits() ^ 1)
}

#[test]
fn floats_written_again_are_the_reference_text() {
    let mut rng = TestRng::for_test("float memo");
    let mut draw = Draw(&mut rng);
    // More distinct values than the memo has slots, so slots collide:
    // zeros of both signs, non-finite values, texts too long for a slot,
    // and each finite value's neighbour one bit away.
    let mut pool: Vec<f64> = (0..3000).map(|_| draw.f64()).collect();
    pool.extend([0.0, -0.0, 1.0e300, 5e-324, 0.1, 2.5e7]);
    let neighbours: Vec<f64> = pool
        .iter()
        .filter(|x| x.is_finite())
        .map(|&x| one_bit_off(x))
        .collect();
    pool.extend(neighbours);
    let doc: Vec<f64> = (0..40_000)
        .map(|_| pool[draw.below(pool.len() as u64) as usize])
        .collect();
    assert!(check_streamed(&doc).len() > 3 * 64 * 1024);

    // Zero and negative zero, and NaN and the infinities, written
    // alternately long after the memo exists.
    let mut signs = vec![0.5; 1000];
    signs.extend([0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY].repeat(200));
    let text = check_streamed(&signs);
    let tail = ["0.0", "-0.0", "null", "null", "null"]
        .repeat(200)
        .join(",");
    assert!(text.ends_with(&format!(",{tail}]")));

    // In key position a float is its captured text, as it always was.
    let keyed = Value::Map(
        doc.iter()
            .map(|&x| (Value::F64(x), Value::F64(x)))
            .collect(),
    );
    check_streamed(&keyed);
}

#[test]
fn memo_blocks_are_the_reference_text() {
    let mut rng = TestRng::for_test("block memo");
    let mut draw = Draw(&mut rng);
    // More distinct blocks than the memo has slots, drawn with repeats;
    // some with keys or texts longer than a slot holds.
    let mut pool: Vec<Memoized> = (0..2500)
        .map(|_| {
            Memoized(Gauges {
                level: draw.f64(),
                count: draw.below(4),
                parts: draw.vec(4, Draw::f64),
            })
        })
        .collect();
    for parts in [vec![0.5; 20], vec![1.0e300; 3]] {
        pool.extend((0..20).map(|count| {
            Memoized(Gauges {
                level: 0.25,
                count,
                parts: parts.clone(),
            })
        }));
    }
    let mut doc: Vec<Memoized> = (0..12_000)
        .map(|_| pool[draw.below(pool.len() as u64) as usize].clone())
        .collect();
    // Then a block and the blocks one bit away from it in one number
    // (and one with a zero's sign flipped), each after the other.
    let base = Gauges {
        level: 1.5,
        count: 7,
        parts: vec![0.0, 2.5e7, 0.1],
    };
    let mut variants = vec![base.clone(); 6];
    variants[0].level = one_bit_off(base.level);
    variants[1].count ^= 1;
    variants[2].parts[0] = -0.0;
    variants[3].parts[1] = one_bit_off(base.parts[1]);
    variants[4].parts[2] = one_bit_off(base.parts[2]);
    variants[5].parts.pop();
    for _ in 0..3 {
        for variant in &variants {
            doc.push(Memoized(base.clone()));
            doc.push(Memoized(variant.clone()));
        }
    }
    check_streamed(&doc);

    // In key position a block is its captured text, and inside a
    // captured key too; a float key beside a block value as well.
    let some = || doc.iter().step_by(4).cloned();
    check_streamed(&Entries(some().map(|m| (m.clone(), m)).collect()));
    check_streamed(&Entries(some().map(|m| ((m.clone(), 1u8), m)).collect()));
    check_streamed(&Entries(some().map(|m| (m.0.level, m)).collect()));
}

#[test]
fn memo_copies_straddle_the_buffers_end_and_blocks_that_did_are_walked_again() {
    // 600 distinct blocks of ~300 bytes, three rounds over: the first
    // round's walks cross 64 KiB flushes (those are not recorded), the
    // later rounds' copies land across them.
    let pool: Vec<Memoized> = (0..600u64)
        .map(|i| {
            Memoized(Gauges {
                level: i as f64 * 0.37,
                count: i,
                parts: (0..12).map(|j| (i * 31 + j) as f64 / 7.0).collect(),
            })
        })
        .collect();
    let doc: Vec<&Memoized> = pool.iter().cycle().take(1800).collect();
    let mut out = Budget {
        room: usize::MAX,
        taken: Vec::new(),
        largest_write: 0,
    };
    serde_json::to_writer(&mut out, &doc).unwrap();
    let mut reference = String::new();
    reference_json(&doc.serialize_value(), &mut reference);
    assert!(reference.len() > 6 * 64 * 1024);
    assert!(out.taken == reference.as_bytes());

    let mut out = Budget {
        room: usize::MAX,
        taken: Vec::new(),
        largest_write: 0,
    };
    serde_json::to_writer_lines(&mut out, &doc).unwrap();
    let mut reference = String::new();
    for block in &doc {
        reference_json(&block.serialize_value(), &mut reference);
        reference.push('\n');
    }
    assert!(out.taken == reference.as_bytes());
}

/// One element of a document that mixes the sink's two kinds of memo
/// block, each through its own `Serialize`.
enum Block<'a> {
    Config(&'a omptune::core::TuningConfig),
    Telemetry(&'a omptune::data::SampleTelemetry),
}

impl Serialize for Block<'_> {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) -> Result<(), S::Error> {
        match self {
            Block::Config(config) => config.serialize(sink),
            Block::Telemetry(telemetry) => telemetry.serialize(sink),
        }
    }
}

/// Every configuration of every architecture's space, and every
/// architecture's default at every thread count, written twice after
/// the memo exists and interleaved with telemetry blocks that share its
/// table, is the reference emitter's text: a configuration copied from
/// the memo is the one that was recorded, never one that differs from
/// it in a field. The document is held to the reference element by
/// element (its tree would be ~50 MB of text built at once).
#[test]
fn every_configuration_through_the_block_memo_is_the_reference_text() {
    use omptune::core::{Arch, ConfigSpace, TuningConfig};
    use omptune::data::SampleTelemetry;
    let mut rng = TestRng::for_test("config memo");
    let mut draw = Draw(&mut rng);
    let telemetry: Vec<SampleTelemetry> = (0..64)
        .map(|_| SampleTelemetry {
            virtual_ns: draw.f64(),
            regions: draw.below(1000),
            breakdown: omptune::tel::Breakdown {
                compute_ns: draw.f64(),
                memory_ns: draw.f64(),
                sync_ns: draw.f64(),
                wake_ns: draw.f64(),
                dispatch_ns: draw.f64(),
                serial_ns: draw.f64(),
                imbalance_ns: draw.f64(),
            },
            energy: omptune::tel::EnergyBreakdown {
                total_j: draw.f64(),
                active_j: draw.f64(),
                memory_j: draw.f64(),
                wait_j: draw.f64(),
                serial_j: draw.f64(),
                base_j: draw.f64(),
            },
        })
        .collect();
    let mut configs: Vec<TuningConfig> = Vec::new();
    for arch in Arch::ALL {
        configs.extend((1..=arch.cores()).map(|t| TuningConfig::default_for(arch, t)));
        configs.extend(ConfigSpace::new(arch, arch.cores()).iter());
    }
    // Enough telemetry first that the sink has built its memo, then the
    // configurations twice over, a telemetry block after every third.
    let mut doc: Vec<Block> = telemetry.iter().map(Block::Telemetry).collect();
    for (i, config) in configs.iter().chain(&configs).enumerate() {
        doc.push(Block::Config(config));
        if i % 3 == 0 {
            doc.push(Block::Telemetry(&telemetry[i % telemetry.len()]));
        }
    }
    let mut text = Vec::new();
    serde_json::to_writer(&mut text, &doc).unwrap();

    let mut at = 0;
    let mut expect = |piece: &str, what: &dyn Fn() -> String| {
        let got = text.get(at..at + piece.len());
        assert!(got == Some(piece.as_bytes()), "{} at byte {at}", what());
        at += piece.len();
    };
    let mut reference = String::new();
    for (i, block) in doc.iter().enumerate() {
        reference.clear();
        reference.push(if i == 0 { '[' } else { ',' });
        reference_json(&block.serialize_value(), &mut reference);
        expect(&reference, &|| match block {
            Block::Config(c) => format!("element {i}, {c:?}"),
            Block::Telemetry(_) => format!("element {i}, a telemetry block"),
        });
    }
    expect("]", &|| "the closing bracket".into());
    assert_eq!(at, text.len());
}

/// The two documents the memos exist for, from a real sweep: every byte
/// is the reference emitter's text of the records' trees.
#[test]
fn a_sweeps_raw_batches_and_provenance_are_the_reference_text() {
    use omptune::data::{self, export, Scope, SweepOptions, SweepSpec};
    let spec = SweepSpec {
        scope: Scope::Strided(400),
        ..SweepSpec::default()
    };
    let batches = data::sweep_all_scheduled(&spec, &SweepOptions::new(2)).batches;

    let mut text = Vec::new();
    export::write_raw_json(&batches, &mut text).unwrap();
    let mut reference = String::new();
    reference_json(&batches.serialize_value(), &mut reference);
    assert!(text == reference.as_bytes(), "raw_batches.json differs");

    let mut text = Vec::new();
    data::write_provenance_jsonl(data::provenance_rows(&batches, &spec), &mut text).unwrap();
    let mut reference = String::new();
    for record in data::provenance_of(&batches, &spec) {
        reference_json(&record.serialize_value(), &mut reference);
        reference.push('\n');
    }
    assert!(text == reference.as_bytes(), "provenance.jsonl differs");
}

// ---------------------------------------------------------------------------
// `to_writer`'s I/O contract.

/// Accepts `room` bytes, then fails; records the largest single write.
struct Budget {
    room: usize,
    taken: Vec<u8>,
    largest_write: usize,
}

impl Write for Budget {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.largest_write = self.largest_write.max(buf.len());
        if self.room == 0 {
            return Err(io::Error::other("budget spent"));
        }
        // A short write when the budget runs out mid-buffer.
        let n = buf.len().min(self.room);
        self.room -= n;
        self.taken.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

type Row = (u64, String, f64);

/// A row of a document the sink mostly copies: a float from a pool of
/// 50 and a memo block from a pool of 40.
type MemoRow = (u64, String, f64, Memoized);

#[test]
fn a_failing_writer_is_an_error_at_every_byte_and_never_a_short_file() {
    // ~200 KB: several buffer flushes, with one string longer than the
    // buffer in the middle.
    let mut doc: Vec<Row> = (0..6000u64)
        .map(|i| (i, format!("row \"{i}\""), i as f64 * 0.37))
        .collect();
    doc[3000].1 = "x".repeat(100_000);
    let mut short = doc.clone();
    short[3000].1.clear();
    holds_the_io_contract(&doc, &short);

    // The same contract where most of what is written is copied from
    // the sink's memos, whose copies also meet the buffer's end.
    let blocks: Vec<Memoized> = (0..40)
        .map(|i| {
            Memoized(Gauges {
                level: i as f64 * 1.0e6 / 3.0,
                count: i,
                parts: vec![i as f64 / 7.0, -(i as f64)],
            })
        })
        .collect();
    let mut doc: Vec<MemoRow> = (0..2500u64)
        .map(|i| {
            let block = blocks[i as usize % blocks.len()].clone();
            (i, format!("row {i}"), (i % 50) as f64 * 0.37, block)
        })
        .collect();
    doc[1250].1 = "x".repeat(100_000);
    let mut short = doc.clone();
    short[1250].1.clear();
    holds_the_io_contract(&doc, &short);
}

/// `to_writer`'s I/O contract over `doc`, written as one JSON array and
/// as JSON lines: every budget of bytes the writer accepts ends in an
/// error with exactly that prefix of the reference text handed over,
/// and no piece handed over is longer than 64 KiB but `doc`'s one
/// over-long string, which `short` empties.
fn holds_the_io_contract<R: Serialize + Clone>(doc: &[R], short: &[R]) {
    let mut array = String::new();
    reference_json(&doc.serialize_value(), &mut array);
    let mut lines = String::new();
    for row in doc {
        reference_json(&row.serialize_value(), &mut lines);
        lines.push('\n');
    }
    type Writes<R> = fn(&mut Budget, &[R]) -> Result<(), serde_json::Error>;
    let writers: [(&str, Writes<R>, String); 2] = [
        (
            "to_writer",
            |out, doc| serde_json::to_writer(out, doc),
            array,
        ),
        (
            "to_writer_lines",
            |out, doc| serde_json::to_writer_lines(out, doc),
            lines,
        ),
    ];
    for (name, write, full) in &writers {
        assert!(full.len() > 3 * 64 * 1024);
        let budgets = (0..2048)
            .chain((60_000..70_000).step_by(97))
            .chain((full.len() - 600..full.len()).step_by(7));
        for room in budgets {
            let mut out = Budget {
                room,
                taken: Vec::new(),
                largest_write: 0,
            };
            let result = write(&mut out, doc);
            assert!(
                result.is_err(),
                "{name}: {room} of {} bytes accepted",
                full.len()
            );
            assert_eq!(
                out.taken,
                &full.as_bytes()[..room],
                "{name}: prefix at {room}"
            );
        }

        // With room for everything it is the whole document, and nothing
        // but the over-long string was handed over in a piece above 64
        // KiB: the writer is never more than that far behind the value.
        let mut out = Budget {
            room: full.len(),
            taken: Vec::new(),
            largest_write: 0,
        };
        write(&mut out, doc).unwrap();
        assert_eq!(out.taken, full.as_bytes(), "{name}");
        assert_eq!(out.largest_write, 100_000, "{name}");
        let mut out = Budget {
            room: usize::MAX,
            taken: Vec::new(),
            largest_write: 0,
        };
        write(&mut out, short).unwrap();
        assert!(
            out.largest_write <= 64 * 1024,
            "{name}: {}",
            out.largest_write
        );
        assert!(
            out.largest_write > 32 * 1024,
            "{name}: chunks are worth a syscall"
        );
    }
}

/// JSON lines are each record's `to_string` and a newline, whatever the
/// record's shape and wherever a line meets the end of a 64 KiB chunk.
#[test]
fn json_lines_are_each_records_text_and_a_newline() {
    let mut out = Vec::new();
    serde_json::to_writer_lines(&mut out, Vec::<Doc>::new()).unwrap();
    assert!(out.is_empty());

    let mut rng = TestRng::for_test("json lines");
    let mut draw = Draw(&mut rng);
    let records: Vec<(Doc, Keyed)> = (0..400).map(|_| (draw.doc(), draw.keyed())).collect();
    let mut out = Budget {
        room: usize::MAX,
        taken: Vec::new(),
        largest_write: 0,
    };
    serde_json::to_writer_lines(&mut out, &records).unwrap();
    let mut expected = String::new();
    let mut crossings = 0;
    for record in &records {
        let start = expected.len();
        expected += &serde_json::to_string(record).unwrap();
        expected.push('\n');
        crossings += usize::from(start / (64 * 1024) != expected.len() / (64 * 1024));
    }
    assert_eq!(String::from_utf8(out.taken).unwrap(), expected);
    assert!(crossings >= 2, "{crossings} lines cross a chunk boundary");
    assert!(out.largest_write <= 64 * 1024, "{}", out.largest_write);
}

// ---------------------------------------------------------------------------
// Hostile input: truncated, mutated, too deep.

/// Counts what the current thread has allocated, so a test can bound what
/// one call costs while the other tests run beside it.
struct CountingAllocator;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// plain thread-local integers with no destructor and no allocation of
// their own, and `try_with` covers a thread that is being torn down.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + layout.size());
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
        });
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(layout.size())));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `read`'s result and the most it had allocated at once, above what was
/// live when it began.
fn peak_of<T>(read: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.get();
    PEAK.set(before);
    let out = read();
    (out, PEAK.get() - before)
}

/// What the reader owes any input, valid or not: an answer (not a panic)
/// that cost a small multiple of the input in memory — a `Value` is 32
/// bytes and can come from 2 of text (`1,`), in a `Vec` that has doubled
/// and is being moved — and that agrees with the reference parser
/// wherever that one answers too.
fn check_hostile(bytes: &[u8]) {
    let budget = 64 * bytes.len() + 4096;
    let (untyped, peak) = peak_of(|| serde_json::from_slice::<Value>(bytes));
    assert!(peak <= budget, "{peak} bytes for {} of input", bytes.len());
    let (typed, peak) = peak_of(|| serde_json::from_slice::<Doc>(bytes));
    assert!(peak <= budget, "{peak} bytes for {} of input", bytes.len());

    let text = String::from_utf8_lossy(bytes);
    let reference = std::str::from_utf8(bytes)
        .map_err(|e| e.to_string())
        .and_then(reference_parse);
    let via_tree = reference
        .clone()
        .and_then(|t| Doc::deserialize_value(&t).map_err(|e| e.to_string()));
    agree(untyped, reference, &text);
    agree(typed, via_tree, &text);
}

/// The streaming reader against the reference on one input: never more
/// lenient, equal where both answer (as the JSON they serialize to: NaN
/// is not equal to itself), stricter only in wanting hex digits after
/// `\u`.
fn agree<T: Serialize>(
    streamed: Result<T, serde_json::Error>,
    reference: Result<T, String>,
    text: &str,
) {
    let json = |v: T| serde_json::to_string(&v).unwrap();
    match (streamed.map(json), reference.map(json)) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{text}"),
        (Ok(_), Err(e)) => panic!("accepted what the reference refuses ({e}): {text}"),
        (Err(e), Ok(_)) => assert!(text.contains("\\u+"), "{e}: {text}"),
        (Err(_), Err(_)) => {}
    }
}

#[test]
fn every_prefix_and_two_thousand_mutations_are_an_error_or_a_value() {
    let mut rng = TestRng::for_test("hostile");
    for _ in 0..4 {
        let doc = Draw(&mut rng).doc();
        let text = serde_json::to_string(&doc).unwrap().into_bytes();
        for cut in 0..text.len() {
            check_hostile(&text[..cut]);
            assert!(serde_json::from_slice::<Doc>(&text[..cut]).is_err());
            assert!(serde_json::from_slice::<Value>(&text[..cut]).is_err());
        }
        for _ in 0..500 {
            let mut mutated = text.clone();
            let at = rng.below(text.len() as u64) as usize;
            // Mostly bytes that mean something to the grammar.
            const LIKELY: &[u8] = b"\"\\[]{},:-+.eEu0159ntf \x00\xff";
            mutated[at] = match rng.below(4) {
                0 => rng.next_u64() as u8,
                _ => LIKELY[rng.below(LIKELY.len() as u64) as usize],
            };
            check_hostile(&mutated);
        }
    }
}

#[test]
fn nesting_is_bounded_and_errors_carry_a_byte_offset() {
    // A megabyte of `[`: an error, where recursive descent ran out of stack.
    let deep = "[".repeat(1 << 20);
    let (result, peak) = peak_of(|| serde_json::from_str::<Value>(&deep));
    let err = result.unwrap_err().to_string();
    assert!(err.contains("128") && err.ends_with("at byte 128"), "{err}");
    assert!(peak < 64 * 1024, "{peak} bytes held for a refused document");
    assert!(serde_json::from_str::<Vec<Vec<Vec<u8>>>>(&deep).is_err());
    // ... also where the type does not look: in a field it skips.
    let skipped = format!(
        r#"{{"Fault":{{"code":1,"x":{},"detail":null}}}}"#,
        "{\"k\":[".repeat(1 << 19)
    );
    assert!(serde_json::from_str::<Event>(&skipped).is_err());
    // The bound itself: 128 containers open at once are fine, 129 are not.
    let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(serde_json::from_str::<Value>(&nested(128)).is_ok());
    assert!(serde_json::from_str::<Value>(&nested(129)).is_err());
    let skipped = |n: usize| format!(r#"{{"Gauge":1.5,"x":{}}}"#, nested(n));
    assert!(
        serde_json::from_str::<Event>(&skipped(127)).is_err(),
        "two keys"
    );
    let skipped = |n: usize| {
        format!(
            r#"{{"Fault":{{"code":1,"x":{},"detail":null}}}}"#,
            nested(n)
        )
    };
    assert!(serde_json::from_str::<Event>(&skipped(126)).is_ok());
    assert!(serde_json::from_str::<Event>(&skipped(127)).is_err());

    // The densest tree there is, and an unterminated one.
    check_hostile(format!("[{}1]", "1,".repeat(50_000)).as_bytes());
    check_hostile(format!("[{}", "[],".repeat(50_000)).as_bytes());

    for (text, at) in [
        ("[1,2] x", 6),
        ("[1,2", 4),
        ("[1 2]", 3),
        ("{\"a\" 1}", 5),
        ("tru", 0),
        ("nul", 0),
        ("-", 0),
        ("1e", 0),
        ("[1.5.5]", 1),
        ("\"abc", 4),
        ("\"a\\", 3),
        ("\"a\\q\"", 3),
        ("\"\\u12\"", 3),
        ("\"\\ud83d\\ude0\"", 9),
        ("", 0),
        ("   ", 3),
    ] {
        let err = serde_json::from_str::<Value>(text).unwrap_err().to_string();
        assert!(err.ends_with(&format!("at byte {at}")), "{text:?}: {err}");
    }
}

#[test]
fn surrogate_pairs_decode_to_the_scalar_they_encode() {
    let read = |text: &str| serde_json::from_str::<String>(text).unwrap();
    assert_eq!(read(r#""\ud83d\ude00""#), "😀");
    assert_eq!(read(r#""a\uD83E\uDD80b""#), "a🦀b");
    // Alone, either half is the replacement character, as before.
    assert_eq!(read(r#""\ud83d""#), "\u{fffd}");
    assert_eq!(read(r#""\ude00""#), "\u{fffd}");
    assert_eq!(read(r#""\ud83dx""#), "\u{fffd}x");
    assert_eq!(read(r#""\ud83d\n""#), "\u{fffd}\n");
    assert_eq!(read(r#""\ud83d\u0041""#), "\u{fffd}A");
    assert_eq!(read(r#""\ud83d\ud83d\ude00""#), "\u{fffd}😀");
    assert_eq!(read(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
    // What the writer emits for the same text (raw UTF-8) reads back too.
    assert_eq!(read(&serde_json::to_string("😀").unwrap()), "😀");
    // Escape-free text is handed out as a slice of the input.
    let text = String::from(r#"["plain","esc\"aped"]"#);
    let mut source_check = serde_json::from_str::<Vec<String>>(&text).unwrap();
    assert_eq!(source_check.remove(1), "esc\"aped");
}

// ---------------------------------------------------------------------------
// The document the streaming reader exists for.

#[test]
fn raw_batches_survive_the_round_trip_failed_repetitions_included() {
    use omptune::data::{self, export, Scope, SweepOptions, SweepSpec};
    // `collect tiny`'s batches, and the same sweep with failures injected
    // and not cleaned away: NaN runtimes, written as `null`.
    for failure_rate in [0.0, 0.15] {
        let spec = SweepSpec {
            scope: Scope::Strided(400),
            failure_rate,
            ..SweepSpec::default()
        };
        let batches = data::sweep_all_scheduled(&spec, &SweepOptions::new(2)).batches;
        let failed = batches
            .iter()
            .flat_map(|b| &b.samples)
            .flat_map(|s| &s.runtimes)
            .filter(|t| t.is_nan())
            .count();
        assert_eq!(failed > 0, failure_rate > 0.0);

        let mut text = Vec::new();
        export::write_raw_json(&batches, &mut text).unwrap();
        let back = export::read_raw_json(&text).unwrap();
        // NaN is not equal to itself: compare bit patterns and bytes.
        assert_eq!(
            data::slice_fingerprint(&back),
            data::slice_fingerprint(&batches)
        );
        let mut again = Vec::new();
        export::write_raw_json(&back, &mut again).unwrap();
        assert!(again == text, "re-written document differs");
        if failed == 0 {
            assert_eq!(back, batches);
        }
        // ... and the tree the old reader went through says the same.
        let tree = reference_parse(std::str::from_utf8(&text).unwrap()).unwrap();
        let via_tree = Vec::<data::SettingData>::deserialize_value(&tree).unwrap();
        assert_eq!(
            data::slice_fingerprint(&via_tree),
            data::slice_fingerprint(&batches)
        );
    }
}

/// What `RunRecord::from_jsonl` already owes one registry line, for a
/// reader of a whole document: every strict prefix is an error, and 8
/// mutations of every byte and 4,000 arbitrary inputs — raw bytes in turn
/// with strings over `alphabet`, which get further into the reader — are
/// an error or a value. A panic anywhere fails the test.
fn survives_hostile_bytes<T>(
    document: &[u8],
    alphabet: &[u8],
    read: impl Fn(&[u8]) -> io::Result<T>,
) {
    assert!(read(document).is_ok());
    let mut mutated = document.to_vec();
    for at in 0..document.len() {
        assert!(read(&document[..at]).is_err(), "cut at {at}");
        for with in [b'0', b'"', b'{', b']', b'\\', b',', 0xff, document[at] ^ 1] {
            mutated[at] = with;
            let _ = read(&mutated);
        }
        mutated[at] = document[at];
    }
    let mut rng = TestRng::for_test("arbitrary");
    for round in 0..4000 {
        let junk: Vec<u8> = (0..rng.below(96))
            .map(|_| match round % 2 {
                0 => rng.next_u64() as u8,
                _ => alphabet[rng.below(alphabet.len() as u64) as usize],
            })
            .collect();
        let _ = read(&junk);
    }
}

#[test]
fn the_dataset_and_manifest_readers_survive_hostile_bytes() {
    use omptune::data::{self, export, Scope, SweepOptions, SweepSpec};
    // Two samples of `collect tiny`'s first batch, one with a failed
    // repetition (`null`), and the manifest of a run that held only them.
    let spec = SweepSpec {
        scope: Scope::Strided(400),
        ..SweepSpec::default()
    };
    let arch = omptune::core::Arch::ALL[0];
    let mut batches = data::sweep_arch_scheduled(arch, &spec, &SweepOptions::new(2)).batches;
    batches.truncate(1);
    batches[0].samples.truncate(2);
    batches[0].samples[1].runtimes[0] = f64::NAN;
    let mut manifest = data::RunManifest::new(&spec);
    let mut latency = omptune::tel::Histogram::new();
    latency.record(1500);
    let stats = data::SweepStats::default();
    manifest.push_arch(arch, &batches, 0, 0.25, stats, latency);

    const JSON: &[u8] = b"{}[]\",:\\0123456789.-e nulltruefalse";
    let mut text = Vec::new();
    export::write_raw_json(&batches, &mut text).unwrap();
    let alphabet = [JSON, b"\"key\"\"samples\"\"config\"\"runtimes\"\"Unset\""].concat();
    survives_hostile_bytes(&text, &alphabet, export::read_raw_json);

    let mut text = Vec::new();
    data::write_manifest(&manifest, &mut text).unwrap();
    assert_eq!(text.pop(), Some(b'\n'));
    let alphabet = [JSON, b"\"scope\"\"arches\"\"summary\"\"counts\""].concat();
    survives_hostile_bytes(&text, &alphabet, data::read_manifest);
}
