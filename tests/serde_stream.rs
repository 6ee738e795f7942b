//! The vendored serde shim streams: `Serialize` pushes events into a
//! sink, `serde_json` is a sink that writes bytes, the `Value` tree is
//! another. These tests hold the streamed JSON to the tree-walking
//! emitter it replaced (kept here as the reference), for every shape the
//! derive supports, and hold `to_writer` to its I/O contract.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::{Deserialize, Serialize, Value};
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
        }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn streamed_json_equals_the_tree_emitters((doc, keyed) in Docs) {
        let text = check_streamed(&doc);
        // Typed round trip. NaN is not equal to itself and infinities
        // come back as NaN, so compare what the values serialize to.
        let back: Doc = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
        check_streamed(&keyed);
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

#[test]
fn a_failing_writer_is_an_error_at_every_byte_and_never_a_short_file() {
    // ~200 KB: several buffer flushes, with one string longer than the
    // buffer in the middle.
    let mut doc: Vec<(u64, String, f64)> = (0..6000u64)
        .map(|i| (i, format!("row \"{i}\""), i as f64 * 0.37))
        .collect();
    doc[3000].1 = "x".repeat(100_000);
    let full = serde_json::to_string(&doc).unwrap();
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
        let result = serde_json::to_writer(&mut out, &doc);
        assert!(result.is_err(), "{room} of {} bytes accepted", full.len());
        assert_eq!(out.taken, &full.as_bytes()[..room], "prefix at {room}");
    }

    // With room for everything it is the whole document, and nothing
    // but the over-long string was handed over in a piece above 64 KiB:
    // the writer is never more than that far behind the value.
    let mut out = Budget {
        room: full.len(),
        taken: Vec::new(),
        largest_write: 0,
    };
    serde_json::to_writer(&mut out, &doc).unwrap();
    assert_eq!(out.taken, full.as_bytes());
    assert_eq!(out.largest_write, 100_000);
    doc[3000].1.clear();
    let mut out = Budget {
        room: usize::MAX,
        taken: Vec::new(),
        largest_write: 0,
    };
    serde_json::to_writer(&mut out, &doc).unwrap();
    assert!(out.largest_write <= 64 * 1024, "{}", out.largest_write);
    assert!(out.largest_write > 32 * 1024, "chunks are worth a syscall");
}
