//! Chrome `trace_event` exporter: renders a [`FlightRecording`] as a
//! timeline viewable in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Output is the JSON-object form `{"traceEvents": [...]}`. Events
//! export on `pid` 1 (one track per recorded thread): span pairs as `X`
//! slices, instants as `i`, and cross-thread flows as `s`/`f` flow
//! events whose arrows stitch a stolen unit back to the seeding worker.
//! Timestamps are microseconds, as the format requires.
//!
//! [`validate_trace_json`] checks the structural invariants
//! `trace-check` enforces on a live run — spans well-nested per track,
//! every flow id seen on both sides, drop counts surfaced — and folds
//! each slice's duration into a per-name histogram on the same walk.

use crate::hist::Histogram;
use crate::ring::{EventKind, FlightRecording};
use serde::Value;
use std::collections::{BTreeMap, HashMap, HashSet};

/// pid for flight-recorder tracks.
const PID_TRACE: u64 = 1;

fn entry(key: &str, v: Value) -> (Value, Value) {
    (Value::Str(key.to_string()), v)
}

fn str_val(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn metadata_event(name: &str, pid: u64, tid: u64, arg_name: &str) -> Value {
    Value::Map(vec![
        entry("name", str_val(name)),
        entry("ph", str_val("M")),
        entry("pid", Value::U64(pid)),
        entry("tid", Value::U64(tid)),
        entry("args", Value::Map(vec![entry("name", str_val(arg_name))])),
    ])
}

fn span_slice(name: &str, ts_us: f64, dur_us: f64, tid: u64, args: Vec<(Value, Value)>) -> Value {
    Value::Map(vec![
        entry("name", str_val(name)),
        entry("cat", str_val("span")),
        entry("ph", str_val("X")),
        entry("ts", Value::F64(ts_us)),
        entry("dur", Value::F64(dur_us.max(0.0))),
        entry("pid", Value::U64(PID_TRACE)),
        entry("tid", Value::U64(tid)),
        entry("args", Value::Map(args)),
    ])
}

fn instant_event(name: &str, ts_us: f64, tid: u64, arg: u64) -> Value {
    Value::Map(vec![
        entry("name", str_val(name)),
        entry("cat", str_val("instant")),
        entry("ph", str_val("i")),
        entry("s", str_val("t")),
        entry("ts", Value::F64(ts_us)),
        entry("pid", Value::U64(PID_TRACE)),
        entry("tid", Value::U64(tid)),
        entry("args", Value::Map(vec![entry("arg", Value::U64(arg))])),
    ])
}

fn flow_event(ph: &str, name: &str, ts_us: f64, tid: u64, id: u64) -> Value {
    let mut fields = vec![
        entry("name", str_val(name)),
        entry("cat", str_val("flow")),
        entry("ph", str_val(ph)),
        entry("id", Value::U64(id)),
        entry("ts", Value::F64(ts_us)),
        entry("pid", Value::U64(PID_TRACE)),
        entry("tid", Value::U64(tid)),
    ];
    if ph == "f" {
        // Bind the arrival to the enclosing slice, not the next one.
        fields.push(entry("bp", str_val("e")));
    }
    Value::Map(fields)
}

/// The trace document of a flight recording, as JSON text. Span
/// begin/end pairs become `X` slices, instants `i` events and flows
/// `s`/`f` arrows. A top-level `"omptrace"` key carries recorder stats
/// (threads, retained events, drop and orphan counts).
pub fn chrome_trace_with_recording(rec: &FlightRecording) -> String {
    let mut events = Vec::new();
    let mut orphans = 0usize;
    if !rec.threads.is_empty() {
        events.push(metadata_event("process_name", PID_TRACE, 0, "omptrace"));
    }
    for t in &rec.threads {
        let tid = t.thread as u64;
        events.push(metadata_event(
            "thread_name",
            PID_TRACE,
            tid,
            &format!("worker {}", t.thread),
        ));
        // Pair begins to ends by span id within the thread.
        let mut open: HashMap<u64, &crate::ring::TraceEvent> = HashMap::new();
        for e in &t.events {
            match e.kind {
                EventKind::SpanBegin => {
                    open.insert(e.id, e);
                }
                EventKind::SpanEnd => match open.remove(&e.id) {
                    Some(b) => {
                        let args = vec![
                            entry("id", Value::U64(b.id)),
                            entry("parent", Value::U64(b.parent)),
                            entry("arg", Value::U64(b.arg)),
                        ];
                        events.push(span_slice(
                            b.what.name(),
                            b.ts_ns as f64 / 1e3,
                            (e.ts_ns.saturating_sub(b.ts_ns)) as f64 / 1e3,
                            tid,
                            args,
                        ));
                    }
                    // Begin lost to ring wrap.
                    None => orphans += 1,
                },
                EventKind::Instant => {
                    events.push(instant_event(
                        e.what.name(),
                        e.ts_ns as f64 / 1e3,
                        tid,
                        e.arg,
                    ));
                }
                EventKind::FlowOut => {
                    events.push(flow_event(
                        "s",
                        e.what.name(),
                        e.ts_ns as f64 / 1e3,
                        tid,
                        e.id,
                    ));
                }
                EventKind::FlowIn => {
                    events.push(flow_event(
                        "f",
                        e.what.name(),
                        e.ts_ns as f64 / 1e3,
                        tid,
                        e.id,
                    ));
                }
            }
        }
        // Ends lost to harvest-while-open (should not happen: the
        // sweep joins workers before finishing the recorder).
        orphans += open.len();
    }
    let doc = Value::Map(vec![
        entry("traceEvents", Value::Seq(events)),
        entry(
            "omptrace",
            Value::Map(vec![
                entry("threads", Value::U64(rec.threads.len() as u64)),
                entry("events", Value::U64(rec.total_events() as u64)),
                entry("dropped", Value::U64(rec.total_dropped())),
                entry("orphan_spans", Value::U64(orphans as u64)),
            ]),
        ),
    ]);
    // Writing a `Value` into memory cannot fail.
    serde_json::to_string(&doc).expect("a trace document serializes")
}

/// What a validation pass measured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Recorder threads (tracks) seen.
    pub threads: usize,
    /// Raw events inspected.
    pub events: usize,
    /// Completed (begin/end-paired) spans.
    pub spans: usize,
    /// Distinct flow ids seen.
    pub flows: usize,
    /// Flow ids missing one side (must be 0 on a clean run).
    pub unresolved_flows: usize,
    /// Span ends without begins or begins without ends.
    pub orphan_spans: usize,
    /// Events lost to ring wrap.
    pub dropped: u64,
    /// Slice durations in ns, one histogram per `X` slice name, sorted
    /// by name.
    pub durations: Vec<(String, Histogram)>,
}

impl std::fmt::Display for TraceReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} threads, {} events, {} spans ({} orphaned), {} flows ({} unresolved), {} dropped",
            self.threads,
            self.events,
            self.spans,
            self.orphan_spans,
            self.flows,
            self.unresolved_flows,
            self.dropped
        )
    }
}

/// An `X` slice: `ts` and `dur` in µs, and its name.
type Slice<'a> = (f64, f64, &'a str);

fn field<'a>(map: &'a [(Value, Value)], name: &str) -> Option<&'a Value> {
    map.iter()
        .find(|(k, _)| k.as_str() == Some(name))
        .map(|(_, v)| v)
}

/// Validate an exported Chrome trace JSON document: `X` slices must have
/// a finite, non-negative `ts` and `dur` and be properly nested within
/// each `(pid, tid)` track, and every flow id must appear with both an
/// `s` and an `f` phase. Returns the measured report, with each slice's
/// duration (`round(dur × 1000)` ns) folded in by name; malformed JSON,
/// impossible slices or mis-nested slices are errors.
pub fn validate_trace_json(json: &str) -> Result<TraceReport, String> {
    // 1 ns of slack: timestamps were divided ns→µs in f64.
    const EPS_US: f64 = 1e-3;
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let map = doc.as_map().ok_or("trace root is not an object")?;
    let events = field(map, "traceEvents")
        .and_then(Value::as_seq)
        .ok_or("no traceEvents array")?;

    let mut report = TraceReport::default();
    let mut tracks: HashMap<(u64, u64), Vec<Slice>> = HashMap::new();
    let mut flow_s: HashSet<u64> = HashSet::new();
    let mut flow_f: HashSet<u64> = HashSet::new();
    let mut tids: HashSet<u64> = HashSet::new();
    for e in events {
        report.events += 1;
        let e = e.as_map().ok_or("event is not an object")?;
        let ph = field(e, "ph")
            .and_then(Value::as_str)
            .ok_or("event without ph")?;
        let pid = field(e, "pid").and_then(Value::as_u64).unwrap_or(0);
        let tid = field(e, "tid").and_then(Value::as_u64).unwrap_or(0);
        if pid == PID_TRACE && ph != "M" {
            tids.insert(tid);
        }
        match ph {
            "X" => {
                let ts = field(e, "ts")
                    .and_then(Value::as_f64)
                    .ok_or("X without ts")?;
                let dur = field(e, "dur")
                    .and_then(Value::as_f64)
                    .ok_or("X without dur")?;
                if !(ts.is_finite() && dur.is_finite() && ts >= 0.0 && dur >= 0.0) {
                    return Err(format!(
                        "track pid={pid} tid={tid}: slice with ts={ts} dur={dur} — a slice \
                         starts and lasts a finite, non-negative time"
                    ));
                }
                let name = field(e, "name").and_then(Value::as_str).unwrap_or("");
                tracks.entry((pid, tid)).or_default().push((ts, dur, name));
                report.spans += 1;
            }
            "s" | "f" => {
                let id = field(e, "id")
                    .and_then(Value::as_u64)
                    .ok_or("flow without id")?;
                if ph == "s" {
                    flow_s.insert(id);
                } else {
                    flow_f.insert(id);
                }
            }
            _ => {}
        }
    }
    report.threads = tids.len();
    report.flows = flow_s.union(&flow_f).count();
    report.unresolved_flows = flow_s.symmetric_difference(&flow_f).count();
    if let Some(stats) = field(map, "omptrace").and_then(Value::as_map) {
        report.dropped = field(stats, "dropped").and_then(Value::as_u64).unwrap_or(0);
        report.orphan_spans = field(stats, "orphan_spans")
            .and_then(Value::as_u64)
            .unwrap_or(0) as usize;
    }

    // Laminar-family check per track: sorted by start (ties: longest
    // first), every slice must lie inside the enclosing open slice.
    let mut durations: BTreeMap<&str, Histogram> = BTreeMap::new();
    for ((pid, tid), mut slices) in tracks {
        slices.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<f64> = Vec::new(); // open slice end times
        for (ts, dur, name) in slices {
            // `new()`, not `default()`: only `new()` starts `min` high
            // enough for the first record to set it.
            #[allow(clippy::unwrap_or_default)]
            durations
                .entry(name)
                .or_insert_with(Histogram::new)
                .record((dur * 1e3).round() as u64);
            while let Some(&end) = stack.last() {
                if end <= ts + EPS_US {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&end) = stack.last() {
                if ts + dur > end + EPS_US {
                    return Err(format!(
                        "track pid={pid} tid={tid}: slice [{ts}, {}) overlaps its enclosing \
                         slice ending at {end} — spans are not well-nested",
                        ts + dur
                    ));
                }
            }
            stack.push(ts + dur);
        }
    }
    report.durations = durations
        .into_iter()
        .map(|(name, h)| (name.to_string(), h))
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{ThreadTrace, TraceEvent};
    use crate::span::SpanKind;

    fn tev(ts: u64, kind: EventKind, what: SpanKind, id: u64, parent: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            kind,
            what,
            id,
            parent,
            arg: 0,
        }
    }

    /// Two threads: a seed span flowing a unit to a worker thread,
    /// with a sample nested inside the unit.
    fn stolen_unit_recording() -> FlightRecording {
        FlightRecording {
            threads: vec![
                ThreadTrace {
                    thread: 0,
                    dropped: 0,
                    events: vec![
                        tev(100, EventKind::SpanBegin, SpanKind::Seed, 1, 0),
                        tev(150, EventKind::FlowOut, SpanKind::Unit, 7, 1),
                        tev(200, EventKind::SpanEnd, SpanKind::Seed, 1, 0),
                    ],
                },
                ThreadTrace {
                    thread: 1,
                    dropped: 0,
                    events: vec![
                        tev(300, EventKind::SpanBegin, SpanKind::Unit, 2, 0),
                        tev(310, EventKind::FlowIn, SpanKind::Unit, 7, 2),
                        tev(320, EventKind::SpanBegin, SpanKind::Sample, 3, 2),
                        tev(380, EventKind::Instant, SpanKind::CacheHit, 0, 3),
                        tev(400, EventKind::SpanEnd, SpanKind::Sample, 3, 2),
                        tev(450, EventKind::SpanEnd, SpanKind::Unit, 2, 0),
                    ],
                },
            ],
        }
    }

    #[test]
    fn recording_exports_slices_flows_and_stats() {
        let json = chrome_trace_with_recording(&stolen_unit_recording());
        assert!(json.contains("\"ph\":\"s\""), "flow out: {json}");
        assert!(json.contains("\"ph\":\"f\""), "flow in: {json}");
        assert!(json.contains("\"bp\":\"e\""), "flow binding: {json}");
        assert!(json.contains("\"ph\":\"i\""), "instant: {json}");
        assert!(json.contains("\"omptrace\""), "stats key: {json}");
        // Round-trips through the JSON validator cleanly.
        let report = validate_trace_json(&json).expect("valid trace");
        assert_eq!(report.unresolved_flows, 0);
        assert_eq!(report.orphan_spans, 0);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.threads, 2);
        assert_eq!(report.flows, 1);
        assert_eq!(report.spans, 3, "seed + unit + sample: {report}");
        // One duration row per slice name, sorted, exact to the ns.
        let rows: Vec<(&str, u64, u64)> = report
            .durations
            .iter()
            .map(|(name, h)| (name.as_str(), h.count, h.max))
            .collect();
        assert_eq!(
            rows,
            [("sample", 1, 80), ("seed", 1, 100), ("unit", 1, 150)]
        );
    }

    #[test]
    fn validate_trace_rejects_misnesting() {
        let rec = FlightRecording {
            threads: vec![ThreadTrace {
                thread: 0,
                dropped: 0,
                events: vec![
                    tev(1, EventKind::SpanBegin, SpanKind::Unit, 1, 0),
                    tev(2, EventKind::SpanBegin, SpanKind::Sample, 2, 1),
                    // Outer closes before inner: not LIFO.
                    tev(3, EventKind::SpanEnd, SpanKind::Unit, 1, 0),
                ],
            }],
        };
        // The inner span never closes: exported, it is an orphan, which
        // `trace-check` rejects when nothing was dropped.
        let report = validate_trace_json(&chrome_trace_with_recording(&rec)).expect("parses");
        assert_eq!(report.orphan_spans, 1, "{report}");
        assert_eq!(report.dropped, 0, "{report}");
    }

    #[test]
    fn validate_trace_counts_unresolved_flows() {
        let rec = FlightRecording {
            threads: vec![ThreadTrace {
                thread: 0,
                dropped: 0,
                events: vec![tev(1, EventKind::FlowOut, SpanKind::Unit, 9, 0)],
            }],
        };
        let report =
            validate_trace_json(&chrome_trace_with_recording(&rec)).expect("structurally fine");
        assert_eq!(report.unresolved_flows, 1, "{report}");
    }

    #[test]
    fn validate_json_rejects_overlapping_slices() {
        let json = r#"{"traceEvents":[
            {"name":"a","cat":"span","ph":"X","ts":0,"dur":10,"pid":1,"tid":0},
            {"name":"b","cat":"span","ph":"X","ts":5,"dur":10,"pid":1,"tid":0}
        ]}"#;
        let err = validate_trace_json(json).unwrap_err();
        assert!(err.contains("not well-nested"), "{err}");
        // Every pid is held to nesting, not only the recorder's.
        let json = r#"{"traceEvents":[
            {"name":"a","cat":"span","ph":"X","ts":0,"dur":10,"pid":2,"tid":0},
            {"name":"b","cat":"span","ph":"X","ts":5,"dur":10,"pid":2,"tid":0}
        ]}"#;
        let err = validate_trace_json(json).unwrap_err();
        assert!(err.contains("pid=2"), "{err}");
        // Same slices on different tracks are fine.
        let json = r#"{"traceEvents":[
            {"name":"a","cat":"span","ph":"X","ts":0,"dur":10,"pid":1,"tid":0},
            {"name":"b","cat":"span","ph":"X","ts":5,"dur":10,"pid":1,"tid":1}
        ]}"#;
        validate_trace_json(json).expect("separate tracks");
    }

    #[test]
    fn validate_json_rejects_impossible_slices() {
        for (ts, dur) in [("0", "-5"), ("-1", "5"), ("0", "1e999"), ("1e999", "0")] {
            let json = format!(
                r#"{{"traceEvents":[{{"ph":"X","pid":1,"tid":0,"ts":{ts},"dur":{dur},"name":"a"}}]}}"#
            );
            let err = validate_trace_json(&json).unwrap_err();
            assert!(err.contains("non-negative"), "ts={ts} dur={dur}: {err}");
        }
        // Inside an enclosing slice, a negative one cannot hide either.
        let json = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":0},
            {"name":"b","ph":"X","ts":2,"dur":-1,"pid":1,"tid":0}
        ]}"#;
        assert!(validate_trace_json(json).is_err());
    }
}
