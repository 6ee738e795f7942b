//! Chrome `trace_event` exporter: renders region/thread profiles as a
//! timeline viewable in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Output is the JSON-object form `{"traceEvents": [...]}`. Counter-
//! session records export as complete (`"ph":"X"`) and metadata
//! (`"ph":"M"`) events on `pid` 0 (region rows on `tid` 0, per-thread
//! slices on `tid = thread + 1`). A [`FlightRecording`] additionally
//! exports on `pid` 1 (one track per recorded thread): span pairs as
//! `X` slices, instants as `i`, and cross-thread flows as `s`/`f`
//! flow events whose arrows stitch a stolen unit back to the seeding
//! worker. Simulator virtual-time spans render on `pid` 2 — a
//! separate process row because its clock is not wall time.
//! Timestamps are microseconds, as the format requires.
//!
//! [`validate_trace`] / [`validate_trace_json`] check the structural
//! invariants verify.sh enforces on a live run: spans well-nested per
//! track, every flow id seen on both sides, drop counts surfaced.

use crate::ring::{EventKind, FlightRecording};
use crate::schema::Record;
use serde::Value;
use std::collections::{HashMap, HashSet};

/// pid for flight-recorder (wall-clock) tracks.
const PID_TRACE: u64 = 1;
/// pid for simulator virtual-time tracks.
const PID_VIRTUAL: u64 = 2;

fn entry(key: &str, v: Value) -> (Value, Value) {
    (Value::Str(key.to_string()), v)
}

fn str_val(s: &str) -> Value {
    Value::Str(s.to_string())
}

#[allow(clippy::too_many_arguments)]
fn complete_event(name: &str, cat: &str, ts_us: f64, dur_us: f64, tid: u64) -> Value {
    Value::Map(vec![
        entry("name", str_val(name)),
        entry("cat", str_val(cat)),
        entry("ph", str_val("X")),
        entry("ts", Value::F64(ts_us)),
        entry("dur", Value::F64(dur_us.max(0.0))),
        entry("pid", Value::U64(0)),
        entry("tid", Value::U64(tid)),
    ])
}

fn metadata_event(name: &str, tid: u64, arg_name: &str) -> Value {
    Value::Map(vec![
        entry("name", str_val(name)),
        entry("ph", str_val("M")),
        entry("pid", Value::U64(0)),
        entry("tid", Value::U64(tid)),
        entry("args", Value::Map(vec![entry("name", str_val(arg_name))])),
    ])
}

/// Build the trace document as a serde value tree.
pub fn chrome_trace_value(records: &[Record]) -> Value {
    let mut events = vec![
        metadata_event("process_name", 0, "omptel"),
        metadata_event("thread_name", 0, "regions"),
    ];
    let mut max_tid = 0u64;
    for r in records {
        let Record::Region(p) = r else { continue };
        let cat = format!("{:?}", p.kind).to_lowercase();
        events.push(complete_event(
            &p.name,
            &cat,
            p.begin_ns / 1e3,
            p.total_ns / 1e3,
            0,
        ));
        for t in &p.threads {
            let tid = t.thread as u64 + 1;
            max_tid = max_tid.max(tid);
            events.push(complete_event(
                &format!("{}#t{}", p.name, t.thread),
                &cat,
                (p.begin_ns + t.wake_ns) / 1e3,
                t.busy_ns / 1e3,
                tid,
            ));
        }
    }
    for tid in 1..=max_tid {
        events.push(metadata_event(
            "thread_name",
            tid,
            &format!("thread {}", tid - 1),
        ));
    }
    Value::Map(vec![entry("traceEvents", Value::Seq(events))])
}

/// Records as a Chrome trace JSON string.
pub fn chrome_trace_json(records: &[Record]) -> String {
    serde_json::to_string(&chrome_trace_value(records)).expect("value tree serializes")
}

fn metadata_event_pid(name: &str, pid: u64, tid: u64, arg_name: &str) -> Value {
    Value::Map(vec![
        entry("name", str_val(name)),
        entry("ph", str_val("M")),
        entry("pid", Value::U64(pid)),
        entry("tid", Value::U64(tid)),
        entry("args", Value::Map(vec![entry("name", str_val(arg_name))])),
    ])
}

#[allow(clippy::too_many_arguments)]
fn span_slice(
    name: &str,
    ts_us: f64,
    dur_us: f64,
    pid: u64,
    tid: u64,
    args: Vec<(Value, Value)>,
) -> Value {
    Value::Map(vec![
        entry("name", str_val(name)),
        entry("cat", str_val("span")),
        entry("ph", str_val("X")),
        entry("ts", Value::F64(ts_us)),
        entry("dur", Value::F64(dur_us.max(0.0))),
        entry("pid", Value::U64(pid)),
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

/// Build a trace document covering both counter-session records and a
/// flight recording. Span begin/end pairs become `X` slices, instants
/// `i` events, flows `s`/`f` arrows, and virtual-time spans slices on
/// their own pid. A top-level `"omptrace"` key carries recorder stats
/// (threads, retained events, drop and orphan counts).
pub fn chrome_trace_with_recording(records: &[Record], rec: &FlightRecording) -> Value {
    let Value::Map(mut doc) = chrome_trace_value(records) else {
        unreachable!("chrome_trace_value returns a map")
    };
    let Some(Value::Seq(events)) = doc.first_mut().map(|(_, v)| v) else {
        unreachable!("traceEvents is the first key")
    };

    let mut orphans = 0usize;
    let mut have_virtual = false;
    if !rec.threads.is_empty() {
        events.push(metadata_event_pid("process_name", PID_TRACE, 0, "omptrace"));
    }
    for t in &rec.threads {
        let tid = t.thread as u64;
        events.push(metadata_event_pid(
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
                            PID_TRACE,
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
                EventKind::VirtualSpan => {
                    have_virtual = true;
                    let args = vec![entry("arg", Value::U64(e.arg))];
                    events.push(span_slice(
                        e.what.name(),
                        e.ts_ns as f64 / 1e3,
                        e.parent as f64 / 1e3,
                        PID_VIRTUAL,
                        tid,
                        args,
                    ));
                }
            }
        }
        // Ends lost to harvest-while-open (should not happen: the
        // sweep joins workers before finishing the recorder).
        orphans += open.len();
    }
    if have_virtual {
        events.push(metadata_event_pid(
            "process_name",
            PID_VIRTUAL,
            0,
            "simrt virtual time",
        ));
    }

    doc.push(entry(
        "omptrace",
        Value::Map(vec![
            entry("threads", Value::U64(rec.threads.len() as u64)),
            entry("events", Value::U64(rec.total_events() as u64)),
            entry("dropped", Value::U64(rec.total_dropped())),
            entry("orphan_spans", Value::U64(orphans as u64)),
        ]),
    ));
    Value::Map(doc)
}

/// What a validation pass measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// Validate a flight recording's structure: per-thread spans must be
/// well-nested (LIFO begin/end), flows are tallied by id across
/// threads. Mis-nesting is an error; unresolved flows and orphaned
/// spans are *counted* so callers can apply policy (verify.sh demands
/// zero on a clean run).
pub fn validate_trace(rec: &FlightRecording) -> Result<TraceReport, String> {
    let mut report = TraceReport {
        threads: rec.threads.len(),
        events: rec.total_events(),
        dropped: rec.total_dropped(),
        ..TraceReport::default()
    };
    let mut flow_out: HashSet<u64> = HashSet::new();
    let mut flow_in: HashSet<u64> = HashSet::new();
    for t in &rec.threads {
        let mut stack: Vec<u64> = Vec::new();
        for e in &t.events {
            match e.kind {
                EventKind::SpanBegin => stack.push(e.id),
                EventKind::SpanEnd => {
                    if stack.last() == Some(&e.id) {
                        stack.pop();
                        report.spans += 1;
                    } else if t.dropped > 0 && !stack.contains(&e.id) {
                        // Its begin was overwritten by ring wrap.
                        report.orphan_spans += 1;
                    } else {
                        return Err(format!(
                            "thread {}: span end id={} does not close the innermost open span \
                             (stack {:?}) — spans are not well-nested",
                            t.thread, e.id, stack
                        ));
                    }
                }
                EventKind::FlowOut => {
                    flow_out.insert(e.id);
                }
                EventKind::FlowIn => {
                    flow_in.insert(e.id);
                }
                _ => {}
            }
        }
        if !stack.is_empty() {
            return Err(format!(
                "thread {}: {} spans still open at harvest (stack {:?}) — recorder finished \
                 before the workers quiesced",
                t.thread,
                stack.len(),
                stack
            ));
        }
    }
    report.flows = flow_out.union(&flow_in).count();
    report.unresolved_flows = flow_out.symmetric_difference(&flow_in).count();
    Ok(report)
}

fn field<'a>(map: &'a [(Value, Value)], name: &str) -> Option<&'a Value> {
    map.iter()
        .find(|(k, _)| k.as_str() == Some(name))
        .map(|(_, v)| v)
}

/// Validate an exported Chrome trace JSON document: `X` slices must be
/// properly nested within each `(pid, tid)` track, and every flow id
/// must appear with both an `s` and an `f` phase. Returns the measured
/// report; malformed JSON or mis-nested slices are errors.
pub fn validate_trace_json(json: &str) -> Result<TraceReport, String> {
    // 1 ns of slack: timestamps were divided ns→µs in f64.
    const EPS_US: f64 = 1e-3;
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let map = doc.as_map().ok_or("trace root is not an object")?;
    let events = field(map, "traceEvents")
        .and_then(Value::as_seq)
        .ok_or("no traceEvents array")?;

    let mut report = TraceReport::default();
    let mut tracks: HashMap<(u64, u64), Vec<(f64, f64)>> = HashMap::new();
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
                // The virtual-time track overlays slices from distinct
                // simulations whose virtual clocks each start at zero —
                // nesting holds per wall-clock track only.
                if pid != PID_VIRTUAL {
                    tracks.entry((pid, tid)).or_default().push((ts, dur));
                }
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
    for ((pid, tid), mut slices) in tracks {
        slices.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut stack: Vec<f64> = Vec::new(); // open slice end times
        for (ts, dur) in slices {
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
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Breakdown, RegionKind, RegionProfile, ThreadProfile};

    fn region(name: &str, begin: f64, total: f64, threads: usize) -> Record {
        Record::Region(RegionProfile {
            name: name.into(),
            kind: RegionKind::Loop,
            begin_ns: begin,
            total_ns: total,
            breakdown: Breakdown::default(),
            threads: (0..threads)
                .map(|t| ThreadProfile {
                    thread: t,
                    busy_ns: total / 2.0,
                    wait_ns: total / 2.0,
                    wake_ns: 0.0,
                    oversub: 1.0,
                })
                .collect(),
        })
    }

    #[test]
    fn trace_is_valid_json_with_only_x_and_m_events() {
        let records = vec![region("a", 0.0, 2000.0, 2), region("b", 2000.0, 500.0, 0)];
        let json = chrome_trace_json(&records);
        let doc: Value = serde_json::from_str(&json).expect("valid JSON");
        let map = doc.as_map().expect("object");
        let (k, events) = &map[0];
        assert_eq!(k.as_str(), Some("traceEvents"));
        let events = events.as_seq().expect("traceEvents array");
        // 2 region X events + 2 thread X events + metadata.
        assert!(events.len() >= 4);
        let mut x_events = 0;
        for e in events {
            let e = e.as_map().expect("event object");
            let field = |name: &str| {
                e.iter()
                    .find(|(k, _)| k.as_str() == Some(name))
                    .map(|(_, v)| v)
            };
            let ph = field("ph").and_then(Value::as_str).expect("ph field");
            assert!(ph == "X" || ph == "M", "unexpected phase {ph}");
            assert!(field("name").is_some());
            if ph == "X" {
                x_events += 1;
                let ts = field("ts").and_then(Value::as_f64).expect("ts");
                let dur = field("dur").and_then(Value::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0);
            }
        }
        assert_eq!(x_events, 4);
    }

    #[test]
    fn region_durations_are_microseconds() {
        let json = chrome_trace_json(&[region("r", 1_000.0, 3_000.0, 0)]);
        // 3000 ns = 3 µs.
        assert!(json.contains("\"dur\":3"), "{json}");
        assert!(json.contains("\"ts\":1"), "{json}");
    }

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
        let rec = stolen_unit_recording();
        let doc = chrome_trace_with_recording(&[], &rec);
        let json = serde_json::to_string(&doc).unwrap();
        assert!(json.contains("\"ph\":\"s\""), "flow out: {json}");
        assert!(json.contains("\"ph\":\"f\""), "flow in: {json}");
        assert!(json.contains("\"bp\":\"e\""), "flow binding: {json}");
        assert!(json.contains("\"ph\":\"i\""), "instant: {json}");
        assert!(json.contains("\"omptrace\""), "stats key: {json}");
        // Round-trips through the JSON validator cleanly.
        let report = validate_trace_json(&json).expect("valid trace");
        assert_eq!(report.unresolved_flows, 0);
        assert_eq!(report.orphan_spans, 0);
        assert_eq!(report.threads, 2);
        assert_eq!(report.flows, 1);
        assert!(report.spans >= 3, "seed + unit + sample: {report}");
    }

    #[test]
    fn validate_trace_accepts_the_recording_directly() {
        let rec = stolen_unit_recording();
        let report = validate_trace(&rec).expect("well-formed");
        assert_eq!(report.spans, 3);
        assert_eq!(report.flows, 1);
        assert_eq!(report.unresolved_flows, 0);
        assert_eq!(report.dropped, 0);
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
        let err = validate_trace(&rec).unwrap_err();
        assert!(err.contains("not well-nested"), "{err}");
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
        let report = validate_trace(&rec).expect("structurally fine");
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
        // Same slices on different tracks are fine.
        let json = r#"{"traceEvents":[
            {"name":"a","cat":"span","ph":"X","ts":0,"dur":10,"pid":1,"tid":0},
            {"name":"b","cat":"span","ph":"X","ts":5,"dur":10,"pid":1,"tid":1}
        ]}"#;
        validate_trace_json(json).expect("separate tracks");
    }

    #[test]
    fn virtual_spans_land_on_their_own_pid() {
        let rec = FlightRecording {
            threads: vec![ThreadTrace {
                thread: 0,
                dropped: 0,
                events: vec![tev(
                    500,
                    EventKind::VirtualSpan,
                    SpanKind::SimRegion,
                    0,
                    250,
                )],
            }],
        };
        let json = serde_json::to_string(&chrome_trace_with_recording(&[], &rec)).unwrap();
        assert!(json.contains("simrt virtual time"), "{json}");
        assert!(json.contains("\"pid\":2"), "{json}");
    }
}
