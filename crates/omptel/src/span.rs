//! Causal spans over the flight recorder: RAII guards with process-wide
//! unique ids and parent links, point events, and cross-thread **flow**
//! handles.
//!
//! A [`Span`] opened while tracing is live emits `SpanBegin` on this
//! thread's ring, installs itself as the thread's current span, and on
//! drop emits `SpanEnd` and restores its parent — so per-thread spans
//! are always well-nested by construction. Causality *across* threads
//! (a sweep unit seeded on worker 0, stolen and executed on worker 3)
//! is a flow: the producer allocates a [`flow_handle`], emits
//! [`flow_out`]; the consumer emits [`flow_in`] with the same handle
//! under its own span. The Chrome exporter turns these into `s`/`f`
//! flow-event arrows.
//!
//! Everything here is **zero-cost when disabled**: `span()` returns an
//! inert guard after one relaxed load; `flow_handle()` returns 0 and
//! `flow_out`/`flow_in` drop 0 handles without loading the clock.

use crate::ring::{emit, tracing, EventKind, TraceEvent};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// What a span or event is about. Fits in a byte on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Scheduler: seeding the worker deques with units.
    Seed = 0,
    /// Scheduler: one work unit (a stripe of configs) executing.
    Unit = 1,
    /// Scheduler: the batch's default-config row executing.
    DefaultRow = 2,
    /// Scheduler: a unit was stolen (`arg` = victim worker).
    Steal = 3,
    /// Plan cache: lookup hit (instant).
    PlanHit = 4,
    /// Plan cache: building a plan on miss.
    PlanBuild = 5,
    /// Pricing a tuning against a cached plan.
    Price = 6,
    /// One sample's simulation (`arg` = config index).
    Sample = 7,
    /// Sample cache: lookup hit (instant).
    CacheHit = 8,
    /// Sample cache: reading a batch file from disk.
    CacheRead = 9,
    /// Sample cache: writing a batch file to disk.
    CacheWrite = 10,
    /// Sample cache: a record failed to parse (instant).
    CacheCorrupt = 11,
    /// omprt: a fork/join parallel region on the caller.
    Parallel = 12,
    /// omprt: one pool worker's share of a region.
    Worker = 13,
    /// omprt: a barrier episode.
    Barrier = 14,
    /// One architecture's whole sweep.
    ArchSweep = 15,
}

impl SpanKind {
    pub const ALL: [SpanKind; 16] = [
        SpanKind::Seed,
        SpanKind::Unit,
        SpanKind::DefaultRow,
        SpanKind::Steal,
        SpanKind::PlanHit,
        SpanKind::PlanBuild,
        SpanKind::Price,
        SpanKind::Sample,
        SpanKind::CacheHit,
        SpanKind::CacheRead,
        SpanKind::CacheWrite,
        SpanKind::CacheCorrupt,
        SpanKind::Parallel,
        SpanKind::Worker,
        SpanKind::Barrier,
        SpanKind::ArchSweep,
    ];

    pub(crate) fn from_u8(v: u8) -> Option<SpanKind> {
        Self::ALL.get(v as usize).copied()
    }

    /// Stable display name (Chrome trace event name).
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::Seed => "seed",
            SpanKind::Unit => "unit",
            SpanKind::DefaultRow => "default_row",
            SpanKind::Steal => "steal",
            SpanKind::PlanHit => "plan_hit",
            SpanKind::PlanBuild => "plan_build",
            SpanKind::Price => "price",
            SpanKind::Sample => "sample",
            SpanKind::CacheHit => "cache_hit",
            SpanKind::CacheRead => "cache_read",
            SpanKind::CacheWrite => "cache_write",
            SpanKind::CacheCorrupt => "cache_corrupt",
            SpanKind::Parallel => "parallel",
            SpanKind::Worker => "worker",
            SpanKind::Barrier => "barrier",
            SpanKind::ArchSweep => "arch_sweep",
        }
    }
}

/// Process-wide span/flow id allocator; 0 is reserved for "none".
/// Threads draw ids from it a block at a time ([`fresh_id`]).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Ids a thread reserves per visit to [`NEXT_ID`].
const ID_BLOCK: u64 = 1024;

thread_local! {
    /// The innermost live span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// This thread's reserved id block: `(next, end)`, empty at start.
    static IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A process-wide unique id. Handed out from a thread-local block so
/// sweep workers opening a few spans per sample do not bounce one
/// cache line between cores on every span; ids are unique, not ordered.
fn fresh_id() -> u64 {
    IDS.with(|c| {
        let (mut next, mut end) = c.get();
        if next == end {
            next = NEXT_ID.fetch_add(ID_BLOCK, Ordering::Relaxed);
            end = next + ID_BLOCK;
        }
        c.set((next + 1, end));
        next
    })
}

/// The current thread's innermost span id (0 when none / not tracing).
pub fn current_span() -> u64 {
    CURRENT.with(Cell::get)
}

/// RAII span guard. Inert (id 0) when tracing is off.
#[derive(Debug)]
pub struct Span {
    id: u64,
    prev: u64,
    what: SpanKind,
}

impl Span {
    /// This span's id (0 when inert).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id != 0 {
            CURRENT.with(|c| c.set(self.prev));
            emit(TraceEvent {
                ts_ns: crate::now_ns_u64(),
                kind: EventKind::SpanEnd,
                what: self.what,
                id: self.id,
                parent: self.prev,
                arg: 0,
            });
        }
    }
}

/// Open a span of `what` with payload `arg`. One relaxed load when
/// tracing is off.
#[inline]
pub fn span(what: SpanKind, arg: u64) -> Span {
    if !tracing() {
        return Span {
            id: 0,
            prev: 0,
            what,
        };
    }
    span_slow(what, arg)
}

#[cold]
fn span_slow(what: SpanKind, arg: u64) -> Span {
    let id = fresh_id();
    let prev = CURRENT.with(|c| c.replace(id));
    emit(TraceEvent {
        ts_ns: crate::now_ns_u64(),
        kind: EventKind::SpanBegin,
        what,
        id,
        parent: prev,
        arg,
    });
    Span { id, prev, what }
}

/// Emit a point event under the current span.
#[inline]
pub fn instant(what: SpanKind, arg: u64) {
    if tracing() {
        emit(TraceEvent {
            ts_ns: crate::now_ns_u64(),
            kind: EventKind::Instant,
            what,
            id: 0,
            parent: current_span(),
            arg,
        });
    }
}

/// Allocate a cross-thread flow handle (0 when tracing is off; 0
/// handles make `flow_out`/`flow_in` no-ops).
#[inline]
pub fn flow_handle() -> u64 {
    if tracing() {
        fresh_id()
    } else {
        0
    }
}

/// Producer side of a flow: "this handle departs from the current
/// span, here".
#[inline]
pub fn flow_out(what: SpanKind, flow: u64) {
    if flow != 0 && tracing() {
        emit(TraceEvent {
            ts_ns: crate::now_ns_u64(),
            kind: EventKind::FlowOut,
            what,
            id: flow,
            parent: current_span(),
            arg: 0,
        });
    }
}

/// Consumer side of a flow: "this handle arrives at the current span,
/// here" — possibly on a different thread than its `flow_out`.
#[inline]
pub fn flow_in(what: SpanKind, flow: u64) {
    if flow != 0 && tracing() {
        emit(TraceEvent {
            ts_ns: crate::now_ns_u64(),
            kind: EventKind::FlowIn,
            what,
            id: flow,
            parent: current_span(),
            arg: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{FlightRecording, Recorder};

    fn record<F: FnOnce()>(f: F) -> FlightRecording {
        let _g = crate::ring::tests::locked();
        let rec = Recorder::start().expect("no live recorder");
        f();
        rec.finish()
    }

    #[test]
    fn every_kind_decodes_from_its_discriminant() {
        for (i, kind) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i);
            assert_eq!(SpanKind::from_u8(i as u8), Some(*kind));
        }
        assert_eq!(SpanKind::from_u8(SpanKind::ALL.len() as u8), None);
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = crate::ring::tests::locked();
        assert!(!tracing());
        let s = span(SpanKind::Unit, 3);
        assert_eq!(s.id(), 0);
        assert_eq!(current_span(), 0);
        assert_eq!(flow_handle(), 0);
        flow_out(SpanKind::Unit, 0);
        flow_in(SpanKind::Unit, 0);
        instant(SpanKind::Steal, 1);
        drop(s);
    }

    #[test]
    fn nesting_restores_parent_and_links_events() {
        let rec = record(|| {
            let outer = span(SpanKind::Unit, 0);
            assert_eq!(current_span(), outer.id());
            {
                let inner = span(SpanKind::Sample, 5);
                assert_eq!(current_span(), inner.id());
                instant(SpanKind::CacheHit, 0);
            }
            assert_eq!(current_span(), outer.id());
            drop(outer);
            assert_eq!(current_span(), 0);
        });
        let events = &rec.threads[0].events;
        assert_eq!(events.len(), 5); // 2 begins + instant + 2 ends
        let begins: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin)
            .collect();
        assert_eq!(begins.len(), 2);
        assert_eq!(begins[0].parent, 0);
        assert_eq!(begins[1].parent, begins[0].id, "inner links to outer");
        let inst = events
            .iter()
            .find(|e| e.kind == EventKind::Instant)
            .unwrap();
        assert_eq!(inst.parent, begins[1].id, "instant under inner span");
        assert_eq!(inst.what, SpanKind::CacheHit);
    }

    #[test]
    fn flows_connect_across_threads() {
        let rec = record(|| {
            let seed = span(SpanKind::Seed, 0);
            let flow = flow_handle();
            assert_ne!(flow, 0);
            flow_out(SpanKind::Unit, flow);
            drop(seed);
            std::thread::spawn(move || {
                let unit = span(SpanKind::Unit, 1);
                flow_in(SpanKind::Unit, flow);
                drop(unit);
            })
            .join()
            .unwrap();
        });
        assert_eq!(rec.threads.len(), 2);
        let out = rec
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .find(|e| e.kind == EventKind::FlowOut)
            .expect("flow_out recorded");
        let inn = rec
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .find(|e| e.kind == EventKind::FlowIn)
            .expect("flow_in recorded");
        assert_eq!(out.id, inn.id, "same flow handle both sides");
        assert_ne!(out.parent, inn.parent, "different enclosing spans");
    }
}
