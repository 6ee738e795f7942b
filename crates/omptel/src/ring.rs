//! omptrace flight recorder: per-thread lock-free ring buffers of
//! typed, timestamped events.
//!
//! Each participating thread owns one [`ThreadRing`] — a fixed-size
//! circular buffer of 5-word event slots it alone writes (SPSC: the
//! owning thread produces, the harvesting thread consumes *after the
//! gate closes*). A push is five relaxed `AtomicU64` stores plus one
//! release store of the head index; no CAS, no locks, and an allocation
//! only when the producer first reaches one of the ring's 40 KiB chunks.
//! When the ring wraps, the oldest events are overwritten and counted
//! as dropped — flight-recorder semantics: always keep the most recent
//! window, never block the producer.
//!
//! The whole subsystem is **zero-cost when disabled**: every emission
//! site loads one relaxed atomic ([`tracing`]) and returns — the same
//! discipline as the counter registry's [`crate::enabled`]. The
//! recorder gate is independent of the counter session so tracing can
//! wrap a sweep without stealing the exclusive [`crate::session`] slot.
//!
//! Recorders are exclusive per process (like sessions): starting one
//! while another is live is rejected. Each start bumps a generation;
//! thread-local ring handles re-register lazily when stale, so thread
//! pools spanning multiple recordings never write into a dead ring.

use crate::span::SpanKind;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Words per encoded event slot.
const EVENT_WORDS: usize = 5;

/// Default ring capacity in events (per thread). 32768 events × 40 B =
/// at most 1.25 MiB per participating thread, allocated as it fills —
/// enough for ~3k samples of context at ~10 events/sample before
/// wrapping.
pub const DEFAULT_CAPACITY: usize = 32_768;

/// What an event slot records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`id`, `parent` = enclosing span id).
    SpanBegin,
    /// The span `id` closed.
    SpanEnd,
    /// A point event (`parent` = enclosing span id).
    Instant,
    /// Producer side of a cross-thread flow (`id` = flow id).
    FlowOut,
    /// Consumer side of a cross-thread flow (`id` = flow id).
    FlowIn,
    /// A span on the simulator's virtual clock: `ts_ns` is virtual
    /// begin, `parent` carries the virtual duration (no nesting).
    VirtualSpan,
}

impl EventKind {
    const ALL: [EventKind; 6] = [
        EventKind::SpanBegin,
        EventKind::SpanEnd,
        EventKind::Instant,
        EventKind::FlowOut,
        EventKind::FlowIn,
        EventKind::VirtualSpan,
    ];

    fn from_u8(v: u8) -> Option<EventKind> {
        Self::ALL.get(v as usize).copied()
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder epoch (virtual ns for
    /// [`EventKind::VirtualSpan`]).
    pub ts_ns: u64,
    pub kind: EventKind,
    pub what: SpanKind,
    /// Span or flow id (0 for instants).
    pub id: u64,
    /// Enclosing span id, or virtual duration for `VirtualSpan`.
    pub parent: u64,
    /// Event-specific payload (config index, victim worker, …).
    pub arg: u64,
}

impl TraceEvent {
    fn encode(&self) -> [u64; EVENT_WORDS] {
        [
            self.ts_ns,
            (self.kind as u64) | ((self.what as u64) << 8),
            self.id,
            self.parent,
            self.arg,
        ]
    }

    fn decode(w: &[u64; EVENT_WORDS]) -> Option<TraceEvent> {
        Some(TraceEvent {
            ts_ns: w[0],
            kind: EventKind::from_u8((w[1] & 0xff) as u8)?,
            what: SpanKind::from_u8(((w[1] >> 8) & 0xff) as u8)?,
            id: w[2],
            parent: w[3],
            arg: w[4],
        })
    }
}

/// Events per lazily allocated ring chunk (40 KiB).
const CHUNK_EVENTS: usize = 1024;

/// One thread's ring. The owning thread is the only writer.
///
/// Storage is chunked and a chunk is allocated when the producer first
/// reaches it: sweep workers are short-lived (one set per architecture
/// sweep) and most record a few thousand events, so zero-filling the
/// whole 1.25 MiB ring per worker cost more than every event written
/// to it.
pub struct ThreadRing {
    /// Stable thread number within the recording (registration order).
    thread: usize,
    /// Total events ever pushed; `head % capacity` is the next slot.
    head: AtomicU64,
    /// `CHUNK_EVENTS * EVENT_WORDS` atomic words per chunk, covering
    /// `capacity` slots between them.
    chunks: Box<[OnceLock<Box<[AtomicU64]>>]>,
    capacity: usize,
}

impl ThreadRing {
    fn new(thread: usize, capacity: usize) -> ThreadRing {
        ThreadRing {
            thread,
            head: AtomicU64::new(0),
            chunks: (0..capacity.div_ceil(CHUNK_EVENTS))
                .map(|_| OnceLock::new())
                .collect(),
            capacity,
        }
    }

    /// The words of ring slot `slot`, allocating its chunk on first use.
    fn slot_words(&self, slot: usize) -> &[AtomicU64] {
        let chunk = self.chunks[slot / CHUNK_EVENTS].get_or_init(|| {
            (0..CHUNK_EVENTS * EVENT_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect()
        });
        let at = slot % CHUNK_EVENTS * EVENT_WORDS;
        &chunk[at..at + EVENT_WORDS]
    }

    /// Producer-only push: relaxed word stores, then a release head
    /// bump so a post-quiescence harvest acquiring `head` sees every
    /// word of every published slot.
    fn push(&self, ev: &TraceEvent) {
        let head = self.head.load(Ordering::Relaxed);
        let words = self.slot_words((head % self.capacity as u64) as usize);
        for (word, w) in words.iter().zip(ev.encode()) {
            word.store(w, Ordering::Relaxed);
        }
        self.head.store(head + 1, Ordering::Release);
    }

    /// Snapshot the retained window (oldest first) and the drop count.
    /// Exact only after the producer quiesced (gate closed / joined).
    fn harvest(&self) -> (Vec<TraceEvent>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let n = head.min(self.capacity as u64);
        let dropped = head - n;
        let mut out = Vec::with_capacity(n as usize);
        for k in 0..n {
            let idx = head - n + k;
            let words = self.slot_words((idx % self.capacity as u64) as usize);
            let mut w = [0u64; EVENT_WORDS];
            for (word, src) in w.iter_mut().zip(words) {
                *word = src.load(Ordering::Relaxed);
            }
            if let Some(ev) = TraceEvent::decode(&w) {
                out.push(ev);
            }
        }
        (out, dropped)
    }

    /// The most recent `n` retained events, oldest first. Safe for the
    /// owning thread (its own pushes are ordered); used by the anomaly
    /// watchdog to dump context around a slow sample.
    pub fn recent(&self, n: usize) -> Vec<TraceEvent> {
        let (mut events, _) = self.harvest();
        if events.len() > n {
            events.drain(..events.len() - n);
        }
        events
    }
}

/// The recorder gate: one relaxed load on every emission site.
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
/// Whether a [`Recorder`] object is live.
static RECORDER_ACTIVE: AtomicBool = AtomicBool::new(false);
/// Emit simulator virtual-time spans too? (Separate switch: they are
/// high-volume and only wanted for `--spans` style deep dives.)
static SIM_SPANS: AtomicBool = AtomicBool::new(false);
/// Bumped per recording so stale thread-local handles re-register.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// Per-thread ring capacity for the live recording.
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
/// All rings registered in the live recording, registration order.
static RINGS: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

thread_local! {
    /// (generation, ring) this thread last registered.
    static MY_RING: RefCell<Option<(u64, Arc<ThreadRing>)>> = const { RefCell::new(None) };
}

/// Is a flight recording live? One relaxed load.
#[inline]
pub fn tracing() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Are simulator virtual-time spans requested too?
#[inline]
pub fn sim_spans() -> bool {
    SIM_SPANS.load(Ordering::Relaxed)
}

/// Run `f` on this thread's ring for the live generation, registering
/// it on first use. Enabled-path only; `f` must not emit.
fn with_my_ring<R>(f: impl FnOnce(&ThreadRing) -> R) -> R {
    let generation = GENERATION.load(Ordering::Acquire);
    MY_RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        if let Some((g, ring)) = slot.as_ref() {
            if *g == generation {
                return f(ring);
            }
        }
        let mut rings = RINGS.lock().expect("omptrace ring registry poisoned");
        let ring = Arc::new(ThreadRing::new(
            rings.len(),
            CAPACITY.load(Ordering::Acquire),
        ));
        rings.push(ring.clone());
        drop(rings);
        let (_, ring) = slot.insert((generation, ring));
        f(ring)
    })
}

/// Emit one event into this thread's ring. Enabled-path only: callers
/// gate on [`tracing`] first.
pub(crate) fn emit(ev: TraceEvent) {
    with_my_ring(|ring| ring.push(&ev));
}

/// This thread's most recent `n` retained events (empty when no
/// recording is live). For anomaly context dumps.
pub fn recent_events(n: usize) -> Vec<TraceEvent> {
    if !tracing() {
        return Vec::new();
    }
    with_my_ring(|ring| ring.recent(n))
}

/// Live `(threads, retained events, dropped events)` across every ring
/// of the current recording — all zeros when none is live. Drop counts
/// are the same quantity [`Recorder::finish`] harvests per thread, read
/// without stopping the recording, so a metrics scrape can observe
/// silent event loss mid-run.
pub fn live_ring_stats() -> (usize, u64, u64) {
    let rings = RINGS.lock().expect("omptrace ring registry poisoned");
    let mut events = 0u64;
    let mut dropped = 0u64;
    for r in rings.iter() {
        let head = r.head.load(Ordering::Acquire);
        let retained = head.min(r.capacity as u64);
        events += retained;
        dropped += head - retained;
    }
    (rings.len(), events, dropped)
}

/// Recorder configuration.
#[derive(Debug, Clone, Copy)]
pub struct RecorderOptions {
    /// Per-thread ring capacity in events.
    pub capacity: usize,
    /// Also record simulator virtual-time spans (high volume).
    pub sim_spans: bool,
}

impl Default for RecorderOptions {
    fn default() -> Self {
        RecorderOptions {
            capacity: DEFAULT_CAPACITY,
            sim_spans: false,
        }
    }
}

/// Attempting to start a recorder while one is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderActive;

impl std::fmt::Display for RecorderActive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "an omptrace recorder is already active in this process")
    }
}

impl std::error::Error for RecorderActive {}

/// A live flight recording; finish it to harvest the rings.
#[derive(Debug)]
pub struct Recorder {
    finished: bool,
}

impl Recorder {
    /// Start the process-wide flight recorder. Rejected while another
    /// recorder is live.
    pub fn start(opts: RecorderOptions) -> Result<Recorder, RecorderActive> {
        if RECORDER_ACTIVE.swap(true, Ordering::SeqCst) {
            return Err(RecorderActive);
        }
        // Pin the shared clock epoch before any event timestamps.
        let _ = crate::now_ns_u64();
        RINGS
            .lock()
            .expect("omptrace ring registry poisoned")
            .clear();
        CAPACITY.store(opts.capacity.max(16), Ordering::SeqCst);
        SIM_SPANS.store(opts.sim_spans, Ordering::SeqCst);
        GENERATION.fetch_add(1, Ordering::SeqCst);
        TRACE_ENABLED.store(true, Ordering::SeqCst);
        Ok(Recorder { finished: false })
    }

    /// Close the gate and harvest every ring. Callers must have joined
    /// their worker threads first (the sweep scheduler always has).
    pub fn finish(mut self) -> FlightRecording {
        TRACE_ENABLED.store(false, Ordering::SeqCst);
        SIM_SPANS.store(false, Ordering::SeqCst);
        let rings = std::mem::take(&mut *RINGS.lock().expect("omptrace ring registry poisoned"));
        self.finished = true;
        let threads: Vec<ThreadTrace> = rings
            .iter()
            .map(|r| {
                let (events, dropped) = r.harvest();
                ThreadTrace {
                    thread: r.thread,
                    dropped,
                    events,
                }
            })
            .collect();
        let recording = FlightRecording { threads };
        // Surface silent event loss in the counter registry (and hence
        // the metrics snapshot) instead of only inside anomaly dumps.
        crate::add(crate::Counter::TraceDropped, recording.total_dropped());
        recording
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        TRACE_ENABLED.store(false, Ordering::SeqCst);
        SIM_SPANS.store(false, Ordering::SeqCst);
        if !self.finished {
            RINGS
                .lock()
                .expect("omptrace ring registry poisoned")
                .clear();
        }
        RECORDER_ACTIVE.store(false, Ordering::SeqCst);
    }
}

/// One thread's harvested trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadTrace {
    /// Registration-order thread number.
    pub thread: usize,
    /// Events overwritten before harvest (ring wrapped).
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// Everything one recording captured.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightRecording {
    pub threads: Vec<ThreadTrace>,
}

impl FlightRecording {
    /// Retained events across all threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Events lost to ring wrap across all threads.
    pub fn total_dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Count events of one kind/what pair.
    pub fn count(&self, kind: EventKind, what: SpanKind) -> usize {
        self.threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.kind == kind && e.what == what)
            .count()
    }

    /// Per-[`SpanKind`] wall-clock duration histograms from matched
    /// Begin/End pairs (per thread, by span id). Unmatched ends from
    /// wrapped rings are skipped.
    pub fn span_durations(&self) -> Vec<(SpanKind, crate::hist::Histogram)> {
        use std::collections::HashMap;
        let mut hists: HashMap<u8, crate::hist::Histogram> = HashMap::new();
        for t in &self.threads {
            let mut open: HashMap<u64, (SpanKind, u64)> = HashMap::new();
            for e in &t.events {
                match e.kind {
                    EventKind::SpanBegin => {
                        open.insert(e.id, (e.what, e.ts_ns));
                    }
                    EventKind::SpanEnd => {
                        if let Some((what, begin)) = open.remove(&e.id) {
                            hists
                                .entry(what as u8)
                                .or_default()
                                .record(e.ts_ns.saturating_sub(begin));
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut out: Vec<(SpanKind, crate::hist::Histogram)> = hists
            .into_iter()
            .filter_map(|(k, h)| SpanKind::from_u8(k).map(|s| (s, h)))
            .collect();
        out.sort_by_key(|(s, _)| *s as u8);
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    // Recorders are process-global; ring/span tests serialize here.
    pub(crate) static TRACE_TEST_LOCK: Mutex<()> = Mutex::new(());

    pub(crate) fn locked() -> std::sync::MutexGuard<'static, ()> {
        TRACE_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn ev(ts: u64, id: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            kind: EventKind::Instant,
            what: SpanKind::Sample,
            id,
            parent: 0,
            arg: 7,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let e = TraceEvent {
            ts_ns: 123_456,
            kind: EventKind::FlowOut,
            what: SpanKind::Unit,
            id: 42,
            parent: 41,
            arg: 9,
        };
        assert_eq!(TraceEvent::decode(&e.encode()), Some(e));
    }

    #[test]
    fn ring_keeps_latest_window_and_counts_drops() {
        let ring = ThreadRing::new(0, 16);
        for i in 0..40u64 {
            ring.push(&ev(i, i));
        }
        let (events, dropped) = ring.harvest();
        assert_eq!(dropped, 24);
        assert_eq!(events.len(), 16);
        // Oldest-first, most recent window.
        assert_eq!(events.first().unwrap().ts_ns, 24);
        assert_eq!(events.last().unwrap().ts_ns, 39);
        // recent() trims from the front.
        let tail = ring.recent(4);
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].ts_ns, 36);
    }

    #[test]
    fn disabled_emission_is_dropped_without_registration() {
        let _g = locked();
        assert!(!tracing());
        assert!(recent_events(8).is_empty());
        let rec = Recorder::start(RecorderOptions::default()).expect("no live recorder");
        // Nothing emitted yet: no rings registered.
        let recording = rec.finish();
        assert!(recording.threads.is_empty());
        assert_eq!(recording.total_events(), 0);
        assert_eq!(recording.total_dropped(), 0);
    }

    #[test]
    fn second_recorder_is_rejected() {
        let _g = locked();
        let rec = Recorder::start(RecorderOptions::default()).expect("no live recorder");
        assert_eq!(
            Recorder::start(RecorderOptions::default()).err(),
            Some(RecorderActive)
        );
        drop(rec);
        let rec2 = Recorder::start(RecorderOptions::default()).expect("released");
        drop(rec2);
    }

    #[test]
    fn threads_get_their_own_rings_across_generations() {
        let _g = locked();
        let rec = Recorder::start(RecorderOptions {
            capacity: 64,
            sim_spans: false,
        })
        .expect("no live recorder");
        emit(ev(1, 1));
        let handles: Vec<_> = (0..3)
            .map(|t| {
                std::thread::spawn(move || {
                    for i in 0..5u64 {
                        emit(ev(t * 100 + i, i));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let recording = rec.finish();
        assert_eq!(recording.threads.len(), 4);
        assert_eq!(recording.total_events(), 16);
        assert_eq!(recording.total_dropped(), 0);
        // A new generation starts clean even from this (stale) thread.
        let rec2 = Recorder::start(RecorderOptions::default()).expect("released");
        emit(ev(9, 9));
        let recording2 = rec2.finish();
        assert_eq!(recording2.threads.len(), 1);
        assert_eq!(recording2.total_events(), 1);
        assert_eq!(recording2.threads[0].events[0].ts_ns, 9);
    }
}
