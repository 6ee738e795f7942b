//! # omptel — OMPT-style telemetry for the omptune runtimes
//!
//! A counter registry modeled on LLVM/OpenMP's OMPT tool interface: the
//! runtimes (`omprt`, real wall-clock; `simrt`, virtual time) bump the
//! same [`Counter`]s, a run's time is described once, by the closed
//! [`Breakdown`] its producer keeps, and the flight recorder's spans
//! export as a Chrome `trace_event` timeline.
//!
//! ## Zero cost when disabled
//!
//! Every instrumentation site is gated on **one relaxed atomic load**
//! ([`enabled`]) — the same discipline as `omprt::trace`. With no
//! session active, [`add`] returns immediately and no clocks are read;
//! the `runtime_ablation` bench in `bench-harness` pins this.
//!
//! ## Exclusive sessions
//!
//! Counting happens inside a [`session`]: counters reset, the gate
//! opens, and [`Session::finish`] returns the final [`CounterSnapshot`].
//! A session buffers nothing else. Sessions are exclusive per process —
//! a second [`session`] while one is live is **rejected**
//! (`Err(SessionActive)`), not blocked, so a mid-run enable can never
//! silently split one run's counts across two consumers.

pub mod anomaly;
pub mod chrome;
pub mod hist;
pub mod metrics;
pub mod monitor;
pub mod progress;
pub mod report;
pub mod ring;
pub mod schema;
pub mod span;
pub mod summary;
pub mod tsdb;

pub use anomaly::{install_watchdog, installed_watchdog, report_corrupt, Watchdog};
pub use chrome::{chrome_trace_with_recording, validate_trace, validate_trace_json, TraceReport};
pub use hist::{AtomicHistogram, Histogram, QuantileBound};
pub use metrics::{
    histogram_from_prometheus, parse_prometheus, HistogramMetric, MetricsSnapshot, PromSample,
};
pub use monitor::{monitoring, BodyFn, Monitor, Route};
pub use progress::Progress;
pub use report::{explain, render, render_pair, Explanation};
pub use ring::{
    live_ring_stats, recent_events, sim_spans, tracing, EventKind, FlightRecording, Recorder,
    RecorderOptions, ThreadTrace, TraceEvent,
};
pub use schema::{Breakdown, Counter, CounterSnapshot, EnergyBreakdown, EnergySink, Sink};
pub use span::{
    current_span, flow_handle, flow_in, flow_out, instant, span, virtual_span, Span, SpanKind,
};
pub use summary::Summary;
pub use tsdb::{read_ring, Point, RingFile, Tsdb, DEFAULT_CAPACITY};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The single gate every instrumentation site loads (relaxed).
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Whether a [`Session`] object is live (stays set until it drops).
static SESSION_ACTIVE: AtomicBool = AtomicBool::new(false);
/// The counter registry, one slot per [`Counter`].
static COUNTERS: [AtomicU64; Counter::COUNT] = [const { AtomicU64::new(0) }; Counter::COUNT];
/// Process-wide monotonic clock epoch for event timestamps.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Is a collection session live? One relaxed load — the only cost the
/// instrumented hot paths pay when telemetry is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Bump a counter by `n`. No-op (one relaxed load) when disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Nanoseconds since the process telemetry epoch (first use); the flight
/// recorder stamps every event with it. Reads a clock.
pub(crate) fn now_ns_u64() -> u64 {
    let d = EPOCH.get_or_init(Instant::now).elapsed();
    d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
}

/// Attempting to open a session while one is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionActive;

impl std::fmt::Display for SessionActive {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "an omptel session is already active in this process")
    }
}

impl std::error::Error for SessionActive {}

/// A live counting session; finish it to read the counters. Dropping
/// without finishing closes the gate.
#[derive(Debug)]
pub struct Session(());

/// Open the process-wide counting session: counters reset, the gate
/// opens. Rejected while another session is live.
pub fn session() -> Result<Session, SessionActive> {
    if SESSION_ACTIVE.swap(true, Ordering::SeqCst) {
        return Err(SessionActive);
    }
    for c in &COUNTERS {
        c.store(0, Ordering::SeqCst);
    }
    ENABLED.store(true, Ordering::SeqCst);
    Ok(Session(()))
}

/// Point-in-time copy of the counter registry. Outside a session every
/// counter reads zero (sessions reset on open, [`add`] is gated), so a
/// scrape between runs reports a quiescent process rather than stale
/// totals.
pub fn counters_now() -> CounterSnapshot {
    CounterSnapshot {
        values: COUNTERS.iter().map(|c| c.load(Ordering::SeqCst)).collect(),
    }
}

impl Session {
    /// Close the gate and return the final counter values.
    pub fn finish(self) -> CounterSnapshot {
        ENABLED.store(false, Ordering::SeqCst);
        // Drop releases SESSION_ACTIVE.
        counters_now()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        SESSION_ACTIVE.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Sessions are process-global; tests touching them serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_path_emits_nothing() {
        let _g = locked();
        assert!(!enabled());
        add(Counter::Steals, 5);
        let counters = session().expect("no live session").finish();
        assert!(counters.is_empty(), "pre-session counts must drop");
    }

    #[test]
    fn session_counts_and_returns_counters_only() {
        let _g = locked();
        let s = session().expect("no live session");
        add(Counter::Steals, 3);
        add(Counter::Steals, 4);
        add(Counter::BarrierEpisodes, 1);
        let counters = s.finish();
        assert_eq!(counters.get(Counter::Steals), 7);
        assert_eq!(counters.get(Counter::BarrierEpisodes), 1);
        assert_eq!(counters.values.len(), Counter::COUNT);
        // Gate closed again.
        assert!(!enabled());
    }

    #[test]
    fn second_session_is_rejected_not_blocked() {
        let _g = locked();
        let s = session().expect("no live session");
        assert_eq!(session().err(), Some(SessionActive));
        // Still rejected from another thread (no deadlock either way).
        let from_thread = std::thread::spawn(|| session().err()).join().unwrap();
        assert_eq!(from_thread, Some(SessionActive));
        drop(s);
        // After drop the slot frees up.
        let s2 = session().expect("released");
        drop(s2);
    }

    #[test]
    fn a_new_session_starts_from_zero() {
        let _g = locked();
        let s = session().expect("no live session");
        add(Counter::Wakeups, 2);
        drop(s);
        let counters = session().expect("released").finish();
        assert!(counters.is_empty());
    }
}
