//! # omptel — OMPT-style telemetry for the omptune runtimes
//!
//! A counter/profile registry modeled on LLVM/OpenMP's OMPT tool
//! interface: the runtimes (`omprt`, real wall-clock; `simrt`, virtual
//! time) feed the same schema, and the exporter turns a collected batch
//! into a Chrome `trace_event` timeline.
//!
//! ## Zero cost when disabled
//!
//! Every instrumentation site is gated on **one relaxed atomic load**
//! ([`enabled`]) — the same discipline as `omprt::trace`. With no
//! session active, [`add`] and [`record_region`] return immediately and
//! no clocks are read; the `runtime_ablation` bench in `bench-harness`
//! pins this.
//!
//! ## Exclusive sessions
//!
//! Collection happens inside a [`session`]: counters reset, the gate
//! opens, and [`Session::finish`] returns the collected [`Batch`].
//! Sessions are exclusive per process — a second [`session`] while one
//! is live is **rejected** (`Err(SessionActive)`), not blocked, so a
//! mid-run enable can never silently split one run's records across two
//! consumers.

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
pub use chrome::{
    chrome_trace_json, chrome_trace_with_recording, validate_trace, validate_trace_json,
    TraceReport,
};
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
pub use schema::{
    Breakdown, Counter, CounterSnapshot, EnergyBreakdown, EnergySink, Record, RegionKind,
    RegionProfile, Sink, ThreadProfile,
};
pub use span::{
    current_span, flow_handle, flow_in, flow_out, instant, span, virtual_span, Span, SpanKind,
};
pub use summary::Summary;
pub use tsdb::{read_ring, Point, RingFile, Tsdb, DEFAULT_CAPACITY};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The single gate every instrumentation site loads (relaxed).
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Whether a [`Session`] object is live (stays set until it drops).
static SESSION_ACTIVE: AtomicBool = AtomicBool::new(false);
/// The counter registry, one slot per [`Counter`].
static COUNTERS: [AtomicU64; Counter::COUNT] = [const { AtomicU64::new(0) }; Counter::COUNT];
/// Region profiles collected by the live session.
static REGIONS: Mutex<Vec<RegionProfile>> = Mutex::new(Vec::new());
/// Process-wide monotonic clock epoch for `begin_ns` timestamps.
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Label the next recorded regions on this thread carry; set by
    /// drivers (workloads, benches) around runtime calls.
    static REGION_LABEL: Cell<&'static str> = const { Cell::new("") };
}

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

/// Nanoseconds since the process telemetry epoch (first use). Only for
/// enabled-path code: reads a clock.
pub fn now_ns() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as f64
}

/// [`now_ns`] as an integer without the `u128` -> `f64` round trip; the
/// flight recorder stamps every event with it.
pub(crate) fn now_ns_u64() -> u64 {
    let d = EPOCH.get_or_init(Instant::now).elapsed();
    d.as_secs() * 1_000_000_000 + u64::from(d.subsec_nanos())
}

/// Set the label future [`record_region`] calls from this thread adopt
/// when the producer passes an empty name. `""` clears it.
pub fn set_region_label(label: &'static str) {
    REGION_LABEL.with(|c| c.set(label));
}

/// The current thread's region label (`"parallel"` when unset).
pub fn region_label() -> &'static str {
    let l = REGION_LABEL.with(Cell::get);
    if l.is_empty() {
        "parallel"
    } else {
        l
    }
}

/// Record one region profile into the live session. Dropped (after one
/// relaxed load) when disabled.
pub fn record_region(profile: RegionProfile) {
    if enabled() {
        REGIONS
            .lock()
            .expect("omptel region buffer poisoned")
            .push(profile);
    }
}

/// Everything one session collected.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Region profiles in recording order.
    pub regions: Vec<RegionProfile>,
    /// Final counter values.
    pub counters: CounterSnapshot,
}

impl Batch {
    /// The batch as exportable records: every region, then one final
    /// counter record (omitted when all counters are zero).
    pub fn records(&self) -> Vec<Record> {
        let mut out: Vec<Record> = self.regions.iter().cloned().map(Record::Region).collect();
        if !self.counters.is_empty() {
            out.push(Record::Counters(self.counters.clone()));
        }
        out
    }

    /// Fold the batch into a summary.
    pub fn summary(&self) -> Summary {
        let mut s = Summary::default();
        for r in &self.regions {
            s.add_profile(r);
        }
        s.add_counters(&self.counters);
        s
    }
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

/// A live collection session; finish it to harvest the [`Batch`].
/// Dropping without finishing discards the data and closes the gate.
#[derive(Debug)]
pub struct Session {
    finished: bool,
}

/// Open the process-wide collection session: counters reset, the gate
/// opens. Rejected while another session is live.
pub fn session() -> Result<Session, SessionActive> {
    if SESSION_ACTIVE.swap(true, Ordering::SeqCst) {
        return Err(SessionActive);
    }
    // Establish the clock epoch before any producer timestamps against it.
    let _ = now_ns();
    REGIONS
        .lock()
        .expect("omptel region buffer poisoned")
        .clear();
    for c in &COUNTERS {
        c.store(0, Ordering::SeqCst);
    }
    ENABLED.store(true, Ordering::SeqCst);
    Ok(Session { finished: false })
}

/// Point-in-time copy of the counter registry. Outside a session every
/// counter reads zero (sessions reset on open, [`add`] is gated), so a
/// scrape between runs reports a quiescent process rather than stale
/// totals.
pub fn counters_now() -> CounterSnapshot {
    capture_counters()
}

fn capture_counters() -> CounterSnapshot {
    CounterSnapshot {
        values: COUNTERS.iter().map(|c| c.load(Ordering::SeqCst)).collect(),
    }
}

impl Session {
    /// Close the gate and return everything collected.
    pub fn finish(mut self) -> Batch {
        ENABLED.store(false, Ordering::SeqCst);
        let regions = std::mem::take(&mut *REGIONS.lock().expect("omptel region buffer poisoned"));
        let counters = capture_counters();
        self.finished = true;
        // Drop releases SESSION_ACTIVE.
        Batch { regions, counters }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        if !self.finished {
            REGIONS
                .lock()
                .expect("omptel region buffer poisoned")
                .clear();
        }
        SESSION_ACTIVE.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sessions are process-global; tests touching them serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn tiny_profile(name: &str) -> RegionProfile {
        RegionProfile {
            name: name.into(),
            kind: RegionKind::Parallel,
            begin_ns: now_ns(),
            total_ns: 10.0,
            breakdown: Breakdown {
                compute_ns: 10.0,
                ..Breakdown::default()
            },
            threads: Vec::new(),
        }
    }

    #[test]
    fn disabled_path_emits_nothing() {
        let _g = locked();
        assert!(!enabled());
        add(Counter::Steals, 5);
        record_region(tiny_profile("dropped"));
        let s = session().expect("no live session");
        let batch = s.finish();
        assert!(batch.regions.is_empty(), "pre-session records must drop");
        assert!(batch.counters.is_empty());
    }

    #[test]
    fn session_collects_counters_and_regions() {
        let _g = locked();
        let s = session().expect("no live session");
        add(Counter::Steals, 3);
        add(Counter::Steals, 4);
        add(Counter::BarrierEpisodes, 1);
        record_region(tiny_profile("r1"));
        let batch = s.finish();
        assert_eq!(batch.counters.get(Counter::Steals), 7);
        assert_eq!(batch.counters.get(Counter::BarrierEpisodes), 1);
        assert_eq!(batch.regions.len(), 1);
        assert_eq!(batch.regions[0].name, "r1");
        let summary = batch.summary();
        assert_eq!(summary.regions, 1);
        assert_eq!(summary.counters.get(Counter::Steals), 7);
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
    fn dropped_session_discards_data() {
        let _g = locked();
        let s = session().expect("no live session");
        record_region(tiny_profile("lost"));
        drop(s);
        let s2 = session().expect("released");
        let batch = s2.finish();
        assert!(batch.regions.is_empty());
    }

    #[test]
    fn region_label_defaults_and_overrides() {
        set_region_label("");
        assert_eq!(region_label(), "parallel");
        set_region_label("cg/conj_grad");
        assert_eq!(region_label(), "cg/conj_grad");
        set_region_label("");
    }
}
