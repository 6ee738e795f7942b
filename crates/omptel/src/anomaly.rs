//! Anomaly watchdog: flag samples whose latency crosses a streaming
//! quantile threshold and dump the surrounding flight-recorder window
//! as JSON lines.
//!
//! The watchdog keeps an [`AtomicHistogram`] of everything it observes
//! and a cached nanosecond threshold at a configured quantile
//! (default p99.9). The hot path per observation is one histogram
//! record plus one relaxed threshold compare; the threshold itself is
//! re-derived from the histogram only every [`RECACHE_EVERY`]
//! observations, so no quantile scan rides the sample path. On a flag,
//! the offending thread's recent ring events are serialized to the
//! sink as one `anomalies.jsonl` line — enough context to see *what
//! the slow sample was doing* without keeping the full trace.
//!
//! The same sink also receives structural anomalies that are not
//! latency outliers, e.g. [`report_corrupt`] when the sample cache
//! hits an unparseable record (the degrade-to-recompute path).

use crate::hist::{AtomicHistogram, Histogram};
use crate::ring::{recent_events, TraceEvent};
use crate::span::{instant, SpanKind};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Threshold recache cadence (observations between quantile scans).
const RECACHE_EVERY: u64 = 256;

/// Watchdog configuration and state. Shared across sweep workers.
pub struct Watchdog {
    hist: AtomicHistogram,
    /// Flag observations above this quantile of everything seen so far.
    quantile: f64,
    /// Don't flag until this many observations calibrated the histogram.
    min_samples: u64,
    /// Ring events to dump around a flagged sample.
    window: usize,
    /// Cached nanosecond threshold (u64::MAX until calibrated).
    threshold: AtomicU64,
    /// Samples flagged as latency outliers.
    flagged: AtomicU64,
    /// Structural corruption reports.
    corrupt: AtomicU64,
    sink: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("quantile", &self.quantile)
            .field("observed", &self.hist.count())
            .field("flagged", &self.flagged.load(Ordering::Relaxed))
            .field("corrupt", &self.corrupt.load(Ordering::Relaxed))
            .finish()
    }
}

impl Watchdog {
    /// A watchdog writing JSONL anomaly records to `sink`, flagging
    /// observations above the `quantile` of the stream so far.
    pub fn new(quantile: f64, sink: Box<dyn Write + Send>) -> Watchdog {
        Watchdog {
            hist: AtomicHistogram::new(),
            quantile: quantile.clamp(0.5, 1.0),
            min_samples: RECACHE_EVERY,
            window: 64,
            threshold: AtomicU64::new(u64::MAX),
            flagged: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            sink: Mutex::new(sink),
        }
    }

    /// Observe one latency. `ctx` is evaluated only on a flag (it
    /// names the sample in the dump). Hot path: one histogram record,
    /// one relaxed compare, one decrement-check.
    pub fn observe(&self, latency_ns: u64, ctx: impl FnOnce() -> String) {
        self.hist.record(latency_ns);
        let n = self.hist.count();
        if n.is_multiple_of(RECACHE_EVERY) {
            self.recache();
        }
        if n >= self.min_samples && latency_ns > self.threshold.load(Ordering::Relaxed) {
            self.flag(latency_ns, ctx());
        }
    }

    fn recache(&self) {
        let snap = self.hist.snapshot();
        if let Some(q) = snap.quantile(self.quantile) {
            // Flag only above the bracket's *upper* bound: everything
            // inside the quantile bin is ordinary by construction.
            self.threshold.store(q.hi, Ordering::Relaxed);
        }
    }

    fn flag(&self, latency_ns: u64, ctx: String) {
        self.flagged.fetch_add(1, Ordering::Relaxed);
        instant(SpanKind::Anomaly, latency_ns);
        self.dump(
            "slow_sample",
            &ctx,
            latency_ns,
            self.threshold.load(Ordering::Relaxed),
        );
    }

    /// Report a structural anomaly: a cache record that failed to
    /// parse. Counted, ring-marked, and dumped regardless of latency
    /// calibration.
    pub fn report_corrupt(&self, ctx: &str) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        self.dump("cache_corrupt", ctx, 0, 0);
    }

    fn dump(&self, kind: &str, ctx: &str, latency_ns: u64, threshold_ns: u64) {
        let window = recent_events(self.window);
        let mut line = String::with_capacity(256 + window.len() * 64);
        line.push_str(&format!(
            "{{\"kind\":\"{kind}\",\"ctx\":\"{}\",\"latency_ns\":{latency_ns},\
             \"threshold_ns\":{threshold_ns},\"quantile\":{},\"t_ns\":{},\"window\":[",
            escape(ctx),
            self.quantile,
            crate::now_ns_u64(),
        ));
        for (i, e) in window.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&event_json(e));
        }
        line.push_str("]}\n");
        let mut sink = self.sink.lock().expect("watchdog sink poisoned");
        let _ = sink.write_all(line.as_bytes());
    }

    /// (flagged latency outliers, corruption reports).
    pub fn counts(&self) -> (u64, u64) {
        (
            self.flagged.load(Ordering::Relaxed),
            self.corrupt.load(Ordering::Relaxed),
        )
    }

    /// Snapshot of everything observed so far.
    pub fn histogram(&self) -> Histogram {
        self.hist.snapshot()
    }

    /// Flush the sink (call once after the sweep quiesces).
    pub fn flush(&self) {
        let _ = self.sink.lock().expect("watchdog sink poisoned").flush();
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn event_json(e: &TraceEvent) -> String {
    format!(
        "{{\"t\":{},\"kind\":\"{:?}\",\"what\":\"{}\",\"id\":{},\"parent\":{},\"arg\":{}}}",
        e.ts_ns,
        e.kind,
        e.what.name(),
        e.id,
        e.parent,
        e.arg
    )
}

/// The process-wide watchdog slot consulted by library code that has
/// no handle to thread (e.g. the sample cache's corruption path).
static GLOBAL: OnceLock<Mutex<Option<Arc<Watchdog>>>> = OnceLock::new();

fn global_slot() -> &'static Mutex<Option<Arc<Watchdog>>> {
    GLOBAL.get_or_init(|| Mutex::new(None))
}

/// Install (or with `None`, clear) the process watchdog.
pub fn install_watchdog(w: Option<Arc<Watchdog>>) {
    *global_slot().lock().expect("watchdog slot poisoned") = w;
}

/// The installed process watchdog, if any.
pub fn installed_watchdog() -> Option<Arc<Watchdog>> {
    global_slot()
        .lock()
        .expect("watchdog slot poisoned")
        .clone()
}

/// Report a cache-corruption anomaly: always marks the flight
/// recorder (when tracing), and dumps through the installed watchdog
/// (when one is live).
pub fn report_corrupt(ctx: &str) {
    instant(SpanKind::CacheCorrupt, 0);
    if let Some(w) = installed_watchdog() {
        w.report_corrupt(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shared Vec<u8> sink we can inspect after the watchdog wrote.
    #[derive(Clone, Default)]
    struct Shared(Arc<Mutex<Vec<u8>>>);

    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn contents(s: &Shared) -> String {
        String::from_utf8(s.0.lock().unwrap().clone()).unwrap()
    }

    #[test]
    fn calm_stream_flags_nothing() {
        let sink = Shared::default();
        let w = Watchdog::new(0.999, Box::new(sink.clone()));
        for _ in 0..2000 {
            w.observe(1000, || unreachable!("ctx must stay lazy"));
        }
        assert_eq!(w.counts(), (0, 0));
        assert!(contents(&sink).is_empty());
        assert_eq!(w.histogram().count, 2000);
    }

    #[test]
    fn outlier_is_flagged_with_context() {
        let sink = Shared::default();
        let w = Watchdog::new(0.99, Box::new(sink.clone()));
        // Calibrate with a tight distribution, then spike.
        for _ in 0..1024 {
            w.observe(1000, String::new);
        }
        w.observe(1_000_000, || "a64fx/cg s3 c17".into());
        let (flagged, corrupt) = w.counts();
        assert_eq!(flagged, 1, "spike must flag");
        assert_eq!(corrupt, 0);
        let out = contents(&sink);
        assert!(out.contains("\"kind\":\"slow_sample\""), "{out}");
        assert!(out.contains("a64fx/cg s3 c17"), "{out}");
        assert!(out.contains("\"latency_ns\":1000000"), "{out}");
        assert!(out.ends_with("}\n"));
    }

    #[test]
    fn no_flags_before_calibration() {
        let sink = Shared::default();
        let w = Watchdog::new(0.99, Box::new(sink.clone()));
        // Huge value first: histogram has no baseline yet.
        w.observe(u64::MAX / 2, || unreachable!("uncalibrated"));
        assert_eq!(w.counts().0, 0);
    }

    #[test]
    fn corrupt_reports_always_dump() {
        let sink = Shared::default();
        let w = Watchdog::new(0.999, Box::new(sink.clone()));
        w.report_corrupt("a64fx/cg-i0-t12.jsonl line 3");
        assert_eq!(w.counts(), (0, 1));
        let out = contents(&sink);
        assert!(out.contains("\"kind\":\"cache_corrupt\""), "{out}");
        assert!(out.contains("cg-i0-t12.jsonl line 3"), "{out}");
    }

    #[test]
    fn global_slot_install_and_clear() {
        let sink = Shared::default();
        let w = Arc::new(Watchdog::new(0.999, Box::new(sink.clone())));
        install_watchdog(Some(w.clone()));
        report_corrupt("global path");
        install_watchdog(None);
        report_corrupt("after clear: dropped");
        assert_eq!(w.counts().1, 1);
        let out = contents(&sink);
        assert!(out.contains("global path"));
        assert!(!out.contains("after clear"));
    }

    #[test]
    fn escape_handles_quotes_and_control() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }
}
