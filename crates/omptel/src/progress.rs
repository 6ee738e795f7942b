//! A rate/ETA progress meter for long sweeps.
//!
//! Thread-safe: any number of workers call [`Progress::inc`]; rendering
//! is throttled and serialized so lines never interleave (the
//! `sweep::collect` bug this replaces). The sink is pluggable so tests
//! can capture output instead of writing to stderr.
//!
//! The ETA is computed from the completion **rate over a sliding
//! window**, not from the cumulative average, and the reported value is
//! clamped non-increasing. Under a work-stealing scheduler completions
//! arrive out of order and in bursts (a worker drains a stolen chunk,
//! then a warm cache floods hundreds of units at once); a cumulative
//! rate makes the ETA bounce upward whenever a slow cold stretch follows
//! a warm burst. The window tracks the current regime and the clamp
//! keeps the display monotone.
//!
//! Until the window is **primed** (two observations separated by real
//! time) no rate is defined, so the meter shows `--:--` instead of the
//! first tick's extrapolation — one unit finishing in 3 ms must not
//! project "40 minutes left" onto a sweep whose steady rate is unknown.
//! The monotone clamp starts only once primed; a garbage first estimate
//! must not become the ceiling for every later value.

use crate::hist::{AtomicHistogram, Histogram};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sliding-window rate state: recent `(elapsed_ms, done)` observations.
struct EtaState {
    samples: VecDeque<(u64, u64)>,
    /// Last ETA (seconds) shown; the reported value never exceeds it.
    last_eta_s: f64,
}

/// Maximum observations kept in the sliding window.
const WINDOW_SAMPLES: usize = 32;
/// Observations older than this fall out of the window.
const WINDOW_MS: u64 = 10_000;

enum Sink {
    /// `\r`-refreshed stderr line.
    Stderr,
    /// Captured lines, for tests and quiet runs.
    Buffer(Vec<String>),
    /// Swallow everything.
    Null,
}

/// Shared progress state for one labelled phase of work.
pub struct Progress {
    label: String,
    total: u64,
    done: AtomicU64,
    started: Instant,
    /// Millisecond timestamp (since `started`) of the last render.
    last_render_ms: AtomicU64,
    eta: Mutex<EtaState>,
    sink: Mutex<Sink>,
    /// Per-item latency distribution (log-bucketed, exact counts);
    /// fed by workers via [`Progress::observe_ns`], summarized with
    /// bounded quantiles in [`Progress::finish`].
    lat: AtomicHistogram,
    /// Exact sum of observed latencies, for `_sum` in the Prometheus
    /// exposition (the histogram alone only bounds it).
    lat_sum: AtomicU64,
}

/// Minimum milliseconds between renders.
const THROTTLE_MS: u64 = 100;

impl Progress {
    fn new(label: &str, total: u64, sink: Sink) -> Progress {
        Progress {
            label: label.to_string(),
            total,
            done: AtomicU64::new(0),
            started: Instant::now(),
            last_render_ms: AtomicU64::new(0),
            eta: Mutex::new(EtaState {
                samples: VecDeque::with_capacity(WINDOW_SAMPLES + 1),
                last_eta_s: f64::INFINITY,
            }),
            sink: Mutex::new(sink),
            lat: AtomicHistogram::new(),
            lat_sum: AtomicU64::new(0),
        }
    }

    /// Meter that refreshes a single stderr line.
    pub fn stderr(label: &str, total: u64) -> Progress {
        Progress::new(label, total, Sink::Stderr)
    }

    /// Meter that captures rendered lines in memory.
    pub fn buffered(label: &str, total: u64) -> Progress {
        Progress::new(label, total, Sink::Buffer(Vec::new()))
    }

    /// Meter that renders nothing (still tracks counts and elapsed).
    pub fn quiet(label: &str, total: u64) -> Progress {
        Progress::new(label, total, Sink::Null)
    }

    /// Record `n` finished work items; renders at most every
    /// [`THROTTLE_MS`] (always on completion).
    pub fn inc(&self, n: u64) {
        let done = self.done.fetch_add(n, Ordering::Relaxed) + n;
        let now_ms = self.started.elapsed().as_millis() as u64;
        let last = self.last_render_ms.load(Ordering::Relaxed);
        let due = done >= self.total || now_ms.saturating_sub(last) >= THROTTLE_MS;
        if !due {
            return;
        }
        // One renderer at a time; losers of the race skip (their update
        // is covered by the winner's line).
        if self
            .last_render_ms
            .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.emit(self.render(done), false);
    }

    /// Completed count so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Seconds since the meter was created.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Completion rate (items/s) over the sliding window, falling back
    /// to the cumulative rate while the window is still filling. Also
    /// records the `(now_ms, done)` observation. The second value is
    /// whether the window is **primed** — it holds two observations
    /// separated by real time, so the rate is a measurement rather than
    /// a first-tick extrapolation.
    fn window_rate(&self, done: u64, now_ms: u64, elapsed_s: f64) -> (f64, bool) {
        let mut eta = self.eta.lock().expect("progress eta poisoned");
        // Drop observations that fell out of the window.
        while eta.samples.len() >= WINDOW_SAMPLES
            || eta
                .samples
                .front()
                .is_some_and(|&(t, _)| now_ms.saturating_sub(t) > WINDOW_MS)
        {
            eta.samples.pop_front();
        }
        eta.samples.push_back((now_ms, done));
        let cumulative = if elapsed_s > 0.0 {
            done as f64 / elapsed_s
        } else {
            0.0
        };
        match eta.samples.front() {
            // A window needs a time delta to define a rate; until then
            // (or when all observations land in one millisecond) the
            // cumulative average stands in, unprimed.
            Some(&(t0, d0)) if now_ms > t0 && done > d0 => {
                ((done - d0) as f64 / ((now_ms - t0) as f64 / 1000.0), true)
            }
            _ => (cumulative, false),
        }
    }

    /// ETA in seconds from the window rate, clamped non-increasing so
    /// out-of-order completion bursts never make the display jump up.
    /// `None` until the window is primed: an unprimed estimate is noise,
    /// and folding it into the clamp would cap every later honest value.
    fn monotone_eta(&self, remaining: u64, rate: f64, primed: bool) -> Option<f64> {
        let mut eta = self.eta.lock().expect("progress eta poisoned");
        if remaining == 0 {
            eta.last_eta_s = 0.0;
            return Some(0.0);
        }
        if !primed {
            return None;
        }
        let raw = if rate > 0.0 {
            remaining as f64 / rate
        } else {
            f64::INFINITY
        };
        let shown = raw.min(eta.last_eta_s);
        eta.last_eta_s = shown;
        Some(shown)
    }

    fn render(&self, done: u64) -> String {
        let elapsed = self.elapsed_s();
        let now_ms = self.started.elapsed().as_millis() as u64;
        let (rate, primed) = self.window_rate(done, now_ms, elapsed);
        let remaining = self.total.saturating_sub(done);
        let eta = self.monotone_eta(remaining, rate, primed);
        let pct = if self.total > 0 {
            100.0 * done as f64 / self.total as f64
        } else {
            // Zero planned units: done/total is undefined, render 100 %
            // (nothing left) rather than dividing by zero.
            100.0
        };
        let eta_text = match eta {
            Some(e) if e.is_finite() => format!("{e:.0}s"),
            _ => "--:--".to_string(),
        };
        format!(
            "{}: {}/{} ({:.0}%) {:.1}/s eta {}",
            self.label, done, self.total, pct, rate, eta_text
        )
    }

    fn emit(&self, line: String, terminal: bool) {
        let mut sink = self.sink.lock().expect("progress sink poisoned");
        match &mut *sink {
            Sink::Stderr => {
                if terminal {
                    eprintln!("\r{line}");
                } else {
                    eprint!("\r{line}");
                }
            }
            Sink::Buffer(lines) => lines.push(line),
            Sink::Null => {}
        }
    }

    /// Record one finished item's latency. Lock-free; call from any
    /// worker alongside [`Progress::inc`].
    pub fn observe_ns(&self, ns: u64) {
        self.lat.record(ns);
        self.lat_sum.fetch_add(ns, Ordering::Relaxed);
    }

    /// Snapshot of the per-item latency distribution observed so far.
    pub fn latency_histogram(&self) -> Histogram {
        self.lat.snapshot()
    }

    /// Exact sum of all latencies fed to [`Progress::observe_ns`].
    pub fn latency_sum_ns(&self) -> u64 {
        self.lat_sum.load(Ordering::Relaxed)
    }

    /// Emit the final newline-terminated summary line and return it.
    /// When workers fed [`Progress::observe_ns`], the line carries
    /// bounded p50/p95/p99 latency quantiles instead of only the
    /// throughput average, which hides the slow tail.
    pub fn finish(&self) -> String {
        let done = self.done();
        let elapsed = self.elapsed_s();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let mut line = format!(
            "{}: {} done in {:.2}s ({:.1}/s)",
            self.label, done, elapsed, rate
        );
        let lat = self.lat.snapshot();
        if !lat.is_empty() {
            let q = |b: Option<crate::hist::QuantileBound>| {
                b.map(|b| fmt_ns(b.mid() as f64)).unwrap_or_default()
            };
            line.push_str(&format!(
                " lat p50 {} p95 {} p99 {}",
                q(lat.p50()),
                q(lat.p95()),
                q(lat.p99())
            ));
        }
        self.emit(line.clone(), true);
        line
    }

    /// Captured lines, when the sink is a buffer.
    pub fn buffered_lines(&self) -> Option<Vec<String>> {
        match &*self.sink.lock().expect("progress sink poisoned") {
            Sink::Buffer(lines) => Some(lines.clone()),
            _ => None,
        }
    }
}

/// Two decimals of the largest unit of `s`, `ms` and `µs` that `ns`
/// reaches, whole nanoseconds below one microsecond.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_finishes() {
        let p = Progress::buffered("phase", 10);
        for _ in 0..10 {
            p.inc(1);
        }
        assert_eq!(p.done(), 10);
        let line = p.finish();
        assert!(line.contains("phase: 10 done"), "{line}");
        let lines = p.buffered_lines().unwrap();
        // Completion always renders: at least the 100 % line + summary.
        assert!(lines.len() >= 2, "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("(100%)")), "{lines:?}");
    }

    #[test]
    fn renders_rate_and_eta_fields() {
        let p = Progress::buffered("x", 4);
        p.inc(4);
        let lines = p.buffered_lines().unwrap();
        let line = lines.last().unwrap();
        assert!(line.contains("/s"), "{line}");
        assert!(line.contains("eta"), "{line}");
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let p = std::sync::Arc::new(Progress::buffered("par", 4000));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = std::sync::Arc::clone(&p);
                s.spawn(move || {
                    for _ in 0..1000 {
                        p.inc(1);
                    }
                });
            }
        });
        assert_eq!(p.done(), 4000);
    }

    #[test]
    fn eta_is_monotone_under_bursty_completion() {
        // A work-stealing sweep completes units out of order: a warm
        // burst (cache hits) followed by a cold stretch. The reported
        // ETA must never jump upward across renders.
        let p = Progress::buffered("steal", 1000);
        let mut done = 0u64;
        let mut now_ms = 0u64;
        let mut last_eta = f64::INFINITY;
        // (units completed, ms elapsed) per tick: bursts then stalls.
        let pattern = [
            (200, 100),
            (300, 100), // warm burst: 500 units in 0.2s
            (5, 400),
            (5, 400), // cold stretch: rate collapses
            (400, 100),
            (90, 100),
        ];
        for (n, dt) in pattern {
            done += n;
            now_ms += dt;
            let (rate, primed) = p.window_rate(done, now_ms, now_ms as f64 / 1000.0);
            let Some(eta) = p.monotone_eta(p.total - done, rate, primed) else {
                continue; // unprimed ticks show --:-- and set no ceiling
            };
            assert!(
                eta <= last_eta,
                "eta rose from {last_eta} to {eta} at done={done}"
            );
            last_eta = eta;
        }
        assert_eq!(done, 1000);
        assert!(last_eta.is_finite(), "window primed during the pattern");
        assert_eq!(p.monotone_eta(0, 0.0, false), Some(0.0));
    }

    #[test]
    fn eta_shows_placeholder_until_window_primed() {
        // One observation (or two in the same millisecond) defines no
        // rate: the ETA must be withheld, not extrapolated, and the
        // unprimed estimate must not cap later honest values.
        let p = Progress::buffered("prime", 1000);
        let (_, primed) = p.window_rate(1, 0, 0.0);
        assert!(!primed, "single observation cannot prime the window");
        assert_eq!(p.monotone_eta(999, 333.3, primed), None);
        // Second observation, same millisecond: still unprimed.
        let (_, primed) = p.window_rate(2, 0, 0.0);
        assert!(!primed);
        // Real time passes: primed, and the ETA reflects the measured
        // rate rather than any earlier extrapolation.
        let (rate, primed) = p.window_rate(100, 1_000, 1.0);
        assert!(primed);
        let eta = p.monotone_eta(900, rate, primed).expect("primed");
        assert!((eta - 900.0 / rate).abs() < 1e-9, "eta {eta} rate {rate}");
    }

    #[test]
    fn first_render_and_zero_total_never_show_bogus_eta() {
        let p = Progress::buffered("cold", 50);
        // Past the render throttle but still the window's first
        // observation: the line must carry the placeholder.
        std::thread::sleep(std::time::Duration::from_millis(THROTTLE_MS + 20));
        p.inc(1);
        let lines = p.buffered_lines().unwrap();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("eta --:--"), "{lines:?}");
        // total == 0: nothing to do, nothing to divide by.
        let p = Progress::buffered("empty", 0);
        p.inc(0);
        let lines = p.buffered_lines().unwrap();
        let line = lines.last().expect("rendered");
        assert!(line.contains("(100%)"), "{line}");
        assert!(line.contains("eta 0s"), "{line}");
    }

    #[test]
    fn window_rate_tracks_recent_regime_not_cumulative() {
        let p = Progress::buffered("window", 100_000);
        // Slow start: 10 units over 200 seconds; each observation is 20s
        // apart, so earlier ones age out of the 10s window.
        let mut done = 0u64;
        for i in 1..=10u64 {
            done = i;
            p.window_rate(done, i * 20_000, (i * 20) as f64);
        }
        // Fast regime: 10k units over the next second.
        for i in 1..=10u64 {
            let (rate, _) =
                p.window_rate(done + i * 1_000, 200_000 + i * 100, 200.0 + i as f64 * 0.1);
            if i == 10 {
                let cumulative = (done + 10_000) as f64 / 201.0;
                assert!(
                    rate > 5.0 * cumulative,
                    "window rate {rate} should leave cumulative {cumulative} behind"
                );
            }
        }
    }

    #[test]
    fn quiet_sink_tracks_without_output() {
        let p = Progress::quiet("q", 2);
        p.inc(2);
        assert_eq!(p.done(), 2);
        assert!(p.buffered_lines().is_none());
        assert!(p.finish().contains("q: 2 done"));
    }

    #[test]
    fn finish_reports_latency_quantiles_when_observed() {
        let p = Progress::buffered("lat", 100);
        // No observations: no quantile text.
        assert!(!p.finish().contains("p95"));
        for i in 1..=100u64 {
            p.inc(1);
            p.observe_ns(i * 1_000);
        }
        let line = p.finish();
        assert!(line.contains("lat p50"), "{line}");
        assert!(line.contains("p95"), "{line}");
        assert!(line.contains("p99"), "{line}");
        let h = p.latency_histogram();
        assert_eq!(h.count, 100);
        let p50 = h.p50().unwrap();
        assert!(p50.lo <= 50_000 && 50_000 < p50.hi, "{p50:?}");
    }
}
