//! Metrics exposition: one unified snapshot of the telemetry
//! registry, rendered in Prometheus text format v0.0.4.
//!
//! [`MetricsSnapshot`] gathers everything a scraper wants from a live
//! process into one schema: the counter registry ([`Counter`] slots),
//! flight-recorder ring occupancy and drop counts (the silent-loss
//! signal), caller-supplied gauges (sweep progress), and any number of
//! named log-bucketed latency [`Histogram`]s.
//!
//! The Prometheus rendering is **lossless for histograms**: every
//! non-empty bin is emitted as a cumulative `_bucket{le="..."}` sample
//! whose bound is the bin's inclusive upper value, and the observed
//! min/max are emitted alongside — so [`histogram_from_prometheus`]
//! reconstructs the exact [`Histogram`] (bit-for-bit bin counts) from
//! scraped text. The property tests pin this round trip, and the
//! monotone/cumulative bucket invariants, against arbitrary inputs.

use crate::hist::{bin_bounds, bin_index, Histogram};
use crate::schema::{Counter, CounterSnapshot};

/// One named histogram inside a snapshot. `sum_ns` is the exact sum of
/// observations when the producer tracked it (the bins alone only bound
/// it); `None` falls back to the bin-midpoint estimate in `_sum`.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramMetric {
    /// Metric base name, e.g. `"sample_latency_ns"` (prefixed with
    /// `omptel_` in the exposition).
    pub name: String,
    pub hist: Histogram,
    pub sum_ns: Option<u64>,
}

/// Everything one scrape sees, in one schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Live counter registry values (all zero outside a session).
    pub counters: CounterSnapshot,
    /// Point-in-time gauges, e.g. sweep progress.
    pub gauges: Vec<(String, f64)>,
    /// Named latency distributions.
    pub histograms: Vec<HistogramMetric>,
    /// Flight-recorder rings registered in the live recording.
    pub ring_threads: usize,
    /// Events currently retained across all rings.
    pub ring_events: u64,
    /// Events lost to ring wrap so far (live view of the per-thread
    /// drop counts [`crate::Recorder::finish`] harvests).
    pub ring_dropped: u64,
}

impl MetricsSnapshot {
    /// Capture the process-global state: counter registry plus live
    /// flight-recorder ring stats. Gauges and histograms are the
    /// caller's to attach.
    pub fn capture() -> MetricsSnapshot {
        let (ring_threads, ring_events, ring_dropped) = crate::ring::live_ring_stats();
        MetricsSnapshot {
            counters: crate::counters_now(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            ring_threads,
            ring_events,
            ring_dropped,
        }
    }

    /// Attach a gauge.
    pub fn gauge(mut self, name: &str, value: f64) -> MetricsSnapshot {
        self.gauges.push((name.to_string(), value));
        self
    }

    /// Attach a named histogram.
    pub fn histogram(
        mut self,
        name: &str,
        hist: Histogram,
        sum_ns: Option<u64>,
    ) -> MetricsSnapshot {
        self.histograms.push(HistogramMetric {
            name: name.to_string(),
            hist,
            sum_ns,
        });
        self
    }

    /// Render in Prometheus text exposition format v0.0.4.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        for c in Counter::ALL {
            let name = c.name();
            out.push_str(&format!(
                "# TYPE omptel_{name}_total counter\nomptel_{name}_total {}\n",
                self.counters.get(c)
            ));
        }
        out.push_str(&format!(
            "# TYPE omptel_ring_threads gauge\nomptel_ring_threads {}\n\
             # TYPE omptel_ring_events gauge\nomptel_ring_events {}\n\
             # TYPE omptel_ring_dropped_total counter\nomptel_ring_dropped_total {}\n",
            self.ring_threads, self.ring_events, self.ring_dropped
        ));
        for (name, value) in &self.gauges {
            out.push_str(&format!(
                "# TYPE omptel_{name} gauge\nomptel_{name} {}\n",
                fmt_f64(*value)
            ));
        }
        for h in &self.histograms {
            render_histogram(&mut out, &h.name, &h.hist, h.sum_ns);
        }
        out
    }
}

/// Format a float the way Prometheus expects (no trailing `.0` loss —
/// integers stay exact, everything else uses shortest-repr `{}`).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Emit one histogram in exposition format. Bucket bounds are the bin's
/// *inclusive* upper value (`hi - 1` of the `[lo, hi)` bin), so
/// `le`-semantics match the bin exactly and the rendering is lossless;
/// min/max gauges make the reconstruction byte-faithful.
fn render_histogram(out: &mut String, name: &str, hist: &Histogram, sum_ns: Option<u64>) {
    out.push_str(&format!("# TYPE omptel_{name} histogram\n"));
    let mut cumulative = 0u64;
    for (bin, &count) in hist.counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        cumulative += count;
        let (_, hi) = bin_bounds(bin);
        out.push_str(&format!(
            "omptel_{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            hi - 1
        ));
    }
    let sum = sum_ns.unwrap_or_else(|| (hist.mean_estimate() * hist.count as f64).round() as u64);
    out.push_str(&format!(
        "omptel_{name}_bucket{{le=\"+Inf\"}} {}\nomptel_{name}_sum {sum}\nomptel_{name}_count {}\n",
        hist.count, hist.count
    ));
    if !hist.is_empty() {
        out.push_str(&format!(
            "# TYPE omptel_{name}_min gauge\nomptel_{name}_min {}\n\
             # TYPE omptel_{name}_max gauge\nomptel_{name}_max {}\n",
            hist.min, hist.max
        ));
    }
}

/// One parsed exposition sample.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    pub name: String,
    pub labels: Vec<(String, String)>,
    /// Numeric value (f64, as Prometheus defines samples).
    pub value: f64,
    /// The raw value text, for exact u64 reconstruction.
    pub raw: String,
}

impl PromSample {
    /// The sample's value as an exact u64 when its text is integral.
    pub fn as_u64(&self) -> Option<u64> {
        self.raw.parse::<u64>().ok()
    }

    /// First value of the named label.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Parse Prometheus text format v0.0.4 (the subset this crate renders:
/// `# ...` comments, `name{labels} value` samples, no timestamps).
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line}", lineno + 1);
        let (head, value_text) = line
            .rsplit_once(|c: char| c.is_whitespace())
            .ok_or_else(|| err("no value"))?;
        let head = head.trim();
        let (name, labels) = match head.split_once('{') {
            None => (head.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated label set"))?;
                let mut labels = Vec::new();
                for pair in body.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair.split_once('=').ok_or_else(|| err("bad label pair"))?;
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| err("unquoted label value"))?;
                    labels.push((k.trim().to_string(), v.to_string()));
                }
                (name.to_string(), labels)
            }
        };
        let value = match value_text {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v.parse::<f64>().map_err(|_| err("bad value"))?,
        };
        out.push(PromSample {
            name,
            labels,
            value,
            raw: value_text.to_string(),
        });
    }
    Ok(out)
}

/// Reconstruct the exact [`Histogram`] named `name` (without the
/// `omptel_` prefix) from parsed samples: cumulative buckets are
/// differenced back into bin counts via [`bin_index`] of each inclusive
/// bound, min/max come from their gauges. `None` when the metric is
/// absent or malformed.
pub fn histogram_from_prometheus(samples: &[PromSample], name: &str) -> Option<Histogram> {
    let bucket = format!("omptel_{name}_bucket");
    let mut bounds: Vec<(u64, u64)> = Vec::new(); // (inclusive bound, cumulative)
    let mut total = None;
    for s in samples {
        if s.name != bucket {
            continue;
        }
        match s.label("le")? {
            "+Inf" => total = Some(s.as_u64()?),
            le => bounds.push((le.parse().ok()?, s.as_u64()?)),
        }
    }
    let total = total?;
    bounds.sort_unstable();
    let mut h = Histogram::new();
    let mut prev = 0u64;
    for (le, cumulative) in bounds {
        let count = cumulative.checked_sub(prev)?;
        prev = cumulative;
        let bin = bin_index(le);
        if h.counts.len() <= bin {
            h.counts.resize(bin + 1, 0);
        }
        h.counts[bin] += count;
        h.count += count;
    }
    if h.count != total {
        return None;
    }
    let gauge = |suffix: &str| {
        samples
            .iter()
            .find(|s| s.name == format!("omptel_{name}_{suffix}"))
            .and_then(PromSample::as_u64)
    };
    h.min = gauge("min").unwrap_or(u64::MAX);
    h.max = gauge("max").unwrap_or(0);
    Some(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_and_parse() {
        let snap = MetricsSnapshot {
            counters: CounterSnapshot {
                values: vec![3, 7, 0, 2],
            },
            ring_threads: 2,
            ring_events: 100,
            ring_dropped: 5,
            ..MetricsSnapshot::default()
        }
        .gauge("sweep_done", 41.5);
        let text = snap.render_prometheus();
        let samples = parse_prometheus(&text).unwrap();
        let get = |n: &str| samples.iter().find(|s| s.name == n).unwrap().value;
        assert_eq!(get("omptel_regions_total"), 3.0);
        assert_eq!(get("omptel_steals_total"), 7.0);
        assert_eq!(get("omptel_tasks_spawned_total"), 2.0);
        assert_eq!(get("omptel_trace_dropped_total"), 0.0);
        assert_eq!(get("omptel_ring_dropped_total"), 5.0);
        assert_eq!(get("omptel_sweep_done"), 41.5);
        // Every registry counter appears, even when zero.
        for c in Counter::ALL {
            assert!(
                text.contains(&format!("omptel_{}_total ", c.name())),
                "{} missing",
                c.name()
            );
        }
    }

    #[test]
    fn histogram_round_trips_exactly() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 15, 16, 17, 900, 900, 1 << 20, u64::MAX / 3] {
            h.record(v);
        }
        let text = MetricsSnapshot::default()
            .histogram("lat_ns", h.clone(), Some(12345))
            .render_prometheus();
        let samples = parse_prometheus(&text).unwrap();
        let back = histogram_from_prometheus(&samples, "lat_ns").unwrap();
        assert_eq!(back, h);
        let sum = samples
            .iter()
            .find(|s| s.name == "omptel_lat_ns_sum")
            .unwrap();
        assert_eq!(sum.as_u64(), Some(12345));
    }

    #[test]
    fn rendered_buckets_are_cumulative_and_monotone() {
        let mut h = Histogram::new();
        for v in 0..5000u64 {
            h.record(v * 37);
        }
        let text = MetricsSnapshot::default()
            .histogram("x", h, None)
            .render_prometheus();
        let samples = parse_prometheus(&text).unwrap();
        let mut last_le = 0u64;
        let mut last_cum = 0u64;
        let mut buckets = 0;
        for s in samples.iter().filter(|s| s.name == "omptel_x_bucket") {
            buckets += 1;
            if s.label("le") == Some("+Inf") {
                assert_eq!(s.as_u64(), Some(5000));
                continue;
            }
            let le: u64 = s.label("le").unwrap().parse().unwrap();
            let cum = s.as_u64().unwrap();
            assert!(le > last_le || last_cum == 0, "le not increasing");
            assert!(cum >= last_cum, "cumulative count decreased");
            last_le = le;
            last_cum = cum;
        }
        assert!(buckets > 10);
        assert_eq!(last_cum, 5000);
    }

    #[test]
    fn empty_histogram_renders_inf_bucket_only() {
        let text = MetricsSnapshot::default()
            .histogram("empty", Histogram::new(), None)
            .render_prometheus();
        assert!(text.contains("omptel_empty_bucket{le=\"+Inf\"} 0"));
        assert!(!text.contains("omptel_empty_min"));
        let samples = parse_prometheus(&text).unwrap();
        let back = histogram_from_prometheus(&samples, "empty").unwrap();
        assert!(back.is_empty());
    }

    /// What the registry's readers owe any line, the exposition readers
    /// owe any text: every prefix, 9 mutations of every byte and 4,000
    /// arbitrary inputs (raw bytes in turn with strings over the bytes
    /// the format is made of) parse to samples or an error, and the
    /// samples rebuild a histogram or `None`. A panic fails the test.
    #[test]
    fn hostile_text_is_samples_or_an_error_and_never_a_panic() {
        let mut h = Histogram::new();
        for v in [0u64, 3, 17, 900, 900, 1 << 20] {
            h.record(v);
        }
        let text = MetricsSnapshot::default()
            .gauge("sweep_done", 0.5)
            .histogram("lat_ns", h.clone(), Some(4321))
            .render_prometheus();
        let survives = |bytes: &[u8]| {
            if let Ok(samples) = parse_prometheus(&String::from_utf8_lossy(bytes)) {
                for name in ["lat_ns", "sweep_done", ""] {
                    let _ = histogram_from_prometheus(&samples, name);
                }
            }
        };
        let samples = parse_prometheus(&text).unwrap();
        assert_eq!(histogram_from_prometheus(&samples, "lat_ns"), Some(h));

        let bytes = text.as_bytes();
        let mut mutated = bytes.to_vec();
        for at in 0..bytes.len() {
            survives(&bytes[..at]);
            for with in b"0\"{}= \n\xff".iter().copied().chain([bytes[at] ^ 1]) {
                mutated[at] = with;
                survives(&mutated);
            }
            mutated[at] = bytes[at];
        }
        let alphabet = b"{}=\",# \n0123456789.-+eInfNa le omptel_lat_ns_bucket";
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for round in 0..4000 {
            let pick = |n: usize| [n as u8, alphabet[n % alphabet.len()]][round % 2];
            let junk: Vec<u8> = (0..next() % 96).map(|_| pick(next())).collect();
            survives(&junk);
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("name_only").is_err());
        assert!(parse_prometheus("x{le=\"3\" 4").is_err());
        assert!(parse_prometheus("x notanumber").is_err());
        assert!(parse_prometheus("# a comment\n\n").unwrap().is_empty());
    }
}
