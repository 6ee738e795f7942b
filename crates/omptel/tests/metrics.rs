//! Exposition tests: histogram merge + Prometheus round-trip
//! properties, and a live end-to-end scrape of the monitor server.

use omptel::{
    histogram_from_prometheus, parse_prometheus, Histogram, MetricsSnapshot, Monitor, Summary,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// Merging two histograms and rendering the result to Prometheus
    /// text round-trips the exact bin counts, and the merge is the
    /// bin-wise sum of the parts — the same guarantee the tsdb's
    /// time-series downsampling leans on.
    #[test]
    fn merge_then_render_round_trips_exact_counts(
        a in prop::collection::vec(0u64..u64::MAX / 2, 0..300),
        b in prop::collection::vec(0u64..u64::MAX / 2, 0..300),
    ) {
        let ha = hist_of(&a);
        let hb = hist_of(&b);
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.count, ha.count + hb.count);

        // Render each and reconstruct: bit-exact bin counts all round.
        for (name, h) in [("ha", &ha), ("hb", &hb), ("merged", &merged)] {
            let text = MetricsSnapshot::default()
                .histogram(name, h.clone(), None)
                .render_prometheus();
            let samples = parse_prometheus(&text).unwrap();
            let back = histogram_from_prometheus(&samples, name)
                .expect("rendered histogram must reconstruct");
            prop_assert_eq!(&back, h, "round trip lost bins for {}", name);
        }

        // Reconstructing the parts and merging equals the merged one.
        let rt = |name: &str, h: &Histogram| {
            let text = MetricsSnapshot::default()
                .histogram(name, h.clone(), None)
                .render_prometheus();
            histogram_from_prometheus(&parse_prometheus(&text).unwrap(), name).unwrap()
        };
        let mut remerged = rt("a", &ha);
        remerged.merge(&rt("b", &hb));
        prop_assert_eq!(remerged, merged);
    }

    /// Merged quantile brackets are truthful and bracket both inputs:
    /// each bracket contains the actual order statistic of the combined
    /// raw values, and the merged bracket stays within one bin of the
    /// span of the two inputs' brackets (exact-rank mixture bounds can
    /// shift by a single observation under ceil-rank rounding, which is
    /// at most one log-bin).
    #[test]
    fn merged_quantiles_bracket_both_inputs(
        a in prop::collection::vec(0u64..1_000_000_000, 1..200),
        b in prop::collection::vec(0u64..1_000_000_000, 1..200),
    ) {
        use omptel::hist::{bin_bounds, bin_index};
        let ha = hist_of(&a);
        let hb = hist_of(&b);
        let mut merged = ha.clone();
        merged.merge(&hb);
        let mut all: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            // The bracket contains the rank statistic it claims to
            // bracket (same ceil-rank the implementation uses).
            let rank = ((q * merged.count as f64).ceil() as usize).max(1);
            let v = all[rank - 1];
            let m = merged.quantile(q).unwrap();
            prop_assert!(
                m.lo <= v && v <= m.hi,
                "q{q}: order statistic {v} outside bracket [{}, {}]", m.lo, m.hi
            );
            // Mixture bracketing with one-bin slack on either side.
            let qa = ha.quantile(q).unwrap();
            let qb = hb.quantile(q).unwrap();
            let span_lo = qa.lo.min(qb.lo);
            let span_hi = qa.hi.max(qb.hi);
            let widened_lo = bin_bounds(bin_index(span_lo).saturating_sub(1)).0;
            let widened_hi = bin_bounds(bin_index(span_hi.saturating_sub(1)) + 1).1;
            prop_assert!(
                m.lo >= widened_lo,
                "q{q}: merged lo {} more than a bin below inputs ({span_lo})", m.lo
            );
            prop_assert!(
                m.hi <= widened_hi,
                "q{q}: merged hi {} more than a bin above inputs ({span_hi})", m.hi
            );
        }
        prop_assert_eq!(merged.min, ha.min.min(hb.min));
        prop_assert_eq!(merged.max, ha.max.max(hb.max));
    }

    /// The rendered `le` buckets are strictly increasing in bound and
    /// non-decreasing in cumulative count, ending exactly at the total.
    #[test]
    fn rendered_buckets_stay_cumulative_and_monotone(
        values in prop::collection::vec(0u64..u64::MAX / 2, 0..400),
    ) {
        let h = hist_of(&values);
        let text = MetricsSnapshot::default()
            .histogram("h", h.clone(), None)
            .render_prometheus();
        let samples = parse_prometheus(&text).unwrap();
        let mut last_le = None::<u64>;
        let mut last_cum = 0u64;
        let mut saw_inf = false;
        for s in samples.iter().filter(|s| s.name == "omptel_h_bucket") {
            prop_assert!(!saw_inf, "+Inf must come last");
            match s.label("le").unwrap() {
                "+Inf" => {
                    saw_inf = true;
                    prop_assert_eq!(s.as_u64(), Some(h.count));
                    prop_assert!(s.as_u64().unwrap() >= last_cum);
                }
                le => {
                    let le: u64 = le.parse().unwrap();
                    let cum = s.as_u64().unwrap();
                    if let Some(prev) = last_le {
                        prop_assert!(le > prev, "le bounds not increasing");
                    }
                    prop_assert!(cum >= last_cum, "cumulative count decreased");
                    last_le = Some(le);
                    last_cum = cum;
                }
            }
        }
        prop_assert!(saw_inf, "every histogram carries the +Inf bucket");
    }
}

/// Scrape a live monitor over real TCP: the body parses as Prometheus
/// text and its counter samples agree with the [`Summary`] view of the
/// same registry values.
#[test]
fn live_scrape_parses_and_matches_summary() {
    // A real counter snapshot with known values, as a session produces.
    let mut counters = omptel::CounterSnapshot {
        values: vec![0; omptel::Counter::COUNT],
    };
    counters.values[omptel::Counter::Steals as usize] = 41;
    counters.values[omptel::Counter::BarrierEpisodes as usize] = 7;
    counters.values[omptel::Counter::TraceDropped as usize] = 3;

    let mut lat = Histogram::new();
    let mut lat_sum = 0u64;
    for v in [1_000u64, 2_000, 4_000, 1_000_000, 3] {
        lat.record(v);
        lat_sum += v;
    }

    let counters_for_body = counters.clone();
    let lat_for_body = lat.clone();
    let monitor = Monitor::start(
        "127.0.0.1:0",
        Arc::new(move || {
            MetricsSnapshot {
                counters: counters_for_body.clone(),
                ..MetricsSnapshot::default()
            }
            .histogram("sample_latency_ns", lat_for_body.clone(), Some(lat_sum))
            .render_prometheus()
        }),
    )
    .expect("bind localhost");

    let mut stream = TcpStream::connect(monitor.local_addr()).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    monitor.shutdown();

    let (head, body) = response.split_once("\r\n\r\n").expect("full response");
    assert!(head.contains("200 OK"), "{head}");
    assert!(head.contains("version=0.0.4"), "{head}");

    let samples = parse_prometheus(body).expect("scrape parses");

    // Counter samples match the Summary built from the same snapshot.
    let mut summary = Summary::default();
    summary.add_counters(&counters);
    let sample_of = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from scrape"))
            .as_u64()
            .expect("counters are integral")
    };
    for c in omptel::Counter::ALL {
        assert_eq!(
            sample_of(&format!("omptel_{}_total", c.name())),
            summary.counters.get(c),
            "{} disagrees with Summary",
            c.name()
        );
    }

    // The histogram reconstructs exactly and its _sum is the exact sum.
    let back = histogram_from_prometheus(&samples, "sample_latency_ns").expect("reconstructs");
    assert_eq!(back, lat);
    assert_eq!(sample_of("omptel_sample_latency_ns_sum"), lat_sum);
    assert_eq!(sample_of("omptel_sample_latency_ns_count"), lat.count);
}

proptest! {
    /// Any registered counter set — including the energy counters the
    /// power model feeds — survives a full Prometheus
    /// render -> parse -> rebuild -> render cycle byte-identically.
    /// Scraping the monitor is therefore a lossless transport for the
    /// whole counter registry, not just the handful a dashboard reads.
    #[test]
    fn counter_registry_round_trips_byte_identically(
        values in prop::collection::vec(any::<u64>(), 0..=omptel::Counter::COUNT),
        ring_threads in 0usize..64,
        ring_events in any::<u64>(),
        ring_dropped in any::<u64>(),
        joules in 0.0f64..1e9,
        edp in 0.0f64..1e12,
    ) {
        let snap = MetricsSnapshot {
            counters: omptel::CounterSnapshot { values },
            ring_threads,
            ring_events,
            ring_dropped,
            ..MetricsSnapshot::default()
        }
        .gauge("sweep_energy_joules", joules)
        .gauge("sweep_energy_edp_js", edp);
        let text = snap.render_prometheus();

        // The energy counters are part of the registry rendering.
        for name in ["energy_samples", "energy_uj", "energy_wait_uj"] {
            prop_assert!(
                text.contains(&format!("omptel_{name}_total ")),
                "{name} missing from exposition"
            );
        }

        // Rebuild a snapshot purely from the parsed scrape.
        let samples = parse_prometheus(&text).unwrap();
        let exact = |n: &str| {
            samples
                .iter()
                .find(|s| s.name == n)
                .and_then(|s| s.as_u64())
                .expect("integral sample present")
        };
        let rebuilt_counters: Vec<u64> = omptel::Counter::ALL
            .iter()
            .map(|c| exact(&format!("omptel_{}_total", c.name())))
            .collect();
        let rebuilt = MetricsSnapshot {
            counters: omptel::CounterSnapshot { values: rebuilt_counters },
            ring_threads: exact("omptel_ring_threads") as usize,
            ring_events: exact("omptel_ring_events"),
            ring_dropped: exact("omptel_ring_dropped_total"),
            ..MetricsSnapshot::default()
        }
        .gauge(
            "sweep_energy_joules",
            samples.iter().find(|s| s.name == "omptel_sweep_energy_joules").unwrap().value,
        )
        .gauge(
            "sweep_energy_edp_js",
            samples.iter().find(|s| s.name == "omptel_sweep_energy_edp_js").unwrap().value,
        );
        prop_assert_eq!(rebuilt.render_prometheus(), text);
    }
}

/// A joules series that outgrows its ring file wraps like any other:
/// exactly the newest `capacity` points survive, the wrapped count is
/// truthful, and every surviving sum is the bit pattern that was
/// appended — energy histories degrade by forgetting the oldest
/// samples, never by corrupting the retained ones.
#[test]
fn joules_series_ring_wrap_keeps_newest_points_bit_exact() {
    let dir = std::env::temp_dir().join(format!("omptel-tsdb-wrap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let capacity = 32u64;
    let total = 100u64;
    let mut db = omptel::Tsdb::open(&dir, capacity).expect("open tsdb");
    let joules_at = |i: u64| 0.001 * i as f64 + 1e-7; // deliberately inexact in binary
    for i in 0..total {
        db.append("milan/energy/s0", omptel::Point::single(i, joules_at(i)))
            .expect("append");
    }
    db.flush().expect("flush");
    let (points, wrapped) =
        omptel::Tsdb::read(&dir, "milan/energy/s0").expect("read joules series");
    assert_eq!(points.len(), capacity as usize);
    assert_eq!(wrapped, total - capacity);
    for (k, p) in points.iter().enumerate() {
        let i = total - capacity + k as u64;
        assert_eq!(p.ts, i, "ring order broken at {k}");
        assert_eq!(p.count, 1);
        assert_eq!(
            p.sum.to_bits(),
            joules_at(i).to_bits(),
            "joule bit pattern corrupted at ts {i}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
