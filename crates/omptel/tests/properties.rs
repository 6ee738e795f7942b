//! Property-based tests of the telemetry aggregation and exporters.

use omptel::schema::{Breakdown, CounterSnapshot, Record, RegionKind, RegionProfile};
use omptel::summary::Summary;
use proptest::prelude::*;

/// Build a profile from raw generator numbers.
fn profile(seed: (u64, u64, u64, u64)) -> RegionProfile {
    let (a, b, c, d) = seed;
    let kind = match a % 3 {
        0 => RegionKind::Loop,
        1 => RegionKind::Tasks,
        _ => RegionKind::Parallel,
    };
    let compute = (b % 1_000_000) as f64;
    let imbalance = (c % 1_000_000) as f64;
    let sync = (d % 10_000) as f64;
    RegionProfile {
        name: format!("r{}", a % 7),
        kind,
        begin_ns: a as f64,
        total_ns: compute + imbalance + sync,
        breakdown: Breakdown {
            compute_ns: compute,
            imbalance_ns: imbalance,
            sync_ns: sync,
            ..Breakdown::default()
        },
        threads: Vec::new(),
    }
}

fn summary_of(seeds: &[(u64, u64, u64, u64)], counter_base: u64) -> Summary {
    let mut s = Summary::default();
    for &seed in seeds {
        s.add_profile(&profile(seed));
    }
    s.add_counters(&CounterSnapshot {
        values: vec![counter_base, counter_base % 17, counter_base % 3],
    });
    s
}

proptest! {
    /// `Summary::merge` is associative: (a⊕b)⊕c == a⊕(b⊕c), exactly.
    #[test]
    fn merge_is_associative(
        xs in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..8),
        ys in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..8),
        zs in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..8),
        ca in 0u64..1000, cb in 0u64..1000, cc in 0u64..1000,
    ) {
        let a = summary_of(&xs, ca);
        let b = summary_of(&ys, cb);
        let c = summary_of(&zs, cc);
        prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
    }

    /// `Summary::merge` is commutative: a⊕b == b⊕a, exactly.
    #[test]
    fn merge_is_commutative(
        xs in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..10),
        ys in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..10),
        ca in 0u64..1000, cb in 0u64..1000,
    ) {
        let a = summary_of(&xs, ca);
        let b = summary_of(&ys, cb);
        prop_assert_eq!(a.merge(&b), b.merge(&a));
    }

    /// The identity element: merging with a default summary is a no-op.
    #[test]
    fn merge_identity(
        xs in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..10),
        ca in 0u64..1000,
    ) {
        let a = summary_of(&xs, ca);
        prop_assert_eq!(a.merge(&Summary::default()), a.clone());
        prop_assert_eq!(Summary::default().merge(&a), a);
    }

    /// The Chrome exporter always yields valid JSON whose every event is
    /// a complete (X) or metadata (M) event.
    #[test]
    fn chrome_trace_is_always_valid(
        xs in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..10),
    ) {
        let records: Vec<Record> = xs.iter().map(|&s| Record::Region(profile(s))).collect();
        let json = omptel::chrome_trace_json(&records);
        let doc: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let map = doc.as_map().expect("object");
        let events = map[0].1.as_seq().expect("traceEvents");
        for e in events {
            let e = e.as_map().expect("event object");
            let ph = e
                .iter()
                .find(|(k, _)| k.as_str() == Some("ph"))
                .and_then(|(_, v)| v.as_str())
                .expect("ph");
            prop_assert!(ph == "X" || ph == "M");
        }
        // One X event per region (no thread profiles generated here).
        let n_x = events
            .iter()
            .filter(|e| {
                e.as_map()
                    .and_then(|m| m.iter().find(|(k, _)| k.as_str() == Some("ph")).map(|(_, v)| v.as_str() == Some("X")))
                    .unwrap_or(false)
            })
            .count();
        prop_assert_eq!(n_x, records.len());
    }
}
