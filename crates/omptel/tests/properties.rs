//! Property-based tests of the telemetry aggregation.

use omptel::schema::{Breakdown, CounterSnapshot};
use omptel::summary::Summary;
use proptest::prelude::*;

/// Fold one closed run breakdown built from raw generator numbers.
fn add_run(s: &mut Summary, seed: (u64, u64, u64, u64)) {
    let (a, b, c, d) = seed;
    let compute = (b % 1_000_000) as f64;
    let imbalance = (c % 1_000_000) as f64;
    let sync = (d % 10_000) as f64;
    let bd = Breakdown {
        compute_ns: compute,
        imbalance_ns: imbalance,
        sync_ns: sync,
        ..Breakdown::default()
    };
    s.add_aggregate(compute + imbalance + sync, &bd, a % 7);
}

fn summary_of(seeds: &[(u64, u64, u64, u64)], counter_base: u64) -> Summary {
    let mut s = Summary::default();
    for &seed in seeds {
        add_run(&mut s, seed);
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
}
