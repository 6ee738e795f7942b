//! Aggregation: fold any number of closed run breakdowns and counter
//! snapshots into a [`Summary`] that merges associatively.
//!
//! All accumulated nanosecond quantities are stored as **integers**
//! (rounded once, at ingestion), so [`Summary::merge`] is *exactly*
//! associative and commutative — a requirement for parallel sweeps that
//! fold partial summaries in nondeterministic order. Floating-point
//! addition would not be.

use crate::schema::{Breakdown, CounterSnapshot, Sink};
use serde::{Deserialize, Serialize};

/// Mergeable aggregate over run breakdowns and counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Summary {
    /// Regions folded in.
    pub regions: u64,
    /// Total elapsed region nanoseconds.
    pub total_ns: u64,
    pub compute_ns: u64,
    pub memory_ns: u64,
    pub sync_ns: u64,
    pub wake_ns: u64,
    pub dispatch_ns: u64,
    pub serial_ns: u64,
    pub imbalance_ns: u64,
    /// Largest single aggregate folded in (one run's elapsed time).
    pub max_region_ns: u64,
    /// Merged runtime counters.
    pub counters: CounterSnapshot,
}

fn ns(x: f64) -> u64 {
    // One rounding, at ingestion; merges stay exact afterwards.
    if x.is_finite() && x > 0.0 {
        x.round() as u64
    } else {
        0
    }
}

impl Summary {
    /// Fold a whole-run breakdown in as `regions` regions of aggregate
    /// time `total_ns` (the sweep folds each sample's closed telemetry).
    pub fn add_aggregate(&mut self, total_ns: f64, bd: &Breakdown, regions: u64) {
        let total = ns(total_ns);
        self.regions += regions;
        self.total_ns += total;
        self.compute_ns += ns(bd.compute_ns);
        self.memory_ns += ns(bd.memory_ns);
        self.sync_ns += ns(bd.sync_ns);
        self.wake_ns += ns(bd.wake_ns);
        self.dispatch_ns += ns(bd.dispatch_ns);
        self.serial_ns += ns(bd.serial_ns);
        self.imbalance_ns += ns(bd.imbalance_ns);
        self.max_region_ns = self.max_region_ns.max(total);
    }

    /// Merge runtime counters in.
    pub fn add_counters(&mut self, c: &CounterSnapshot) {
        self.counters = self.counters.merge(c);
    }

    /// Pure merge of two summaries. Exactly associative and commutative:
    /// every field is an integer sum, max, or element-wise counter sum.
    pub fn merge(&self, other: &Summary) -> Summary {
        Summary {
            regions: self.regions + other.regions,
            total_ns: self.total_ns + other.total_ns,
            compute_ns: self.compute_ns + other.compute_ns,
            memory_ns: self.memory_ns + other.memory_ns,
            sync_ns: self.sync_ns + other.sync_ns,
            wake_ns: self.wake_ns + other.wake_ns,
            dispatch_ns: self.dispatch_ns + other.dispatch_ns,
            serial_ns: self.serial_ns + other.serial_ns,
            imbalance_ns: self.imbalance_ns + other.imbalance_ns,
            max_region_ns: self.max_region_ns.max(other.max_region_ns),
            counters: self.counters.merge(&other.counters),
        }
    }

    /// Accumulated nanoseconds charged to one sink.
    pub fn sink_ns(&self, sink: Sink) -> u64 {
        match sink {
            Sink::Compute => self.compute_ns,
            Sink::Memory => self.memory_ns,
            Sink::Sync => self.sync_ns,
            Sink::Wake => self.wake_ns,
            Sink::Dispatch => self.dispatch_ns,
            Sink::Serial => self.serial_ns,
            Sink::Imbalance => self.imbalance_ns,
        }
    }

    /// The sink holding the most time (ties resolve to the earliest in
    /// [`Sink::ALL`], deterministically).
    pub fn dominant_sink(&self) -> Sink {
        let mut best = Sink::Compute;
        let mut best_ns = self.sink_ns(best);
        for &s in &Sink::ALL[1..] {
            let v = self.sink_ns(s);
            if v > best_ns {
                best = s;
                best_ns = v;
            }
        }
        best
    }

    /// Fraction of all region time spent in a sink (0 when no time).
    pub fn sink_fraction(&self, sink: Sink) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.sink_ns(sink) as f64 / self.total_ns as f64
        }
    }

    /// Fraction of region time lost to barrier/imbalance waiting.
    pub fn imbalance_ratio(&self) -> f64 {
        self.sink_fraction(Sink::Imbalance)
    }

    /// Steal success rate `steals / (steals + steal_fails)`; `None` when
    /// the run had no steal attempts.
    pub fn steal_efficiency(&self) -> Option<f64> {
        use crate::schema::Counter;
        let ok = self.counters.get(Counter::Steals);
        let fail = self.counters.get(Counter::StealFails);
        if ok + fail == 0 {
            None
        } else {
            Some(ok as f64 / (ok + fail) as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(total: f64, compute: f64, imbalance: f64) -> Summary {
        let mut s = Summary::default();
        let bd = Breakdown {
            compute_ns: compute,
            imbalance_ns: imbalance,
            ..Breakdown::default()
        };
        s.add_aggregate(total, &bd, 1);
        s
    }

    #[test]
    fn merge_is_exact_on_integers() {
        let a = run(100.0, 60.0, 40.0);
        let b = run(50.0, 50.0, 0.0);
        let m = a.merge(&b);
        assert_eq!(m.regions, 2);
        assert_eq!(m.total_ns, 150);
        assert_eq!(m.compute_ns, 110);
        assert_eq!(m.max_region_ns, 100);
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn dominant_sink_and_ratios() {
        let s = run(100.0, 20.0, 80.0);
        assert_eq!(s.dominant_sink(), Sink::Imbalance);
        assert!((s.imbalance_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(s.steal_efficiency(), None);
    }

    #[test]
    fn counters_merge_into_the_steal_efficiency() {
        let mut s = run(10.0, 10.0, 0.0);
        s.add_counters(&CounterSnapshot {
            values: vec![1, 5, 5],
        });
        s.add_counters(&CounterSnapshot {
            values: vec![0, 5, 0],
        });
        assert_eq!(s.regions, 1);
        assert_eq!(s.counters.values[1], 10);
        assert_eq!(s.steal_efficiency(), Some(10.0 / 15.0));
    }
}
