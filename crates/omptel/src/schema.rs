//! The telemetry schema: counters, and the time- and energy-sink
//! categories a run's time and energy are described by.
//!
//! One [`Counter`] vocabulary serves both runtimes, mirroring how an
//! OMPT tool sees libomp and a simulator through one callback set. A
//! run's time is described once, by a closed [`Breakdown`]; the
//! invariant every producer must uphold is that its seven components
//! **sum exactly to the run's total elapsed time** — whatever the
//! producer cannot attribute goes into `imbalance_ns`, never into thin
//! air.

use serde::{Deserialize, Serialize};

/// Monotonic event counters, one atomic slot each (see
/// [`crate::add`]). The set mirrors the OMPT callbacks libomp exposes
/// for the tuning variables the paper sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Parallel regions forked (real runtime) or simulated.
    Regions = 0,
    /// Successful task steals (`omprt::task`).
    Steals,
    /// Full failed probe rounds over every victim deque.
    StealFails,
    /// Tasks forked via `join`.
    TasksSpawned,
    /// Task bodies executed (inline pops + steals).
    TasksExecuted,
    /// Statically-assigned chunks handed to threads.
    ChunksStatic,
    /// Chunks claimed from the dynamic shared-counter dispatcher.
    ChunksDynamic,
    /// Chunks claimed from the guided dispatcher.
    ChunksGuided,
    /// Barrier wait episodes (one per thread per barrier).
    BarrierEpisodes,
    /// Nanoseconds threads spent inside barrier waits.
    BarrierWaitNs,
    /// Nanoseconds workers spent spinning between regions
    /// (`KMP_BLOCKTIME` budget being burned).
    SpinNs,
    /// Nanoseconds workers spent parked on the pool condvar after the
    /// blocktime expired.
    ParkNs,
    /// Times a worker had to be woken from a park (cold region starts).
    Wakeups,
    /// Reductions combined via the tree path.
    ReduceTree,
    /// Reductions combined via the critical-section path.
    ReduceCritical,
    /// Reductions combined via the atomic path.
    ReduceAtomic,
    /// Simulator region plans served from the in-memory plan cache.
    PlanCacheHits,
    /// Simulator region plans built from scratch (cache misses).
    PlanCacheMisses,
    /// Sweep samples served from the persistent sample cache.
    SampleCacheHits,
    /// Sweep samples simulated because no valid cache entry existed.
    SampleCacheMisses,
    /// Work units one sweep worker stole from another's deque.
    SweepSteals,
    /// Unparseable records found in the persistent sample cache.
    SampleCacheCorrupt,
    /// Flight-recorder events lost to ring wrap (harvested per thread
    /// when a recording finishes).
    TraceDropped,
    /// Scheduling-unit config groups priced through the batch pricing
    /// path (one per shared-plan miss group; a sample priced on its own,
    /// under the flight recorder, is a group of one).
    PricedBatches,
    /// Stale temporary cache files reaped when a `SampleCache` opened.
    SampleCacheTmpReaped,
    /// Buffers served from an allocation pool's freelist.
    PoolHits,
    /// Pool requests that had to allocate fresh (freelist empty).
    PoolMisses,
    /// Samples priced through the energy model.
    EnergySamples,
    /// Total modelled energy accumulated, microjoules.
    EnergyUj,
    /// Energy burned in wait states (spin/yield/park) — the sink the
    /// `KMP_BLOCKTIME`/`KMP_LIBRARY` conflict lives in, microjoules.
    EnergyWaitUj,
}

impl Counter {
    /// Number of counters; sizes the registry array.
    pub const COUNT: usize = 30;

    /// Every counter, in slot order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Regions,
        Counter::Steals,
        Counter::StealFails,
        Counter::TasksSpawned,
        Counter::TasksExecuted,
        Counter::ChunksStatic,
        Counter::ChunksDynamic,
        Counter::ChunksGuided,
        Counter::BarrierEpisodes,
        Counter::BarrierWaitNs,
        Counter::SpinNs,
        Counter::ParkNs,
        Counter::Wakeups,
        Counter::ReduceTree,
        Counter::ReduceCritical,
        Counter::ReduceAtomic,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::SampleCacheHits,
        Counter::SampleCacheMisses,
        Counter::SweepSteals,
        Counter::SampleCacheCorrupt,
        Counter::TraceDropped,
        Counter::PricedBatches,
        Counter::SampleCacheTmpReaped,
        Counter::PoolHits,
        Counter::PoolMisses,
        Counter::EnergySamples,
        Counter::EnergyUj,
        Counter::EnergyWaitUj,
    ];

    /// Stable lower-snake name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::Regions => "regions",
            Counter::Steals => "steals",
            Counter::StealFails => "steal_fails",
            Counter::TasksSpawned => "tasks_spawned",
            Counter::TasksExecuted => "tasks_executed",
            Counter::ChunksStatic => "chunks_static",
            Counter::ChunksDynamic => "chunks_dynamic",
            Counter::ChunksGuided => "chunks_guided",
            Counter::BarrierEpisodes => "barrier_episodes",
            Counter::BarrierWaitNs => "barrier_wait_ns",
            Counter::SpinNs => "spin_ns",
            Counter::ParkNs => "park_ns",
            Counter::Wakeups => "wakeups",
            Counter::ReduceTree => "reduce_tree",
            Counter::ReduceCritical => "reduce_critical",
            Counter::ReduceAtomic => "reduce_atomic",
            Counter::PlanCacheHits => "plan_cache_hits",
            Counter::PlanCacheMisses => "plan_cache_misses",
            Counter::SampleCacheHits => "sample_cache_hits",
            Counter::SampleCacheMisses => "sample_cache_misses",
            Counter::SweepSteals => "sweep_steals",
            Counter::SampleCacheCorrupt => "sample_cache_corrupt",
            Counter::TraceDropped => "trace_dropped",
            Counter::PricedBatches => "priced_batches",
            Counter::SampleCacheTmpReaped => "sample_cache_tmp_reaped",
            Counter::PoolHits => "pool_hits",
            Counter::PoolMisses => "pool_misses",
            Counter::EnergySamples => "energy_samples",
            Counter::EnergyUj => "energy_uj",
            Counter::EnergyWaitUj => "energy_wait_uj",
        }
    }
}

/// A point-in-time copy of every counter slot.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Indexed by `Counter as usize`; may be empty (all zero) or shorter
    /// than [`Counter::COUNT`] when deserialized from an older export.
    pub values: Vec<u64>,
}

impl CounterSnapshot {
    /// Value of one counter (0 when the slot is absent).
    pub fn get(&self, c: Counter) -> u64 {
        self.values.get(c as usize).copied().unwrap_or(0)
    }

    /// Element-wise sum; the result covers the union of present slots.
    pub fn merge(&self, other: &CounterSnapshot) -> CounterSnapshot {
        let n = self.values.len().max(other.values.len());
        let mut values = vec![0u64; n];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values.get(i).copied().unwrap_or(0)
                + other.values.get(i).copied().unwrap_or(0);
        }
        CounterSnapshot { values }
    }

    /// True when every slot is zero.
    pub fn is_empty(&self) -> bool {
        self.values.iter().all(|&v| v == 0)
    }
}

/// Where a run's time went. Every component in nanoseconds (wall or
/// virtual, depending on the producing runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sink {
    /// Useful, perfectly-parallel compute.
    Compute,
    /// Memory stalls (bandwidth and latency).
    Memory,
    /// Fork, barrier, and reduction synchronization.
    Sync,
    /// Wake-up latency of parked/blocked workers at region start.
    Wake,
    /// Chunk dispatch and task administration.
    Dispatch,
    /// Serial (non-parallel) sections.
    Serial,
    /// Load-imbalance / barrier-wait idle time: elapsed region time not
    /// attributable to any productive component.
    Imbalance,
}

impl Sink {
    /// Every sink, in display order.
    pub const ALL: [Sink; 7] = [
        Sink::Compute,
        Sink::Memory,
        Sink::Sync,
        Sink::Wake,
        Sink::Dispatch,
        Sink::Serial,
        Sink::Imbalance,
    ];

    /// Human-readable label: the rows of `simrt::Explanation::render`'s
    /// sink table.
    pub fn label(self) -> &'static str {
        match self {
            Sink::Compute => "compute",
            Sink::Memory => "memory stall",
            Sink::Sync => "sync (fork/barrier/reduction)",
            Sink::Wake => "wake-up latency",
            Sink::Dispatch => "chunk/task dispatch",
            Sink::Serial => "serial sections",
            Sink::Imbalance => "barrier/imbalance wait",
        }
    }
}

/// Time breakdown, one slot per [`Sink`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Breakdown {
    pub compute_ns: f64,
    pub memory_ns: f64,
    pub sync_ns: f64,
    pub wake_ns: f64,
    pub dispatch_ns: f64,
    pub serial_ns: f64,
    pub imbalance_ns: f64,
}

impl Breakdown {
    /// Component value for a sink.
    pub fn get(&self, sink: Sink) -> f64 {
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

    /// Set a sink's component value.
    pub fn set(&mut self, sink: Sink, value: f64) {
        match sink {
            Sink::Compute => self.compute_ns = value,
            Sink::Memory => self.memory_ns = value,
            Sink::Sync => self.sync_ns = value,
            Sink::Wake => self.wake_ns = value,
            Sink::Dispatch => self.dispatch_ns = value,
            Sink::Serial => self.serial_ns = value,
            Sink::Imbalance => self.imbalance_ns = value,
        }
    }

    /// Sum of every component.
    pub fn sum(&self) -> f64 {
        Sink::ALL.iter().map(|&s| self.get(s)).sum()
    }

    /// Element-wise accumulate.
    pub fn add(&mut self, other: &Breakdown) {
        self.compute_ns += other.compute_ns;
        self.memory_ns += other.memory_ns;
        self.sync_ns += other.sync_ns;
        self.wake_ns += other.wake_ns;
        self.dispatch_ns += other.dispatch_ns;
        self.serial_ns += other.serial_ns;
        self.imbalance_ns += other.imbalance_ns;
    }

    /// Make the components sum exactly to `total_ns`: a positive residual
    /// becomes imbalance (unattributed elapsed time is idle waiting by
    /// definition); a negative one (components over-charged, e.g. an
    /// asymmetric-NUMA memory estimate exceeding the critical path)
    /// shrinks the components proportionally.
    pub fn close_to_total(mut self, total_ns: f64) -> Breakdown {
        let charged = self.sum() - self.imbalance_ns;
        let residual = total_ns - charged;
        if residual >= 0.0 {
            self.imbalance_ns = residual;
        } else if charged > 0.0 {
            let k = total_ns.max(0.0) / charged;
            self.compute_ns *= k;
            self.memory_ns *= k;
            self.sync_ns *= k;
            self.wake_ns *= k;
            self.dispatch_ns *= k;
            self.serial_ns *= k;
            self.imbalance_ns = 0.0;
        }
        self
    }
}

/// Where a run's modelled energy went. Every component in joules.
/// Mirrors [`Sink`] at a coarser grain: the five sinks are chosen so
/// each maps to one term of the power model (DESIGN §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EnergySink {
    /// Cores executing compute or dispatch work.
    Active,
    /// Memory stalls plus DRAM traffic.
    Memory,
    /// Cores spinning, yielding, or parked while others work.
    Wait,
    /// Serial sections: one boosted core plus a waiting team.
    Serial,
    /// Package base draw and idle unused cores, for the whole run.
    Base,
}

impl EnergySink {
    /// Every sink, in display (and storage) order.
    pub const ALL: [EnergySink; 5] = [
        EnergySink::Active,
        EnergySink::Memory,
        EnergySink::Wait,
        EnergySink::Serial,
        EnergySink::Base,
    ];

    /// Human-readable label used by reports.
    pub fn label(self) -> &'static str {
        match self {
            EnergySink::Active => "active compute",
            EnergySink::Memory => "memory stall + DRAM",
            EnergySink::Wait => "wait (spin/yield/park)",
            EnergySink::Serial => "serial (boost + waiters)",
            EnergySink::Base => "package base + idle cores",
        }
    }
}

/// Per-sample energy breakdown, one slot per [`EnergySink`] plus the
/// closed total. Invariant: `total_j` equals the sum of the five sinks
/// exactly (producers compute it as that sum, in [`EnergySink::ALL`]
/// order, so the equality is bit-exact and reproducible).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Total modelled energy of the run, joules.
    pub total_j: f64,
    pub active_j: f64,
    pub memory_j: f64,
    pub wait_j: f64,
    pub serial_j: f64,
    pub base_j: f64,
}

impl EnergyBreakdown {
    /// Component value for a sink.
    pub fn get(&self, sink: EnergySink) -> f64 {
        match sink {
            EnergySink::Active => self.active_j,
            EnergySink::Memory => self.memory_j,
            EnergySink::Wait => self.wait_j,
            EnergySink::Serial => self.serial_j,
            EnergySink::Base => self.base_j,
        }
    }

    /// Sum of the five sink components, in [`EnergySink::ALL`] order —
    /// the exact expression producers assign to `total_j`.
    pub fn sink_sum(&self) -> f64 {
        self.active_j + self.memory_j + self.wait_j + self.serial_j + self.base_j
    }

    /// Seal the closed-total invariant: set `total_j = sink_sum()`.
    pub fn close(mut self) -> EnergyBreakdown {
        self.total_j = self.sink_sum();
        self
    }

    /// Element-wise accumulate (the total rides along).
    pub fn add(&mut self, other: &EnergyBreakdown) {
        self.total_j += other.total_j;
        self.active_j += other.active_j;
        self.memory_j += other.memory_j;
        self.wait_j += other.wait_j;
        self.serial_j += other.serial_j;
        self.base_j += other.base_j;
    }

    /// Energy-delay product in joule-seconds, given the run's elapsed
    /// (virtual) nanoseconds.
    pub fn edp_js(&self, elapsed_ns: f64) -> f64 {
        self.total_j * elapsed_ns * 1e-9
    }

    /// Scale every component by `factor` (sentinel fault injection:
    /// a perturbed run's energy moves with its virtual time).
    pub fn scale(&mut self, factor: f64) {
        self.total_j *= factor;
        self.active_j *= factor;
        self.memory_j *= factor;
        self.wait_j *= factor;
        self.serial_j *= factor;
        self.base_j *= factor;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_slots_are_dense_and_named() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} out of slot order");
            assert!(!c.name().is_empty());
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::COUNT, "duplicate counter names");
    }

    #[test]
    fn snapshot_merge_handles_length_mismatch() {
        let a = CounterSnapshot {
            values: vec![1, 2, 3],
        };
        let b = CounterSnapshot { values: vec![10] };
        let m = a.merge(&b);
        assert_eq!(m.values, vec![11, 2, 3]);
        assert_eq!(m.get(Counter::Regions), 11);
        assert_eq!(m.get(Counter::ReduceAtomic), 0);
    }

    #[test]
    fn close_to_total_absorbs_residual_into_imbalance() {
        let bd = Breakdown {
            compute_ns: 40.0,
            memory_ns: 10.0,
            ..Breakdown::default()
        }
        .close_to_total(100.0);
        assert_eq!(bd.imbalance_ns, 50.0);
        assert_eq!(bd.sum(), 100.0);
    }

    #[test]
    fn energy_breakdown_closes_to_sink_sum() {
        let e = EnergyBreakdown {
            active_j: 1.5,
            memory_j: 0.25,
            wait_j: 3.0,
            serial_j: 0.5,
            base_j: 2.0,
            ..EnergyBreakdown::default()
        }
        .close();
        assert_eq!(e.total_j.to_bits(), e.sink_sum().to_bits());
        let by_sinks: f64 = EnergySink::ALL.iter().map(|&s| e.get(s)).sum();
        assert_eq!(by_sinks, e.total_j);
        // EDP: joules × seconds.
        assert!((e.edp_js(2e9) - e.total_j * 2.0).abs() < 1e-12);
        let mut acc = EnergyBreakdown::default();
        acc.add(&e);
        acc.add(&e);
        assert_eq!(acc.total_j, 2.0 * e.total_j);
        for s in EnergySink::ALL {
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn close_to_total_rescales_overcharge() {
        let bd = Breakdown {
            compute_ns: 150.0,
            memory_ns: 50.0,
            ..Breakdown::default()
        }
        .close_to_total(100.0);
        assert!((bd.sum() - 100.0).abs() < 1e-9);
        assert_eq!(bd.imbalance_ns, 0.0);
        assert!((bd.compute_ns - 75.0).abs() < 1e-9);
    }
}
