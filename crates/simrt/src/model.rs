//! Workload models: the structural description of an application that the
//! simulated runtime executes.
//!
//! A [`Model`] is a sequence of [`Phase`]s repeated for `timesteps`
//! iterations — the universal shape of the paper's benchmarks (NPB
//! timesteps, BOTS recursions flattened into task phases, proxy-app
//! lookups). Each phase carries the quantities the tuning effects act on:
//! iteration counts, compute cycles, memory traffic and its access
//! pattern, load imbalance, reductions, and task granularity.

use serde::{Deserialize, Serialize};

/// How a phase touches main memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Streaming/partitioned: bandwidth-bound, prefetch-friendly;
    /// first-touch makes bound threads NUMA-local.
    Streaming,
    /// Random lookups into one large shared table (XSBench/RSBench):
    /// latency-bound; locality is interleaved regardless of binding, but
    /// unbound threads additionally lose cached table segments when the
    /// OS migrates them.
    RandomShared {
        /// Memory accesses (cache-missing loads) per iteration.
        accesses_per_iter: f64,
    },
    /// Works entirely out of cache; memory system not involved.
    CacheResident,
}

/// Load-imbalance shape across the iteration space, as a cost multiplier
/// `w(x)` over normalized position `x ∈ [0, 1)` with mean 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Imbalance {
    /// All iterations cost the same.
    Uniform,
    /// Linearly varying cost: `w(x) = 1 + skew * (x - 0.5)`;
    /// `skew ∈ [-2, 2]` keeps costs positive.
    Linear {
        /// Slope of the cost ramp.
        skew: f64,
    },
    /// Deterministic pseudo-random per-chunk cost with the given
    /// coefficient of variation (irregular kernels like CG rows).
    Random {
        /// Standard deviation relative to the mean.
        cv: f64,
    },
}

impl Imbalance {
    /// Mean multiplier over the sub-range `[x0, x1)` of the iteration
    /// space. `unit` identifies the chunk for the `Random` shape so the
    /// cost field is deterministic.
    pub fn mean_over(&self, x0: f64, x1: f64, unit: u64, seed: u64) -> f64 {
        match *self {
            Imbalance::Uniform => 1.0,
            Imbalance::Linear { skew } => {
                let mid = 0.5 * (x0 + x1);
                (1.0 + skew * (mid - 0.5)).max(0.05)
            }
            Imbalance::Random { cv } => {
                // Deterministic per-unit multiplier, clamped positive.
                let z = unit_gaussian(seed, unit);
                (1.0 + cv * z).max(0.05)
            }
        }
    }
}

/// Deterministic standard-normal variate per (seed, unit).
fn unit_gaussian(seed: u64, unit: u64) -> f64 {
    use omptune_core::splitmix64 as mix;
    let k = mix(seed ^ mix(unit));
    let u1 = ((k >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    let k2 = mix(k);
    let u2 = ((k2 >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A worksharing (`omp parallel for`) phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoopPhase {
    /// Loop trip count.
    pub iters: u64,
    /// Compute cycles per iteration (scaled by the machine clock).
    pub cycles_per_iter: f64,
    /// Main-memory bytes moved per iteration (streaming term).
    pub bytes_per_iter: f64,
    pub access: AccessPattern,
    pub imbalance: Imbalance,
    /// Number of scalar reductions closing this loop (0 = none).
    pub reductions: u32,
}

/// A task-parallel (`omp task`) phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskPhase {
    /// Total number of tasks generated.
    pub n_tasks: u64,
    /// Compute cycles per task.
    pub cycles_per_task: f64,
    /// Coefficient of variation of task sizes.
    pub cv: f64,
    /// Fraction of task acquisitions that find the worker idle-waiting —
    /// high for fine-grained generators (NQueens), low for coarse
    /// divide-and-conquer (Sort, Strassen). This is where `KMP_LIBRARY`'s
    /// spin-vs-yield choice bites.
    pub starvation: f64,
    /// Main-memory bytes touched per task (streaming pattern).
    pub bytes_per_task: f64,
}

/// One phase of a model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Phase {
    /// A parallel worksharing loop.
    Loop(LoopPhase),
    /// A task-parallel region.
    Tasks(TaskPhase),
    /// Serial code between parallel regions; its length decides whether
    /// workers outlive their blocktime and fall asleep.
    Serial {
        /// Duration in nanoseconds.
        ns: f64,
    },
}

/// A complete application model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    /// Application identifier, e.g. `"cg"`.
    pub name: String,
    /// The phases of one timestep.
    pub phases: Vec<Phase>,
    /// Number of timestep repetitions.
    pub timesteps: u32,
    /// Per-application sensitivity of its cached working set to thread
    /// migration (0 = insensitive). Amplifies the unbound-thread latency
    /// penalty for `RandomShared` phases.
    pub migration_sensitivity: f64,
}

impl Model {
    /// Total compute work in cycles (for sanity checks and utilization
    /// metrics).
    pub fn total_cycles(&self) -> f64 {
        let per_step: f64 = self
            .phases
            .iter()
            .map(|p| match p {
                Phase::Loop(l) => l.iters as f64 * l.cycles_per_iter,
                Phase::Tasks(t) => t.n_tasks as f64 * t.cycles_per_task,
                Phase::Serial { .. } => 0.0,
            })
            .sum();
        per_step * self.timesteps as f64
    }

    /// Number of parallel regions executed over the whole run.
    pub fn region_count(&self) -> u64 {
        let per_step = self
            .phases
            .iter()
            .filter(|p| !matches!(p, Phase::Serial { .. }))
            .count() as u64;
        per_step * self.timesteps as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_imbalance_is_flat() {
        let im = Imbalance::Uniform;
        assert_eq!(im.mean_over(0.0, 0.1, 0, 1), 1.0);
        assert_eq!(im.mean_over(0.9, 1.0, 9, 1), 1.0);
    }

    #[test]
    fn linear_imbalance_ramps() {
        let im = Imbalance::Linear { skew: 1.0 };
        let early = im.mean_over(0.0, 0.1, 0, 1);
        let late = im.mean_over(0.9, 1.0, 9, 1);
        assert!(early < 1.0 && late > 1.0);
        assert!((early + late - 2.0).abs() < 1e-12, "symmetric around 1");
    }

    #[test]
    fn random_imbalance_is_deterministic_and_positive() {
        let im = Imbalance::Random { cv: 0.5 };
        for unit in 0..100 {
            let a = im.mean_over(0.0, 0.1, unit, 42);
            let b = im.mean_over(0.0, 0.1, unit, 42);
            assert_eq!(a, b);
            assert!(a > 0.0);
        }
        // Different seeds decorrelate.
        assert_ne!(im.mean_over(0.0, 0.1, 5, 1), im.mean_over(0.0, 0.1, 5, 2));
    }

    #[test]
    fn random_imbalance_mean_near_one() {
        let im = Imbalance::Random { cv: 0.3 };
        let mean: f64 = (0..5000).map(|u| im.mean_over(0.0, 1.0, u, 7)).sum::<f64>() / 5000.0;
        assert!((mean - 1.0).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn model_accounting() {
        let m = Model {
            name: "toy".into(),
            phases: vec![
                Phase::Loop(LoopPhase {
                    iters: 100,
                    cycles_per_iter: 10.0,
                    bytes_per_iter: 0.0,
                    access: AccessPattern::CacheResident,
                    imbalance: Imbalance::Uniform,
                    reductions: 0,
                }),
                Phase::Serial { ns: 50.0 },
                Phase::Tasks(TaskPhase {
                    n_tasks: 10,
                    cycles_per_task: 100.0,
                    cv: 0.0,
                    starvation: 0.0,
                    bytes_per_task: 0.0,
                }),
            ],
            timesteps: 3,
            migration_sensitivity: 0.0,
        };
        assert_eq!(m.total_cycles(), 3.0 * (1000.0 + 1000.0));
        assert_eq!(m.region_count(), 6);
    }
}
