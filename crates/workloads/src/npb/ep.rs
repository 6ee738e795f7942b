//! NPB **EP** — embarrassingly parallel random-number kernel.
//!
//! One huge independent loop generating Gaussian deviates and counting
//! them per annulus, closed by a reduction. EP is the study's negative
//! control: almost no tuning potential (paper range 1.000–1.090, the top
//! end appearing only on Milan).

use crate::catalog::{size_mult, Setting};
use omptune_core::Arch;
use simrt::{AccessPattern, Imbalance, LoopPhase, Model, Phase};

/// Simulation model: a single cache-resident uniform loop with one
/// closing reduction.
pub fn model(_arch: Arch, setting: Setting) -> Model {
    let s = size_mult(setting.input_code);
    Model {
        name: "ep".into(),
        phases: vec![Phase::Loop(LoopPhase {
            iters: (2_000_000.0 * s) as u64,
            cycles_per_iter: 420.0,
            bytes_per_iter: 0.0,
            access: AccessPattern::CacheResident,
            // Rejection sampling makes block costs vary slightly.
            imbalance: Imbalance::Random { cv: 0.02 },
            reductions: 3,
        })],
        timesteps: 1,
        migration_sensitivity: 0.0,
    }
}

/// Real kernel: Marsaglia polar method over a counter-based RNG; counts
/// accepted pairs and sums the deviates (the NPB verification quantities).
pub mod real {
    use omprt::{parallel_reduce_sum, ThreadPool};
    use omptune_core::{mix64, OmpSchedule, ReductionMethod, SPLITMIX64_GAMMA};

    /// Counter-based uniform in (0, 1): SplitMix64 keyed by the index.
    fn uniform(seed: u64, k: u64) -> f64 {
        let x = mix64(seed ^ k.wrapping_mul(SPLITMIX64_GAMMA));
        ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// For `pairs` candidate pairs, count acceptances of the polar method
    /// (x² + y² ≤ 1) — returned as an exact integer inside the f64 sum.
    pub fn run(pool: &ThreadPool, schedule: OmpSchedule, seed: u64, pairs: usize) -> f64 {
        parallel_reduce_sum(
            pool,
            schedule,
            ReductionMethod::heuristic(pool.num_threads()),
            pairs,
            |i| {
                let x = 2.0 * uniform(seed, 2 * i as u64) - 1.0;
                let y = 2.0 * uniform(seed, 2 * i as u64 + 1) - 1.0;
                if x * x + y * y <= 1.0 {
                    1.0
                } else {
                    0.0
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omprt::ThreadPool;
    use omptune_core::OmpSchedule;

    #[test]
    fn acceptance_rate_approximates_pi_over_four() {
        let pool = ThreadPool::with_defaults(4);
        let pairs = 200_000;
        let accepted = real::run(&pool, OmpSchedule::Static, 42, pairs);
        let rate = accepted / pairs as f64;
        assert!(
            (rate - std::f64::consts::FRAC_PI_4).abs() < 0.01,
            "rate {rate}"
        );
    }

    #[test]
    fn result_is_schedule_invariant_and_exact() {
        // Counting is exact in f64, so every schedule must agree exactly.
        let pool = ThreadPool::with_defaults(3);
        let reference = real::run(&pool, OmpSchedule::Static, 7, 50_000);
        for sched in [OmpSchedule::Dynamic, OmpSchedule::Guided, OmpSchedule::Auto] {
            assert_eq!(real::run(&pool, sched, 7, 50_000), reference);
        }
    }

    #[test]
    fn model_is_single_region() {
        let m = model(
            Arch::Skylake,
            Setting {
                input_code: 1,
                num_threads: 40,
            },
        );
        assert_eq!(m.region_count(), 1);
    }
}
