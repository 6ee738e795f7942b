//! **XSBench** — Monte Carlo macroscopic neutron cross-section lookups.
//!
//! Every lookup binary-searches a huge shared energy grid and gathers
//! nuclide data: pure latency-bound random access. This is the paper's
//! headline architecture-dependent result (Table V): binding wins 2.602×
//! on Milan while doing nothing on A64FX (1.004–1.015) or Skylake
//! (1.001–1.002).

use crate::catalog::Setting;
use omptune_core::Arch;
use simrt::{AccessPattern, Imbalance, LoopPhase, Model, Phase};

/// Simulation model: one giant random-lookup loop; maximally sensitive
/// to thread migration.
pub fn model(_arch: Arch, setting: Setting) -> Model {
    let _ = setting; // default input regardless of thread count
    Model {
        name: "xsbench".into(),
        phases: vec![Phase::Loop(LoopPhase {
            iters: 8_000_000,
            cycles_per_iter: 95.0,
            bytes_per_iter: 0.0,
            access: AccessPattern::RandomShared {
                accesses_per_iter: 6.5,
            },
            imbalance: Imbalance::Uniform,
            reductions: 1,
        })],
        timesteps: 1,
        migration_sensitivity: 1.0,
    }
}

/// Real kernel: unionized-energy-grid cross-section lookups — sorted
/// grid construction, binary search, linear interpolation over nuclides,
/// and a verification checksum, exactly the XSBench recipe at mini scale.
pub mod real {
    use omprt::{parallel_reduce_sum, ThreadPool};
    use omptune_core::{splitmix64 as mix, OmpSchedule, ReductionMethod};

    /// The unionized grid: sorted energies × per-nuclide cross sections.
    pub struct Grid {
        energies: Vec<f64>,
        /// `xs[e * nuclides + n]` = cross-section of nuclide `n` at grid
        /// point `e`.
        xs: Vec<f64>,
        nuclides: usize,
    }

    fn uniform(x: u64) -> f64 {
        ((mix(x) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    impl Grid {
        /// Build a deterministic grid of `points × nuclides`.
        pub fn new(points: usize, nuclides: usize) -> Grid {
            assert!(points >= 2);
            let mut energies: Vec<f64> = (0..points).map(|i| uniform(i as u64)).collect();
            energies.sort_by(|a, b| a.partial_cmp(b).expect("finite energies"));
            let xs = (0..points * nuclides)
                .map(|k| uniform(0xC0FFEE ^ k as u64) * 10.0)
                .collect();
            Grid {
                energies,
                xs,
                nuclides,
            }
        }

        /// Macroscopic cross-section at energy `e`: binary search + linear
        /// interpolation, summed over all nuclides.
        pub fn lookup(&self, e: f64) -> f64 {
            let hi = self
                .energies
                .partition_point(|&g| g < e)
                .clamp(1, self.energies.len() - 1);
            let lo = hi - 1;
            let (e0, e1) = (self.energies[lo], self.energies[hi]);
            // Clamp out-of-grid energies to the boundary values instead of
            // extrapolating (real XSBench grids cover the sampled range).
            let f = if e1 > e0 {
                ((e - e0) / (e1 - e0)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let mut total = 0.0;
            for n in 0..self.nuclides {
                let x0 = self.xs[lo * self.nuclides + n];
                let x1 = self.xs[hi * self.nuclides + n];
                total += x0 + f * (x1 - x0);
            }
            total
        }
    }

    /// Perform `lookups` random-energy lookups in parallel; returns the
    /// total macroscopic cross-section (the XSBench verification value).
    pub fn run(pool: &ThreadPool, schedule: OmpSchedule, grid: &Grid, lookups: usize) -> f64 {
        parallel_reduce_sum(
            pool,
            schedule,
            ReductionMethod::heuristic(pool.num_threads()),
            lookups,
            |i| grid.lookup(uniform(0xBEEF ^ i as u64)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omprt::ThreadPool;
    use omptune_core::OmpSchedule;

    #[test]
    fn lookup_interpolates_within_bounds() {
        let grid = real::Grid::new(64, 4);
        // Every lookup is a finite positive sum of 4 interpolants ≤ 40.
        for k in 0..100 {
            let v = grid.lookup(k as f64 / 100.0);
            assert!(v.is_finite() && (0.0..=40.0).contains(&v), "v={v}");
        }
    }

    #[test]
    fn parallel_total_matches_serial() {
        let grid = real::Grid::new(256, 8);
        let p1 = ThreadPool::with_defaults(1);
        let p4 = ThreadPool::with_defaults(4);
        let a = real::run(&p1, OmpSchedule::Static, &grid, 20_000);
        let b = real::run(&p4, OmpSchedule::Dynamic, &grid, 20_000);
        // Reduction order differs; values agree to relative epsilon.
        assert!((a - b).abs() < 1e-9 * a.abs(), "{a} vs {b}");
    }

    #[test]
    fn extreme_energies_clamp() {
        let grid = real::Grid::new(16, 2);
        assert!(grid.lookup(-5.0).is_finite());
        assert!(grid.lookup(5.0).is_finite());
    }

    #[test]
    fn model_is_migration_sensitive_single_region() {
        let m = model(
            Arch::Milan,
            Setting {
                input_code: 1,
                num_threads: 96,
            },
        );
        assert_eq!(m.region_count(), 1);
        assert_eq!(m.migration_sensitivity, 1.0);
    }
}
