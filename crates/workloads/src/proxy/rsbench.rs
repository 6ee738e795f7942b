//! **RSBench** — multipole-method cross-section lookups.
//!
//! Same lookup structure as XSBench but compute-heavy: each lookup
//! evaluates complex-valued resonance poles, so the random-access
//! latency is a small fraction of the iteration and the migration effect
//! shrinks accordingly (paper range 1.004–1.213, the top on Milan).

use crate::catalog::Setting;
use omptune_core::Arch;
use simrt::{AccessPattern, Imbalance, LoopPhase, Model, Phase};

/// Simulation model: compute-dominated random lookups.
pub fn model(_arch: Arch, setting: Setting) -> Model {
    let _ = setting;
    Model {
        name: "rsbench".into(),
        phases: vec![Phase::Loop(LoopPhase {
            iters: 3_000_000,
            cycles_per_iter: 1_750.0,
            bytes_per_iter: 0.0,
            access: AccessPattern::RandomShared {
                accesses_per_iter: 1.1,
            },
            imbalance: Imbalance::Uniform,
            reductions: 1,
        })],
        timesteps: 1,
        migration_sensitivity: 0.40,
    }
}

/// Real kernel: windowed multipole evaluation with complex arithmetic —
/// the `σ(E) = Σ Re(r_k / (p_k − √E))` resonance sum of the multipole
/// representation.
pub mod real {
    use omprt::{parallel_reduce_sum, ThreadPool};
    use omptune_core::{splitmix64 as mix, OmpSchedule, ReductionMethod};

    /// One resonance pole: complex position and residue.
    #[derive(Debug, Clone, Copy)]
    pub struct Pole {
        pub pos: (f64, f64),
        pub res: (f64, f64),
    }

    fn uniform(x: u64) -> f64 {
        ((mix(x) >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Deterministic pole table for `nuclides × poles_per_nuclide`.
    pub fn pole_table(nuclides: usize, poles: usize) -> Vec<Pole> {
        (0..nuclides * poles)
            .map(|k| Pole {
                pos: (uniform(k as u64) * 2.0, 0.1 + uniform(k as u64 ^ 0xA) * 0.5),
                res: (uniform(k as u64 ^ 0xB) - 0.5, uniform(k as u64 ^ 0xC) - 0.5),
            })
            .collect()
    }

    /// Cross-section at energy `e` for one nuclide's pole window.
    pub fn xs_eval(poles: &[Pole], e: f64) -> f64 {
        let sqrt_e = e.sqrt();
        let mut total = 0.0;
        for p in poles {
            // r / (p - sqrt(E)) with complex p, r; take the real part.
            let dr = p.pos.0 - sqrt_e;
            let di = p.pos.1;
            let denom = dr * dr + di * di;
            total += (p.res.0 * dr + p.res.1 * di) / denom;
        }
        total.abs()
    }

    /// `lookups` random lookups, each picking a nuclide window and
    /// evaluating its poles; returns the checksum.
    pub fn run(
        pool: &ThreadPool,
        schedule: OmpSchedule,
        table: &[Pole],
        poles_per_nuclide: usize,
        lookups: usize,
    ) -> f64 {
        let nuclides = table.len() / poles_per_nuclide;
        assert!(nuclides > 0);
        parallel_reduce_sum(
            pool,
            schedule,
            ReductionMethod::heuristic(pool.num_threads()),
            lookups,
            |i| {
                let n = (mix(i as u64) as usize) % nuclides;
                let e = uniform(0x5EED ^ i as u64) * 4.0;
                let window = &table[n * poles_per_nuclide..(n + 1) * poles_per_nuclide];
                xs_eval(window, e)
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
    fn xs_eval_single_pole_analytic() {
        // One pole at (1, 1) with residue (1, 0), E = 0: value = |1/(1+1)| · re(1 - 0i ... )
        let p = real::Pole {
            pos: (1.0, 1.0),
            res: (1.0, 0.0),
        };
        // re(r/(p)) with p = 1 + i: r/(p) = (1)(1) + 0·1 / 2 = 0.5
        assert!((real::xs_eval(&[p], 0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn checksum_is_thread_invariant() {
        let table = real::pole_table(32, 8);
        let p1 = ThreadPool::with_defaults(1);
        let p4 = ThreadPool::with_defaults(4);
        let a = real::run(&p1, OmpSchedule::Static, &table, 8, 10_000);
        let b = real::run(&p4, OmpSchedule::Guided, &table, 8, 10_000);
        assert!((a - b).abs() < 1e-9 * a.abs());
        assert!(a > 0.0);
    }

    #[test]
    fn model_compute_dominates_latency() {
        let m = model(
            Arch::Milan,
            Setting {
                input_code: 1,
                num_threads: 96,
            },
        );
        match &m.phases[0] {
            Phase::Loop(l) => {
                // Compute cycles dwarf memory accesses per iteration —
                // the property that caps the migration effect at ~1.2×.
                assert!(l.cycles_per_iter > 1000.0);
                match l.access {
                    AccessPattern::RandomShared { accesses_per_iter } => {
                        assert!(accesses_per_iter < 2.0)
                    }
                    _ => panic!("expected random access"),
                }
            }
            _ => panic!("expected loop"),
        }
    }
}
