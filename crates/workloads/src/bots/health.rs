//! BOTS **Health** — multilevel health-system simulation.
//!
//! A tree of villages, each producing a burst of small patient-handling
//! tasks; the runtime starves between bursts. Second-largest library win
//! in the paper (1.282–2.218, peaking on A64FX).

use crate::catalog::{size_mult, Setting};
use omptune_core::Arch;
use simrt::{Model, Phase, TaskPhase};

/// Simulation model: one region of many µs-scale tasks with high
/// starvation.
pub fn model(_arch: Arch, setting: Setting) -> Model {
    let s = size_mult(setting.input_code);
    Model {
        name: "health".into(),
        phases: vec![Phase::Tasks(TaskPhase {
            n_tasks: (55_000.0 * s) as u64,
            cycles_per_task: 4_000.0,
            cv: 0.55,
            starvation: 0.62,
            bytes_per_task: 700.0,
        })],
        timesteps: 1,
        migration_sensitivity: 0.0,
    }
}

/// Real kernel: a deterministic multilevel village simulation. Each
/// village processes a patient queue per timestep (some patients are
/// referred up to the parent), with `join`-parallel recursion over the
/// village tree.
pub mod real {
    use omprt::{join, task_parallel, ThreadPool};
    use omptune_core::splitmix64 as mix;

    /// Simulation output: totals over all villages and timesteps.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Totals {
        pub treated: u64,
        pub referred: u64,
    }

    /// Simulate the subtree rooted at `id` with the given depth:
    /// children first (in parallel), then this village treats its own
    /// and the referred patients.
    fn simulate_village(id: u64, depth: u32, branching: u32, steps: u32) -> Totals {
        let child_totals = if depth == 0 {
            Totals {
                treated: 0,
                referred: 0,
            }
        } else {
            // Fold children pairwise with join.
            fn children(
                id: u64,
                depth: u32,
                branching: u32,
                steps: u32,
                lo: u32,
                hi: u32,
            ) -> Totals {
                if hi - lo == 1 {
                    return simulate_village(mix(id ^ lo as u64), depth - 1, branching, steps);
                }
                let mid = lo + (hi - lo) / 2;
                let (a, b) = join(
                    || children(id, depth, branching, steps, lo, mid),
                    || children(id, depth, branching, steps, mid, hi),
                );
                Totals {
                    treated: a.treated + b.treated,
                    referred: a.referred + b.referred,
                }
            }
            children(id, depth, branching, steps, 0, branching)
        };

        // Local patient handling: deterministic per-village stream.
        let mut treated = child_totals.treated;
        let mut referred_up = 0u64;
        // Referred patients from children join the local queue.
        let mut queue = child_totals.referred + 3;
        for step in 0..steps {
            let arrivals = mix(id ^ (step as u64) << 17) % 5;
            queue += arrivals;
            let capacity = 4u64;
            let served = queue.min(capacity);
            queue -= served;
            // One in four served patients needs the next level.
            let refer = served / 4;
            treated += served - refer;
            if depth > 0 {
                // Internal villages absorb their referrals locally.
                queue += refer;
            } else {
                referred_up += refer;
            }
        }
        Totals {
            treated,
            referred: referred_up + queue / 8,
        }
    }

    /// Run the full simulation on the pool.
    pub fn run(pool: &ThreadPool, depth: u32, branching: u32, steps: u32) -> Totals {
        task_parallel(pool, || simulate_village(1, depth, branching, steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omprt::ThreadPool;

    #[test]
    fn deterministic_across_thread_counts() {
        let p1 = ThreadPool::with_defaults(1);
        let p4 = ThreadPool::with_defaults(4);
        let a = real::run(&p1, 3, 4, 50);
        let b = real::run(&p4, 3, 4, 50);
        assert_eq!(a, b);
        assert!(a.treated > 0);
    }

    #[test]
    fn deeper_trees_treat_more_patients() {
        let pool = ThreadPool::with_defaults(4);
        let shallow = real::run(&pool, 1, 3, 30);
        let deep = real::run(&pool, 3, 3, 30);
        assert!(deep.treated > shallow.treated);
    }

    #[test]
    fn leaf_only_simulation() {
        let pool = ThreadPool::with_defaults(2);
        let t = real::run(&pool, 0, 4, 10);
        // A single village serves at most capacity per step.
        assert!(t.treated <= 40);
    }

    #[test]
    fn model_is_starved_and_fine() {
        let m = model(
            Arch::A64fx,
            Setting {
                input_code: 1,
                num_threads: 48,
            },
        );
        match &m.phases[0] {
            Phase::Tasks(t) => {
                assert!(t.starvation >= 0.5);
                assert!(t.cycles_per_task < 20_000.0);
            }
            _ => panic!("expected tasks"),
        }
    }
}
