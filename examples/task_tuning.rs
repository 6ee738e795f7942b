//! Domain scenario: task-parallel workloads (the BOTS motif) and the
//! `KMP_LIBRARY` effect — the paper's biggest tuning win (NQueens,
//! 2.3–4.9× from `turnaround`).
//!
//! Runs the real task kernels on the work-stealing runtime, then shows
//! the simulated wait-policy effect per architecture.
//!
//! Run with: `cargo run --release --example task_tuning`

use omptune::core::paper::{self, Key};
use omptune::core::{Arch, KmpBlocktime, KmpLibrary, TuningConfig, WaitPolicy};
use omptune::rt::ThreadPool;
use std::time::Instant;

fn main() {
    // --- Real task kernels under different wait policies. --------------
    for (label, policy) in [
        (
            "throughput/200ms (default)",
            WaitPolicy::SpinThenSleep {
                millis: 200,
                yielding: true,
            },
        ),
        (
            "turnaround/infinite",
            WaitPolicy::Active { yielding: false },
        ),
        ("blocktime 0 (passive)", WaitPolicy::Passive),
    ] {
        let pool = ThreadPool::new(4, policy);
        let t0 = Instant::now();
        let solutions = omptune::apps::bots::nqueens::real::run(&pool, 11);
        let nq = t0.elapsed();
        let t0 = Instant::now();
        let mut data = omptune::apps::bots::sort::real::input(400_000, 7);
        omptune::apps::bots::sort::real::run(&pool, &mut data);
        let sort = t0.elapsed();
        println!("{label:<28} nqueens(11)={solutions} in {nq:?}; sort(400k) in {sort:?}");
        assert_eq!(solutions, 2680);
        assert!(data.windows(2).all(|w| w[0] <= w[1]));
    }

    // --- Health simulation: deterministic across pools. ----------------
    let pool = ThreadPool::with_defaults(4);
    let totals = omptune::apps::bots::health::real::run(&pool, 3, 4, 60);
    println!("\nhealth simulation: {totals:?}");

    // --- The paper's library effect, simulated per architecture. -------
    println!("\nsimulated KMP_LIBRARY=turnaround speedup for nqueens (paper Table VII):");
    let app = omptune::apps::app("nqueens").expect("registered");
    for arch in Arch::ALL {
        let setting = omptune::apps::Setting {
            input_code: 1,
            num_threads: arch.cores(),
        };
        let model = (app.model)(arch, setting);
        let default = TuningConfig::default_for(arch, arch.cores());
        let tuned = TuningConfig {
            library: KmpLibrary::Turnaround,
            blocktime: KmpBlocktime::Infinite,
            ..default
        };
        let t_default = omptune::sim::simulate(arch, &default, &model, 0).seconds();
        let t_tuned = omptune::sim::simulate(arch, &tuned, &model, 0).seconds();
        println!(
            "  {:<8} {:.3}s -> {:.3}s  speedup {:.2}x  (paper range {})",
            arch.id(),
            t_default,
            t_tuned,
            t_default / t_tuned,
            paper::range(|end| Key::App("nqueens", end))
        );
    }
}
