//! Domain scenario: Monte Carlo neutron-transport cross-section lookups
//! (the paper's XSBench/RSBench motif), run for real on the executing
//! runtime and compared against the simulator's placement story.
//!
//! Run with: `cargo run --release --example neutron_transport`

use omptune::core::paper::{self, End, Key};
use omptune::core::{Arch, OmpSchedule, TuningConfig};
use omptune::rt::ThreadPool;
use std::time::Instant;

fn main() {
    // --- Real lookups on the executing runtime. ------------------------
    let grid = omptune::apps::proxy::xsbench::real::Grid::new(4096, 32);
    let lookups = 300_000;
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::with_defaults(threads);
        for schedule in [
            OmpSchedule::Static,
            OmpSchedule::Dynamic,
            OmpSchedule::Guided,
        ] {
            let t0 = Instant::now();
            let checksum =
                omptune::apps::proxy::xsbench::real::run(&pool, schedule, &grid, lookups);
            println!(
                "real xsbench: {threads} threads {schedule:?}: checksum {checksum:.3} in {:?}",
                t0.elapsed()
            );
        }
    }

    // --- The multipole variant (RSBench). ------------------------------
    let table = omptune::apps::proxy::rsbench::real::pole_table(64, 16);
    let pool = ThreadPool::with_defaults(4);
    let checksum =
        omptune::apps::proxy::rsbench::real::run(&pool, OmpSchedule::Guided, &table, 16, 100_000);
    println!("real rsbench: checksum {checksum:.3}");

    // --- The paper's placement finding, on the simulated machines. -----
    println!("\nsimulated binding speedups for xsbench (paper Table V):");
    let app = omptune::apps::app("xsbench").expect("registered");
    for arch in Arch::ALL {
        let setting = omptune::apps::Setting {
            input_code: 1,
            num_threads: arch.cores(),
        };
        let model = (app.model)(arch, setting);
        let default = TuningConfig::default_for(arch, arch.cores());
        let base = omptune::sim::simulate(arch, &default, &model, 0).seconds();
        let mut best = (1.0f64, default);
        for config in omptune::core::ConfigSpace::new(arch, arch.cores())
            .iter()
            .step_by(7)
        {
            let t = omptune::sim::simulate(arch, &config, &model, 0).seconds();
            if base / t > best.0 {
                best = (base / t, config);
            }
        }
        println!(
            "  {:<8} best {:.3}x via {}   (paper: up to {:.3})",
            arch.id(),
            best.0,
            best.1.describe(),
            paper::value(Key::AppArch("xsbench", arch, End::Max))
        );
    }
}
