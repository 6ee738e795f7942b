//! Ablations of the real runtime's design choices and of what observing
//! it costs — the executable counterpart of the simulator's model, one
//! timed series per choice DESIGN.md calls out:
//!
//! - `barrier_{central,tree}_s` — 16 barrier episodes in one region,
//!   per algorithm;
//! - `reduction_{tree,critical,atomic}_s` — one team-wide reduction (the
//!   `KMP_FORCE_REDUCTION` choice), result asserted every iteration;
//! - `wait_{active_spin,active_yield,spin_then_sleep,passive}_s` — 8
//!   empty regions back to back: the region-to-region turnaround the
//!   `KMP_BLOCKTIME` × `KMP_LIBRARY` tuning controls;
//! - `{skewed,uniform}_{static,dynamic,guided}_s` — a 50 000-iteration
//!   worksharing loop whose cost ramps across the index space (where
//!   static scheduling leaves threads idle, paper Sec. III-3) or is flat;
//! - `real_{idle,collecting,tracing,checking}_s` — a tree reduction plus
//!   a dynamic loop on the real runtime with every event site idle (one
//!   relaxed load each — the state sweeps run in), under a counter-only
//!   `omptel` session, under an `omprt::trace` session, and with the
//!   trace also replayed through `omplint::check_trace`; the sum is
//!   asserted equal in all four and the trace certified clean;
//! - `sim_{idle,collecting}_s` — one `simrt::simulate` of CG/Milan@48
//!   without and with a counter-only `omptel` session.
//!
//! Every series is seconds per iteration over 7 passes, each pass sized
//! by [`Series::per_iteration`]; the four `*_overhead` ratios compare an
//! observed state with its idle one. Every team is the host's
//! parallelism capped at 4 (`team` in the document, beside `threads`),
//! so no spinning thread waits for a core, and each series group's pool
//! is dropped before the next group starts. A team larger than the host
//! would time the scheduler's timeslice, not the runtime.
//! Results go to `BENCH_runtime.json` at the repo root (override with
//! `BENCH_OUT`) for `bench-diff`.
//!
//! `harness = false`: unless `cargo bench` runs it (argv holds `--bench`
//! and no `--test`; see `bench_harness::full_run`) this
//! runs two short passes per series and publishes nothing.

use bench_harness::{BenchDoc, Series};
use omprt::{
    parallel_for, parallel_reduce_sum, trace, Barrier, CentralBarrier, Reducer, ThreadPool,
    TreeBarrier,
};
use omptune_core::{Arch, OmpSchedule, ReductionMethod, TuningConfig, WaitPolicy};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

const SPIN: WaitPolicy = WaitPolicy::Active { yielding: false };
const LOOP: usize = 2_000;
const SCHEDULED: usize = 50_000;

/// Per-iteration work whose cost ramps linearly across the index space.
fn skewed_work(i: usize) -> u64 {
    let reps = 1 + (200 * i) / SCHEDULED;
    let mut acc = i as u64;
    for _ in 0..reps {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    acc
}

fn uniform_work(i: usize) -> u64 {
    (i as u64).wrapping_mul(0x9E3779B9)
}

/// The observed workload: a static tree reduction plus a dynamic loop.
fn real_workload(pool: &ThreadPool) {
    let sum = parallel_reduce_sum(
        pool,
        OmpSchedule::Static,
        ReductionMethod::Tree,
        LOOP,
        |i| i as f64,
    );
    parallel_for(pool, OmpSchedule::Dynamic, LOOP, |i| {
        black_box(i);
    });
    let expect: f64 = (0..LOOP).map(|i| i as f64).sum();
    assert_eq!(sum, expect, "an observer changed the reduction's result");
}

fn main() {
    let (passes, budget_s) = if bench_harness::full_run() {
        (7, 0.02)
    } else {
        (2, 0.001)
    };
    let mut doc = BenchDoc::new("runtime_ablation");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let team = threads.min(4);
    doc.count("threads", threads as u64);
    doc.count("team", team as u64);
    println!(
        "runtime_ablation: {threads} hardware threads, teams of {team}, {passes} passes per series"
    );
    let mut timed = |key: &str, iteration: &mut dyn FnMut()| {
        let series = Series::per_iteration(passes, budget_s, iteration);
        println!("  {key:<24} {:>12.0} ns/iter", series.best() * 1e9);
        doc.series(key, series.best(), &series);
        series.best()
    };

    // Each series group owns its pool, dropped before the next one
    // starts, so no spinning team outlives the series it was made for.
    {
        let pool = ThreadPool::new(team, SPIN);
        let barriers: [(&str, Box<dyn Barrier>); 2] = [
            ("central", Box::new(CentralBarrier::new(team))),
            ("tree", Box::new(TreeBarrier::new(team, 2))),
        ];
        for (name, barrier) in &barriers {
            timed(&format!("barrier_{name}_s"), &mut || {
                pool.parallel(|ctx| {
                    for _ in 0..16 {
                        barrier.wait(ctx.thread_num);
                    }
                });
            });
        }
    }

    {
        let pool = ThreadPool::new(team, SPIN);
        // Thread i contributes i.
        let expect = (team * (team - 1) / 2) as f64;
        for (name, method) in [
            ("tree", ReductionMethod::Tree),
            ("critical", ReductionMethod::Critical),
            ("atomic", ReductionMethod::Atomic),
        ] {
            let barrier = CentralBarrier::new(team);
            timed(&format!("reduction_{name}_s"), &mut || {
                let reducer = Reducer::new(team, method);
                pool.parallel(|ctx| {
                    reducer.combine(ctx.thread_num, ctx.thread_num as f64, &barrier);
                    barrier.wait(ctx.thread_num);
                });
                assert_eq!(reducer.result(), expect);
            });
        }
    }

    for (name, policy) in [
        ("active_spin", SPIN),
        ("active_yield", WaitPolicy::Active { yielding: true }),
        (
            "spin_then_sleep",
            WaitPolicy::SpinThenSleep {
                millis: 200,
                yielding: true,
            },
        ),
        ("passive", WaitPolicy::Passive),
    ] {
        let pool = ThreadPool::new(team, policy);
        timed(&format!("wait_{name}_s"), &mut || {
            for _ in 0..8 {
                pool.parallel(|_| {
                    black_box(0u64);
                });
            }
        });
    }

    {
        let pool = ThreadPool::new(team, SPIN);
        type Work = fn(usize) -> u64;
        for (shape, work) in [("skewed", skewed_work as Work), ("uniform", uniform_work)] {
            for (name, schedule) in [
                ("static", OmpSchedule::Static),
                ("dynamic", OmpSchedule::Dynamic),
                ("guided", OmpSchedule::Guided),
            ] {
                timed(&format!("{shape}_{name}_s"), &mut || {
                    let sink = AtomicU64::new(0);
                    parallel_for(&pool, schedule, SCHEDULED, |i| {
                        sink.fetch_add(work(i) & 1, Ordering::Relaxed);
                    });
                    black_box(sink.into_inner());
                });
            }
        }
    }

    let (idle, collecting, tracing, checking) = {
        let pool = ThreadPool::new(team, SPIN);
        let idle = timed("real_idle_s", &mut || real_workload(&pool));
        let collecting = timed("real_collecting_s", &mut || {
            let session = omptel::session().expect("exclusive session");
            real_workload(&pool);
            black_box(session.finish());
        });
        let tracing = timed("real_tracing_s", &mut || {
            let session = trace::session();
            real_workload(&pool);
            black_box(session.finish().len());
        });
        let checking = timed("real_checking_s", &mut || {
            let session = trace::session();
            real_workload(&pool);
            let report = omplint::check_trace(&session.finish());
            assert!(report.is_clean(), "the traced workload must certify clean");
            black_box(report.stats.events);
        });
        (idle, collecting, tracing, checking)
    };

    let app = workloads::app("cg").expect("cg registered");
    let setting = workloads::Setting {
        input_code: 0,
        num_threads: 48,
    };
    let model = (app.model)(Arch::Milan, setting);
    let config = TuningConfig::default_for(Arch::Milan, 48);
    let sim_idle = timed("sim_idle_s", &mut || {
        black_box(simrt::simulate(Arch::Milan, &config, &model, 0).total_ns);
    });
    let sim_collecting = timed("sim_collecting_s", &mut || {
        let session = omptel::session().expect("exclusive session");
        black_box(simrt::simulate(Arch::Milan, &config, &model, 0).total_ns);
        black_box(session.finish());
    });

    doc.ratio("telemetry_overhead", collecting / idle)
        .ratio("tracing_overhead", tracing / idle)
        .ratio("checking_overhead", checking / idle)
        .ratio("sim_telemetry_overhead", sim_collecting / sim_idle)
        .publish("BENCH_runtime.json");
}
