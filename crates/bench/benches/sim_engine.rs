//! Throughput of the simulation substrate: event-queue operations,
//! per-application simulation cost (what bounds the 240k-run sweep), and
//! the chunk-granularity ablation called out in DESIGN.md.

use archsim::EventQueue;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use omptune_core::{Arch, OmpSchedule, TuningConfig};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(i * 7 % 9973, i);
            }
            let mut last = 0;
            while let Some((t, _)) = q.pop() {
                last = t;
            }
            std::hint::black_box(last);
        });
    });
}

fn bench_simulate_apps(c: &mut Criterion) {
    // Per-run simulation cost for a representative app per category —
    // multiply by ~244k to estimate the paper-sized sweep time.
    let mut group = c.benchmark_group("simulate_one_run");
    for app_name in ["cg", "nqueens", "xsbench", "lulesh"] {
        let app = workloads::app(app_name).expect("registered");
        let setting = workloads::Setting {
            input_code: 1,
            num_threads: 96,
        };
        let model = (app.model)(Arch::Milan, setting);
        let config = TuningConfig::default_for(Arch::Milan, 96);
        group.bench_with_input(BenchmarkId::from_parameter(app_name), &model, |b, model| {
            b.iter(|| {
                let r = simrt::simulate(Arch::Milan, &config, model, 0);
                std::hint::black_box(r.total_ns);
            });
        });
    }
    group.finish();
}

fn bench_schedule_model_cost(c: &mut Criterion) {
    // Ablation: the three schedule models differ in simulation cost
    // (static is closed-form per thread, guided walks the chunk list).
    let mut group = c.benchmark_group("simulate_by_schedule");
    let app = workloads::app("cg").expect("registered");
    let setting = workloads::Setting {
        input_code: 2,
        num_threads: 96,
    };
    let model = (app.model)(Arch::Milan, setting);
    for schedule in [
        OmpSchedule::Static,
        OmpSchedule::Dynamic,
        OmpSchedule::Guided,
    ] {
        let config = TuningConfig {
            schedule,
            ..TuningConfig::default_for(Arch::Milan, 96)
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{schedule:?}")),
            &config,
            |b, config| {
                b.iter(|| {
                    let r = simrt::simulate(Arch::Milan, config, &model, 0);
                    std::hint::black_box(r.total_ns);
                });
            },
        );
    }
    group.finish();
}

fn bench_all_projections_one_cache(c: &mut Criterion) {
    // The per-build cost behind the end-to-end sweep numbers: all 192
    // plan projections of one setting built through one `PlanCache`
    // (shared skeletons and region memo).
    use omptune_core::{KmpLibrary, OmpPlaces, OmpProcBind};
    let app = workloads::app("cg").expect("registered");
    let setting = workloads::Setting {
        input_code: 1,
        num_threads: 96,
    };
    let model = (app.model)(Arch::Milan, setting);
    let mut configs = Vec::with_capacity(192);
    for places in OmpPlaces::ALL {
        for proc_bind in OmpProcBind::ALL {
            for schedule in OmpSchedule::ALL {
                for library in KmpLibrary::ALL {
                    configs.push(TuningConfig {
                        places,
                        proc_bind,
                        schedule,
                        library,
                        ..TuningConfig::default_for(Arch::Milan, 96)
                    });
                }
            }
        }
    }
    let mut group = c.benchmark_group("plan_192_projections");
    group.bench_function("one_plan_cache", |b| {
        b.iter(|| {
            let cache = simrt::PlanCache::new(Arch::Milan, &model, 0);
            for config in &configs {
                std::hint::black_box(cache.plan(config, &model));
            }
        });
    });
    group.finish();
}

fn bench_full_space_one_setting(c: &mut Criterion) {
    // The realistic unit of sweep work: one (app, setting) batch over a
    // strided slice of the configuration space.
    c.bench_function("sweep_ep_milan_strided64", |b| {
        let spec = sweep::SweepSpec {
            scope: sweep::Scope::Strided(64),
            reps: 3,
            seed: 5,
            ..sweep::SweepSpec::default()
        };
        let app = workloads::app("ep").expect("registered");
        let setting = workloads::Setting {
            input_code: 0,
            num_threads: 96,
        };
        b.iter(|| {
            let data = sweep::sweep_setting(Arch::Milan, app, setting, 0, &spec);
            std::hint::black_box(data.samples.len());
        });
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_event_queue, bench_simulate_apps, bench_schedule_model_cost,
        bench_all_projections_one_cache, bench_full_space_one_setting
}
criterion_main!(benches);
