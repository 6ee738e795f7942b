//! `simrt::explain` over the whole catalog. The test lives here, not in
//! `simrt`, because the catalog models do: every application at its
//! largest A64FX setting (all fifteen run there, single- and
//! multi-timestep models alike), plus two hand-built mixed models, each
//! under the default configuration and a master-bound one, must explain
//! the very run `simrt::simulate` prices.

use omptune_core::{Arch, OmpProcBind, TuningConfig};
use simrt::{AccessPattern, Imbalance, LoopPhase, Model, Phase, TaskPhase};

const ARCH: Arch = Arch::A64fx;
const SEED: u64 = 20_240_417;

/// A loop, a serial stub and a task phase, over `timesteps` steps.
fn mixed_model(timesteps: u32) -> Model {
    Model {
        name: "mixed".into(),
        phases: vec![
            Phase::Loop(LoopPhase {
                iters: 100_000,
                cycles_per_iter: 400.0,
                bytes_per_iter: 0.0,
                access: AccessPattern::CacheResident,
                imbalance: Imbalance::Uniform,
                reductions: 1,
            }),
            Phase::Serial { ns: 10_000.0 },
            Phase::Tasks(TaskPhase {
                n_tasks: 1_000,
                cycles_per_task: 9_000.0,
                cv: 0.2,
                starvation: 0.4,
                bytes_per_task: 0.0,
            }),
        ],
        timesteps,
        migration_sensitivity: 0.0,
    }
}

/// Each input once: every catalog application at its largest setting,
/// then the mixed model over ten steps and over one.
fn models() -> Vec<(String, Model)> {
    let mut out: Vec<(String, Model)> = workloads::apps_on(ARCH)
        .into_iter()
        .map(|app| {
            let setting = *workloads::settings_for(app, ARCH).last().unwrap();
            (app.name.to_string(), (app.model)(ARCH, setting))
        })
        .collect();
    out.push(("mixed x10".into(), mixed_model(10)));
    out.push(("mixed x1".into(), mixed_model(1)));
    out
}

#[test]
fn every_explanation_prices_the_run_simulate_prices() {
    let models = models();
    assert_eq!(models.len(), 17, "all fifteen apps run on A64FX");
    let single = models.iter().filter(|(_, m)| m.timesteps == 1).count();
    assert_eq!(single, 9, "eight single-timestep apps and one mixed model");
    let default = TuningConfig::default_for(ARCH, ARCH.cores());
    let master = TuningConfig {
        proc_bind: OmpProcBind::Master,
        ..default
    };
    for (name, model) in &models {
        for (label, config) in [("default", &default), ("master", &master)] {
            let what = format!("{name} ({label})");
            let e = simrt::explain(ARCH, config, model, SEED);
            assert_eq!(
                e.result,
                simrt::simulate(ARCH, config, model, SEED),
                "{what}"
            );
            assert_eq!(e.phases.len(), model.phases.len(), "{what}");
            let sum: f64 = e.phases.iter().map(|p| p.ns).sum();
            let total = e.result.total_ns;
            assert!(
                (sum - total).abs() <= 1e-12 * total,
                "{what}: phases sum to {sum}, the run is {total}"
            );
            for p in &e.phases {
                assert!(
                    (p.sinks.sum() - p.ns).abs() <= 1e-12 * p.ns.max(1.0),
                    "{what}: phase {} sinks sum to {}, its span is {}",
                    p.index,
                    p.sinks.sum(),
                    p.ns
                );
                for sink in omptel::Sink::ALL {
                    assert!(
                        p.sinks.get(sink) >= 0.0,
                        "{what}: negative {sink:?} in phase {}",
                        p.index
                    );
                }
            }
        }
    }
}
