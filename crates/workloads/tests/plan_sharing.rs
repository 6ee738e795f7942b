//! Oracle for the plan cache's shared planning state, over the whole
//! catalog and four `ompfuzz` shapes: one configuration per raw
//! (places, bind, schedule, library) combination — 192, which project
//! onto 78 canonical plans — of every (model x architecture x setting),
//! priced through ONE `PlanCache`, must be bit-identical to
//! `simulate_monolithic` — in whatever order the configurations arrive,
//! so that each planned region is also consumed by projections other
//! than the one that computed it, and each plan is built exactly once.

use omptune_core::{
    Arch, KmpAlignAlloc, KmpBlocktime, KmpForceReduction, KmpLibrary, OmpPlaces, OmpProcBind,
    OmpSchedule, TuningConfig,
};
use simrt::{simulate_monolithic, simulate_with_cache, Model, PlanCache, SimResult};
use std::sync::Barrier;

const SEED: u64 = 20_240_417;

/// One configuration per raw (places, bind, schedule, library)
/// combination, in odometer order, with the pricing variables cycling so
/// every pricing value meets many plans.
fn one_config_per_projection(arch: Arch, t: usize) -> Vec<TuningConfig> {
    let aligns = KmpAlignAlloc::domain(arch);
    let mut out = Vec::with_capacity(192);
    for places in OmpPlaces::ALL {
        for proc_bind in OmpProcBind::ALL {
            for schedule in OmpSchedule::ALL {
                for library in KmpLibrary::ALL {
                    let i = out.len();
                    out.push(TuningConfig {
                        places,
                        proc_bind,
                        schedule,
                        library,
                        blocktime: KmpBlocktime::ALL[i % 3],
                        force_reduction: KmpForceReduction::ALL[i % 4],
                        align_alloc: aligns[i % aligns.len()],
                        num_threads: t,
                    });
                }
            }
        }
    }
    out
}

/// Seeded Fisher-Yates over `0..n` (splitmix64 stream).
fn shuffled(n: usize, mut state: u64) -> Vec<usize> {
    let mut next = move || {
        state = state.wrapping_add(omptune_core::SPLITMIX64_GAMMA);
        omptune_core::mix64(state)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    order
}

fn assert_bit_equal(got: &SimResult, want: &SimResult, what: &str) {
    assert_eq!(
        got.total_ns.to_bits(),
        want.total_ns.to_bits(),
        "{what}: total_ns"
    );
    assert_eq!(got.regions, want.regions, "{what}: regions");
    let (g, w) = (&got.breakdown, &want.breakdown);
    for (l, r, sink) in [
        (g.compute_ns, w.compute_ns, "compute"),
        (g.memory_ns, w.memory_ns, "memory"),
        (g.sync_ns, w.sync_ns, "sync"),
        (g.wake_ns, w.wake_ns, "wake"),
        (g.dispatch_ns, w.dispatch_ns, "dispatch"),
        (g.serial_ns, w.serial_ns, "serial"),
    ] {
        assert_eq!(l.to_bits(), r.to_bits(), "{what}: {sink}_ns");
    }
}

/// `ompfuzz` seeds whose programs carry shapes no catalog app has
/// together: a loop/reduce/task mix, locks and sections, a wide
/// six-node program, and a task tree.
const FUZZ_SEEDS: [u64; 4] = [0, 5, 6, 10];

/// Every catalog model with its arch, then each fuzz seed's model on the
/// full machine at one, three and nine timesteps (the input classes'
/// work steps).
fn catalog_models() -> Vec<(String, Arch, Model, usize)> {
    let mut out = Vec::new();
    for arch in Arch::ALL {
        for app in workloads::apps_on(arch) {
            for setting in workloads::settings_for(app, arch) {
                let what = format!("{}/{}/{:?}", arch.id(), app.name, setting);
                let model = (app.model)(arch, setting);
                out.push((what, arch, model, setting.num_threads));
            }
        }
        for seed in FUZZ_SEEDS {
            for timesteps in [1, 3, 9] {
                let what = format!("{}/fuzz-{seed}/x{timesteps}", arch.id());
                let mut model = ompfuzz::generate(seed).to_model();
                model.timesteps = timesteps;
                out.push((what, arch, model, arch.cores()));
            }
        }
    }
    out
}

#[test]
fn shared_plan_cache_is_bit_identical_to_monolithic_in_any_order() {
    for (what, arch, model, t) in catalog_models() {
        let configs = one_config_per_projection(arch, t);
        let want: Vec<SimResult> = configs
            .iter()
            .map(|c| simulate_monolithic(arch, c, &model, SEED))
            .collect();
        let check = |cache: &PlanCache, i: usize, order: &str| {
            let got = simulate_with_cache(arch, &configs[i], &model, SEED, cache);
            assert_bit_equal(&got, &want[i], &format!("{what} #{i} ({order})"));
        };

        // (a) Odometer order: each region is computed by the first
        // projection of its class and reused by the later ones; a
        // configuration `canonical()` rewrites finds its plan built.
        let cache = PlanCache::new(arch, &model, SEED);
        for i in 0..configs.len() {
            check(&cache, i, "odometer");
        }
        assert_eq!(cache.stats(), (114, 78), "{what}: one build per plan");

        // (b) Shuffled: some other projection computes each region.
        let cache = PlanCache::new(arch, &model, SEED);
        for i in shuffled(configs.len(), SEED ^ t as u64) {
            check(&cache, i, "shuffled");
        }

        // (c) Four threads racing on one cache from staggered starts,
        // released together so the first builds collide on the state
        // and on the keys: a probe that meets a build under way waits.
        let cache = PlanCache::new(arch, &model, SEED);
        let start = Barrier::new(4);
        std::thread::scope(|s| {
            for k in 0..4 {
                let (cache, start, check, n) = (&cache, &start, &check, configs.len());
                s.spawn(move || {
                    start.wait();
                    for j in 0..n {
                        check(cache, (j + k * 48) % n, "racing");
                    }
                });
            }
        });
        assert_eq!(cache.len(), 78, "{what}");
        assert_eq!(cache.stats(), (4 * 192 - 78, 78), "{what}: built once");
    }
}
