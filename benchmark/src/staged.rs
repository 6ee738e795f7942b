//! The traced run: an in-process staged driver at `workers = 1` (so wall
//! time is CPU time and self times close) that replays every workload's
//! stages through the layers' public functions, one span per call.
//!
//! Top-level spans, in order:
//!
//! - `collect_cold`, `collect_warm` — what `collect` does, stage by stage,
//!   against an empty and then a filled sample cache;
//! - `sweep_dense` — the scheduler over the dense space;
//! - `analyse` — what `repro-tables`, `repro-figures` and `ompprof
//!   attribute` do;
//! - `isolated` — layers hidden inside `sweep_arch_scheduled` (plan
//!   build, batch pricing, energy, cache store/load/lookup) replayed on
//!   the same inputs, plus the few measurements that need their own
//!   set-up (registry at 32 records, metrics exposition, the N-worker
//!   sweep, a real `collect --workers 1` to close the staged total).
//!
//! No workload touches every layer, so a per-workload trace would be
//! mostly exact zeros; instead every traced run replays all five groups
//! and `README.md` says which workload each row belongs to.

use crate::e2e::{check_dense_counts, collect_spec};
use crate::measure::{self, dir_bytes, reap};
use crate::trace::{self, span, timed, Tracer};
use crate::Ctx;
use bench_harness::{ReproScope, Reproduction};
use omptune_core::{Arch, GroupBy, LiveInfluence, TuningConfig};
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;
use sweep::{Dataset, SampleCache, SettingData, SweepOptions, SweepSpec, SweepStats};

/// Config strata of collect's tsdb series; must match `collect.rs`.
const STRATA: usize = 8;
/// Records in the registry when its load is timed (one per pass of a
/// `collect_warm` run).
const REGISTRY_RECORDS: usize = 32;

/// One per-layer metric as printed.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct Traced {
    pub metrics: Vec<LayerMetric>,
    /// Checks that failed (empty when the replay reproduced everything).
    pub failures: Vec<String>,
    /// Human-readable per-layer table, µs per sample, cold and warm.
    pub table: String,
    pub virt_fnv: u64,
    pub tracer: Tracer,
}

fn io_err(what: &Path, e: std::io::Error) -> String {
    format!("{}: {e}", what.display())
}

// ---------------------------------------------------------------------------
// collect, staged.

struct Collected {
    /// Cleaned batches of all three architectures, catalog order.
    batches: Vec<SettingData>,
    stats: SweepStats,
    provenance_fnv: u64,
    core: sweep::CollectCore,
    tsdb_points: u64,
    dropped: u64,
}

/// `collect <scope> OUT --workers 1 --cache-dir CACHE --registry REG`,
/// with a span around every call into a layer. Follows `collect.rs`'s
/// `main` step for step (default flags: influence trackers on, no
/// monitor, no recorder) and writes the same files.
fn staged_collect(
    stage: &'static str,
    spec: &SweepSpec,
    out_dir: &Path,
    cache_dir: &Path,
    registry_dir: &Path,
) -> Result<Collected, String> {
    let _stage = span(stage);
    std::fs::create_dir_all(out_dir).map_err(|e| io_err(out_dir, e))?;
    let cache = SampleCache::new(cache_dir);
    let registry = sweep::Registry::open(registry_dir).map_err(|e| io_err(registry_dir, e))?;
    timed("sweep.registry.load", || registry.load()).map_err(|e| io_err(registry_dir, e))?;

    let influence = Mutex::new(LiveInfluence::new());
    let energy_influence = Mutex::new(LiveInfluence::new());
    let mut manifest = sweep::RunManifest::new(spec);
    let mut core = sweep::CollectCore::new(spec);
    let mut tsdb = omptel::Tsdb::open(out_dir.join("tsdb"), omptel::DEFAULT_CAPACITY)
        .map_err(|e| io_err(out_dir, e))?;
    let mut batches = Vec::new();
    let mut stats = SweepStats::default();
    let (mut tsdb_points, mut dropped_total) = (0u64, 0u64);

    for &arch in Arch::ALL.iter() {
        let meter = omptel::Progress::quiet("sweep", sweep::planned_samples(arch, spec));
        let partials: Mutex<Vec<(sweep::RunKey, sweep::BatchPartial)>> = Mutex::new(Vec::new());
        let observer = |data: &SettingData| {
            timed("core.live_influence", || {
                observe_speedups(&influence, &energy_influence, data)
            });
            let partial = timed("sweep.registry.fold", || sweep::BatchPartial::fold(data));
            partials
                .lock()
                .expect("observer never panics")
                .push((data.key.clone(), partial));
        };
        let opts = SweepOptions::new(1)
            .with_cache(&cache)
            .with_progress(&meter)
            .with_batch_observer(&observer);
        let t0 = Instant::now();
        let outcome = timed("sweep.schedule", || {
            sweep::sweep_arch_scheduled(arch, spec, &opts)
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let mut arch_batches = outcome.batches;

        let dropped = timed("sweep.dataset.clean", || {
            arch_batches
                .iter_mut()
                .map(|data| sweep::clean(data, spec.reps as usize).dropped.len())
                .sum::<usize>()
        });
        dropped_total += dropped as u64;
        let partials = std::mem::take(&mut *partials.lock().expect("observer never panics"));
        timed("sweep.registry.fold", || {
            if dropped == 0 {
                core.push_arch_partials(arch.id(), &arch_batches, partials, 0);
            } else {
                core.push_arch(arch.id(), &arch_batches, dropped as u64);
            }
        });
        tsdb_points += timed("omptel.tsdb", || {
            append_series(&mut tsdb, arch, &arch_batches, &meter, &outcome.stats)
        })
        .map_err(|e| io_err(out_dir, e))?;
        timed("sweep.provenance.manifest", || {
            manifest.push_arch(
                arch,
                &arch_batches,
                dropped,
                elapsed,
                outcome.stats,
                meter.latency_histogram(),
            )
        });
        stats.plan_hits += outcome.stats.plan_hits;
        stats.plan_misses += outcome.stats.plan_misses;
        stats.steals += outcome.stats.steals;
        stats.units += outcome.stats.units;
        batches.extend(arch_batches);
    }
    (stats.sample_hits, stats.sample_misses) = cache.stats();

    let create = |name: &str| {
        let path = out_dir.join(name);
        std::fs::File::create(&path)
            .map(BufWriter::new)
            .map_err(|e| io_err(&path, e))
    };
    let dataset = timed("sweep.dataset.build", || Dataset::build(&batches));
    let mut csv = create("samples.csv")?;
    timed("sweep.export.csv", || {
        sweep::export::write_csv(&dataset, &mut csv).and_then(|()| csv.flush())
    })
    .map_err(|e| io_err(out_dir, e))?;
    let mut raw = create("raw_batches.json")?;
    timed("sweep.export.raw_json", || {
        sweep::export::write_raw_json(&batches, &mut raw).and_then(|()| raw.flush())
    })
    .map_err(|e| io_err(out_dir, e))?;
    let provenance = timed("sweep.provenance.build", || {
        sweep::provenance_of(&batches, spec)
    });
    let mut prov = create("provenance.jsonl")?;
    timed("sweep.provenance.write", || {
        sweep::write_provenance_jsonl(&provenance, &mut prov).and_then(|()| prov.flush())
    })
    .map_err(|e| io_err(out_dir, e))?;
    drop(provenance);
    let mut mf = create("manifest.json")?;
    timed("sweep.provenance.manifest", || {
        sweep::write_manifest(&manifest, &mut mf).and_then(|()| mf.flush())
    })
    .map_err(|e| io_err(out_dir, e))?;
    let mut summary = String::from("samples per architecture (paper Table II)\n");
    for (arch, apps, samples) in timed("sweep.dataset.table2", || dataset.table2()) {
        summary.push_str(&format!(
            "{}: {apps} applications, {samples} samples\n",
            arch.id()
        ));
    }
    std::fs::write(out_dir.join("SUMMARY.txt"), summary).map_err(|e| io_err(out_dir, e))?;

    let manifest_path = out_dir.join("manifest.json");
    let info = sweep::RunInfo {
        workers: 1,
        elapsed_s: 0.0,
        manifest_digest: measure::fnv_file(&manifest_path)
            .map_err(|e| io_err(&manifest_path, e))?,
        out_dir: out_dir.display().to_string(),
        counters: Vec::new(),
    };
    timed("sweep.registry.append", || {
        registry.append(
            sweep::RunCore::Collect(core.clone()),
            info,
            "benchmark",
            sweep::registry::unix_now(),
        )
    })
    .map_err(|e| io_err(registry_dir, e))?;

    let prov_path = out_dir.join("provenance.jsonl");
    Ok(Collected {
        provenance_fnv: measure::fnv_file(&prov_path).map_err(|e| io_err(&prov_path, e))?,
        batches,
        stats,
        core,
        tsdb_points,
        dropped: dropped_total,
    })
}

/// collect's two streaming-influence observers (time and energy).
fn observe_speedups(
    time: &Mutex<LiveInfluence>,
    energy: &Mutex<LiveInfluence>,
    data: &SettingData,
) {
    let default = data.default_mean();
    if default.is_finite() && default > 0.0 {
        let mut live = time.lock().expect("observer never panics");
        for sample in &data.samples {
            let mean = sample.mean_runtime();
            if mean.is_finite() && mean > 0.0 {
                live.observe(&sample.config, default / mean);
            }
        }
    }
    let default = data.default_telemetry.energy.total_j;
    if default.is_finite() && default > 0.0 {
        let mut live = energy.lock().expect("observer never panics");
        for sample in &data.samples {
            let joules = sample.telemetry.energy.total_j;
            if joules.is_finite() && joules > 0.0 {
                live.observe(&sample.config, default / joules);
            }
        }
    }
}

/// collect's per-sample tsdb pattern — two points per sample (virtual
/// time and joules, stratified by config index) plus the per-arch
/// aggregates — through `Tsdb::append`. Returns the points appended.
fn append_series(
    tsdb: &mut omptel::Tsdb,
    arch: Arch,
    batches: &[SettingData],
    meter: &omptel::Progress,
    stats: &SweepStats,
) -> std::io::Result<u64> {
    let mut points = 0u64;
    let mut put = |series: String, ts: u64, count: u64, sum: f64| {
        points += 1;
        tsdb.append(&series, omptel::Point { ts, count, sum })
    };
    let id = arch.id();
    let mut stratum_seq = [0u64; STRATA];
    let (mut joules_sum, mut edp_sum, mut samples) = (0.0f64, 0.0f64, 0u64);
    for data in batches {
        for sample in &data.samples {
            samples += 1;
            let energy = &sample.telemetry.energy;
            if energy.total_j.is_finite() {
                joules_sum += energy.total_j;
                edp_sum += energy.edp_js(sample.telemetry.virtual_ns);
            }
            let finite: Vec<f64> = sample
                .runtimes
                .iter()
                .copied()
                .filter(|t| t.is_finite())
                .collect();
            if finite.is_empty() {
                continue;
            }
            let k = sample.config_index % STRATA;
            let ts = stratum_seq[k];
            stratum_seq[k] += 1;
            put(
                format!("{id}/virt/s{k}"),
                ts,
                finite.len() as u64,
                finite.iter().sum(),
            )?;
            if energy.total_j.is_finite() && energy.total_j > 0.0 {
                put(format!("{id}/energy/s{k}"), ts, 1, energy.total_j)?;
            }
        }
    }
    if joules_sum > 0.0 {
        put(format!("{id}/energy/joules"), 0, samples, joules_sum)?;
        put(format!("{id}/energy/edp_js"), 0, samples, edp_sum)?;
    }
    let latency = meter.latency_histogram();
    if !latency.is_empty() {
        put(
            format!("{id}/wall/sample_ns"),
            0,
            latency.count,
            meter.latency_sum_ns() as f64,
        )?;
    }
    let lookups = stats.sample_hits + stats.sample_misses;
    if lookups > 0 {
        put(
            format!("{id}/rate/cache_hit"),
            0,
            lookups,
            stats.sample_hits as f64,
        )?;
    }
    if stats.units > 0 {
        put(
            format!("{id}/rate/steal"),
            0,
            stats.units,
            stats.steals as f64,
        )?;
    }
    Ok(points)
}

// ---------------------------------------------------------------------------
// Layers hidden inside `sweep_arch_scheduled`, replayed in isolation.

#[derive(Debug, Default, Clone, Copy)]
struct SimrtReplay {
    builds: u64,
    hits: u64,
    configs: u64,
}

/// Every (arch, setting) of the paper roster in sweep order, with the
/// setting's workload model and the configurations `spec` samples for it
/// — the inputs `sweep_arch_scheduled` builds its batch jobs from.
fn for_each_setting(
    spec: &SweepSpec,
    mut f: impl FnMut(Arch, workloads::Setting, &simrt::Model, &[(usize, TuningConfig)]),
) {
    for &arch in Arch::ALL.iter() {
        let settings = workloads::apps_on(arch).into_iter().flat_map(|app| {
            workloads::settings_for(app, arch)
                .into_iter()
                .map(move |s| (app, s))
        });
        for (setting_idx, (app, setting)) in settings.enumerate() {
            let model = (app.model)(arch, setting);
            let configs =
                sweep::spec::configs_for(arch, setting.num_threads, setting_idx, spec.scope);
            f(arch, setting, &model, &configs);
        }
    }
}

/// Replay the scheduler's simulator calls for `spec` in its own order at
/// one worker: per setting a fresh `PlanCache`; per ≤256-config unit, one
/// `plan_batch` + `price_batch` + energy pricing per run of configs that
/// share a plan projection; then the setting's default row.
fn replay_simrt(spec: &SweepSpec) -> SimrtReplay {
    let mut replay = SimrtReplay::default();
    let mut scratch = simrt::PriceScratch::new();
    let mut sims: Vec<simrt::SimResult> = Vec::new();
    let mut group: Vec<TuningConfig> = Vec::new();
    let energy_of = |arch: Arch, config: &TuningConfig, sim: &simrt::SimResult| {
        let breakdown = sim.breakdown.to_tel().close_to_total(sim.total_ns);
        simrt::price_energy(arch, config, &breakdown, sim.total_ns, sim.regions)
    };
    for_each_setting(spec, |arch, setting, model, configs| {
        let plans = simrt::PlanCache::new(arch, model, spec.seed);
        for unit in configs.chunks(sweep::schedule::UNIT_CONFIGS) {
            for run in unit.chunk_by(|a, b| a.1.plan_projection() == b.1.plan_projection()) {
                group.clear();
                group.extend(run.iter().map(|&(_, config)| config));
                let plan = timed("simrt.plan", || {
                    plans.plan_batch(&group[0], model, group.len() as u64)
                });
                sims.clear();
                timed("simrt.price", || {
                    plan.price_batch(&group, &mut scratch, &mut sims)
                });
                timed("simrt.energy", || {
                    for (config, sim) in group.iter().zip(&sims) {
                        black_box(energy_of(arch, config, sim));
                    }
                });
            }
        }
        let default = TuningConfig::default_for(arch, setting.num_threads);
        let plan = timed("simrt.plan", || plans.plan(&default, model));
        let sim = timed("simrt.price", || plan.price(&default));
        timed("simrt.energy", || {
            black_box(energy_of(arch, &default, &sim))
        });
        let (hits, misses) = plans.stats();
        replay.builds += misses;
        replay.hits += hits;
        replay.configs += configs.len() as u64 + 1;
    });
    replay
}

/// The other simulator entry, `simrt::simulate` (what `sweep::sweep_all`
/// and so `Reproduction::generate` call per config: a plan built and
/// priced once, never reused), over every config of `spec`.
fn replay_simulate(spec: &SweepSpec) -> u64 {
    let mut configs_run = 0u64;
    for_each_setting(spec, |arch, _, model, configs| {
        timed("simrt.simulate", || {
            for (_, config) in configs {
                black_box(simrt::simulate(arch, config, model, spec.seed));
            }
        });
        configs_run += configs.len() as u64;
    });
    configs_run
}

struct CacheReplay {
    stored_bytes: u64,
    lookups: u64,
    hits: u64,
    corrupt: u64,
}

/// Store every batch into an empty cache, then load and look every
/// sample up through a fresh handle, as a cold and then a warm sweep do.
fn replay_cache(
    dir: &Path,
    batches: &[SettingData],
    spec: &SweepSpec,
) -> Result<CacheReplay, String> {
    let cache = SampleCache::new(dir);
    for data in batches {
        timed("sweep.cache.store", || cache.store_batch(data, spec)).map_err(|e| io_err(dir, e))?;
    }
    let mut replay = CacheReplay {
        stored_bytes: dir_bytes(dir),
        lookups: 0,
        hits: 0,
        corrupt: 0,
    };
    let cache = SampleCache::new(dir);
    for data in batches {
        let entries = timed("sweep.cache.load", || cache.load_batch(&data.key, spec));
        timed("sweep.cache.lookup", || {
            for sample in &data.samples {
                replay.lookups += 1;
                match entries.lookup(sample.config_index, &sample.config) {
                    Some((runtimes, telemetry))
                        if telemetry.virtual_ns.to_bits()
                            == sample.telemetry.virtual_ns.to_bits()
                            && runtimes.len() == sample.runtimes.len()
                            && runtimes
                                .iter()
                                .zip(&sample.runtimes)
                                .all(|(a, b)| a.to_bits() == b.to_bits()) =>
                    {
                        replay.hits += 1
                    }
                    Some(_) => replay.corrupt += 1,
                    None => {}
                }
            }
        });
    }
    Ok(replay)
}

// ---------------------------------------------------------------------------
// analyse, staged.

struct Analysed {
    samples: u64,
    influence_models: u64,
}

/// What `repro-tables fast all`, `repro-figures fast all DIR` and
/// `ompprof attribute --data OUT` do. The two `repro-*` binaries each
/// generate the dataset; it is generated (and timed) once here.
fn staged_analyse(collect_out: &Path) -> Result<Analysed, String> {
    let _stage = span("analyse");
    let repro = timed("bench.repro.generate", || {
        Reproduction::generate(ReproScope::Fast)
    });
    {
        let _tables = span("bench.repro.tables");
        black_box(timed("bench.repro.table1", || repro.table1()));
        black_box(timed("bench.repro.table2", || repro.table2()));
        black_box(timed("mlstats.wilcoxon", || repro.table3()));
        black_box(timed("bench.repro.table4", || repro.table4()));
        black_box(timed("bench.repro.table5", || repro.table5()));
        black_box(timed("bench.repro.table6", || repro.table6()));
        black_box(timed("bench.repro.table7", || repro.table7()));
        black_box(timed("bench.repro.q1", || repro.q1()));
        black_box(timed("bench.repro.q2", || repro.q2("xsbench")));
        black_box(timed("bench.repro.q4", || repro.q4()));
    }
    const GROUPS: [GroupBy; 3] = [
        GroupBy::Application,
        GroupBy::Architecture,
        GroupBy::ArchApplication,
    ];
    {
        let _figures = span("bench.repro.figures");
        for app in ["alignment", "bt", "health", "rsbench"] {
            black_box(timed("bench.repro.violin", || {
                (repro.figure_violin(app), repro.violin_csvs(app))
            }));
        }
        for group in GROUPS {
            black_box(timed("bench.repro.heatmap", || {
                (repro.figure_heatmap(group), repro.heatmap_csv(group))
            }));
        }
    }
    let mut influence_models = 0u64;
    for group in GROUPS {
        let heatmap = timed("core.analysis.influence", || {
            omptune_core::influence_analysis(&repro.dataset.records, group)
        })
        .map_err(|e| format!("influence analysis by {group:?}: {e:?}"))?;
        influence_models += heatmap.rows.len() as u64;
    }
    drop(repro);

    let raw_path = collect_out.join("raw_batches.json");
    let bytes =
        timed("io.read_file", || std::fs::read(&raw_path)).map_err(|e| io_err(&raw_path, e))?;
    let batches = timed("sweep.export.read_raw_json", || {
        sweep::export::read_raw_json(&bytes)
    })
    .map_err(|e| io_err(&raw_path, e))?;
    drop(bytes);
    let fingerprint = timed("sweep.provenance.fingerprint", || {
        sweep::slice_fingerprint(&batches)
    });
    let profile = timed("ompprof.attrib.fold", || {
        let mut profile = ompprof::Attribution::new();
        profile.fold_slice(&batches);
        black_box(profile.to_json(&ompprof::SliceMeta {
            arch: "milan".into(),
            app: "cg".into(),
            scope: "data:collect_out".into(),
            seed: SweepSpec::default().seed,
            fingerprint,
        }));
        profile
    });
    Ok(Analysed {
        samples: profile.samples(),
        influence_models,
    })
}

// ---------------------------------------------------------------------------
// The run.

pub fn run(ctx: &Ctx) -> Result<Traced, String> {
    let fast = SweepSpec {
        seed: ctx.seed,
        ..collect_spec(ctx.collect_scope().1)
    };
    let dense = SweepSpec {
        scope: ctx.dense_scope(),
        ..fast
    };
    let dir = &ctx.scratch;
    let (cache_dir, registry_dir) = (dir.join("cache"), dir.join("registry"));
    let failures = std::cell::RefCell::new(Vec::new());
    let check = |ok: bool, what: String| {
        if !ok {
            eprintln!("traced run: CHECK FAILED: {what}");
            failures.borrow_mut().push(what);
        }
    };

    trace::start();
    let t_total = Instant::now();

    let cold = staged_collect(
        "collect_cold",
        &fast,
        &dir.join("out_cold"),
        &cache_dir,
        &registry_dir,
    )?;
    let jsonl = registry_dir.join("registry.jsonl");
    let jsonl_before = std::fs::metadata(&jsonl).map(|m| m.len()).unwrap_or(0);
    let warm = staged_collect(
        "collect_warm",
        &fast,
        &dir.join("out_warm"),
        &cache_dir,
        &registry_dir,
    )?;
    let append_bytes = std::fs::metadata(&jsonl).map(|m| m.len()).unwrap_or(0) - jsonl_before;
    let fast_samples: u64 = cold.batches.iter().map(|b| b.samples.len() as u64).sum();
    check(
        cold.provenance_fnv == warm.provenance_fnv,
        format!(
            "cold provenance {:016x} != warm {:016x}",
            cold.provenance_fnv, warm.provenance_fnv
        ),
    );
    check(
        cold.stats.sample_hits == 0 && cold.stats.plan_misses > 0,
        format!("cold stage stats {:?}", cold.stats),
    );
    check(
        warm.stats.plan_misses == 0
            && warm.stats.sample_misses == 0
            && warm.stats.sample_hits == cold.stats.sample_misses,
        format!("warm stage simulated: {:?}", warm.stats),
    );
    check(
        cold.core == warm.core,
        "cold and warm registry cores differ".into(),
    );

    let (dense_stats, dense_fingerprint, virt_fnv, dense_samples) = {
        let _stage = span("sweep_dense");
        let outcome = timed("sweep.schedule", || {
            sweep::sweep_all_scheduled(&dense, &SweepOptions::new(1))
        });
        let fingerprint = timed("sweep.provenance.fingerprint", || {
            sweep::slice_fingerprint(&outcome.batches)
        });
        let samples = check_dense_counts(&dense, &outcome.batches).unwrap_or_else(|why| {
            check(false, why);
            0
        });
        (
            outcome.stats,
            fingerprint,
            measure::virt_fnv(&outcome.batches),
            samples,
        )
    };

    let analysed = staged_analyse(&dir.join("out_cold"))?;
    check(
        analysed.samples == fast_samples,
        format!(
            "attribution folded {} samples of {fast_samples}",
            analysed.samples
        ),
    );

    let isolated = span("isolated");
    let replay_fast = timed("replay.fast", || replay_simrt(&fast));
    let replay_dense = timed("replay.dense", || replay_simrt(&dense));
    check(
        replay_fast.builds == cold.stats.plan_misses,
        format!(
            "replayed {} plan builds, the cold sweep counted {}",
            replay_fast.builds, cold.stats.plan_misses
        ),
    );
    check(
        replay_dense.builds == dense_stats.plan_misses
            && replay_dense.hits == dense_stats.plan_hits,
        format!("dense replay {replay_dense:?} vs sweep {dense_stats:?}"),
    );
    // The same replay with spans off prices the tracing itself; it is the
    // span-densest section of the run (three spans per projection group).
    trace::set_enabled(false);
    let t_off = Instant::now();
    black_box(replay_simrt(&dense));
    let dense_off_s = t_off.elapsed().as_secs_f64();
    trace::set_enabled(true);

    let simulate_configs = timed("replay.simulate", || replay_simulate(&fast));
    let cache_replay = timed("replay.cache", || {
        replay_cache(&dir.join("cache_isolated"), &cold.batches, &fast)
    })?;
    check(
        cache_replay.hits == cache_replay.lookups && cache_replay.corrupt == 0,
        format!(
            "isolated cache: {} of {} lookups hit, {} corrupt",
            cache_replay.hits, cache_replay.lookups, cache_replay.corrupt
        ),
    );

    // Registry::load at REGISTRY_RECORDS records (filled untimed).
    let registry_iso = dir.join("registry_isolated");
    let registry = sweep::Registry::open(&registry_iso).map_err(|e| io_err(&registry_iso, e))?;
    for _ in 0..REGISTRY_RECORDS {
        registry
            .append(
                sweep::RunCore::Collect(warm.core.clone()),
                sweep::RunInfo::default(),
                "benchmark",
                sweep::registry::unix_now(),
            )
            .map_err(|e| io_err(&registry_iso, e))?;
    }
    let loaded = timed("sweep.registry.load_32", || registry.load())
        .map_err(|e| io_err(&registry_iso, e))?;
    check(
        loaded.records.len() == REGISTRY_RECORDS && loaded.corrupt_skipped == 0,
        format!("registry load saw {} records", loaded.records.len()),
    );

    let exposition = timed("omptel.metrics", || {
        omptel::MetricsSnapshot::capture().render_prometheus()
    });

    // The dense sweep again at every core, for the scheduler's speed-up.
    let nw = timed("sweep.schedule.nw", || {
        sweep::sweep_all_scheduled(&dense, &SweepOptions::new(ctx.workers))
    });
    check(
        sweep::slice_fingerprint(&nw.batches) == dense_fingerprint,
        format!(
            "{}-worker dense sweep differs from the 1-worker one",
            ctx.workers
        ),
    );
    let nw_stats = nw.stats;
    drop(nw);

    // A real `collect --workers 1` on an empty cache: what the staged
    // cold total leaves unattributed (process start, progress output,
    // everything `main` does between the calls timed above).
    let t_sub = Instant::now();
    let (sub_ok, sub_usage) = timed("collect.subprocess", || {
        std::process::Command::new(ctx.bin("collect"))
            .arg(ctx.collect_scope().0)
            .arg(dir.join("out_sub"))
            .args(["--workers", "1", "--cache-dir"])
            .arg(dir.join("cache_sub"))
            .arg("--registry")
            .arg(dir.join("registry_sub"))
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .and_then(reap)
    })
    .map_err(|e| format!("cannot run collect: {e}"))?;
    let collect_sub_s = t_sub.elapsed().as_secs_f64();
    let collect_sub_cpu_s = sub_usage.cpu_s;
    check(sub_ok, "collect --workers 1 failed".into());
    if ctx.seed == SweepSpec::default().seed {
        let sub = measure::fnv_file(&dir.join("out_sub/provenance.jsonl")).unwrap_or(0);
        check(
            sub == cold.provenance_fnv,
            format!(
                "collect's provenance {sub:016x} != staged {:016x}",
                cold.provenance_fnv
            ),
        );
    }
    drop(isolated);

    let total_s = t_total.elapsed().as_secs_f64();
    let tracer = trace::finish();

    // ---- metrics -----------------------------------------------------------
    let t = &tracer;
    let top: f64 = t.top_level().map(|(_, secs)| secs).sum();
    check(
        (top - total_s).abs() <= 0.02 * total_s,
        format!("top-level spans sum to {top:.3} s of {total_s:.3} s"),
    );
    let stage_s = |name: &str| t.top_level_secs(name);
    // Work the cold and the warm stage both do on the same data is
    // reported as the mean of the two.
    let both = |name: &str| (t.busy("collect_cold", name) + t.busy("collect_warm", name)) / 2.0;
    let file_len = |name: &str| {
        std::fs::metadata(dir.join("out_warm").join(name))
            .map(|m| m.len() as f64)
            .unwrap_or(0.0)
    };

    let plan_busy = t.busy("replay.fast", "simrt.plan");
    let price_busy = t.busy("replay.dense", "simrt.price");
    let dense_busy = t.busy("sweep_dense", "sweep.schedule");
    let dense_replayed =
        t.busy("replay.dense", "simrt.plan") + price_busy + t.busy("replay.dense", "simrt.energy");
    let dense_on_s = t.busy("isolated", "replay.dense");
    let nw_busy = t.busy("isolated", "sweep.schedule.nw");
    let tsdb_busy = both("omptel.tsdb");
    let attrib_busy = t.busy("analyse", "ompprof.attrib.fold");
    let cold_s = stage_s("collect_cold");

    let m = |name, unit, value| LayerMetric { name, unit, value };
    let metrics = vec![
        m("simrt.plan.builds", "count", replay_fast.builds as f64),
        m("simrt.plan.busy_s", "s", plan_busy),
        m(
            "simrt.plan.hit_ratio",
            "ratio",
            replay_fast.hits as f64 / (replay_fast.hits + replay_fast.builds) as f64,
        ),
        m(
            "simrt.plan.dense_hit_ratio",
            "ratio",
            replay_dense.hits as f64 / (replay_dense.hits + replay_dense.builds) as f64,
        ),
        m("simrt.price.configs", "count", replay_dense.configs as f64),
        m("simrt.price.busy_s", "s", price_busy),
        m(
            "simrt.price.ns_per_config",
            "ns",
            price_busy * 1e9 / replay_dense.configs as f64,
        ),
        m(
            "simrt.energy.busy_s",
            "s",
            t.busy("replay.dense", "simrt.energy"),
        ),
        m(
            "simrt.simulate.us_per_config",
            "us",
            t.busy("replay.simulate", "simrt.simulate") * 1e6 / simulate_configs as f64,
        ),
        m("sweep.schedule.busy_s", "s", dense_busy),
        m("sweep.schedule.self_s", "s", dense_busy - dense_replayed),
        m("sweep.schedule.units", "count", nw_stats.units as f64),
        m("sweep.schedule.steals", "count", nw_stats.steals as f64),
        m("sweep.schedule.speedup_nw", "ratio", dense_busy / nw_busy),
        m(
            "sweep.schedule.cold_s",
            "s",
            t.busy("collect_cold", "sweep.schedule"),
        ),
        m(
            "sweep.schedule.warm_s",
            "s",
            t.busy("collect_warm", "sweep.schedule"),
        ),
        m(
            "sweep.cache.store.busy_s",
            "s",
            t.busy("replay.cache", "sweep.cache.store"),
        ),
        m(
            "sweep.cache.store.bytes",
            "bytes",
            cache_replay.stored_bytes as f64,
        ),
        m(
            "sweep.cache.load.busy_s",
            "s",
            t.busy("replay.cache", "sweep.cache.load")
                + t.busy("replay.cache", "sweep.cache.lookup"),
        ),
        m(
            "sweep.cache.lookup.hit_ratio",
            "ratio",
            cache_replay.hits as f64 / cache_replay.lookups as f64,
        ),
        m("sweep.cache.corrupt", "count", cache_replay.corrupt as f64),
        m(
            "sweep.dataset.clean.busy_s",
            "s",
            both("sweep.dataset.clean"),
        ),
        m(
            "sweep.dataset.clean.dropped",
            "count",
            (cold.dropped + warm.dropped) as f64 / 2.0,
        ),
        m(
            "sweep.dataset.build.busy_s",
            "s",
            both("sweep.dataset.build"),
        ),
        m(
            "sweep.registry.fold.busy_s",
            "s",
            both("sweep.registry.fold"),
        ),
        m(
            "sweep.registry.append.busy_s",
            "s",
            both("sweep.registry.append"),
        ),
        m("sweep.registry.append.bytes", "bytes", append_bytes as f64),
        m(
            "sweep.registry.load.busy_s",
            "s",
            t.busy("isolated", "sweep.registry.load_32"),
        ),
        m(
            "core.live_influence.busy_s",
            "s",
            both("core.live_influence"),
        ),
        m(
            "omptel.tsdb.points",
            "count",
            (cold.tsdb_points + warm.tsdb_points) as f64 / 2.0,
        ),
        m("omptel.tsdb.busy_s", "s", tsdb_busy),
        m(
            "omptel.tsdb.ns_per_point",
            "ns",
            tsdb_busy * 1e9 / ((cold.tsdb_points + warm.tsdb_points) as f64 / 2.0),
        ),
        m("sweep.export.csv.busy_s", "s", both("sweep.export.csv")),
        m("sweep.export.csv.bytes", "bytes", file_len("samples.csv")),
        m(
            "sweep.export.raw_json.busy_s",
            "s",
            both("sweep.export.raw_json"),
        ),
        m(
            "sweep.export.raw_json.bytes",
            "bytes",
            file_len("raw_batches.json"),
        ),
        m(
            "sweep.export.read_raw_json.busy_s",
            "s",
            t.busy("analyse", "sweep.export.read_raw_json"),
        ),
        m(
            "sweep.provenance.build.busy_s",
            "s",
            both("sweep.provenance.build"),
        ),
        m(
            "sweep.provenance.write.busy_s",
            "s",
            both("sweep.provenance.write"),
        ),
        m(
            "sweep.provenance.write.bytes",
            "bytes",
            file_len("provenance.jsonl"),
        ),
        m(
            "sweep.provenance.manifest.busy_s",
            "s",
            both("sweep.provenance.manifest"),
        ),
        m(
            "bench.repro.generate.busy_s",
            "s",
            t.busy("analyse", "bench.repro.generate"),
        ),
        m(
            "bench.repro.tables.busy_s",
            "s",
            t.busy("analyse", "bench.repro.tables"),
        ),
        m(
            "bench.repro.figures.busy_s",
            "s",
            t.busy("analyse", "bench.repro.figures"),
        ),
        m(
            "core.analysis.influence.busy_s",
            "s",
            t.busy("analyse", "core.analysis.influence"),
        ),
        m(
            "core.analysis.influence.models",
            "count",
            analysed.influence_models as f64,
        ),
        m(
            "mlstats.wilcoxon.busy_s",
            "s",
            t.busy("analyse", "mlstats.wilcoxon"),
        ),
        m("ompprof.attrib.fold.busy_s", "s", attrib_busy),
        m(
            "ompprof.attrib.samples_per_s",
            "1/s",
            analysed.samples as f64 / attrib_busy,
        ),
        m(
            "omptel.metrics.render_us",
            "us",
            t.busy("isolated", "omptel.metrics") * 1e6,
        ),
        m("omptel.metrics.bytes", "bytes", exposition.len() as f64),
        m("stage.collect_cold_s", "s", cold_s),
        m("stage.collect_warm_s", "s", stage_s("collect_warm")),
        m("stage.sweep_dense_s", "s", stage_s("sweep_dense")),
        m("stage.analyse_s", "s", stage_s("analyse")),
        m("stage.isolated_s", "s", stage_s("isolated")),
        m("collect.subprocess_s", "s", collect_sub_s),
        m("collect.subprocess_cpu_s", "s", collect_sub_cpu_s),
        m("collect.unattributed_s", "s", collect_sub_s - cold_s),
        m("trace.total_s", "s", total_s),
        m("trace.spans", "count", t.spans.len() as f64),
        m("trace.overhead", "ratio", dense_on_s / dense_off_s),
    ];

    let table = layer_table(t, fast_samples, dense_samples);
    Ok(Traced {
        metrics,
        failures: failures.into_inner(),
        table,
        virt_fnv,
        tracer,
    })
}

/// Per-layer µs per sample: the cold and warm collect stages side by
/// side, then the dense sweep and its replayed sub-layers.
fn layer_table(t: &Tracer, fast_samples: u64, dense_samples: u64) -> String {
    let mut out = String::new();
    let per = |secs: f64, samples: u64| secs * 1e6 / samples.max(1) as f64;
    out.push_str(&format!(
        "per-layer host time, us per sample ({fast_samples} samples per collect stage, workers = 1)\n\
         {:<34} {:>10} {:>10}\n",
        "layer (direct child of the stage)", "cold", "warm"
    ));
    let cold = t.children_of("collect_cold");
    let warm = t.children_of("collect_warm");
    for (name, cold_s) in &cold {
        let warm_s = warm
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| *s);
        out.push_str(&format!(
            "{name:<34} {:>10.3} {:>10.3}\n",
            per(*cold_s, fast_samples),
            per(warm_s, fast_samples)
        ));
    }
    out.push_str(&format!(
        "{:<34} {:>10.3} {:>10.3}\n",
        "(stage self time: glue)",
        per(t.top_level_self_secs("collect_cold"), fast_samples),
        per(t.top_level_self_secs("collect_warm"), fast_samples)
    ));
    let total = |stage: &str| t.top_level_secs(stage);
    out.push_str(&format!(
        "{:<34} {:>10.3} {:>10.3}\n",
        "stage total",
        per(total("collect_cold"), fast_samples),
        per(total("collect_warm"), fast_samples)
    ));
    out.push_str(&format!(
        "\nsimulator sub-layers replayed in isolation, us per sample\n{:<34} {:>10} {:>10}\n",
        "layer", "fast", "dense"
    ));
    for name in ["simrt.plan", "simrt.price", "simrt.energy"] {
        out.push_str(&format!(
            "{name:<34} {:>10.3} {:>10.3}\n",
            per(t.busy("replay.fast", name), fast_samples),
            per(t.busy("replay.dense", name), dense_samples)
        ));
    }
    out.push_str(&format!(
        "{:<34} {:>10} {:>10.3}\n",
        "sweep.schedule (whole sweep, 1w)",
        "-",
        per(t.busy("sweep_dense", "sweep.schedule"), dense_samples)
    ));
    out.push_str(&format!(
        "\nanalyse stage, seconds\n{:<34} {:>10}\n",
        "layer", "s"
    ));
    for (name, secs) in t.children_of("analyse") {
        out.push_str(&format!("{name:<34} {secs:>10.3}\n"));
    }
    out
}

pub fn write_trace(tracer: &Tracer, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| io_err(path, e))?;
    let mut out = BufWriter::new(file);
    tracer
        .write_json(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| io_err(path, e))
}
