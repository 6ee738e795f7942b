//! Work-stealing sweep scheduler: fine-grained `(app, setting,
//! config-chunk)` units over per-worker deques.
//!
//! Every batch is cut into chunks of at most [`UNIT_CONFIGS`]
//! configurations, plus one unit for the default row (the batch's last
//! slot); each worker starts with a contiguous stripe of units and
//! steals from the busiest end of other workers' deques when its own
//! runs dry. Every unit runs the same body: look each slot up in the
//! sample cache, group the misses by plan projection, price each group.
//!
//! **Determinism.** Results land in per-batch slots addressed by
//! configuration position, and batches assemble in catalog order — so
//! the output is byte-identical for any worker count, with or without
//! the sample cache, and equal to the sequential
//! [`crate::runner::sweep_arch`]. The property tests pin this.

use crate::cache::{BatchEntries, SampleCache, DEFAULT_ROW_INDEX};
use crate::runner::{model_of, sample_from_sim, work_list, RawSample, RunKey, SettingData};
use crate::spec::{configs_for, samples_for_setting, SweepSpec};
use archsim::NoiseModel;
use omptel::SpanKind;
use omptune_core::{Arch, TuningConfig};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use workloads::{AppSpec, Setting};

/// Maximum configurations per scheduling unit. Small enough that a
/// warm-cache batch splinters into stealable pieces, large enough that
/// deque traffic stays negligible against thousands of simulations.
pub const UNIT_CONFIGS: usize = 256;

/// Aggregated scheduler statistics for one sweep. Serializable so the
/// run manifest can persist them per architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SweepStats {
    /// Simulation-plan cache hits/misses across all batches.
    pub plan_hits: u64,
    pub plan_misses: u64,
    /// Sample-cache hits/misses (zero when no cache is attached).
    pub sample_hits: u64,
    pub sample_misses: u64,
    /// Units taken from another worker's deque.
    pub steals: u64,
    /// Total scheduling units executed.
    pub units: u64,
}

impl SweepStats {
    fn absorb(&mut self, other: &SweepStats) {
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.sample_hits += other.sample_hits;
        self.sample_misses += other.sample_misses;
        self.steals += other.steals;
        self.units += other.units;
    }
}

/// Scheduler knobs: worker count plus optional sample cache, progress
/// meter and batch observer.
pub struct SweepOptions<'a> {
    pub workers: usize,
    pub cache: Option<&'a SampleCache>,
    pub progress: Option<&'a omptel::Progress>,
    /// Called with each completed batch (on the worker thread that
    /// finished it) before it is stored — live observers such as the
    /// streaming influence tracker hook here. Completion order is
    /// scheduling-dependent; observers must not rely on it.
    pub on_batch: Option<&'a (dyn Fn(&SettingData) + Sync)>,
}

impl<'a> SweepOptions<'a> {
    /// Plain parallel sweep: no cache, no progress meter.
    pub fn new(workers: usize) -> SweepOptions<'static> {
        SweepOptions {
            workers,
            cache: None,
            progress: None,
            on_batch: None,
        }
    }

    /// Attach a persistent sample cache.
    pub fn with_cache(mut self, cache: &'a SampleCache) -> SweepOptions<'a> {
        self.cache = Some(cache);
        self
    }

    /// Attach a progress meter (incremented once per sample).
    pub fn with_progress(mut self, progress: &'a omptel::Progress) -> SweepOptions<'a> {
        self.progress = Some(progress);
        self
    }

    /// Attach a completed-batch observer (see [`SweepOptions::on_batch`]).
    pub fn with_batch_observer(
        mut self,
        observer: &'a (dyn Fn(&SettingData) + Sync),
    ) -> SweepOptions<'a> {
        self.on_batch = Some(observer);
        self
    }
}

/// A completed sweep with its scheduler statistics.
pub struct SweepOutcome {
    /// One entry per (app, setting), in catalog order.
    pub batches: Vec<SettingData>,
    pub stats: SweepStats,
}

/// Samples the scheduler will produce for `arch` under `spec` (sampled
/// configurations plus one default row per setting) — the progress
/// meter total.
pub fn planned_samples(arch: Arch, spec: &SweepSpec) -> u64 {
    work_list(arch)
        .iter()
        .map(|&(_, _, idx)| samples_for_setting(arch, idx, spec.scope) as u64 + 1)
        .sum()
}

/// One batch's shared execution state.
struct BatchJob {
    key: RunKey,
    model: simrt::Model,
    noise: NoiseModel,
    /// The sampled configurations, then the default row
    /// (`DEFAULT_ROW_INDEX`) as the last slot.
    configs: Vec<(usize, TuningConfig)>,
    entries: BatchEntries,
    plans: simrt::PlanCache,
    slots: Mutex<Vec<Option<RawSample>>>,
    /// Units still outstanding; the worker that drops this to zero
    /// assembles and (if fresh work happened) persists the batch.
    remaining: AtomicUsize,
    /// Whether any sample was computed rather than served from cache.
    fresh: AtomicBool,
}

struct Unit {
    batch: usize,
    /// Slots `[start, end)` of the batch's `configs`.
    start: usize,
    end: usize,
    /// Cross-thread flow handle stitching the seeding span to the
    /// executing worker's span in the trace (0 when not tracing).
    flow: u64,
}

fn build_jobs(
    arch: Arch,
    list: &[(&'static AppSpec, Setting, usize)],
    spec: &SweepSpec,
    cache: Option<&SampleCache>,
) -> Vec<BatchJob> {
    list.iter()
        .map(|&(app, setting, setting_idx)| {
            let key = RunKey::new(arch, app.name, setting.input_code, setting.num_threads);
            let model = model_of(app, &key);
            let mut configs = configs_for(arch, setting.num_threads, setting_idx, spec.scope);
            let units = configs.len().div_ceil(UNIT_CONFIGS) + 1;
            let default_config = TuningConfig::default_for(arch, setting.num_threads);
            configs.push((DEFAULT_ROW_INDEX, default_config));
            let entries = match cache {
                Some(c) => c.load_batch(&key, spec),
                None => BatchEntries::empty(),
            };
            BatchJob {
                plans: simrt::PlanCache::new(arch, &model, spec.seed),
                noise: NoiseModel::for_machine(arch.id()),
                key,
                model,
                slots: Mutex::new(vec![None; configs.len()]),
                configs,
                entries,
                remaining: AtomicUsize::new(units),
                fresh: AtomicBool::new(false),
            }
        })
        .collect()
}

fn units_of(jobs: &[BatchJob]) -> Vec<Unit> {
    let mut units = Vec::new();
    for (batch, job) in jobs.iter().enumerate() {
        // The sampled configurations in chunks, then the default row alone.
        let default_row = job.configs.len() - 1;
        let chunks = (0..default_row)
            .step_by(UNIT_CONFIGS)
            .map(|start| (start, (start + UNIT_CONFIGS).min(default_row)));
        for (start, end) in chunks.chain([(default_row, default_row + 1)]) {
            units.push(Unit {
                batch,
                start,
                end,
                flow: omptel::flow_handle(),
            });
        }
    }
    units
}

/// Per-worker reusable buffers: one allocation pool per worker thread,
/// so steady-state unit execution does no per-sample Vec churn. Each
/// acquisition is scored as a pool hit (capacity reused) or miss
/// (buffer had to grow) under the `PoolHits`/`PoolMisses` counters.
#[derive(Default)]
struct WorkerScratch {
    /// SoA accumulators for [`simrt::RegionPlan::price_batch`].
    price: simrt::PriceScratch,
    /// Batch-pricing output, cleared per miss group.
    sims: Vec<simrt::SimResult>,
    /// The configurations of one miss group, contiguous for pricing.
    group: Vec<TuningConfig>,
    /// Positions (within the unit slice) that missed the sample cache,
    /// with each config's plan projection computed once for grouping.
    miss_at: Vec<(usize, omptune_core::PlanProjection)>,
    /// Assembled samples of the unit, in slice order.
    produced: Vec<Option<RawSample>>,
}

/// Ready a pooled buffer for `needed` items, scoring whether its
/// retained capacity could be reused.
fn pool_reserve<T>(buf: &mut Vec<T>, needed: usize) {
    let counter = if buf.capacity() >= needed {
        omptel::Counter::PoolHits
    } else {
        omptel::Counter::PoolMisses
    };
    omptel::add(counter, 1);
    buf.clear();
    buf.reserve(needed);
}

/// Execute one unit; returns the number of samples it produced.
///
/// Every slot is looked up in the sample cache first; the misses are
/// then priced by [`price_misses`]. While a flight recorder is live,
/// the pending miss is priced right after its own lookup, as a group of
/// one inside its `Sample` span, so each sample emits its own events
/// and gets its own latency. `price_batch` is bit-identical to
/// per-config pricing (property-tested), so the rule changes timing,
/// never results.
fn run_unit(
    unit: &Unit,
    job: &BatchJob,
    spec: &SweepSpec,
    opts: &SweepOptions,
    scratch: &mut WorkerScratch,
) -> u64 {
    // The default row is the batch's last slot, alone in its unit.
    let kind = if unit.start + 1 == job.configs.len() {
        SpanKind::DefaultRow
    } else {
        SpanKind::Unit
    };
    let _uspan = omptel::span(kind, unit.batch as u64);
    omptel::flow_in(SpanKind::Unit, unit.flow);
    let watched = omptel::tracing();
    let slice = &job.configs[unit.start..unit.end];
    // Unwatched samples share their unit's time: the meter's latency
    // series gets the unit-amortized value.
    let amortized = opts
        .progress
        .filter(|_| !watched)
        .map(|p| (p, Instant::now()));
    pool_reserve(&mut scratch.produced, slice.len());
    pool_reserve(&mut scratch.miss_at, slice.len());
    let mut hits = 0u64;
    for (at, &(config_index, config)) in slice.iter().enumerate() {
        let sspan = omptel::span(SpanKind::Sample, config_index as u64);
        let t0 = watched.then(Instant::now);
        match job.entries.lookup(config_index, &config) {
            Some((runtimes, telemetry)) => {
                hits += 1;
                omptel::instant(SpanKind::CacheHit, config_index as u64);
                scratch.produced.push(Some(RawSample {
                    config_index,
                    config,
                    runtimes,
                    telemetry,
                }));
            }
            None => {
                scratch.produced.push(None);
                scratch.miss_at.push((at, config.plan_projection()));
            }
        }
        if let Some(t0) = t0 {
            price_misses(job, spec, slice, scratch);
            drop(sspan);
            if let Some(p) = opts.progress {
                p.observe_ns(t0.elapsed().as_nanos() as u64);
            }
        }
    }
    price_misses(job, spec, slice, scratch);
    let misses = slice.len() as u64 - hits;

    if let Some(c) = opts.cache {
        c.count_hits(hits);
        c.count_misses(misses);
    }
    if misses > 0 {
        job.fresh.store(true, Ordering::Relaxed);
    }
    let mut slots = job.slots.lock().expect("batch slots poisoned");
    for (offset, sample) in scratch.produced.drain(..).enumerate() {
        slots[unit.start + offset] = Some(sample.expect("every unit sample assembled"));
    }
    drop(slots);
    if let Some((p, t0)) = amortized {
        let avg = t0.elapsed().as_nanos() as u64 / slice.len() as u64;
        for _ in 0..slice.len() {
            p.observe_ns(avg);
        }
    }
    slice.len() as u64
}

/// Price the unit's pending misses and assemble their samples: each run
/// of consecutive misses sharing a plan projection is priced as one SoA
/// batch against a single plan fetch ([`simrt::RegionPlan::price_batch`]).
/// Sampled spaces enumerate the odometer's pricing digits innermost, so
/// a typical cold unit collapses into a handful of plan fetches.
fn price_misses(
    job: &BatchJob,
    spec: &SweepSpec,
    slice: &[(usize, TuningConfig)],
    scratch: &mut WorkerScratch,
) {
    let mut g0 = 0;
    while g0 < scratch.miss_at.len() {
        let projection = scratch.miss_at[g0].1;
        let mut g1 = g0 + 1;
        while g1 < scratch.miss_at.len() && scratch.miss_at[g1].1 == projection {
            g1 += 1;
        }
        scratch.group.clear();
        scratch
            .group
            .extend(scratch.miss_at[g0..g1].iter().map(|&(at, _)| slice[at].1));
        let plan = job
            .plans
            .plan_batch(&scratch.group[0], &job.model, scratch.group.len() as u64);
        scratch.sims.clear();
        plan.price_batch(&scratch.group, &mut scratch.price, &mut scratch.sims);
        omptel::add(omptel::Counter::PricedBatches, 1);
        for (k, sim) in scratch.sims.iter().enumerate() {
            let (at, _) = scratch.miss_at[g0 + k];
            let (config_index, config) = slice[at];
            let (runtimes, telemetry) =
                sample_from_sim(&job.key, sim, &config, config_index, spec, &job.noise);
            scratch.produced[at] = Some(RawSample {
                config_index,
                config,
                runtimes,
                telemetry,
            });
        }
        g0 = g1;
    }
    scratch.miss_at.clear();
}

/// Assemble one finished batch (every unit done) into its output slot
/// and persist it when fresh samples were computed.
fn finalize_batch(
    job: &BatchJob,
    spec: &SweepSpec,
    opts: &SweepOptions,
    out: &Mutex<Vec<Option<SettingData>>>,
    batch_index: usize,
) {
    let cache = opts.cache;
    let mut samples: Vec<RawSample> = job
        .slots
        .lock()
        .expect("batch slots poisoned")
        .iter_mut()
        .map(|s| s.take().expect("every config slot filled"))
        .collect();
    let default_row = samples.pop().expect("the default row is the last slot");
    let data = SettingData {
        key: job.key.clone(),
        samples,
        default_runtimes: default_row.runtimes,
        default_telemetry: default_row.telemetry,
    };
    if let Some(c) = cache {
        if job.fresh.load(Ordering::Relaxed) {
            if let Err(e) = c.store_batch(&data, spec) {
                eprintln!(
                    "sweep-cache: failed to persist {}/{}: {e}",
                    job.key.arch.id(),
                    job.key.app
                );
            }
        }
    }
    if let Some(observe) = opts.on_batch {
        observe(&data);
    }
    out.lock().expect("output poisoned")[batch_index] = Some(data);
}

/// Run a set of batch jobs through the work-stealing worker pool.
fn run_scheduler(jobs: Vec<BatchJob>, spec: &SweepSpec, opts: &SweepOptions) -> SweepOutcome {
    let units = units_of(&jobs);
    let n_units = units.len();
    let workers = opts.workers.clamp(1, n_units.max(1));

    // Seed each worker's deque with a contiguous stripe — the old static
    // split — so steals happen exactly when that split is unbalanced.
    // Each unit's flow handle is "emitted" here so the trace can stitch
    // the seeding thread to whichever worker ultimately runs the unit.
    let mut deques: Vec<Mutex<VecDeque<Unit>>> = Vec::with_capacity(workers);
    {
        let _seed_span = omptel::span(SpanKind::Seed, n_units as u64);
        let mut units = VecDeque::from(units);
        for w in 0..workers {
            let take = (n_units * (w + 1)) / workers - (n_units * w) / workers;
            let stripe: VecDeque<Unit> = units.drain(..take).collect();
            for u in &stripe {
                omptel::flow_out(SpanKind::Unit, u.flow);
            }
            deques.push(Mutex::new(stripe));
        }
        debug_assert!(units.is_empty());
    }

    let out: Mutex<Vec<Option<SettingData>>> = Mutex::new((0..jobs.len()).map(|_| None).collect());
    let steals = AtomicU64::new(0);
    let units_run = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let (jobs, deques, out, steals, units_run) =
                (&jobs, &deques, &out, &steals, &units_run);
            scope.spawn(move || {
                let mut scratch = WorkerScratch::default();
                loop {
                    // Own work first, then steal from the back of the
                    // longest-suffering victim in ring order.
                    let mut unit = deques[w].lock().expect("deque poisoned").pop_front();
                    if unit.is_none() {
                        for v in 1..workers {
                            let victim = (w + v) % workers;
                            if let Some(u) =
                                deques[victim].lock().expect("deque poisoned").pop_back()
                            {
                                steals.fetch_add(1, Ordering::Relaxed);
                                omptel::add(omptel::Counter::SweepSteals, 1);
                                omptel::instant(SpanKind::Steal, victim as u64);
                                unit = Some(u);
                                break;
                            }
                        }
                    }
                    // Units are only ever removed, so all-empty means done.
                    let Some(unit) = unit else { break };
                    let job = &jobs[unit.batch];
                    let produced = run_unit(&unit, job, spec, opts, &mut scratch);
                    units_run.fetch_add(1, Ordering::Relaxed);
                    if let Some(p) = opts.progress {
                        p.inc(produced);
                    }
                    if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                        finalize_batch(job, spec, opts, out, unit.batch);
                    }
                }
            });
        }
    });

    let batches: Vec<SettingData> = out
        .into_inner()
        .expect("output poisoned")
        .into_iter()
        .map(|d| d.expect("every batch finalized"))
        .collect();

    let mut stats = SweepStats {
        steals: steals.load(Ordering::Relaxed),
        units: units_run.load(Ordering::Relaxed),
        ..SweepStats::default()
    };
    for job in &jobs {
        let (h, m) = job.plans.stats();
        stats.plan_hits += h;
        stats.plan_misses += m;
    }
    if let Some(c) = opts.cache {
        let (h, m) = c.stats();
        stats.sample_hits = h;
        stats.sample_misses = m;
    }
    SweepOutcome { batches, stats }
}

/// Sweep one architecture through the work-stealing scheduler.
pub fn sweep_arch_scheduled(arch: Arch, spec: &SweepSpec, opts: &SweepOptions) -> SweepOutcome {
    let _arch_span = omptel::span(SpanKind::ArchSweep, arch as u64);
    let jobs = build_jobs(arch, &work_list(arch), spec, opts.cache);
    run_scheduler(jobs, spec, opts)
}

/// Sweep one `(app, setting)` batch through the scheduler — the same
/// units, spans, and flows as a full arch sweep, scoped to one batch.
pub fn sweep_setting_scheduled(
    arch: Arch,
    app: &'static AppSpec,
    setting: Setting,
    setting_idx: usize,
    spec: &SweepSpec,
    opts: &SweepOptions,
) -> (SettingData, SweepStats) {
    let jobs = build_jobs(arch, &[(app, setting, setting_idx)], spec, opts.cache);
    let outcome = run_scheduler(jobs, spec, opts);
    let [data] = <[SettingData; 1]>::try_from(outcome.batches)
        .unwrap_or_else(|_| unreachable!("one job in, one batch out"));
    (data, outcome.stats)
}

/// Sweep all architectures through the scheduler, aggregating stats.
/// Note: with a shared [`SampleCache`], per-arch sample stats are
/// cumulative across the whole cache handle.
pub fn sweep_all_scheduled(spec: &SweepSpec, opts: &SweepOptions) -> SweepOutcome {
    let mut batches = Vec::new();
    let mut stats = SweepStats::default();
    for &arch in Arch::ALL.iter() {
        let outcome = sweep_arch_scheduled(arch, spec, opts);
        batches.extend(outcome.batches);
        stats.absorb(&outcome.stats);
    }
    // Sample hits/misses were absorbed per arch from one shared counter;
    // re-read the final cumulative values instead of the triple-sum.
    if let Some(c) = opts.cache {
        let (h, m) = c.stats();
        stats.sample_hits = h;
        stats.sample_misses = m;
    }
    SweepOutcome { batches, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::sweep_arch as sweep_arch_sequential;
    use crate::spec::Scope;

    fn spec(scope: Scope, failure_rate: f64) -> SweepSpec {
        SweepSpec {
            scope,
            reps: 2,
            seed: 13,
            failure_rate,
        }
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("omptune-sched-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Bit-pattern equality for batch lists: `assert_eq!` would reject
    /// identical data containing failure-injected NaN repetitions.
    fn assert_identical(a: &[SettingData], b: &[SettingData], label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: batch count");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.key, y.key, "{label}");
            assert_eq!(x.samples.len(), y.samples.len(), "{label}: {:?}", x.key);
            for (s, t) in x.samples.iter().zip(&y.samples) {
                assert_eq!(s.config_index, t.config_index, "{label}");
                assert_eq!(s.config, t.config, "{label}");
                assert_eq!(
                    bits(&s.runtimes),
                    bits(&t.runtimes),
                    "{label}: {:?} config {}",
                    x.key,
                    s.config_index
                );
                assert_eq!(
                    s.telemetry.virtual_ns.to_bits(),
                    t.telemetry.virtual_ns.to_bits(),
                    "{label}"
                );
                assert_eq!(s.telemetry.regions, t.telemetry.regions, "{label}");
                for sink in [s.telemetry.energy.total_j, s.telemetry.energy.wait_j]
                    .into_iter()
                    .zip([t.telemetry.energy.total_j, t.telemetry.energy.wait_j])
                {
                    assert_eq!(sink.0.to_bits(), sink.1.to_bits(), "{label}: energy bits");
                }
            }
            assert_eq!(
                bits(&x.default_runtimes),
                bits(&y.default_runtimes),
                "{label}: default row of {:?}",
                x.key
            );
        }
    }

    #[test]
    fn scheduled_sweep_matches_sequential_at_any_worker_count() {
        let spec = spec(Scope::Strided(1100), 0.0);
        let seq = sweep_arch_sequential(Arch::A64fx, &spec);
        for workers in [1usize, 2, 4] {
            let outcome = sweep_arch_scheduled(Arch::A64fx, &spec, &SweepOptions::new(workers));
            assert_eq!(outcome.batches, seq, "{workers} workers diverged");
            assert!(outcome.stats.units > 0);
            assert!(outcome.stats.plan_misses > 0);
        }
    }

    #[test]
    fn batch_observer_sees_every_batch_exactly_once() {
        use std::sync::Mutex;
        let spec = spec(Scope::Strided(1100), 0.05);
        let plain = sweep_arch_scheduled(Arch::A64fx, &spec, &SweepOptions::new(2));
        let seen: Mutex<Vec<(RunKey, usize)>> = Mutex::new(Vec::new());
        let observer = |data: &SettingData| {
            seen.lock()
                .unwrap()
                .push((data.key.clone(), data.samples.len()));
        };
        let observed = sweep_arch_scheduled(
            Arch::A64fx,
            &spec,
            &SweepOptions::new(4).with_batch_observer(&observer),
        );
        // Observation must not perturb the sweep itself.
        assert_identical(&observed.batches, &plain.batches, "observed run");
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|(k, _)| format!("{k:?}"));
        let mut expect: Vec<(RunKey, usize)> = plain
            .batches
            .iter()
            .map(|d| (d.key.clone(), d.samples.len()))
            .collect();
        expect.sort_by_key(|(k, _)| format!("{k:?}"));
        assert_eq!(seen, expect, "each batch observed exactly once");
    }

    #[test]
    fn cached_sweep_is_byte_identical_cold_and_warm() {
        let spec = spec(Scope::Strided(900), 0.05);
        let seq = sweep_arch_sequential(Arch::A64fx, &spec);
        let cache = SampleCache::new(tmp_dir("coldwarm"));

        let cold =
            sweep_arch_scheduled(Arch::A64fx, &spec, &SweepOptions::new(3).with_cache(&cache));
        assert_identical(&cold.batches, &seq, "cold cached run");
        let (h0, m0) = cache.stats();
        assert_eq!(h0, 0, "cold run cannot hit");
        assert!(m0 > 0);

        for workers in [1usize, 2, 4] {
            let warm = sweep_arch_scheduled(
                Arch::A64fx,
                &spec,
                &SweepOptions::new(workers).with_cache(&cache),
            );
            assert_identical(&warm.batches, &seq, "warm run");
        }
        let (h1, m1) = cache.stats();
        assert_eq!(m1, m0, "warm runs must not recompute");
        assert_eq!(h1, 3 * m0, "three fully-warm replays");
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn poisoned_cache_degrades_to_recompute_with_identical_results() {
        let spec = spec(Scope::Strided(1300), 0.0);
        let seq = sweep_arch_sequential(Arch::A64fx, &spec);
        let cache = SampleCache::new(tmp_dir("poison"));
        let cold =
            sweep_arch_scheduled(Arch::A64fx, &spec, &SweepOptions::new(2).with_cache(&cache));
        assert_eq!(cold.batches, seq);

        // Vandalize the first record of every batch file (its checksum
        // now fails, so that one sample degrades to a miss).
        let header = 8 * 8;
        let mut damaged = 0;
        for entry in std::fs::read_dir(cache.dir().join("a64fx")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "bin") {
                continue;
            }
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[header + 16] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
            damaged += 1;
        }
        assert!(damaged > 0);

        let warm =
            sweep_arch_scheduled(Arch::A64fx, &spec, &SweepOptions::new(2).with_cache(&cache));
        assert_eq!(warm.batches, seq, "poisoned cache changed results");
        let (_, misses) = cache.stats();
        // Every damaged record was recomputed (one per file).
        assert!(misses as usize >= cold.stats.sample_misses as usize + damaged);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn progress_counts_every_sample() {
        let spec = spec(Scope::Strided(400), 0.0);
        let total = planned_samples(Arch::Skylake, &spec);
        let progress = omptel::Progress::quiet("sweep", total);
        let outcome = sweep_arch_scheduled(
            Arch::Skylake,
            &spec,
            &SweepOptions::new(4).with_progress(&progress),
        );
        assert_eq!(progress.done(), total);
        let produced: u64 = outcome
            .batches
            .iter()
            .map(|b| b.samples.len() as u64 + 1)
            .sum();
        assert_eq!(produced, total);
    }

    #[test]
    fn plan_cache_hits_dominate_dense_batches() {
        // Pricing variables are the odometer's three innermost digits
        // (2 × 4 × 3 = 24 consecutive indices per plan projection on
        // A64FX). Stride 8 samples three configs per projection block,
        // so two of every three simulations re-price a cached plan.
        let spec = spec(Scope::Strided(8), 0.0);
        let outcome = sweep_arch_scheduled(Arch::A64fx, &spec, &SweepOptions::new(4));
        let s = outcome.stats;
        assert!(
            s.plan_hits > s.plan_misses,
            "plan hits {} should dominate misses {}",
            s.plan_hits,
            s.plan_misses
        );
    }
}
