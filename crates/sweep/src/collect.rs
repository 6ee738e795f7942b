//! One collection run (paper Sec. IV-B/C), in the one order everything
//! downstream depends on. Per architecture: sweep → `--perturb` → clean →
//! registry fold → the run's record; then the artifact tail and the
//! registry append. The `collect` binary is a command line, a monitor
//! and stderr around [`run`]; the tests call the same functions, so the
//! order is written once.

use crate::dataset::clean;
use crate::export::{write_artifacts, ArtifactSummary};
use crate::provenance::{ArchManifest, RunManifest};
use crate::registry::{
    detect_git_rev, unix_now, BatchPartial, CollectCore, Registry, RunCore, RunInfo, RunRecord,
};
use crate::runner::{RunKey, SettingData};
use crate::schedule::{planned_samples, sweep_arch_scheduled, SweepOptions, SweepStats};
use crate::{SampleCache, SweepSpec};
use omptel::Progress;
use omptune_core::{Arch, Fnv1a, LiveInfluence};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// What is swept and how: what `collect`'s command line can say about
/// the data, and nothing else.
pub struct Job<'a> {
    pub spec: &'a SweepSpec,
    /// Scheduler workers, and the artifact tail's thread budget.
    pub workers: usize,
    pub cache: Option<&'a SampleCache>,
    /// `--perturb ARCH:FACTOR`, the sentinel's fault injection.
    pub perturb: Option<(Arch, f64)>,
}

/// Modeled energy an architecture's cleaned samples cost.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ArchEnergy {
    /// Σ total_j over the finite samples.
    pub joules: f64,
    /// Σ total_j · virtual_s — the energy-delay product in J·s.
    pub edp_js: f64,
}

impl ArchEnergy {
    pub fn of(batches: &[SettingData]) -> ArchEnergy {
        let mut total = ArchEnergy::default();
        for sample in batches.iter().flat_map(|data| &data.samples) {
            let e = &sample.telemetry.energy;
            if !e.total_j.is_finite() {
                continue;
            }
            total.joules += e.total_j;
            total.edp_js += e.edp_js(sample.telemetry.virtual_ns);
        }
        total
    }
}

/// A run in flight, as a monitor may read it at any moment. Every
/// surface that reports a finished architecture — the `/metrics` gauges,
/// stderr, the registry record — reads it from here.
pub struct Live {
    /// The record `manifest.json` is written from.
    pub manifest: RunManifest,
    /// Beside each `manifest.arches[i]` its modeled energy
    /// (`manifest.json`'s bytes are pinned, so it cannot grow the field).
    pub energy: Vec<ArchEnergy>,
    /// Streaming influence, one online logistic model per objective,
    /// indexed like [`crate::series::OBJECTIVES`]: did the config beat
    /// the arch default's time, and did it cost fewer joules? Where the
    /// two rankings disagree is `ompprof energy`'s disagreement map, live.
    /// Exposition only (`collect --monitor`'s `/metrics`), so only a
    /// [`State::monitored`] run has them: they never feed back into
    /// sampling, artifacts or series.
    pub influence: Option<[LiveInfluence; 2]>,
    /// The architecture being swept: its meter and planned samples.
    pub current: Option<(Arc<Progress>, u64)>,
}

impl Live {
    /// Feed one completed batch to both influence trackers, if the run
    /// has them: per sample and objective, the default's cost over the
    /// sample's.
    fn observe(&mut self, data: &SettingData) {
        let Some(influence) = &mut self.influence else {
            return;
        };
        let usable = |cost: f64| cost.is_finite() && cost > 0.0;
        let defaults = [data.default_mean(), data.default_telemetry.energy.total_j];
        for sample in &data.samples {
            let costs = [sample.mean_runtime(), sample.telemetry.energy.total_j];
            let pairs = defaults.into_iter().zip(costs);
            for (live, (default, cost)) in influence.iter_mut().zip(pairs) {
                if usable(default) && usable(cost) {
                    live.observe(&sample.config, default / cost);
                }
            }
        }
    }
}

/// [`Live`] behind the run's one lock.
pub struct State(Mutex<Live>);

/// A panic elsewhere must not take the monitor or the run's own
/// bookkeeping down with it, so a poisoned lock is entered all the same.
/// What is behind it stays usable: the record and the fold sink only
/// ever grow by whole pushes, and an influence tracker caught mid-update
/// skews a ranking that feeds no artifact.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl State {
    /// A run nobody watches live: no influence trackers.
    pub fn new(spec: &SweepSpec) -> State {
        State(Mutex::new(Live {
            manifest: RunManifest::new(spec),
            energy: Vec::new(),
            influence: None,
            current: None,
        }))
    }

    /// A run `/metrics` serves: its batches also feed the influence
    /// trackers.
    pub fn monitored(spec: &SweepSpec) -> State {
        let state = State::new(spec);
        state.lock().influence = Some([LiveInfluence::new(), LiveInfluence::new()]);
        state
    }

    pub fn lock(&self) -> MutexGuard<'_, Live> {
        lock(&self.0)
    }
}

/// One finished architecture, as [`Watch::arch_done`] is told of it.
pub struct ArchDone<'a> {
    pub arch: &'a ArchManifest,
    pub energy: ArchEnergy,
    /// This architecture's own sample-cache `(hits, misses)`.
    pub lookups: (u64, u64),
    /// The meter's closing line.
    pub meter_line: &'a str,
    /// The `--perturb` factor its figures were scaled by.
    pub perturbed: Option<f64>,
}

/// What [`run`]'s caller shows of it; `collect` prints to stderr here.
pub trait Watch {
    /// The meter an architecture's sweep of `total` samples reports to.
    fn meter(&mut self, label: &str, total: u64) -> Progress {
        Progress::quiet(label, total)
    }

    /// Called once the architecture is in the state's record, with the
    /// state unlocked.
    fn arch_done(&mut self, _done: &ArchDone<'_>) {}
}

/// Shows nothing.
impl Watch for () {}

/// What [`run`] leaves behind besides its files.
pub struct Finished {
    /// The cleaned batches of every architecture, catalog order.
    pub batches: Vec<SettingData>,
    /// The state's manifest as `manifest.json` holds it.
    pub manifest: RunManifest,
    pub artifacts: ArtifactSummary,
    /// The registry append's outcome, when there is a registry. A failed
    /// append is the caller's to report: the data is already on disk.
    pub record: Option<io::Result<RunRecord>>,
}

/// Fault injection for the change-point sentinel's acceptance test:
/// scale every runtime, virtual-time, and energy figure of one
/// architecture's batches, exactly as a real regression on that arch
/// would move them. Applied before any artifact (dataset, provenance,
/// registry) is built.
fn perturb_batches(batches: &mut [SettingData], factor: f64) {
    for data in batches.iter_mut() {
        for t in &mut data.default_runtimes {
            if t.is_finite() {
                *t *= factor;
            }
        }
        data.default_telemetry.virtual_ns *= factor;
        data.default_telemetry.energy.scale(factor);
        for sample in &mut data.samples {
            for t in &mut sample.runtimes {
                if t.is_finite() {
                    *t *= factor;
                }
            }
            sample.telemetry.virtual_ns *= factor;
            sample.telemetry.energy.scale(factor);
        }
    }
}

/// One architecture, swept and cleaned.
struct Swept {
    batches: Vec<SettingData>,
    dropped: usize,
    elapsed_s: f64,
    stats: SweepStats,
    /// The meter's closing line.
    meter_line: String,
    perturbed: Option<f64>,
}

/// Sweep `arch`, apply the perturbation, clean, and fold the result into
/// `core` — the part of a run that decides its content address.
fn sweep_arch(
    job: &Job,
    arch: Arch,
    state: &State,
    meter: &Progress,
    core: Option<&mut CollectCore>,
) -> Swept {
    let spec = job.spec;
    let perturbed = job
        .perturb
        .and_then(|(a, factor)| (a == arch).then_some(factor));
    // Registry digest partials fold per batch on the worker that
    // finalized it — while the samples are cache-hot — so recording the
    // run never re-walks the whole sweep. A perturbed arch opts out:
    // perturbation mutates samples after the sweep, so its digest must
    // fold the mutated batches instead.
    let fold_partials = core.is_some() && perturbed.is_none();
    let fold_sink: Mutex<Vec<(RunKey, BatchPartial)>> = Mutex::new(Vec::new());
    let observer = |data: &SettingData| {
        state.lock().observe(data);
        if fold_partials {
            let partial = BatchPartial::fold(data);
            lock(&fold_sink).push((data.key.clone(), partial));
        }
    };
    let mut opts = SweepOptions::new(job.workers)
        .with_progress(meter)
        .with_batch_observer(&observer);
    if let Some(c) = job.cache {
        opts = opts.with_cache(c);
    }
    let t0 = Instant::now();
    let outcome = sweep_arch_scheduled(arch, spec, &opts);
    let elapsed_s = t0.elapsed().as_secs_f64();
    let meter_line = meter.finish();

    let mut batches = outcome.batches;
    // Shift the figures before any artifact sees them, so the
    // perturbation looks exactly like a real regression downstream.
    if let Some(factor) = perturbed {
        perturb_batches(&mut batches, factor);
    }
    let mut dropped = 0usize;
    for data in &mut batches {
        dropped += clean(data, spec.reps as usize).dropped.len();
    }
    if let Some(core) = core {
        if fold_partials && dropped == 0 {
            // The cleaner kept every sample, so the cache-hot partials
            // describe exactly the batches being recorded.
            let partials = std::mem::take(&mut *lock(&fold_sink));
            core.push_arch_partials(arch.id(), &batches, partials, 0);
        } else {
            core.push_arch(arch.id(), &batches, dropped as u64);
        }
    }
    Swept {
        batches,
        dropped,
        elapsed_s,
        stats: outcome.stats,
        meter_line,
        perturbed,
    }
}

/// The core [`run`] registers for `job`, without the run's outputs: the
/// content address a run of `job` would be recorded under. Its replays
/// feed no influence tracker.
pub fn core_of(job: &Job) -> CollectCore {
    let state = State::new(job.spec);
    let mut core = CollectCore::new(job.spec);
    for &arch in Arch::ALL.iter() {
        let meter = Progress::quiet("replay", planned_samples(arch, job.spec));
        sweep_arch(job, arch, &state, &meter, Some(&mut core));
    }
    core
}

/// The run's scheduler counters for its registry record, summed over
/// the per-architecture records (the sample-cache pair through
/// `arch_lookups`: `ArchManifest::stats` carries it cumulatively).
fn scheduler_counters(manifest: &RunManifest) -> Vec<(String, u64)> {
    let names = [
        "plan_hits",
        "plan_misses",
        "sample_hits",
        "sample_misses",
        "steals",
        "units",
    ];
    let mut totals = [0u64; 6];
    for (i, a) in manifest.arches.iter().enumerate() {
        let (hits, misses) = manifest.arch_lookups(i);
        let s = &a.stats;
        let own = [s.plan_hits, s.plan_misses, hits, misses, s.steals, s.units];
        for (total, n) in totals.iter_mut().zip(own) {
            *total += n;
        }
    }
    names.map(str::to_string).into_iter().zip(totals).collect()
}

/// Collect `job` into `out_dir`: every file of
/// [`crate::export::ARTIFACT_FILES`] and nothing else, then one record
/// appended to `registry` — the deterministic core (hashed) plus the
/// run-varying context (informational). `state` is the run as it stands
/// for whoever else holds it; `watch` hears of each architecture.
pub fn run(
    job: &Job,
    out_dir: &Path,
    registry: Option<&Registry>,
    state: &State,
    watch: &mut dyn Watch,
) -> io::Result<Finished> {
    let spec = job.spec;
    let mut core = registry.map(|_| CollectCore::new(spec));
    // An unusable output directory fails the run before the sweep, not
    // after it.
    std::fs::create_dir_all(out_dir)?;
    let mut batches = Vec::new();

    for &arch in Arch::ALL.iter() {
        let total = planned_samples(arch, spec);
        let label = format!("sweep {} ({:?})", arch.id(), spec.scope);
        let meter = Arc::new(watch.meter(&label, total));
        state.lock().current = Some((meter.clone(), total));
        let swept = sweep_arch(job, arch, state, &meter, core.as_mut());

        // The architecture joins the run's record; everything said about
        // it from here on (stderr, timing block, registry) is
        // read back from there.
        let energy = ArchEnergy::of(&swept.batches);
        let (done, lookups) = {
            let mut live = state.lock();
            live.manifest.push_arch(
                arch,
                &swept.batches,
                swept.dropped,
                swept.elapsed_s,
                swept.stats,
                meter.latency_histogram(),
            );
            live.energy.push(energy);
            live.current = None;
            let i = live.manifest.arches.len() - 1;
            (
                live.manifest.arches[i].clone(),
                live.manifest.arch_lookups(i),
            )
        };

        watch.arch_done(&ArchDone {
            arch: &done,
            energy,
            lookups,
            meter_line: &swept.meter_line,
            perturbed: swept.perturbed,
        });
        batches.extend(swept.batches);
    }

    // The artifact tail: every file from one call, its two jobs side by
    // side when the worker budget allows.
    let manifest = state.lock().manifest.clone();
    let artifacts = write_artifacts(out_dir, &batches, spec, &manifest, job.workers)?;
    let record = registry.zip(core).map(|(registry, core)| {
        let info = RunInfo {
            workers: job.workers as u64,
            elapsed_s: manifest.arches.iter().map(|a| a.elapsed_s).sum(),
            manifest_digest: std::fs::read(out_dir.join("manifest.json"))
                .map(|b| Fnv1a::of(&b))
                .unwrap_or(0),
            out_dir: out_dir.display().to_string(),
            counters: scheduler_counters(&manifest),
        };
        let rev = detect_git_rev(Path::new("."));
        registry.append(RunCore::Collect(core), info, &rev, unix_now())
    });
    Ok(Finished {
        batches,
        manifest,
        artifacts,
        record,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scope;

    /// The registry's counters come from the manifest, whose sample-cache
    /// pair is cumulative: 585 misses then 900 hits is 900/585 for the
    /// run, not 900/1170 — and none is a session-gated engine counter.
    #[test]
    fn registry_counters_sum_the_manifest() {
        let mut manifest = RunManifest::new(&SweepSpec::default());
        for (arch, sample_hits) in [(Arch::A64fx, 0), (Arch::Skylake, 900)] {
            let stats = SweepStats {
                plan_hits: 7,
                plan_misses: 5,
                sample_hits,
                sample_misses: 585,
                steals: 2,
                units: 11,
            };
            manifest.push_arch(arch, &[], 0, 0.0, stats, omptel::Histogram::new());
        }
        let counters = scheduler_counters(&manifest);
        assert!(counters.is_sorted(), "the registry stores them sorted");
        let (names, totals): (Vec<_>, Vec<_>) = counters.into_iter().unzip();
        let all = "plan_hits plan_misses sample_hits sample_misses steals units";
        assert_eq!(names.join(" "), all);
        assert_eq!(totals, [14, 10, 900, 585, 4, 22]);
    }

    /// The merged observer of a monitored state against the two closures
    /// it replaced: each tracker sees the same observations in the same
    /// order.
    #[test]
    fn one_observer_feeds_both_trackers_like_the_two_it_replaced() {
        let time_ref = |live: &mut LiveInfluence, data: &SettingData| {
            let default = data.default_mean();
            if !default.is_finite() || default <= 0.0 {
                return;
            }
            for sample in &data.samples {
                let mean = sample.mean_runtime();
                if mean.is_finite() && mean > 0.0 {
                    live.observe(&sample.config, default / mean);
                }
            }
        };
        let energy_ref = |live: &mut LiveInfluence, data: &SettingData| {
            let default = data.default_telemetry.energy.total_j;
            if !default.is_finite() || default <= 0.0 {
                return;
            }
            for sample in &data.samples {
                let joules = sample.telemetry.energy.total_j;
                if joules.is_finite() && joules > 0.0 {
                    live.observe(&sample.config, default / joules);
                }
            }
        };

        // Failure injection leaves non-finite repetitions in the batches,
        // so the guards are exercised too.
        let spec = SweepSpec {
            scope: Scope::Strided(400),
            failure_rate: 0.2,
            ..SweepSpec::default()
        };
        let batches = sweep_arch_scheduled(Arch::Skylake, &spec, &SweepOptions::new(1));
        let mut batches = batches.batches;
        // One batch whose time default is unusable but whose energy
        // default is not: only the energy tracker may move.
        batches[0].default_runtimes.fill(f64::NAN);

        let state = State::monitored(&spec);
        let unmonitored = State::new(&spec);
        let mut reference = [LiveInfluence::new(), LiveInfluence::new()];
        for data in &batches {
            state.lock().observe(data);
            unmonitored.lock().observe(data);
            time_ref(&mut reference[0], data);
            energy_ref(&mut reference[1], data);
        }
        assert!(unmonitored.lock().influence.is_none());
        let merged = state.lock().influence.clone().expect("monitored");
        assert!(merged[0].samples() > 0);
        assert!(merged[1].samples() > merged[0].samples());
        for (live, reference) in merged.iter().zip(&reference) {
            let bits = |live: &LiveInfluence| -> Vec<u64> {
                live.influence().iter().map(|(_, v)| v.to_bits()).collect()
            };
            assert_eq!(live.samples(), reference.samples());
            assert_eq!(bits(live), bits(reference));
            assert_eq!(live, reference);
        }
    }
}
