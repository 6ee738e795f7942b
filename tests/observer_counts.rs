//! What the sweep's observers add per sample is a fixed amount of work,
//! so it is held here as exact counts rather than as wall-clock ratios
//! in a bench (the benches time one unit of each in isolation:
//! `recorder_span_s`, `registry_fold_s`, `influence_observe_s`). This
//! file is its own process because the flight recorder is process-global.
//!
//! - **Flight recorder, cold.** Every simulated sample (each config and
//!   each batch's default row) emits a `Sample` and a `Price` span; each
//!   plan lookup a `PlanHit` instant or a `PlanBuild` span; each unit its
//!   `Unit`/`DefaultRow` span and both ends of its flow; each
//!   architecture its `ArchSweep` and `Seed` spans; each steal one
//!   instant. Nothing is dropped.
//! - **Flight recorder, warm.** The plan and price events give way to a
//!   `CacheHit` instant inside each `Sample` span and one `CacheRead`
//!   span per batch.
//! - **Live influence.** The batch observer feeds the tracker every
//!   sample with a finite, positive mean under a finite, positive
//!   default, once.
//!
//! Each holds at workers 1, 2 and 4, where steals and plan-build races
//! differ from run to run.

use omptel::Recorder;
use omptune_core::{Arch, LiveInfluence};
use std::sync::Mutex;
use sweep::{SampleCache, Scope, SettingData, SweepOptions, SweepOutcome, SweepSpec};

/// One sweep under a default-settings flight recorder: the outcome, the
/// events retained and the events dropped.
fn traced(spec: &SweepSpec, opts: &SweepOptions) -> (SweepOutcome, u64, u64) {
    let recorder = Recorder::start().expect("no other recorder is live");
    let outcome = sweep::sweep_all_scheduled(spec, opts);
    let recording = recorder.finish();
    let events = recording.total_events() as u64;
    (outcome, events, recording.total_dropped())
}

/// `(samples + default rows, batches)` of a sweep.
fn simulated(outcome: &SweepOutcome) -> (u64, u64) {
    let batches = outcome.batches.len() as u64;
    let samples: u64 = outcome.batches.iter().map(|b| b.samples.len() as u64).sum();
    (samples + batches, batches)
}

#[test]
fn observers_add_an_exact_count_of_work_per_sample() {
    let spec = SweepSpec {
        scope: Scope::Strided(300),
        ..SweepSpec::default()
    };
    let arches = Arch::ALL.len() as u64;
    let dir = std::env::temp_dir().join(format!("omptune-observer-counts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    sweep::sweep_all_scheduled(
        &spec,
        &SweepOptions::new(4).with_cache(&SampleCache::new(&dir)),
    );

    for workers in [1, 2, 4] {
        let (cold, events, dropped) = traced(&spec, &SweepOptions::new(workers));
        let (sims, _) = simulated(&cold);
        let s = cold.stats;
        assert_eq!(
            s.plan_hits + s.plan_misses,
            sims,
            "one plan lookup per sample"
        );
        assert_eq!(
            (events, dropped),
            (
                4 * sims + s.plan_hits + 2 * s.plan_misses + 4 * s.units + 4 * arches + s.steals,
                0
            ),
            "cold sweep at {workers} workers: {s:?}"
        );

        let cache = SampleCache::new(&dir);
        let (warm, events, dropped) = traced(&spec, &SweepOptions::new(workers).with_cache(&cache));
        let (sims, batches) = simulated(&warm);
        let s = warm.stats;
        assert_eq!(
            (s.sample_hits, s.sample_misses, s.plan_hits + s.plan_misses),
            (sims, 0, 0),
            "a warm sweep replays every sample"
        );
        assert_eq!(
            (events, dropped),
            (
                3 * sims + 2 * batches + 4 * s.units + 4 * arches + s.steals,
                0
            ),
            "warm sweep at {workers} workers: {s:?}"
        );

        let live = Mutex::new(LiveInfluence::new());
        let usable = |t: f64| t.is_finite() && t > 0.0;
        let observer = |data: &SettingData| {
            let default = data.default_mean();
            if !usable(default) {
                return;
            }
            let mut live = live.lock().unwrap();
            for sample in &data.samples {
                let mean = sample.mean_runtime();
                if usable(mean) {
                    live.observe(&sample.config, default / mean);
                }
            }
        };
        let observed = sweep::sweep_all_scheduled(
            &spec,
            &SweepOptions::new(workers).with_batch_observer(&observer),
        );
        let expected = observed
            .batches
            .iter()
            .filter(|b| usable(b.default_mean()))
            .flat_map(|b| &b.samples)
            .filter(|s| usable(s.mean_runtime()))
            .count() as u64;
        assert!(expected > 0, "nothing to observe");
        assert_eq!(
            live.lock().unwrap().samples(),
            expected,
            "live influence at {workers} workers"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
