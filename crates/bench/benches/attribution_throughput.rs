//! Attribution folding throughput and what live influence costs a sweep.
//!
//! Two claims ompprof makes that need numbers behind them:
//!
//! - folding a sweep slice into a per-(variable, value) attribution
//!   profile is cheap enough to run on every collection
//!   (`attribute_s`, plus a samples/s figure), and shard-then-merge is
//!   byte-identical to the whole-slice fold (asserted every run, smoke
//!   and full);
//! - streaming the logistic influence tracker from the sweep's batch
//!   observer — what every `collect` run does, so that `--monitor` can
//!   show the ranking on `/metrics` — costs one `LiveInfluence::observe`
//!   per usable sample
//!   (`influence_observe_s`, timed in isolation; the count is tier-1's
//!   `tests/observer_counts.rs`). The observed and plain sweeps are timed
//!   too, and `influence_overhead` is their informational quotient.
//!
//! It also clocks the batch analysis those streams stand in for: the
//! three `influence_analysis` heat maps (Figs. 2–4) over the fast
//! reproduction dataset (`influence_fit_s`).
//!
//! Results go to `BENCH_profile.json` at the repo root (override with
//! `BENCH_OUT`); every timing key publishes its repetitions
//! (`*_s_reps`), which are what `bench-diff` gates.
//!
//! `harness = false`: under `cargo test` (argv contains `--test`) this
//! runs a fast smoke slice and publishes nothing; under `cargo bench` it
//! runs the full measurement and publishes the document.

use bench_harness::{BenchDoc, ReproScope, Reproduction, Series};
use ompprof::Attribution;
use omptune_core::{influence_analysis, GroupBy, LiveInfluence, TuningConfig};
use std::sync::Mutex;
use sweep::{slice_fingerprint, Scope, SettingData, SweepOptions, SweepSpec};

const WORKERS: usize = 4;

fn sweep_once(
    spec: &SweepSpec,
    observer: Option<&(dyn Fn(&SettingData) + Sync)>,
) -> Vec<SettingData> {
    let mut opts = SweepOptions::new(WORKERS);
    if let Some(o) = observer {
        opts = opts.with_batch_observer(o);
    }
    sweep::sweep_all_scheduled(spec, &opts).batches
}

/// What the live-influence observer feeds its tracker from one batch:
/// each sample's speedup over the default, where both mean runtimes are
/// finite and positive.
fn speedups(data: &SettingData) -> impl Iterator<Item = (&TuningConfig, f64)> {
    let usable = |t: f64| t.is_finite() && t > 0.0;
    let default = data.default_mean();
    let samples = if usable(default) {
        &data.samples[..]
    } else {
        &[]
    };
    samples.iter().filter_map(move |s| {
        let mean = s.mean_runtime();
        usable(mean).then(|| (&s.config, default / mean))
    })
}

fn fold_all(batches: &[SettingData]) -> Attribution {
    let mut a = Attribution::new();
    a.fold_slice(batches);
    a
}

/// Shard-then-merge must equal the whole fold byte for byte — the
/// property that makes partial profiles from different workers (or
/// different clusters) safe to combine. Checked on every run so a
/// regression can never hide behind a green timing gate.
fn assert_merge_identity(batches: &[SettingData], whole: &Attribution) {
    let samples: Vec<_> = batches.iter().flat_map(|b| b.samples.iter()).collect();
    for shards in [2usize, 5] {
        let mut merged = Attribution::new();
        for chunk in samples.chunks(samples.len().div_ceil(shards).max(1)) {
            let mut shard = Attribution::new();
            for s in chunk {
                shard.fold_sample(s);
            }
            merged.merge(&shard);
        }
        assert_eq!(
            &merged, whole,
            "merging {shards} shards diverged from the whole-slice fold"
        );
    }
}

fn run(scope: Scope) {
    let full = bench_harness::full_run();
    let spec = SweepSpec {
        scope,
        ..SweepSpec::default()
    };

    // Interleaved plain/influence pass pairs, so both series see the same
    // machine weather. 7 paired reps is the smallest count where an
    // all-worse outcome reaches p < 0.05 two-sided under the Wilcoxon
    // signed-rank test that bench-diff applies.
    let (passes, budget_s) = if full { (7, 0.02) } else { (3, 0.001) };
    let (mut plain, mut influence) = (Series::default(), Series::default());
    let mut batches = Vec::new();
    let mut final_influence_samples = 0u64;
    for _ in 0..passes {
        batches = plain.time(|| sweep_once(&spec, None));

        let live = Mutex::new(LiveInfluence::new());
        let observer = |data: &SettingData| {
            let mut live = live.lock().expect("influence tracker poisoned");
            for (config, speedup) in speedups(data) {
                live.observe(config, speedup);
            }
        };
        let observed = influence.time(|| sweep_once(&spec, Some(&observer)));
        assert_eq!(
            slice_fingerprint(&batches),
            slice_fingerprint(&observed),
            "influence-observed sweep diverged from the plain sweep"
        );
        final_influence_samples = live.lock().expect("influence tracker poisoned").samples();
    }
    let overhead = influence.best() / plain.best();

    // One `LiveInfluence::observe`, on one thread: the unit of the
    // observer's per-sample tax.
    let observations: Vec<_> = batches.iter().flat_map(speedups).collect();
    assert_eq!(observations.len() as u64, final_influence_samples);
    let mut live = LiveInfluence::new();
    let observe = Series::per_iteration(passes, budget_s, || {
        for &(config, speedup) in &observations {
            live.observe(config, speedup);
        }
    })
    .scaled(1.0 / observations.len() as f64);
    let samples: u64 = batches.iter().map(|b| b.samples.len() as u64).sum();

    // Attribution folding throughput over the slice just swept.
    let mut whole = Attribution::new();
    let attribute = Series::of(passes, || whole = fold_all(&batches));
    assert_eq!(whole.samples(), samples, "attribution lost samples");
    assert_merge_identity(&batches, &whole);

    // The analysis layer: Figs. 2–4's three groupings fitted over the
    // dataset `repro-figures fast` draws.
    let records = Reproduction::generate(ReproScope::Fast).dataset.records;
    let mut models = 0;
    let fit = Series::of(passes, || {
        models = [
            GroupBy::Application,
            GroupBy::Architecture,
            GroupBy::ArchApplication,
        ]
        .map(|g| influence_analysis(&records, g).expect("fits").rows.len())
        .iter()
        .sum();
    });

    let (plain_s, influence_s, attribute_s) = (plain.best(), influence.best(), attribute.best());
    let fold_rate = samples as f64 / attribute_s.max(1e-12);
    println!("attribution_throughput ({scope:?}): {samples} samples, {WORKERS} workers");
    println!("  sweep plain:              {plain_s:.4}s");
    println!("  sweep + live influence:   {influence_s:.4}s ({overhead:.3}x, {final_influence_samples} observed)");
    println!(
        "  live influence observe:   {:.1} ns/sample",
        observe.best() * 1e9
    );
    println!("  attribute (fold slice):   {attribute_s:.6}s ({fold_rate:.0} samples/s)");
    println!("  shard-merge identity:     ok (2 and 5 shards, byte-equal)");
    println!(
        "  influence fit (3 maps):   {:.4}s ({models} models, {} records)",
        fit.best(),
        records.len()
    );

    BenchDoc::new("attribution_throughput")
        .text("scope", &format!("{scope:?}"))
        .count("workers", WORKERS as u64)
        .count("samples", samples)
        .series("sweep_plain_s", plain_s, &plain)
        .series("sweep_influence_s", influence_s, &influence)
        .ratio("influence_overhead", overhead)
        .series("influence_observe_s", observe.best(), &observe)
        .series("attribute_s", attribute_s, &attribute)
        .count("attribute_samples_per_s", fold_rate.round() as u64)
        .count("influence_records", records.len() as u64)
        .count("influence_models", models as u64)
        .series("influence_fit_s", fit.best(), &fit)
        .publish("BENCH_profile.json");
}

fn main() {
    // cargo test: smoke slice, no artifact. Merge identity still holds.
    let stride = if bench_harness::full_run() { 100 } else { 300 };
    run(Scope::Strided(stride));
}
