//! Attribution folding throughput and the live-influence overhead bar.
//!
//! Two claims ompprof makes that need numbers behind them:
//!
//! - folding a sweep slice into a per-(variable, value) attribution
//!   profile is cheap enough to run on every collection
//!   (`attribute_s`, plus a samples/s figure), and shard-then-merge is
//!   byte-identical to the whole-slice fold (asserted every run, smoke
//!   and full);
//! - streaming the logistic influence tracker from the sweep's batch
//!   observer — what `collect --monitor` does to serve `/influence` —
//!   slows the sweep by at most 5% (`influence_overhead <= 1.05`).
//!
//! It also clocks the batch analysis those streams stand in for: the
//! three `influence_analysis` heat maps (Figs. 2–4) over the fast
//! reproduction dataset (`influence_fit_s`).
//!
//! Results go to `BENCH_profile.json` at the repo root (override with
//! `BENCH_OUT`); every timing key publishes its repetitions
//! (`*_s_reps`) so `bench-diff` can put a band violation to the
//! Wilcoxon signed-rank test.
//!
//! `harness = false`: under `cargo test` (argv contains `--test`) this
//! runs a fast smoke slice and publishes nothing; under `cargo bench` it
//! runs the full measurement and publishes the document.

use bench_harness::{BenchDoc, ReproScope, Reproduction, Series};
use ompprof::Attribution;
use omptune_core::{influence_analysis, GroupBy, LiveInfluence};
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

    // The interleaved plain/influence pairs below are the overhead
    // measurement: pairing keeps a machine-wide stall from landing on
    // only one side of the ratio. 7 paired reps is the smallest count
    // where an all-worse outcome reaches p < 0.05 two-sided under the
    // Wilcoxon signed-rank test that bench-diff applies.
    let passes = if full { 7 } else { 3 };
    let (mut plain, mut influence) = (Series::default(), Series::default());
    let mut batches = Vec::new();
    let mut final_influence_samples = 0u64;
    let mut pair = || {
        batches = plain.time(|| sweep_once(&spec, None));

        let live = Mutex::new(LiveInfluence::new());
        let observer = |data: &SettingData| {
            let default = data.default_mean();
            if !default.is_finite() || default <= 0.0 {
                return;
            }
            let mut live = live.lock().expect("influence tracker poisoned");
            for sample in &data.samples {
                let mean = sample.mean_runtime();
                if mean.is_finite() && mean > 0.0 {
                    live.observe(&sample.config, default / mean);
                }
            }
        };
        let observed = influence.time(|| sweep_once(&spec, Some(&observer)));
        assert_eq!(
            slice_fingerprint(&batches),
            slice_fingerprint(&observed),
            "influence-observed sweep diverged from the plain sweep"
        );
        final_influence_samples = live.lock().expect("influence tracker poisoned").samples();
        influence.best() / plain.best()
    };
    let mut overhead = f64::INFINITY;
    for _ in 0..passes {
        overhead = pair();
    }
    // Re-measure up to three interleaved pairs before failing the bar:
    // best-of only improves, so this gives transient noise more chances
    // to wash out without masking a real regression.
    for _ in 0..3 {
        if !(full && overhead > 1.05) {
            break;
        }
        overhead = pair();
    }
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
    println!("  attribute (fold slice):   {attribute_s:.6}s ({fold_rate:.0} samples/s)");
    println!("  shard-merge identity:     ok (2 and 5 shards, byte-equal)");
    println!(
        "  influence fit (3 maps):   {:.4}s ({models} models, {} records)",
        fit.best(),
        records.len()
    );
    if full {
        // Timing-gate only in full bench mode; the smoke slice under
        // `cargo test` is too short for a stable ratio.
        assert!(
            overhead <= 1.05,
            "live influence overhead must stay within 5%, got {overhead:.3}x"
        );
    }

    BenchDoc::new("attribution_throughput")
        .text("scope", &format!("{scope:?}"))
        .count("workers", WORKERS as u64)
        .count("samples", samples)
        .series("sweep_plain_s", plain_s, &plain)
        .series("sweep_influence_s", influence_s, &influence)
        .ratio("influence_overhead", overhead)
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
