//! Attribution merge laws as properties: folding per-worker shards then
//! merging must be byte-identical to folding the whole sweep — at any
//! shard boundary, in any merge order, including slices with
//! failure-injected NaN samples, and regardless of the worker count
//! that produced the slice.

use ompprof::{Attribution, SliceMeta};
use omptune_core::Arch;
use proptest::prelude::*;
use std::sync::OnceLock;
use sweep::{RawSample, Scope, SettingData, SweepSpec};

/// One shared fixture slice: a strided CG/Milan sweep with failures
/// injected, computed once (sweeps are deterministic, tests are not
/// about the sweep itself).
fn fixture() -> &'static Vec<SettingData> {
    static SLICE: OnceLock<Vec<SettingData>> = OnceLock::new();
    SLICE.get_or_init(|| {
        let spec = SweepSpec {
            scope: Scope::Strided(500),
            reps: 3,
            seed: 41,
            failure_rate: 0.1,
        };
        let app = workloads::app("cg").expect("cg registered");
        let setting = workloads::Setting {
            input_code: 0,
            num_threads: 96,
        };
        vec![sweep::sweep_setting(Arch::Milan, app, setting, 0, &spec)]
    })
}

fn all_samples() -> Vec<&'static RawSample> {
    fixture().iter().flat_map(|b| b.samples.iter()).collect()
}

fn whole() -> Attribution {
    let mut a = Attribution::new();
    a.fold_slice(fixture());
    a
}

fn meta() -> SliceMeta {
    SliceMeta {
        arch: "milan".into(),
        app: "cg".into(),
        scope: "strided(500)".into(),
        seed: 41,
        fingerprint: sweep::slice_fingerprint(fixture()),
    }
}

proptest! {
    /// Sharding at arbitrary boundaries and merging in order equals the
    /// whole-sweep fold, byte for byte.
    #[test]
    fn shard_then_merge_is_identity(cuts in prop::collection::vec(0usize..1000, 1..6)) {
        let samples = all_samples();
        prop_assume!(!samples.is_empty());
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (samples.len() + 1)).collect();
        bounds.push(0);
        bounds.push(samples.len());
        bounds.sort_unstable();
        bounds.dedup();

        let mut merged = Attribution::new();
        for w in bounds.windows(2) {
            let mut shard = Attribution::new();
            for s in &samples[w[0]..w[1]] {
                shard.fold_sample(s);
            }
            merged.merge(&shard);
        }
        let whole = whole();
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.to_json(&meta()), whole.to_json(&meta()));
    }

    /// Merge is commutative: reversing the shard merge order changes
    /// nothing (integer accumulation has no order sensitivity).
    #[test]
    fn merge_order_is_irrelevant(split in 1usize..1000) {
        let samples = all_samples();
        prop_assume!(samples.len() >= 2);
        let at = 1 + split % (samples.len() - 1);
        let mut left = Attribution::new();
        let mut right = Attribution::new();
        for s in &samples[..at] {
            left.fold_sample(s);
        }
        for s in &samples[at..] {
            right.fold_sample(s);
        }
        let mut ab = left.clone();
        ab.merge(&right);
        let mut ba = right.clone();
        ba.merge(&left);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.to_json(&meta()), ba.to_json(&meta()));
    }
}

/// The fixture really contains failure-injected NaN repetitions — the
/// merge-law properties above cover the NaN path, not just clean data.
#[test]
fn fixture_contains_nan_failures() {
    let nan_reps: u64 = all_samples()
        .iter()
        .flat_map(|s| &s.runtimes)
        .filter(|t| !t.is_finite())
        .count() as u64;
    assert!(nan_reps > 0, "fixture must inject failures");
    assert_eq!(whole().grand.failed_reps, nan_reps);
}

/// The attribution of a scheduler-produced slice is identical at any
/// worker count (the scheduler is deterministic; folding preserves it).
#[test]
fn worker_count_does_not_change_the_profile() {
    let spec = SweepSpec {
        scope: Scope::Strided(800),
        reps: 2,
        seed: 23,
        failure_rate: 0.05,
    };
    let app = workloads::app("cg").expect("cg registered");
    let setting = workloads::Setting {
        input_code: 0,
        num_threads: 96,
    };
    let mut profiles = Vec::new();
    for workers in [1usize, 2, 4] {
        let (data, _) = sweep::sweep_setting_scheduled(
            Arch::Milan,
            app,
            setting,
            0,
            &spec,
            &sweep::SweepOptions::new(workers),
        );
        let mut a = Attribution::new();
        a.fold_batch(&data);
        profiles.push(a);
    }
    let m = SliceMeta {
        arch: "milan".into(),
        app: "cg".into(),
        scope: "strided(800)".into(),
        seed: 23,
        fingerprint: 0,
    };
    assert_eq!(profiles[0], profiles[1]);
    assert_eq!(profiles[1], profiles[2]);
    assert_eq!(profiles[0].to_json(&m), profiles[2].to_json(&m));
}
