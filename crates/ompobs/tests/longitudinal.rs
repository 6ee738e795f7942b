//! End-to-end: real sweeps folded into real registry records on disk,
//! then the sentinel and blame run over the loaded trail — the same
//! path `scripts/verify.sh` drives through the CLI.

use std::path::PathBuf;

use omptune_core::Arch;
use sweep::collect::Job;
use sweep::{CollectCore, Registry, RunCore, RunInfo, Scope, SweepSpec};

fn temp_registry(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ompobs-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The core `collect tiny` registers, optionally under the fault
/// `collect --perturb` injects (one architecture's runtimes, virtual
/// time and energy scaled, default rows included).
fn swept_core(perturb: Option<(Arch, f64)>) -> CollectCore {
    let spec = SweepSpec {
        scope: Scope::Strided(400),
        ..SweepSpec::default()
    };
    sweep::collect::core_of(&Job {
        spec: &spec,
        workers: 2,
        cache: None,
        perturb,
    })
}

fn append(reg: &Registry, core: CollectCore, rev: &str, ts: u64) -> sweep::RunRecord {
    reg.append(RunCore::Collect(core), RunInfo::default(), rev, ts)
        .expect("registry append")
}

#[test]
fn registered_history_yields_clean_sentinel_then_flags_a_perturbed_run() {
    let dir = temp_registry("trail");
    let reg = Registry::open(&dir).expect("open registry");

    let base = swept_core(None);
    let r0 = append(&reg, base.clone(), "rev-a", 100);
    let r1 = append(&reg, base.clone(), "rev-a", 200);
    let r2 = append(&reg, base.clone(), "rev-b", 300);
    assert_eq!(
        r0.record_hash, r1.record_hash,
        "identical sweeps share a content address"
    );
    assert_eq!(r1.record_hash, r2.record_hash);

    // Three identical registered runs: the sentinel is clean and ran
    // zero statistical tests (identity by address).
    let load = reg.load().expect("load registry");
    assert_eq!(load.records.len(), 3);
    assert_eq!(load.corrupt_skipped, 0);
    let clean_history = ompobs::sentinel(&load.records, 0.05);
    assert!(!clean_history.change, "{}", clean_history.render());
    assert_eq!(clean_history.family, 0);
    assert!(clean_history.steps.iter().all(|s| s.identical));

    // A fourth run with one architecture's virtual time inflated 10%
    // (the verify.sh fault injection) is a change-point, and blame
    // names that architecture's slice.
    let perturbed = swept_core(Some((Arch::Skylake, 1.10)));
    let r3 = append(&reg, perturbed, "rev-c", 400);
    assert_ne!(r3.record_hash, r2.record_hash);

    let load = reg.load().expect("reload registry");
    assert_eq!(load.records.len(), 4);
    let history = ompobs::sentinel(&load.records, 0.05);
    assert!(history.change, "{}", history.render());
    assert_eq!(history.change_points, vec![2], "only the final step moves");
    let step = &history.steps[2];
    assert!(
        step.rows
            .iter()
            .any(|r| r.change && r.series.starts_with("skylake/virt/")),
        "{}",
        history.render()
    );
    assert!(
        !step
            .rows
            .iter()
            .any(|r| r.change && r.series.starts_with("a64fx/")),
        "untouched architecture must not be flagged: {}",
        history.render()
    );

    let (from, to) = history.default_bracket().expect("bracket");
    assert_eq!((from, to), (2, 3));
    let blame = ompobs::blame(&load.records, from, to).expect("blame");
    let top = blame.top.as_ref().expect("top slice");
    assert_eq!(top.arch, "skylake");
    assert!(
        (top.delta_rel - 0.10).abs() < 0.02,
        "relative delta tracks the injected factor: {}",
        blame.render()
    );
    assert!(blame.render().contains("top regressed slice: skylake/"));

    let _ = std::fs::remove_dir_all(&dir);
}
