//! Golden digests of the `collect` artifacts and of the `config_hash`
//! join key. Every literal below was captured at the commit before
//! serialization became streaming (PR 12, 3f80042): the writers may get
//! faster, the bytes may not change. The artifacts are written the way
//! `collect` writes them, through `write_artifacts`, so the digests also
//! pin that its two jobs leave the same files at any worker count.

use omptune::core::{Arch, Fnv1a, TuningConfig};
use omptune::data::collect::{self, Job, State};
use omptune::data::export::{write_artifacts, ArtifactSummary, ARTIFACT_FILES};
use omptune::data::{self, Scope, SweepSpec};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// What `collect tiny` hands to its artifact tail — one library run at
/// the same spec — with the manifest's wall-clock fields (elapsed
/// seconds, the latency histogram) set to zero. Swept once for the
/// whole file.
fn tiny_run() -> &'static (Vec<data::SettingData>, SweepSpec, data::RunManifest) {
    static RUN: OnceLock<(Vec<data::SettingData>, SweepSpec, data::RunManifest)> = OnceLock::new();
    RUN.get_or_init(|| {
        let spec = SweepSpec {
            scope: Scope::Strided(400),
            ..SweepSpec::default()
        };
        let job = Job {
            spec: &spec,
            workers: 1,
            cache: None,
            perturb: None,
        };
        let dir = scratch_dir("run");
        let done = collect::run(&job, &dir, None, &State::new(&spec), &mut ()).unwrap();
        let _ = fs::remove_dir_all(&dir);
        let mut manifest = done.manifest;
        for arch in &mut manifest.arches {
            arch.elapsed_s = 0.0;
            arch.sample_latency = omptune::tel::Histogram::new();
        }
        (done.batches, spec, manifest)
    })
}

/// A fresh, empty directory under the system temp dir.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("omptune-golden-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// `collect`'s tail into `dir`: every artifact through the one library
/// function, its jobs on `workers` threads' budget.
fn write_tiny(dir: &Path, workers: usize) -> std::io::Result<ArtifactSummary> {
    let (batches, spec, manifest) = tiny_run();
    write_artifacts(dir, batches, spec, manifest, workers)
}

#[test]
fn tiny_collect_artifacts_match_the_golden_digests() {
    // `manifest.json` also pins each arch's plan hit and miss counts, so
    // it moves with the plan cache's key; the other three do not.
    let golden: [(&str, usize, u64); 4] = [
        ("samples.csv", 162278, 0x9584286d713cb238),
        ("raw_batches.json", 1670600, 0x3c18d76107f1f6cb),
        ("provenance.jsonl", 1544788, 0x17031c53888e2e7e),
        ("manifest.json", 2679, 0xd51b7436fc4b1d89),
    ];
    for workers in [1, 2, 4] {
        let dir = scratch_dir(&format!("w{workers}"));
        write_tiny(&dir, workers).unwrap();
        for (name, glen, gfnv) in golden {
            let bytes = fs::read(dir.join(name)).unwrap();
            assert_eq!(
                (bytes.len(), Fnv1a::of(&bytes)),
                (glen, gfnv),
                "{name} changed at {workers} worker(s): length or FNV-1a differs from the golden"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_artifact_summary_counts_what_is_on_disk() {
    for workers in [1, 2] {
        let dir = scratch_dir(&format!("summary{workers}"));
        let summary = write_tiny(&dir, workers).unwrap();
        assert_eq!(summary.threads, workers);
        for (name, bytes) in ARTIFACT_FILES.iter().zip(summary.bytes) {
            let on_disk = fs::metadata(dir.join(name)).unwrap().len();
            assert_eq!(bytes, on_disk, "{name} at {workers} worker(s)");
            assert!(on_disk > 0, "{name} is empty");
        }
        let provenance = fs::read_to_string(dir.join("provenance.jsonl")).unwrap();
        assert_eq!(summary.provenance_lines, provenance.lines().count());
        let samples: usize = tiny_run().0.iter().map(|b| b.samples.len()).sum();
        assert_eq!(summary.provenance_lines, samples);
        // The whole call covers both jobs, however they were arranged.
        assert!(summary.wall_s >= summary.dataset_job_s.max(summary.provenance_job_s));
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn the_first_failed_file_in_report_order_is_the_error() {
    // (files that cannot be created, the one the error must name): the
    // dataset job writes raw_batches.json and manifest.json, the
    // provenance job provenance.jsonl, so both jobs fail in both rows
    // and each row is won by a different job.
    let cases = [
        (["raw_batches.json", "provenance.jsonl"], "raw_batches.json"),
        (["provenance.jsonl", "manifest.json"], "provenance.jsonl"),
    ];
    for workers in [1, 2] {
        for (blocked, named) in cases {
            let dir = scratch_dir(&format!("blocked{workers}"));
            for name in blocked {
                fs::create_dir(dir.join(name)).unwrap();
            }
            let err = write_tiny(&dir, workers).unwrap_err().to_string();
            let path = dir.join(named).display().to_string();
            assert!(
                err.starts_with(&path),
                "at {workers} worker(s) the error should name {path}: {err}"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn config_hash_matches_the_pinned_literals() {
    let default = TuningConfig::default_for(Arch::Milan, 96);
    let mut spread = default;
    spread.proc_bind = omptune::core::OmpProcBind::Spread;
    let mut aligned = TuningConfig::default_for(Arch::A64fx, 48);
    aligned.align_alloc = omptune::core::KmpAlignAlloc(4096);
    let golden: [(TuningConfig, u64); 5] = [
        (default, 0x084ab64fa1bb6e3c),
        (spread, 0xf179c521301464c8),
        (aligned, 0x2bc8b32bbc91d3a0),
        (
            TuningConfig::default_for(Arch::Skylake, 40),
            0x21e1354fb01cced5,
        ),
        (
            TuningConfig::default_for(Arch::Skylake, 1),
            0x807ef73fbdf61fa0,
        ),
    ];
    for (config, hash) in golden {
        assert_eq!(data::config_hash(&config), hash, "{config:?}");
    }
}
