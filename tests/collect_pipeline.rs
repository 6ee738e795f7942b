//! The collection run's spine, in-process: `sweep::collect::run` at the
//! `tiny` scope, cold, monitored, warm, half-warm and over a damaged
//! cache at workers 4/2/1, must leave the same data files and the same
//! content address — and a perturbed run a different one. A monitored
//! run differs from the others only in what `/metrics` reads: its state
//! holds the influence trackers. These were `scripts/verify.sh` legs
//! over eight spawns of the `collect` binary; the binary is now a
//! command line around the function called here.

use omptune::core::Arch;
use omptune::data::collect::{self, Job, State};
use omptune::data::export::{read_raw_json, ARTIFACT_FILES};
use omptune::data::series::{all_stratum_series, fold_stratum_series};
use omptune::data::{
    read_manifest, Registry, RegistryLoad, RunManifest, RunRecord, SampleCache, Scope, SweepSpec,
};
use omptune::tel::{Counter, CounterSnapshot};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const DATA_FILES: [&str; 4] = [
    "provenance.jsonl",
    "samples.csv",
    "raw_batches.json",
    "SUMMARY.txt",
];

/// One finished run: its data files, what its cache handle counted, and
/// the record it appended.
struct Run {
    /// Bytes of each of [`DATA_FILES`].
    files: [Vec<u8>; 4],
    /// `manifest.json` as read back, less its wall-clock fields.
    manifest: RunManifest,
    /// Samples each influence tracker of the run's state observed, `None`
    /// for a state without trackers.
    influence_samples: Option<[u64; 2]>,
    hits: u64,
    misses: u64,
    /// Plan builds, summed over the manifest's architectures.
    plan_misses: u64,
    /// Each architecture's own sample-cache `(hits, misses)`, as the
    /// manifest records them, `Arch::ALL` order.
    lookups: Vec<(u64, u64)>,
    record: RunRecord,
}

/// Every run of the file, made once, in `verify.sh`'s order, and read
/// back before the scratch directory goes.
struct Runs {
    cold: Run,
    /// A cold run into a fresh cache with a telemetry session open
    /// around it and the trackers in its state, as `collect --monitor`
    /// runs.
    monitored: Run,
    /// What that session counted.
    monitored_counters: CounterSnapshot,
    warm2: Run,
    half_warm: Run,
    warm1: Run,
    damaged: Run,
    perturbed: Run,
    /// Files under the shared cache directory after the three sound
    /// runs, relative to it.
    cache_files: Vec<PathBuf>,
    /// The stratum series folded from the cold run's `raw_batches.json`.
    cold_series: Vec<String>,
    /// What the cold run left in its directory besides the artifacts.
    cold_extra: Vec<PathBuf>,
    /// The shared registry as it loads after all seven runs.
    registry: RegistryLoad,
}

fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out.sort();
    out
}

fn copy_dir(from: &Path, to: &Path) {
    for file in files_under(from) {
        let dest = to.join(file.strip_prefix(from).unwrap());
        fs::create_dir_all(dest.parent().unwrap()).unwrap();
        fs::copy(&file, dest).unwrap();
    }
}

fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        let root = std::env::temp_dir().join(format!("omptune-pipeline-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let spec = SweepSpec {
            scope: Scope::Strided(400),
            ..SweepSpec::default()
        };
        let registry = Registry::open(root.join(".ompobs")).unwrap();
        let run_in = |state: State, name: &str, workers: usize, cache_dir: &str, perturb| {
            let cache = SampleCache::new(root.join(cache_dir));
            let job = Job {
                spec: &spec,
                workers,
                cache: Some(&cache),
                perturb,
            };
            let out = root.join(name);
            let done = collect::run(&job, &out, Some(&registry), &state, &mut ()).unwrap();
            let (hits, misses) = cache.stats();
            let influence = state.lock().influence.clone();
            let mut manifest =
                read_manifest(&fs::read(out.join("manifest.json")).unwrap()).unwrap();
            for arch in &mut manifest.arches {
                arch.elapsed_s = 0.0;
                arch.sample_latency = omptune::tel::Histogram::new();
                arch.stats.steals = 0;
            }
            Run {
                files: DATA_FILES.map(|file| fs::read(out.join(file)).unwrap()),
                manifest,
                influence_samples: influence.map(|live| live.map(|l| l.samples())),
                hits,
                misses,
                plan_misses: done
                    .manifest
                    .arches
                    .iter()
                    .map(|a| a.stats.plan_misses)
                    .sum(),
                lookups: (0..done.manifest.arches.len())
                    .map(|i| done.manifest.arch_lookups(i))
                    .collect(),
                record: done.record.unwrap().unwrap(),
            }
        };

        let run = |name: &str, workers: usize, cache_dir: &str, perturb| {
            run_in(State::new(&spec), name, workers, cache_dir, perturb)
        };
        let cold = run("cold", 4, "cache", None);
        // The fixture makes its runs one after another, so no other
        // session interleaves with this one.
        let session = omptune::tel::session().expect("no other telemetry session");
        let monitored = run_in(
            State::monitored(&spec),
            "monitored",
            4,
            "cache-monitored",
            None,
        );
        let monitored_counters = session.finish();
        let warm2 = run("warm2", 2, "cache", None);
        // A half-warm cache: a64fx recomputes, the other two replay.
        copy_dir(&root.join("cache"), &root.join("cache-mixed"));
        fs::remove_dir_all(root.join("cache-mixed/a64fx")).unwrap();
        let half_warm = run("half-warm", 2, "cache-mixed", None);
        let warm1 = run("warm1", 1, "cache", None);
        let cache_files = files_under(&root.join("cache"));
        // Byte 3 of every batch header's magic flipped: nothing may
        // answer, so the run recomputes everything and rewrites the files.
        for bin in &cache_files {
            let mut bytes = fs::read(bin).unwrap();
            bytes[3] = !bytes[3];
            fs::write(bin, bytes).unwrap();
        }
        let damaged = run("damaged", 1, "cache", None);
        let perturbed = run("perturbed", 2, "cache", Some((Arch::Skylake, 1.10)));
        let cold_raw = fs::read(root.join("cold/raw_batches.json")).unwrap();
        let cold_series = fold_stratum_series(&read_raw_json(&cold_raw).unwrap());
        let cold_extra = fs::read_dir(root.join("cold"))
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| !ARTIFACT_FILES.iter().any(|file| path.ends_with(file)))
            .collect();

        let runs = Runs {
            cold,
            monitored,
            monitored_counters,
            warm2,
            half_warm,
            warm1,
            damaged,
            perturbed,
            cold_series: cold_series.into_keys().collect(),
            cold_extra,
            registry: registry.load().unwrap(),
            cache_files: cache_files
                .iter()
                .map(|file| file.strip_prefix(root.join("cache")).unwrap().to_owned())
                .collect(),
        };
        fs::remove_dir_all(&root).unwrap();
        runs
    })
}

impl Runs {
    /// The six runs that must agree, with what each one is.
    fn identical(&self) -> [(&Run, &str); 6] {
        [
            (&self.cold, "cold sweep at workers 4"),
            (&self.monitored, "cold sweep under a telemetry session"),
            (&self.warm2, "warm sweep at workers 2"),
            (&self.half_warm, "sweep over a half-warm cache"),
            (&self.warm1, "warm sweep at workers 1"),
            (&self.damaged, "sweep over damaged batch headers"),
        ]
    }
}

#[test]
fn cold_warm_half_warm_and_damaged_runs_leave_identical_data_files() {
    let runs = runs();
    // The artifact tail writes provenance on a second thread at workers
    // 4 and 2 and after the other files at workers 1.
    for (i, name) in DATA_FILES.iter().enumerate() {
        let cold = &runs.cold.files[i];
        assert!(!cold.is_empty(), "{name} is empty");
        for (run, what) in &runs.identical()[1..] {
            let same = run.files[i] == *cold;
            assert!(same, "{what}: {name} diverged from the cold sweep");
        }
    }
    // Cold computed everything, warm replayed everything.
    assert_eq!(
        (runs.cold.hits, runs.warm2.misses, runs.warm1.misses),
        (0, 0, 0)
    );
    assert_eq!(runs.cold.misses, runs.warm2.hits);
    assert_eq!(runs.cold.misses, runs.warm1.hits);
}

/// The byte-identity above gates energy reproducibility too — but only
/// if every provenance record carries its closed energy breakdown.
#[test]
fn provenance_records_carry_their_energy_breakdown() {
    let provenance = std::str::from_utf8(&runs().cold.files[0]).unwrap();
    assert!(provenance.lines().count() > 0);
    for line in provenance.lines() {
        assert!(line.contains("\"total_j\""), "no total_j in {line}");
    }
}

#[test]
fn a_cache_with_every_batch_header_damaged_answers_no_lookup() {
    let damaged = &runs().damaged;
    assert_eq!(damaged.hits, 0);
    assert_eq!(damaged.misses, runs().cold.misses);
}

#[test]
fn the_cache_directory_holds_only_arch_stem_bin_files() {
    let runs = runs();
    assert!(
        !runs.cache_files.is_empty(),
        "the cache holds no batch files"
    );
    let arches: Vec<&str> = Arch::ALL.iter().map(|a| a.id()).collect();
    for rel in &runs.cache_files {
        let parts: Vec<_> = rel.iter().map(|p| p.to_str().unwrap()).collect();
        let [arch, stem] = parts[..] else {
            panic!("{} is not <arch>/<stem>.bin", rel.display());
        };
        assert!(arches.contains(&arch), "{}", rel.display());
        assert!(stem.ends_with(".bin"), "{}", rel.display());
    }
}

/// A run records joules beside virtual time: its dataset folds into one
/// stratified series of each per architecture (`tiny` only fills
/// stratum 0), and nothing but the stratum series `ompobs drift` pairs.
/// The series are not stored a second time: the run directory holds the
/// artifact files and no `tsdb/`.
#[test]
fn every_architecture_records_energy_series_beside_virtual_time() {
    assert_eq!(runs().cold_extra, Vec::<PathBuf>::new());
    let series = &runs().cold_series;
    for arch in Arch::ALL {
        for name in ["virt/s0", "energy/s0"] {
            let name = format!("{}/{name}", arch.id());
            assert!(series.contains(&name), "no {name} among {series:?}");
        }
    }
    let strata = all_stratum_series();
    for name in series {
        assert!(strata.contains(name), "{name} is not a stratum series");
    }
}

/// The recorded hit rate is per architecture: the cache handle's
/// counters are cumulative over the run, and a rate built from them
/// would read 900/1485 and 1875/2460.
#[test]
fn the_half_warm_run_records_each_architectures_own_cache_hit_rate() {
    let recorded = &runs().half_warm.lookups;
    assert_eq!(recorded.len(), Arch::ALL.len());
    for ((arch, &(hits, misses)), rate) in Arch::ALL.iter().zip(recorded).zip([0.0, 1.0, 1.0]) {
        assert!(hits + misses > 0, "{arch:?}: no lookups");
        let recorded = hits as f64 / (hits + misses) as f64;
        assert_eq!(recorded, rate, "{arch:?}: {hits} hits, {misses} misses");
    }
}

#[test]
fn identical_sweeps_share_one_content_address_and_a_perturbed_one_does_not() {
    let runs = runs();
    let address = runs.cold.record.record_hash;
    for (run, what) in runs.identical() {
        assert_eq!(run.record.record_hash, address, "{what}");
    }
    assert_ne!(runs.perturbed.record.record_hash, address);

    // What the runs returned is what the registry holds: seven collect
    // rows, in order, all intact.
    assert_eq!(runs.registry.corrupt_skipped, 0);
    let held = &runs.registry.records;
    let hashes: Vec<u64> = held.iter().map(|r| r.record_hash).collect();
    let perturbed = runs.perturbed.record.record_hash;
    assert_eq!(
        hashes,
        [address, address, address, address, address, address, perturbed]
    );
}

/// Only a monitored run's state holds the influence trackers, and
/// feeding them changes no artifact: the data files and `SUMMARY.txt`
/// are byte-equal to the unmonitored cold run's, and `manifest.json`
/// equal but for its wall-clock fields.
#[test]
fn only_a_monitored_state_holds_trackers_and_they_change_no_artifact() {
    let runs = runs();
    for (run, what) in runs.identical() {
        if !std::ptr::eq(run, &runs.monitored) {
            assert_eq!(run.influence_samples, None, "{what}");
        }
    }
    let observed = runs.monitored.influence_samples.expect("monitored");
    assert!(observed.iter().all(|&n| n > 0), "{observed:?}");
    assert_eq!(runs.monitored.files, runs.cold.files);
    assert_eq!(runs.monitored.manifest, runs.cold.manifest);
}

/// `collect --monitor`'s session counts exactly the plan builds the
/// run's own manifest records (and, by the byte-identity above, changes
/// nothing it writes).
#[test]
fn a_monitored_runs_session_counts_the_plan_builds_its_manifest_records() {
    let runs = runs();
    assert!(runs.monitored.plan_misses > 0, "a cold run builds plans");
    assert_eq!(runs.monitored.plan_misses, runs.cold.plan_misses);
    assert_eq!(
        runs.monitored_counters.get(Counter::PlanCacheMisses),
        runs.monitored.plan_misses
    );
}

/// A run's record carries the scheduler counters of its manifest and
/// none of the session-gated engine counters (`priced_batches` …), which
/// read a closed gate in an unmonitored run and were always zero.
#[test]
fn a_records_counters_are_exactly_the_six_scheduler_counters() {
    let counters = &runs().perturbed.record.info.counters;
    let names: Vec<&str> = counters.iter().map(|(name, _)| name.as_str()).collect();
    let six = "plan_hits plan_misses sample_hits sample_misses steals units";
    assert_eq!(names.join(" "), six);
    // The damaged run before it rewrote the cache: a warm replay.
    let get = |name: &str| counters.iter().find(|(n, _)| n == name).unwrap().1;
    assert_eq!((get("sample_misses"), get("plan_misses")), (0, 0));
    assert_eq!(get("sample_hits"), runs().cold.misses);
}
