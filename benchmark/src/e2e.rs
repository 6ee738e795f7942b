//! The four end-to-end workloads, each driven as a closed loop with one
//! client: the next pass starts when the previous one has exited and its
//! output has been checked. Tracing is off here; see `staged.rs` for the
//! per-layer run.

use crate::measure::{self, fnv_dir, fnv_file, fnv_of, own_usage, reap, Fnv};
use crate::Ctx;
use omptune_core::Arch;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use sweep::{Scope, SettingData, SweepOptions, SweepSpec};

/// Set-up is repeated so that `setup_s` is a median, not one reading.
const SETUP_REPS: usize = 3;
/// A run shorter than this many passes has no median worth reporting.
const MIN_PASSES: usize = 3;

/// Host cost of one pass (or of one child process of a pass).
#[derive(Debug, Clone, Copy)]
pub struct PassCost {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Peak resident set of the pass's largest process.
    pub rss_mb: f64,
}

impl PassCost {
    /// Two children of one pass, run one after the other.
    fn then(self, next: PassCost) -> PassCost {
        PassCost {
            wall_s: self.wall_s + next.wall_s,
            cpu_s: self.cpu_s + next.cpu_s,
            rss_mb: self.rss_mb.max(next.rss_mb),
        }
    }
}

/// What one workload run measured.
pub struct Outcome {
    pub passes: Vec<PassCost>,
    pub setups_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    pub facts: Facts,
}

/// What a workload's passes produce, whatever they cost: equal between
/// two runs of the same tree or something is wrong.
pub struct Facts {
    pub samples_per_pass: u64,
    /// Simulated-time fingerprint of the workload's samples.
    pub virt_fnv: u64,
    /// Named output digests.
    pub digests: Vec<(String, u64)>,
}

pub trait Workload: Sized {
    /// Build everything a pass needs under `dir` (fresh and empty).
    fn setup(ctx: &Ctx, dir: &Path) -> Result<Self, String>;
    /// One timed pass plus its output checks; `Err` is a failed pass.
    fn pass(&mut self, ctx: &Ctx, index: usize) -> Result<PassCost, String>;
    fn facts(&self) -> Facts;
}

/// Set up `SETUP_REPS` times (keeping the last), then run passes back to
/// back for `ctx.seconds`.
pub fn run<W: Workload>(ctx: &Ctx) -> Result<Outcome, String> {
    // The smoke run checks outputs, not timings: one set-up, one pass.
    let (setup_reps, min_passes) = if ctx.smoke {
        (1, 1)
    } else {
        (SETUP_REPS, MIN_PASSES)
    };
    let mut setups_s = Vec::new();
    let mut state = None;
    for rep in 0..setup_reps {
        let dir = ctx.scratch.join(format!("setup{rep}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        measure::sync_disks();
        let t0 = Instant::now();
        let fresh = W::setup(ctx, &dir)?;
        setups_s.push(t0.elapsed().as_secs_f64());
        if state.replace(fresh).is_some() {
            let old = ctx.scratch.join(format!("setup{}", rep - 1));
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let mut workload = state.expect("at least one set-up ran");

    let mut passes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < ctx.seconds || (attempted as usize) < min_passes {
        // Untimed: flush what the last pass (or set-up) wrote, so its
        // write-back does not compete with this pass for the cores. On the
        // 2-core box this alone cut the run-to-run spread of `collect_warm`
        // from 8-12 % to 3-4 %.
        measure::sync_disks();
        match workload.pass(ctx, attempted as usize) {
            Ok(cost) => passes.push(cost),
            Err(why) => {
                failed += 1;
                eprintln!("pass {attempted} FAILED: {why}");
            }
        }
        attempted += 1;
    }
    if passes.is_empty() {
        return Err("every pass failed".into());
    }
    let peak_rss_mb = passes.iter().map(|p| p.rss_mb).fold(0.0, f64::max);
    Ok(Outcome {
        passes,
        setups_s,
        attempted,
        failed,
        peak_rss_mb,
        facts: workload.facts(),
    })
}

// ---------------------------------------------------------------------------
// Shared pieces.

/// The spec `collect <scope>` runs: the CLI has no seed flag, so the
/// subprocess workloads (and their in-process reference) use the
/// built-in seed whatever `--seed` says.
pub fn collect_spec(scope: Scope) -> SweepSpec {
    SweepSpec {
        scope,
        ..SweepSpec::default()
    }
}

/// What a correct `collect` of `spec` must write, computed in-process
/// through the scheduler the binary uses.
struct Reference {
    provenance_fnv: u64,
    virt_fnv: u64,
    samples: u64,
}

fn reference(spec: &SweepSpec, workers: usize) -> Result<Reference, String> {
    let mut batches = sweep::sweep_all_scheduled(spec, &SweepOptions::new(workers)).batches;
    for b in &mut batches {
        sweep::clean(b, spec.reps as usize);
    }
    let provenance = sweep::provenance_of(&batches, spec);
    let mut digest = Fnv::new();
    sweep::write_provenance_jsonl(&provenance, &mut digest).map_err(|e| e.to_string())?;
    Ok(Reference {
        provenance_fnv: digest.0,
        virt_fnv: measure::virt_fnv(&batches),
        samples: provenance.len() as u64,
    })
}

/// Run `cmd` to completion — standard error discarded, standard output
/// returned when `capture` is set and discarded otherwise. Wall time from
/// spawn to exit; CPU time and peak memory are the child's own.
fn run_child(cmd: &mut Command, capture: bool) -> Result<(PassCost, Vec<u8>), String> {
    let name = format!("{:?}", cmd.get_program());
    let t0 = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(if capture {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot spawn {name}: {e}"))?;
    let mut stdout = Vec::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_end(&mut stdout)
            .map_err(|e| format!("reading {name}'s output: {e}"))?;
    }
    let (success, usage) = reap(child).map_err(|e| format!("waiting for {name}: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    if !success {
        return Err(format!("{name} failed"));
    }
    let cost = PassCost {
        wall_s,
        cpu_s: usage.cpu_s,
        rss_mb: usage.max_rss_mb,
    };
    Ok((cost, stdout))
}

fn timed_child(cmd: &mut Command) -> Result<PassCost, String> {
    run_child(cmd, false).map(|(cost, _)| cost)
}

fn collect_cmd(ctx: &Ctx, out: &Path, cache: &Path, registry: &Path) -> Command {
    let mut cmd = Command::new(ctx.bin("collect"));
    cmd.arg(ctx.collect_scope().0)
        .arg(out)
        .args(["--workers", &ctx.workers.to_string()])
        .arg("--cache-dir")
        .arg(cache)
        .arg("--registry")
        .arg(registry);
    cmd
}

/// (plan misses, sample-cache hits, sample-cache misses) over a run's
/// manifest.
fn manifest_stats(out: &Path) -> Result<(u64, u64, u64), String> {
    let path = out.join("manifest.json");
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let manifest = sweep::read_manifest(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    // Sample-cache counters are cumulative over the run's one cache
    // handle, so the last architecture carries the totals.
    let last = manifest.arches.last().ok_or("manifest lists no arch")?;
    Ok((
        manifest.arches.iter().map(|a| a.stats.plan_misses).sum(),
        last.stats.sample_hits,
        last.stats.sample_misses,
    ))
}

/// The checks every `collect` output gets.
fn check_collect_out(out: &Path, reference: &Reference) -> Result<(), String> {
    let path = out.join("provenance.jsonl");
    let got = fnv_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if got != reference.provenance_fnv {
        return Err(format!(
            "provenance.jsonl digest {got:016x} != reference {:016x}",
            reference.provenance_fnv
        ));
    }
    let path = out.join("samples.csv");
    let csv = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let rows = (csv.iter().filter(|&&b| b == b'\n').count() as u64).saturating_sub(1);
    if rows != reference.samples {
        return Err(format!(
            "samples.csv has {rows} data rows, expected {}",
            reference.samples
        ));
    }
    Ok(())
}

impl Reference {
    fn facts(&self) -> Facts {
        Facts {
            samples_per_pass: self.samples,
            virt_fnv: self.virt_fnv,
            digests: vec![("provenance_fnv".into(), self.provenance_fnv)],
        }
    }
}

// ---------------------------------------------------------------------------
// collect_cold

/// The first-time user path: every pass gets an empty cache and an empty
/// output directory, so plan building, cache writes and export all work.
pub struct CollectCold {
    dir: PathBuf,
    reference: Reference,
}

impl Workload for CollectCold {
    fn setup(ctx: &Ctx, dir: &Path) -> Result<Self, String> {
        let spec = collect_spec(ctx.collect_scope().1);
        Ok(CollectCold {
            dir: dir.to_path_buf(),
            reference: reference(&spec, ctx.workers)?,
        })
    }

    fn pass(&mut self, ctx: &Ctx, index: usize) -> Result<PassCost, String> {
        let out = self.dir.join(format!("out{index}"));
        let cache = self.dir.join(format!("cache{index}"));
        let cost = timed_child(&mut collect_cmd(
            ctx,
            &out,
            &cache,
            &self.dir.join("registry"),
        ));
        let checked = cost.and_then(|cost| {
            check_collect_out(&out, &self.reference)?;
            let (plan_misses, hits, _) = manifest_stats(&out)?;
            if plan_misses == 0 || hits != 0 {
                return Err(format!(
                    "a cold run must build plans and hit nothing: \
                     {plan_misses} plan misses, {hits} cache hits"
                ));
            }
            Ok(cost)
        });
        // Untimed: a pass leaves ~80 MB behind.
        let _ = std::fs::remove_dir_all(&out);
        let _ = std::fs::remove_dir_all(&cache);
        checked
    }

    fn facts(&self) -> Facts {
        self.reference.facts()
    }
}

// ---------------------------------------------------------------------------
// collect_warm

/// The resume / re-run path: the cache was filled in set-up, so the
/// simulator is idle and cache reads, tsdb, export and provenance are the
/// pass.
pub struct CollectWarm {
    dir: PathBuf,
    reference: Reference,
}

impl Workload for CollectWarm {
    fn setup(ctx: &Ctx, dir: &Path) -> Result<Self, String> {
        let spec = collect_spec(ctx.collect_scope().1);
        let reference = reference(&spec, ctx.workers)?;
        let out = dir.join("out");
        timed_child(&mut collect_cmd(
            ctx,
            &out,
            &dir.join("cache"),
            &dir.join("registry"),
        ))?;
        check_collect_out(&out, &reference)?;
        Ok(CollectWarm {
            dir: dir.to_path_buf(),
            reference,
        })
    }

    fn pass(&mut self, ctx: &Ctx, _index: usize) -> Result<PassCost, String> {
        let out = self.dir.join("out");
        let cost = timed_child(&mut collect_cmd(
            ctx,
            &out,
            &self.dir.join("cache"),
            &self.dir.join("registry"),
        ))?;
        check_collect_out(&out, &self.reference)?;
        let (plan_misses, _, sample_misses) = manifest_stats(&out)?;
        if plan_misses != 0 || sample_misses != 0 {
            return Err(format!(
                "a warm run must not simulate: {plan_misses} plan misses, \
                 {sample_misses} sample-cache misses"
            ));
        }
        Ok(cost)
    }

    fn facts(&self) -> Facts {
        self.reference.facts()
    }
}

// ---------------------------------------------------------------------------
// sweep_dense

/// What every library user calls: the scheduler over the dense paper-sized
/// space, in-process, no cache, batches dropped after fingerprinting.
pub struct SweepDense {
    spec: SweepSpec,
    fingerprint: u64,
    virt_fnv: u64,
    samples: u64,
}

/// Samples per architecture, `Arch::ALL` order.
fn arch_counts(batches: &[SettingData]) -> Vec<u64> {
    Arch::ALL
        .iter()
        .map(|&arch| {
            batches
                .iter()
                .filter(|b| b.key.arch == arch)
                .map(|b| b.samples.len() as u64)
                .sum()
        })
        .collect()
}

/// Table II, exactly — at the dense scope. (The smoke scope only has to
/// agree with the scheduler's own plan.)
pub fn check_dense_counts(spec: &SweepSpec, batches: &[SettingData]) -> Result<u64, String> {
    let got = arch_counts(batches);
    let want: Vec<u64> = Arch::ALL
        .iter()
        .map(|&arch| match spec.scope {
            Scope::PaperSized => sweep::spec::table2_target(arch) as u64,
            // One default row per setting rides outside `samples`.
            _ => sweep::planned_samples(arch, spec) - sweep::spec::settings_count(arch) as u64,
        })
        .collect();
    if got != want {
        return Err(format!("samples per arch {got:?}, expected {want:?}"));
    }
    Ok(got.iter().sum())
}

impl SweepDense {
    fn sweep(&self, ctx: &Ctx) -> (Vec<SettingData>, PassCost) {
        let before = own_usage();
        let t0 = Instant::now();
        let outcome = sweep::sweep_all_scheduled(&self.spec, &SweepOptions::new(ctx.workers));
        let wall_s = t0.elapsed().as_secs_f64();
        let after = own_usage();
        let cost = PassCost {
            wall_s,
            cpu_s: after.cpu_s - before.cpu_s,
            // The process's high-water mark: set-up's sweep included,
            // which is the same work.
            rss_mb: after.max_rss_mb,
        };
        (outcome.batches, cost)
    }
}

impl Workload for SweepDense {
    fn setup(ctx: &Ctx, _dir: &Path) -> Result<Self, String> {
        let mut this = SweepDense {
            spec: SweepSpec {
                scope: ctx.dense_scope(),
                seed: ctx.seed,
                ..SweepSpec::default()
            },
            fingerprint: 0,
            virt_fnv: 0,
            samples: 0,
        };
        let (batches, _) = this.sweep(ctx);
        this.samples = check_dense_counts(&this.spec, &batches)?;
        this.fingerprint = sweep::slice_fingerprint(&batches);
        this.virt_fnv = measure::virt_fnv(&batches);
        Ok(this)
    }

    fn pass(&mut self, ctx: &Ctx, _index: usize) -> Result<PassCost, String> {
        let (batches, cost) = self.sweep(ctx);
        check_dense_counts(&self.spec, &batches)?;
        let got = sweep::slice_fingerprint(&batches);
        if got != self.fingerprint {
            return Err(format!(
                "slice fingerprint {got:016x} != first sweep's {:016x}",
                self.fingerprint
            ));
        }
        Ok(cost)
    }

    fn facts(&self) -> Facts {
        Facts {
            samples_per_pass: self.samples,
            virt_fnv: self.virt_fnv,
            digests: vec![("slice_fingerprint".into(), self.fingerprint)],
        }
    }
}

// ---------------------------------------------------------------------------
// analyse

/// Dataset → paper artifacts: every table, every figure with its CSVs, and
/// the attribution profile of an exported dataset.
pub struct Analyse {
    dir: PathBuf,
    reference: Reference,
    /// The first pass's digests; every later pass must reproduce them.
    first: Option<Vec<(String, u64)>>,
}

impl Workload for Analyse {
    fn setup(ctx: &Ctx, dir: &Path) -> Result<Self, String> {
        let spec = collect_spec(ctx.collect_scope().1);
        let reference = reference(&spec, ctx.workers)?;
        let out = dir.join("collect_out");
        let mut cmd = Command::new(ctx.bin("collect"));
        cmd.arg(ctx.collect_scope().0)
            .arg(&out)
            .args(["--workers", &ctx.workers.to_string()])
            .args(["--no-cache", "--no-registry"]);
        timed_child(&mut cmd)?;
        check_collect_out(&out, &reference)?;
        Ok(Analyse {
            dir: dir.to_path_buf(),
            reference,
            first: None,
        })
    }

    fn pass(&mut self, ctx: &Ctx, _index: usize) -> Result<PassCost, String> {
        let figures = self.dir.join("figures");
        let profile = self.dir.join("profile.json");
        let _ = std::fs::remove_dir_all(&figures);
        let _ = std::fs::remove_file(&profile);

        // `repro-*` only know the fast/paper/full scopes; fast is the
        // smallest, so the smoke run uses it too.
        let (tables_cost, tables) = run_child(
            Command::new(ctx.bin("repro-tables")).args(["fast", "all"]),
            true,
        )?;
        let (figs_cost, figs) = run_child(
            Command::new(ctx.bin("repro-figures"))
                .args(["fast", "all"])
                .arg(&figures),
            true,
        )?;
        // Relative paths from the scratch directory: ompprof stamps the
        // `--data` path into its profile, and the digests must compare
        // equal across runs.
        let (attribution_cost, attribution) = run_child(
            Command::new(ctx.bin("ompprof"))
                .current_dir(&self.dir)
                .args([
                    "attribute",
                    "--data",
                    "collect_out",
                    "--out",
                    "profile.json",
                ]),
            true,
        )?;
        let cost = tables_cost.then(figs_cost).then(attribution_cost);

        let digests = vec![
            ("tables_stdout_fnv".to_string(), fnv_of(&tables)),
            ("figures_stdout_fnv".to_string(), fnv_of(&figs)),
            (
                "figure_csvs_fnv".to_string(),
                fnv_dir(&figures).map_err(|e| format!("{}: {e}", figures.display()))?,
            ),
            ("attribution_stdout_fnv".to_string(), fnv_of(&attribution)),
            (
                "profile_fnv".to_string(),
                fnv_file(&profile).map_err(|e| format!("{}: {e}", profile.display()))?,
            ),
        ];
        if tables.is_empty() || figs.is_empty() || attribution.is_empty() {
            return Err("an analysis tool printed nothing".into());
        }
        match &self.first {
            None => self.first = Some(digests),
            Some(first) if *first != digests => {
                return Err(format!(
                    "artifact digests {digests:x?} differ from the first pass's {first:x?}"
                ));
            }
            Some(_) => {}
        }
        Ok(cost)
    }

    fn facts(&self) -> Facts {
        let mut facts = self.reference.facts();
        facts.digests.extend(self.first.iter().flatten().cloned());
        facts
    }
}
