//! Dataset collection binary: produce the open-sourced artifacts the
//! paper promises — the processed tabular CSV, the raw per-batch JSON,
//! per-sample provenance (JSON lines), and a structured run manifest.
//!
//! Collection runs through the work-stealing sweep scheduler with a
//! persistent sample cache: an interrupted or repeated run replays
//! finished batches from disk instead of recomputing them, and the
//! output is byte-identical either way.
//!
//! `--trace` additionally arms the omptrace flight recorder for the
//! whole run: a Chrome/Perfetto trace of every scheduler span lands at
//! the given path. Tracing never changes results — the provenance stays
//! byte-identical with it on or off.
//!
//! `--monitor ADDR` serves the run live at `/metrics` (Prometheus text
//! format: runtime counters, sweep progress, modeled energy and the
//! streaming influence ranking per objective) and `/healthz`. If ADDR is
//! busy the server falls back to an ephemeral port on the same host; the
//! bound address is written to `OUT_DIR/monitor.addr` so scripts always
//! discover the real port. Monitoring is read-only and never changes
//! results either.
//!
//! `OUT_DIR` holds the five artifact files and nothing else;
//! `ompobs drift` compares two runs by folding their `raw_batches.json`.

use omptune_core::cli::{self, Args, Error, EXIT_OK};
use omptune_core::Arch;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use sweep::collect::{ArchDone, ArchEnergy, Job, State, Watch};
use sweep::series::OBJECTIVES;
use sweep::{Roster, SampleCache, Scope, SweepSpec};

const USAGE: &str = "usage: collect [SCOPE] [OUT_DIR] [OPTIONS] (see --help)";

const HELP: &str = "\
collect — run the paper's data-collection sweep and export its artifacts

USAGE:
    collect [SCOPE] [OUT_DIR] [OPTIONS]

ARGS:
    SCOPE     tiny | fast | paper | full | pruned   (default: paper)
                tiny    smoke-test slice (every 400th config)
                fast    small slice (every 24th config)
                paper   Table II sample counts (the default)
                full    every configuration of every setting
                pruned  only canonical configurations (TuningConfig::canonical)
    OUT_DIR   output directory (default: dataset)

OPTIONS:
    --workers N       worker threads for the sweep scheduler
                      (default: available parallelism)
    --roster WHICH    paper | generated | all   (default: paper)
                      which application roster to sweep: the paper's
                      Table II apps, the promoted ompfuzz-generated
                      apps, or both
    --no-cache        recompute everything; do not read or write the
                      sample cache
    --cache-dir PATH  sample-cache directory
                      (default: target/sweep-cache)
    --trace PATH      record a flight-recorder trace of the sweep and
                      write it as a Chrome trace_event JSON to PATH
    --monitor ADDR    serve live /metrics and /healthz over HTTP on ADDR
                      (e.g. 127.0.0.1:0 for an ephemeral port; if ADDR
                      is busy the server falls back to an ephemeral
                      port, and the bound address always lands in
                      OUT_DIR/monitor.addr);
                      opens a counter-only telemetry session so runtime
                      counters flow to /metrics
    --registry DIR    longitudinal run registry directory; every run
                      appends a content-addressed RunRecord there for
                      `ompobs` (default: a `.ompobs/` sibling of
                      OUT_DIR, or $OMPOBS_DIR when set)
    --no-registry     do not record this run in the registry
    --perturb A:F     fault injection for sentinel testing: scale every
                      runtime and virtual-time figure of architecture A
                      by factor F (e.g. skylake:1.10) before any
                      artifact is written
    -h, --help        print this help
";

struct Cli {
    scope: Scope,
    roster: Roster,
    out_dir: PathBuf,
    workers: usize,
    cache_dir: Option<PathBuf>,
    trace: Option<PathBuf>,
    monitor: Option<String>,
    registry: Option<PathBuf>,
    perturb: Option<(Arch, f64)>,
}

fn parse(mut args: Args) -> Result<Cli, Error> {
    args.help(HELP)?;
    let path = |v: Option<String>| v.map(PathBuf::from);
    let workers = match args.positive("--workers")? {
        Some(n) => n,
        None => std::thread::available_parallelism().map_or(4, |n| n.get()),
    };
    let roster = match args.value("--roster")?.as_deref() {
        None | Some("paper") => Roster::Paper,
        Some("generated") => Roster::Generated,
        Some("all") => Roster::All,
        Some(other) => return Err(Error::unknown("roster", other)),
    };
    let cache_dir = path(args.value("--cache-dir")?);
    let no_cache = args.flag("--no-cache");
    let registry_dir = path(args.value("--registry")?);
    let no_registry = args.flag("--no-registry");
    let perturb = match args.value("--perturb")? {
        None => None,
        Some(v) => {
            let parts = v.split_once(':').and_then(|(arch, factor)| {
                Some((Arch::from_id(arch)?, factor.parse::<f64>().ok()?))
            });
            match parts {
                Some((_, factor)) if factor.is_finite() && factor > 0.0 => parts,
                _ => {
                    let what = "ARCH:FACTOR with a finite positive factor";
                    return Err(Error::usage(format!("--perturb needs {what}, got {v:?}")));
                }
            }
        }
    };
    let trace = path(args.value("--trace")?);
    let monitor = args.value("--monitor")?;
    let scope = match args.positional()?.as_deref() {
        Some("tiny") => Scope::Strided(400),
        Some("fast") => Scope::Strided(24),
        None | Some("paper") => Scope::PaperSized,
        Some("full") => Scope::Full,
        Some("pruned") => Scope::Pruned,
        Some(other) => return Err(Error::unknown("scope", other)),
    };
    let out_dir = path(args.positional()?).unwrap_or_else(|| PathBuf::from("dataset"));
    args.finish()?;
    let registry = (!no_registry).then(|| {
        registry_dir
            .or_else(sweep::registry::env_registry_dir)
            .unwrap_or_else(|| sweep::registry::default_registry_dir(&out_dir))
    });
    let cache_dir = cache_dir.unwrap_or_else(|| PathBuf::from("target/sweep-cache"));
    Ok(Cli {
        scope,
        roster,
        out_dir,
        workers,
        cache_dir: (!no_cache).then_some(cache_dir),
        trace,
        monitor,
        registry,
        perturb,
    })
}

/// What `/metrics` renders: the run as `sweep::collect` keeps it, plus
/// the registry's history at run start.
struct SweepState {
    /// `(records, corrupt_skipped)` of the registry at run start. `None`
    /// with `--no-registry`, and without `--monitor` (nothing would
    /// serve it).
    registry: Option<(u64, u64)>,
    run: State,
}

impl SweepState {
    /// The `/metrics` body: the process snapshot plus this run's gauges.
    fn metrics(&self) -> String {
        let mut snap = omptel::MetricsSnapshot::capture();
        // Registry counters: history depth at run start and how many
        // records corruption has cost, so scrapers can alarm on a
        // decaying registry.
        if let Some((records, corrupt)) = self.registry {
            snap = snap
                .gauge("registry_records", records as f64)
                .gauge("registry_corrupt_skipped", corrupt as f64);
        }
        let run = self.run.lock();
        // Progress gauges are always present (zero between arches) so
        // scrapers never see a series disappear.
        let (done, total, elapsed) = match &run.current {
            Some((_, meter, total)) => {
                snap = snap.histogram(
                    "sample_latency_ns",
                    meter.latency_histogram(),
                    Some(meter.latency_sum_ns()),
                );
                (meter.done() as f64, *total as f64, meter.elapsed_s())
            }
            None => (0.0, 0.0, 0.0),
        };
        // The streaming influence ranking, per objective: its sample
        // count and one gauge per variable.
        for (objective, live) in OBJECTIVES.iter().zip(run.influence.iter().flatten()) {
            let prefix = format!("influence_{objective}");
            snap = snap.gauge(&format!("{prefix}_samples"), live.samples() as f64);
            for (var, value) in live.influence() {
                let slug = var.env_name().to_lowercase();
                snap = snap.gauge(&format!("{prefix}_{slug}"), value);
            }
        }
        // Energy totals over the completed arches: joules and the
        // energy-delay product, so a scraper can watch the second
        // objective accumulate alongside virtual time.
        let (joules, edp) = energy_totals(&run.energy);
        drop(run);
        snap.gauge("sweep_done", done)
            .gauge("sweep_total", total)
            .gauge("sweep_elapsed_seconds", elapsed)
            .gauge("sweep_energy_joules", joules)
            .gauge("sweep_energy_edp_js", edp)
            .render_prometheus()
    }
}

/// (joules, EDP J·s) summed over the completed architectures.
fn energy_totals(energy: &[ArchEnergy]) -> (f64, f64) {
    energy
        .iter()
        .fold((0.0, 0.0), |(j, e), a| (j + a.joules, e + a.edp_js))
}

/// The run's stderr: a live meter per architecture, then its scoreboard.
struct Stderr;

impl Watch for Stderr {
    fn meter(&mut self, label: &str, total: u64) -> omptel::Progress {
        omptel::Progress::stderr(label, total)
    }

    fn arch_done(&mut self, done: &ArchDone<'_>) {
        let (a, s, energy) = (done.arch, &done.arch.stats, &done.energy);
        let (hits, misses) = done.lookups;
        eprintln!("{}", done.meter_line);
        if let Some(factor) = done.perturbed {
            eprintln!("perturb: scaled {} virtual time by {factor}", a.arch);
        }
        eprintln!(
            "{}: plan cache {}/{} hits, sample cache {hits}/{} hits, {} steals over {} units",
            a.arch,
            s.plan_hits,
            s.plan_hits + s.plan_misses,
            hits + misses,
            s.steals,
            s.units
        );
        eprintln!(
            "{}: modeled energy {:.1} J over {} samples (EDP {:.3} J·s)",
            a.arch, energy.joules, a.samples, energy.edp_js
        );
    }
}

fn main() -> ExitCode {
    cli::run("collect", USAGE, |args| {
        collect(parse(args)?)?;
        Ok(EXIT_OK)
    })
}

fn collect(cli: Cli) -> std::io::Result<()> {
    fs::create_dir_all(&cli.out_dir)?;
    let cache = cli.cache_dir.map(SampleCache::new);

    // Longitudinal run registry: this run appends a content-addressed
    // RunRecord when it finishes.
    let registry = match &cli.registry {
        Some(dir) => Some(sweep::Registry::open(dir)?),
        None => None,
    };
    // How much history was there at run start: shown by /metrics only,
    // so only a monitored run reads the registry for it.
    let registry_stats = match (&registry, &cli.monitor) {
        (Some(r), Some(_)) => {
            let loaded = r.load().unwrap_or_default();
            Some((loaded.records.len() as u64, loaded.corrupt_skipped))
        }
        _ => None,
    };

    let spec = SweepSpec {
        scope: cli.scope,
        roster: cli.roster,
        ..SweepSpec::default()
    };
    // Live exposition: the monitor only *reads* (`/metrics` renders from
    // a closure at scrape time), so a monitored run's outputs stay
    // byte-identical to an unmonitored one. The telemetry session makes
    // runtime counters visible to /metrics and buffers nothing else;
    // counters never feed results. Only a monitored run keeps the
    // influence trackers, which nothing but /metrics reads.
    let run = match &cli.monitor {
        Some(_) => State::monitored(&spec),
        None => State::new(&spec),
    };
    let state = Arc::new(SweepState {
        registry: registry_stats,
        run,
    });

    let _session = match &cli.monitor {
        Some(_) => Some(omptel::session().map_err(std::io::Error::other)?),
        None => None,
    };
    let monitor = match &cli.monitor {
        Some(addr) => {
            let st = state.clone();
            let m = omptel::Monitor::start(addr, Arc::new(move || st.metrics()))?;
            // Scripts discover the actually-bound address (ephemeral
            // or fallback port included) from this file; it is written
            // before any sweeping so pollers never race the run.
            fs::write(
                cli.out_dir.join("monitor.addr"),
                format!("{}\n", m.local_addr()),
            )?;
            eprintln!(
                "monitor: serving /metrics /healthz on http://{}",
                m.local_addr()
            );
            Some(m)
        }
        None => None,
    };

    // Arm the flight recorder when tracing.
    let recorder = match &cli.trace {
        Some(trace_path) => Some((
            omptel::Recorder::start().map_err(std::io::Error::other)?,
            trace_path,
        )),
        None => None,
    };

    let job = Job {
        spec: &spec,
        workers: cli.workers,
        cache: cache.as_ref(),
        perturb: cli.perturb,
    };
    let done = sweep::collect::run(
        &job,
        &cli.out_dir,
        registry.as_ref(),
        &state.run,
        &mut Stderr,
    )?;
    let (manifest, artifacts) = (&done.manifest, &done.artifacts);
    for name in sweep::export::ARTIFACT_FILES {
        let path = cli.out_dir.join(name);
        if name == "provenance.jsonl" {
            let lines = artifacts.provenance_lines;
            eprintln!("wrote {} ({lines} samples)", path.display());
        } else {
            eprintln!("wrote {}", path.display());
        }
    }

    // Final per-architecture timing summary.
    eprintln!("--- collection timing ---");
    for a in &manifest.arches {
        eprintln!(
            "{}: {} settings, {} samples ({} dropped) in {:.1}s ({:.0} samples/s)",
            a.arch,
            a.settings,
            a.samples,
            a.dropped,
            a.elapsed_s,
            a.samples as f64 / a.elapsed_s.max(1e-9)
        );
    }
    eprintln!(
        "total: {} samples, {} dropped",
        manifest.total_samples, manifest.total_dropped
    );
    eprintln!(
        "export: {:.2} s wall (dataset {:.2} s | provenance {:.2} s) on {} thread{}",
        artifacts.wall_s,
        artifacts.dataset_job_s,
        artifacts.provenance_job_s,
        artifacts.threads,
        if artifacts.threads == 1 { "" } else { "s" }
    );
    if let Some(c) = &cache {
        let (h, m) = c.stats();
        eprintln!(
            "sample cache at {}: {h} hits, {m} misses",
            c.dir().display()
        );
    }

    // Harvest the flight recorder and export the Chrome trace.
    if let Some((rec, trace_path)) = recorder {
        let recording = rec.finish();
        fs::write(trace_path, omptel::chrome_trace_with_recording(&recording))?;
        eprintln!(
            "trace: {} events ({} dropped) across {} threads -> {}",
            recording.total_events(),
            recording.total_dropped(),
            recording.threads.len(),
            trace_path.display()
        );
    }

    // A registry failure warns but never fails a collection run that
    // already produced its data.
    match (&registry, &done.record) {
        (Some(registry), Some(Ok(rec))) => eprintln!(
            "registry: recorded run #{} ({:016x}) -> {}",
            rec.seq,
            rec.record_hash,
            registry.dir().display()
        ),
        (_, Some(Err(e))) => eprintln!("registry: failed to record run: {e}"),
        _ => {}
    }

    // Stop serving only after every artifact is on disk, so a scraper
    // that saw /healthz up can still fetch the final state.
    if let Some(m) = monitor {
        m.shutdown();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn a_command_line_is_a_collection_job_or_a_usage_error() {
        cli::check_parse(
            parse,
            " | --help | tiny -h | fast out --workers 2 --cache-dir c --registry r \
             | tiny out --workers 1 --no-cache --no-registry | pruned out --roster all \
             --trace t.json --monitor 127.0.0.1:0 --perturb skylake:1.10",
            "bogus | tiny out extra | --frob | tiny out --workers | tiny out --workers 0 \
             | --roster nope | --perturb skylake | --perturb nope:1.1 | --perturb milan:-1",
        );
    }

    /// `collect tiny` through the library, served as `--monitor` serves
    /// it: each objective's seven influence gauges are its tracker's
    /// ranking exactly — not a bucket mean over the samples — and sum to 1.
    #[test]
    fn a_monitored_runs_metrics_carry_the_live_ranking() {
        let spec = SweepSpec {
            scope: Scope::Strided(400),
            ..SweepSpec::default()
        };
        let state = Arc::new(SweepState {
            registry: Some((3, 1)),
            run: State::monitored(&spec),
        });
        let job = Job {
            spec: &spec,
            workers: 1,
            cache: None,
            perturb: None,
        };
        let dir = std::env::temp_dir().join(format!("collect-metrics-{}", std::process::id()));
        sweep::collect::run(&job, &dir, None, &state.run, &mut ()).unwrap();
        let _ = fs::remove_dir_all(&dir);

        let st = state.clone();
        let monitor = omptel::Monitor::start("127.0.0.1:0", Arc::new(move || st.metrics()))
            .expect("bind localhost");
        let mut stream = std::net::TcpStream::connect(monitor.local_addr()).unwrap();
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        monitor.shutdown();
        let (_, body) = response.split_once("\r\n\r\n").expect("full response");
        let samples = omptel::parse_prometheus(body).expect("/metrics parses");
        let gauge = |name: &str| match samples.iter().find(|s| s.name == name) {
            Some(sample) => sample.value,
            None => panic!("no {name} in {body}"),
        };

        assert_eq!(gauge("omptel_registry_records"), 3.0);
        let run = state.run.lock();
        let influence = run.influence.as_ref().expect("a monitored run's trackers");
        for (objective, live) in OBJECTIVES.iter().zip(influence) {
            let prefix = format!("omptel_influence_{objective}_");
            assert!(live.samples() > 0, "{objective}: nothing observed");
            assert_eq!(gauge(&format!("{prefix}samples")), live.samples() as f64);
            let ranked: Vec<f64> = samples
                .iter()
                .filter(|s| s.name.starts_with(&prefix) && !s.name.ends_with("_samples"))
                .map(|s| s.value)
                .collect();
            assert_eq!(ranked.len(), 7, "{objective}: one gauge per variable");
            for (var, value) in live.influence() {
                let name = format!("{prefix}{}", var.env_name().to_lowercase());
                assert_eq!(gauge(&name), value, "{name}");
            }
            let sum: f64 = ranked.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "{objective} ranking sums to {sum}"
            );
        }
        // The names scrapers and the docs cite.
        for name in ["virt_omp_proc_bind", "energy_kmp_library"] {
            gauge(&format!("omptel_influence_{name}"));
        }
    }
}
