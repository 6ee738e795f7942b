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
//! `--monitor ADDR` starts the live exposition server for the run:
//! `/metrics` (Prometheus text format), `/healthz`, `/sweep` (JSON
//! status of the sweep in flight, including live ring-buffer and
//! engine counters), `/influence` (the streaming logistic influence
//! ranking recomputed as samples arrive), and `/energy` (per-arch
//! modeled joules, EDP, sink split, and the energy-influence ranking —
//! the live half of the ompwatt disagreement map). If ADDR is busy the
//! server falls back to an ephemeral port on the same host; the bound
//! address is written to `OUT_DIR/monitor.addr` so scripts always
//! discover the real port. Monitoring is read-only and never changes
//! results either.
//!
//! Every run also writes `OUT_DIR/tsdb/` — ring-file time-series of
//! per-stratum virtual rep means and joules, per-arch energy and EDP
//! aggregates, wall sample latency, and scheduler rates — which
//! `ompobs drift` compares across runs.

use omptune_core::cli::{self, Args, Error, EXIT_OK};
use omptune_core::Arch;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use sweep::collect::{ArchDone, ArchEnergy, Job, State, Watch};
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
    --monitor ADDR    serve live /metrics, /healthz, /sweep, /influence
                      and /energy over HTTP on ADDR (e.g. 127.0.0.1:0
                      for an ephemeral port; if ADDR is busy the server
                      falls back to an ephemeral port, and the bound
                      address always lands in OUT_DIR/monitor.addr);
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

/// What the monitor's routes render: the run as `sweep::collect` keeps
/// it, plus what only a monitored run knows.
struct SweepState {
    /// Longitudinal registry context at run start:
    /// (dir, records, corrupt_skipped). `None` with `--no-registry`,
    /// and without `--monitor` (nothing would serve it).
    registry: Option<(String, u64, u64)>,
    run: State,
}

impl SweepState {
    /// The `/energy` JSON document: per-arch joules, EDP, and sink
    /// split over the cleaned samples, plus the streaming
    /// energy-influence ranking.
    fn energy_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"ompwatt-energy-v1\",\"arches\":[");
        let run = self.run.lock();
        for (i, (a, energy)) in run.manifest.arches.iter().zip(&run.energy).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"arch\":\"{}\",\"samples\":{},\"joules\":{:.6},\"edp_js\":{:.6},\"sinks\":{{",
                a.arch, a.samples, energy.joules, energy.edp_js
            ));
            for (j, sink) in omptel::EnergySink::ALL.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{}\":{:.6}",
                    format!("{sink:?}").to_lowercase(),
                    energy.sinks[j]
                ));
            }
            out.push_str("}}");
        }
        out.push_str("],\"influence\":");
        out.push_str(&run.influence[1].json());
        out.push('}');
        out
    }

    /// The `/sweep` JSON document.
    fn json(&self) -> String {
        let mut out = String::from("{");
        let run = self.run.lock();
        out.push_str(&format!("\"scope\":\"{}\",", run.manifest.scope));
        match &run.current {
            Some((arch, meter, total)) => out.push_str(&format!(
                "\"state\":\"running\",\"current\":{{\"arch\":\"{arch}\",\
                 \"done\":{},\"total\":{total},\"elapsed_s\":{:.3}}},",
                meter.done(),
                meter.elapsed_s()
            )),
            None => out.push_str("\"state\":\"idle\",\"current\":null,"),
        }
        // Telemetry health: whether the event ring is keeping up (a
        // non-zero dropped count means the flight recorder is lossy).
        let (threads, events, dropped) = omptel::live_ring_stats();
        out.push_str(&format!(
            "\"telemetry\":{{\"ring_threads\":{threads},\
             \"omptel_ring_events_total\":{events},\
             \"omptel_ring_dropped_total\":{dropped},"
        ));
        // Warm-sweep engine counters: batch pricing, the cache's tmp
        // reaper, and the worker allocation pools. Zero outside a
        // telemetry session (counters are session-gated).
        let counters = omptel::counters_now();
        out.push_str(&format!(
            "\"engine\":{{\"priced_batches\":{},\
             \"sample_cache_tmp_reaped\":{},\
             \"pool_hits\":{},\"pool_misses\":{}}}}},",
            counters.get(omptel::Counter::PricedBatches),
            counters.get(omptel::Counter::SampleCacheTmpReaped),
            counters.get(omptel::Counter::PoolHits),
            counters.get(omptel::Counter::PoolMisses),
        ));
        // Longitudinal registry context: where this run will be
        // recorded and how much history was already there.
        match &self.registry {
            Some((dir, records, corrupt)) => out.push_str(&format!(
                "\"registry\":{{\"dir\":{},\"records\":{records},\
                 \"corrupt_skipped\":{corrupt}}},",
                serde_json::to_string(dir).unwrap_or_else(|_| "\"?\"".to_string())
            )),
            None => out.push_str("\"registry\":null,"),
        }
        out.push_str("\"completed\":[");
        for (i, (a, energy)) in run.manifest.arches.iter().zip(&run.energy).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"arch\":\"{}\",\"settings\":{},\"samples\":{},\
                 \"dropped\":{},\"elapsed_s\":{:.3},\
                 \"joules\":{:.6},\"edp_js\":{:.6}}}",
                a.arch, a.settings, a.samples, a.dropped, a.elapsed_s, energy.joules, energy.edp_js
            ));
        }
        out.push_str("]}");
        out
    }

    /// The `/metrics` body: the process snapshot plus this run's gauges.
    fn metrics(&self) -> String {
        let mut snap = omptel::MetricsSnapshot::capture();
        // Registry counters: history depth at run start and how many
        // records corruption has cost, so scrapers can alarm on a
        // decaying registry.
        if let Some((_, records, corrupt)) = &self.registry {
            snap = snap
                .gauge("registry_records", *records as f64)
                .gauge("registry_corrupt_skipped", *corrupt as f64);
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
    // RunRecord when it finishes. Opened up front so the monitor can
    // serve /runs and report the registry location from the start.
    let registry = match &cli.registry {
        Some(dir) => Some(sweep::Registry::open(dir)?),
        None => None,
    };
    // How much history was there at run start: shown by /sweep and
    // /metrics only, so only a monitored run reads the registry for it.
    let registry_stats = match (&registry, &cli.monitor) {
        (Some(r), Some(_)) => {
            let loaded = r.load().unwrap_or_default();
            Some((
                r.dir().display().to_string(),
                loaded.records.len() as u64,
                loaded.corrupt_skipped,
            ))
        }
        _ => None,
    };

    let spec = SweepSpec {
        scope: cli.scope,
        roster: cli.roster,
        ..SweepSpec::default()
    };
    // Live exposition: the monitor only *reads* (every route renders
    // from a closure at scrape time), so a monitored run's outputs stay
    // byte-identical to an unmonitored one. The telemetry session makes
    // runtime counters visible to /metrics and buffers nothing else;
    // counters never feed results.
    let state = Arc::new(SweepState {
        registry: registry_stats,
        run: State::new(&spec),
    });

    let _session = match &cli.monitor {
        Some(_) => Some(omptel::session().map_err(std::io::Error::other)?),
        None => None,
    };
    let monitor = match &cli.monitor {
        Some(addr) => {
            let body = |render: fn(&SweepState) -> String| -> omptel::BodyFn {
                let st = state.clone();
                Arc::new(move || render(&st))
            };
            // /energy: the ompwatt exposition — per-arch joules, EDP,
            // sink split, and the energy-influence ranking.
            let mut routes: Vec<omptel::Route> = vec![
                (
                    "/influence".to_string(),
                    "application/json",
                    body(|st| st.run.lock().influence[0].json()),
                ),
                (
                    "/energy".to_string(),
                    "application/json",
                    body(SweepState::energy_json),
                ),
            ];
            // /runs: the registry listing, loaded fresh per scrape so a
            // poller sees records land the moment runs finish.
            if let Some(reg) = &registry {
                let reg = reg.clone();
                let runs_body: omptel::BodyFn = Arc::new(move || reg.listing_json());
                routes.push(("/runs".to_string(), "application/json", runs_body));
            }
            // If the requested address is squatted, the monitor falls
            // back to an ephemeral port on the same host rather than
            // failing the whole collection run.
            let m = omptel::Monitor::start_with_fallback(
                addr,
                body(SweepState::metrics),
                body(SweepState::json),
                routes,
            )?;
            // Scripts discover the actually-bound address (ephemeral
            // or fallback port included) from this file; it is written
            // before any sweeping so pollers never race the run.
            // First line: the bound address (scripts parse exactly the
            // first line). Following lines: sidecar metadata, currently
            // the registry directory this run will record into.
            let mut addr_doc = format!("{}\n", m.local_addr());
            if let Some(reg) = &registry {
                addr_doc.push_str(&format!("registry {}\n", reg.dir().display()));
            }
            fs::write(cli.out_dir.join("monitor.addr"), addr_doc)?;
            eprintln!(
                "monitor: serving /metrics /healthz /sweep /influence /energy{} on http://{}",
                if registry.is_some() { " /runs" } else { "" },
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
    use serde::Value;

    /// `collect tiny` run through the library, then brought to the
    /// golden's state: two finished architectures, no observed sample,
    /// and the wall-clock and scheduling figures pinned.
    fn two_arch_state() -> SweepState {
        let spec = SweepSpec {
            scope: Scope::Strided(400),
            ..SweepSpec::default()
        };
        let state = SweepState {
            registry: Some(("/var/reg \"x\"".to_string(), 3, 1)),
            run: State::new(&spec),
        };
        let job = Job {
            spec: &spec,
            workers: 1,
            cache: None,
            perturb: None,
        };
        let dir = std::env::temp_dir().join(format!("collect-routes-{}", std::process::id()));
        sweep::collect::run(&job, &dir, None, &state.run, &mut ()).unwrap();
        let _ = fs::remove_dir_all(&dir);

        let mut run = state.run.lock();
        run.manifest.arches.truncate(2);
        run.energy.truncate(2);
        run.influence = Default::default();
        let pinned = [(0.0123456, 0), (1.5, 900)];
        for (a, (elapsed_s, sample_hits)) in run.manifest.arches.iter_mut().zip(pinned) {
            a.elapsed_s = elapsed_s;
            a.stats = sweep::SweepStats {
                plan_hits: 7,
                plan_misses: 5,
                sample_hits,
                sample_misses: 585,
                steals: 2,
                units: 11,
            };
        }
        drop(run);
        state
    }

    // Both documents for the state above, byte for byte.
    const EXPECTED_SWEEP: &str = r#"{"scope":"Strided(400)","state":"idle","current":null,"telemetry":{"ring_threads":0,"omptel_ring_events_total":0,"omptel_ring_dropped_total":0,"engine":{"priced_batches":0,"sample_cache_tmp_reaped":0,"pool_hits":0,"pool_misses":0}},"registry":{"dir":"/var/reg \"x\"","records":3,"corrupt_skipped":1},"completed":[{"arch":"a64fx","settings":45,"samples":540,"dropped":0,"elapsed_s":0.012,"joules":9767.780224,"edp_js":4034.379218},{"arch":"skylake","settings":36,"samples":864,"dropped":0,"elapsed_s":1.500,"joules":46560.968713,"edp_js":299597.498229}]}"#;
    const EXPECTED_ENERGY: &str = r#"{"schema":"ompwatt-energy-v1","arches":[{"arch":"a64fx","samples":540,"joules":9767.780224,"edp_js":4034.379218,"sinks":{"active":4841.432097,"memory":1084.281913,"wait":62.020150,"serial":0.621054,"base":3779.425011}},{"arch":"skylake","samples":864,"joules":46560.968713,"edp_js":299597.498229,"sinks":{"active":10779.698471,"memory":2115.336916,"wait":5937.930185,"serial":2.126568,"base":27725.876574}}],"influence":{"samples":0,"optimal_fraction":0.000000,"influence":{"OMP_PLACES":0.000000,"OMP_PROC_BIND":0.000000,"OMP_SCHEDULE":0.000000,"KMP_LIBRARY":0.000000,"KMP_BLOCKTIME":0.000000,"KMP_FORCE_REDUCTION":0.000000,"KMP_ALIGN_ALLOC":0.000000},"top":null}}"#;

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

    #[test]
    fn sweep_and_energy_bodies_render_the_manifest() {
        let state = two_arch_state();
        let (sweep_doc, energy_doc) = (state.json(), state.energy_json());
        assert_eq!(sweep_doc, EXPECTED_SWEEP);
        assert_eq!(energy_doc, EXPECTED_ENERGY);

        // Entry by entry, each document says what the record holds.
        let parse = |doc: &str| serde_json::from_str::<Value>(doc).expect("valid JSON");
        let array_at = |doc: &Value, at: usize, key: &str| {
            let (k, v) = &doc.as_map().expect("object")[at];
            assert_eq!(k.as_str(), Some(key));
            v.as_seq().expect("array").to_vec()
        };
        let completed = array_at(&parse(&sweep_doc), 5, "completed");
        let arches = array_at(&parse(&energy_doc), 1, "arches");
        let run = state.run.lock();
        let (joules, edp_js) = energy_totals(&run.energy);
        assert_eq!((completed.len(), arches.len()), (2, 2));
        for (i, (a, e)) in run.manifest.arches.iter().zip(&run.energy).enumerate() {
            let (arch, samples) = (&a.arch, a.samples);
            let figures = format!(r#""joules":{:.6},"edp_js":{:.6}"#, e.joules, e.edp_js);
            let done = format!(
                r#"{{"arch":"{arch}","settings":{},"samples":{samples},"dropped":{},"elapsed_s":{:.3},{figures}}}"#,
                a.settings, a.dropped, a.elapsed_s
            );
            assert_eq!(completed[i], parse(&done), "completed[{i}]");
            let head = parse(&format!(
                r#"{{"arch":"{arch}","samples":{samples},{figures}}}"#
            ));
            assert_eq!(arches[i].as_map().unwrap()[..4], *head.as_map().unwrap());
        }
        assert_eq!(joules, run.energy[0].joules + run.energy[1].joules);
        assert_eq!(edp_js, run.energy[0].edp_js + run.energy[1].edp_js);
    }
}
