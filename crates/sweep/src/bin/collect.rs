//! Dataset collection binary: produce the open-sourced artifacts the
//! paper promises — the processed tabular CSV, the raw per-batch JSON,
//! per-sample provenance (JSON lines), and a structured run manifest.
//!
//! Collection runs through the work-stealing sweep scheduler with a
//! persistent sample cache: an interrupted or repeated run replays
//! finished batches from disk instead of recomputing them, and the
//! output is byte-identical either way.
//!
//! `--trace` additionally arms the omptrace flight recorder and the
//! anomaly watchdog for the whole run: a Chrome/Perfetto trace of every
//! scheduler span lands at the given path, and outlier samples (above
//! the p99.9 latency bracket) are dumped with their surrounding event
//! window to `OUT_DIR/anomalies.jsonl`. Tracing never changes results —
//! the provenance stays byte-identical with it on or off.
//!
//! `--monitor ADDR` starts the live exposition server for the run:
//! `/metrics` (Prometheus text format), `/healthz`, `/sweep` (JSON
//! status of the sweep in flight, including live ring-buffer and
//! watchdog counters), `/influence` (the streaming logistic influence
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

use omptune_core::{Arch, LiveInfluence};
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use sweep::{Roster, RunManifest, SampleCache, Scope, SettingData, SweepOptions, SweepSpec};

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
                pruned  only omplint-canonical configurations
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
                      write it as a Chrome trace_event JSON to PATH;
                      also arms the anomaly watchdog (outliers beyond
                      the p99.9 latency bracket are dumped to
                      OUT_DIR/anomalies.jsonl)
    --monitor ADDR    serve live /metrics, /healthz, /sweep, /influence
                      and /energy over HTTP on ADDR (e.g. 127.0.0.1:0
                      for an ephemeral port; if ADDR is busy the server
                      falls back to an ephemeral port, and the bound
                      address always lands in OUT_DIR/monitor.addr);
                      opens a telemetry session so runtime counters
                      flow to /metrics
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

fn parse_cli() -> Result<Cli, String> {
    let mut scope = Scope::PaperSized;
    let mut roster = Roster::Paper;
    let mut positional = 0usize;
    let mut out_dir = PathBuf::from("dataset");
    let mut workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut no_cache = false;
    let mut cache_dir = PathBuf::from("target/sweep-cache");
    let mut trace = None;
    let mut monitor = None;
    let mut registry_dir: Option<PathBuf> = None;
    let mut no_registry = false;
    let mut perturb = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            "--no-cache" => no_cache = true,
            "--workers" => {
                let v = args.next().ok_or("--workers needs a value")?;
                workers = v
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --workers value: {v}"))?;
                if workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--cache-dir" => {
                cache_dir = PathBuf::from(args.next().ok_or("--cache-dir needs a value")?);
            }
            "--trace" => {
                trace = Some(PathBuf::from(args.next().ok_or("--trace needs a value")?));
            }
            "--monitor" => {
                monitor = Some(args.next().ok_or("--monitor needs an address")?);
            }
            "--registry" => {
                registry_dir = Some(PathBuf::from(
                    args.next().ok_or("--registry needs a directory")?,
                ));
            }
            "--no-registry" => no_registry = true,
            "--perturb" => {
                let v = args.next().ok_or("--perturb needs ARCH:FACTOR")?;
                let (arch_s, factor_s) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--perturb wants ARCH:FACTOR, got {v}"))?;
                let arch = Arch::from_id(arch_s)
                    .ok_or_else(|| format!("unknown architecture: {arch_s}"))?;
                let factor = factor_s
                    .parse::<f64>()
                    .map_err(|_| format!("invalid perturbation factor: {factor_s}"))?;
                if !factor.is_finite() || factor <= 0.0 {
                    return Err("--perturb factor must be finite and positive".into());
                }
                perturb = Some((arch, factor));
            }
            "--roster" => {
                let v = args.next().ok_or("--roster needs a value")?;
                roster = match v.as_str() {
                    "paper" => Roster::Paper,
                    "generated" => Roster::Generated,
                    "all" => Roster::All,
                    other => return Err(format!("unknown roster: {other} (see --help)")),
                };
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option: {other} (see --help)"));
            }
            positional_arg => {
                match positional {
                    0 => {
                        scope = match positional_arg {
                            "tiny" => Scope::Strided(400),
                            "fast" => Scope::Strided(24),
                            "paper" => Scope::PaperSized,
                            "full" => Scope::Full,
                            "pruned" => Scope::Pruned,
                            other => return Err(format!("unknown scope: {other} (see --help)")),
                        };
                    }
                    1 => out_dir = PathBuf::from(positional_arg),
                    _ => return Err(format!("unexpected argument: {positional_arg}")),
                }
                positional += 1;
            }
        }
    }
    let registry = if no_registry {
        None
    } else {
        Some(
            registry_dir
                .or_else(sweep::registry::env_registry_dir)
                .unwrap_or_else(|| sweep::registry::default_registry_dir(&out_dir)),
        )
    };
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

/// Fault injection for the change-point sentinel's acceptance test:
/// scale every runtime, virtual-time, and energy figure of one
/// architecture's batches, exactly as a real regression on that arch
/// would move them. Applied before any artifact (tsdb, provenance,
/// registry) is built.
fn perturb_batches(batches: &mut [SettingData], factor: f64) {
    for data in batches.iter_mut() {
        for t in &mut data.default_runtimes {
            if t.is_finite() {
                *t *= factor;
            }
        }
        data.default_telemetry.virtual_ns *= factor;
        data.default_telemetry.energy.scale(factor);
        for sample in &mut data.samples {
            for t in &mut sample.runtimes {
                if t.is_finite() {
                    *t *= factor;
                }
            }
            sample.telemetry.virtual_ns *= factor;
            sample.telemetry.energy.scale(factor);
        }
    }
}

/// Modeled energy an architecture's cleaned samples cost.
#[derive(Default, Clone, Copy)]
struct ArchEnergy {
    /// Σ total_j over the finite samples.
    joules: f64,
    /// Σ total_j · virtual_s — the energy-delay product in J·s.
    edp_js: f64,
    /// Per-sink joules, `omptel::EnergySink::ALL` order.
    sinks: [f64; omptel::EnergySink::ALL.len()],
}

impl ArchEnergy {
    fn of(batches: &[SettingData]) -> ArchEnergy {
        let mut total = ArchEnergy::default();
        for sample in batches.iter().flat_map(|data| &data.samples) {
            let e = &sample.telemetry.energy;
            if !e.total_j.is_finite() {
                continue;
            }
            total.joules += e.total_j;
            total.edp_js += e.edp_js(sample.telemetry.virtual_ns);
            for (slot, sink) in total.sinks.iter_mut().zip(omptel::EnergySink::ALL) {
                *slot += e.get(sink);
            }
        }
        total
    }
}

/// The run's one per-architecture record: the manifest `manifest.json`
/// is written from, and beside each `manifest.arches[i]` its modeled
/// energy (`manifest.json`'s bytes are pinned, so it cannot grow the
/// field). Every surface that reports a finished architecture — `/sweep`,
/// `/energy`, the energy gauges, stderr, the registry record — reads it.
struct Run {
    manifest: RunManifest,
    energy: Vec<ArchEnergy>,
}

const POISONED: &str = "sweep state poisoned";

/// Shared view of the sweep in flight, rendered by the monitor's routes.
struct SweepState {
    /// Longitudinal registry context at run start:
    /// (dir, records, corrupt_skipped). `None` with `--no-registry`,
    /// and without `--monitor` (nothing would serve it).
    registry: Option<(String, u64, u64)>,
    current: Mutex<Option<(String, Arc<omptel::Progress>, u64)>>,
    run: Mutex<Run>,
    /// Streaming influence, one online logistic model per objective,
    /// indexed like `sweep::series::OBJECTIVES`: did the config beat the
    /// arch default's time, and did it cost fewer joules? Where the two
    /// rankings disagree is the ompwatt disagreement map, live.
    /// Exposition only: it never feeds back into sampling or artifacts.
    influence: Mutex<[LiveInfluence; 2]>,
}

impl SweepState {
    fn new(manifest: RunManifest, registry: Option<(String, u64, u64)>) -> SweepState {
        SweepState {
            registry,
            current: Mutex::new(None),
            run: Mutex::new(Run {
                manifest,
                energy: Vec::new(),
            }),
            influence: Mutex::new([LiveInfluence::new(), LiveInfluence::new()]),
        }
    }

    fn begin_arch(&self, arch: &str, meter: Arc<omptel::Progress>, total: u64) {
        *self.current.lock().expect(POISONED) = Some((arch.to_string(), meter, total));
    }

    fn end_arch(&self) {
        *self.current.lock().expect(POISONED) = None;
    }

    /// Feed one completed batch to both influence trackers: per sample
    /// and objective, the default's cost over the sample's.
    fn observe(&self, data: &SettingData) {
        let usable = |cost: f64| cost.is_finite() && cost > 0.0;
        let defaults = [data.default_mean(), data.default_telemetry.energy.total_j];
        let mut pair = self.influence.lock().expect(POISONED);
        for sample in &data.samples {
            let costs = [sample.mean_runtime(), sample.telemetry.energy.total_j];
            for (live, (default, cost)) in pair.iter_mut().zip(defaults.into_iter().zip(costs)) {
                if usable(default) && usable(cost) {
                    live.observe(&sample.config, default / cost);
                }
            }
        }
    }

    /// The `/influence` document of one objective's tracker.
    fn influence_json(&self, objective: usize) -> String {
        self.influence.lock().expect(POISONED)[objective].json()
    }

    /// (joules, EDP J·s) summed over the completed architectures.
    fn energy_totals(&self) -> (f64, f64) {
        let run = self.run.lock().expect(POISONED);
        run.energy
            .iter()
            .fold((0.0, 0.0), |(j, e), a| (j + a.joules, e + a.edp_js))
    }

    /// The `/energy` JSON document: per-arch joules, EDP, and sink
    /// split over the cleaned samples, plus the streaming
    /// energy-influence ranking.
    fn energy_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"ompwatt-energy-v1\",\"arches\":[");
        let run = self.run.lock().expect(POISONED);
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
        drop(run);
        out.push_str("],\"influence\":");
        out.push_str(&self.influence_json(1));
        out.push('}');
        out
    }

    fn current_meter(&self) -> Option<(Arc<omptel::Progress>, u64)> {
        self.current
            .lock()
            .expect(POISONED)
            .as_ref()
            .map(|(_, m, total)| (m.clone(), *total))
    }

    /// The `/sweep` JSON document.
    fn json(&self) -> String {
        let mut out = String::from("{");
        let run = self.run.lock().expect(POISONED);
        out.push_str(&format!("\"scope\":\"{}\",", run.manifest.scope));
        match &*self.current.lock().expect(POISONED) {
            Some((arch, meter, total)) => out.push_str(&format!(
                "\"state\":\"running\",\"current\":{{\"arch\":\"{arch}\",\
                 \"done\":{},\"total\":{total},\"elapsed_s\":{:.3}}},",
                meter.done(),
                meter.elapsed_s()
            )),
            None => out.push_str("\"state\":\"idle\",\"current\":null,"),
        }
        // Telemetry health: whether the event ring is keeping up (a
        // non-zero dropped count means the flight recorder is lossy)
        // and what the anomaly watchdog has dumped so far.
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
             \"pool_hits\":{},\"pool_misses\":{}}},",
            counters.get(omptel::Counter::PricedBatches),
            counters.get(omptel::Counter::SampleCacheTmpReaped),
            counters.get(omptel::Counter::PoolHits),
            counters.get(omptel::Counter::PoolMisses),
        ));
        match omptel::installed_watchdog() {
            Some(w) => {
                let (flagged, corrupt) = w.counts();
                out.push_str(&format!(
                    "\"watchdog\":{{\"flagged\":{flagged},\"corrupt\":{corrupt}}}}},"
                ));
            }
            None => out.push_str("\"watchdog\":null},"),
        }
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
}

/// The run's scheduler counters for its registry record, summed over
/// the per-architecture records (the sample-cache pair through
/// `arch_lookups`: `ArchManifest::stats` carries it cumulatively).
fn scheduler_counters(manifest: &RunManifest) -> Vec<(String, u64)> {
    let names = [
        "plan_hits",
        "plan_misses",
        "sample_hits",
        "sample_misses",
        "steals",
        "units",
    ];
    let mut totals = [0u64; 6];
    for (i, a) in manifest.arches.iter().enumerate() {
        let (hits, misses) = manifest.arch_lookups(i);
        let s = &a.stats;
        let own = [s.plan_hits, s.plan_misses, hits, misses, s.steals, s.units];
        for (total, n) in totals.iter_mut().zip(own) {
            *total += n;
        }
    }
    names.map(str::to_string).into_iter().zip(totals).collect()
}

fn main() -> std::io::Result<()> {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("collect: {msg}");
            std::process::exit(2);
        }
    };
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
    // runtime counters visible to /metrics; counters never feed results.
    let state = Arc::new(SweepState::new(RunManifest::new(&spec), registry_stats));

    let _session = cli
        .monitor
        .as_ref()
        .map(|_| omptel::session().expect("no other omptel session is live"));
    let monitor = match &cli.monitor {
        Some(addr) => {
            let st = state.clone();
            let metrics: omptel::BodyFn = Arc::new(move || {
                let mut snap = omptel::MetricsSnapshot::capture();
                // Registry counters: history depth at run start and how
                // many records corruption has cost, so scrapers can
                // alarm on a decaying registry.
                if let Some((_, records, corrupt)) = &st.registry {
                    snap = snap
                        .gauge("registry_records", *records as f64)
                        .gauge("registry_corrupt_skipped", *corrupt as f64);
                }
                // Progress gauges are always present (zero between
                // arches) so scrapers never see a series disappear.
                let (done, total, elapsed) = match st.current_meter() {
                    Some((meter, total)) => {
                        snap = snap.histogram(
                            "sample_latency_ns",
                            meter.latency_histogram(),
                            Some(meter.latency_sum_ns()),
                        );
                        (meter.done() as f64, total as f64, meter.elapsed_s())
                    }
                    None => (0.0, 0.0, 0.0),
                };
                // Energy totals over the completed arches: joules and
                // the energy-delay product, so a scraper can watch the
                // second objective accumulate alongside virtual time.
                let (joules, edp) = st.energy_totals();
                snap.gauge("sweep_done", done)
                    .gauge("sweep_total", total)
                    .gauge("sweep_elapsed_seconds", elapsed)
                    .gauge("sweep_energy_joules", joules)
                    .gauge("sweep_energy_edp_js", edp)
                    .render_prometheus()
            });
            let st = state.clone();
            let sweep_body: omptel::BodyFn = Arc::new(move || st.json());
            let st = state.clone();
            let influence_body: omptel::BodyFn = Arc::new(move || st.influence_json(0));
            // /energy: the ompwatt exposition — per-arch joules, EDP,
            // sink split, and the energy-influence ranking.
            let st = state.clone();
            let energy_body: omptel::BodyFn = Arc::new(move || st.energy_json());
            let mut routes: Vec<omptel::Route> = vec![
                ("/influence".to_string(), "application/json", influence_body),
                ("/energy".to_string(), "application/json", energy_body),
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
            let m = omptel::Monitor::start_with_fallback(addr, metrics, sweep_body, routes)?;
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

    // Arm the flight recorder and anomaly watchdog when tracing.
    let recorder = if cli.trace.is_some() {
        let rec = omptel::Recorder::start(omptel::RecorderOptions::default())
            .expect("no other flight recorder is live");
        let sink = fs::File::create(cli.out_dir.join("anomalies.jsonl"))?;
        let watchdog = Arc::new(omptel::Watchdog::new(0.999, Box::new(sink)));
        omptel::install_watchdog(Some(watchdog.clone()));
        Some((rec, watchdog))
    } else {
        None
    };

    let mut batches = Vec::new();
    // The content-addressed core this run will register: per-arch
    // stratum series and cost digests, folded from the cleaned batches.
    let mut run_core = registry.as_ref().map(|_| sweep::CollectCore::new(&spec));
    // Every run records its time-series; `ompobs drift` compares them
    // across runs, so unmonitored CI runs need them too.
    let mut tsdb = omptel::Tsdb::open(cli.out_dir.join("tsdb"), omptel::DEFAULT_CAPACITY)?;

    for &arch in Arch::ALL.iter() {
        let total = sweep::planned_samples(arch, &spec);
        let meter = Arc::new(omptel::Progress::stderr(
            &format!("sweep {} ({:?})", arch.id(), cli.scope),
            total,
        ));
        state.begin_arch(arch.id(), meter.clone(), total);
        let mut opts = SweepOptions::new(cli.workers).with_progress(&meter);
        if let Some(c) = &cache {
            opts = opts.with_cache(c);
        }
        // Registry digest partials fold per batch on the worker that
        // finalized it — while the samples are cache-hot — so recording
        // the run never re-walks the whole sweep. A perturbed arch opts
        // out: perturbation mutates samples after the sweep, so its
        // digest must fold the mutated batches instead.
        let fold_partials =
            run_core.is_some() && cli.perturb.is_none_or(|(perturbed, _)| perturbed != arch);
        let fold_sink: Mutex<Vec<(sweep::RunKey, sweep::BatchPartial)>> = Mutex::new(Vec::new());
        let observer = |data: &SettingData| {
            state.observe(data);
            if fold_partials {
                let partial = sweep::BatchPartial::fold(data);
                fold_sink
                    .lock()
                    .expect("fold sink poisoned")
                    .push((data.key.clone(), partial));
            }
        };
        opts = opts.with_batch_observer(&observer);
        if let Some((_, w)) = &recorder {
            opts = opts.with_watchdog(w);
        }
        let t0 = Instant::now();
        let outcome = sweep::sweep_arch_scheduled(arch, &spec, &opts);
        eprintln!("{}", meter.finish());
        let elapsed = t0.elapsed().as_secs_f64();

        let mut arch_batches = outcome.batches;
        // Sentinel fault injection: shift this arch's figures before
        // any artifact sees them, so the perturbation looks exactly
        // like a real regression to every downstream consumer.
        if let Some((parch, factor)) = cli.perturb {
            if parch == arch {
                perturb_batches(&mut arch_batches, factor);
                eprintln!("perturb: scaled {} virtual time by {factor}", arch.id());
            }
        }
        let mut arch_dropped = 0usize;
        for data in &mut arch_batches {
            arch_dropped += sweep::clean(data, spec.reps as usize).dropped.len();
        }
        if let Some(core) = &mut run_core {
            let partials = std::mem::take(&mut *fold_sink.lock().expect("fold sink poisoned"));
            if fold_partials && arch_dropped == 0 {
                // The cleaner kept every sample, so the cache-hot
                // partials describe exactly the batches being recorded.
                core.push_arch_partials(arch.id(), &arch_batches, partials, 0);
            } else {
                core.push_arch(arch.id(), &arch_batches, arch_dropped as u64);
            }
        }

        // The architecture joins the run's record; everything said about
        // it from here on (series, stderr, timing block, registry) is
        // read back from there.
        let mut run = state.run.lock().expect(POISONED);
        run.manifest.push_arch(
            arch,
            &arch_batches,
            arch_dropped,
            elapsed,
            outcome.stats,
            meter.latency_histogram(),
        );
        run.energy.push(ArchEnergy::of(&arch_batches));
        let i = run.energy.len() - 1;
        let (done, energy) = (&run.manifest.arches[i], &run.energy[i]);
        let (hits, misses) = run.manifest.arch_lookups(i);

        // Time-series for the drift sentinel, from the cleaned samples:
        // the gating per-stratum series, then the informational rest.
        sweep::series::append_stratum_series(&mut tsdb, arch.id(), &arch_batches)?;
        sweep::series::append_arch_series(
            &mut tsdb,
            done,
            (hits, misses),
            meter.latency_sum_ns(),
            (energy.joules, energy.edp_js),
            &state.influence.lock().expect(POISONED),
        )?;
        // One write per series per arch; a failed write fails the run
        // here rather than vanishing in the handle's drop.
        tsdb.flush()?;

        let s = &done.stats;
        eprintln!(
            "{}: plan cache {}/{} hits, sample cache {hits}/{} hits, {} steals over {} units",
            done.arch,
            s.plan_hits,
            s.plan_hits + s.plan_misses,
            hits + misses,
            s.steals,
            s.units
        );
        eprintln!(
            "{}: modeled energy {:.1} J over {} samples (EDP {:.3} J·s)",
            done.arch, energy.joules, done.samples, energy.edp_js
        );
        drop(run);
        state.end_arch();
        batches.extend(arch_batches);
    }

    // The artifact tail: every file from one library call, its two jobs
    // side by side when the worker budget allows.
    let manifest = state.run.lock().expect(POISONED).manifest.clone();
    let artifacts =
        sweep::export::write_artifacts(&cli.out_dir, &batches, &spec, &manifest, cli.workers)?;
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
        "export: {:.2} s wall (raw_json+csv {:.2} s | provenance {:.2} s) on {} thread{}",
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
    if let Some((rec, watchdog)) = recorder {
        omptel::install_watchdog(None);
        watchdog.flush();
        let recording = rec.finish();
        let trace_path = cli.trace.expect("recorder implies --trace");
        let doc = omptel::chrome_trace_with_recording(&[], &recording);
        fs::write(
            &trace_path,
            serde_json::to_string(&doc).map_err(std::io::Error::other)?,
        )?;
        let (flagged, corrupt) = watchdog.counts();
        eprintln!(
            "trace: {} events ({} dropped) across {} threads -> {}",
            recording.total_events(),
            recording.total_dropped(),
            recording.threads.len(),
            trace_path.display()
        );
        eprintln!(
            "watchdog: {flagged} slow-sample anomalies, {corrupt} corrupt cache records -> {}",
            cli.out_dir.join("anomalies.jsonl").display()
        );
    }

    // Register the finished run: the deterministic core (hashed) plus
    // the run-varying context (informational). A registry failure warns
    // but never fails a collection run that already produced its data.
    if let (Some(registry), Some(core)) = (&registry, run_core) {
        let info = sweep::RunInfo {
            workers: cli.workers as u64,
            elapsed_s: manifest.arches.iter().map(|a| a.elapsed_s).sum(),
            manifest_digest: fs::read(cli.out_dir.join("manifest.json"))
                .map(|b| omptune_core::Fnv1a::of(&b))
                .unwrap_or(0),
            out_dir: cli.out_dir.display().to_string(),
            counters: scheduler_counters(&manifest),
        };
        match registry.append(
            sweep::RunCore::Collect(core),
            info,
            &sweep::detect_git_rev(std::path::Path::new(".")),
            sweep::registry::unix_now(),
        ) {
            Ok(rec) => eprintln!(
                "registry: recorded run #{} ({:016x}) -> {}",
                rec.seq,
                rec.record_hash,
                registry.dir().display()
            ),
            Err(e) => eprintln!("registry: failed to record run: {e}"),
        }
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

    fn tiny() -> SweepSpec {
        SweepSpec {
            scope: Scope::Strided(400),
            ..SweepSpec::default()
        }
    }

    /// Two finished architectures, the way `main` records them.
    fn two_arch_state() -> SweepState {
        let spec = tiny();
        let registry = Some(("/var/reg \"x\"".to_string(), 3, 1));
        let state = SweepState::new(RunManifest::new(&spec), registry);
        for (arch, elapsed, sample_hits) in [(Arch::A64fx, 0.0123456, 0), (Arch::Skylake, 1.5, 900)]
        {
            let mut batches =
                sweep::sweep_arch_scheduled(arch, &spec, &SweepOptions::new(1)).batches;
            for data in &mut batches {
                sweep::clean(data, spec.reps as usize);
            }
            let stats = sweep::SweepStats {
                plan_hits: 7,
                plan_misses: 5,
                sample_hits,
                sample_misses: 585,
                steals: 2,
                units: 11,
            };
            let mut run = state.run.lock().unwrap();
            let latency = omptel::Histogram::new();
            run.manifest
                .push_arch(arch, &batches, 0, elapsed, stats, latency);
            run.energy.push(ArchEnergy::of(&batches));
        }
        state
    }

    // Both documents for the state above, as the parent's code (with its
    // own `ArchDone` scoreboard) rendered them.
    const PARENT_SWEEP: &str = r#"{"scope":"Strided(400)","state":"idle","current":null,"telemetry":{"ring_threads":0,"omptel_ring_events_total":0,"omptel_ring_dropped_total":0,"engine":{"priced_batches":0,"sample_cache_tmp_reaped":0,"pool_hits":0,"pool_misses":0},"watchdog":null},"registry":{"dir":"/var/reg \"x\"","records":3,"corrupt_skipped":1},"completed":[{"arch":"a64fx","settings":45,"samples":540,"dropped":0,"elapsed_s":0.012,"joules":9767.780224,"edp_js":4034.379218},{"arch":"skylake","settings":36,"samples":864,"dropped":0,"elapsed_s":1.500,"joules":46560.968713,"edp_js":299597.498229}]}"#;
    const PARENT_ENERGY: &str = r#"{"schema":"ompwatt-energy-v1","arches":[{"arch":"a64fx","samples":540,"joules":9767.780224,"edp_js":4034.379218,"sinks":{"active":4841.432097,"memory":1084.281913,"wait":62.020150,"serial":0.621054,"base":3779.425011}},{"arch":"skylake","samples":864,"joules":46560.968713,"edp_js":299597.498229,"sinks":{"active":10779.698471,"memory":2115.336916,"wait":5937.930185,"serial":2.126568,"base":27725.876574}}],"influence":{"samples":0,"optimal_fraction":0.000000,"influence":{"OMP_PLACES":0.000000,"OMP_PROC_BIND":0.000000,"OMP_SCHEDULE":0.000000,"KMP_LIBRARY":0.000000,"KMP_BLOCKTIME":0.000000,"KMP_FORCE_REDUCTION":0.000000,"KMP_ALIGN_ALLOC":0.000000},"top":null}}"#;

    #[test]
    fn sweep_and_energy_bodies_render_the_manifest() {
        let state = two_arch_state();
        let (sweep_doc, energy_doc) = (state.json(), state.energy_json());
        assert_eq!(sweep_doc, PARENT_SWEEP);
        assert_eq!(energy_doc, PARENT_ENERGY);

        // Entry by entry, each document says what the record holds.
        let parse = |doc: &str| serde_json::from_str::<Value>(doc).expect("valid JSON");
        let array_at = |doc: &Value, at: usize, key: &str| {
            let (k, v) = &doc.as_map().expect("object")[at];
            assert_eq!(k.as_str(), Some(key));
            v.as_seq().expect("array").to_vec()
        };
        let completed = array_at(&parse(&sweep_doc), 5, "completed");
        let arches = array_at(&parse(&energy_doc), 1, "arches");
        let (joules, edp_js) = state.energy_totals();
        let run = state.run.lock().unwrap();
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

    /// The registry's counters come from the manifest, whose sample-cache
    /// pair is cumulative: 585 misses then 900 hits is 900/585 for the
    /// run, not 900/1170 — and none is a session-gated engine counter.
    #[test]
    fn registry_counters_sum_the_manifest() {
        let counters = scheduler_counters(&two_arch_state().run.lock().unwrap().manifest);
        assert!(counters.is_sorted(), "the registry stores them sorted");
        let (names, totals): (Vec<_>, Vec<_>) = counters.into_iter().unzip();
        let all = "plan_hits plan_misses sample_hits sample_misses steals units";
        assert_eq!(names.join(" "), all);
        assert_eq!(totals, [14, 10, 900, 585, 4, 22]);
    }

    /// The merged observer against the two closures it replaced: each
    /// tracker sees the same observations in the same order.
    #[test]
    fn one_observer_feeds_both_trackers_like_the_two_it_replaced() {
        let time_ref = |live: &mut LiveInfluence, data: &SettingData| {
            let default = data.default_mean();
            if !default.is_finite() || default <= 0.0 {
                return;
            }
            for sample in &data.samples {
                let mean = sample.mean_runtime();
                if mean.is_finite() && mean > 0.0 {
                    live.observe(&sample.config, default / mean);
                }
            }
        };
        let energy_ref = |live: &mut LiveInfluence, data: &SettingData| {
            let default = data.default_telemetry.energy.total_j;
            if !default.is_finite() || default <= 0.0 {
                return;
            }
            for sample in &data.samples {
                let joules = sample.telemetry.energy.total_j;
                if joules.is_finite() && joules > 0.0 {
                    live.observe(&sample.config, default / joules);
                }
            }
        };

        // Failure injection leaves non-finite repetitions in the batches,
        // so the guards are exercised too.
        let spec = SweepSpec {
            failure_rate: 0.2,
            ..tiny()
        };
        let batches = sweep::sweep_arch_scheduled(Arch::Skylake, &spec, &SweepOptions::new(1));
        let mut batches = batches.batches;
        // One batch whose time default is unusable but whose energy
        // default is not: only the energy tracker may move.
        batches[0].default_runtimes.fill(f64::NAN);

        let state = SweepState::new(RunManifest::new(&spec), None);
        let mut reference = [LiveInfluence::new(), LiveInfluence::new()];
        for data in &batches {
            state.observe(data);
            time_ref(&mut reference[0], data);
            energy_ref(&mut reference[1], data);
        }
        let merged = state.influence.lock().unwrap().clone();
        assert!(merged[0].samples() > 0);
        assert!(merged[1].samples() > merged[0].samples());
        for (objective, (live, reference)) in merged.iter().zip(&reference).enumerate() {
            let bits = |live: &LiveInfluence| -> Vec<u64> {
                live.influence().iter().map(|(_, v)| v.to_bits()).collect()
            };
            assert_eq!(live.samples(), reference.samples());
            assert_eq!(bits(live), bits(reference));
            assert_eq!(live, reference);
            assert_eq!(state.influence_json(objective), reference.json());
        }
    }
}
