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
use sweep::{Roster, SampleCache, Scope, SweepOptions, SweepSpec};

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
    --no-influence    skip the streaming influence tracker: /influence
                      reports it disabled and no influence time-series
                      are recorded
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
    influence: bool,
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
    let mut influence = true;
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
            "--no-influence" => influence = false,
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
        influence,
        registry,
        perturb,
    })
}

/// Fault injection for the change-point sentinel's acceptance test:
/// scale every runtime, virtual-time, and energy figure of one
/// architecture's batches, exactly as a real regression on that arch
/// would move them. Applied before any artifact (tsdb, provenance,
/// registry) is built.
fn perturb_batches(batches: &mut [sweep::SettingData], factor: f64) {
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

/// One completed arch for the scoreboard.
struct ArchDone {
    arch: String,
    settings: usize,
    samples: usize,
    dropped: usize,
    elapsed_s: f64,
    energy: ArchEnergy,
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
    fn fold(&mut self, telemetry: &sweep::SampleTelemetry) {
        let e = &telemetry.energy;
        if !e.total_j.is_finite() {
            return;
        }
        self.joules += e.total_j;
        self.edp_js += e.edp_js(telemetry.virtual_ns);
        for (slot, sink) in self.sinks.iter_mut().zip(omptel::EnergySink::ALL) {
            *slot += e.get(sink);
        }
    }
}

/// Shared view of the sweep in flight, rendered by the `/sweep` route.
struct SweepState {
    scope: String,
    /// Longitudinal registry context at run start:
    /// (dir, records, corrupt_skipped). `None` with `--no-registry`,
    /// and without `--monitor` (nothing would serve it).
    registry: Option<(String, u64, u64)>,
    current: Mutex<Option<(String, Arc<omptel::Progress>, u64)>>,
    completed: Mutex<Vec<ArchDone>>,
}

impl SweepState {
    fn new(scope: String, registry: Option<(String, u64, u64)>) -> SweepState {
        SweepState {
            scope,
            registry,
            current: Mutex::new(None),
            completed: Mutex::new(Vec::new()),
        }
    }

    fn begin_arch(&self, arch: &str, meter: Arc<omptel::Progress>, total: u64) {
        *self.current.lock().expect("sweep state poisoned") =
            Some((arch.to_string(), meter, total));
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_arch(
        &self,
        arch: &str,
        settings: usize,
        samples: usize,
        dropped: usize,
        elapsed_s: f64,
        energy: ArchEnergy,
    ) {
        *self.current.lock().expect("sweep state poisoned") = None;
        self.completed
            .lock()
            .expect("sweep state poisoned")
            .push(ArchDone {
                arch: arch.to_string(),
                settings,
                samples,
                dropped,
                elapsed_s,
                energy,
            });
    }

    /// (joules, EDP J·s) summed over the completed architectures.
    fn energy_totals(&self) -> (f64, f64) {
        let completed = self.completed.lock().expect("sweep state poisoned");
        completed.iter().fold((0.0, 0.0), |(j, e), a| {
            (j + a.energy.joules, e + a.energy.edp_js)
        })
    }

    /// The `/energy` JSON document: per-arch joules, EDP, and sink
    /// split over the cleaned samples, plus the streaming
    /// energy-influence ranking when the tracker is live.
    fn energy_json(&self, influence: Option<&str>) -> String {
        let mut out = String::from("{\"schema\":\"ompwatt-energy-v1\",\"arches\":[");
        let completed = self.completed.lock().expect("sweep state poisoned");
        for (i, a) in completed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"arch\":\"{}\",\"samples\":{},\"joules\":{:.6},\"edp_js\":{:.6},\"sinks\":{{",
                a.arch, a.samples, a.energy.joules, a.energy.edp_js
            ));
            for (j, sink) in omptel::EnergySink::ALL.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\"{}\":{:.6}",
                    format!("{sink:?}").to_lowercase(),
                    a.energy.sinks[j]
                ));
            }
            out.push_str("}}");
        }
        drop(completed);
        out.push_str("],\"influence\":");
        match influence {
            Some(doc) => out.push_str(doc),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    fn current_meter(&self) -> Option<(Arc<omptel::Progress>, u64)> {
        self.current
            .lock()
            .expect("sweep state poisoned")
            .as_ref()
            .map(|(_, m, total)| (m.clone(), *total))
    }

    /// The `/sweep` JSON document.
    fn json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"scope\":\"{}\",", self.scope));
        match &*self.current.lock().expect("sweep state poisoned") {
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
        let completed = self.completed.lock().expect("sweep state poisoned");
        for (i, a) in completed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"arch\":\"{}\",\"settings\":{},\"samples\":{},\
                 \"dropped\":{},\"elapsed_s\":{:.3},\
                 \"joules\":{:.6},\"edp_js\":{:.6}}}",
                a.arch,
                a.settings,
                a.samples,
                a.dropped,
                a.elapsed_s,
                a.energy.joules,
                a.energy.edp_js
            ));
        }
        out.push_str("]}");
        out
    }
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

    // Live exposition: the monitor only *reads* (every route renders
    // from a closure at scrape time), so a monitored run's outputs stay
    // byte-identical to an unmonitored one. The telemetry session makes
    // runtime counters visible to /metrics; counters never feed results.
    let state = Arc::new(SweepState::new(
        format!("{:?}", cli.scope),
        registry_stats.clone(),
    ));

    // Streaming influence: an online logistic model updated from every
    // completed batch (label: did the config beat the arch default?),
    // so /influence can rank the tuning variables while the sweep is
    // still running instead of after the dataset lands. Exposition
    // only — it never feeds back into sampling or the artifacts.
    let influence = cli
        .influence
        .then(|| Arc::new(Mutex::new(LiveInfluence::new())));
    let influence_obs = influence.clone().map(|live| {
        move |data: &sweep::SettingData| {
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
        }
    });
    // A second, independent logistic stream over the *energy* objective
    // (label: did the config cost fewer joules than the arch default?).
    // Where the two rankings disagree is exactly the ompwatt
    // disagreement map, live while the sweep runs.
    let energy_influence = cli
        .influence
        .then(|| Arc::new(Mutex::new(LiveInfluence::new())));
    let energy_obs = energy_influence.clone().map(|live| {
        move |data: &sweep::SettingData| {
            let default = data.default_telemetry.energy.total_j;
            if !default.is_finite() || default <= 0.0 {
                return;
            }
            let mut live = live.lock().expect("energy influence tracker poisoned");
            for sample in &data.samples {
                let joules = sample.telemetry.energy.total_j;
                if joules.is_finite() && joules > 0.0 {
                    live.observe(&sample.config, default / joules);
                }
            }
        }
    });

    let _session = cli
        .monitor
        .as_ref()
        .map(|_| omptel::session().expect("no other omptel session is live"));
    let monitor = match &cli.monitor {
        Some(addr) => {
            let st = state.clone();
            let reg_stats = registry_stats.clone();
            let metrics: omptel::BodyFn = Arc::new(move || {
                let mut snap = omptel::MetricsSnapshot::capture();
                // Registry counters: history depth at run start and how
                // many records corruption has cost, so scrapers can
                // alarm on a decaying registry.
                if let Some((_, records, corrupt)) = &reg_stats {
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
            let live = influence.clone();
            let influence_body: omptel::BodyFn = Arc::new(move || match &live {
                Some(live) => live.lock().expect("influence tracker poisoned").json(),
                None => "{\"disabled\":true}".to_string(),
            });
            let mut routes: Vec<omptel::Route> =
                vec![("/influence".to_string(), "application/json", influence_body)];
            // /energy: the ompwatt exposition — per-arch joules, EDP,
            // sink split, and the energy-influence ranking.
            let st = state.clone();
            let elive = energy_influence.clone();
            let energy_body: omptel::BodyFn = Arc::new(move || {
                let doc = elive.as_ref().map(|live| {
                    live.lock()
                        .expect("energy influence tracker poisoned")
                        .json()
                });
                st.energy_json(doc.as_deref())
            });
            routes.push(("/energy".to_string(), "application/json", energy_body));
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

    let spec = SweepSpec {
        scope: cli.scope,
        roster: cli.roster,
        ..SweepSpec::default()
    };
    let mut manifest = sweep::RunManifest::new(&spec);
    let mut batches = Vec::new();
    let mut timings = Vec::new();
    // The content-addressed core this run will register: per-arch
    // stratum series and cost digests, folded from the cleaned batches.
    let mut run_core = registry.as_ref().map(|_| sweep::CollectCore::new(&spec));
    let mut agg_stats = sweep::SweepStats::default();
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
        let observer = |data: &sweep::SettingData| {
            if let Some(obs) = &influence_obs {
                obs(data);
            }
            if let Some(obs) = &energy_obs {
                obs(data);
            }
            if fold_partials {
                let partial = sweep::BatchPartial::fold(data);
                fold_sink
                    .lock()
                    .expect("fold sink poisoned")
                    .push((data.key.clone(), partial));
            }
        };
        if influence_obs.is_some() || fold_partials {
            opts = opts.with_batch_observer(&observer);
        }
        if let Some((_, w)) = &recorder {
            opts = opts.with_watchdog(w);
        }
        let t0 = Instant::now();
        let before_cache = cache.as_ref().map(|c| c.stats()).unwrap_or((0, 0));
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

        // Time-series for the drift sentinel, from the cleaned samples:
        // the per-stratum virtual-time and joules series are
        // deterministic given the seed, so same-seed runs must agree on
        // them exactly — those gate. Wall latency and scheduler rates
        // legitimately vary and the per-arch aggregates only repeat the
        // gating series, so the rest is informational.
        sweep::series::append_stratum_series(&mut tsdb, arch.id(), &arch_batches)?;
        let mut arch_energy = ArchEnergy::default();
        for sample in arch_batches.iter().flat_map(|data| &data.samples) {
            arch_energy.fold(&sample.telemetry);
        }
        // Arch-level energy aggregates: total joules and the EDP over
        // the cleaned samples, deterministic given the seed.
        if arch_energy.joules > 0.0 {
            let samples_n: usize = arch_batches.iter().map(|b| b.samples.len()).sum();
            let point = omptel::Point {
                ts: 0,
                count: samples_n as u64,
                sum: arch_energy.joules,
            };
            tsdb.append(&format!("{}/energy/joules", arch.id()), point)?;
            let point = omptel::Point {
                ts: 0,
                count: samples_n as u64,
                sum: arch_energy.edp_js,
            };
            tsdb.append(&format!("{}/energy/edp_js", arch.id()), point)?;
        }
        let lat = meter.latency_histogram();
        if !lat.is_empty() {
            let point = omptel::Point {
                ts: 0,
                count: lat.count,
                sum: meter.latency_sum_ns() as f64,
            };
            tsdb.append(&format!("{}/wall/sample_ns", arch.id()), point)?;
        }
        let st = outcome.stats;
        let lookups = st.sample_hits + st.sample_misses;
        if lookups > 0 {
            let point = omptel::Point {
                ts: 0,
                count: lookups,
                sum: st.sample_hits as f64,
            };
            tsdb.append(&format!("{}/rate/cache_hit", arch.id()), point)?;
        }
        if st.units > 0 {
            let point = omptel::Point {
                ts: 0,
                count: st.units,
                sum: st.steals as f64,
            };
            tsdb.append(&format!("{}/rate/steal", arch.id()), point)?;
        }
        // Snapshot the streaming influence ranking after each arch so
        // the series chart how the ranking firmed up over the run.
        // Batch completion order is scheduling-dependent, so these
        // series are informational, not drift-gating.
        if let Some(live) = &influence {
            let snap = live.lock().expect("influence tracker poisoned");
            if snap.samples() > 0 {
                for (var, value) in snap.influence() {
                    let point = omptel::Point {
                        ts: 0,
                        count: snap.samples(),
                        sum: value,
                    };
                    let slug = var.env_name().to_lowercase();
                    tsdb.append(&format!("{}/influence/{slug}", arch.id()), point)?;
                }
            }
        }
        if let Some(live) = &energy_influence {
            let snap = live.lock().expect("energy influence tracker poisoned");
            if snap.samples() > 0 {
                for (var, value) in snap.influence() {
                    let point = omptel::Point {
                        ts: 0,
                        count: snap.samples(),
                        sum: value,
                    };
                    let slug = var.env_name().to_lowercase();
                    tsdb.append(&format!("{}/influence-energy/{slug}", arch.id()), point)?;
                }
            }
        }
        // One write per series per arch; a failed write fails the run
        // here rather than vanishing in the handle's drop.
        tsdb.flush()?;

        manifest.push_arch(
            arch,
            &arch_batches,
            arch_dropped,
            elapsed,
            outcome.stats,
            meter.latency_histogram(),
        );
        let samples: usize = arch_batches.iter().map(|b| b.samples.len()).sum();
        let s = outcome.stats;
        let arch_cache = (
            s.sample_hits - before_cache.0,
            s.sample_misses - before_cache.1,
        );
        eprintln!(
            "{}: plan cache {}/{} hits, sample cache {}/{} hits, {} steals over {} units",
            arch.id(),
            s.plan_hits,
            s.plan_hits + s.plan_misses,
            arch_cache.0,
            arch_cache.0 + arch_cache.1,
            s.steals,
            s.units
        );
        agg_stats.plan_hits += s.plan_hits;
        agg_stats.plan_misses += s.plan_misses;
        agg_stats.steals += s.steals;
        agg_stats.units += s.units;
        eprintln!(
            "{}: modeled energy {:.1} J over {samples} samples (EDP {:.3} J·s)",
            arch.id(),
            arch_energy.joules,
            arch_energy.edp_js
        );
        state.finish_arch(
            arch.id(),
            arch_batches.len(),
            samples,
            arch_dropped,
            elapsed,
            arch_energy,
        );
        timings.push((arch, arch_batches.len(), samples, arch_dropped, elapsed));
        batches.extend(arch_batches);
    }

    // The artifact tail: every file from one library call, its two jobs
    // side by side when the worker budget allows.
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
    for (arch, settings, samples, dropped, elapsed) in &timings {
        let rate = *samples as f64 / elapsed.max(1e-9);
        eprintln!(
            "{}: {settings} settings, {samples} samples ({dropped} dropped) in {elapsed:.1}s ({rate:.0} samples/s)",
            arch.id()
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
        if let Some(c) = &cache {
            let (h, m) = c.stats();
            agg_stats.sample_hits = h;
            agg_stats.sample_misses = m;
        }
        let engine = omptel::counters_now();
        let mut counters = vec![
            ("plan_hits".to_string(), agg_stats.plan_hits),
            ("plan_misses".to_string(), agg_stats.plan_misses),
            ("sample_hits".to_string(), agg_stats.sample_hits),
            ("sample_misses".to_string(), agg_stats.sample_misses),
            ("steals".to_string(), agg_stats.steals),
            ("units".to_string(), agg_stats.units),
            (
                "priced_batches".to_string(),
                engine.get(omptel::Counter::PricedBatches),
            ),
            (
                "pool_hits".to_string(),
                engine.get(omptel::Counter::PoolHits),
            ),
            (
                "pool_misses".to_string(),
                engine.get(omptel::Counter::PoolMisses),
            ),
            (
                "energy_samples".to_string(),
                engine.get(omptel::Counter::EnergySamples),
            ),
            (
                "energy_uj".to_string(),
                engine.get(omptel::Counter::EnergyUj),
            ),
        ];
        counters.sort();
        let info = sweep::RunInfo {
            workers: cli.workers as u64,
            elapsed_s: timings.iter().map(|t| t.4).sum(),
            manifest_digest: fs::read(cli.out_dir.join("manifest.json"))
                .map(|b| omptune_core::Fnv1a::of(&b))
                .unwrap_or(0),
            out_dir: cli.out_dir.display().to_string(),
            counters,
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
