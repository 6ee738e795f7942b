//! `omptel-report` — "why was this slow" analysis over sweep telemetry.
//!
//! Modes:
//!
//! - `omptel-report [arch] [app]` — sweep a strided slice of one
//!   setting, pick the best and worst configurations by mean runtime,
//!   and render their telemetry side by side (paper Table VI shape):
//!   top time sink, imbalance ratio, steal efficiency, full sink table.
//! - `omptel-report --json [arch] [app]` — the same best-vs-worst
//!   analysis as schema-stamped machine-readable JSON (sink and energy
//!   breakdowns, scheduler statistics), for scripts that post-process
//!   the report instead of reading it.
//! - `omptel-report --spans [arch] [app] [--trace-out PATH]` — run one
//!   setting's sweep under the flight recorder (simulator virtual spans
//!   included) and print a per-span-kind latency quantile table plus
//!   the per-sample wall-latency distribution; `--trace-out` also dumps
//!   the Chrome trace_event JSON.
//! - `omptel-report --self-check` — run the acceptance invariants and
//!   exit nonzero on violation: every sample's breakdown must sum to its
//!   elapsed virtual time, and the pathological configuration (master
//!   binding at full thread count) must be diagnosed as dominated by
//!   barrier/imbalance wait.
//!
//! Every explanation folds a sample's own closed telemetry; nothing is
//! re-simulated, and no telemetry session is opened.

use omptune_core::cli::{self, Args, Error, EXIT_OK};
use omptune_core::{Arch, OmpPlaces, OmpProcBind, TuningConfig};
use std::fmt::Write as _;
use std::process::ExitCode;
use sweep::{ReportSlice, SampleTelemetry, Scope, SweepOptions, SweepSpec};
use workloads::Setting;

const USAGE: &str =
    "usage: omptel-report [--json | --spans [--trace-out PATH] | --self-check] [ARCH] [APP]";

/// The slice every mode but `--self-check` reports on: strided 50,
/// swept on 4 workers.
const SCOPE: usize = 50;

/// Compact nanosecond formatting for quantile tables.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Scheduler-statistics table (sweep counters the summary previously
/// kept to itself).
fn stats_table(stats: &sweep::SweepStats) -> String {
    let mut out = String::from("scheduler statistics\n");
    let rows: [(&str, u64); 6] = [
        ("plan cache hits", stats.plan_hits),
        ("plan cache misses", stats.plan_misses),
        ("sample cache hits", stats.sample_hits),
        ("sample cache misses", stats.sample_misses),
        ("unit steals", stats.steals),
        ("units executed", stats.units),
    ];
    for (label, v) in rows {
        let _ = writeln!(out, "  {label:<20} {v:>10}");
    }
    out
}

/// Quantile row of one histogram: count, p50/p95/p99 midpoints, max.
fn quantile_row(label: &str, h: &omptel::Histogram) -> String {
    let mid = |q: f64| h.quantile(q).map(|b| fmt_ns(b.mid())).unwrap_or_default();
    format!(
        "  {label:<14} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
        h.count,
        mid(0.50),
        mid(0.95),
        mid(0.99),
        fmt_ns(h.max)
    )
}

fn best_vs_worst(arch: Arch, app_name: &str) -> Result<String, String> {
    let slice = ReportSlice::sweep(arch, app_name, SCOPE, &SweepOptions::new(4))?;
    let (best, worst) = (slice.fastest()?, slice.slowest()?);
    let (data, setting, stats) = (&slice.data, slice.setting, &slice.stats);
    let explain = |label: &str, s: &sweep::RawSample| {
        let summary = s.telemetry.summary();
        let title = format!(
            "{label} {app_name}/{} t={} speedup {:.2}x | {}",
            arch.id(),
            setting.num_threads,
            data.speedup(s),
            s.config.describe_knobs()
        );
        (omptel::explain(&title, &summary), summary)
    };
    let (best_ex, best_sum) = explain("best ", best);
    let (worst_ex, worst_sum) = explain("worst", worst);
    let gap = slice.virtual_gap()?;
    Ok(format!(
        "{}{}",
        omptel::render_pair(gap, (&best_ex, &best_sum), (&worst_ex, &worst_sum)),
        stats_table(stats)
    ))
}

/// `--json`: the best-vs-worst analysis as deterministic hand-rolled
/// JSON (the same convention as the ompprof attribution export: schema
/// stamp first, fixed-precision decimals, stable key order).
fn json_report(arch: Arch, app_name: &str) -> Result<String, String> {
    let slice = ReportSlice::sweep(arch, app_name, SCOPE, &SweepOptions::new(4))?;
    let (best, worst) = (slice.fastest()?, slice.slowest()?);
    let (data, setting, spec, stats) = (&slice.data, slice.setting, &slice.spec, &slice.stats);
    let side = |s: &sweep::RawSample| {
        let t = &s.telemetry;
        let mut sinks = String::new();
        for (i, sink) in omptel::Sink::ALL.iter().enumerate() {
            if i > 0 {
                sinks.push_str(", ");
            }
            sinks.push_str(&format!(
                "\"{}\": {:.3}",
                format!("{sink:?}").to_lowercase(),
                t.breakdown.get(*sink)
            ));
        }
        let mut energy = format!("\"total_j\": {:.9}", t.energy.total_j);
        for sink in omptel::EnergySink::ALL {
            energy.push_str(&format!(
                ", \"{}_j\": {:.9}",
                format!("{sink:?}").to_lowercase(),
                t.energy.get(sink)
            ));
        }
        energy.push_str(&format!(
            ", \"edp_js\": {:.9}",
            t.energy.edp_js(t.virtual_ns)
        ));
        format!(
            "{{\"config\": \"{}\", \"speedup\": {:.6}, \"mean_runtime_s\": {:.9}, \
             \"virtual_ns\": {:.3},\n     \"sinks_ns\": {{{sinks}}},\n     \
             \"energy\": {{{energy}}}}}",
            s.config.describe_knobs(),
            data.speedup(s),
            s.mean_runtime(),
            t.virtual_ns
        )
    };
    let mut out = String::with_capacity(2048);
    out.push_str("{\n  \"schema\": \"omptel-report-v1\",\n");
    out.push_str(&format!(
        "  \"slice\": {{\"arch\": \"{}\", \"app\": \"{app_name}\", \"threads\": {}, \
         \"scope\": \"strided(50)\", \"seed\": {}, \"samples\": {}}},\n",
        arch.id(),
        setting.num_threads,
        spec.seed,
        data.samples.len()
    ));
    out.push_str(&format!("  \"best\": {},\n", side(best)));
    out.push_str(&format!("  \"worst\": {},\n", side(worst)));
    out.push_str(&format!(
        "  \"gap\": {:.6},\n",
        worst.mean_runtime() / best.mean_runtime()
    ));
    out.push_str(&format!(
        "  \"stats\": {{\"plan_hits\": {}, \"plan_misses\": {}, \"sample_hits\": {}, \
         \"sample_misses\": {}, \"steals\": {}, \"units\": {}}}\n}}\n",
        stats.plan_hits,
        stats.plan_misses,
        stats.sample_hits,
        stats.sample_misses,
        stats.steals,
        stats.units
    ));
    Ok(out)
}

/// `--spans`: sweep one setting under the flight recorder and report
/// per-span-kind duration quantiles, the sample latency distribution,
/// and (optionally) the Chrome trace.
fn spans_report(arch: Arch, app_name: &str, trace_out: Option<&str>) -> Result<String, String> {
    let rec = omptel::Recorder::start(omptel::RecorderOptions {
        sim_spans: true,
        ..Default::default()
    })
    .map_err(|_| "another flight recorder is live".to_string())?;
    let progress = omptel::Progress::quiet("spans", 0);
    let opts = SweepOptions::new(4).with_progress(&progress);
    let slice = ReportSlice::sweep(arch, app_name, SCOPE, &opts)?;
    let recording = rec.finish();
    let (data, setting, stats) = (&slice.data, slice.setting, &slice.stats);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "span report: {app_name}/{} t={} ({} samples)",
        arch.id(),
        setting.num_threads,
        data.samples.len()
    );
    let _ = writeln!(
        out,
        "flight recorder: {} events across {} threads ({} dropped)",
        recording.total_events(),
        recording.threads.len(),
        recording.total_dropped()
    );
    let _ = writeln!(
        out,
        "  {:<14} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "span", "count", "p50", "p95", "p99", "max"
    );
    for (kind, hist) in recording.span_durations() {
        out.push_str(&quantile_row(kind.name(), &hist));
    }
    let lat = progress.latency_histogram();
    if !lat.is_empty() {
        out.push_str("sample wall latency\n");
        let _ = writeln!(
            out,
            "  {:<14} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "", "count", "p50", "p95", "p99", "max"
        );
        out.push_str(&quantile_row("sample", &lat));
    }
    out.push_str(&stats_table(stats));

    if let Some(path) = trace_out {
        omptel::validate_trace(&recording).map_err(|e| format!("trace validation: {e}"))?;
        let doc = omptel::chrome_trace_with_recording(&recording);
        let json = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}

/// The acceptance invariants, as a runnable check.
fn self_check() -> Result<(), String> {
    // 1. A sweep sample of an NPB workload: every sample's closed
    //    breakdown sums to its elapsed virtual time.
    let app = workloads::app("cg").expect("cg registered");
    let spec = SweepSpec {
        scope: Scope::Strided(400),
        ..SweepSpec::default()
    };
    let setting = Setting {
        input_code: 0,
        num_threads: 96,
    };
    let data = sweep::sweep_setting(Arch::Milan, app, setting, 0, &spec);
    if data.samples.is_empty() {
        return Err("self-check sweep produced no samples".into());
    }
    for s in &data.samples {
        let t = &s.telemetry;
        let sum = t.breakdown.sum();
        if (sum - t.virtual_ns).abs() > t.virtual_ns.max(1.0) * 1e-9 {
            return Err(format!(
                "sample {} breakdown sum {sum} != virtual total {}",
                s.config_index, t.virtual_ns
            ));
        }
    }
    println!(
        "self-check: {} samples close against their totals",
        data.samples.len()
    );

    // 2. The pathological configuration — every thread bound to the
    //    master's place — must be diagnosed as barrier/imbalance bound.
    let mut bad = TuningConfig::default_for(Arch::Milan, 96);
    bad.places = OmpPlaces::Cores;
    bad.proc_bind = OmpProcBind::Master;
    let model = (app.model)(Arch::Milan, setting);
    let sim = simrt::simulate(Arch::Milan, &bad, &model, spec.seed);
    let summary = SampleTelemetry::from_sim(Arch::Milan, &bad, &sim).summary();
    let dominant = summary.dominant_sink();
    if dominant != omptel::Sink::Imbalance {
        return Err(format!(
            "pathological config diagnosed as {:?} ({}), expected barrier/imbalance wait",
            dominant,
            dominant.label()
        ));
    }
    println!(
        "self-check: master-bound config dominated by {} ({:.0}% of time)",
        dominant.label(),
        summary.sink_fraction(dominant) * 100.0
    );
    Ok(())
}

enum Mode {
    Text,
    Json,
    Spans(Option<String>),
    SelfCheck,
}

fn parse(mut args: Args) -> Result<(Mode, Arch, String), Error> {
    let flags = ["--json", "--spans", "--self-check"].map(|mode| args.flag(mode));
    let mode = match flags {
        [false, false, false] => Mode::Text,
        [true, false, false] => Mode::Json,
        [false, true, false] => Mode::Spans(args.value("--trace-out")?),
        [false, false, true] => Mode::SelfCheck,
        _ => {
            return Err(Error::usage(
                "--json, --spans and --self-check exclude each other",
            ))
        }
    };
    let (mut arch, mut app) = (Arch::Milan, "cg".to_string());
    if !matches!(mode, Mode::SelfCheck) {
        if let Some(id) = args.positional()? {
            arch = Arch::from_id(&id).ok_or_else(|| Error::unknown("arch", &id))?;
        }
        app = args.positional()?.unwrap_or(app);
    }
    args.finish()?;
    Ok((mode, arch, app))
}

fn main() -> ExitCode {
    cli::run("omptel-report", USAGE, |args| {
        let (mode, arch, app) = parse(args)?;
        match mode {
            Mode::Text => print!("{}", best_vs_worst(arch, &app)?),
            Mode::Json => print!("{}", json_report(arch, &app)?),
            Mode::Spans(trace_out) => print!("{}", spans_report(arch, &app, trace_out.as_deref())?),
            Mode::SelfCheck => {
                self_check().map_err(|e| format!("self-check: FAIL: {e}"))?;
                println!("self-check: PASS");
            }
        }
        Ok(EXIT_OK)
    })
}

#[cfg(test)]
mod tests {
    use omptune_core::Arch;

    /// The text report's gap is the ratio of the two `virtual_ns` fields
    /// `--json` prints for the same slice: one gap figure, not two.
    #[test]
    fn the_text_gap_is_the_json_virtual_ns_ratio() {
        let text = super::best_vs_worst(Arch::Milan, "cg").unwrap();
        let json = super::json_report(Arch::Milan, "cg").unwrap();
        let doc: serde::Value = serde_json::from_str(&json).unwrap();
        fn field<'v>(v: &'v serde::Value, key: &str) -> &'v serde::Value {
            let map = v.as_map().expect("a JSON object");
            let found = map.iter().find(|(k, _)| k.as_str() == Some(key));
            &found.unwrap_or_else(|| panic!("no {key}")).1
        }
        let virtual_ns = |side| field(field(&doc, side), "virtual_ns").as_f64().unwrap();
        let gap = virtual_ns("worst") / virtual_ns("best");
        let headline = format!("best-vs-worst: {gap:.2}x virtual-time gap;");
        assert!(
            text.starts_with(&headline),
            "{headline:?} does not head\n{text}"
        );
    }

    #[test]
    fn a_command_line_is_a_report_mode_or_a_usage_error() {
        omptune_core::cli::check_parse(
            super::parse,
            " | milan cg | --json skylake xsbench | --spans milan cg --trace-out t.json \
             | --self-check",
            "--bogus | --spans --trace-out | --trace-out t.json | --json --spans | nope \
             | milan cg extra | --self-check milan",
        );
    }
}
