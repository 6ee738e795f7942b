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
//!
//! Every explanation folds a sample's own closed telemetry; nothing is
//! re-simulated, and no telemetry session is opened.

use omptune_core::cli::{self, Args, Error, EXIT_OK};
use omptune_core::Arch;
use std::fmt::Write as _;
use std::process::ExitCode;
use sweep::{ReportSlice, SweepOptions};

const USAGE: &str = "usage: omptel-report [--json] [ARCH] [APP]";

/// The slice both modes report on: strided 50, swept on 4 workers.
const SCOPE: usize = 50;

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
    out.push_str(&format!("  \"gap\": {:.6},\n", slice.virtual_gap()?));
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

/// `--json`, the arch and the app.
fn parse(mut args: Args) -> Result<(bool, Arch, String), Error> {
    let json = args.flag("--json");
    let mut arch = Arch::Milan;
    if let Some(id) = args.positional()? {
        arch = Arch::from_id(&id).ok_or_else(|| Error::unknown("arch", &id))?;
    }
    let app = args.positional()?.unwrap_or_else(|| "cg".to_string());
    args.finish()?;
    Ok((json, arch, app))
}

fn main() -> ExitCode {
    cli::run("omptel-report", USAGE, |args| {
        let (json, arch, app) = parse(args)?;
        if json {
            print!("{}", json_report(arch, &app)?);
        } else {
            print!("{}", best_vs_worst(arch, &app)?);
        }
        Ok(EXIT_OK)
    })
}

#[cfg(test)]
mod tests {
    use omptune_core::Arch;

    /// The text report's gap and the JSON's `gap` are both the ratio of
    /// the two `virtual_ns` fields `--json` prints for the same slice:
    /// one gap figure, not two.
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
        let json_gap = field(&doc, "gap").as_f64().unwrap();
        assert_eq!(format!("{json_gap:.6}"), format!("{gap:.6}"), "--json gap");
    }

    #[test]
    fn a_command_line_is_a_report_mode_or_a_usage_error() {
        omptune_core::cli::check_parse(
            super::parse,
            " | milan cg | --json skylake xsbench | milan --json",
            "--bogus | --trace-out t.json | nope | milan cg extra | --json milan cg extra",
        );
    }
}
