//! `trace-check` — validate an exported Chrome trace_event JSON.
//!
//! Checks the structural invariants a well-formed flight-recorder
//! export must satisfy: spans on each (pid, tid) track are laminar
//! (properly nested, never partially overlapping) and every
//! cross-worker flow arrow has both its emitting and receiving side.
//! Exit status is nonzero on any violation, any unresolved flow, or any
//! orphaned span — verify.sh runs this against a live traced sweep.
//! A passing trace is then summarised as one row of duration quantiles
//! per span name.

use omptune_core::cli::{self, Args, Error, EXIT_OK};
use std::fmt::Write as _;
use std::process::ExitCode;

const HELP: &str = "\
trace-check — validate a Chrome trace_event JSON export

USAGE:
    trace-check TRACE.json [--allow-drops]

On PASS, prints one row per span name: its count, the p50 / p95 / p99
bucket midpoints and the max of its durations.

OPTIONS:
    --allow-drops   tolerate ring-buffer drops (orphan spans are then
                    expected at the window edge); flows must still all
                    resolve
    -h, --help      print this help
";

/// The trace path and `--allow-drops`.
fn parse(mut args: Args) -> Result<(String, bool), Error> {
    args.help(HELP)?;
    let allow_drops = args.flag("--allow-drops");
    let path = args.positional()?;
    args.finish()?;
    let path = path.ok_or_else(|| Error::usage("no trace path given"))?;
    Ok((path, allow_drops))
}

fn check(path: &str, allow_drops: bool) -> Result<u8, Error> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let report = omptel::validate_trace_json(&json).map_err(|e| format!("FAIL: {e}"))?;
    println!("trace-check: {report}");
    if report.unresolved_flows > 0 {
        return Err(format!("FAIL: {} unresolved flow(s)", report.unresolved_flows).into());
    }
    if report.orphan_spans > 0 && !(allow_drops && report.dropped > 0) {
        return Err(format!("FAIL: {} orphaned span(s)", report.orphan_spans).into());
    }
    println!("trace-check: PASS");
    print!("{}", span_table(&report.durations));
    Ok(EXIT_OK)
}

/// Compact nanosecond formatting for the span table.
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

/// One row per span name: count, p50/p95/p99 bucket midpoints, max.
fn span_table(durations: &[(String, omptel::Histogram)]) -> String {
    let mut out = format!(
        "  {:<14} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
        "span", "count", "p50", "p95", "p99", "max"
    );
    for (name, h) in durations {
        let mid = |q: f64| h.quantile(q).map(|b| fmt_ns(b.mid())).unwrap_or_default();
        let _ = writeln!(
            out,
            "  {name:<14} {:>8} {:>10} {:>10} {:>10} {:>10}",
            h.count,
            mid(0.50),
            mid(0.95),
            mid(0.99),
            fmt_ns(h.max)
        );
    }
    out
}

fn main() -> ExitCode {
    cli::run("trace-check", HELP, |args| {
        let (path, allow_drops) = parse(args)?;
        check(&path, allow_drops)
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_span_table_has_a_row_per_slice_name() {
        let json = r#"{"traceEvents":[
            {"name":"unit","ph":"X","ts":0,"dur":10,"pid":1,"tid":0},
            {"name":"sample","ph":"X","ts":1,"dur":0.5,"pid":1,"tid":0},
            {"name":"sample","ph":"X","ts":2,"dur":2.5,"pid":1,"tid":0}
        ]}"#;
        let report = omptel::validate_trace_json(json).unwrap();
        let table = super::span_table(&report.durations);
        let rows: Vec<Vec<&str>> = table
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(rows.len(), 3, "{table}");
        assert_eq!(rows[0], ["span", "count", "p50", "p95", "p99", "max"]);
        assert_eq!(rows[1][..2], ["sample", "2"]);
        assert_eq!(rows[1][5], "2.50us");
        assert_eq!(
            rows[2],
            ["unit", "1", "10.00us", "10.00us", "10.00us", "10.00us"]
        );
    }

    #[test]
    fn a_command_line_is_one_trace_path_or_a_usage_error() {
        omptune_core::cli::check_parse(
            super::parse,
            "t.json | t.json --allow-drops | --allow-drops t.json | --help | -h",
            " | --allow-drops | a.json b.json | t.json --frob",
        );
    }
}
