//! `trace-check` — validate an exported Chrome trace_event JSON.
//!
//! Checks the structural invariants a well-formed flight-recorder
//! export must satisfy: spans on each (pid, tid) track are laminar
//! (properly nested, never partially overlapping) and every
//! cross-worker flow arrow has both its emitting and receiving side.
//! Exit status is nonzero on any violation, any unresolved flow, or any
//! orphaned span — verify.sh runs this against a live traced sweep.

use omptune_core::cli::{self, Args, Error, EXIT_OK};
use std::process::ExitCode;

const HELP: &str = "\
trace-check — validate a Chrome trace_event JSON export

USAGE:
    trace-check TRACE.json [--allow-drops]

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
    Ok(EXIT_OK)
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
    fn a_command_line_is_one_trace_path_or_a_usage_error() {
        omptune_core::cli::check_parse(
            super::parse,
            "t.json | t.json --allow-drops | --allow-drops t.json | --help | -h",
            " | --allow-drops | a.json b.json | t.json --frob",
        );
    }
}
