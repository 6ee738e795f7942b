//! `ompwatt` — the energy-vs-time disagreement report (command line in
//! [`USAGE`]).
//!
//! Sweeps a strided slice of the tuning space on every architecture
//! that has `APP` (default `cg`), finds the time-, energy-, and
//! EDP-optimal configurations, and writes three artifacts to
//! `--out-dir` (default `ompwatt-out`):
//!
//! - `disagreement.md` — the markdown table EXPERIMENTS.md embeds;
//! - `energy_heatmap.svg` — per-(arch, variable) marginal energy
//!   spread;
//! - `ompwatt.json` — the machine-readable report.
//!
//! `--check` is the self-check CI runs: it asserts that at least one
//! architecture's energy optimum is *not* its time optimum — the
//! headline claim of the energy study. Exit codes are
//! `omptune_core::cli`'s 0/4/2/1, 4 meaning the check failed (no
//! disagreement anywhere).

use omptune_core::cli::{self, Args, Error, EXIT_OK};
use std::process::ExitCode;

const USAGE: &str =
    "usage: ompwatt report [APP] [--scope N] [--workers N] [--out-dir DIR] [--check]";

struct Cli {
    app: String,
    scope: usize,
    workers: usize,
    out_dir: String,
    check: bool,
}

fn parse(mut args: Args) -> Result<Cli, Error> {
    match args.subcommand()?.as_str() {
        "report" => {}
        other => return Err(Error::unknown("subcommand", other)),
    }
    let cli = Cli {
        scope: args.positive("--scope")?.unwrap_or(200),
        workers: args.positive("--workers")?.unwrap_or(4),
        out_dir: args
            .value("--out-dir")?
            .unwrap_or_else(|| "ompwatt-out".to_string()),
        check: args.flag("--check"),
        app: args.positional()?.unwrap_or_else(|| "cg".to_string()),
    };
    args.finish()?;
    Ok(cli)
}

fn report(args: Cli) -> Result<u8, Error> {
    let report = ompwatt::analyze(&args.app, args.scope, args.workers)?;

    let dir = std::path::Path::new(&args.out_dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", args.out_dir))?;
    let write = |name: &str, text: String| -> Result<(), String> {
        std::fs::write(dir.join(name), text)
            .map_err(|e| format!("cannot write {}/{name}: {e}", args.out_dir))
    };
    let md = ompwatt::disagreement_markdown(&report);
    write("disagreement.md", md.clone())?;
    write("energy_heatmap.svg", ompwatt::heatmap_svg(&report))?;
    write("ompwatt.json", ompwatt::report_json(&report))?;

    println!(
        "ompwatt report: {} over strided({}) on {} arch(es)\n",
        report.app,
        report.scope,
        report.verdicts.len()
    );
    print!("{md}");
    for v in &report.verdicts {
        println!(
            "\n{}: time-opt  {}\n{:>width$}energy-opt {}",
            v.arch.id(),
            v.time_best.config.describe(),
            "",
            v.energy_best.config.describe(),
            width = v.arch.id().len() + 2
        );
    }
    println!(
        "\nwrote {}/{{disagreement.md, energy_heatmap.svg, ompwatt.json}}",
        args.out_dir
    );

    if args.check {
        let n = report.disagreements();
        match n {
            0 => println!("check: FAILED — time- and energy-optima agree on every architecture"),
            _ => println!("check: {n} architecture(s) where energy-optimal != time-optimal"),
        }
        return Ok(cli::findings(n == 0));
    }
    Ok(EXIT_OK)
}

fn main() -> ExitCode {
    cli::run("ompwatt", USAGE, |args| report(parse(args)?))
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_command_line_is_a_report_job_or_a_usage_error() {
        omptune_core::cli::check_parse(
            super::parse,
            "report | report cg --scope 200 --workers 4 --out-dir w --check",
            " | frob | report cg lu | report --scope 0 | report --scope \
             | report --workers x | report --json",
        );
    }
}
