//! `ompobs` — the run observatory: did behaviour move between two run
//! directories, or anywhere along the content-addressed run registry
//! that `collect` and the benches append to. Command line in [`USAGE`].
//!
//! The registry directory defaults to `$OMPOBS_DIR`, then `.ompobs`.
//! Exit codes are `omptune_core::cli`'s 0/4/2/1, 4 meaning drift or a
//! change-point — CI can tell "behaviour moved" from "the comparison
//! could not run".

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use omptel::tsdb::Tsdb;
use omptune_core::cli::{self, Args, Error, EXIT_OK};
use sweep::{RegistryLoad, RunCore, SampleCache};

const USAGE: &str = "usage: ompobs drift    <RUN_A> <RUN_B> [--alpha A] [--out PATH]
       ompobs series   <RUN>
       ompobs list     [--dir DIR]
       ompobs sentinel [--dir DIR] [--alpha A] [--out PATH]
       ompobs blame    [--dir DIR] [--from N --to N] [--out PATH]
       ompobs bisect   [--dir DIR] [--cache-dir DIR] [--workers N]
       ompobs report   [--dir DIR] [--out PATH]";

/// A parsed command line: the verb, its run directories and the flags.
struct Cli {
    cmd: String,
    runs: Vec<PathBuf>,
    dir: Option<PathBuf>,
    alpha: f64,
    out: Option<PathBuf>,
    /// `--from N --to N`, both or neither.
    bracket: Option<(u64, u64)>,
    cache_dir: Option<PathBuf>,
    workers: usize,
}

fn parse(mut args: Args) -> Result<Cli, Error> {
    let cmd = args.subcommand()?;
    let runs = match cmd.as_str() {
        "drift" => 2,
        "series" => 1,
        "list" | "sentinel" | "blame" | "bisect" | "report" => 0,
        other => return Err(Error::unknown("command", other)),
    };
    let seq = "a run sequence number";
    let mut cli = Cli {
        dir: args.value("--dir")?.map(PathBuf::from),
        out: args.value("--out")?.map(PathBuf::from),
        cache_dir: args.value("--cache-dir")?.map(PathBuf::from),
        alpha: match args.parsed("--alpha", "a level")? {
            None => 0.05,
            Some(a) if a > 0.0 && a < 1.0 => a,
            Some(_) => return Err(Error::usage("--alpha needs a value in (0, 1)")),
        },
        bracket: match (args.parsed("--from", seq)?, args.parsed("--to", seq)?) {
            (Some(from), Some(to)) => Some((from, to)),
            (None, None) => None,
            _ => return Err(Error::usage("--from and --to go together")),
        },
        workers: args.positive("--workers")?.unwrap_or(2),
        runs: Vec::new(),
        cmd,
    };
    while let Some(run) = args.positional()? {
        cli.runs.push(PathBuf::from(run));
    }
    if cli.runs.len() != runs {
        let (cmd, n) = (&cli.cmd, cli.runs.len());
        return Err(Error::usage(format!(
            "{cmd} takes {runs} run directories, not {n}"
        )));
    }
    Ok(cli)
}

fn registry_dir(f: &Cli) -> PathBuf {
    f.dir
        .clone()
        .or_else(sweep::registry::env_registry_dir)
        .unwrap_or_else(|| PathBuf::from(".ompobs"))
}

fn load_registry(dir: &Path) -> Result<RegistryLoad, String> {
    let reg = sweep::Registry::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let load = reg.load().map_err(|e| format!("{}: {e}", dir.display()))?;
    if load.corrupt_skipped > 0 {
        eprintln!(
            "ompobs: {} corrupt record(s) skipped in {}",
            load.corrupt_skipped,
            dir.display()
        );
    }
    Ok(load)
}

/// What a command ends in: its exit code, or the error `cli::run` prints.
type Outcome = Result<u8, Error>;

fn main() -> ExitCode {
    cli::run("ompobs", USAGE, |args| {
        let cli = parse(args)?;
        match (cli.cmd.as_str(), cli.runs.as_slice()) {
            ("drift", [run_a, run_b]) => drift_cmd(run_a, run_b, &cli),
            ("series", [run]) => series_cmd(run),
            (cmd, _) => {
                let dir = registry_dir(&cli);
                let load = load_registry(&dir)?;
                match cmd {
                    "list" => list_cmd(&dir, &load),
                    "sentinel" => sentinel_cmd(&dir, &load, &cli),
                    "blame" => blame_cmd(&dir, &load, &cli),
                    "bisect" => bisect_cmd(&load, &cli),
                    _ => report_cmd(&dir, &load, &cli),
                }
            }
        }
    })
}

/// Write `doc` as indented JSON to `out`.
fn write_json(out: &Path, what: &str, doc: &impl serde::Serialize) -> Result<(), String> {
    let json = serde_json::to_string_pretty(doc).map_err(|e| format!("serializing {what}: {e}"))?;
    std::fs::write(out, json + "\n").map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(())
}

fn drift_cmd(run_a: &Path, run_b: &Path, cli: &Cli) -> Outcome {
    let report = ompobs::drift_report(run_a, run_b, cli.alpha).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    // The machine-readable verdict lands next to the newer run.
    let out = cli.out.clone().unwrap_or_else(|| run_b.join("drift.json"));
    write_json(&out, "report", &report)?;
    Ok(cli::findings(report.drift))
}

fn series_cmd(run: &Path) -> Outcome {
    let dir = run.join("tsdb");
    let names = Tsdb::series(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    println!(
        "{:<28} {:>8} {:>8} {:>12} {:>12}",
        "SERIES", "POINTS", "DROPPED", "MEAN", "LAST"
    );
    for name in names {
        match Tsdb::read(&dir, &name) {
            Ok((points, dropped)) => {
                let count: u64 = points.iter().map(|p| p.count).sum();
                let sum: f64 = points.iter().map(|p| p.sum).sum();
                let mean = if count > 0 {
                    sum / count as f64
                } else {
                    f64::NAN
                };
                let last = points.last().map(|p| p.value()).unwrap_or(f64::NAN);
                println!(
                    "{:<28} {:>8} {:>8} {:>12.4} {:>12.4}",
                    name,
                    points.len(),
                    dropped,
                    mean,
                    last
                );
            }
            Err(e) => eprintln!("ompobs: {name}: {e}"),
        }
    }
    Ok(EXIT_OK)
}

fn list_cmd(dir: &Path, load: &RegistryLoad) -> Outcome {
    println!(
        "{:<5} {:<17} {:<8} {:<13} {:<17} {:>9} {:>8} {:>10}",
        "SEQ", "WHEN", "KIND", "REV", "HASH", "SAMPLES", "WORKERS", "JOULES"
    );
    for rec in &load.records {
        let samples = match &rec.core {
            RunCore::Collect(c) => c.arches.iter().map(|a| a.samples).sum::<u64>(),
            RunCore::Bench(_) => 0,
        };
        // Whole-µJ digests; zero means a pre-energy record.
        let energy_uj = match &rec.core {
            RunCore::Collect(c) => c.arches.iter().map(|a| a.energy_uj()).sum::<u64>(),
            RunCore::Bench(_) => 0,
        };
        let joules = if energy_uj > 0 {
            format!("{:.3}", energy_uj as f64 / 1e6)
        } else {
            "-".to_string()
        };
        println!(
            "{:<5} {:<17} {:<8} {:<13} {:016x} {:>9} {:>8} {:>10}",
            rec.seq,
            rec.ts_unix,
            rec.core.kind(),
            &rec.git_rev[..rec.git_rev.len().min(12)],
            rec.record_hash,
            samples,
            rec.info.workers,
            joules
        );
    }
    println!(
        "{} record(s) in {} ({} corrupt skipped)",
        load.records.len(),
        dir.display(),
        load.corrupt_skipped
    );
    Ok(EXIT_OK)
}

fn sentinel_cmd(dir: &Path, load: &RegistryLoad, cli: &Cli) -> Outcome {
    let history = ompobs::sentinel(&load.records, cli.alpha);
    print!("{}", history.render());
    let out = cli.out.clone().unwrap_or_else(|| dir.join("history.json"));
    write_json(&out, "history", &history)?;
    Ok(cli::findings(history.change))
}

fn blame_cmd(dir: &Path, load: &RegistryLoad, cli: &Cli) -> Outcome {
    let (from, to) = match cli.bracket {
        Some(bracket) => bracket,
        // No explicit bracket: blame the last change-point step,
        // falling back to the last step of the trail.
        None => ompobs::sentinel(&load.records, cli.alpha)
            .default_bracket()
            .ok_or("fewer than two comparable runs — nothing to blame")?,
    };
    let blame = ompobs::blame(&load.records, from, to)?;
    print!("{}", blame.render());
    let out = cli.out.clone().unwrap_or_else(|| dir.join("blame.json"));
    write_json(&out, "blame", &blame)?;
    Ok(EXIT_OK)
}

fn bisect_cmd(load: &RegistryLoad, cli: &Cli) -> Outcome {
    let cache = cli.cache_dir.as_ref().map(SampleCache::new);
    let result = ompobs::bisect(&load.records, cache.as_ref(), cli.workers)?;
    print!("{}", result.render());
    // "reproduces nothing" is the change signal for CI.
    Ok(cli::findings(
        result.matches.is_empty() && result.compared > 0,
    ))
}

fn report_cmd(dir: &Path, load: &RegistryLoad, cli: &Cli) -> Outcome {
    let history = ompobs::sentinel(&load.records, cli.alpha);
    let blame = history
        .default_bracket()
        .filter(|_| history.change)
        .and_then(|(from, to)| ompobs::blame(&load.records, from, to).ok());
    let html =
        ompobs::report::dashboard_html(&dir.display().to_string(), load, &history, blame.as_ref());
    let out = cli.out.clone().unwrap_or_else(|| dir.join("report.html"));
    std::fs::write(&out, html).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "report: {} record(s), {} change-point(s) -> {}",
        load.records.len(),
        history.change_points.len(),
        out.display()
    );
    Ok(EXIT_OK)
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_command_line_is_a_verb_with_flags_or_a_usage_error() {
        omptune_core::cli::check_parse(
            super::parse,
            "drift a b --alpha 0.01 --out d.json | series a | list --dir reg \
             | sentinel --dir reg --alpha 0.1 --out h.json \
             | blame --from 1 --to 3 --out b.json \
             | bisect --dir reg --cache-dir c --workers 4 | report",
            " | frob | drift a | drift a b c | series | list extra | list --frob \
             | sentinel --alpha 1.5 \
             | sentinel --dir | blame --from 1 | blame --from x --to 2 \
             | bisect --workers 0",
        );
    }
}
