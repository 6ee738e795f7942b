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

use omptune_core::cli::{self, Args, Error, EXIT_OK};
use sweep::{RegistryLoad, RunCore};

const USAGE: &str = "usage: ompobs drift    <RUN_A> <RUN_B> [--alpha A] [--out PATH]
       ompobs list     [--dir DIR]
       ompobs sentinel [--dir DIR] [--alpha A] [--out PATH]
       ompobs blame    [--dir DIR] [--from N --to N] [--out PATH]";

/// A parsed command line: the verb, its run directories and the flags.
struct Cli {
    cmd: String,
    runs: Vec<PathBuf>,
    dir: Option<PathBuf>,
    alpha: f64,
    out: Option<PathBuf>,
    /// `--from N --to N`, both or neither.
    bracket: Option<(u64, u64)>,
}

fn parse(mut args: Args) -> Result<Cli, Error> {
    let cmd = args.subcommand()?;
    let runs = match cmd.as_str() {
        "drift" => 2,
        "list" | "sentinel" | "blame" => 0,
        other => return Err(Error::unknown("command", other)),
    };
    let seq = "a run sequence number";
    let mut cli = Cli {
        dir: args.value("--dir")?.map(PathBuf::from),
        out: args.value("--out")?.map(PathBuf::from),
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
            (cmd, _) => {
                let dir = registry_dir(&cli);
                let load = load_registry(&dir)?;
                match cmd {
                    "list" => list_cmd(&dir, &load),
                    "sentinel" => sentinel_cmd(&dir, &load, &cli),
                    _ => blame_cmd(&dir, &load, &cli),
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
            ompobs::short(&rec.git_rev),
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

#[cfg(test)]
mod tests {
    use super::*;
    use sweep::{CollectCore, Registry, RunInfo, Scope, SweepSpec};

    #[test]
    fn a_command_line_is_a_verb_with_flags_or_a_usage_error() {
        cli::check_parse(
            parse,
            "drift a b --alpha 0.01 --out d.json | list --dir reg \
             | sentinel --dir reg --alpha 0.1 --out h.json \
             | blame --from 1 --to 3 --out b.json",
            " | frob | series a | bisect | report | drift a | drift a b c | list extra \
             | list --frob | sentinel --alpha 1.5 | sentinel --dir | blame --from 1 \
             | blame --from x --to 2 | blame --workers 2 | list --cache-dir c",
        );
    }

    /// A record's `git_rev` is not content-hashed, so any text loads;
    /// every surface that shortens it must cut on a character boundary.
    #[test]
    fn a_multi_byte_revision_lists_and_renders() {
        let dir = std::env::temp_dir().join(format!("ompobs-rev-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let registry = Registry::open(&dir).unwrap();
        let spec = SweepSpec {
            scope: Scope::Strided(400),
            ..SweepSpec::default()
        };
        let mut core = CollectCore::new(&spec);
        core.push_arch("skylake", &[], 0);
        for (rev, ts) in [("abcdefghijkéz", 1), ("0123456789abcdef", 2)] {
            let core = RunCore::Collect(core.clone());
            registry.append(core, RunInfo::default(), rev, ts).unwrap();
        }
        let load = load_registry(&dir).unwrap();
        assert_eq!(load.records[0].git_rev, "abcdefghijkéz");

        assert_eq!(list_cmd(&dir, &load).unwrap(), EXIT_OK);
        let history = ompobs::sentinel(&load.records, 0.05);
        assert!(history.render().contains("rev abcdefghijké "));
        let blame = ompobs::blame(&load.records, 0, 1).unwrap();
        let render = blame.render();
        assert!(render.contains("(rev abcdefghijké) -> run #1 (rev 0123456789ab)"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
