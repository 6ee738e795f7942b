//! `ompobs` — the run observatory: did behaviour move between two run
//! directories, or anywhere along the content-addressed run registry
//! that `collect` and the benches append to.
//!
//! ```text
//! ompobs drift    <RUN_A> <RUN_B> [--alpha A] [--out PATH]
//! ompobs series   <RUN>
//! ompobs list     [--dir DIR]
//! ompobs sentinel [--dir DIR] [--alpha A] [--out PATH]
//! ompobs blame    [--dir DIR] [--from N --to N] [--out PATH]
//! ompobs bisect   [--dir DIR] [--cache-dir DIR] [--workers N]
//! ompobs report   [--dir DIR] [--out PATH]
//! ```
//!
//! The registry directory defaults to `$OMPOBS_DIR`, then `.ompobs`.
//! Exit codes follow the suite convention: `0` clean, `4` drift or
//! change-point detected, `2` usage error, `1` I/O or data error — CI
//! can tell "behaviour moved" from "the comparison could not run".

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use omptel::tsdb::Tsdb;
use sweep::{RegistryLoad, RunCore, SampleCache};

const USAGE: &str = "usage: ompobs drift    <RUN_A> <RUN_B> [--alpha A] [--out PATH]
       ompobs series   <RUN>
       ompobs list     [--dir DIR]
       ompobs sentinel [--dir DIR] [--alpha A] [--out PATH]
       ompobs blame    [--dir DIR] [--from N --to N] [--out PATH]
       ompobs bisect   [--dir DIR] [--cache-dir DIR] [--workers N]
       ompobs report   [--dir DIR] [--out PATH]";

const EXIT_OK: u8 = 0;
const EXIT_ERROR: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_CHANGE: u8 = 4;

/// Flags shared by every subcommand, parsed in one pass.
#[derive(Default)]
struct Flags {
    /// Positional run directories (`drift` takes two, `series` one).
    runs: Vec<PathBuf>,
    dir: Option<PathBuf>,
    alpha: f64,
    out: Option<PathBuf>,
    from: Option<u64>,
    to: Option<u64>,
    cache_dir: Option<PathBuf>,
    workers: usize,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        alpha: 0.05,
        workers: 2,
        ..Flags::default()
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut want = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} wants a value"))
        };
        match arg.as_str() {
            "--dir" => f.dir = Some(PathBuf::from(want("--dir")?)),
            "--out" => f.out = Some(PathBuf::from(want("--out")?)),
            "--cache-dir" => f.cache_dir = Some(PathBuf::from(want("--cache-dir")?)),
            "--alpha" => match want("--alpha")?.parse::<f64>() {
                Ok(a) if a > 0.0 && a < 1.0 => f.alpha = a,
                _ => return Err("--alpha wants a value in (0, 1)".to_string()),
            },
            "--from" => match want("--from")?.parse::<u64>() {
                Ok(n) => f.from = Some(n),
                Err(_) => return Err("--from wants a run sequence number".to_string()),
            },
            "--to" => match want("--to")?.parse::<u64>() {
                Ok(n) => f.to = Some(n),
                Err(_) => return Err("--to wants a run sequence number".to_string()),
            },
            "--workers" => match want("--workers")?.parse::<usize>() {
                Ok(n) if n > 0 => f.workers = n,
                _ => return Err("--workers wants a positive integer".to_string()),
            },
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            run => f.runs.push(PathBuf::from(run)),
        }
    }
    Ok(f)
}

fn registry_dir(f: &Flags) -> PathBuf {
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

/// What a command ends in: its exit code, or the message of an I/O or
/// data error (exit 1).
type Outcome = Result<u8, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("ompobs: {e}\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let outcome = match (cmd, flags.runs.as_slice()) {
        ("drift", [run_a, run_b]) => drift_cmd(run_a, run_b, &flags),
        ("series", [run]) => series_cmd(run),
        ("list" | "sentinel" | "blame" | "bisect" | "report", []) => {
            let dir = registry_dir(&flags);
            load_registry(&dir).and_then(|load| match cmd {
                "list" => list_cmd(&dir, &load),
                "sentinel" => sentinel_cmd(&dir, &load, &flags),
                "blame" => blame_cmd(&dir, &load, &flags),
                "bisect" => bisect_cmd(&load, &flags),
                "report" => report_cmd(&dir, &load, &flags),
                _ => unreachable!("the arm lists the registry verbs"),
            })
        }
        ("drift" | "series" | "list" | "sentinel" | "blame" | "bisect" | "report", runs) => {
            let n = runs.len();
            eprintln!("ompobs: {cmd} does not take {n} run directories\n{USAGE}");
            Ok(EXIT_USAGE)
        }
        _ => {
            eprintln!("ompobs: unknown command {cmd:?}\n{USAGE}");
            Ok(EXIT_USAGE)
        }
    };
    ExitCode::from(outcome.unwrap_or_else(|e| {
        eprintln!("ompobs: {e}");
        EXIT_ERROR
    }))
}

/// Write `doc` as indented JSON to `out`.
fn write_json(out: &Path, what: &str, doc: &impl serde::Serialize) -> Result<(), String> {
    let json = serde_json::to_string_pretty(doc).map_err(|e| format!("serializing {what}: {e}"))?;
    std::fs::write(out, json + "\n").map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());
    Ok(())
}

fn drift_cmd(run_a: &Path, run_b: &Path, flags: &Flags) -> Outcome {
    let report = ompobs::drift_report(run_a, run_b, flags.alpha).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    // The machine-readable verdict lands next to the newer run.
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| run_b.join("drift.json"));
    write_json(&out, "report", &report)?;
    Ok(if report.drift { EXIT_CHANGE } else { EXIT_OK })
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

fn sentinel_cmd(dir: &Path, load: &RegistryLoad, flags: &Flags) -> Outcome {
    let history = ompobs::sentinel(&load.records, flags.alpha);
    print!("{}", history.render());
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| dir.join("history.json"));
    write_json(&out, "history", &history)?;
    Ok(if history.change { EXIT_CHANGE } else { EXIT_OK })
}

fn blame_cmd(dir: &Path, load: &RegistryLoad, flags: &Flags) -> Outcome {
    let (from, to) = match (flags.from, flags.to) {
        (Some(a), Some(b)) => (a, b),
        // No explicit bracket: blame the last change-point step,
        // falling back to the last step of the trail.
        (None, None) => ompobs::sentinel(&load.records, flags.alpha)
            .default_bracket()
            .ok_or("fewer than two comparable runs — nothing to blame")?,
        _ => {
            eprintln!("ompobs: --from and --to go together\n{USAGE}");
            return Ok(EXIT_USAGE);
        }
    };
    let blame = ompobs::blame(&load.records, from, to)?;
    print!("{}", blame.render());
    let out = flags.out.clone().unwrap_or_else(|| dir.join("blame.json"));
    write_json(&out, "blame", &blame)?;
    Ok(EXIT_OK)
}

fn bisect_cmd(load: &RegistryLoad, flags: &Flags) -> Outcome {
    let cache = flags.cache_dir.as_ref().map(SampleCache::new);
    let result = ompobs::bisect(&load.records, cache.as_ref(), flags.workers)?;
    print!("{}", result.render());
    // "reproduces nothing" is the change signal for CI.
    Ok(if result.matches.is_empty() && result.compared > 0 {
        EXIT_CHANGE
    } else {
        EXIT_OK
    })
}

fn report_cmd(dir: &Path, load: &RegistryLoad, flags: &Flags) -> Outcome {
    let history = ompobs::sentinel(&load.records, flags.alpha);
    let blame = history
        .default_bracket()
        .filter(|_| history.change)
        .and_then(|(from, to)| ompobs::blame(&load.records, from, to).ok());
    let html =
        ompobs::report::dashboard_html(&dir.display().to_string(), load, &history, blame.as_ref());
    let out = flags.out.clone().unwrap_or_else(|| dir.join("report.html"));
    std::fs::write(&out, html).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "report: {} record(s), {} change-point(s) -> {}",
        load.records.len(),
        history.change_points.len(),
        out.display()
    );
    Ok(EXIT_OK)
}
