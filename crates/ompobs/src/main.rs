//! `ompobs` — longitudinal observatory over the content-addressed run
//! registry that `collect` and the benches append to.
//!
//! ```text
//! ompobs list     [--dir DIR]
//! ompobs sentinel [--dir DIR] [--alpha A] [--out PATH]
//! ompobs blame    [--dir DIR] [--from N --to N] [--out PATH]
//! ompobs bisect   [--dir DIR] [--cache-dir DIR] [--workers N]
//! ompobs report   [--dir DIR] [--out PATH]
//! ```
//!
//! The registry directory defaults to `$OMPOBS_DIR`, then `.ompobs`.
//! Exit codes follow the suite convention: `0` clean, `4` change-point
//! detected, `2` usage error, `1` I/O or data error — CI can tell
//! "history moved" from "the scan could not run".

use std::path::PathBuf;
use std::process::ExitCode;

use sweep::{RegistryLoad, RunCore, SampleCache};

const USAGE: &str = "usage: ompobs list     [--dir DIR]
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
            other => return Err(format!("unknown flag {other:?}")),
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

fn load_registry(dir: &PathBuf) -> Result<RegistryLoad, String> {
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
    match cmd {
        "list" => list_cmd(&flags),
        "sentinel" => sentinel_cmd(&flags),
        "blame" => blame_cmd(&flags),
        "bisect" => bisect_cmd(&flags),
        "report" => report_cmd(&flags),
        _ => {
            eprintln!("ompobs: unknown command {cmd:?}\n{USAGE}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

fn list_cmd(flags: &Flags) -> ExitCode {
    let dir = registry_dir(flags);
    let load = match load_registry(&dir) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ompobs: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
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
    ExitCode::from(EXIT_OK)
}

fn sentinel_cmd(flags: &Flags) -> ExitCode {
    let dir = registry_dir(flags);
    let load = match load_registry(&dir) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ompobs: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let history = ompobs::sentinel(&load.records, flags.alpha);
    print!("{}", history.render());
    let out = flags
        .out
        .clone()
        .unwrap_or_else(|| dir.join("history.json"));
    match serde_json::to_string_pretty(&history) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&out, json + "\n") {
                eprintln!("ompobs: writing {}: {e}", out.display());
                return ExitCode::from(EXIT_ERROR);
            }
            eprintln!("wrote {}", out.display());
        }
        Err(e) => {
            eprintln!("ompobs: serializing history: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    }
    ExitCode::from(if history.change { EXIT_CHANGE } else { EXIT_OK })
}

fn blame_cmd(flags: &Flags) -> ExitCode {
    let dir = registry_dir(flags);
    let load = match load_registry(&dir) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ompobs: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let (from, to) = match (flags.from, flags.to) {
        (Some(a), Some(b)) => (a, b),
        (None, None) => {
            // No explicit bracket: blame the last change-point step,
            // falling back to the last step of the trail.
            let history = ompobs::sentinel(&load.records, flags.alpha);
            match history.default_bracket() {
                Some(pair) => pair,
                None => {
                    eprintln!("ompobs: fewer than two comparable runs — nothing to blame");
                    return ExitCode::from(EXIT_ERROR);
                }
            }
        }
        _ => {
            eprintln!("ompobs: --from and --to go together\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let blame = match ompobs::blame(&load.records, from, to) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("ompobs: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    print!("{}", blame.render());
    let out = flags.out.clone().unwrap_or_else(|| dir.join("blame.json"));
    match serde_json::to_string_pretty(&blame) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&out, json + "\n") {
                eprintln!("ompobs: writing {}: {e}", out.display());
                return ExitCode::from(EXIT_ERROR);
            }
            eprintln!("wrote {}", out.display());
        }
        Err(e) => {
            eprintln!("ompobs: serializing blame: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    }
    ExitCode::from(EXIT_OK)
}

fn bisect_cmd(flags: &Flags) -> ExitCode {
    let dir = registry_dir(flags);
    let load = match load_registry(&dir) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ompobs: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let cache = flags.cache_dir.as_ref().map(SampleCache::new);
    let result = match ompobs::bisect(&load.records, cache.as_ref(), flags.workers) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("ompobs: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    print!("{}", result.render());
    // "reproduces nothing" is the change signal for CI.
    ExitCode::from(if result.matches.is_empty() && result.compared > 0 {
        EXIT_CHANGE
    } else {
        EXIT_OK
    })
}

fn report_cmd(flags: &Flags) -> ExitCode {
    let dir = registry_dir(flags);
    let load = match load_registry(&dir) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("ompobs: {e}");
            return ExitCode::from(EXIT_ERROR);
        }
    };
    let history = ompobs::sentinel(&load.records, flags.alpha);
    let blame = history
        .default_bracket()
        .filter(|_| history.change)
        .and_then(|(from, to)| ompobs::blame(&load.records, from, to).ok());
    let html =
        ompobs::report::dashboard_html(&dir.display().to_string(), &load, &history, blame.as_ref());
    let out = flags.out.clone().unwrap_or_else(|| dir.join("report.html"));
    if let Err(e) = std::fs::write(&out, html) {
        eprintln!("ompobs: writing {}: {e}", out.display());
        return ExitCode::from(EXIT_ERROR);
    }
    println!(
        "report: {} record(s), {} change-point(s) -> {}",
        load.records.len(),
        history.change_points.len(),
        out.display()
    );
    ExitCode::from(EXIT_OK)
}
