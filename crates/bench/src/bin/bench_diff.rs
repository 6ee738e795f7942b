//! `bench-diff` — compare a fresh `BENCH_*.json` against a committed
//! baseline and fail on regression beyond a noise band.
//!
//! Both files are flat JSON objects of numbers (plus identifying
//! strings). Keys are classified by name: `*_s` and `*_overhead` are
//! lower-is-better timings, `*speedup*` keys are higher-is-better;
//! counting keys (`samples`, `*_hits`, `*_misses`, `workers`) are
//! informational and only reported. A timing may grow (or a speedup
//! shrink) by at most the noise band factor before the comparison
//! fails. Missing-in-either keys are reported but never fatal, so the
//! baseline format can evolve.
//!
//! When both files carry per-repetition arrays (`<key>_reps`, as
//! `sweep_warmcold` writes), a band violation is additionally put to
//! the Wilcoxon signed-rank test: a regression whose paired reps are
//! not significantly worse (p ≥ 0.05) is reported as **within noise**
//! and does not fail the gate — one cold outlier repetition should not
//! block a merge. Without reps the band alone decides, conservatively.
//!
//! A *missing* baseline is not a failure: the current results are
//! seeded as the new baseline (and recorded into the run registry so
//! the trail starts at the same point), `BASELINE-SEEDED` is printed
//! along with every series the new baseline froze (and how each will
//! be gated), and the gate passes — the first run of a new bench
//! self-initialises instead of forcing a manual bootstrap step.

use mlstats::wilcoxon::{wilcoxon_signed_rank, WilcoxonError};
use omptune_core::cli::{self, Args, Error, EXIT_OK};
use std::process::ExitCode;
use sweep::BenchCore;

const HELP: &str = "\
bench-diff — gate a fresh bench JSON against a committed baseline

USAGE:
    bench-diff --baseline BASE.json CURRENT.json [--band FACTOR]

OPTIONS:
    --baseline PATH  committed reference BENCH_*.json (required)
    --band FACTOR    allowed regression factor (default: 1.5); a timing
                     may be at most FACTOR x the baseline, a speedup at
                     least baseline / FACTOR
    -h, --help       print this help

EXIT CODES:
    0  pass (a missing baseline is seeded from the current results)
    1  regression beyond the band
    2  usage error
    3  baseline/current unparsable
";

// This gate's own two codes beside the suite's 0 and 2 (see [`HELP`]): CI
// tells "the code got slower" from "the gate could not run".
const EXIT_REGRESSION: u8 = 1;
const EXIT_BAD_INPUT: u8 = 3;

/// Significance level for the per-repetition Wilcoxon verdict.
const ALPHA: f64 = 0.05;

/// One bench document through the registry's parser: every scalar and
/// every `*_reps` array, key-sorted.
fn load(path: &str) -> Result<BenchCore, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchCore::from_bench_json(&bench_name(path), &text).map_err(|e| format!("{path}: {e}"))
}

enum Direction {
    LowerBetter,
    HigherBetter,
    Info,
}

fn classify(key: &str) -> Direction {
    if key.ends_with("_s") || key.ends_with("_overhead") {
        Direction::LowerBetter
    } else if key.contains("speedup") {
        Direction::HigherBetter
    } else {
        Direction::Info
    }
}

/// Wilcoxon verdict for one band violation: `Some(p)` when both sides
/// carry comparable reps, `None` when the test cannot run.
fn significance(base: &BenchCore, cur: &BenchCore, key: &str) -> Option<f64> {
    let (b, c) = (base.reps_of(key)?, cur.reps_of(key)?);
    let n = b.len().min(c.len());
    if n == 0 {
        return None;
    }
    // Tail-truncate to the shorter run so rep counts can evolve.
    match wilcoxon_signed_rank(&c[c.len() - n..], &b[b.len() - n..]) {
        Ok(r) => Some(r.p_value),
        Err(WilcoxonError::AllZeroDifferences) => Some(1.0),
        Err(_) => None,
    }
}

/// Bench name from a baseline path: `BENCH_sweep.json` -> `sweep`.
fn bench_name(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .map(|s| s.strip_prefix("BENCH_").unwrap_or(s).to_string())
        .unwrap_or_else(|| "bench".to_string())
}

/// First run against a bench with no committed baseline: adopt the
/// current (already-validated) results as the baseline and register
/// them so the longitudinal trail starts here.
fn seed_baseline(base_path: &str, cur_path: &str, doc: &BenchCore) -> Result<u8, String> {
    std::fs::copy(cur_path, base_path)
        .map_err(|e| format!("seeding {base_path} from {cur_path}: {e}"))?;
    let registry_dir = sweep::registry::env_registry_dir().unwrap_or_else(|| {
        std::path::Path::new(base_path)
            .parent()
            .unwrap_or_else(|| std::path::Path::new("."))
            .join(".ompobs")
    });
    match std::fs::read_to_string(cur_path) {
        Ok(text) => match sweep::record_bench(&registry_dir, &bench_name(base_path), &text) {
            Ok(rec) => eprintln!(
                "bench-diff: registered seed as run #{} in {}",
                rec.seq,
                registry_dir.display()
            ),
            Err(e) => eprintln!(
                "bench-diff: registry {} unavailable ({e}) — baseline seeded anyway",
                registry_dir.display()
            ),
        },
        Err(e) => eprintln!("bench-diff: re-reading {cur_path}: {e}"),
    }
    println!("BASELINE-SEEDED: {base_path} adopted from {cur_path}");
    // Enumerate what the future gate will actually compare, so the
    // first-run log records which series the baseline froze — a later
    // "where did this gated key come from" has its answer in CI history.
    for (key, bits) in &doc.scalars {
        let value = f64::from_bits(*bits);
        let dir = match classify(key) {
            Direction::LowerBetter => "lower-better",
            Direction::HigherBetter => "higher-better",
            Direction::Info => "informational",
        };
        let reps = doc
            .reps_of(key)
            .map(|r| format!(", {} reps", r.len()))
            .unwrap_or_default();
        println!("  seeded {key} = {value} ({dir}{reps})");
    }
    println!(
        "  {} series seeded ({} with per-repetition arrays)",
        doc.scalars.len(),
        doc.reps.len()
    );
    Ok(EXIT_OK)
}

/// The baseline path, the current path and the band.
fn parse(mut args: Args) -> Result<(String, String, f64), Error> {
    args.help(HELP)?;
    let band = match args.parsed("--band", "a factor")? {
        None => 1.5,
        Some(f) if f >= 1.0 => f,
        Some(_) => return Err(Error::usage("--band needs a factor >= 1.0")),
    };
    let baseline = args.value("--baseline")?;
    let current = args.positional()?;
    args.finish()?;
    match (baseline, current) {
        (Some(baseline), Some(current)) => Ok((baseline, current, band)),
        _ => Err(Error::usage(
            "--baseline BASE.json and CURRENT.json are both required",
        )),
    }
}

fn main() -> ExitCode {
    cli::run("bench-diff", HELP, |args| {
        let (base, current, band) = parse(args)?;
        Ok(gate(&base, &current, band).unwrap_or_else(|e| {
            eprintln!("bench-diff: {e}");
            EXIT_BAD_INPUT
        }))
    })
}

/// The gate's verdict code, or why an input could not be read.
fn gate(base_path: &str, cur_path: &str, band: f64) -> Result<u8, String> {
    let cur = load(cur_path).map_err(|e| format!("current results unusable: {e}"))?;
    if !std::path::Path::new(base_path).exists() {
        return seed_baseline(base_path, cur_path, &cur);
    }
    let base = load(base_path).map_err(|e| {
        format!("baseline unusable: {e}\nregenerate it with `cargo bench -p bench-harness` and commit the result")
    })?;

    let mut failures = 0usize;
    println!("bench-diff: {cur_path} vs baseline {base_path} (band {band:.2}x)");
    for (key, bits) in &base.scalars {
        let b = f64::from_bits(*bits);
        let Some(c) = cur.scalar(key) else {
            println!("  {key:<22} missing in current (baseline {b})");
            continue;
        };
        let ratio = if b != 0.0 { c / b } else { f64::INFINITY };
        let over_band = match classify(key) {
            Direction::LowerBetter => ratio > band,
            Direction::HigherBetter => ratio < 1.0 / band,
            Direction::Info => false,
        };
        let (verdict, bad) = if !over_band {
            let label = match classify(key) {
                Direction::Info => "info",
                _ => "ok",
            };
            (label.to_string(), false)
        } else {
            match significance(&base, &cur, key) {
                Some(p) if p < ALPHA => (format!("REGRESSED (p={p:.4})"), true),
                Some(p) => (format!("within noise (p={p:.4})"), false),
                None => ("REGRESSED".to_string(), true),
            }
        };
        println!("  {key:<22} {b:>12.6} -> {c:>12.6} ({ratio:.3}x) {verdict}");
        if bad {
            failures += 1;
        }
    }
    for (key, bits) in &cur.scalars {
        if base.scalar(key).is_none() {
            println!("  {key:<22} new in current ({})", f64::from_bits(*bits));
        }
    }
    if failures > 0 {
        eprintln!("bench-diff: FAIL: {failures} metric(s) regressed beyond {band:.2}x");
        return Ok(EXIT_REGRESSION);
    }
    println!("bench-diff: PASS");
    Ok(EXIT_OK)
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_command_line_is_a_gate_or_a_usage_error() {
        omptune_core::cli::check_parse(
            super::parse,
            "--baseline BENCH_x.json fresh.json \
             | fresh.json --band 2.0 --baseline BENCH_x.json | --help",
            " | fresh.json | --baseline BENCH_x.json | --baseline a b c \
             | --baseline a b --band 0.5 | --baseline a b --band | --baseline a b --frob",
        );
    }
}
