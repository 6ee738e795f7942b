//! `bench-diff` — compare a fresh `BENCH_*.json` against a committed
//! baseline and fail on a timing regression beyond a noise band.
//!
//! Both files are flat JSON objects of numbers (plus identifying
//! strings). What is gated is a *series*: a scalar `<key>` whose baseline
//! carries its repetitions as `<key>_reps`, as every `Series` a bench
//! publishes does. Lower is better. A series may grow by the band factor;
//! past it, its paired reps are put to the Wilcoxon signed-rank test, and
//! only reps that are significantly worse (p < 0.05) fail the gate — one
//! cold outlier repetition does not block a merge. Every other scalar
//! (counts, rates, quotients of two series) is reported as `info` and
//! never fails. Missing-in-either keys are reported but never fatal, so
//! the baseline format can evolve.
//!
//! A *missing* baseline is not a failure: the current results are
//! seeded as the new baseline (and recorded into the run registry so
//! the trail starts at the same point), `BASELINE-SEEDED` is printed
//! along with every key the new baseline froze, gated or informational,
//! and the gate passes — the first run of a new bench
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
    --band FACTOR    allowed regression factor (default: 1.5); a series
                     (a key with a `_reps` array) may be at most FACTOR x
                     the baseline before its reps are tested; every other
                     key is informational
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
fn seed_baseline(base_path: &str, cur_path: &str, doc: &BenchCore) -> Result<(u8, String), String> {
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
    let mut report = format!("BASELINE-SEEDED: {base_path} adopted from {cur_path}\n");
    // Enumerate what the future gate will actually compare, so the
    // first-run log records which series the baseline froze — a later
    // "where did this gated key come from" has its answer in CI history.
    for (key, bits) in &doc.scalars {
        let how = match doc.reps_of(key) {
            Some(reps) => format!("gated ({} reps)", reps.len()),
            None => "informational".to_string(),
        };
        report += &format!("  seeded {key} = {}: {how}\n", f64::from_bits(*bits));
    }
    report += &format!(
        "  {} keys seeded, {} of them gated\n",
        doc.scalars.len(),
        doc.reps.len()
    );
    Ok((EXIT_OK, report))
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
        Ok(match gate(&base, &current, band) {
            Ok((code, report)) => {
                print!("{report}");
                code
            }
            Err(e) => {
                eprintln!("bench-diff: {e}");
                EXIT_BAD_INPUT
            }
        })
    })
}

/// The gate's verdict code and its report, or why an input could not be
/// read.
fn gate(base_path: &str, cur_path: &str, band: f64) -> Result<(u8, String), String> {
    let cur = load(cur_path).map_err(|e| format!("current results unusable: {e}"))?;
    if !std::path::Path::new(base_path).exists() {
        return seed_baseline(base_path, cur_path, &cur);
    }
    let base = load(base_path).map_err(|e| {
        format!("baseline unusable: {e}\nregenerate it with `cargo bench -p bench-harness` and commit the result")
    })?;

    let mut failures = 0usize;
    let mut report = format!("bench-diff: {cur_path} vs baseline {base_path} (band {band:.2}x)\n");
    for (key, bits) in &base.scalars {
        let b = f64::from_bits(*bits);
        let Some(c) = cur.scalar(key) else {
            report += &format!("  {key:<22} missing in current (baseline {b})\n");
            continue;
        };
        let ratio = if b != 0.0 { c / b } else { f64::INFINITY };
        let verdict = if base.reps_of(key).is_none() {
            "info".to_string()
        } else if ratio <= band {
            "ok".to_string()
        } else {
            match significance(&base, &cur, key) {
                Some(p) if p >= ALPHA => format!("within noise (p={p:.4})"),
                p => {
                    failures += 1;
                    p.map_or("REGRESSED".to_string(), |p| format!("REGRESSED (p={p:.4})"))
                }
            }
        };
        report += &format!("  {key:<22} {b:>14} -> {c:>14} ({ratio:.3}x) {verdict}\n");
    }
    for (key, bits) in &cur.scalars {
        if base.scalar(key).is_none() {
            report += &format!("  {key:<22} new in current ({})\n", f64::from_bits(*bits));
        }
    }
    if failures > 0 {
        eprintln!("bench-diff: FAIL: {failures} series regressed beyond {band:.2}x");
        return Ok((EXIT_REGRESSION, report));
    }
    report += "bench-diff: PASS\n";
    Ok((EXIT_OK, report))
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

    /// A document with one series (`cold_s`, seven reps around `series`)
    /// and two scalars without reps.
    fn doc(series: f64, warm_speedup: f64, tax_s: f64) -> String {
        let reps: Vec<String> = [1.0, 1.02, 0.99, 1.01, 1.03, 1.0, 0.98]
            .iter()
            .map(|r| (r * series).to_string())
            .collect();
        format!(
            "{{\"bench\": \"x\", \"cold_s\": {series}, \"warm_speedup\": {warm_speedup}, \
             \"tax_s\": {tax_s}, \"cold_s_reps\": [{}]}}",
            reps.join(", ")
        )
    }

    #[test]
    fn only_a_series_whose_reps_are_significantly_worse_fails_the_gate() {
        let dir = std::env::temp_dir().join(format!("bench-diff-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = doc(0.1, 26.75, 0.002);
        // (case, baseline, current, exit code, key, verdict on its line)
        let cases = [
            (
                "every rep of a series at 3x",
                Some(&base),
                doc(0.3, 26.75, 0.002),
                1,
                "cold_s",
                "REGRESSED (p=",
            ),
            (
                "a quotient halved, the series unchanged",
                Some(&base),
                doc(0.1, 13.375, 0.002),
                0,
                "warm_speedup",
                "info",
            ),
            (
                "a `_s` scalar without reps at 3x",
                Some(&base),
                doc(0.1, 26.75, 0.006),
                0,
                "tax_s",
                "info",
            ),
            (
                "no baseline",
                None,
                doc(0.1, 26.75, 0.002),
                0,
                "BASELINE-SEEDED:",
                "adopted",
            ),
            (
                "no baseline, the listing",
                None,
                doc(0.1, 26.75, 0.002),
                0,
                "seeded cold_s",
                "gated (7 reps)",
            ),
        ];
        for (i, (case, baseline, current, exit, key, verdict)) in cases.into_iter().enumerate() {
            let (base_path, cur_path) =
                (dir.join(format!("BENCH_{i}.json")), dir.join("fresh.json"));
            if let Some(text) = baseline {
                std::fs::write(&base_path, text).unwrap();
            }
            std::fs::write(&cur_path, current).unwrap();
            let (code, report) =
                super::gate(base_path.to_str().unwrap(), cur_path.to_str().unwrap(), 2.0).unwrap();
            assert_eq!(code, exit, "{case}:\n{report}");
            let line = report.lines().find(|l| l.trim_start().starts_with(key));
            assert!(
                line.is_some_and(|l| l.contains(verdict)),
                "{case}: no `{key} … {verdict}` line in\n{report}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
