//! # bench-harness — reproduction of every table and figure
//!
//! One generator per table/figure of the paper, all driven by the same
//! sweep dataset. The `repro-tables` and `repro-figures` binaries print
//! them; the Criterion benches in `benches/` measure the substrates and
//! the ablations called out in DESIGN.md.

pub mod repro;

pub use repro::{ReproScope, Reproduction};

use std::path::PathBuf;

/// Per-repetition timings as the `*_reps` JSON array `bench-diff` puts
/// to the Wilcoxon test.
pub fn reps_json(reps: &[f64]) -> String {
    let inner: Vec<String> = reps.iter().map(|t| format!("{t:.6}")).collect();
    format!("[{}]", inner.join(", "))
}

/// Publish one bench's results: write `json` to `BENCH_OUT` (default:
/// `file` at the repo root, the committed baseline) and append it to the
/// longitudinal run registry (`OMPOBS_DIR`, default `.ompobs/` at the
/// repo root). The registry is best-effort: a missing or locked one
/// never fails the bench.
pub fn publish_bench(bench: &str, file: &str, json: &str) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = std::env::var_os("BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join(file));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  wrote {}", path.display());
    let dir = sweep::registry::env_registry_dir().unwrap_or_else(|| root.join(".ompobs"));
    match sweep::record_bench(&dir, bench, json) {
        Ok(rec) => println!("  registered run #{} in {}", rec.seq, dir.display()),
        Err(e) => eprintln!("  registry {} unavailable: {e}", dir.display()),
    }
}
