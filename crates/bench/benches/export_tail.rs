//! The artifact tail of `collect`: what a finished sweep costs to write,
//! and its dataset to read back.
//!
//! On a warm cache the sweep itself is milliseconds and `collect` is its
//! exporters, so this bench times the three that dominate, and the read
//! that undoes the first, on one fixed cleaned `Strided(100)` slice, the
//! way `collect` and the analysis tools call them:
//!
//! - `raw_json_s`   — `write_raw_json` of every batch (one streamed
//!   document),
//! - `float_ns`     — the JSON sink's number writer alone: every
//!   distinct `f64` of that document written once, as one array, in ns
//!   per float (no value repeats, so the sink's float memo never hits
//!   and this times the digit writer),
//! - `read_raw_json_s` — `read_raw_json` of that document, as `ompprof
//!   attribute --data` takes it back in,
//! - `provenance_s` — provenance build + write: `provenance_iter` fed
//!   lazily to `write_provenance_jsonl` (one `config_hash` and one JSON
//!   line per sample),
//! - `csv_s`        — `write_csv` of the slice's `Dataset` (one row per
//!   sample),
//! - `tail_s` / `tail_parallel_s` — the whole tail as `collect` runs it:
//!   `write_artifacts` of all five files into a directory, its two jobs
//!   one after the other (`workers` 1) and side by side (`workers` 2).
//!
//! Each is the best of N passes with every pass published, plus the
//! derived ns/sample (informational). Results go to `BENCH_export.json`
//! at the repo root (override with `BENCH_OUT`) for `bench-diff`.
//!
//! `harness = false`: under `cargo test` (argv contains `--test`) this
//! runs a smoke slice and publishes nothing; under `cargo bench` it runs
//! the full slice and publishes the document.

use bench_harness::{BenchDoc, Series};
use serde::{Serialize, Value};
use std::collections::HashSet;
use sweep::{Scope, SweepOptions, SweepSpec};

const WORKERS: usize = 4;

/// Every float of `value`'s tree not already in `seen` (by bits), in
/// document order.
fn floats_of(value: &Value, seen: &mut HashSet<u64>, out: &mut Vec<f64>) {
    match value {
        Value::F64(x) if seen.insert(x.to_bits()) => out.push(*x),
        Value::Seq(items) => items.iter().for_each(|item| floats_of(item, seen, out)),
        Value::Map(entries) => entries
            .iter()
            .for_each(|(_, item)| floats_of(item, seen, out)),
        _ => {}
    }
}

fn main() {
    let full = bench_harness::full_run();
    let scope = Scope::Strided(if full { 100 } else { 300 });
    let spec = SweepSpec {
        scope,
        ..SweepSpec::default()
    };
    let mut batches = sweep::sweep_all_scheduled(&spec, &SweepOptions::new(WORKERS)).batches;
    for data in &mut batches {
        sweep::clean(data, spec.reps as usize);
    }
    let samples: usize = batches.iter().map(|b| b.samples.len()).sum();
    let passes = if full { 7 } else { 2 };

    // One buffer for every document, so a pass measures serialization
    // and not the allocator growing a fresh Vec.
    let mut out = Vec::new();
    let mut floats = Vec::new();
    floats_of(&batches.serialize_value(), &mut HashSet::new(), &mut floats);
    let float_text = Series::of(passes, || {
        out.clear();
        serde_json::to_writer(&mut out, &floats).expect("in-memory write");
    });
    let float_ns = float_text.scaled(1e9 / floats.len() as f64);
    let mut raw_bytes = 0;
    let raw_json = Series::of(passes, || {
        out.clear();
        sweep::export::write_raw_json(&batches, &mut out).expect("in-memory write");
        raw_bytes = out.len();
    });
    let read_raw_json = Series::of(passes, || {
        let back = sweep::export::read_raw_json(&out).expect("raw JSON parses back");
        assert_eq!(back.len(), batches.len());
        // Compared once, below; dropping the batches is part of a read.
        std::hint::black_box(back);
    });
    assert_eq!(
        sweep::export::read_raw_json(&out).expect("raw JSON parses back"),
        batches
    );

    let mut provenance_bytes = 0;
    let provenance = Series::of(passes, || {
        out.clear();
        sweep::write_provenance_jsonl(sweep::provenance_iter(&batches, &spec), &mut out)
            .expect("in-memory write");
        provenance_bytes = out.len();
    });
    assert_eq!(out.iter().filter(|&&b| b == b'\n').count(), samples);

    let dataset = sweep::Dataset::build(&batches);
    let mut csv_bytes = 0;
    let csv = Series::of(passes, || {
        out.clear();
        sweep::export::write_csv(&dataset, &mut out).expect("in-memory write");
        csv_bytes = out.len();
    });
    assert_eq!(
        out.iter().filter(|&&b| b == b'\n').count(),
        dataset.records.len() + 1
    );

    let dir = std::env::temp_dir().join(format!("omptune-export-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("output directory");

    // The files are rewritten in place every pass, as a re-run `collect`
    // rewrites its output directory.
    let manifest = sweep::RunManifest::new(&spec);
    let tail_at = |workers| {
        Series::of(passes, || {
            let summary = sweep::export::write_artifacts(&dir, &batches, &spec, &manifest, workers)
                .expect("artifacts written");
            assert_eq!(summary.provenance_lines, samples);
            assert_eq!(summary.bytes[1], raw_bytes as u64);
            assert_eq!(summary.bytes[2], provenance_bytes as u64);
        })
    };
    let (tail, tail_parallel) = (tail_at(1), tail_at(2));
    let _ = std::fs::remove_dir_all(&dir);

    let ns_per_sample = |series: &Series| (series.best() * 1e9 / samples as f64).round() as u64;
    println!("export_tail ({scope:?}): {samples} samples");
    println!(
        "  {:<26} {:.6}s  {:>8.1} ns/float   {} floats",
        "f64 text",
        float_text.best(),
        float_ns.best(),
        floats.len()
    );
    for (what, series, work) in [
        ("write_raw_json", &raw_json, format!("{raw_bytes} bytes")),
        (
            "read_raw_json",
            &read_raw_json,
            format!("{raw_bytes} bytes"),
        ),
        (
            "provenance build + write",
            &provenance,
            format!("{provenance_bytes} bytes"),
        ),
        ("write_csv", &csv, format!("{csv_bytes} bytes")),
        ("write_artifacts, 1 worker", &tail, "5 files".to_string()),
        (
            "write_artifacts, 2 workers",
            &tail_parallel,
            "5 files".to_string(),
        ),
    ] {
        println!(
            "  {what:<26} {:.6}s  {:>8} ns/sample  {work}",
            series.best(),
            ns_per_sample(series)
        );
    }

    BenchDoc::new("export_tail")
        .text("scope", &format!("{scope:?}"))
        .count("workers", WORKERS as u64)
        .count("samples", samples as u64)
        .series("float_ns", float_ns.best(), &float_ns)
        .count("floats", floats.len() as u64)
        .series("raw_json_s", raw_json.best(), &raw_json)
        .series("read_raw_json_s", read_raw_json.best(), &read_raw_json)
        .series("provenance_s", provenance.best(), &provenance)
        .series("csv_s", csv.best(), &csv)
        .series("tail_s", tail.best(), &tail)
        .series("tail_parallel_s", tail_parallel.best(), &tail_parallel)
        .count("raw_json_ns_per_sample", ns_per_sample(&raw_json))
        .count("read_raw_json_ns_per_sample", ns_per_sample(&read_raw_json))
        .count("provenance_ns_per_sample", ns_per_sample(&provenance))
        .count("csv_ns_per_sample", ns_per_sample(&csv))
        .count("raw_json_bytes", raw_bytes as u64)
        .count("provenance_bytes", provenance_bytes as u64)
        .count("csv_bytes", csv_bytes as u64)
        .publish("BENCH_export.json");
}
