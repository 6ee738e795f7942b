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
//! - `float_ns`     — the JSON sink's number writer alone: every `f64`
//!   of that document (17 a sample) written as one array, in ns per
//!   float,
//! - `read_raw_json_s` — `read_raw_json` of that document, as `ompprof
//!   attribute --data` takes it back in,
//! - `provenance_s` — provenance build + write: `provenance_iter` fed
//!   lazily to `write_provenance_jsonl` (one `config_hash` and one JSON
//!   line per sample),
//! - `tsdb_s`       — `collect`'s ring pattern, two points per sample
//!   (`{arch}/virt/s{k}`, `{arch}/energy/s{k}`) through
//!   `sweep::series::append_stratum_series`, one `Tsdb::flush` per arch,
//! - `tail_s` / `tail_parallel_s` — the whole tail as `collect` runs it:
//!   `write_artifacts` of all five files into a directory, its two jobs
//!   one after the other (`workers` 1) and side by side (`workers` 2).
//!
//! Each is the best of N passes with every pass published, plus the
//! derived ns/sample (informational). Results go to `BENCH_export.json`
//! at the repo root (override with `BENCH_OUT`) for `bench-diff`.
//!
//! `harness = false`: under `cargo test` (argv contains `--test`) this
//! runs a smoke slice and writes nothing; under `cargo bench` it runs
//! the full slice and writes the JSON.

use serde::{Serialize, Value};
use std::time::Instant;
use sweep::{Scope, SettingData, SweepSpec};

const WORKERS: usize = 4;

/// Best-of-`passes` wall seconds of `pass`, and every pass's time.
fn time_passes(passes: usize, mut pass: impl FnMut()) -> (f64, Vec<f64>) {
    let reps: Vec<f64> = (0..passes)
        .map(|_| {
            let t0 = Instant::now();
            pass();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    (reps.iter().copied().fold(f64::INFINITY, f64::min), reps)
}

/// Every float of `value`'s tree, in document order.
fn floats_of(value: &Value, out: &mut Vec<f64>) {
    match value {
        Value::F64(x) => out.push(*x),
        Value::Seq(items) => items.iter().for_each(|item| floats_of(item, out)),
        Value::Map(entries) => entries.iter().for_each(|(_, item)| floats_of(item, out)),
        _ => {}
    }
}

/// `collect`'s stratum series of every architecture (batches arrive
/// grouped by it), one flush per architecture. Returns the points
/// appended.
fn append_series(tsdb: &mut omptel::Tsdb, batches: &[SettingData]) -> u64 {
    let arches = batches.chunk_by(|a, b| a.key.arch == b.key.arch);
    arches
        .map(|of_arch| {
            let arch = of_arch[0].key.arch.id();
            let points = sweep::series::append_stratum_series(tsdb, arch, of_arch).expect("append");
            tsdb.flush().expect("flush");
            points
        })
        .sum()
}

fn run(scope: Scope, write_json: bool) {
    let spec = SweepSpec {
        scope,
        ..SweepSpec::default()
    };
    let mut batches = sweep::sweep_all_parallel(&spec, WORKERS);
    for data in &mut batches {
        sweep::clean(data, spec.reps as usize);
    }
    let samples: usize = batches.iter().map(|b| b.samples.len()).sum();
    let passes = if write_json { 7 } else { 2 };

    // One buffer for every document, so a pass measures serialization
    // and not the allocator growing a fresh Vec.
    let mut out = Vec::new();
    let mut floats = Vec::new();
    floats_of(&batches.serialize_value(), &mut floats);
    let (float_s, float_reps) = time_passes(passes, || {
        out.clear();
        serde_json::to_writer(&mut out, &floats).expect("in-memory write");
    });
    let ns_per_float = |s: f64| s * 1e9 / floats.len() as f64;
    let float_ns_reps: Vec<f64> = float_reps.iter().map(|&s| ns_per_float(s)).collect();
    let mut raw_bytes = 0;
    let (raw_json_s, raw_json_reps) = time_passes(passes, || {
        out.clear();
        sweep::export::write_raw_json(&batches, &mut out).expect("in-memory write");
        raw_bytes = out.len();
    });
    let (read_raw_json_s, read_raw_json_reps) = time_passes(passes, || {
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
    let (provenance_s, provenance_reps) = time_passes(passes, || {
        out.clear();
        sweep::write_provenance_jsonl(sweep::provenance_iter(&batches, &spec), &mut out)
            .expect("in-memory write");
        provenance_bytes = out.len();
    });
    assert_eq!(out.iter().filter(|&&b| b == b'\n').count(), samples);

    let dir = std::env::temp_dir().join(format!("omptune-export-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut tsdb = omptel::Tsdb::open(&dir, omptel::DEFAULT_CAPACITY).expect("open tsdb");
    let mut points = 0;
    let (tsdb_s, tsdb_reps) = time_passes(passes, || points = append_series(&mut tsdb, &batches));
    drop(tsdb);
    assert_eq!(points, 2 * samples as u64);

    // The files are rewritten in place every pass, as a re-run `collect`
    // rewrites its output directory.
    let manifest = sweep::RunManifest::new(&spec);
    let tail = |workers| {
        time_passes(passes, || {
            let summary = sweep::export::write_artifacts(&dir, &batches, &spec, &manifest, workers)
                .expect("artifacts written");
            assert_eq!(summary.provenance_lines, samples);
            assert_eq!(summary.bytes[1], raw_bytes as u64);
            assert_eq!(summary.bytes[2], provenance_bytes as u64);
        })
    };
    let (tail_s, tail_reps) = tail(1);
    let (tail_parallel_s, tail_parallel_reps) = tail(2);
    let _ = std::fs::remove_dir_all(&dir);

    let ns_per_sample = |s: f64| s * 1e9 / samples as f64;
    println!("export_tail ({scope:?}): {samples} samples");
    println!(
        "  {:<26} {float_s:.6}s  {:>8.1} ns/float   {} floats",
        "f64 text",
        ns_per_float(float_s),
        floats.len()
    );
    for (what, s, work) in [
        ("write_raw_json", raw_json_s, format!("{raw_bytes} bytes")),
        (
            "read_raw_json",
            read_raw_json_s,
            format!("{raw_bytes} bytes"),
        ),
        (
            "provenance build + write",
            provenance_s,
            format!("{provenance_bytes} bytes"),
        ),
        ("tsdb append + flush", tsdb_s, format!("{points} points")),
        ("write_artifacts, 1 worker", tail_s, "5 files".to_string()),
        (
            "write_artifacts, 2 workers",
            tail_parallel_s,
            "5 files".to_string(),
        ),
    ] {
        println!(
            "  {what:<26} {s:.6}s  {:>8.0} ns/sample  {work}",
            ns_per_sample(s)
        );
    }

    if write_json {
        use bench_harness::reps_json;
        let json = format!(
            "{{\n  \"bench\": \"export_tail\",\n  \"scope\": \"{scope:?}\",\n  \
             \"workers\": {WORKERS},\n  \"samples\": {samples},\n  \
             \"float_ns\": {:.1},\n  \"floats\": {},\n  \
             \"raw_json_s\": {raw_json_s:.6},\n  \"read_raw_json_s\": {read_raw_json_s:.6},\n  \
             \"provenance_s\": {provenance_s:.6},\n  \"tsdb_s\": {tsdb_s:.6},\n  \
             \"tail_s\": {tail_s:.6},\n  \"tail_parallel_s\": {tail_parallel_s:.6},\n  \
             \"raw_json_ns_per_sample\": {:.0},\n  \"read_raw_json_ns_per_sample\": {:.0},\n  \
             \"provenance_ns_per_sample\": {:.0},\n  \"tsdb_ns_per_sample\": {:.0},\n  \
             \"raw_json_bytes\": {raw_bytes},\n  \"provenance_bytes\": {provenance_bytes},\n  \
             \"tsdb_points\": {points},\n  \
             \"float_ns_reps\": {},\n  \"raw_json_s_reps\": {},\n  \"read_raw_json_s_reps\": {},\n  \
             \"provenance_s_reps\": {},\n  \"tsdb_s_reps\": {},\n  \
             \"tail_s_reps\": {},\n  \"tail_parallel_s_reps\": {}\n}}\n",
            ns_per_float(float_s),
            floats.len(),
            ns_per_sample(raw_json_s),
            ns_per_sample(read_raw_json_s),
            ns_per_sample(provenance_s),
            ns_per_sample(tsdb_s),
            reps_json(&float_ns_reps),
            reps_json(&raw_json_reps),
            reps_json(&read_raw_json_reps),
            reps_json(&provenance_reps),
            reps_json(&tsdb_reps),
            reps_json(&tail_reps),
            reps_json(&tail_parallel_reps)
        );
        bench_harness::publish_bench("export_tail", "BENCH_export.json", &json);
    }
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    if test_mode {
        run(Scope::Strided(300), false);
    } else {
        run(Scope::Strided(100), true);
    }
}
