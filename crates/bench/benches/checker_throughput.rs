//! Checker throughput: how fast `omplint::check_trace` replays traces.
//!
//! The certification campaign (`ompfuzz certify`) funnels every executed
//! schedule through the vector-clock happens-before checker, so the
//! checker's replay rate bounds how much schedule space a CI budget can
//! cover. This bench captures real traces from a corpus of generated
//! programs once, then times repeated full replays of the corpus:
//!
//! - `check_s`      — wall seconds to replay the whole corpus once
//!   (best of N passes; the gated metric),
//! - `traces_per_sec` / `events_per_sec` — derived rates (informational).
//!
//! Results go to `BENCH_checker.json` at the repo root (override with
//! `BENCH_OUT`) with per-repetition arrays so `bench-diff` can put a
//! band violation to the Wilcoxon signed-rank test.
//!
//! `harness = false`: under `cargo test` (argv contains `--test`) this
//! runs a small smoke corpus and publishes nothing; under `cargo bench`
//! it runs the full corpus and publishes the document.

use bench_harness::{BenchDoc, Series};

/// Corpus seeds. Fixed so the replayed event mix is stable across runs;
/// the traces themselves are recaptured each run (capture time is not
/// part of the gated metric).
const FULL_SEEDS: u64 = 24;
const SMOKE_SEEDS: u64 = 6;

/// Corpus replays per timed pass: a single replay is under a
/// millisecond, too close to timer jitter to gate on.
const REPLAYS: usize = 20;

fn capture_corpus(seeds: u64) -> Vec<Vec<omprt::trace::Record>> {
    (0..seeds)
        .map(|seed| {
            let program = ompfuzz::generate(seed);
            let pool = omprt::ThreadPool::with_defaults(program.threads);
            let (records, outcome) = ompfuzz::execute(&program, &pool);
            assert!(
                outcome.violations.is_empty(),
                "corpus program {seed} violated structural invariants"
            );
            records
        })
        .collect()
}

/// Replay the corpus `replays` times; the events one replay checked.
fn replay_pass(corpus: &[Vec<omprt::trace::Record>], replays: usize) -> usize {
    let mut events = 0usize;
    for _ in 0..replays {
        events = 0;
        for trace in corpus {
            let report = omplint::check_trace(trace);
            assert!(report.is_clean(), "corpus trace must certify clean");
            events += report.stats.events;
        }
    }
    events
}

fn main() {
    let full = bench_harness::full_run();
    let seeds = if full { FULL_SEEDS } else { SMOKE_SEEDS };
    let corpus = capture_corpus(seeds);
    let total_events: usize = corpus.iter().map(|t| t.len()).sum();

    // Warm-up replay so the first timed pass is not paying first-touch
    // costs, then best-of-N timed passes with every rep published.
    let replays = if full { REPLAYS } else { 2 };
    let mut replayed = replay_pass(&corpus, 1);
    let passes = if full { 7 } else { 3 };
    let check = Series::of(passes, || replayed = replay_pass(&corpus, replays));
    let check_s = check.best();

    let traces_per_sec = (corpus.len() * replays) as f64 / check_s;
    let events_per_sec = (replayed * replays) as f64 / check_s;
    println!(
        "checker_throughput: {} traces, {} recorded events ({} replayed)",
        corpus.len(),
        total_events,
        replayed
    );
    println!("  check_s (best of {passes}, {replays} replays/pass): {check_s:.6}s");
    println!("  traces/s: {traces_per_sec:.0}, events/s: {events_per_sec:.0}");

    BenchDoc::new("checker_throughput")
        .count("seeds", seeds)
        .count("traces", corpus.len() as u64)
        .count("events", replayed as u64)
        .series("check_s", check_s, &check)
        .count("traces_per_sec", traces_per_sec.round() as u64)
        .count("events_per_sec", events_per_sec.round() as u64)
        .publish("BENCH_checker.json");
}
