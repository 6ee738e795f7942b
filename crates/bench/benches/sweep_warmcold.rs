//! Cold vs warm sweep throughput — the sample cache's whole value claim —
//! and what the flight recorder and the run registry cost a sweep.
//!
//! Passes over the same sweep spec through the work-stealing scheduler:
//!
//! - `no_cache`  — plan cache only (every sample simulated),
//! - `cold`      — an empty sample cache attached (simulate + persist), a
//!   fresh cache directory per pass,
//! - `warm`      — the last cold pass's cache again (every sample replayed
//!   from disk),
//! - `traced`    — the `no_cache` pass under the omptrace flight recorder
//!   at default settings,
//! - `registry_warm` / `registry` — a warm sweep at a denser scope, plain
//!   and recording a run-registry record the way `collect` does.
//!
//! Two isolated series time one unit of each observer's per-sample tax:
//! `recorder_span_s` (one span begin + end on one thread under a recorder)
//! and `registry_fold_s` (`BatchPartial::fold`, per sample, on one
//! thread). How many units a sweep pays is an exact count in tier-1
//! (`tests/observer_counts.rs`).
//!
//! The bench asserts warm ≥ 5x faster than cold and every cached, traced
//! and registered pass bit-identical to the uncached one. Every timed key
//! publishes its repetitions (`*_s_reps`), which are what `bench-diff`
//! gates; `warm_speedup`, `trace_overhead` and `registry_overhead` are
//! informational quotients of gated series. Results go to
//! `BENCH_sweep.json` at the repo root (override with `BENCH_OUT`).
//!
//! `harness = false`: under `cargo test` (argv contains `--test`) this
//! runs a fast smoke slice and publishes nothing; under `cargo bench` it
//! runs the full measurement and publishes the document.

use bench_harness::{BenchDoc, Series};
use omptune_core::Arch;
use std::hint::black_box;
use std::time::Instant;
use sweep::{slice_fingerprint, SampleCache, Scope, SettingData, SweepOptions, SweepSpec};

const WORKERS: usize = 4;

fn sweep_once(spec: &SweepSpec, cache: Option<&SampleCache>) -> Vec<SettingData> {
    let mut opts = SweepOptions::new(WORKERS);
    if let Some(c) = cache {
        opts = opts.with_cache(c);
    }
    sweep::sweep_all_scheduled(spec, &opts).batches
}

fn sample_count(batches: &[SettingData]) -> u64 {
    batches.iter().map(|b| b.samples.len() as u64).sum()
}

/// One warm sweep that also records the run in the registry, the way
/// `sweep::collect` does on every run: per-batch digest partials folded
/// by a batch observer the moment each batch finalizes (cache-hot on the
/// worker thread), merged in canonical order, and appended as one
/// content-addressed record. Spelled out here rather than called through
/// `sweep::collect::run`: the three clocks below sit inside the observer,
/// around the merge and around the append, where no hook of a whole run
/// (which also cleans, writes series and exports) reaches.
/// Returns `(recording_tax_seconds, batches)`.
/// The tax is the directly-clocked sum of everything recording adds to
/// a plain warm sweep: the per-batch observer folds (timed inside the
/// observer call), the canonical-order partial merges, and the record
/// append. Nothing else in the pass differs from `sweep_once`.
fn registry_once(
    spec: &SweepSpec,
    cache: &SampleCache,
    registry: &sweep::Registry,
) -> (f64, Vec<SettingData>) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    let fold_ns = AtomicU64::new(0);
    let mut tax = 0.0f64;
    let mut core = sweep::CollectCore::new(spec);
    let mut all = Vec::new();
    for &arch in Arch::ALL.iter() {
        let folds: Mutex<Vec<(sweep::RunKey, sweep::BatchPartial)>> = Mutex::new(Vec::new());
        let observe = |d: &SettingData| {
            let f0 = Instant::now();
            let partial = sweep::BatchPartial::fold(d);
            folds
                .lock()
                .expect("fold sink")
                .push((d.key.clone(), partial));
            fold_ns.fetch_add(f0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        };
        let opts = SweepOptions::new(WORKERS)
            .with_cache(cache)
            .with_batch_observer(&observe);
        let batches = sweep::sweep_arch_scheduled(arch, spec, &opts).batches;
        let m0 = Instant::now();
        let partials = std::mem::take(&mut *folds.lock().expect("fold sink"));
        core.push_arch_partials(arch.id(), &batches, partials, 0);
        tax += m0.elapsed().as_secs_f64();
        all.extend(batches);
    }
    let a0 = Instant::now();
    registry
        .append(
            sweep::RunCore::Collect(core),
            sweep::RunInfo::default(),
            "bench",
            0,
        )
        .expect("registry append");
    tax += a0.elapsed().as_secs_f64();
    tax += fold_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    (tax, all)
}

fn run(scope: Scope, registry_scope: Scope) {
    let full = bench_harness::full_run();
    let spec = SweepSpec {
        scope,
        ..SweepSpec::default()
    };
    let cache_dir =
        std::env::temp_dir().join(format!("omptune-sweep-warmcold-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Full bench mode runs 7 passes per series: 7 paired reps is the
    // smallest count where an all-worse outcome reaches p < 0.05
    // two-sided under bench-diff's Wilcoxon test. The smoke slice keeps 3.
    let (passes, budget_s) = if full { (7, 0.02) } else { (3, 0.001) };
    let mut baseline = Vec::new();
    let no_cache = Series::of(passes, || baseline = sweep_once(&spec, None));
    let samples = sample_count(&baseline);
    // Every cold pass writes a cache directory of its own, so each one
    // pays the store; the warm passes replay the last.
    let (mut cold, mut cold_batches, mut cache) = (Series::default(), Vec::new(), None);
    for pass in 0..passes {
        let fresh = &*cache.insert(SampleCache::new(cache_dir.join(format!("cold-{pass}"))));
        cold_batches = cold.time(|| sweep_once(&spec, Some(fresh)));
    }
    let cache = cache.expect("at least one cold pass");
    let mut warm_batches = Vec::new();
    let warm = Series::of(passes, || warm_batches = sweep_once(&spec, Some(&cache)));

    // Interleaved warm/registry pass pairs at the registry scope: a warm
    // sweep, and the same sweep recording a run-registry record — the
    // tax `collect` pays on every run. The record append is a fixed
    // per-run cost, so the pair runs at a denser scope than the headline
    // one, the scale real `collect` runs sweep at.
    let reg_spec = SweepSpec {
        scope: registry_scope,
        ..SweepSpec::default()
    };
    let reg_cold_batches = sweep_once(&reg_spec, Some(&cache));
    let reg_samples = sample_count(&reg_cold_batches);
    let reg_fp = slice_fingerprint(&reg_cold_batches);
    drop(reg_cold_batches);
    let registry = sweep::Registry::open(cache_dir.join("registry")).expect("open bench registry");
    let (mut reg_warm, mut registered, mut reg_tax) =
        (Series::default(), Series::default(), Series::default());
    for _ in 0..passes {
        drop(reg_warm.time(|| sweep_once(&reg_spec, Some(&cache))));
        let (tax, rb) = registered.time(|| registry_once(&reg_spec, &cache, &registry));
        reg_tax.record(tax);
        assert_eq!(
            slice_fingerprint(&rb),
            reg_fp,
            "registered sweep diverged from its cold sweep"
        );
    }
    let (hits, misses) = cache.stats();
    let _ = std::fs::remove_dir_all(&cache_dir);
    // The unit of the recording tax, on one thread: one sample folded.
    let registry_fold = Series::per_iteration(passes, budget_s, || {
        for batch in &warm_batches {
            black_box(sweep::BatchPartial::fold(batch));
        }
    })
    .scaled(1.0 / samples as f64);

    // Traced pass: same uncached sweep, flight recorder at defaults.
    let recorder = omptel::Recorder::start().expect("no other flight recorder is live");
    let mut traced_batches = Vec::new();
    let traced = Series::of(passes, || traced_batches = sweep_once(&spec, None));
    let recording = recorder.finish();
    // The unit of the recorder's tax, on one thread: one span opened and
    // closed. A recorder of its own, so the traced passes' event and drop
    // counts above are theirs alone.
    let recorder = omptel::Recorder::start().expect("no other flight recorder is live");
    let recorder_span = Series::per_iteration(passes, budget_s, || {
        drop(omptel::span(omptel::SpanKind::Sample, 0));
    });
    drop(recorder);

    let base_fp = slice_fingerprint(&baseline);
    assert_eq!(
        base_fp,
        slice_fingerprint(&cold_batches),
        "cold cached sweep diverged from uncached sweep"
    );
    assert_eq!(
        base_fp,
        slice_fingerprint(&warm_batches),
        "warm cached sweep diverged from uncached sweep"
    );
    assert_eq!(
        base_fp,
        slice_fingerprint(&traced_batches),
        "traced sweep diverged from untraced sweep"
    );

    let (plain_s, cold_s, warm_s, traced_s) =
        (no_cache.best(), cold.best(), warm.best(), traced.best());
    let speedup = cold_s / warm_s;
    let overhead = traced_s / plain_s;
    let (reg_warm_s, registry_s, registry_tax_s) =
        (reg_warm.best(), registered.best(), reg_tax.median());
    let registry_overhead = 1.0 + registry_tax_s / reg_warm.median();
    let (span_ns, fold_ns) = (recorder_span.best() * 1e9, registry_fold.best() * 1e9);
    println!("sweep_warmcold ({scope:?}): {samples} samples, {WORKERS} workers");
    println!("  no_cache (plan cache only): {plain_s:.4}s");
    println!("  cold (simulate + persist):  {cold_s:.4}s");
    println!("  warm (replay from disk):    {warm_s:.4}s");
    println!("  warm speedup over cold:     {speedup:.1}x");
    println!("  registry scope {registry_scope:?}: {reg_samples} samples, warm {reg_warm_s:.4}s");
    println!(
        "  warm + registry record:     {registry_s:.4}s (tax {:.0}us, {registry_overhead:.3}x)",
        registry_tax_s * 1e6
    );
    println!("  registry fold:              {fold_ns:.1} ns/sample");
    println!("  sample cache: {hits} hits, {misses} misses");
    println!(
        "  traced (flight recorder):   {traced_s:.4}s ({overhead:.3}x, {} events, {} dropped)",
        recording.total_events(),
        recording.total_dropped()
    );
    println!("  recorder span:              {span_ns:.1} ns/span");
    assert!(
        speedup >= 5.0,
        "warm sweep must be >=5x faster than cold, got {speedup:.2}x"
    );

    BenchDoc::new("sweep_warmcold")
        .text("scope", &format!("{scope:?}"))
        .count("workers", WORKERS as u64)
        .count("samples", samples)
        .series("no_cache_s", plain_s, &no_cache)
        .series("cold_s", cold_s, &cold)
        .series("warm_s", warm_s, &warm)
        .ratio("warm_speedup", speedup)
        .series("traced_s", traced_s, &traced)
        .ratio("trace_overhead", overhead)
        .series("recorder_span_s", recorder_span.best(), &recorder_span)
        .text("registry_scope", &format!("{registry_scope:?}"))
        .count("registry_samples", reg_samples)
        .series("registry_warm_s", reg_warm_s, &reg_warm)
        .series("registry_s", registry_s, &registered)
        .series("registry_tax_s", registry_tax_s, &reg_tax)
        .ratio("registry_overhead", registry_overhead)
        .series("registry_fold_s", registry_fold.best(), &registry_fold)
        .count("sample_cache_hits", hits)
        .count("sample_cache_misses", misses)
        .publish("BENCH_sweep.json");
}

fn main() {
    if bench_harness::full_run() {
        run(Scope::Strided(100), Scope::Strided(12));
    } else {
        // cargo test: smoke slice, no artifact. The 5x bar still holds.
        run(Scope::Strided(300), Scope::Strided(300));
    }
}
