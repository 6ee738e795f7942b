//! Cold vs warm sweep throughput: the sample cache's whole value claim.
//!
//! Three passes over the same sweep spec through the work-stealing
//! scheduler:
//!
//! - `no_cache`  — plan cache only (every sample simulated),
//! - `cold`      — empty sample cache attached (simulate + persist),
//! - `warm`      — same cache dir again (every sample replayed from disk),
//! - `traced`    — the `no_cache` pass under the omptrace flight
//!   recorder at default settings (the recorder's overhead claim).
//!
//! The acceptance bars are warm ≥ 5x faster than cold and traced ≤ 5%
//! slower than untraced; results go to `BENCH_sweep.json` at the repo
//! root (override with `BENCH_OUT`) so later PRs can track the
//! trajectory and `bench-diff` can gate regressions. Warm and traced
//! output is asserted bit-identical to the baseline before any timing
//! is reported.
//!
//! `harness = false`: under `cargo test` (argv contains `--test`) this
//! runs a fast smoke slice and publishes nothing; under `cargo bench` it
//! runs the full measurement and publishes the document.

use bench_harness::{BenchDoc, Series};
use omptune_core::Arch;
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
    let cache = SampleCache::new(&cache_dir);

    // Best-of-N uncached passes: the fair baseline for the traced
    // overhead comparison below. Full bench mode runs 7 passes and
    // publishes every repetition (`*_s_reps`) so `bench-diff` can put a
    // band violation to the Wilcoxon signed-rank test — 7 paired reps
    // is the smallest count where an all-worse outcome reaches
    // p < 0.05 two-sided with margin; the smoke slice keeps 3.
    let passes = if full { 7 } else { 3 };
    let mut baseline = Vec::new();
    let mut no_cache = Series::of(passes, || baseline = sweep_once(&spec, None));
    let samples = sample_count(&baseline);
    let mut cold = Series::default();
    let cold_batches = cold.time(|| sweep_once(&spec, Some(&cache)));
    // Warm passes at the headline scope: the cache's value claim.
    let mut warm_batches = Vec::new();
    let warm = Series::of(passes, || warm_batches = sweep_once(&spec, Some(&cache)));
    // Best-of-N interleaved warm/registry pass pairs at the registry
    // scope. The registry pass is a warm sweep plus folding every
    // sample into a run-registry record and appending it — the
    // observability tax `collect` pays on every run, gated at 5% like
    // the tracer. The record append is a fixed per-run cost (a ~13 KB
    // line regardless of sweep size), so the ratio is measured at a
    // denser scope than the headline warm/cold comparison — the scale
    // real `collect` runs sweep at — where the per-run constant
    // amortizes the way it does in production. Interleaving keeps slow
    // machine-load drift from landing on only one side of the ratio.
    let reg_spec = SweepSpec {
        scope: registry_scope,
        ..SweepSpec::default()
    };
    let reg_cold_batches = sweep_once(&reg_spec, Some(&cache));
    let reg_samples = sample_count(&reg_cold_batches);
    let reg_fp = slice_fingerprint(&reg_cold_batches);
    drop(reg_cold_batches);
    let registry_dir = cache_dir.join("registry");
    let registry = sweep::Registry::open(&registry_dir).expect("open bench registry");
    let (mut reg_warm, mut registered, mut reg_tax) =
        (Series::default(), Series::default(), Series::default());
    // The recording tax (~0.5 ms here) is an order of magnitude below
    // this machine's sweep-to-sweep noise (±15% on a shared box), so
    // any estimator built from whole-pass timings — even a median of
    // back-to-back paired ratios — is hostage to scheduler weather.
    // Instead the tax is clocked directly inside `registry_once`
    // (observer folds + merges + append: exactly the work a plain warm
    // sweep does not do), and the overhead is that measured tax over
    // the median warm pass. Both terms are low-variance: the tax is a
    // sum of microsecond-scale sections, and the warm median discards
    // stall outliers. A real regression lands in the tax clock itself
    // and cannot hide behind sweep noise. Retries append fresh pairs —
    // the estimate only gets more data, never selective data.
    let mut registry_pair = || {
        drop(reg_warm.time(|| sweep_once(&reg_spec, Some(&cache))));
        let (tax, rb) = registered.time(|| registry_once(&reg_spec, &cache, &registry));
        reg_tax.record(tax);
        assert_eq!(
            slice_fingerprint(&rb),
            reg_fp,
            "registered sweep diverged from its cold sweep"
        );
        1.0 + reg_tax.median() / reg_warm.median()
    };
    let mut registry_overhead = f64::INFINITY;
    for _ in 0..passes {
        registry_overhead = registry_pair();
    }
    for _ in 0..3 {
        if !(full && registry_overhead > 1.05) {
            break;
        }
        registry_overhead = registry_pair();
    }
    let (hits, misses) = cache.stats();
    let _ = std::fs::remove_dir_all(&cache_dir);

    // Traced pass: same uncached sweep, flight recorder at defaults.
    let recorder = omptel::Recorder::start(omptel::RecorderOptions::default())
        .expect("no other flight recorder is live");
    let mut traced_batches = Vec::new();
    let mut traced = Series::of(passes, || traced_batches = sweep_once(&spec, None));
    let recording = recorder.finish();

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

    let (cold_s, warm_s) = (cold.best(), warm.best());
    let speedup = cold_s / warm_s;
    let mut overhead = traced.best() / no_cache.best();
    // A transient machine-wide stall can slow every traced pass in one
    // batch (they all run after the warm reps); interleaved plain/traced
    // pairs are the fair comparison, so re-measure up to three pairs
    // before failing. Best-of only improves, so this cannot mask a real
    // regression — it only gives noise more chances to wash out.
    for _ in 0..3 {
        if !(full && overhead > 1.05) {
            break;
        }
        no_cache.time(|| sweep_once(&spec, None));
        let retry_rec = omptel::Recorder::start(omptel::RecorderOptions::default())
            .expect("no other flight recorder is live");
        let retry_batches = traced.time(|| sweep_once(&spec, None));
        retry_rec.finish();
        assert_eq!(base_fp, slice_fingerprint(&retry_batches));
        overhead = traced.best() / no_cache.best();
    }
    let (plan_only_s, traced_s) = (no_cache.best(), traced.best());
    let (reg_warm_s, registry_s, registry_tax_s) =
        (reg_warm.best(), registered.best(), reg_tax.median());
    println!("sweep_warmcold ({scope:?}): {samples} samples, {WORKERS} workers");
    println!("  no_cache (plan cache only): {plan_only_s:.4}s");
    println!("  cold (simulate + persist):  {cold_s:.4}s");
    println!("  warm (replay from disk):    {warm_s:.4}s");
    println!("  warm speedup over cold:     {speedup:.1}x");
    println!("  registry scope {registry_scope:?}: {reg_samples} samples, warm {reg_warm_s:.4}s");
    println!(
        "  warm + registry record:     {registry_s:.4}s (tax {:.0}us, {registry_overhead:.3}x)",
        registry_tax_s * 1e6
    );
    println!("  sample cache: {hits} hits, {misses} misses");
    println!(
        "  traced (flight recorder):   {traced_s:.4}s ({overhead:.3}x, {} events, {} dropped)",
        recording.total_events(),
        recording.total_dropped()
    );
    assert!(
        speedup >= 5.0,
        "warm sweep must be >=5x faster than cold, got {speedup:.2}x"
    );
    if full {
        // Timing-gate only in full bench mode; the smoke slice under
        // `cargo test` is too short for a stable ratio.
        assert!(
            overhead <= 1.05,
            "flight recorder overhead must stay within 5%, got {overhead:.3}x"
        );
        assert!(
            registry_overhead <= 1.05,
            "run-registry recording must stay within 5% of the warm sweep, got {registry_overhead:.3}x"
        );
    }

    BenchDoc::new("sweep_warmcold")
        .text("scope", &format!("{scope:?}"))
        .count("workers", WORKERS as u64)
        .count("samples", samples)
        .series("no_cache_s", plan_only_s, &no_cache)
        .seconds("cold_s", cold_s)
        .series("warm_s", warm_s, &warm)
        .ratio("warm_speedup", speedup)
        .series("traced_s", traced_s, &traced)
        .ratio("trace_overhead", overhead)
        .text("registry_scope", &format!("{registry_scope:?}"))
        .count("registry_samples", reg_samples)
        .series("registry_warm_s", reg_warm_s, &reg_warm)
        .series("registry_s", registry_s, &registered)
        .series("registry_tax_s", registry_tax_s, &reg_tax)
        .ratio("registry_overhead", registry_overhead)
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
