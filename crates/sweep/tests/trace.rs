//! End-to-end omptrace properties of the sweep scheduler, in their own
//! process (the flight recorder is process-exclusive, so these tests
//! must not share a process with the omptel unit tests).
//!
//! - results are bit-identical with the recorder on or off,
//! - a live multi-worker sweep produces a well-nested trace whose
//!   cross-worker flows all resolve,
//! - a corrupted cache batch is recomputed byte-identically and the
//!   corruption lands in the flight recorder as a `CacheCorrupt` event
//!   and in the anomaly watchdog's dump,
//! - an installed watchdog, recorder or not, times every sample once.

use omptune_core::Arch;
use std::sync::{Arc, Mutex, OnceLock};
use sweep::{SampleCache, Scope, SweepOptions, SweepSpec};

/// The recorder is process-global; serialize every test that arms it.
fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn spec() -> SweepSpec {
    SweepSpec {
        scope: Scope::Strided(1000),
        reps: 2,
        seed: 17,
        failure_rate: 0.05,
        ..SweepSpec::default()
    }
}

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("omptune-trace-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Provenance JSONL bytes of a batch list: the artifact whose
/// byte-identity the tracing contract promises.
fn provenance_bytes(batches: &[sweep::SettingData], spec: &SweepSpec) -> Vec<u8> {
    let records = sweep::provenance_of(batches, spec);
    let mut buf = Vec::new();
    sweep::write_provenance_jsonl(&records, &mut buf).expect("in-memory write");
    buf
}

#[test]
fn traced_sweep_is_byte_identical_to_untraced() {
    let _guard = recorder_lock();
    let spec = spec();
    let plain = sweep::sweep_arch_scheduled(Arch::Skylake, &spec, &SweepOptions::new(4));

    let rec = omptel::Recorder::start(omptel::RecorderOptions::default())
        .expect("no other recorder live");
    let traced = sweep::sweep_arch_scheduled(Arch::Skylake, &spec, &SweepOptions::new(4));
    let recording = rec.finish();

    assert_eq!(
        provenance_bytes(&plain.batches, &spec),
        provenance_bytes(&traced.batches, &spec),
        "tracing changed the provenance bytes"
    );
    assert!(recording.total_events() > 0, "recorder captured nothing");
}

#[test]
fn live_sweep_trace_is_well_nested_with_resolved_flows() {
    let _guard = recorder_lock();
    let spec = spec();
    let rec = omptel::Recorder::start(omptel::RecorderOptions::default())
        .expect("no other recorder live");
    let outcome = sweep::sweep_arch_scheduled(Arch::A64fx, &spec, &SweepOptions::new(4));
    let recording = rec.finish();
    assert!(!outcome.batches.is_empty());

    // Raw recording: spans well-nested per thread by construction.
    let report = omptel::validate_trace(&recording).expect("well-nested recording");
    assert!(report.spans > 0, "no spans recorded");
    assert!(report.flows > 0, "no unit flows recorded");
    assert_eq!(report.unresolved_flows, 0, "flow lost across workers");
    assert_eq!(report.orphan_spans, 0, "orphaned span without drops");
    assert_eq!(report.dropped, 0, "ring wrapped on a tiny sweep");

    // One unit flow per scheduling unit, resolved across steals.
    assert_eq!(report.flows as u64, outcome.stats.units);

    // The exported Chrome JSON passes the laminar/flow validator too.
    let doc = omptel::chrome_trace_with_recording(&recording);
    let json = serde_json::to_string(&doc).expect("trace serializes");
    let exported = omptel::validate_trace_json(&json).expect("valid exported trace");
    assert_eq!(exported.unresolved_flows, 0);
    assert_eq!(exported.orphan_spans, 0);
}

/// A telemetry session over a scheduled sweep surfaces the warm-engine
/// counters (batch pricing, pool reuse, indexed lookups) without
/// changing the results: the batched fast path stays active under a
/// counter session and the provenance bytes match an unmonitored run.
#[test]
fn engine_counters_surface_under_telemetry_session() {
    let _guard = recorder_lock();
    let spec = spec();
    let cache = SampleCache::new(tmp_dir("engine-counters"));

    let plain = sweep::sweep_arch_scheduled(Arch::Skylake, &spec, &SweepOptions::new(4));
    let reference = provenance_bytes(&plain.batches, &spec);

    let session = omptel::session().expect("no other omptel session is live");
    let cold = sweep::sweep_arch_scheduled(
        Arch::Skylake,
        &spec,
        &SweepOptions::new(4).with_cache(&cache),
    );
    let warm = sweep::sweep_arch_scheduled(
        Arch::Skylake,
        &spec,
        &SweepOptions::new(4).with_cache(&cache),
    );
    let c = session.finish();

    assert_eq!(
        provenance_bytes(&cold.batches, &spec),
        reference,
        "session-monitored cold sweep changed the provenance bytes"
    );
    assert_eq!(
        provenance_bytes(&warm.batches, &spec),
        reference,
        "session-monitored warm sweep changed the provenance bytes"
    );

    assert!(
        c.get(omptel::Counter::PricedBatches) > 0,
        "cold sweep priced no batches under the session"
    );
    assert!(
        c.get(omptel::Counter::SampleCacheHits) > 0,
        "warm sweep answered no lookups from the sample cache"
    );
    assert!(
        c.get(omptel::Counter::PoolHits) > 0,
        "steady-state units never reused pooled buffers"
    );

    // Under a recorder every miss is priced on its own, right after its
    // lookup: one priced batch per cache-missed sample.
    let traced_cache = SampleCache::new(tmp_dir("engine-counters-traced"));
    let session = omptel::session().expect("no other omptel session is live");
    let rec = omptel::Recorder::start(omptel::RecorderOptions::default())
        .expect("no other recorder live");
    let traced = sweep::sweep_arch_scheduled(
        Arch::Skylake,
        &spec,
        &SweepOptions::new(4).with_cache(&traced_cache),
    );
    rec.finish();
    let counters = session.finish();
    assert_eq!(
        provenance_bytes(&traced.batches, &spec),
        reference,
        "traced session-monitored sweep changed the provenance bytes"
    );
    assert_eq!(
        traced.stats.sample_misses,
        sweep::planned_samples(Arch::Skylake, &spec)
    );
    assert_eq!(
        counters.get(omptel::Counter::PricedBatches),
        traced.stats.sample_misses,
        "a traced miss is a priced group of one"
    );

    let _ = std::fs::remove_dir_all(cache.dir());
    let _ = std::fs::remove_dir_all(traced_cache.dir());
}

/// An installed watchdog watches samples one at a time with no recorder
/// live: it times every planned sample (each config and each default
/// row) once, and the results are those of a plain run.
#[test]
fn installed_watchdog_times_every_sample_without_a_recorder() {
    let _guard = recorder_lock();
    let spec = spec();
    let plain = sweep::sweep_arch_scheduled(Arch::A64fx, &spec, &SweepOptions::new(2));

    let watchdog = Arc::new(omptel::Watchdog::new(0.999, Box::new(std::io::sink())));
    omptel::install_watchdog(Some(watchdog.clone()));
    let watched = sweep::sweep_arch_scheduled(Arch::A64fx, &spec, &SweepOptions::new(2));
    omptel::install_watchdog(None);

    assert_eq!(
        watchdog.histogram().count,
        sweep::planned_samples(Arch::A64fx, &spec),
        "one latency per planned sample"
    );
    assert_eq!(
        provenance_bytes(&watched.batches, &spec),
        provenance_bytes(&plain.batches, &spec),
        "the watchdog changed the provenance bytes"
    );
}

#[test]
fn corrupt_cache_batch_recomputes_identically_and_is_flagged() {
    let _guard = recorder_lock();
    let spec = spec();
    let cache = SampleCache::new(tmp_dir("corrupt-flag"));

    // Cold run fills the cache; its provenance is the reference.
    let cold =
        sweep::sweep_arch_scheduled(Arch::Milan, &spec, &SweepOptions::new(2).with_cache(&cache));
    let reference = provenance_bytes(&cold.batches, &spec);

    // Vandalize the first record of one hot binary batch file (its
    // checksum fails, so exactly one record degrades to a miss).
    let arch_dir = cache.dir().join("milan");
    let victim = std::fs::read_dir(&arch_dir)
        .expect("cache populated")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "bin"))
        .expect("at least one binary batch file");
    let mut bytes = std::fs::read(&victim).unwrap();
    let header = 8 * 8;
    bytes[header + 16] ^= 0xff;
    std::fs::write(&victim, &bytes).unwrap();

    // Re-run under the recorder with a watchdog collecting dumps.
    let rec = omptel::Recorder::start(omptel::RecorderOptions::default())
        .expect("no other recorder live");
    let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    struct SharedSink(Arc<Mutex<Vec<u8>>>);
    impl std::io::Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let watchdog = Arc::new(omptel::Watchdog::new(
        0.999,
        Box::new(SharedSink(sink.clone())),
    ));
    omptel::install_watchdog(Some(watchdog.clone()));
    let warm =
        sweep::sweep_arch_scheduled(Arch::Milan, &spec, &SweepOptions::new(2).with_cache(&cache));
    omptel::install_watchdog(None);
    let recording = rec.finish();

    // Byte-identical provenance despite the damage.
    assert_eq!(
        provenance_bytes(&warm.batches, &spec),
        reference,
        "corrupt cache changed recomputed provenance"
    );

    // The corruption was observed: a CacheCorrupt instant in the ring,
    // the corrupt counter on the watchdog, and a dump in the sink.
    assert!(
        recording.count(omptel::EventKind::Instant, omptel::SpanKind::CacheCorrupt) >= 1,
        "no CacheCorrupt event recorded"
    );
    let (_, corrupt) = watchdog.counts();
    assert_eq!(corrupt, 1, "exactly one corrupt record expected");
    let dump = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
    assert!(
        dump.contains("cache_corrupt") && dump.contains("unparseable record"),
        "watchdog dump missing corruption context: {dump:?}"
    );

    let _ = std::fs::remove_dir_all(cache.dir());
}
