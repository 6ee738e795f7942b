//! End-to-end telemetry capture from the real runtime: an omptel session
//! wrapped around pool work must yield the counters each construct
//! promises, and nothing before the session opened.
//!
//! Sessions are process-global, so every test takes TEST_LOCK.

use omprt::pool::ThreadPool;
use omprt::worksharing::{parallel_for, parallel_reduce_sum};
use omptune_core::{OmpSchedule, ReductionMethod};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn spin_work(i: usize) -> f64 {
    // Enough work per iteration that regions have nonzero elapsed time.
    let mut x = i as f64 + 1.0;
    for _ in 0..200 {
        x = (x * 1.000_001).sqrt() + 0.5;
    }
    x
}

#[test]
fn session_counts_regions_and_chunks_from_real_pool() {
    let _guard = TEST_LOCK.lock().unwrap();
    let pool = ThreadPool::with_defaults(4);
    // Warm the pool up outside the session: its region is not counted.
    parallel_for(&pool, OmpSchedule::Static, 64, |i| {
        std::hint::black_box(spin_work(i));
    });

    let session = omptel::session().expect("no other session active");
    parallel_for(&pool, OmpSchedule::Static, 4096, |i| {
        std::hint::black_box(spin_work(i));
    });
    parallel_for(&pool, OmpSchedule::Dynamic, 512, |i| {
        std::hint::black_box(spin_work(i));
    });
    let counters = session.finish();

    assert_eq!(counters.get(omptel::Counter::Regions), 2);
    // The dynamic loop hands out 512 chunks of size 1.
    assert!(
        counters.get(omptel::Counter::ChunksDynamic) >= 512,
        "dynamic chunk claims missing"
    );
    // The static loop logs one chunk per participating thread.
    assert!(counters.get(omptel::Counter::ChunksStatic) >= 4);
}

#[test]
fn reduction_and_barrier_counters_are_recorded() {
    let _guard = TEST_LOCK.lock().unwrap();
    let pool = ThreadPool::with_defaults(4);
    let session = omptel::session().expect("no other session active");
    let got = parallel_reduce_sum(
        &pool,
        OmpSchedule::Static,
        ReductionMethod::Tree,
        1000,
        |i| i as f64,
    );
    let counters = session.finish();
    assert_eq!(got, 499_500.0);
    assert!(counters.get(omptel::Counter::ReduceTree) >= 1);
    // The tree reduction runs ⌈log₂ 4⌉ = 2 internal barrier rounds plus
    // the trailing visibility barrier, each an episode per thread.
    assert!(
        counters.get(omptel::Counter::BarrierEpisodes) >= 8,
        "barrier episodes missing: {}",
        counters.get(omptel::Counter::BarrierEpisodes)
    );
}

#[test]
fn disabled_runtime_records_nothing() {
    let _guard = TEST_LOCK.lock().unwrap();
    // No session: the gated paths must not count.
    let pool = ThreadPool::with_defaults(2);
    parallel_for(&pool, OmpSchedule::Guided, 256, |i| {
        std::hint::black_box(spin_work(i));
    });
    // Open a fresh session and immediately finish it — anything captured
    // before it began must not leak in.
    let counters = omptel::session().expect("no other session active").finish();
    assert!(counters.is_empty());
}
