//! Persistent worker thread pool with libomp-style wait policies.
//!
//! A [`ThreadPool`] owns `num_threads - 1` worker OS threads; the caller
//! participates as thread 0, exactly like libomp's primary thread. Between
//! parallel regions, workers wait according to the configured
//! [`WaitPolicy`]:
//!
//! - `Active` (`KMP_BLOCKTIME=infinite`): spin until the next region,
//!   optionally yielding each iteration (`KMP_LIBRARY=throughput`) or
//!   burning the CPU (`turnaround`),
//! - `SpinThenSleep` (finite blocktime): spin for the blocktime, then park
//!   on a condvar,
//! - `Passive` (`KMP_BLOCKTIME=0`): park immediately.
//!
//! Dispatch uses a generation (epoch) counter so spinning workers observe
//! new work with a single atomic load; sleepers are woken under the mutex
//! that guards the epoch, which excludes lost wakeups.

use crate::perturb::{self, Site};
use crate::trace::{self, Event};
use omptune_core::config::WaitPolicy;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-thread context handed to parallel-region closures.
#[derive(Debug, Clone, Copy)]
pub struct ThreadCtx {
    /// This thread's id within the team, `0..num_threads`.
    pub thread_num: usize,
    /// Team size.
    pub num_threads: usize,
}

type Job = Arc<dyn Fn(ThreadCtx) + Send + Sync>;

struct Shared {
    /// Incremented once per dispatched region; workers key off it.
    epoch: AtomicUsize,
    /// Number of workers that finished the current region.
    done: AtomicUsize,
    /// Set when any team thread panicked inside the current region.
    panicked: AtomicBool,
    shutdown: AtomicBool,
    /// Guards `job` and epoch transitions for sleeping waiters.
    lock: Mutex<Option<Job>>,
    work_cv: Condvar,
    done_cv: Condvar,
    wait: WaitSpec,
    /// Trace id of the dispatch condvar protocol: `Notify` on epoch
    /// bumps, `ParkBegin`/`ParkEnd` around worker sleeps. All three are
    /// emitted while `lock` is held, which is exactly the discipline the
    /// `D-LOST-WAKEUP` rule certifies.
    cond: u64,
}

impl Shared {
    /// Lock the job slot. The guarded sections never run user code, so
    /// poisoning can only be a bug in the pool itself.
    fn slot(&self) -> MutexGuard<'_, Option<Job>> {
        self.lock.lock().expect("pool mutex poisoned")
    }
}

/// Wait behaviour distilled from the tuning configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WaitSpec {
    /// How long to spin before sleeping; `None` = forever (active policy).
    spin_for: Option<Duration>,
    /// Yield to the OS scheduler inside the spin loop.
    yielding: bool,
}

impl WaitSpec {
    fn from_policy(policy: WaitPolicy) -> WaitSpec {
        match policy {
            WaitPolicy::Passive => WaitSpec {
                spin_for: Some(Duration::ZERO),
                yielding: true,
            },
            WaitPolicy::SpinThenSleep { millis, yielding } => WaitSpec {
                spin_for: Some(Duration::from_millis(millis as u64)),
                yielding,
            },
            WaitPolicy::Active { yielding } => WaitSpec {
                spin_for: None,
                yielding,
            },
        }
    }
}

/// A fork-join thread pool: the OpenMP "team".
pub struct ThreadPool {
    shared: Arc<Shared>,
    num_threads: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool of `num_threads` (including the caller) waiting per
    /// `policy`.
    ///
    /// # Panics
    /// Panics if `num_threads == 0`.
    pub fn new(num_threads: usize, policy: WaitPolicy) -> ThreadPool {
        assert!(num_threads >= 1, "a team needs at least one thread");
        let shared = Arc::new(Shared {
            epoch: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            lock: Mutex::new(None),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            wait: WaitSpec::from_policy(policy),
            cond: trace::next_id(),
        });
        let handles = (1..num_threads)
            .map(|tid| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("omprt-worker-{tid}"))
                    .spawn(move || worker_loop(shared, tid, num_threads))
                    .expect("failed to spawn worker")
            })
            .collect();
        ThreadPool {
            shared,
            num_threads,
            handles,
        }
    }

    /// Pool with the default wait policy (200 ms blocktime, throughput).
    pub fn with_defaults(num_threads: usize) -> ThreadPool {
        ThreadPool::new(
            num_threads,
            WaitPolicy::SpinThenSleep {
                millis: 200,
                yielding: true,
            },
        )
    }

    /// Team size.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Execute one parallel region: `f` runs once on every team thread,
    /// the caller participating as thread 0. Returns when all threads have
    /// finished (implicit barrier at region end).
    pub fn parallel<F>(&self, f: F)
    where
        F: Fn(ThreadCtx) + Send + Sync,
    {
        // Region fork/join events give the trace checker the edges that
        // order pre-region caller state against team-thread accesses (and
        // team writes against post-region reads). `live_id` is 0 when no
        // trace session is active, so the untraced cost is one load.
        let region = trace::live_id();
        if region != 0 {
            trace::set_thread_id(0);
            trace::emit(Event::RegionFork { region });
        }
        omptel::add(omptel::Counter::Regions, 1);
        // Flight-recorder span for the whole fork/join region on the
        // caller's track; workers record their own share below.
        let _pspan = omptel::span(omptel::SpanKind::Parallel, self.num_threads as u64);
        if self.num_threads == 1 {
            if region != 0 {
                trace::emit(Event::RegionBegin { region });
            }
            f(ThreadCtx {
                thread_num: 0,
                num_threads: 1,
            });
            if region != 0 {
                trace::emit(Event::RegionEnd { region });
                trace::emit(Event::RegionJoin { region });
            }
            return;
        }
        // Safety of the lifetime erasure: we do not return until `done`
        // confirms every worker finished running `f`, so the borrow cannot
        // be outlived. This is the standard scoped-parallelism argument
        // (rayon::scope, crossbeam::thread).
        fn erase<'a>(f: Arc<dyn Fn(ThreadCtx) + Send + Sync + 'a>) -> Job {
            unsafe { std::mem::transmute(f) }
        }
        let job: Job = erase(Arc::new(move |ctx: ThreadCtx| {
            if region != 0 {
                trace::set_thread_id(ctx.thread_num);
                trace::emit(Event::RegionBegin { region });
            }
            let _wspan = omptel::span(omptel::SpanKind::Worker, ctx.thread_num as u64);
            f(ctx);
            if region != 0 {
                trace::emit(Event::RegionEnd { region });
            }
        }));

        perturb::point(Site::Dispatch);
        {
            let mut slot = self.shared.slot();
            *slot = Some(Arc::clone(&job));
            self.shared.done.store(0, Ordering::Release);
            let epoch = self.shared.epoch.fetch_add(1, Ordering::Release) + 1;
            trace::emit(Event::Notify {
                cond: self.shared.cond,
                epoch: epoch as u64,
            });
            self.shared.work_cv.notify_all();
        }

        // The caller is thread 0. Capture its panic so we still join the
        // workers before unwinding (they may borrow caller state).
        let caller_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            job(ThreadCtx {
                thread_num: 0,
                num_threads: self.num_threads,
            })
        }));

        // Join: wait until all workers have checked in.
        let workers = self.num_threads - 1;
        let mut spins = 0u32;
        loop {
            if self.shared.done.load(Ordering::Acquire) == workers {
                break;
            }
            spins += 1;
            if spins < 10_000 {
                std::hint::spin_loop();
            } else {
                let slot = self.shared.slot();
                if self.shared.done.load(Ordering::Acquire) == workers {
                    break;
                }
                let _ = self
                    .shared
                    .done_cv
                    .wait_timeout(slot, Duration::from_millis(1))
                    .expect("pool mutex poisoned");
            }
        }
        // Drop the job so borrowed state is released before returning.
        *self.shared.slot() = None;
        if region != 0 {
            trace::emit(Event::RegionJoin { region });
        }

        if let Err(payload) = caller_result {
            std::panic::resume_unwind(payload);
        }
        if self.shared.panicked.swap(false, Ordering::AcqRel) {
            panic!("a worker thread panicked inside the parallel region");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let _slot = self.shared.slot();
            self.shared.shutdown.store(true, Ordering::Release);
            // Shutdown reuses the current epoch: parked workers hold a
            // ParkBegin stamped with this same epoch, so the wakeup is
            // ordered (ParkEnd joins this Notify's clock) without ever
            // looking like a missed epoch announcement.
            trace::emit(Event::Notify {
                cond: self.shared.cond,
                epoch: self.shared.epoch.load(Ordering::Acquire) as u64,
            });
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, tid: usize, num_threads: usize) {
    let mut seen_epoch = 0usize;
    loop {
        // Wait for a new epoch or shutdown, honouring the wait policy.
        let deadline = shared.wait.spin_for.map(|d| Instant::now() + d);
        // Spin-vs-park accounting (KMP_BLOCKTIME / KMP_LIBRARY telemetry):
        // clocks are read only while a session is live.
        let wait_start = omptel::enabled().then(Instant::now);
        let mut park_start: Option<Instant> = None;
        loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            if shared.epoch.load(Ordering::Acquire) != seen_epoch {
                break;
            }
            match deadline {
                Some(dl) if Instant::now() >= dl => {
                    if let Some(ws) = wait_start {
                        if park_start.is_none() {
                            omptel::add(omptel::Counter::SpinNs, ws.elapsed().as_nanos() as u64);
                            park_start = Some(Instant::now());
                        }
                    }
                    // Blocktime expired: sleep until notified. The park
                    // decision and both protocol events happen under the
                    // epoch-guarding mutex — the lost-wakeup-free
                    // discipline `D-LOST-WAKEUP` certifies.
                    let mut slot = shared.slot();
                    if shared.epoch.load(Ordering::Acquire) == seen_epoch
                        && !shared.shutdown.load(Ordering::Acquire)
                    {
                        trace::emit(Event::ParkBegin {
                            cond: shared.cond,
                            epoch: seen_epoch as u64,
                        });
                        while shared.epoch.load(Ordering::Acquire) == seen_epoch
                            && !shared.shutdown.load(Ordering::Acquire)
                        {
                            slot = shared.work_cv.wait(slot).expect("pool mutex poisoned");
                        }
                        trace::emit(Event::ParkEnd {
                            cond: shared.cond,
                            epoch: shared.epoch.load(Ordering::Acquire) as u64,
                        });
                    }
                }
                _ => {
                    if shared.wait.yielding {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        if let Some(ws) = wait_start {
            match park_start {
                Some(ps) => {
                    omptel::add(omptel::Counter::ParkNs, ps.elapsed().as_nanos() as u64);
                    omptel::add(omptel::Counter::Wakeups, 1);
                }
                None => omptel::add(omptel::Counter::SpinNs, ws.elapsed().as_nanos() as u64),
            }
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        seen_epoch = shared.epoch.load(Ordering::Acquire);
        perturb::point(Site::WorkerRun);
        let job = shared.slot().clone();
        if let Some(job) = job {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                job(ThreadCtx {
                    thread_num: tid,
                    num_threads,
                })
            }));
            if result.is_err() {
                shared.panicked.store(true, Ordering::Release);
            }
        }
        // Check in; the last worker wakes the dispatcher.
        let prev = shared.done.fetch_add(1, Ordering::AcqRel);
        if prev + 1 == num_threads - 1 {
            let _slot = shared.slot();
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn policies() -> Vec<WaitPolicy> {
        vec![
            WaitPolicy::Passive,
            WaitPolicy::SpinThenSleep {
                millis: 1,
                yielding: true,
            },
            WaitPolicy::Active { yielding: true },
        ]
    }

    #[test]
    fn every_thread_runs_exactly_once() {
        for policy in policies() {
            let pool = ThreadPool::new(4, policy);
            let hits = [const { AtomicUsize::new(0) }; 4];
            pool.parallel(|ctx| {
                assert_eq!(ctx.num_threads, 4);
                hits[ctx.thread_num].fetch_add(1, Ordering::Relaxed);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 1);
            }
        }
    }

    #[test]
    fn repeated_regions_reuse_workers() {
        let pool = ThreadPool::with_defaults(3);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.parallel(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn borrows_local_state_safely() {
        let pool = ThreadPool::with_defaults(4);
        let data: Vec<u64> = (0..1000).collect();
        let sum = AtomicU64::new(0);
        pool.parallel(|ctx| {
            let chunk = data.len() / ctx.num_threads;
            let lo = ctx.thread_num * chunk;
            let hi = if ctx.thread_num == ctx.num_threads - 1 {
                data.len()
            } else {
                lo + chunk
            };
            let local: u64 = data[lo..hi].iter().sum();
            sum.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 499_500);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::with_defaults(1);
        let touched = AtomicBool::new(false);
        pool.parallel(|ctx| {
            assert_eq!(ctx.thread_num, 0);
            assert_eq!(ctx.num_threads, 1);
            touched.store(true, Ordering::Relaxed);
        });
        assert!(touched.load(Ordering::Relaxed));
    }

    #[test]
    fn passive_workers_sleep_and_wake() {
        let pool = ThreadPool::new(4, WaitPolicy::Passive);
        // Give workers time to park, then dispatch.
        std::thread::sleep(Duration::from_millis(20));
        let count = AtomicUsize::new(0);
        pool.parallel(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn drop_joins_workers() {
        // Constructing and dropping pools must not hang or leak threads.
        for policy in policies() {
            let pool = ThreadPool::new(3, policy);
            pool.parallel(|_| {});
            drop(pool);
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = ThreadPool::with_defaults(0);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::with_defaults(4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel(|ctx| {
                if ctx.thread_num == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "panic must propagate to the dispatcher");
        // The pool must remain usable afterwards.
        let n = AtomicUsize::new(0);
        pool.parallel(|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 4);
    }
}
