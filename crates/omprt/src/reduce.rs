//! Cross-thread reductions: `tree`, `critical`, and `atomic`
//! (`KMP_FORCE_REDUCTION`, Sec. III-6).
//!
//! The three methods differ in how per-thread partial values are combined:
//!
//! - **critical** — every thread enters one critical section and folds its
//!   partial into the shared result (serializes, cheap at tiny team sizes),
//! - **atomic** — every thread performs a CAS-loop read-modify-write on
//!   the shared result (ok for commutative ops, contends at scale),
//! - **tree** — partials land in a padded per-thread slot array and are
//!   combined pairwise in log₂(n) rounds (libomp's choice for ≥ 5
//!   threads).
//!
//! [`Reducer`] is created once per reduction (outside the hot region) and
//! used inside a parallel region together with a barrier.

use crate::barrier::Barrier;
use crate::perturb::{self, Site};
use crate::trace::{self, Event};
use omptune_core::ReductionMethod;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Pad to a cache line so per-thread slots never false-share. 128 bytes
/// covers every studied machine except A64FX's 256-byte lines; the
/// alignment question itself is a tuning knob the paper sweeps via
/// `KMP_ALIGN_ALLOC` (modelled in `simrt`).
#[repr(align(128))]
struct Slot(AtomicU64);

/// A reusable f64 sum-reduction workspace for a fixed team size.
///
/// f64 values are transported through `AtomicU64` bit patterns; the CAS
/// loop implements atomic float addition.
pub struct Reducer {
    method: ReductionMethod,
    team: usize,
    shared: AtomicU64,
    critical: Mutex<()>,
    slots: Vec<Slot>,
    /// First of `team + 2` consecutive trace ids: the shared cell, the
    /// critical-section lock, then one location per slot.
    trace_base: u64,
}

fn load_f64(a: &AtomicU64, order: Ordering) -> f64 {
    f64::from_bits(a.load(order))
}

fn store_f64(a: &AtomicU64, v: f64, order: Ordering) {
    a.store(v.to_bits(), order)
}

/// Atomic `+=` on an f64 carried in an AtomicU64.
fn fetch_add_f64(a: &AtomicU64, v: f64) {
    let mut cur = a.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match a.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return,
            Err(observed) => cur = observed,
        }
    }
}

impl Reducer {
    /// Workspace for `team` threads combining with `method`.
    pub fn new(team: usize, method: ReductionMethod) -> Reducer {
        assert!(team >= 1);
        Reducer {
            method,
            team,
            shared: AtomicU64::new(0f64.to_bits()),
            critical: Mutex::new(()),
            slots: (0..team)
                .map(|_| Slot(AtomicU64::new(0f64.to_bits())))
                .collect(),
            trace_base: trace::next_ids(team as u64 + 2),
        }
    }

    fn loc_shared(&self) -> u64 {
        self.trace_base
    }

    fn loc_lock(&self) -> u64 {
        self.trace_base + 1
    }

    fn loc_slot(&self, i: usize) -> u64 {
        self.trace_base + 2 + i as u64
    }

    /// Reset the workspace for a new reduction. Must be called by a single
    /// thread between uses (typically before the parallel region).
    pub fn reset(&self) {
        store_f64(&self.shared, 0.0, Ordering::Relaxed);
        for s in &self.slots {
            store_f64(&s.0, 0.0, Ordering::Relaxed);
        }
    }

    /// Combine this thread's `partial` into the reduction. Must be called
    /// exactly once per team thread, followed by `barrier.wait(tid)` and
    /// then [`Reducer::result`].
    ///
    /// The `barrier` coordinates the tree rounds; `critical` and `atomic`
    /// only need the caller's trailing barrier for result visibility.
    pub fn combine(&self, tid: usize, partial: f64, barrier: &dyn Barrier) {
        debug_assert!(tid < self.team);
        perturb::point(Site::Combine);
        if tid == 0 {
            // One count per reduction, recording which path was taken
            // (the KMP_FORCE_REDUCTION outcome).
            let counter = match self.method {
                ReductionMethod::Tree => Some(omptel::Counter::ReduceTree),
                ReductionMethod::Critical => Some(omptel::Counter::ReduceCritical),
                ReductionMethod::Atomic => Some(omptel::Counter::ReduceAtomic),
                ReductionMethod::None => None,
            };
            if let Some(c) = counter {
                omptel::add(c, 1);
            }
        }
        match self.method {
            ReductionMethod::None => {
                debug_assert_eq!(self.team, 1, "None method requires a single thread");
                store_f64(&self.shared, partial, Ordering::Release);
                trace::emit(Event::Write {
                    loc: self.loc_shared(),
                });
            }
            ReductionMethod::Critical => {
                let _guard = self.critical.lock().expect("critical section poisoned");
                trace::emit(Event::LockAcquire {
                    lock: self.loc_lock(),
                });
                let cur = load_f64(&self.shared, Ordering::Relaxed);
                store_f64(&self.shared, cur + partial, Ordering::Relaxed);
                // The read-modify-write counts as one write access.
                trace::emit(Event::Write {
                    loc: self.loc_shared(),
                });
                trace::emit(Event::LockRelease {
                    lock: self.loc_lock(),
                });
            }
            ReductionMethod::Atomic => {
                // Atomic RMW: not a plain access, so nothing to check.
                fetch_add_f64(&self.shared, partial);
            }
            ReductionMethod::Tree => {
                store_f64(&self.slots[tid].0, partial, Ordering::Release);
                trace::emit(Event::Write {
                    loc: self.loc_slot(tid),
                });
                let mut stride = 1usize;
                while stride < self.team {
                    barrier.wait(tid);
                    if tid.is_multiple_of(2 * stride) && tid + stride < self.team {
                        let mine = load_f64(&self.slots[tid].0, Ordering::Acquire);
                        let theirs = load_f64(&self.slots[tid + stride].0, Ordering::Acquire);
                        store_f64(&self.slots[tid].0, mine + theirs, Ordering::Release);
                        trace::emit(Event::Read {
                            loc: self.loc_slot(tid + stride),
                        });
                        trace::emit(Event::Write {
                            loc: self.loc_slot(tid),
                        });
                    }
                    stride *= 2;
                }
                if tid == 0 {
                    store_f64(
                        &self.shared,
                        load_f64(&self.slots[0].0, Ordering::Acquire),
                        Ordering::Release,
                    );
                    trace::emit(Event::Read {
                        loc: self.loc_slot(0),
                    });
                    trace::emit(Event::Write {
                        loc: self.loc_shared(),
                    });
                }
            }
        }
    }

    /// The reduced value. Only meaningful after every thread combined and
    /// passed a barrier.
    pub fn result(&self) -> f64 {
        trace::emit(Event::Read {
            loc: self.loc_shared(),
        });
        load_f64(&self.shared, Ordering::Acquire)
    }

    /// The method in use.
    pub fn method(&self) -> ReductionMethod {
        self.method
    }

    /// Number of barrier episodes [`Reducer::combine`] itself performs —
    /// the tree method synchronizes ⌈log₂ team⌉ times, the flat methods
    /// not at all. (The caller's trailing barrier is not counted.)
    pub fn internal_barriers(&self) -> usize {
        match self.method {
            ReductionMethod::Tree if self.team > 1 => {
                usize::BITS as usize - (self.team - 1).leading_zeros() as usize
            }
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::CentralBarrier;

    fn run_reduction(team: usize, method: ReductionMethod) -> f64 {
        let reducer = Reducer::new(team, method);
        let barrier = CentralBarrier::new(team);
        std::thread::scope(|s| {
            for tid in 0..team {
                let reducer = &reducer;
                let barrier = &barrier;
                s.spawn(move || {
                    let partial = (tid + 1) as f64;
                    reducer.combine(tid, partial, barrier);
                    barrier.wait(tid);
                });
            }
        });
        reducer.result()
    }

    #[test]
    fn all_methods_agree_on_the_sum() {
        for team in [1usize, 2, 3, 4, 5, 8, 13] {
            let expect = (team * (team + 1) / 2) as f64;
            for method in [ReductionMethod::Critical, ReductionMethod::Atomic] {
                assert_eq!(
                    run_reduction(team, method),
                    expect,
                    "{method:?} team {team}"
                );
            }
            if team > 1 {
                assert_eq!(
                    run_reduction(team, ReductionMethod::Tree),
                    expect,
                    "tree team {team}"
                );
            }
        }
    }

    #[test]
    fn none_method_single_thread() {
        assert_eq!(run_reduction(1, ReductionMethod::None), 1.0);
    }

    #[test]
    fn reset_clears_state() {
        let r = Reducer::new(1, ReductionMethod::Atomic);
        let b = CentralBarrier::new(1);
        r.combine(0, 5.0, &b);
        assert_eq!(r.result(), 5.0);
        r.reset();
        assert_eq!(r.result(), 0.0);
        r.combine(0, 2.0, &b);
        assert_eq!(r.result(), 2.0);
    }

    #[test]
    fn fetch_add_f64_is_atomic_under_contention() {
        let a = AtomicU64::new(0f64.to_bits());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        fetch_add_f64(&a, 1.0);
                    }
                });
            }
        });
        assert_eq!(f64::from_bits(a.load(Ordering::Relaxed)), 40_000.0);
    }

    #[test]
    fn internal_barrier_counts() {
        assert_eq!(
            Reducer::new(8, ReductionMethod::Tree).internal_barriers(),
            3
        );
        assert_eq!(
            Reducer::new(5, ReductionMethod::Tree).internal_barriers(),
            3
        );
        assert_eq!(
            Reducer::new(1, ReductionMethod::Tree).internal_barriers(),
            0
        );
        assert_eq!(
            Reducer::new(8, ReductionMethod::Atomic).internal_barriers(),
            0
        );
    }

    #[test]
    fn heuristic_selects_like_libomp() {
        // Re-checked here because the reducer is where it takes effect.
        assert_eq!(ReductionMethod::heuristic(1), ReductionMethod::None);
        assert_eq!(ReductionMethod::heuristic(3), ReductionMethod::Critical);
        assert_eq!(ReductionMethod::heuristic(48), ReductionMethod::Tree);
    }
}
