//! Controlled schedule perturbation for the happens-before checker.
//!
//! A happens-before checker only certifies the schedules it actually
//! observes, and an unperturbed runtime settles into a handful of them:
//! workers win the same races, steals land on the same victims, and a
//! thousand repetitions re-certify one interleaving. This module lets a
//! fuzzing harness (`ompfuzz`) *steer* the runtime into many distinct
//! interleavings.
//!
//! Instrumented sites across the runtime — dispatch, barrier arrival
//! and release spins, deque push/pop/steal, dynamic chunk claims,
//! reduction combines — call [`point`]. With no plan installed the cost
//! is one relaxed atomic load (the same budget as `trace::emit`).
//! With a [`Plan`] installed, each visit draws a deterministic decision
//! from `(plan.seed, global visit counter, thread fingerprint)`:
//!
//! - **PCT-style priorities** — every OS thread gets a pseudo-random
//!   priority derived from the seed; low-priority threads concede the
//!   CPU more often, biasing which thread wins each race.
//! - **Seeded preemption bursts** — a deterministic subset of visits
//!   become *priority-change points* (the d in PCT): the visiting
//!   thread yields a burst proportional to the plan's strength, long
//!   enough for another thread to overtake it.
//!
//! The *decision sequence* is a pure function of the plan, so a
//! schedule plan is reproducible; the resulting interleaving is an
//! emergent property of the OS scheduler. `ompfuzz` canonicalizes the
//! observed interleavings by trace signature and prunes duplicates
//! (sleep-set-style), so only genuinely distinct schedules are counted
//! toward a certification campaign.

use omptune_core::{splitmix64 as mix, SPLITMIX64_GAMMA};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Which runtime site a perturbation point annotates. The site index
/// feeds the decision hash, so two different sites visited at the same
/// global count still draw different delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// The caller dispatched a parallel region.
    Dispatch,
    /// A worker picked up the region job.
    WorkerRun,
    /// A thread arrived at a barrier.
    BarrierArrive,
    /// A thread is about to enter a barrier release spin.
    BarrierSpin,
    /// A task was pushed onto the local deque.
    TaskPush,
    /// A task is about to be popped from the local deque.
    TaskPop,
    /// A steal attempt on another thread's deque.
    Steal,
    /// A dynamic/guided chunk claim.
    ChunkClaim,
    /// A reduction partial is about to be combined.
    Combine,
}

impl Site {
    fn index(self) -> u64 {
        match self {
            Site::Dispatch => 0,
            Site::WorkerRun => 1,
            Site::BarrierArrive => 2,
            Site::BarrierSpin => 3,
            Site::TaskPush => 4,
            Site::TaskPop => 5,
            Site::Steal => 6,
            Site::ChunkClaim => 7,
            Site::Combine => 8,
        }
    }
}

/// One schedule-perturbation plan: everything the decision function
/// depends on besides the visit counter and thread identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Seed of the decision stream; two plans with different seeds
    /// steer the runtime into different interleavings.
    pub seed: u64,
    /// Burst length multiplier at priority-change points (0 disables
    /// bursts, leaving only the per-priority yields). Values above ~8
    /// add latency without adding schedule diversity.
    pub strength: u8,
}

impl Plan {
    /// Plan number `index` of a campaign: an independent decision
    /// stream per (campaign seed, schedule index).
    pub fn derive(campaign_seed: u64, index: u64) -> Plan {
        Plan {
            seed: mix(campaign_seed ^ mix(index ^ 0xC0FF_EE00_5EED_0001)),
            strength: 2 + (mix(campaign_seed ^ index) % 3) as u8,
        }
    }
}

/// What one perturbation point decided to do: concede the CPU `yields`
/// times, then burn `spins` busy-wait iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// `std::thread::yield_now` calls to issue.
    pub yields: u64,
    /// `std::hint::spin_loop` iterations to burn afterwards.
    pub spins: u64,
}

/// The decision drawn at one `(visit, thread fingerprint, site)` point
/// under `plan`. Pure: this is the entire schedule-steering policy, and
/// `ompfuzz` fingerprints a plan's decision stream through it to prove
/// generator determinism without depending on OS scheduling.
pub fn decision(plan: Plan, visit: u64, fp: u64, site: Site) -> Decision {
    // PCT-style priority in 0..8: 0 concedes most, 7 barely at all.
    let prio = mix(plan.seed ^ fp.wrapping_mul(0xA24B_AED4_963E_E407)) % 8;
    let h = mix(plan.seed ^ visit.wrapping_mul(SPLITMIX64_GAMMA) ^ site.index() << 56 ^ fp);
    if h.is_multiple_of(61) {
        // Priority-change point: a burst long enough for another
        // runnable thread to overtake this one.
        Decision {
            yields: plan.strength as u64 * (8 - prio),
            spins: 0,
        }
    } else if h % 7 < 2 && prio < 4 {
        // Low-priority threads concede sporadically between bursts.
        Decision {
            yields: 1,
            spins: 0,
        }
    } else if h.is_multiple_of(5) {
        // Tiny jitter: shifts atomic-race outcomes without a syscall.
        Decision {
            yields: 0,
            spins: h % 17,
        }
    } else {
        Decision {
            yields: 0,
            spins: 0,
        }
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);
static STRENGTH: AtomicU64 = AtomicU64::new(0);
static VISITS: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD_FP: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_FP: Cell<u64> = const { Cell::new(0) };
}

/// Active-plan guard: clears the plan (and resets the visit counter)
/// when dropped, so a panicking campaign iteration cannot leave the
/// runtime perturbed.
pub struct PerturbGuard {
    _private: (),
}

impl Drop for PerturbGuard {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::SeqCst);
    }
}

/// Install `plan` as the process-wide perturbation plan and reset the
/// visit counter. Intended for a sequential harness (one plan at a
/// time); installing over a live plan simply replaces it.
pub fn install(plan: Plan) -> PerturbGuard {
    SEED.store(plan.seed, Ordering::SeqCst);
    STRENGTH.store(plan.strength as u64, Ordering::SeqCst);
    VISITS.store(0, Ordering::SeqCst);
    ACTIVE.store(true, Ordering::SeqCst);
    PerturbGuard { _private: () }
}

/// Whether a plan is currently installed.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Number of perturbation points visited under the current plan.
pub fn visits() -> u64 {
    VISITS.load(Ordering::Relaxed)
}

/// A perturbation point: possibly concede the CPU, per the installed
/// plan. One relaxed load when no plan is active.
#[inline]
pub fn point(site: Site) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    perturb(site);
}

#[cold]
fn perturb(site: Site) {
    let fp = THREAD_FP.with(|c| {
        if c.get() == 0 {
            c.set(NEXT_THREAD_FP.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    });
    let plan = Plan {
        seed: SEED.load(Ordering::Relaxed),
        strength: STRENGTH.load(Ordering::Relaxed) as u8,
    };
    let visit = VISITS.fetch_add(1, Ordering::Relaxed);
    let d = decision(plan, visit, fp, site);
    for _ in 0..d.yields {
        std::thread::yield_now();
    }
    for _ in 0..d.spins {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The plan is process-global; tests touching it must not overlap.
    static EXCLUSIVE: Mutex<()> = Mutex::new(());

    #[test]
    fn inactive_points_are_noops() {
        let _x = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        let before = visits();
        assert!(!is_active());
        for _ in 0..100 {
            point(Site::Steal);
        }
        assert_eq!(visits(), before, "inactive points must not count visits");
    }

    #[test]
    fn guard_deactivates_on_drop() {
        let _x = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        {
            let _g = install(Plan {
                seed: 7,
                strength: 1,
            });
            assert!(is_active());
            point(Site::Dispatch);
            point(Site::BarrierArrive);
            // Concurrent tests drive instrumented runtime paths, so other
            // visits may land while our plan is installed: lower bound.
            assert!(visits() >= 2);
        }
        assert!(!is_active());
    }

    #[test]
    fn decision_is_pure_and_site_sensitive() {
        let p = Plan::derive(9, 3);
        for v in 0..64 {
            assert_eq!(
                decision(p, v, 2, Site::Steal),
                decision(p, v, 2, Site::Steal)
            );
        }
        assert!(
            (0..64).any(|v| decision(p, v, 1, Site::Steal) != decision(p, v, 1, Site::Dispatch)),
            "site index must feed the decision hash"
        );
    }

    #[test]
    fn derived_plans_differ_by_index() {
        let a = Plan::derive(42, 0);
        let b = Plan::derive(42, 1);
        assert_ne!(a.seed, b.seed);
        // And are reproducible.
        assert_eq!(a, Plan::derive(42, 0));
        assert!((2..=4).contains(&a.strength));
    }

    #[test]
    fn perturbed_runtime_still_correct() {
        use crate::pool::ThreadPool;
        use omptune_core::{OmpSchedule, ReductionMethod};
        let _x = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        let _g = install(Plan {
            seed: 0xDEAD_BEEF,
            strength: 3,
        });
        let pool = ThreadPool::with_defaults(4);
        for schedule in [
            OmpSchedule::Static,
            OmpSchedule::Dynamic,
            OmpSchedule::Guided,
        ] {
            let sum = crate::worksharing::parallel_reduce_sum(
                &pool,
                schedule,
                ReductionMethod::Tree,
                2000,
                |i| i as f64,
            );
            assert_eq!(sum, 1_999_000.0, "{schedule:?} under perturbation");
        }
        let total = crate::task_parallel(&pool, || {
            let (a, b) = crate::join(|| 21u64, || 21u64);
            a + b
        });
        assert_eq!(total, 42);
        assert!(visits() > 0, "no perturbation point was ever visited");
    }
}
