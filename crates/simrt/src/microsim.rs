//! Event-driven micro-simulation: the fidelity oracle for the analytic
//! fast path.
//!
//! The sweep uses closed-form/heap-based span computation (`exec`) because
//! 240k runs must stay in microseconds each. This module executes a loop
//! phase the slow, honest way — one event per chunk on a real
//! discrete-event engine (`archsim::EventQueue` + `CorePool`) — so tests
//! can bound the fast path's error. Where the two disagree beyond
//! tolerance, the fast path is wrong, not the workload model.

use crate::costs;
use crate::model::LoopPhase;
use archsim::{ns, CorePool, EventQueue, VTime};
use omptune_core::{chunk, OmpSchedule, TuningConfig};

/// Outcome of an event-driven loop-phase execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroResult {
    /// Span of the phase in virtual nanoseconds.
    pub span_ns: f64,
    /// Events processed (chunk completions).
    pub events: u64,
}

/// Event payload: a thread became free and wants the next chunk.
#[derive(Debug, Clone, Copy)]
struct ThreadFree {
    thread: usize,
}

/// Execute one worksharing loop event-by-event on `t` identical threads
/// with per-iteration cost `iter_ns(i)` and the given schedule. Supports
/// the homogeneous-thread case the oracle needs (no oversubscription).
pub fn run_loop_event_driven(
    phase: &LoopPhase,
    tuning: &TuningConfig,
    clock_ghz: f64,
    iter_ns: impl Fn(u64) -> f64,
) -> MicroResult {
    let t = tuning.num_threads;
    let total = phase.iters;
    if total == 0 || t == 0 {
        return MicroResult {
            span_ns: 0.0,
            events: 0,
        };
    }
    let _ = clock_ghz;

    let mut queue: EventQueue<ThreadFree> = EventQueue::new();
    let mut pool = CorePool::new(t);
    let mut events = 0u64;

    // Shared-counter state for dynamic/guided; static precomputes.
    let mut next_iter = 0u64;
    let mut static_next: Vec<(u64, u64)> = Vec::new();
    if matches!(tuning.schedule, OmpSchedule::Static | OmpSchedule::Auto) {
        static_next.extend((0..t as u64).map(|i| chunk::static_block(total, t as u64, i)));
    }

    // Everyone asks for work at t=0.
    for thread in 0..t {
        queue.schedule(0, ThreadFree { thread });
    }

    let mut span: VTime = 0;
    while let Some((now, ev)) = queue.pop() {
        // Grab the next chunk for this thread.
        let chunk: Option<(u64, u64, f64)> = match tuning.schedule {
            OmpSchedule::Static | OmpSchedule::Auto => {
                let (lo, hi) = static_next[ev.thread];
                if lo >= hi {
                    None
                } else {
                    static_next[ev.thread] = (hi, hi); // whole block at once
                    Some((lo, hi, 0.0))
                }
            }
            OmpSchedule::Dynamic => {
                if next_iter >= total {
                    None
                } else {
                    let lo = next_iter;
                    next_iter += 1;
                    Some((lo, lo + 1, costs::dispatch_ns(t)))
                }
            }
            OmpSchedule::Guided => {
                if next_iter >= total {
                    None
                } else {
                    let size = chunk::guided_chunk(total - next_iter, t as u64);
                    let lo = next_iter;
                    next_iter += size;
                    Some((lo, lo + size, costs::dispatch_ns(t)))
                }
            }
        };
        let Some((lo, hi, dispatch)) = chunk else {
            span = span.max(now);
            continue;
        };
        let mut cost = dispatch;
        for i in lo..hi {
            cost += iter_ns(i);
        }
        let (_, end) = pool.run(ev.thread, now, ns(cost));
        events += 1;
        queue.schedule(end, ThreadFree { thread: ev.thread });
    }

    MicroResult {
        span_ns: span.max(pool.makespan()) as f64,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AccessPattern, Imbalance, Model, Phase};
    use omptune_core::Arch;

    fn phase(iters: u64, cycles: f64, imbalance: Imbalance) -> LoopPhase {
        LoopPhase {
            iters,
            cycles_per_iter: cycles,
            bytes_per_iter: 0.0,
            access: AccessPattern::CacheResident,
            imbalance,
            reductions: 0,
        }
    }

    /// Compare the analytic fast path against the event-driven oracle for
    /// one bare loop phase (no memory, default binding): spans must agree
    /// within a small tolerance for every schedule.
    fn check(iters: u64, cycles: f64, imbalance: Imbalance, sched: OmpSchedule, tol: f64) {
        let arch = Arch::Skylake;
        let machine = crate::machine_for(arch);
        let lp = phase(iters, cycles, imbalance);
        let mut cfg = TuningConfig::default_for(arch, 40);
        cfg.schedule = sched;

        // Oracle: per-iteration costs from the same imbalance shape used
        // by the fast path's 512-unit discretization.
        let units = (iters as usize).min(crate::MAX_UNITS);
        let iters_per_unit = iters as f64 / units as f64;
        let per_iter = |i: u64| -> f64 {
            let u = ((i as f64 / iters_per_unit) as usize).min(units - 1);
            let x0 = u as f64 / units as f64;
            let x1 = (u + 1) as f64 / units as f64;
            lp.imbalance.mean_over(x0, x1, u as u64, 0) * cycles / machine.clock_ghz
        };
        let micro = run_loop_event_driven(&lp, &cfg, machine.clock_ghz, per_iter);

        // Fast path: a single-phase, single-timestep model; subtract the
        // fork/wake/barrier overheads the oracle does not model.
        let model = Model {
            name: "oracle".into(),
            phases: vec![Phase::Loop(lp)],
            timesteps: 1,
            migration_sensitivity: 0.0,
        };
        let full = {
            let _tel = crate::tel_shared();
            crate::simulate(arch, &cfg, &model, 0)
        };
        let overhead = full.breakdown.wake_ns + full.breakdown.sync_ns;
        let analytic_span = full.total_ns - overhead;

        let rel = (analytic_span - micro.span_ns).abs() / micro.span_ns.max(1.0);
        assert!(
            rel < tol,
            "{sched:?}/{imbalance:?}: analytic {analytic_span} vs event-driven {} (rel {rel:.4})",
            micro.span_ns
        );
    }

    #[test]
    fn static_uniform_agrees_exactly() {
        check(
            100_000,
            300.0,
            Imbalance::Uniform,
            OmpSchedule::Static,
            0.01,
        );
    }

    #[test]
    fn static_skewed_agrees() {
        check(
            80_000,
            500.0,
            Imbalance::Linear { skew: 1.0 },
            OmpSchedule::Static,
            0.02,
        );
    }

    #[test]
    fn guided_agrees_under_random_costs() {
        check(
            60_000,
            800.0,
            Imbalance::Random { cv: 0.5 },
            OmpSchedule::Guided,
            0.05,
        );
    }

    #[test]
    fn dynamic_agrees_within_tail_tolerance() {
        // Dynamic's fast path is the work-conserving bound + tail; the
        // oracle dispatches every iteration individually.
        check(
            30_000,
            1_200.0,
            Imbalance::Random { cv: 0.4 },
            OmpSchedule::Dynamic,
            0.05,
        );
    }

    #[test]
    fn oracle_event_counts_match_schedule_semantics() {
        let arch = Arch::Skylake;
        let machine = crate::machine_for(arch);
        let lp = phase(10_000, 100.0, Imbalance::Uniform);
        let per_iter = |_i: u64| 100.0 / machine.clock_ghz;
        let mut cfg = TuningConfig::default_for(arch, 40);

        cfg.schedule = OmpSchedule::Static;
        let st = run_loop_event_driven(&lp, &cfg, machine.clock_ghz, per_iter);
        assert_eq!(st.events, 40, "static: one block per thread");

        cfg.schedule = OmpSchedule::Dynamic;
        let dy = run_loop_event_driven(&lp, &cfg, machine.clock_ghz, per_iter);
        assert_eq!(dy.events, 10_000, "dynamic: one event per iteration");

        cfg.schedule = OmpSchedule::Guided;
        let gd = run_loop_event_driven(&lp, &cfg, machine.clock_ghz, per_iter);
        assert!(gd.events > 40 && gd.events < 2_000, "guided: {}", gd.events);
    }

    #[test]
    fn empty_phase_is_free() {
        let lp = phase(0, 100.0, Imbalance::Uniform);
        let cfg = TuningConfig::default_for(Arch::Milan, 96);
        let r = run_loop_event_driven(&lp, &cfg, 2.3, |_| 1.0);
        assert_eq!(
            r,
            MicroResult {
                span_ns: 0.0,
                events: 0
            }
        );
    }
}
