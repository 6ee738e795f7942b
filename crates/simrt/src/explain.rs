//! Per-phase cost attribution: *why* does a configuration run at the
//! speed it does?
//!
//! [`explain`] re-runs the simulation phase by phase and reports, for
//! each phase of one warm timestep, its span and the overheads attached
//! to it — the breakdown a performance engineer would want before
//! touching a knob. Used by the `explain` example and the tuning
//! documentation.

use crate::exec::{simulate, SimResult};
use crate::model::{Model, Phase};
use omptune_core::{Arch, TuningConfig};

/// Cost attribution for one phase of a warm timestep.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    /// Index into `model.phases`.
    pub index: usize,
    /// Human-readable phase kind (`"loop"`, `"tasks"`, `"serial"`).
    pub kind: &'static str,
    /// Virtual nanoseconds this phase contributes to one warm timestep.
    pub ns: f64,
    /// Share of the warm timestep.
    pub fraction: f64,
    /// Where this phase's span goes, by sink, closed so the components
    /// sum exactly to `ns` (the sum-to-total invariant flame-graph
    /// leaves rely on).
    pub sinks: omptel::Breakdown,
}

/// A full explanation: total runtime, phase attribution, and category
/// breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    pub result: SimResult,
    pub phases: Vec<PhaseCost>,
}

impl Explanation {
    /// Render as an indented report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "total {:.4}s over {} regions\n",
            self.result.seconds(),
            self.result.regions
        );
        let b = &self.result.breakdown;
        let total = self.result.total_ns.max(1.0);
        for (label, v) in [
            ("compute", b.compute_ns),
            ("memory", b.memory_ns),
            ("sync (fork/barrier/reduction)", b.sync_ns),
            ("wake-ups", b.wake_ns),
            ("dispatch/task admin", b.dispatch_ns),
            ("serial", b.serial_ns),
        ] {
            out.push_str(&format!(
                "  {:<30} {:>10.3} ms  ({:>5.1}% of ideal-time budget)\n",
                label,
                v * 1e-6,
                100.0 * v / total
            ));
        }
        out.push_str("per-phase spans (one warm timestep):\n");
        for p in &self.phases {
            out.push_str(&format!(
                "  phase {:>2} [{:<6}] {:>10.3} ms  ({:>5.1}%)\n",
                p.index,
                p.kind,
                p.ns * 1e-6,
                p.fraction * 100.0
            ));
        }
        out
    }
}

/// Attribute the cost of one warm timestep to the model's phases by
/// differential simulation: each phase's contribution is measured by
/// simulating two-step prefixes of the phase list.
pub fn explain(arch: Arch, config: &TuningConfig, model: &Model, seed: u64) -> Explanation {
    let result = simulate(arch, config, model, seed);

    // Warm timestep cost of a prefix of phases: simulate 2 timesteps of
    // the prefix model and take the second step (total - cold step).
    // The sink breakdown is differenced the same way, so each phase's
    // sinks are the marginal warm-step cost it adds per category.
    let warm_cost = |phases: &[Phase]| -> (f64, omptel::Breakdown) {
        if phases.is_empty() {
            return (0.0, omptel::Breakdown::default());
        }
        let prefix = Model {
            name: model.name.clone(),
            phases: phases.to_vec(),
            timesteps: 2,
            migration_sensitivity: model.migration_sensitivity,
        };
        let two = simulate(arch, config, &prefix, seed);
        let one = {
            let single = Model {
                timesteps: 1,
                ..prefix
            };
            simulate(arch, config, &single, seed)
        };
        let mut warm = two.breakdown.to_tel();
        let cold = one.breakdown.to_tel();
        for sink in omptel::Sink::ALL {
            let v = (warm.get(sink) - cold.get(sink)).max(0.0);
            warm.set(sink, v);
        }
        (two.total_ns - one.total_ns, warm)
    };

    let mut phases = Vec::with_capacity(model.phases.len());
    let mut prev = 0.0;
    let mut prev_sinks = omptel::Breakdown::default();
    let mut spans = Vec::new();
    for i in 0..model.phases.len() {
        let (here, here_sinks) = warm_cost(&model.phases[..=i]);
        let ns = (here - prev).max(0.0);
        let mut sinks = omptel::Breakdown::default();
        for sink in omptel::Sink::ALL {
            sinks.set(sink, (here_sinks.get(sink) - prev_sinks.get(sink)).max(0.0));
        }
        spans.push((ns, sinks.close_to_total(ns)));
        prev = here;
        prev_sinks = here_sinks;
    }
    let warm_total: f64 = spans.iter().map(|(ns, _)| ns).sum::<f64>().max(1.0);
    for (i, (phase, (ns, sinks))) in model.phases.iter().zip(spans).enumerate() {
        phases.push(PhaseCost {
            index: i,
            kind: match phase {
                Phase::Loop(_) => "loop",
                Phase::Tasks(_) => "tasks",
                Phase::Serial { .. } => "serial",
            },
            ns,
            fraction: ns / warm_total,
            sinks,
        });
    }
    Explanation { result, phases }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AccessPattern, Imbalance, LoopPhase, TaskPhase};

    fn mixed_model() -> Model {
        Model {
            name: "mixed".into(),
            phases: vec![
                Phase::Loop(LoopPhase {
                    iters: 100_000,
                    cycles_per_iter: 400.0,
                    bytes_per_iter: 0.0,
                    access: AccessPattern::CacheResident,
                    imbalance: Imbalance::Uniform,
                    reductions: 1,
                }),
                Phase::Serial { ns: 10_000.0 },
                Phase::Tasks(TaskPhase {
                    n_tasks: 1_000,
                    cycles_per_task: 9_000.0,
                    cv: 0.2,
                    starvation: 0.4,
                    bytes_per_task: 0.0,
                }),
            ],
            timesteps: 10,
            migration_sensitivity: 0.0,
        }
    }

    #[test]
    fn phase_fractions_sum_to_one() {
        let _tel = crate::tel_shared();
        let model = mixed_model();
        let cfg = TuningConfig::default_for(Arch::Skylake, 40);
        let e = explain(Arch::Skylake, &cfg, &model, 0);
        let sum: f64 = e.phases.iter().map(|p| p.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum {sum}");
        assert_eq!(e.phases.len(), 3);
        assert_eq!(e.phases[0].kind, "loop");
        assert_eq!(e.phases[1].kind, "serial");
        assert_eq!(e.phases[2].kind, "tasks");
    }

    #[test]
    fn serial_phase_cost_matches_declaration() {
        let _tel = crate::tel_shared();
        let model = mixed_model();
        let cfg = TuningConfig::default_for(Arch::Skylake, 40);
        let e = explain(Arch::Skylake, &cfg, &model, 0);
        // The serial stub itself is 10 µs; the attribution may also carry
        // the *wake cost it induces* on the next region start, so allow
        // a one-wake margin.
        assert!(e.phases[1].ns >= 10_000.0 * 0.99, "{}", e.phases[1].ns);
        assert!(e.phases[1].ns < 40_000.0, "{}", e.phases[1].ns);
    }

    #[test]
    fn render_mentions_all_categories() {
        let _tel = crate::tel_shared();
        let model = mixed_model();
        let cfg = TuningConfig::default_for(Arch::A64fx, 48);
        let text = explain(Arch::A64fx, &cfg, &model, 0).render();
        for needle in ["compute", "memory", "wake-ups", "per-phase", "tasks"] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
    }

    #[test]
    fn phase_sinks_close_to_phase_span() {
        let _tel = crate::tel_shared();
        let model = mixed_model();
        let cfg = TuningConfig::default_for(Arch::Milan, 96);
        let e = explain(Arch::Milan, &cfg, &model, 0);
        for p in &e.phases {
            assert!(
                (p.sinks.sum() - p.ns).abs() <= 1e-6 * p.ns.max(1.0),
                "phase {} sinks sum {} != span {}",
                p.index,
                p.sinks.sum(),
                p.ns
            );
            for sink in omptel::Sink::ALL {
                assert!(
                    p.sinks.get(sink) >= 0.0,
                    "negative {sink:?} in phase {}",
                    p.index
                );
            }
        }
        // The serial stub should be charged mostly to the serial sink.
        let serial = &e.phases[1];
        assert!(
            serial.sinks.serial_ns > 0.5 * serial.ns,
            "serial sink {} of span {}",
            serial.sinks.serial_ns,
            serial.ns
        );
    }

    #[test]
    fn explanation_total_matches_simulate() {
        let _tel = crate::tel_shared();
        let model = mixed_model();
        let cfg = TuningConfig::default_for(Arch::Milan, 96);
        let e = explain(Arch::Milan, &cfg, &model, 0);
        let direct = simulate(Arch::Milan, &cfg, &model, 0);
        assert_eq!(e.result, direct);
    }
}
