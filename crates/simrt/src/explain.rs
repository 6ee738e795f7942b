//! Per-phase cost attribution: *why* does a configuration run at the
//! speed it does?
//!
//! [`explain`] prices the configuration's one [`RegionPlan`] phase by
//! phase and reports, for each phase of the model, its whole-run cost
//! and the sinks it goes to, plus the run's closed sink table — the
//! breakdown a performance engineer would want before touching a knob.
//! Used by `ompprof diff` and the `explain` example.

use crate::exec::SimResult;
use crate::model::{Model, Phase};
use crate::plan::RegionPlan;
use omptel::progress::fmt_ns;
use omptune_core::{Arch, TuningConfig};

/// Cost attribution for one phase over the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    /// Index into `model.phases`.
    pub index: usize,
    /// Human-readable phase kind (`"loop"`, `"tasks"`, `"serial"`).
    pub kind: &'static str,
    /// Virtual nanoseconds this phase contributes to the run: its cold
    /// step plus `timesteps - 1` warm steps.
    pub ns: f64,
    /// Share of the run.
    pub fraction: f64,
    /// Where this phase's time goes, by sink, closed so the components
    /// sum exactly to `ns` (the sum-to-total invariant flame-graph
    /// leaves rely on).
    pub sinks: omptel::Breakdown,
}

/// A full explanation: the run's result and its phase attribution. The
/// phases sum to `result.total_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    pub result: SimResult,
    pub phases: Vec<PhaseCost>,
}

impl Explanation {
    /// The run's seven sinks closed to its total (the breakdown a sweep
    /// sample carries as its telemetry), the top sink first; ties keep
    /// [`omptel::Sink::ALL`] order.
    pub fn ranked_sinks(&self) -> [(omptel::Sink, f64); 7] {
        let r = &self.result;
        let sinks = r.breakdown.to_tel().close_to_total(r.total_ns);
        let mut ranked = omptel::Sink::ALL.map(|s| (s, sinks.get(s)));
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked
    }

    /// Render as an indented report: run time, the top sink, all seven
    /// sinks ranked by time, then the phases.
    pub fn render(&self) -> String {
        let ranked = self.ranked_sinks();
        let total = self.result.total_ns.max(1.0);
        let mut out = format!(
            "run time {} over {} regions; top time sink: {} ({:.1} %)\n",
            fmt_ns(self.result.total_ns),
            self.result.regions,
            ranked[0].0.label(),
            100.0 * ranked[0].1 / total
        );
        for (sink, ns) in ranked {
            out.push_str(&format!(
                "  {:<30} {:>12}  ({:>5.1} %)\n",
                sink.label(),
                fmt_ns(ns),
                100.0 * ns / total
            ));
        }
        out.push_str("phases (whole run):\n");
        for p in &self.phases {
            out.push_str(&format!(
                "  phase {:>2} [{:<6}] {:>12}  ({:>5.1} %)\n",
                p.index,
                p.kind,
                fmt_ns(p.ns),
                p.fraction * 100.0
            ));
        }
        out
    }
}

/// Attribute a run of `model` under `config` to the model's phases,
/// pricing the configuration's one plan phase by phase.
pub fn explain(arch: Arch, config: &TuningConfig, model: &Model, seed: u64) -> Explanation {
    let plan = RegionPlan::build(arch, config.plan_projection(), model, seed);
    let result = plan.price(config);
    let total = result.total_ns.max(1.0);
    let phases = model
        .phases
        .iter()
        .zip(plan.price_by_phase(config))
        .enumerate()
        .map(|(index, (phase, (ns, bd)))| PhaseCost {
            index,
            kind: match phase {
                Phase::Loop(_) => "loop",
                Phase::Tasks(_) => "tasks",
                Phase::Serial { .. } => "serial",
            },
            ns,
            fraction: ns / total,
            sinks: bd.to_tel().close_to_total(ns),
        })
        .collect();
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
    fn phases_follow_the_model_and_share_the_run() {
        let _tel = crate::tel_shared();
        let cfg = TuningConfig::default_for(Arch::Skylake, 40);
        let e = explain(Arch::Skylake, &cfg, &mixed_model(), 0);
        let kinds: Vec<_> = e.phases.iter().map(|p| p.kind).collect();
        assert_eq!(kinds, ["loop", "serial", "tasks"]);
        let sum: f64 = e.phases.iter().map(|p| p.fraction).sum();
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum {sum}");
    }

    #[test]
    fn serial_phase_cost_matches_declaration() {
        let _tel = crate::tel_shared();
        let model = mixed_model();
        let cfg = TuningConfig::default_for(Arch::Skylake, 40);
        let e = explain(Arch::Skylake, &cfg, &model, 0);
        // The serial stub is 10 µs in each of the ten steps, all of it
        // charged to the serial sink; its wake cost lands on the region
        // that follows.
        let serial = &e.phases[1];
        assert_eq!(serial.ns, 10.0 * 10_000.0);
        assert_eq!(serial.sinks.serial_ns, serial.ns);
    }

    #[test]
    fn render_ranks_all_seven_sinks_under_the_top_one() {
        let _tel = crate::tel_shared();
        let cfg = TuningConfig::default_for(Arch::A64fx, 48);
        let e = explain(Arch::A64fx, &cfg, &mixed_model(), 0);
        let text = e.render();
        let ranked = e.ranked_sinks();
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1), "{ranked:?}");
        let top = ranked[0].0;
        assert!(
            text.lines()
                .next()
                .unwrap()
                .contains(&format!("top time sink: {}", top.label())),
            "{text}"
        );
        for sink in omptel::Sink::ALL {
            assert!(text.contains(sink.label()), "missing {sink:?}:\n{text}");
        }
        assert!(text.contains("[tasks ]"), "{text}");
    }
}
