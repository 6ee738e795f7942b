//! Energy as a second objective: does tuning for time and tuning for
//! energy pick the same configuration?
//!
//! Every sample already carries a modeled [`omptel::EnergyBreakdown`]
//! priced by the deterministic per-arch power model. Over one
//! [`ReportSlice`] per architecture, a [`Verdict`] finds the time-,
//! energy- and EDP-optimal configurations and the penalty of optimizing
//! the wrong objective; a [`Report`] gathers them into the markdown
//! disagreement table and a JSON document.
//!
//! The disagreement is mechanical, not incidental: a spin-waiting
//! configuration (`KMP_LIBRARY=turnaround`, long `KMP_BLOCKTIME`) wakes
//! threads cheaply and wins on time, but burns near-active power through
//! every wait; a parking configuration idles those cores and wins on
//! joules.

use crate::Attribution;
use omptune_core::{Arch, TuningConfig, Variable};
use sweep::{RawSample, ReportSlice, SweepOptions};

/// One objective's winning configuration and its three objective
/// scores (so penalties can be read across columns).
#[derive(Debug, Clone)]
pub struct Best {
    pub config: TuningConfig,
    pub virtual_ns: f64,
    pub joules: f64,
    pub edp_js: f64,
}

impl Best {
    fn of(sample: &RawSample) -> Best {
        let t = &sample.telemetry;
        Best {
            config: sample.config,
            virtual_ns: t.virtual_ns,
            joules: t.energy.total_j,
            edp_js: t.energy.edp_js(t.virtual_ns),
        }
    }
}

/// One architecture's verdict: the three optima over its slice and the
/// per-variable energy spread.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub arch: Arch,
    /// Priced samples the optima were picked from.
    pub samples: usize,
    pub time_best: Best,
    pub energy_best: Best,
    pub edp_best: Best,
    /// Per-variable marginal energy spread in joules, [`Variable::ALL`]
    /// order: `ompprof attribute`'s `spread_j` over the same slice.
    pub energy_spread_j: Vec<f64>,
}

impl Verdict {
    /// Reduce a swept slice to its verdict.
    pub fn of(slice: &ReportSlice) -> Result<Verdict, String> {
        let priced: Vec<&RawSample> = slice
            .data
            .samples
            .iter()
            .filter(|s| s.telemetry.energy.total_j.is_finite() && s.telemetry.energy.total_j > 0.0)
            .collect();
        if priced.is_empty() {
            let (arch, app) = (slice.arch.id(), slice.app.name);
            return Err(format!("no priced samples for {arch}/{app}"));
        }
        let best_by = |key: fn(&Best) -> f64| {
            priced
                .iter()
                .map(|s| Best::of(s))
                .min_by(|a, b| key(a).total_cmp(&key(b)))
                .expect("non-empty")
        };
        let mut attribution = Attribution::new();
        attribution.fold_batch(&slice.data);
        Ok(Verdict {
            arch: slice.arch,
            samples: priced.len(),
            time_best: best_by(|b| b.virtual_ns),
            energy_best: best_by(|b| b.joules),
            edp_best: best_by(|b| b.edp_js),
            energy_spread_j: (0..Variable::ALL.len())
                .map(|i| attribution.spread_energy_j(i))
                .collect(),
        })
    }

    /// Whether the time optimum and the energy optimum are different
    /// configurations.
    pub fn disagree(&self) -> bool {
        self.time_best.config != self.energy_best.config
    }

    /// Joules the time optimum burns relative to the energy optimum
    /// (`>= 1`; `1.0` when they agree).
    pub fn energy_penalty(&self) -> f64 {
        self.time_best.joules / self.energy_best.joules.max(f64::MIN_POSITIVE)
    }

    /// Virtual time the energy optimum pays relative to the time optimum
    /// (`>= 1`; `1.0` when they agree).
    pub fn time_penalty(&self) -> f64 {
        self.energy_best.virtual_ns / self.time_best.virtual_ns.max(f64::MIN_POSITIVE)
    }
}

/// One verdict per architecture that runs the application.
#[derive(Debug, Clone)]
pub struct Report {
    pub app: String,
    pub scope: usize,
    pub seed: u64,
    pub verdicts: Vec<Verdict>,
}

impl Report {
    /// Sweep `app`'s report slice on every architecture that runs it.
    pub fn sweep(app: &str, scope: usize, opts: &SweepOptions) -> Result<Report, String> {
        workloads::app(app).ok_or_else(|| format!("unknown app {app:?}"))?;
        let mut report = Report {
            app: app.to_string(),
            scope,
            seed: 0,
            verdicts: Vec::new(),
        };
        for arch in Arch::ALL {
            if workloads::available_on(app, arch) {
                let slice = ReportSlice::sweep(arch, app, scope, opts)?;
                report.seed = slice.spec.seed;
                report.verdicts.push(Verdict::of(&slice)?);
            }
        }
        Ok(report)
    }

    /// Architectures where the energy optimum is not the time optimum.
    pub fn disagreements(&self) -> usize {
        self.verdicts.iter().filter(|v| v.disagree()).count()
    }

    /// The energy-vs-time disagreement table in the exact markdown shape
    /// EXPERIMENTS.md embeds.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| arch | app | time-opt (ms) | energy-opt vs time-opt | EDP-opt vs time-opt | \
             time-opt burns | energy-opt costs | verdict |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|---|\n");
        for v in &self.verdicts {
            out.push_str(&format!(
                "| {} | {} | {:.3} ({:.3} J) | {} | {} | {:.2}x joules | {:.2}x time | {} |\n",
                v.arch.id(),
                self.app,
                v.time_best.virtual_ns * 1e-6,
                v.time_best.joules,
                config_delta(&v.time_best.config, &v.energy_best.config),
                config_delta(&v.time_best.config, &v.edp_best.config),
                v.energy_penalty(),
                v.time_penalty(),
                if v.disagree() { "DISAGREE" } else { "agree" }
            ));
        }
        out
    }

    /// The machine-readable report, hand-rolled deterministic JSON (same
    /// convention as the attribution export).
    pub fn json(&self) -> String {
        let best_json = |b: &Best| {
            format!(
                "{{\"config\": \"{}\", \"virtual_ns\": {:.3}, \"joules\": {:.9}, \"edp_js\": {:.9}}}",
                b.config.describe(),
                b.virtual_ns,
                b.joules,
                b.edp_js
            )
        };
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"ompprof-energy-v1\",\n");
        out.push_str(&format!(
            "  \"app\": \"{}\",\n  \"scope\": {},\n  \"seed\": {},\n  \"disagreements\": {},\n",
            self.app,
            self.scope,
            self.seed,
            self.disagreements()
        ));
        out.push_str("  \"arches\": [\n");
        for (i, v) in self.verdicts.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"arch\": \"{}\", \"samples\": {}, \"disagree\": {}, \
                 \"energy_penalty\": {:.6}, \"time_penalty\": {:.6},\n",
                v.arch.id(),
                v.samples,
                v.disagree(),
                v.energy_penalty(),
                v.time_penalty()
            ));
            out.push_str(&format!(
                "     \"time_best\": {},\n     \"energy_best\": {},\n     \"edp_best\": {},\n",
                best_json(&v.time_best),
                best_json(&v.energy_best),
                best_json(&v.edp_best)
            ));
            let spread = Variable::ALL.iter().zip(&v.energy_spread_j);
            let spread: Vec<String> = spread
                .map(|(f, j)| format!("\"{}\": {j:.9}", f.env_name()))
                .collect();
            let comma = if i + 1 < self.verdicts.len() { "," } else { "" };
            out.push_str(&format!(
                "     \"energy_spread_j\": {{{}}}}}{comma}\n",
                spread.join(", ")
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The tuning-variable settings where `to` departs from `from`, as a
/// compact `var: a->b` list; `"= time-opt"` when identical. This is the
/// readable core of the disagreement table — it names exactly the knobs
/// the objectives fight over.
pub fn config_delta(from: &TuningConfig, to: &TuningConfig) -> String {
    let mut deltas: Vec<String> = Variable::ALL
        .iter()
        .filter_map(|&v| {
            let (a, b) = (from.label(v), to.label(v));
            (a != b).then(|| format!("{}: {a}->{b}", v.key()))
        })
        .collect();
    if from.num_threads != to.num_threads {
        deltas.push(format!("threads: {}->{}", from.num_threads, to.num_threads));
    }
    if deltas.is_empty() {
        "= time-opt".to_string()
    } else {
        deltas.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        Report::sweep("cg", 200, &SweepOptions::new(2)).expect("cg sweeps everywhere")
    }

    #[test]
    fn at_least_one_arch_disagrees_on_cg() {
        let r = report();
        assert!(!r.verdicts.is_empty());
        assert!(
            r.disagreements() >= 1,
            "power model must make time- and energy-optima diverge somewhere:\n{}",
            r.markdown()
        );
        for v in &r.verdicts {
            assert!(v.energy_penalty() >= 1.0 - 1e-12, "{}", v.arch.id());
            assert!(v.time_penalty() >= 1.0 - 1e-12, "{}", v.arch.id());
            if v.disagree() {
                // Disagreement must be substantive: the time optimum
                // pays a real joule premium over the energy optimum.
                assert!(
                    v.energy_penalty() > 1.0,
                    "{} disagrees but pays no energy premium",
                    v.arch.id()
                );
            }
        }
    }

    #[test]
    fn optima_really_are_optima() {
        let slice = ReportSlice::sweep(Arch::Milan, "cg", 150, &SweepOptions::new(2)).unwrap();
        let v = Verdict::of(&slice).unwrap();
        assert!(v.time_best.virtual_ns <= v.energy_best.virtual_ns);
        assert!(v.time_best.virtual_ns <= v.edp_best.virtual_ns);
        assert!(v.energy_best.joules <= v.time_best.joules);
        assert!(v.energy_best.joules <= v.edp_best.joules);
        assert!(v.edp_best.edp_js <= v.time_best.edp_js);
        assert!(v.edp_best.edp_js <= v.energy_best.edp_js);
    }

    #[test]
    fn artifacts_are_deterministic_and_well_formed() {
        let r = report();
        let md = r.markdown();
        assert!(md.starts_with("| arch |"));
        assert_eq!(md.lines().count(), 2 + r.verdicts.len());
        assert!(md.contains("DISAGREE"));

        let json = r.json();
        assert!(json.contains("\"schema\": \"ompprof-energy-v1\""));
        assert!(json.contains("\"energy_spread_j\""));
        assert_eq!(json, r.json());
    }

    #[test]
    fn config_delta_names_the_contested_knobs() {
        // The strings are the ones the parent of the variable table wrote.
        let from = TuningConfig::default_for(Arch::Milan, 96);
        assert_eq!(config_delta(&from, &from), "= time-opt");
        let to = omptune_core::ConfigSpace::new(Arch::Milan, 24).get(4861);
        assert_eq!(
            config_delta(&from, &to.unwrap()),
            "places: unset->ll_caches, sched: static->guided, lib: throughput->turnaround, \
             blocktime: 200->0, red: unset->atomic, align: 64->128, threads: 96->24"
        );
        let mut bound = from;
        bound.proc_bind = omptune_core::OmpProcBind::Close;
        assert_eq!(config_delta(&from, &bound), "bind: unset->close");
    }
}
