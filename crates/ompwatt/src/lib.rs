//! `ompwatt` — energy as a first-class tuning objective.
//!
//! Every sample the sweep harness produces already carries a modeled
//! [`omptel::EnergyBreakdown`] priced by the deterministic per-arch
//! power model. This crate answers the question that telemetry exists
//! for: *does tuning for time and tuning for energy pick the same
//! configuration?* For each architecture it finds the time-optimal,
//! energy-optimal, and EDP-optimal configurations over a strided slice
//! of the tuning space, quantifies the penalty of optimizing the wrong
//! objective, and renders the per-(arch, variable) energy-influence
//! heat map.
//!
//! The disagreement is mechanical, not incidental: a spin-waiting
//! configuration (`KMP_LIBRARY=turnaround`, long `KMP_BLOCKTIME`)
//! wakes threads cheaply and wins on time, but burns near-active power
//! through every wait; a parking configuration idles those cores and
//! wins on joules. The report makes that trade visible per arch.

use omptune_core::{Arch, TuningConfig, Variable};
use sweep::{RawSample, ReportSlice, SettingData, SweepOptions, SweepSpec};

/// One objective's winning configuration and its three objective
/// scores (so penalties can be read across columns).
#[derive(Debug, Clone)]
pub struct Best {
    pub config: TuningConfig,
    pub virtual_ns: f64,
    pub joules: f64,
    pub edp_js: f64,
}

fn score(sample: &RawSample) -> Best {
    let t = &sample.telemetry;
    Best {
        config: sample.config,
        virtual_ns: t.virtual_ns,
        joules: t.energy.total_j,
        edp_js: t.energy.edp_js(t.virtual_ns),
    }
}

/// The per-arch verdict: the three optima, whether time and energy
/// disagree, and the price of choosing the wrong objective.
#[derive(Debug, Clone)]
pub struct ArchVerdict {
    pub arch: Arch,
    pub app: String,
    pub samples: usize,
    pub time_best: Best,
    pub energy_best: Best,
    pub edp_best: Best,
    /// `true` when the time optimum and the energy optimum are
    /// different configurations.
    pub disagree: bool,
    /// Joules the time-optimal configuration burns relative to the
    /// energy optimum (`>= 1`; `1.0` when they agree).
    pub energy_penalty: f64,
    /// Virtual time the energy-optimal configuration pays relative to
    /// the time optimum (`>= 1`; `1.0` when they agree).
    pub time_penalty: f64,
    /// Per-variable marginal energy spread in joules,
    /// [`Variable::ALL`] order — the heat-map row.
    pub energy_spread_j: Vec<f64>,
}

/// The whole report: one verdict per analyzed architecture.
#[derive(Debug, Clone)]
pub struct Report {
    pub app: String,
    pub scope: usize,
    pub seed: u64,
    pub verdicts: Vec<ArchVerdict>,
}

impl Report {
    /// Architectures where the energy optimum is not the time optimum.
    pub fn disagreements(&self) -> usize {
        self.verdicts.iter().filter(|v| v.disagree).count()
    }
}

/// Sweep the report slice of `app` on `arch` (`sweep::ReportSlice`, the
/// slice `ompprof` profiles) and reduce it to an [`ArchVerdict`].
pub fn analyze_arch(
    arch: Arch,
    app_name: &str,
    scope: usize,
    workers: usize,
) -> Result<ArchVerdict, String> {
    let slice = ReportSlice::sweep(arch, app_name, scope, &SweepOptions::new(workers))?;
    verdict_from_slice(arch, app_name, &slice.data)
}

/// Reduce one sweep slice to its verdict (separated from the sweep so
/// tests can feed canned slices).
pub fn verdict_from_slice(
    arch: Arch,
    app_name: &str,
    data: &SettingData,
) -> Result<ArchVerdict, String> {
    let priced: Vec<&RawSample> = data
        .samples
        .iter()
        .filter(|s| s.telemetry.energy.total_j.is_finite() && s.telemetry.energy.total_j > 0.0)
        .collect();
    if priced.is_empty() {
        return Err(format!("no priced samples for {}/{app_name}", arch.id()));
    }
    let best_by = |key: fn(&Best) -> f64| {
        priced
            .iter()
            .map(|s| score(s))
            .min_by(|a, b| key(a).total_cmp(&key(b)))
            .expect("non-empty")
    };
    let time_best = best_by(|b| b.virtual_ns);
    let energy_best = best_by(|b| b.joules);
    let edp_best = best_by(|b| b.edp_js);
    let disagree = time_best.config != energy_best.config;

    let mut attribution = ompprof::Attribution::new();
    attribution.fold_batch(data);
    let energy_spread_j = (0..Variable::ALL.len())
        .map(|i| attribution.spread_energy_j(i))
        .collect();

    Ok(ArchVerdict {
        arch,
        app: app_name.to_string(),
        samples: priced.len(),
        energy_penalty: time_best.joules / energy_best.joules.max(f64::MIN_POSITIVE),
        time_penalty: energy_best.virtual_ns / time_best.virtual_ns.max(f64::MIN_POSITIVE),
        time_best,
        energy_best,
        edp_best,
        disagree,
        energy_spread_j,
    })
}

/// Run the analysis on every architecture that has `app`.
pub fn analyze(app_name: &str, scope: usize, workers: usize) -> Result<Report, String> {
    let mut verdicts = Vec::new();
    for arch in Arch::ALL {
        if workloads::available_on(app_name, arch) {
            verdicts.push(analyze_arch(arch, app_name, scope, workers)?);
        }
    }
    if verdicts.is_empty() {
        return Err(format!("{app_name} is not available on any architecture"));
    }
    Ok(Report {
        app: app_name.to_string(),
        scope,
        seed: SweepSpec::default().seed,
        verdicts,
    })
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

/// The energy-vs-time disagreement table in the exact markdown shape
/// EXPERIMENTS.md embeds.
pub fn disagreement_markdown(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(
        "| arch | app | time-opt (ms) | energy-opt vs time-opt | EDP-opt vs time-opt | \
         time-opt burns | energy-opt costs | verdict |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|\n");
    for v in &report.verdicts {
        out.push_str(&format!(
            "| {} | {} | {:.3} ({:.3} J) | {} | {} | {:.2}x joules | {:.2}x time | {} |\n",
            v.arch.id(),
            v.app,
            v.time_best.virtual_ns * 1e-6,
            v.time_best.joules,
            config_delta(&v.time_best.config, &v.energy_best.config),
            config_delta(&v.time_best.config, &v.edp_best.config),
            v.energy_penalty,
            v.time_penalty,
            if v.disagree { "DISAGREE" } else { "agree" }
        ));
    }
    out
}

/// Per-(arch, variable) energy-influence heat map: rows are
/// architectures, columns the tunable environment variables, intensity
/// the marginal energy spread normalized within each row. Hand-rolled
/// SVG, deterministic byte-for-byte.
pub fn heatmap_svg(report: &Report) -> String {
    const CELL_W: f64 = 118.0;
    const CELL_H: f64 = 34.0;
    const LEFT: f64 = 90.0;
    const TOP: f64 = 54.0;
    let cols = Variable::ALL.len();
    let rows = report.verdicts.len();
    let width = LEFT + cols as f64 * CELL_W + 12.0;
    let height = TOP + rows as f64 * CELL_H + 12.0;
    let mut body = String::new();
    for (ci, f) in Variable::ALL.iter().enumerate() {
        body.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\" font-size=\"11\" \
             font-family=\"monospace\">{}</text>\n",
            LEFT + (ci as f64 + 0.5) * CELL_W,
            TOP - 8.0,
            f.env_name()
        ));
    }
    for (ri, v) in report.verdicts.iter().enumerate() {
        let y = TOP + ri as f64 * CELL_H;
        body.push_str(&format!(
            "<text x=\"{:.1}\" y=\"{:.1}\" font-size=\"12\" font-family=\"monospace\" \
             font-weight=\"bold\">{}</text>\n",
            6.0,
            y + CELL_H / 2.0 + 4.0,
            v.arch.id()
        ));
        let row_max = v
            .energy_spread_j
            .iter()
            .copied()
            .fold(f64::MIN_POSITIVE, f64::max);
        for (ci, &spread) in v.energy_spread_j.iter().enumerate() {
            let x = LEFT + ci as f64 * CELL_W;
            let k = (spread / row_max).clamp(0.0, 1.0);
            // White (no influence) to deep amber (row-dominating).
            let g = (235.0 - 130.0 * k) as u32;
            let b = (235.0 - 220.0 * k) as u32;
            body.push_str(&format!(
                "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{:.1}\" \
                 fill=\"rgb(250,{g},{b})\" stroke=\"white\"/>\n",
                x, y, CELL_W, CELL_H
            ));
            body.push_str(&format!(
                "<text x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"middle\" font-size=\"10\" \
                 font-family=\"monospace\">{:.1} mJ</text>\n",
                x + CELL_W / 2.0,
                y + CELL_H / 2.0 + 3.5,
                spread * 1e3
            ));
        }
    }
    format!(
        "<?xml version=\"1.0\" standalone=\"no\"?>\n\
         <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {width} {height}\">\n\
         <rect x=\"0\" y=\"0\" width=\"{width}\" height=\"{height}\" fill=\"#f8f8f8\"/>\n\
         <text x=\"{:.1}\" y=\"20\" text-anchor=\"middle\" font-size=\"14\" \
         font-family=\"monospace\" font-weight=\"bold\">marginal energy spread by tuning \
         variable — {} (strided {})</text>\n{}</svg>\n",
        width / 2.0,
        report.app,
        report.scope,
        body
    )
}

/// Machine-readable report, hand-rolled deterministic JSON (same
/// convention as the ompprof attribution export).
pub fn report_json(report: &Report) -> String {
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
    out.push_str("{\n  \"schema\": \"ompwatt-report-v1\",\n");
    out.push_str(&format!(
        "  \"app\": \"{}\",\n  \"scope\": {},\n  \"seed\": {},\n  \"disagreements\": {},\n",
        report.app,
        report.scope,
        report.seed,
        report.disagreements()
    ));
    out.push_str("  \"arches\": [\n");
    for (i, v) in report.verdicts.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"arch\": \"{}\", \"samples\": {}, \"disagree\": {}, \
             \"energy_penalty\": {:.6}, \"time_penalty\": {:.6},\n",
            v.arch.id(),
            v.samples,
            v.disagree,
            v.energy_penalty,
            v.time_penalty
        ));
        out.push_str(&format!(
            "     \"time_best\": {},\n     \"energy_best\": {},\n     \"edp_best\": {},\n",
            best_json(&v.time_best),
            best_json(&v.energy_best),
            best_json(&v.edp_best)
        ));
        out.push_str("     \"energy_spread_j\": {");
        for (fi, f) in Variable::ALL.iter().enumerate() {
            if fi > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {:.9}",
                f.env_name(),
                v.energy_spread_j[fi]
            ));
        }
        out.push_str(&format!(
            "}}}}{}\n",
            if i + 1 < report.verdicts.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        analyze("cg", 200, 2).expect("cg sweeps everywhere")
    }

    #[test]
    fn at_least_one_arch_disagrees_on_cg() {
        let r = report();
        assert!(!r.verdicts.is_empty());
        assert!(
            r.disagreements() >= 1,
            "power model must make time- and energy-optima diverge somewhere:\n{}",
            disagreement_markdown(&r)
        );
        for v in &r.verdicts {
            assert!(v.energy_penalty >= 1.0 - 1e-12, "{}", v.arch.id());
            assert!(v.time_penalty >= 1.0 - 1e-12, "{}", v.arch.id());
            if v.disagree {
                // Disagreement must be substantive: the time optimum
                // pays a real joule premium over the energy optimum.
                assert!(
                    v.energy_penalty > 1.0,
                    "{} disagrees but pays no energy premium",
                    v.arch.id()
                );
            }
        }
    }

    #[test]
    fn optima_really_are_optima() {
        let v = analyze_arch(Arch::Milan, "cg", 150, 2).unwrap();
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
        let md = disagreement_markdown(&r);
        assert!(md.starts_with("| arch |"));
        assert_eq!(md.lines().count(), 2 + r.verdicts.len());
        assert!(md.contains("DISAGREE"));

        let svg = heatmap_svg(&r);
        assert!(svg.starts_with("<?xml"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("mJ"));
        assert_eq!(svg, heatmap_svg(&r));

        let json = report_json(&r);
        assert!(json.contains("\"schema\": \"ompwatt-report-v1\""));
        assert!(json.contains("\"energy_spread_j\""));
        assert_eq!(json, report_json(&r));
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
