//! Two-run drift: [`compare`](crate::compare) fed from two run
//! directories' datasets.
//!
//! Each run directory (as written by `collect`) carries its cleaned
//! batches in `raw_batches.json`; [`sweep::series::fold_stratum_series`]
//! turns them into the per-stratum series. The two runs are paired on
//! those names ([`sweep::series::all_stratum_series`]): a name neither
//! run has is no row, and one that only one run has is a row that
//! drifts.

use serde::Serialize;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::{compare, SeriesPair, SeriesRow};
use sweep::series::{all_stratum_series, fold_stratum_series};

/// A run's stratum series by name, each name's points in run order.
pub type RunSeries = BTreeMap<String, Vec<f64>>;

/// Context of one run directory, from its `manifest.json`.
#[derive(Debug, Clone, Serialize)]
pub struct RunContext {
    /// The run directory as given.
    pub dir: String,
    /// Sweep scope from the manifest (`"?"` when absent).
    pub scope: String,
    /// Master seed from the manifest.
    pub seed: Option<u64>,
    /// Post-cleaning sample count from the manifest.
    pub total_samples: Option<u64>,
}

impl RunContext {
    fn read(dir: &Path) -> RunContext {
        // The manifest is context, not evidence: a run directory whose
        // manifest is missing or unreadable still compares by series.
        let manifest = std::fs::read(dir.join("manifest.json"))
            .and_then(|bytes| sweep::read_manifest(&bytes))
            .ok();
        RunContext {
            dir: dir.display().to_string(),
            scope: manifest
                .as_ref()
                .map_or_else(|| "?".to_string(), |m| m.scope.clone()),
            seed: manifest.as_ref().map(|m| m.seed),
            total_samples: manifest.as_ref().map(|m| m.total_samples as u64),
        }
    }
}

/// The full comparison.
#[derive(Debug, Clone, Serialize)]
pub struct DriftReport {
    pub run_a: RunContext,
    pub run_b: RunContext,
    /// Family-wise significance level the gate ran at.
    pub alpha: f64,
    /// Size of the Holm family (testable, non-identical rows).
    pub family: usize,
    pub rows: Vec<SeriesRow>,
    /// The verdict: any row drifted.
    pub drift: bool,
}

/// Compare two run directories' per-stratum series. `alpha` is the
/// family-wise level (0.05 is the paper's). One run's batches are in
/// memory at a time: each is folded and dropped before the next is read.
pub fn drift_report(dir_a: &Path, dir_b: &Path, alpha: f64) -> io::Result<DriftReport> {
    let a = run_series(dir_a)?;
    let b = run_series(dir_b)?;
    let (run_a, run_b) = (RunContext::read(dir_a), RunContext::read(dir_b));
    Ok(drift_between(run_a, a, run_b, b, alpha))
}

/// The stratum series of the run in `dir`, folded from its
/// `raw_batches.json`.
fn run_series(dir: &Path) -> io::Result<RunSeries> {
    let path = dir.join("raw_batches.json");
    let named = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
    let batches = sweep::export::read_raw_json(&std::fs::read(&path).map_err(named)?);
    Ok(fold_stratum_series(&batches.map_err(named)?))
}

/// Pair two runs' series on the stratum names and compare them.
pub fn drift_between(
    run_a: RunContext,
    mut a: RunSeries,
    run_b: RunContext,
    mut b: RunSeries,
    alpha: f64,
) -> DriftReport {
    let pairs = all_stratum_series()
        .into_iter()
        .filter_map(|series| {
            let (a, b) = (a.remove(&series), b.remove(&series));
            (a.is_some() || b.is_some()).then_some(SeriesPair { series, a, b })
        })
        .collect();
    let (rows, family) = compare(pairs, alpha);
    DriftReport {
        run_a,
        run_b,
        alpha,
        family,
        drift: rows.iter().any(|r| r.drift),
        rows,
    }
}

impl DriftReport {
    /// Fixed-width verdict table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "drift: {} (scope {}, seed {}) vs {} (scope {}, seed {})\n",
            self.run_a.dir,
            self.run_a.scope,
            fmt_opt(self.run_a.seed),
            self.run_b.dir,
            self.run_b.scope,
            fmt_opt(self.run_b.seed),
        ));
        out.push_str(&format!(
            "alpha {} (Holm over {} tests)\n\n",
            self.alpha, self.family
        ));
        out.push_str(&format!(
            "{:<28} {:>5} {:>12} {:>12} {:>9} {:>9}  {}\n",
            "SERIES", "N", "MEAN_A", "MEAN_B", "P", "P_HOLM", "VERDICT"
        ));
        for r in &self.rows {
            let note = if r.note.is_empty() { "-" } else { &r.note };
            let verdict = if r.drift {
                "DRIFT".to_string()
            } else {
                format!("OK ({note})")
            };
            out.push_str(&format!(
                "{:<28} {:>5} {:>12} {:>12} {:>9} {:>9}  {}\n",
                r.series,
                r.n,
                fmt_num(r.mean_a),
                fmt_num(r.mean_b),
                r.p_raw.map(fmt_p).unwrap_or_else(|| "-".to_string()),
                r.p_holm.map(fmt_p).unwrap_or_else(|| "-".to_string()),
                verdict,
            ));
        }
        out.push_str(&format!(
            "\nVERDICT: {}\n",
            if self.drift { "DRIFT" } else { "OK" }
        ));
        out
    }
}

fn fmt_opt(v: Option<u64>) -> String {
    v.map(|x| x.to_string()).unwrap_or_else(|| "?".to_string())
}

fn fmt_num(x: f64) -> String {
    if x.is_nan() {
        "-".to_string()
    } else if x != 0.0 && (x.abs() >= 1e6 || x.abs() < 1e-3) {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

fn fmt_p(p: f64) -> String {
    if p < 1e-4 {
        format!("{p:.1e}")
    } else {
        format!("{p:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh run directory, removed again when the test ends.
    struct RunDir(PathBuf);

    impl RunDir {
        fn new(tag: &str) -> RunDir {
            let name = format!("ompobs-drift-{tag}-{}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            RunDir(dir)
        }
    }

    impl Drop for RunDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn context(name: &str) -> RunContext {
        RunContext {
            dir: name.to_string(),
            scope: "?".to_string(),
            seed: None,
            total_samples: None,
        }
    }

    fn series(named: &[(&str, &[f64])]) -> RunSeries {
        named
            .iter()
            .map(|(name, values)| (name.to_string(), values.to_vec()))
            .collect()
    }

    fn drift(a: RunSeries, b: RunSeries) -> DriftReport {
        drift_between(context("a"), a, context("b"), b, 0.05)
    }

    fn row<'r>(report: &'r DriftReport, series: &str) -> &'r SeriesRow {
        report.rows.iter().find(|r| r.series == series).unwrap()
    }

    #[test]
    fn identical_runs_report_ok() {
        let values: Vec<f64> = (0..40).map(|i| 1000.0 + i as f64).collect();
        let run = || series(&[("skylake/virt/s0", &values)]);
        let report = drift(run(), run());
        assert!(!report.drift);
        assert_eq!(report.family, 0, "identical rows leave the family empty");
        let gate = row(&report, "skylake/virt/s0");
        assert!(gate.identical && !gate.drift);
        assert!(report.render().contains("VERDICT: OK"));
    }

    #[test]
    fn systematic_slowdown_is_drift() {
        let base: Vec<f64> = (0..40).map(|i| 1000.0 + (i as f64) * 3.0).collect();
        let slowed: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        let report = drift(
            series(&[("skylake/virt/s0", &base)]),
            series(&[("skylake/virt/s0", &slowed)]),
        );
        assert!(report.drift, "{}", report.render());
        let gate = row(&report, "skylake/virt/s0");
        assert!(gate.drift);
        assert!(gate.p_holm.unwrap() < 0.05);
    }

    #[test]
    fn energy_only_shift_is_drift() {
        // The two-run twin of the sentinel's
        // `energy_only_shift_is_a_change_point`: same virtual time,
        // 5% more joules. Only the stratum energy series may flag.
        let virt: Vec<f64> = (0..40).map(|i| 1000.0 + (i as f64) * 3.0).collect();
        let joules: Vec<f64> = virt.iter().map(|v| v * 0.002).collect();
        let more: Vec<f64> = joules.iter().map(|j| j * 1.05).collect();
        let run = |energy: &[f64]| series(&[("a64fx/virt/s0", &virt), ("a64fx/energy/s0", energy)]);
        let report = drift(run(&joules), run(&more));
        assert!(report.drift, "{}", report.render());
        assert!(row(&report, "a64fx/virt/s0").identical);
        assert!(row(&report, "a64fx/energy/s0").drift);
        assert_eq!(report.family, 1);
    }

    #[test]
    fn missing_gating_series_is_structural_drift() {
        let values: &[f64] = &[1.0, 2.0, 3.0];
        let report = drift(
            series(&[("skylake/virt/s0", values), ("skylake/virt/s1", values)]),
            series(&[("skylake/virt/s0", values), ("milan/energy/s7", values)]),
        );
        assert!(report.drift);
        for (series, side) in [("skylake/virt/s1", "B"), ("milan/energy/s7", "A")] {
            let missing = row(&report, series);
            assert!(missing.drift, "{series}");
            let note = &missing.note;
            assert!(note.contains(&format!("missing in run {side}")), "{note}");
        }
    }

    #[test]
    fn tail_alignment_compares_retained_windows() {
        // Run A has 10 extra leading points; the common tail is
        // identical, so no drift.
        let long: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let short: Vec<f64> = (10..50).map(|i| i as f64).collect();
        let report = drift(
            series(&[("skylake/virt/s0", &long)]),
            series(&[("skylake/virt/s0", &short)]),
        );
        assert!(!report.drift, "{}", report.render());
        assert!(report.rows[0].identical);
        assert_eq!(report.rows[0].n, 40);
    }

    #[test]
    fn report_serializes_to_json() {
        let (a, b) = (RunDir::new("json-a"), RunDir::new("json-b"));
        let spec = sweep::SweepSpec {
            scope: sweep::Scope::Strided(300),
            ..sweep::SweepSpec::default()
        };
        let mut manifest = Vec::new();
        sweep::write_manifest(&sweep::RunManifest::new(&spec), &mut manifest).unwrap();
        std::fs::write(a.0.join("manifest.json"), manifest).unwrap();
        // A manifest that is not whole is no manifest: context only.
        std::fs::write(b.0.join("manifest.json"), br#"{"scope":"Strided(300)"}"#).unwrap();
        let run = || series(&[("skylake/virt/s0", &[1.0, 2.0])]);
        let (run_a, run_b) = (RunContext::read(&a.0), RunContext::read(&b.0));
        let report = drift_between(run_a, run(), run_b, run(), 0.05);
        assert_eq!(report.run_a.scope, "Strided(300)");
        assert_eq!(report.run_a.seed, Some(spec.seed));
        assert_eq!(report.run_a.total_samples, Some(0));
        assert_eq!(report.run_b.scope, "?", "the comparison still runs");
        assert_eq!(report.run_b.seed, None);
        let json = serde_json::to_string_pretty(&report).unwrap();
        for field in ["\"run_a\"", "\"family\"", "\"drift\"", "\"note\""] {
            assert!(json.contains(field), "{field} missing from {json}");
        }
        assert!(json.contains("skylake/virt/s0"), "{json}");
    }

    #[test]
    fn two_run_directories_compare_their_datasets() {
        let spec = sweep::SweepSpec {
            scope: sweep::Scope::Strided(1001),
            ..sweep::SweepSpec::default()
        };
        let opts = sweep::SweepOptions::new(2);
        let arch = omptune_core::Arch::Milan;
        let mut batches = sweep::sweep_arch_scheduled(arch, &spec, &opts).batches;
        for data in &mut batches {
            sweep::clean(data, spec.reps as usize);
        }
        let write = |dir: &Path, batches: &[sweep::SettingData]| {
            let mut file = std::fs::File::create(dir.join("raw_batches.json")).unwrap();
            sweep::export::write_raw_json(batches, &mut file).unwrap();
        };
        let (a, b) = (RunDir::new("data-a"), RunDir::new("data-b"));
        write(&a.0, &batches);
        write(&b.0, &batches);
        let report = drift_report(&a.0, &b.0, 0.05).unwrap();
        assert!(!report.drift, "{}", report.render());
        assert!(report.rows.iter().all(|r| r.identical));
        let mut rows: Vec<&str> = report.rows.iter().map(|r| r.series.as_str()).collect();
        rows.sort_unstable();
        let folded = fold_stratum_series(&batches);
        let names: Vec<&str> = folded.keys().map(String::as_str).collect();
        assert!(names.len() > 2, "{names:?}");
        assert_eq!(rows, names);

        // Every repetition 10 % slower: the time strata drift, and the
        // joules, which the scaling did not touch, stay identical.
        for sample in batches.iter_mut().flat_map(|data| &mut data.samples) {
            sample.runtimes.iter_mut().for_each(|t| *t *= 1.10);
        }
        write(&b.0, &batches);
        let report = drift_report(&a.0, &b.0, 0.05).unwrap();
        assert!(report.drift, "{}", report.render());
        for row in &report.rows {
            let slower = row.series.contains("/virt/");
            assert_eq!(row.identical, !slower, "{}", report.render());
        }
    }

    #[test]
    fn a_run_directory_without_its_dataset_is_an_error() {
        let (a, b) = (RunDir::new("none-a"), RunDir::new("none-b"));
        std::fs::write(a.0.join("raw_batches.json"), b"[]").unwrap();
        let err = drift_report(&a.0, &b.0, 0.05).unwrap_err();
        assert!(err.to_string().contains("raw_batches.json"), "{err}");
        // A dataset that does not parse is no dataset either.
        std::fs::write(b.0.join("raw_batches.json"), b"[{").unwrap();
        assert!(drift_report(&a.0, &b.0, 0.05).is_err());
    }
}
