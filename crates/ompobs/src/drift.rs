//! Two-run drift: [`compare`](crate::compare) fed from two run
//! directories' `tsdb/` rings.
//!
//! Each run directory (as written by `collect`) carries a `tsdb/` of
//! ring-file series. The two runs are paired on the per-stratum names
//! ([`sweep::series::all_stratum_series`]): a name neither run recorded
//! is no row, one that only one run recorded is a row that drifts, and
//! any other ring in the directory is not read.

use serde::Serialize;
use std::io;
use std::path::Path;

use crate::{compare, SeriesPair, SeriesRow};
use omptel::tsdb::Tsdb;
use sweep::series::all_stratum_series;

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
/// family-wise level (0.05 is the paper's).
pub fn drift_report(dir_a: &Path, dir_b: &Path, alpha: f64) -> io::Result<DriftReport> {
    let tsdb_a = dir_a.join("tsdb");
    let tsdb_b = dir_b.join("tsdb");
    let series_a = Tsdb::series(&tsdb_a)?;
    let series_b = Tsdb::series(&tsdb_b)?;
    let names = all_stratum_series()
        .into_iter()
        .filter(|name| series_a.contains(name) || series_b.contains(name));

    let values = |tsdb: &Path, recorded: &[String], series: &String| -> io::Result<_> {
        if !recorded.contains(series) {
            return Ok(None);
        }
        let (points, _) = Tsdb::read(tsdb, series)?;
        Ok(Some(points.iter().map(omptel::Point::value).collect()))
    };
    let pairs = names
        .map(|series| {
            Ok(SeriesPair {
                a: values(&tsdb_a, &series_a, &series)?,
                b: values(&tsdb_b, &series_b, &series)?,
                series,
            })
        })
        .collect::<io::Result<Vec<SeriesPair>>>()?;
    let (rows, family) = compare(pairs, alpha);
    Ok(DriftReport {
        run_a: RunContext::read(dir_a),
        run_b: RunContext::read(dir_b),
        alpha,
        family,
        drift: rows.iter().any(|r| r.drift),
        rows,
    })
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
    use omptel::Point;
    use std::path::PathBuf;

    /// Two fresh run directories, removed again when the test ends.
    struct Runs {
        a: PathBuf,
        b: PathBuf,
    }

    fn runs(tag: &str) -> Runs {
        let [a, b] = ["a", "b"].map(|side| {
            let name = format!("ompobs-drift-{tag}-{side}-{}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            dir
        });
        Runs { a, b }
    }

    impl Drop for Runs {
        fn drop(&mut self) {
            for dir in [&self.a, &self.b] {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    fn write_series(dir: &Path, series: &str, values: &[f64]) {
        let mut db = Tsdb::open(dir.join("tsdb"), 1024).unwrap();
        for (i, &v) in values.iter().enumerate() {
            db.append(series, Point::single(i as u64, v)).unwrap();
        }
    }

    fn row<'r>(report: &'r DriftReport, series: &str) -> &'r SeriesRow {
        report.rows.iter().find(|r| r.series == series).unwrap()
    }

    #[test]
    fn identical_runs_report_ok() {
        let Runs { a, b } = &runs("id");
        let values: Vec<f64> = (0..40).map(|i| 1000.0 + i as f64).collect();
        for dir in [a, b] {
            write_series(dir, "skylake/virt/s0", &values);
        }
        let report = drift_report(a, b, 0.05).unwrap();
        assert!(!report.drift);
        assert_eq!(report.family, 0, "identical rows leave the family empty");
        let gate = row(&report, "skylake/virt/s0");
        assert!(gate.identical && !gate.drift);
        assert!(report.render().contains("VERDICT: OK"));
    }

    #[test]
    fn a_stray_ring_beside_the_strata_is_not_read() {
        // A run directory an older `collect` wrote into still holds its
        // wall-clock ring; against a clean twin only the strata pair up.
        let Runs { a, b } = &runs("stray");
        let values: Vec<f64> = (0..40).map(|i| 1000.0 + i as f64).collect();
        let wall: Vec<f64> = (0..40).map(|i| 500.0 + ((i * 7) % 13) as f64).collect();
        for dir in [a, b] {
            write_series(dir, "skylake/virt/s0", &values);
            write_series(dir, "skylake/energy/s0", &values);
        }
        write_series(a, "skylake/wall/sample_ns", &wall);
        let report = drift_report(a, b, 0.05).unwrap();
        assert!(!report.drift, "{}", report.render());
        let names: Vec<&str> = report.rows.iter().map(|r| r.series.as_str()).collect();
        assert_eq!(names, ["skylake/virt/s0", "skylake/energy/s0"]);
        assert!(report.render().contains("VERDICT: OK"));
    }

    #[test]
    fn systematic_slowdown_is_drift() {
        let Runs { a, b } = &runs("slow");
        let base: Vec<f64> = (0..40).map(|i| 1000.0 + (i as f64) * 3.0).collect();
        let slowed: Vec<f64> = base.iter().map(|v| v * 1.05).collect();
        write_series(a, "skylake/virt/s0", &base);
        write_series(b, "skylake/virt/s0", &slowed);
        let report = drift_report(a, b, 0.05).unwrap();
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
        let Runs { a, b } = &runs("energy");
        let virt: Vec<f64> = (0..40).map(|i| 1000.0 + (i as f64) * 3.0).collect();
        let joules: Vec<f64> = virt.iter().map(|v| v * 0.002).collect();
        let more: Vec<f64> = joules.iter().map(|j| j * 1.05).collect();
        for (dir, energy) in [(a, &joules), (b, &more)] {
            write_series(dir, "a64fx/virt/s0", &virt);
            write_series(dir, "a64fx/energy/s0", energy);
        }
        let report = drift_report(a, b, 0.05).unwrap();
        assert!(report.drift, "{}", report.render());
        assert!(row(&report, "a64fx/virt/s0").identical);
        assert!(row(&report, "a64fx/energy/s0").drift);
        assert_eq!(report.family, 1);
    }

    #[test]
    fn missing_gating_series_is_structural_drift() {
        let Runs { a, b } = &runs("miss");
        let values = [1.0, 2.0, 3.0];
        write_series(a, "skylake/virt/s0", &values);
        write_series(a, "skylake/virt/s1", &values);
        write_series(b, "skylake/virt/s0", &values);
        write_series(b, "milan/energy/s7", &values);
        let report = drift_report(a, b, 0.05).unwrap();
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
        let Runs { a, b } = &runs("tail");
        // Run A retained 10 extra leading points; the common tail is
        // identical, so no drift.
        let long: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let short: Vec<f64> = (10..50).map(|i| i as f64).collect();
        write_series(a, "skylake/virt/s0", &long);
        write_series(b, "skylake/virt/s0", &short);
        let report = drift_report(a, b, 0.05).unwrap();
        assert!(!report.drift, "{}", report.render());
        assert!(report.rows[0].identical);
        assert_eq!(report.rows[0].n, 40);
    }

    #[test]
    fn report_serializes_to_json() {
        let Runs { a, b } = &runs("json");
        write_series(a, "skylake/virt/s0", &[1.0, 2.0]);
        write_series(b, "skylake/virt/s0", &[1.0, 2.0]);
        let spec = sweep::SweepSpec {
            scope: sweep::Scope::Strided(300),
            ..sweep::SweepSpec::default()
        };
        let mut manifest = Vec::new();
        sweep::write_manifest(&sweep::RunManifest::new(&spec), &mut manifest).unwrap();
        std::fs::write(a.join("manifest.json"), manifest).unwrap();
        // A manifest that is not whole is no manifest: context only.
        std::fs::write(b.join("manifest.json"), br#"{"scope":"Strided(300)"}"#).unwrap();
        let report = drift_report(a, b, 0.05).unwrap();
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
}
