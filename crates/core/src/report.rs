//! Speedup-range summaries (paper Sec. V, research question 1; Tables V
//! and VI).
//!
//! The paper's "speedup range" for a scope is the range of the *maximum*
//! observed speedup over the default, taken across the finer settings the
//! scope contains:
//!
//! - per (application, architecture): the max per *setting* (input size or
//!   thread count) varies over a range — Table V rows,
//! - per application: the max per (architecture, setting) varies — Table
//!   VI rows,
//! - per architecture: the best per (application, setting) varies, and its
//!   median is the architecture's "median improvement" — Sec. V Q1.

use crate::analysis::AnalysisRecord;
use crate::arch::Arch;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifies one experimental setting: the input-size code and thread
/// count under which a config space was swept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SettingKey {
    /// Input-size code scaled by 1000 to stay `Ord` (codes are small).
    pub input_milli: i64,
    pub num_threads: usize,
}

impl SettingKey {
    /// Extract the setting of a record.
    pub fn of(rec: &AnalysisRecord) -> SettingKey {
        SettingKey {
            input_milli: (rec.input_size * 1000.0).round() as i64,
            num_threads: rec.config.num_threads,
        }
    }
}

/// An inclusive speedup range `lo..=hi`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedupRange {
    pub lo: f64,
    pub hi: f64,
}

impl SpeedupRange {
    /// Range spanned by an iterator of values. `None` when empty.
    pub fn over(values: impl IntoIterator<Item = f64>) -> Option<SpeedupRange> {
        let mut it = values.into_iter();
        let first = it.next()?;
        let mut lo = first;
        let mut hi = first;
        for v in it {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some(SpeedupRange { lo, hi })
    }
}

impl std::fmt::Display for SpeedupRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} - {:.3}", self.lo, self.hi)
    }
}

/// The maximum speedup observed per (application, architecture, setting)
/// group — folded once over a record slice, then read by every range
/// below (Tables V–VI, Sec. V Q1).
#[derive(Debug, Clone, PartialEq)]
pub struct SettingMaxima(BTreeMap<(String, Arch, SettingKey), f64>);

impl SettingMaxima {
    /// One pass over `records`, keyed by the borrowed application name;
    /// only each group's key is copied out, once.
    pub fn of(records: &[AnalysisRecord]) -> SettingMaxima {
        let mut fold: BTreeMap<(&str, Arch, SettingKey), f64> = BTreeMap::new();
        for r in records {
            let e = fold
                .entry((&r.app, r.arch, SettingKey::of(r)))
                .or_insert(f64::NEG_INFINITY);
            if r.speedup > *e {
                *e = r.speedup;
            }
        }
        SettingMaxima(
            fold.into_iter()
                .map(|((app, arch, setting), v)| ((app.to_string(), arch, setting), v))
                .collect(),
        )
    }

    /// Every group's maximum, in (application, architecture, setting)
    /// order.
    fn iter(&self) -> impl Iterator<Item = (&str, Arch, f64)> + '_ {
        self.0
            .iter()
            .map(|((app, arch, _), v)| (app.as_str(), *arch, *v))
    }

    /// The maxima of `app`'s groups, with their architecture.
    fn of_app<'a>(&'a self, app: &'a str) -> impl Iterator<Item = (Arch, f64)> + 'a {
        self.iter().filter(move |g| g.0 == app).map(|g| (g.1, g.2))
    }

    /// Table V: range of per-setting maxima for one (application,
    /// architecture).
    pub fn app_arch_range(&self, app: &str, arch: Arch) -> Option<SpeedupRange> {
        SpeedupRange::over(self.of_app(app).filter(|g| g.0 == arch).map(|g| g.1))
    }

    /// Table VI: range of `app`'s per-(architecture, setting) maxima.
    pub fn app_range(&self, app: &str) -> Option<SpeedupRange> {
        SpeedupRange::over(self.of_app(app).map(|g| g.1))
    }

    /// Sec. V Q1 for one architecture. `None` when it has no records.
    pub fn arch_summary(&self, arch: Arch) -> Option<ArchSummary> {
        let vals: Vec<f64> = self.iter().filter(|g| g.1 == arch).map(|g| g.2).collect();
        let range = SpeedupRange::over(vals.iter().copied())?;
        Some(ArchSummary {
            arch,
            range,
            median_improvement: mlstats::median(&vals),
            n_groups: vals.len(),
        })
    }
}

/// Per-architecture summary for Sec. V Q1: the range of highest observed
/// speedups across (application, setting) groups, and their median.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchSummary {
    pub arch: Arch,
    pub range: SpeedupRange,
    pub median_improvement: f64,
    /// Number of (application, setting) groups summarized.
    pub n_groups: usize,
}

/// Whether two configurations set the same seven environment variables
/// (thread count excluded — it is part of the *setting*, not the knobs,
/// and differs across machines).
pub fn same_knobs(a: &crate::config::TuningConfig, b: &crate::config::TuningConfig) -> bool {
    crate::config::TuningConfig {
        num_threads: b.num_threads,
        ..*a
    } == *b
}

/// One cell of the best-config transfer analysis (the markers of the
/// paper's Fig. 1 and research question 2): how well does the best
/// configuration of a *source* cell perform when transplanted into a
/// *target* cell?
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    pub source_arch: Arch,
    pub target_arch: Arch,
    /// Speedup the source's best knobs achieve in the target cell.
    pub speedup_at_target: f64,
    /// Fraction of the target cell's samples this config beats
    /// (1.0 = still the best, 0.5 = median).
    pub percentile: f64,
}

/// For one application, take each architecture's best configuration
/// (over all settings) and evaluate where it lands in every other
/// architecture's sample distribution. Cells whose knob combination was
/// not sampled in the target (e.g. an x86-only alignment on A64FX) are
/// omitted — exactly the holes the paper's markers leave.
pub fn transfer_analysis(records: &[AnalysisRecord], app: &str) -> Vec<Transfer> {
    let mut out = Vec::new();
    for source_arch in Arch::ALL {
        // The source's single best sample.
        let best = records
            .iter()
            .filter(|r| r.app == app && r.arch == source_arch)
            .max_by(|a, b| a.speedup.partial_cmp(&b.speedup).expect("finite"));
        let Some(best) = best else { continue };
        for target_arch in Arch::ALL {
            let cell: Vec<&AnalysisRecord> = records
                .iter()
                .filter(|r| r.app == app && r.arch == target_arch)
                .collect();
            if cell.is_empty() {
                continue;
            }
            // The same knobs in the target cell (any setting); take the
            // best-performing match so the marker is setting-independent.
            let matched = cell
                .iter()
                .filter(|r| same_knobs(&r.config, &best.config))
                .max_by(|a, b| a.speedup.partial_cmp(&b.speedup).expect("finite"));
            let Some(matched) = matched else { continue };
            let beaten = cell.iter().filter(|r| r.speedup <= matched.speedup).count();
            out.push(Transfer {
                source_arch,
                target_arch,
                speedup_at_target: matched.speedup,
                percentile: beaten as f64 / cell.len() as f64,
            });
        }
    }
    out
}

/// The set of distinct applications present in `records`, sorted.
pub fn applications(records: &[AnalysisRecord]) -> Vec<String> {
    let mut apps: Vec<String> = records.iter().map(|r| r.app.clone()).collect();
    apps.sort();
    apps.dedup();
    apps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TuningConfig;

    fn rec(app: &str, arch: Arch, input: f64, threads: usize, speedup: f64) -> AnalysisRecord {
        AnalysisRecord {
            arch,
            app: app.into(),
            input_size: input,
            config: TuningConfig::default_for(arch, threads),
            speedup,
        }
    }

    #[test]
    fn per_setting_maxima() {
        let records = vec![
            rec("cg", Arch::Milan, 0.0, 96, 1.2),
            rec("cg", Arch::Milan, 0.0, 96, 1.5),
            rec("cg", Arch::Milan, 1.0, 96, 1.1),
        ];
        let maxima = SettingMaxima::of(&records);
        let vals: Vec<f64> = maxima.iter().map(|g| g.2).collect();
        assert_eq!(vals, [1.5, 1.1]);
    }

    #[test]
    fn app_arch_range_spans_settings() {
        let records = vec![
            rec("alignment", Arch::A64fx, 0.0, 48, 1.032),
            rec("alignment", Arch::A64fx, 1.0, 48, 1.101),
            rec("alignment", Arch::A64fx, 2.0, 48, 1.07),
        ];
        let r = SettingMaxima::of(&records)
            .app_arch_range("alignment", Arch::A64fx)
            .unwrap();
        assert_eq!(r.lo, 1.032);
        assert_eq!(r.hi, 1.101);
    }

    #[test]
    fn app_range_spans_architectures() {
        let records = vec![
            rec("xsbench", Arch::A64fx, 0.0, 48, 1.015),
            rec("xsbench", Arch::Milan, 0.0, 96, 2.602),
            rec("xsbench", Arch::Skylake, 0.0, 40, 1.002),
        ];
        let r = SettingMaxima::of(&records).app_range("xsbench").unwrap();
        assert_eq!(r.lo, 1.002);
        assert_eq!(r.hi, 2.602);
    }

    #[test]
    fn arch_summary_median() {
        let records = vec![
            rec("a", Arch::Milan, 0.0, 96, 1.1),
            rec("b", Arch::Milan, 0.0, 96, 1.15),
            rec("c", Arch::Milan, 0.0, 96, 2.6),
        ];
        let s = SettingMaxima::of(&records)
            .arch_summary(Arch::Milan)
            .unwrap();
        assert_eq!(s.n_groups, 3);
        assert_eq!(s.median_improvement, 1.15);
        assert_eq!(s.range.lo, 1.1);
        assert_eq!(s.range.hi, 2.6);
    }

    #[test]
    fn missing_scope_is_none() {
        let maxima = SettingMaxima::of(&[rec("cg", Arch::Milan, 0.0, 96, 1.0)]);
        assert!(maxima.app_arch_range("cg", Arch::A64fx).is_none());
        assert!(maxima.app_range("ft").is_none());
        assert!(maxima.arch_summary(Arch::Skylake).is_none());
    }

    #[test]
    fn range_display_format() {
        let r = SpeedupRange {
            lo: 1.022,
            hi: 1.186,
        };
        assert_eq!(r.to_string(), "1.022 - 1.186");
    }

    #[test]
    fn same_knobs_ignores_thread_count() {
        let a = TuningConfig::default_for(Arch::A64fx, 48);
        let mut b = TuningConfig::default_for(Arch::A64fx, 12);
        assert!(same_knobs(&a, &b));
        b.schedule = crate::envvar::OmpSchedule::Guided;
        assert!(!same_knobs(&a, &b));
    }

    #[test]
    fn transfer_tracks_best_config_across_archs() {
        // milan's best (speedup 2.0) also exists on skylake where it is
        // mediocre; skylake's best is its default.
        let mut milan_best = TuningConfig::default_for(Arch::Milan, 96);
        milan_best.schedule = crate::envvar::OmpSchedule::Guided;
        let mut skl_same = TuningConfig::default_for(Arch::Skylake, 40);
        skl_same.schedule = crate::envvar::OmpSchedule::Guided;
        let records = vec![
            AnalysisRecord {
                arch: Arch::Milan,
                app: "x".into(),
                input_size: 0.0,
                config: milan_best,
                speedup: 2.0,
            },
            AnalysisRecord {
                arch: Arch::Milan,
                app: "x".into(),
                input_size: 0.0,
                config: TuningConfig::default_for(Arch::Milan, 96),
                speedup: 1.0,
            },
            AnalysisRecord {
                arch: Arch::Skylake,
                app: "x".into(),
                input_size: 0.0,
                config: skl_same,
                speedup: 0.9,
            },
            AnalysisRecord {
                arch: Arch::Skylake,
                app: "x".into(),
                input_size: 0.0,
                config: TuningConfig::default_for(Arch::Skylake, 40),
                speedup: 1.0,
            },
        ];
        let transfers = transfer_analysis(&records, "x");
        let find = |s: Arch, t: Arch| {
            transfers
                .iter()
                .find(|tr| tr.source_arch == s && tr.target_arch == t)
                .expect("transfer present")
        };
        // Self-transfer: still the best.
        assert_eq!(find(Arch::Milan, Arch::Milan).percentile, 1.0);
        // Milan's best is the worse config on skylake.
        assert_eq!(find(Arch::Milan, Arch::Skylake).speedup_at_target, 0.9);
        assert_eq!(find(Arch::Milan, Arch::Skylake).percentile, 0.5);
        // No a64fx data: no transfers to/from it.
        assert!(transfers.iter().all(|t| t.source_arch != Arch::A64fx));
    }

    #[test]
    fn applications_sorted_unique() {
        let records = vec![
            rec("ft", Arch::Milan, 0.0, 96, 1.0),
            rec("cg", Arch::Milan, 0.0, 96, 1.0),
            rec("ft", Arch::A64fx, 0.0, 48, 1.0),
        ];
        assert_eq!(
            applications(&records),
            vec!["cg".to_string(), "ft".to_string()]
        );
    }
}
