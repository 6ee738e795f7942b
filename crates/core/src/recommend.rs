//! Recommendation extraction (paper Sec. V, research questions 3–4 and
//! Table VII).
//!
//! From the sweep records we derive, per (application, architecture):
//! which variable/value pairs recur among the top-performing
//! configurations (Table VII's "best performing environment variables and
//! values"), and which patterns dominate the *worst* configurations — the
//! paper's headline worst-trend being `master` binding combined with a
//! large thread count (Sec. V Q4).

use crate::analysis::AnalysisRecord;
use crate::arch::Arch;
use crate::config::{EffectiveBind, TuningConfig};
use crate::variable::Variable;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A variable/value pair observed to recur among top configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Environment variable name, e.g. `"KMP_LIBRARY"`.
    pub variable: String,
    /// Recommended value spelling, e.g. `"turnaround"`.
    pub value: String,
    /// Fraction of the inspected top configurations sharing this value.
    pub support: f64,
}

/// Table-VII-style report for one (application, architecture) cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    pub app: String,
    pub arch: Arch,
    /// Best observed speedup over the default.
    pub best_speedup: f64,
    /// The single best configuration.
    pub best_config: TuningConfig,
    /// Variable/value pairs shared by most of the top-k configurations
    /// *and* differing from the default — the actionable advice.
    pub recommendations: Vec<Recommendation>,
}

/// Decompose a config into (variable, value-spelling) pairs for the seven
/// swept variables. `unset` is spelled out so defaults are comparable.
fn pairs(c: &TuningConfig) -> [(&'static str, String); 7] {
    Variable::ALL.map(|v| (v.env_name(), c.label(v).into_owned()))
}

/// Analyze the top-`k` configurations of one (app, arch) group and report
/// variable/value pairs that (a) at least `min_support` of them share and
/// (b) differ from the default configuration. Returns `None` when the
/// group has no records.
pub fn recommend_for(
    records: &[AnalysisRecord],
    app: &str,
    arch: Arch,
    k: usize,
    min_support: f64,
) -> Option<CellReport> {
    let mut group: Vec<&AnalysisRecord> = records
        .iter()
        .filter(|r| r.app == app && r.arch == arch)
        .collect();
    if group.is_empty() {
        return None;
    }
    group.sort_by(|a, b| b.speedup.partial_cmp(&a.speedup).expect("NaN speedup"));
    let top = &group[..k.min(group.len())];
    let best = top[0];

    let default = TuningConfig::default_for(arch, best.config.num_threads);
    let default_pairs = pairs(&default);

    // Count value occurrences per variable among the top-k.
    let mut counts: BTreeMap<(&'static str, String), usize> = BTreeMap::new();
    for rec in top {
        for (var, val) in pairs(&rec.config) {
            *counts.entry((var, val)).or_insert(0) += 1;
        }
    }
    let n = top.len() as f64;
    let mut recommendations: Vec<Recommendation> = counts
        .into_iter()
        .filter_map(|((var, val), cnt)| {
            let support = cnt as f64 / n;
            let is_default = default_pairs
                .iter()
                .any(|(dv, dval)| *dv == var && *dval == val);
            (support >= min_support && !is_default).then_some(Recommendation {
                variable: var.to_string(),
                value: val,
                support,
            })
        })
        .collect();
    recommendations.sort_by(|a, b| {
        b.support
            .partial_cmp(&a.support)
            .expect("support is finite")
            .then_with(|| a.variable.cmp(&b.variable))
    });

    Some(CellReport {
        app: app.to_string(),
        arch,
        best_speedup: best.speedup,
        best_config: best.config,
        recommendations,
    })
}

/// A worst-trend pattern with its prevalence in the bottom-k samples
/// versus the full group (Sec. V Q4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorstTrend {
    /// Human-readable pattern description.
    pub pattern: String,
    /// Fraction of bottom-k samples matching the pattern.
    pub bottom_fraction: f64,
    /// Fraction of *all* samples matching it (base rate).
    pub base_fraction: f64,
}

impl WorstTrend {
    /// Enrichment of the pattern among the worst samples (lift over the
    /// base rate). Values ≫ 1 mark patterns to avoid.
    pub fn lift(&self) -> f64 {
        if self.base_fraction == 0.0 {
            f64::INFINITY
        } else {
            self.bottom_fraction / self.base_fraction
        }
    }
}

/// A named predicate over analysis records.
type Pattern = (&'static str, fn(&AnalysisRecord) -> bool);

/// Patterns the worst-trend analysis screens for. The paper's finding is
/// the first one; the others are controls.
fn patterns() -> Vec<Pattern> {
    vec![
        ("master binding with many threads (> half the cores)", |r| {
            r.config.effective_bind() == EffectiveBind::Master
                && r.config.num_threads > r.arch.cores() / 2
        }),
        ("master binding (any thread count)", |r| {
            r.config.effective_bind() == EffectiveBind::Master
        }),
        ("blocktime 0 (immediate sleep)", |r| {
            r.config.blocktime == crate::envvar::KmpBlocktime::Zero
        }),
        ("dynamic schedule", |r| {
            r.config.schedule == crate::envvar::OmpSchedule::Dynamic
        }),
    ]
}

/// Screen the bottom `k` samples (by speedup) for over-represented
/// configuration patterns. Patterns are returned sorted by lift.
pub fn worst_trends(records: &[AnalysisRecord], k: usize) -> Vec<WorstTrend> {
    if records.is_empty() {
        return Vec::new();
    }
    let mut sorted: Vec<&AnalysisRecord> = records.iter().collect();
    sorted.sort_by(|a, b| a.speedup.partial_cmp(&b.speedup).expect("NaN speedup"));
    let bottom = &sorted[..k.min(sorted.len())];

    let mut out: Vec<WorstTrend> = patterns()
        .into_iter()
        .map(|(name, pred)| {
            let bottom_n = bottom.iter().filter(|r| pred(r)).count();
            let base_n = records.iter().filter(|r| pred(r)).count();
            WorstTrend {
                pattern: name.to_string(),
                bottom_fraction: bottom_n as f64 / bottom.len() as f64,
                base_fraction: base_n as f64 / records.len() as f64,
            }
        })
        .collect();
    out.sort_by(|a, b| b.lift().partial_cmp(&a.lift()).expect("lift ordering"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envvar::{KmpLibrary, OmpProcBind};
    use crate::space::ConfigSpace;

    fn records_where_turnaround_wins() -> Vec<AnalysisRecord> {
        let space = ConfigSpace::new(Arch::Milan, 96);
        space
            .iter()
            .map(|config| {
                let mut speedup = 1.0;
                if config.library == KmpLibrary::Turnaround {
                    speedup = 2.4;
                }
                if config.effective_bind() == EffectiveBind::Master {
                    speedup = 0.3;
                }
                AnalysisRecord {
                    arch: Arch::Milan,
                    app: "nqueens".into(),
                    input_size: 0.0,
                    config,
                    speedup,
                }
            })
            .collect()
    }

    #[test]
    fn turnaround_recommended_for_nqueens() {
        let records = records_where_turnaround_wins();
        let report = recommend_for(&records, "nqueens", Arch::Milan, 50, 0.8).unwrap();
        assert!(report.best_speedup >= 2.4);
        assert!(
            report
                .recommendations
                .iter()
                .any(|r| r.variable == "KMP_LIBRARY" && r.value == "turnaround"),
            "recommendations: {:?}",
            report.recommendations
        );
    }

    #[test]
    fn default_values_never_recommended() {
        let records = records_where_turnaround_wins();
        let report = recommend_for(&records, "nqueens", Arch::Milan, 50, 0.5).unwrap();
        for rec in &report.recommendations {
            assert_ne!(
                (rec.variable.as_str(), rec.value.as_str()),
                ("OMP_SCHEDULE", "static"),
                "default schedule must not be recommended"
            );
            assert_ne!(
                (rec.variable.as_str(), rec.value.as_str()),
                ("KMP_LIBRARY", "throughput")
            );
        }
    }

    #[test]
    fn recommendations_match_the_parents_literals() {
        // One record (odometer index 4861: everything moved but the bind):
        // each moved variable is recommended under its environment name
        // and spelling, the unset bind — the default — is not.
        let records = [AnalysisRecord {
            arch: Arch::Milan,
            app: "cg".into(),
            input_size: 2.0,
            config: ConfigSpace::new(Arch::Milan, 24).get(4861).unwrap(),
            speedup: 1.5,
        }];
        let report = recommend_for(&records, "cg", Arch::Milan, 1, 0.5).unwrap();
        let got: Vec<String> = report
            .recommendations
            .iter()
            .map(|r| format!("{}={}", r.variable, r.value))
            .collect();
        assert_eq!(
            got.join(" "),
            "KMP_ALIGN_ALLOC=128 KMP_BLOCKTIME=0 KMP_FORCE_REDUCTION=atomic \
             KMP_LIBRARY=turnaround OMP_PLACES=ll_caches OMP_SCHEDULE=guided"
        );
    }

    #[test]
    fn missing_group_returns_none() {
        let records = records_where_turnaround_wins();
        assert!(recommend_for(&records, "cg", Arch::Milan, 10, 0.5).is_none());
        assert!(recommend_for(&records, "nqueens", Arch::A64fx, 10, 0.5).is_none());
    }

    #[test]
    fn master_bind_dominates_worst_trends() {
        let records = records_where_turnaround_wins();
        let trends = worst_trends(&records, 200);
        let master = trends
            .iter()
            .find(|t| t.pattern.contains("master binding with many threads"))
            .unwrap();
        assert!(
            master.bottom_fraction > 0.9,
            "bottom={}",
            master.bottom_fraction
        );
        assert!(master.lift() > 3.0, "lift={}", master.lift());
        // And it should rank first.
        assert!(trends[0].pattern.contains("master"));
    }

    #[test]
    fn worst_trends_empty_input() {
        assert!(worst_trends(&[], 10).is_empty());
    }

    #[test]
    fn recommendation_support_is_a_fraction() {
        let records = records_where_turnaround_wins();
        let report = recommend_for(&records, "nqueens", Arch::Milan, 100, 0.1).unwrap();
        for r in &report.recommendations {
            assert!(r.support > 0.0 && r.support <= 1.0);
        }
    }

    #[test]
    fn best_config_avoids_master() {
        let records = records_where_turnaround_wins();
        let report = recommend_for(&records, "nqueens", Arch::Milan, 10, 0.9).unwrap();
        assert_ne!(report.best_config.proc_bind, OmpProcBind::Master);
    }
}
