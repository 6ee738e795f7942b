//! The paper's analysis pipeline (Sec. IV-D): classification surrogate +
//! logistic-regression coefficient magnitudes as feature influence.
//!
//! Samples are labelled *optimal* when their speedup over the default
//! configuration exceeds 1.01 (at least 1 % improvement). Features are
//! encoded with a naive numeric scheme, standardized, and a logistic model
//! is fit per data group. The weight-normalized absolute coefficients form
//! the influence heat maps of Figs. 2–4.

use crate::arch::Arch;
use crate::config::TuningConfig;
use crate::envvar::{OmpPlaces, OmpProcBind};
use crate::variable::Variable;
use mlstats::logreg::{accuracy, fit_logistic, LogRegError, LogisticOptions};
use mlstats::Design;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The speedup threshold above which a sample counts as "optimal"
/// (Sec. IV-D: at least 1 % improvement).
pub const OPTIMAL_SPEEDUP_THRESHOLD: f64 = 1.01;

/// One processed sample: the sweep's tabular-row representation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnalysisRecord {
    pub arch: Arch,
    /// Application name, e.g. `"alignment"`, `"cg"`.
    pub app: String,
    /// Numeric input-size code (0 = smallest class).
    pub input_size: f64,
    pub config: TuningConfig,
    /// Runtime relative to the default configuration of the same setting.
    pub speedup: f64,
}

impl AnalysisRecord {
    /// The classification label of Sec. IV-D.
    pub fn is_optimal(&self) -> bool {
        self.speedup > OPTIMAL_SPEEDUP_THRESHOLD
    }
}

/// The paper's three grouping strategies (Sec. IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GroupBy {
    /// One model per application, samples pooled across architectures —
    /// Fig. 2. Architecture is a feature.
    Application,
    /// One model per architecture, samples pooled across applications —
    /// Fig. 3. Application is a feature.
    Architecture,
    /// One model per (architecture, application) pair — Fig. 4.
    ArchApplication,
}

/// Feature columns used by the influence analysis, in presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Feature {
    Architecture,
    Application,
    InputSize,
    NumThreads,
    Places,
    ProcBind,
    Schedule,
    Library,
    Blocktime,
    ForceReduction,
    AlignAlloc,
}

impl Feature {
    /// The tuning variable this column stands for; `None` for the
    /// setting columns.
    pub fn variable(self) -> Option<Variable> {
        Variable::ALL.into_iter().find(|v| v.feature() == self)
    }

    /// Column header as printed in the heat maps.
    pub fn name(self) -> &'static str {
        match self {
            Feature::Architecture => "Architecture",
            Feature::Application => "Application",
            Feature::InputSize => "Input Size",
            Feature::NumThreads => "OMP_NUM_THREADS",
            _ => self
                .variable()
                .expect("every other column is a variable")
                .env_name(),
        }
    }

    /// The feature columns used for a grouping strategy. The grouped-over
    /// identity is excluded; everything else (including the setting axes)
    /// is included, matching Figs. 2–4's column sets.
    pub fn columns(group_by: GroupBy) -> Vec<Feature> {
        let mut cols = Vec::with_capacity(11);
        match group_by {
            GroupBy::Application => cols.push(Feature::Architecture),
            GroupBy::Architecture => cols.push(Feature::Application),
            GroupBy::ArchApplication => {}
        }
        cols.push(Feature::InputSize);
        cols.push(Feature::NumThreads);
        cols.extend(Variable::ALL.map(Variable::feature));
        cols
    }
}

/// Naive numeric encoding of one variable of a configuration — the
/// per-column scheme shared by the batch analysis and the streaming
/// [`LiveInfluence`] tracker.
///
/// Categorical levels are coded in increasing binding
/// strength/granularity so the linear model can express the monotone
/// part of their effect (the "naive numeric scheme"); the variables
/// without such an order are coded by domain position.
pub fn encode_env_feature(config: &TuningConfig, var: Variable) -> f64 {
    match var {
        Variable::Places => match config.places {
            OmpPlaces::Unset => 0.0,
            OmpPlaces::Sockets => 1.0,
            OmpPlaces::LlCaches => 2.0,
            OmpPlaces::Cores => 3.0,
        },
        Variable::ProcBind => match config.proc_bind {
            OmpProcBind::Master => 0.0,
            OmpProcBind::False => 1.0,
            OmpProcBind::Unset => 2.0,
            OmpProcBind::True => 3.0,
            OmpProcBind::Close => 4.0,
            OmpProcBind::Spread => 5.0,
        },
        Variable::AlignAlloc => (config.align_alloc.bytes() as f64).log2(),
        by_position => by_position
            .slot(config)
            .expect("only an alignment can lack a slot") as f64,
    }
}

/// The seven variable encodings of one configuration, in
/// [`Variable::ALL`] order.
pub fn encode_env_features(config: &TuningConfig) -> Vec<f64> {
    Variable::ALL
        .iter()
        .map(|v| encode_env_feature(config, *v))
        .collect()
}

/// Naive numeric encoding of one record's feature column (Sec. IV-D:
/// "This encoding is a naive numeric scheme").
fn encode_feature(
    rec: &AnalysisRecord,
    feature: Feature,
    app_codes: &BTreeMap<&str, usize>,
) -> f64 {
    match feature {
        Feature::Architecture => match rec.arch {
            Arch::A64fx => 0.0,
            Arch::Skylake => 1.0,
            Arch::Milan => 2.0,
        },
        Feature::Application => app_codes[rec.app.as_str()] as f64,
        Feature::InputSize => rec.input_size,
        Feature::NumThreads => rec.config.num_threads as f64,
        env => encode_env_feature(
            &rec.config,
            env.variable().expect("every other column is a variable"),
        ),
    }
}

/// A record's group under `group_by`, as a key that sorts like the
/// group's label: `"milan/cg"` sorts as `("milan", "cg")` because no
/// architecture id is a prefix of another. The part a grouping leaves
/// out is `None`, not `""`: two `None`s compare without a `memcmp`, and
/// on some hosts a `memcmp` of two empty strings is ~40× slower than one
/// of two short ones, which made the partition most of the analysis.
fn group_key(group_by: GroupBy, rec: &AnalysisRecord) -> (Option<&'static str>, Option<&str>) {
    match group_by {
        GroupBy::Application => (None, Some(&rec.app)),
        GroupBy::Architecture => (Some(rec.arch.id()), None),
        GroupBy::ArchApplication => (Some(rec.arch.id()), Some(&rec.app)),
    }
}

/// The label of a record's group, e.g. `"alignment"`, `"milan"`,
/// `"milan/cg"`.
fn group_label(group_by: GroupBy, rec: &AnalysisRecord) -> String {
    match group_by {
        GroupBy::Application => rec.app.clone(),
        GroupBy::Architecture => rec.arch.id().to_string(),
        GroupBy::ArchApplication => format!("{}/{}", rec.arch.id(), rec.app),
    }
}

/// Partition `records` by `group_by`, encode each group's records once
/// into a z-scored [`Design`] over [`Feature::columns`], and run `fit`
/// on every group — on `workers` scoped threads, largest group first.
/// Results come back in label order, whatever the thread count: a
/// group's fit reads only its own rows, so its sums do not depend on
/// which thread ran it or when.
fn fit_groups<T: Send>(
    records: &[AnalysisRecord],
    group_by: GroupBy,
    workers: usize,
    fit: impl Fn(String, &Design, &[&AnalysisRecord]) -> Option<T> + Sync,
) -> Result<Vec<T>, AnalysisError> {
    if records.is_empty() {
        return Err(AnalysisError::NoData);
    }
    // Stable application codes across the whole dataset: first seen, first.
    let mut app_codes: BTreeMap<&str, usize> = BTreeMap::new();
    let mut groups: BTreeMap<_, Vec<&AnalysisRecord>> = BTreeMap::new();
    for r in records {
        let next = app_codes.len();
        app_codes.entry(&r.app).or_insert(next);
        groups.entry(group_key(group_by, r)).or_default().push(r);
    }
    let groups: Vec<Vec<&AnalysisRecord>> = groups.into_values().collect();
    let cols = Feature::columns(group_by);
    let fit_one = |recs: &[&AnalysisRecord]| {
        let mut x = Design::with_capacity(cols.len(), recs.len());
        for r in recs {
            x.push(cols.iter().map(|f| encode_feature(r, *f, &app_codes)));
        }
        x.standardize();
        fit(group_label(group_by, recs[0]), &x, recs)
    };

    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|g| std::cmp::Reverse(groups[*g].len()));
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        while let Some(&g) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((g, fit_one(&groups[g])));
        }
        done
    };
    let workers = workers.clamp(1, groups.len());
    let mut done: Vec<(usize, Option<T>)> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(claim)).collect();
        let mut done = claim();
        for h in helpers {
            done.extend(h.join().expect("a group fit panicked"));
        }
        done
    });
    done.sort_by_key(|(g, _)| *g);
    let out: Vec<T> = done.into_iter().filter_map(|(_, fitted)| fitted).collect();
    if out.is_empty() {
        return Err(AnalysisError::NoUsableGroups);
    }
    Ok(out)
}

/// One fit per available core.
fn fit_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Streaming influence over the seven environment variables: every
/// observed `(config, speedup)` pair is encoded with the batch
/// analysis's numeric scheme, z-scored against *running* moments, and
/// fed to an [`mlstats::OnlineLogistic`] — so a live sweep can expose a
/// continuously updated influence ranking long before the dataset is
/// complete. Exposition-only: results never feed back into the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveInfluence {
    model: mlstats::OnlineLogistic,
    /// Running mean per feature (Welford).
    mean: Vec<f64>,
    /// Running sum of squared deviations per feature (Welford M2).
    m2: Vec<f64>,
    observed: u64,
}

impl Default for LiveInfluence {
    fn default() -> Self {
        LiveInfluence::new()
    }
}

impl LiveInfluence {
    pub fn new() -> LiveInfluence {
        let d = Variable::ALL.len();
        LiveInfluence {
            model: mlstats::OnlineLogistic::new(d),
            mean: vec![0.0; d],
            m2: vec![0.0; d],
            observed: 0,
        }
    }

    /// Observe one sample's configuration and speedup over the default.
    /// Non-finite speedups (failure-injected samples) are skipped.
    pub fn observe(&mut self, config: &TuningConfig, speedup: f64) {
        if !speedup.is_finite() {
            return;
        }
        let x = encode_env_features(config);
        self.observed += 1;
        let y = speedup > OPTIMAL_SPEEDUP_THRESHOLD;
        let n = self.observed as f64;
        let mut z = vec![0.0; x.len()];
        for i in 0..x.len() {
            let delta = x[i] - self.mean[i];
            self.mean[i] += delta / n;
            self.m2[i] += delta * (x[i] - self.mean[i]);
            let std = (self.m2[i] / n).sqrt();
            z[i] = if std > 1e-12 {
                (x[i] - self.mean[i]) / std
            } else {
                0.0
            };
        }
        self.model.observe(&z, y);
    }

    /// Samples observed (finite speedups only).
    pub fn samples(&self) -> u64 {
        self.observed
    }

    /// Current influence per variable, in [`Variable::ALL`] order. Sums
    /// to 1 once any signal exists (all-zero before).
    pub fn influence(&self) -> Vec<(Variable, f64)> {
        Variable::ALL
            .into_iter()
            .zip(self.model.normalized_influence())
            .collect()
    }
}

/// One row of an influence heat map: a group and its per-feature influence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InfluenceRow {
    /// Group label, e.g. `"alignment"`, `"milan"`, `"milan/cg"`.
    pub group: String,
    /// Weight-normalized |coefficient| per feature column; sums to 1.
    pub influence: Vec<f64>,
    /// Training accuracy of the group's logistic model.
    pub accuracy: f64,
    /// Number of samples in the group.
    pub n_samples: usize,
    /// Fraction of optimal samples in the group.
    pub optimal_fraction: f64,
}

/// A complete influence heat map (one of Figs. 2–4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InfluenceHeatMap {
    pub group_by: GroupBy,
    /// Feature column headers.
    pub features: Vec<Feature>,
    pub rows: Vec<InfluenceRow>,
}

impl InfluenceHeatMap {
    /// Look up a row by group label.
    pub fn row(&self, group: &str) -> Option<&InfluenceRow> {
        self.rows.iter().find(|r| r.group == group)
    }

    /// Influence of `feature` in `group`, if both exist.
    pub fn influence_of(&self, group: &str, feature: Feature) -> Option<f64> {
        let col = self.features.iter().position(|f| *f == feature)?;
        Some(self.row(group)?.influence[col])
    }

    /// Render as a shaded text table: darker glyphs = larger influence,
    /// mirroring the paper's "darker shades imply larger influence".
    pub fn render_text(&self) -> String {
        let shade = |v: f64| -> char {
            match v {
                v if v >= 0.30 => '█',
                v if v >= 0.20 => '▓',
                v if v >= 0.10 => '▒',
                v if v >= 0.03 => '░',
                _ => '·',
            }
        };
        let mut out = String::new();
        let label_w = self
            .rows
            .iter()
            .map(|r| r.group.len())
            .chain(std::iter::once(5))
            .max()
            .unwrap_or(5);
        out.push_str(&format!("{:label_w$}", ""));
        for f in &self.features {
            out.push_str(&format!(" {:>19}", f.name()));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:label_w$}", row.group));
            for v in &row.influence {
                out.push_str(&format!(" {:>12.3} {}     ", v, shade(*v)));
            }
            out.push('\n');
        }
        out
    }
}

/// Errors from [`influence_analysis`].
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// No records supplied.
    NoData,
    /// Every group failed to produce a model (e.g. single-class labels).
    NoUsableGroups,
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::NoData => write!(f, "no analysis records"),
            AnalysisError::NoUsableGroups => write!(f, "no group produced a usable model"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Fit an ordinary linear regression of the *continuous* speedup on the
/// encoded features, per group — the paper's first attempt (Sec. IV-D),
/// kept to demonstrate why it fails: returns each group's R².
///
/// "The distribution of points … indicates that our data does not satisfy
/// the requirements for fitting a linear regression model. This is
/// experimentally observed with low confidence scores associated with
/// poor model fitting." The classification surrogate
/// ([`influence_analysis`]) is the remedy.
pub fn linear_fit_quality(
    records: &[AnalysisRecord],
    group_by: GroupBy,
) -> Result<Vec<(String, f64)>, AnalysisError> {
    fit_groups(records, group_by, fit_workers(), |group, x, recs| {
        let y: Vec<f64> = recs.iter().map(|r| r.speedup).collect();
        let model = mlstats::fit_linear(x, &y).ok()?;
        Some((group, model.r2))
    })
}

/// Run the paper's influence analysis over `records` with the given
/// grouping strategy. Groups whose labels are single-class (no optimal
/// sample, or everything optimal) are skipped, like degenerate groups in
/// the paper (e.g. Sort/Strassen showing "no reliance" where data is
/// missing).
pub fn influence_analysis(
    records: &[AnalysisRecord],
    group_by: GroupBy,
) -> Result<InfluenceHeatMap, AnalysisError> {
    influence_analysis_on(records, group_by, fit_workers())
}

/// [`influence_analysis`] with the groups fitted on `workers` threads.
fn influence_analysis_on(
    records: &[AnalysisRecord],
    group_by: GroupBy,
    workers: usize,
) -> Result<InfluenceHeatMap, AnalysisError> {
    let cols = Feature::columns(group_by);
    let rows = fit_groups(records, group_by, workers, |group, x, recs| {
        let y: Vec<bool> = recs.iter().map(|r| r.is_optimal()).collect();
        let n_samples = recs.len();
        let optimal_fraction = y.iter().filter(|b| **b).count() as f64 / n_samples as f64;
        match fit_logistic(x, &y, LogisticOptions::default()) {
            Ok(model) => Some(InfluenceRow {
                group,
                accuracy: accuracy(&model, x, &y),
                influence: model.normalized_influence(),
                n_samples,
                optimal_fraction,
            }),
            // Degenerate group: report zero influence everywhere.
            Err(LogRegError::SingleClass) => Some(InfluenceRow {
                group,
                accuracy: 1.0,
                influence: vec![0.0; cols.len()],
                n_samples,
                optimal_fraction,
            }),
            Err(LogRegError::BadShape) => None,
        }
    })?;
    Ok(InfluenceHeatMap {
        group_by,
        features: cols,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envvar::KmpLibrary;
    use crate::space::ConfigSpace;

    /// Synthetic records where only KMP_LIBRARY matters: turnaround is
    /// always optimal, throughput never.
    fn library_dominated_records() -> Vec<AnalysisRecord> {
        let space = ConfigSpace::new(Arch::Milan, 48);
        space
            .iter()
            .step_by(7)
            .map(|config| AnalysisRecord {
                arch: Arch::Milan,
                app: "nqueens".into(),
                input_size: 0.0,
                speedup: if config.library == KmpLibrary::Turnaround {
                    2.5
                } else {
                    1.0
                },
                config,
            })
            .collect()
    }

    #[test]
    fn optimal_label_threshold() {
        let mut r = AnalysisRecord {
            arch: Arch::A64fx,
            app: "cg".into(),
            input_size: 0.0,
            config: TuningConfig::default_for(Arch::A64fx, 48),
            speedup: 1.0,
        };
        assert!(!r.is_optimal());
        r.speedup = 1.011;
        assert!(r.is_optimal());
        r.speedup = 1.01;
        assert!(!r.is_optimal());
    }

    #[test]
    fn dominant_feature_gets_dominant_influence() {
        let records = library_dominated_records();
        let hm = influence_analysis(&records, GroupBy::Application).unwrap();
        let infl = hm.influence_of("nqueens", Feature::Library).unwrap();
        assert!(infl > 0.5, "library influence = {infl}");
        let row = hm.row("nqueens").unwrap();
        assert!(row.accuracy > 0.95);
    }

    #[test]
    fn grouping_by_architecture_uses_application_feature() {
        let cols = Feature::columns(GroupBy::Architecture);
        assert!(cols.contains(&Feature::Application));
        assert!(!cols.contains(&Feature::Architecture));
        let cols = Feature::columns(GroupBy::Application);
        assert!(cols.contains(&Feature::Architecture));
        assert!(!cols.contains(&Feature::Application));
        let cols = Feature::columns(GroupBy::ArchApplication);
        assert!(!cols.contains(&Feature::Application));
        assert!(!cols.contains(&Feature::Architecture));
    }

    #[test]
    fn env_encoding_matches_batch_scheme() {
        let space = ConfigSpace::new(Arch::Milan, 48);
        let app_codes: BTreeMap<&str, usize> = [("cg", 0)].into_iter().collect();
        for config in space.iter().step_by(997) {
            let rec = AnalysisRecord {
                arch: Arch::Milan,
                app: "cg".into(),
                input_size: 0.0,
                speedup: 1.0,
                config,
            };
            let batch: Vec<f64> = Variable::ALL
                .map(|v| encode_feature(&rec, v.feature(), &app_codes))
                .to_vec();
            let live = encode_env_features(&rec.config);
            assert_eq!(batch, live);
        }
    }

    #[test]
    fn live_influence_finds_the_dominant_variable() {
        let mut live = LiveInfluence::new();
        // Three passes so the online learner converges like the batch
        // IRLS fitter does; library fully determines the label.
        for _ in 0..3 {
            for rec in library_dominated_records() {
                live.observe(&rec.config, rec.speedup);
            }
        }
        let infl = live.influence();
        let library = infl
            .iter()
            .find(|(f, _)| *f == Variable::Library)
            .map(|(_, v)| *v)
            .unwrap();
        assert!(library > 0.5, "library influence = {library}");
        let total: f64 = infl.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn live_influence_skips_non_finite_speedups() {
        let mut live = LiveInfluence::new();
        let config = TuningConfig::default_for(Arch::Milan, 48);
        live.observe(&config, f64::NAN);
        live.observe(&config, f64::INFINITY);
        assert_eq!(live.samples(), 0);
        assert!(live.influence().iter().all(|(_, v)| *v == 0.0));
        live.observe(&config, 2.0);
        assert_eq!(live.samples(), 1);
    }

    #[test]
    fn live_influence_is_deterministic() {
        let feed = library_dominated_records();
        let mut a = LiveInfluence::new();
        let mut b = LiveInfluence::new();
        for rec in &feed {
            a.observe(&rec.config, rec.speedup);
            b.observe(&rec.config, rec.speedup);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn single_class_group_reports_zero_influence() {
        // All sub-optimal: no separation boundary exists.
        let space = ConfigSpace::new(Arch::A64fx, 48);
        let records: Vec<AnalysisRecord> = space
            .iter()
            .take(100)
            .map(|config| AnalysisRecord {
                arch: Arch::A64fx,
                app: "strassen".into(),
                input_size: 0.0,
                config,
                speedup: 1.0,
            })
            .collect();
        let hm = influence_analysis(&records, GroupBy::Application).unwrap();
        let row = hm.row("strassen").unwrap();
        assert!(row.influence.iter().all(|v| *v == 0.0));
        assert_eq!(row.optimal_fraction, 0.0);
    }

    #[test]
    fn empty_input_is_error() {
        assert_eq!(
            influence_analysis(&[], GroupBy::Application),
            Err(AnalysisError::NoData)
        );
    }

    #[test]
    fn arch_application_grouping_makes_joint_keys() {
        let mut records = library_dominated_records();
        for r in &mut records[..50] {
            r.arch = Arch::Skylake;
        }
        let hm = influence_analysis(&records, GroupBy::ArchApplication).unwrap();
        assert!(hm.row("milan/nqueens").is_some());
        assert!(hm.row("skylake/nqueens").is_some());
    }

    #[test]
    fn one_worker_and_four_fit_the_same_heat_maps() {
        // Groups of unequal size on every grouping, so four workers
        // claim them out of label order.
        let mut records = library_dominated_records();
        let n = records.len();
        for (i, r) in records.iter_mut().enumerate() {
            r.arch = Arch::ALL[i % 3];
            r.app = ["cg", "nqueens", "sort", "ft"][(i * 7 / n) % 4].into();
            r.input_size = (i % 2) as f64;
        }
        for g in [
            GroupBy::Application,
            GroupBy::Architecture,
            GroupBy::ArchApplication,
        ] {
            let one = influence_analysis_on(&records, g, 1).unwrap();
            let four = influence_analysis_on(&records, g, 4).unwrap();
            assert!(one.rows.len() > 2, "{g:?}: {} groups", one.rows.len());
            assert!(one.rows.windows(2).all(|w| w[0].group < w[1].group));
            assert_eq!(one, four);
        }
    }

    #[test]
    fn render_text_contains_headers_and_groups() {
        let records = library_dominated_records();
        let hm = influence_analysis(&records, GroupBy::Application).unwrap();
        let text = hm.render_text();
        assert!(text.contains("KMP_LIBRARY"));
        assert!(text.contains("nqueens"));
    }

    #[test]
    fn influence_rows_sum_to_one_or_zero() {
        let records = library_dominated_records();
        let hm = influence_analysis(&records, GroupBy::Application).unwrap();
        for row in &hm.rows {
            let s: f64 = row.influence.iter().sum();
            assert!((s - 1.0).abs() < 1e-9 || s == 0.0, "sum={s}");
        }
    }
}
