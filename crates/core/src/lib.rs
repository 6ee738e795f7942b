//! # omptune-core — the paper's primary contribution
//!
//! Reproduction of the tuning-study core of *"Evaluating Tuning
//! Opportunities of the LLVM/OpenMP Runtime"* (SC 2024):
//!
//! - [`arch`] — the three studied CPU architectures (Table I facts),
//! - [`envvar`] — typed models of the seven swept environment variables
//!   with the paper's value domains and exclusions (Sec. III),
//! - [`config`] — complete tuning configurations plus libomp's default
//!   derivation rules (proc-bind/places interaction, wait-policy
//!   derivation, reduction heuristic, per-arch alignment default),
//! - [`variable`] — the variable table: the seven variables' names,
//!   value domains, value indices and spellings, which everything
//!   per-variable loops over,
//! - [`space`] — full-factorial configuration-space enumeration
//!   (9216 configs on x86, 4608 on A64FX per setting),
//! - [`analysis`] — the classification-surrogate influence analysis whose
//!   normalized logistic-regression coefficients form Figs. 2–4,
//! - [`report`] — speedup-range summaries (Tables V–VI, Sec. V Q1),
//! - [`recommend`] — best-configuration extraction (Table VII) and
//!   worst-trend screening (Sec. V Q4),
//! - [`paper`] — the paper's numbers, one typed row per claim, with the
//!   tolerance each is held to.
//!
//! The crate is deliberately independent of how samples are produced:
//! the sweep harness (`sweep` crate) feeds it [`analysis::AnalysisRecord`]s
//! from the simulator, but records could equally come from real libomp
//! runs parsed out of job logs.

pub mod analysis;
pub mod arch;
pub mod chunk;
pub mod cli;
pub mod config;
pub mod envvar;
pub mod fnv;
pub mod icv;
pub mod paper;
pub mod placement;
pub mod recommend;
pub mod report;
pub mod space;
pub mod tuner;
pub mod variable;

pub use analysis::{
    encode_env_feature, encode_env_features, influence_analysis, linear_fit_quality,
    AnalysisRecord, Feature, GroupBy, InfluenceHeatMap, InfluenceRow, LiveInfluence,
    OPTIMAL_SPEEDUP_THRESHOLD,
};
pub use arch::Arch;
pub use config::{EffectiveBind, PlanProjection, ReductionMethod, TuningConfig, WaitPolicy};
pub use envvar::{
    KmpAlignAlloc, KmpBlocktime, KmpForceReduction, KmpLibrary, OmpPlaces, OmpProcBind, OmpSchedule,
};
pub use fnv::{mix64, splitmix64, Fnv1a, SPLITMIX64_GAMMA};
pub use icv::IcvState;
pub use placement::Placement;
pub use recommend::{recommend_for, worst_trends, CellReport, Recommendation, WorstTrend};
pub use report::{transfer_analysis, ArchSummary, SettingMaxima, SpeedupRange, Transfer};
pub use space::ConfigSpace;
pub use tuner::{hill_climb, influence_order, random_search, TuneResult};
pub use variable::Variable;
