//! # mlstats — statistics and linear-model substrate
//!
//! This crate reimplements, from scratch in Rust, the statistical and
//! machine-learning tooling the paper *"Evaluating Tuning Opportunities of
//! the LLVM/OpenMP Runtime"* (SC 2024) used from Python (Pandas /
//! Scikit-Learn / SciPy):
//!
//! - [`describe`] — means, standard deviations, quantiles (Table IV),
//! - [`wilcoxon`] — the Wilcoxon signed-rank test used to quantify
//!   measurement noise per architecture (Table III),
//! - [`holm`] — Holm step-down correction so the drift sentinel's
//!   per-stratum test family controls its family-wise error rate,
//! - [`violin`] — kernel-density violin summaries (Figs. 1, 5–7),
//! - [`linreg`] — OLS linear regression, whose poor fit on this data
//!   motivates the classification reformulation (Sec. IV-D),
//! - [`logreg`] — L2-regularized logistic regression whose normalized
//!   coefficient magnitudes are the paper's feature-influence measure
//!   (Figs. 2–4),
//! - [`encode`] — z-score standardization and the contiguous [`Design`]
//!   matrix both regressions fit over.
//!
//! Everything is deterministic and dependency-light so the full analysis
//! pipeline can run inside tests.

pub mod describe;
pub mod encode;
pub mod holm;
pub mod linreg;
pub mod logreg;
pub mod matrix;
pub mod violin;
pub mod wilcoxon;

pub use describe::{mean, median, quantile, std_population, std_sample, Summary};
pub use encode::{Design, StandardScaler};
pub use holm::{holm_adjust, holm_reject};
pub use linreg::{fit_linear, LinearModel};
pub use logreg::{fit_logistic, LogisticModel, LogisticOptions, OnlineLogistic};
pub use violin::ViolinSummary;
pub use wilcoxon::{wilcoxon_signed_rank, WilcoxonResult};
