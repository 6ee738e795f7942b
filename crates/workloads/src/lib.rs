//! # workloads — the paper's 15 benchmark applications
//!
//! Every application the study runs (Sec. IV-A) is present twice:
//!
//! 1. a **calibrated simulation model** (`model` function per app) that
//!    the sweep executes on `simrt` to regenerate the paper's 240k-sample
//!    dataset, and
//! 2. a **real Rust kernel** (`real` module per app) implementing the
//!    same computational pattern on the executing runtime `omprt`,
//!    verified against sequential references — keeping the models honest
//!    about each benchmark's structure (loop vs. task parallelism,
//!    reductions, memory behaviour).
//!
//! The [`catalog`] module registers all apps with their experimental
//! settings and per-architecture availability (paper Table II).

pub mod bots;
pub mod catalog;
pub mod generated;
pub mod npb;
pub mod proxy;
pub(crate) mod util;

pub use catalog::{
    app, apps, apps_on, available_on, generated_apps_on, settings_for, AppSpec, Setting, Suite,
};
pub use generated::{generated_apps, PROMOTED_SEEDS};
