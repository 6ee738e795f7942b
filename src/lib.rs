//! # omptune — evaluating tuning opportunities of an OpenMP-style runtime
//!
//! A comprehensive Rust reproduction of *"Evaluating Tuning Opportunities
//! of the LLVM/OpenMP Runtime"* (SC 2024). The paper sweeps seven
//! environment variables of the LLVM/OpenMP CPU runtime across 15
//! benchmarks on three HPC architectures (240k+ samples), then mines the
//! data with linear models for per-feature influence and tuning
//! recommendations.
//!
//! This facade crate re-exports the whole system:
//!
//! - [`core`] (`omptune-core`) — environment-variable model, ICV default
//!   derivation, configuration space, influence analysis, recommendations;
//! - [`rt`] (`omprt`) — a real executing mini OpenMP-style runtime
//!   (thread pool, schedules, barriers, reductions, work-stealing tasks);
//! - [`arch`] (`archsim`) — machine models of the three studied CPUs and
//!   the deterministic virtual-time substrate;
//! - [`sim`] (`simrt`) — the simulated runtime that executes workload
//!   models under a tuning configuration in virtual time;
//! - [`apps`] (`workloads`) — the paper's 15 benchmarks, as calibrated
//!   simulation models *and* verified real kernels;
//! - [`data`] (`sweep`) — the 240k-sample data-collection harness;
//! - [`stats`] (`mlstats`) — Wilcoxon, violins, linear & logistic
//!   regression;
//! - [`tel`] (`omptel`) — OMPT-style telemetry: runtime counters, the
//!   closed time breakdown, the flight recorder and its Chrome-trace
//!   exporter, and the `omptel-report` "why was this slow" analysis.
//!
//! ## Quickstart
//!
//! ```
//! use omptune::core::{Arch, ConfigSpace, TuningConfig};
//!
//! // The exact search space the paper sweeps per setting:
//! assert_eq!(ConfigSpace::new(Arch::Skylake, 40).len(), 9216);
//! assert_eq!(ConfigSpace::new(Arch::A64fx, 48).len(), 4608);
//!
//! // Simulate one benchmark under the default configuration:
//! let app = omptune::apps::app("cg").unwrap();
//! let setting = omptune::apps::Setting { input_code: 0, num_threads: 96 };
//! let model = (app.model)(Arch::Milan, setting);
//! let cfg = TuningConfig::default_for(Arch::Milan, 96);
//! let result = omptune::sim::simulate(Arch::Milan, &cfg, &model, 0);
//! assert!(result.seconds() > 0.0);
//! ```
//!
//! See `examples/` for runnable scenarios and the `repro-tables` /
//! `repro-figures` binaries for the full paper reproduction.

pub use archsim as arch;
pub use mlstats as stats;
pub use omprt as rt;
pub use omptel as tel;
pub use omptune_core as core;
pub use simrt as sim;
pub use sweep as data;
pub use workloads as apps;
