//! # sweep — large-scale parameter-space exploration harness
//!
//! Reproduces the paper's data-collection pipeline (Sec. IV-B/C):
//!
//! - [`spec`] — sweep scopes, including the exact Table II sample counts,
//! - [`runner`] — deterministic batch execution of
//!   (arch × app × setting × config × repetition) on the simulator with
//!   the per-architecture noise model,
//! - [`dataset`] — cleaning, repetition averaging, speedup computation,
//!   and tabular record building,
//! - [`export`] — the open-sourced artifacts: CSV tables and raw JSON,
//! - [`series`] — the per-stratum series `ompobs drift` folds from a run,
//! - [`registry`] — the content-addressed run log `ompobs` reads,
//! - [`collect`] — one collection run over all of the above, in order.

pub mod cache;
pub mod collect;
pub mod dataset;
pub mod export;
pub mod provenance;
pub mod registry;
pub mod report_slice;
pub mod runner;
pub mod schedule;
pub mod series;
pub mod spec;

pub use cache::{BatchEntries, SampleCache, DEFAULT_ROW_INDEX, ENGINE_VERSION};
pub use dataset::{clean, CleanReport, Dataset, DropReason};
pub use provenance::{
    config_fingerprint, config_hash, provenance_of, provenance_rows, read_manifest,
    slice_fingerprint, write_manifest, write_provenance_jsonl, ArchManifest, ProvenanceRow,
    RunManifest, SampleProvenance,
};
pub use registry::{
    default_registry_dir, detect_git_rev, record_bench, spec_fingerprint, ArchDigest, BatchPartial,
    BenchCore, CollectCore, Registry, RegistryLoad, RunCore, RunInfo, RunRecord, StratumSeries,
};
pub use report_slice::ReportSlice;
pub use runner::{
    noise_stream, sweep_all, sweep_arch, sweep_setting, RawSample, RunKey, SampleTelemetry,
    SettingData,
};
pub use schedule::{
    planned_samples, sweep_all_scheduled, sweep_arch_scheduled, sweep_setting_scheduled,
    SweepOptions, SweepOutcome, SweepStats,
};
pub use spec::{Roster, Scope, SweepSpec};
