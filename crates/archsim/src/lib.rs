//! # archsim — machine models and a deterministic virtual-time engine
//!
//! The paper evaluated on three multicore CPUs (Fujitsu A64FX, Intel
//! Skylake 6148, AMD Milan 7643). This crate substitutes for that hardware
//! with parameterized machine descriptions and a deterministic
//! discrete-event core, so that the full 240k-sample sweep can run on any
//! host in virtual time:
//!
//! - [`machine`] — Table I encoded as [`machine::MachineDesc`] presets,
//!   including memory-system and wake-latency parameters,
//! - [`topology`] — NUMA/LLC/socket attribution, place partitioning,
//!   inter-core distance classes,
//! - [`engine`] — a deterministic event queue and the per-core
//!   availability tracker used for chunk-level execution,
//! - [`noise`] — the architecture-dependent measurement-noise model that
//!   reproduces the paper's Wilcoxon consistency findings (quiet A64FX,
//!   noisy x86 cluster nodes),
//! - [`power`] — the per-architecture power model ([`power::PowerDesc`])
//!   behind the energy objective (`ompprof energy`).

pub mod engine;
pub mod machine;
pub mod noise;
pub mod power;
pub mod topology;

pub use engine::{ns, CorePool, EventQueue, VTime};
pub use machine::{MachineDesc, MemoryDesc};
pub use noise::NoiseModel;
pub use power::PowerDesc;
pub use topology::{Distance, Topology};
