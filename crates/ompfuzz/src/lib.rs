//! ompfuzz: schedule-space certification for the `omprt` runtime.
//!
//! The happens-before checker (`omplint::check`) certifies exactly the
//! schedules it observes. Left alone, a runtime observes very few: the
//! same threads win the same races run after run. This crate closes the
//! gap from both ends —
//!
//! - [`gen`] grows *random programs* (worksharing loops over every
//!   dispatcher, reductions over every method, task graphs in four
//!   shapes, lock sets, sections, singles, repeated barriers) from a
//!   seed, fully deterministically: the same seed yields byte-identical
//!   source, model, and schedule plans in every build profile;
//! - `omprt::perturb` steers execution into *many interleavings* per
//!   program via seeded PCT-style priority/preemption plans;
//! - [`signature`] canonicalizes observed traces and prunes
//!   re-observed interleavings, sleep-set-style, so campaign counts
//!   measure genuinely distinct schedules;
//! - [`diff`] cross-checks each execution against the program's
//!   `simrt` workload model and closed-form expectations (region
//!   counts, exact reduction sums, chunk coverage, task spawn counts);
//! - [`shrink`] reduces failing programs to ≤ 8-node reproducers;
//! - [`certify`] drives whole campaigns and emits the
//!   `certification.json` verdict consumed by CI.
//!
//! The `ompfuzz` binary fronts this as `certify`, `gen`, and `run`
//! commands with `ompobs`-convention exit codes (0 clean, 4 findings,
//! 2 usage, 1 internal).

pub mod certify;
pub mod diff;
pub mod exec;
pub mod gen;
pub mod program;
pub mod rng;
pub mod shrink;
pub mod signature;

pub use certify::{certify, CertificationReport, CertifyConfig, FailureCase};
pub use exec::{execute, Outcome};
pub use gen::{generate, MAX_NODES, MIN_NODES};
pub use program::{ImbalanceKind, Node, Program, TaskShape};
pub use rng::Rng;
pub use shrink::shrink;
pub use signature::trace_signature;
