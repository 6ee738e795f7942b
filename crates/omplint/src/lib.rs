//! omplint: the happens-before checker for the omptune runtime.
//!
//! [`check`] replays the synchronization traces `omprt`'s instrumented
//! runtime records through vector clocks — race detection plus
//! barrier-misuse and deadlock analysis — and [`campaign`] folds many
//! verdicts into one certification report.

pub mod campaign;
pub mod check;

pub use campaign::Campaign;
pub use check::{certify, check_trace};

/// A report as indented JSON: what `ompfuzz` prints under `--json`.
pub fn pretty(doc: &impl serde::Serialize) -> Result<String, String> {
    serde_json::to_string_pretty(doc).map_err(|e| format!("serialization failed: {e:?}"))
}
