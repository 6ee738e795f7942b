//! omplint: static analyses for the omptune stack.
//!
//! Two passes:
//! - [`lint`]: a rule engine over the raw `OMP_*`/`KMP_*` environment
//!   universe that classifies every configuration point as valid,
//!   redundant (not a fixpoint of `TuningConfig::canonical`), or
//!   invalid.
//! - [`check`]: a happens-before checker over synchronization traces
//!   recorded by `omprt`'s instrumented runtime — vector-clock race
//!   detection plus barrier-misuse and deadlock analysis.

pub mod campaign;
pub mod check;
pub mod lint;

pub use campaign::Campaign;
pub use check::{certify, check_trace, CheckReport, CheckStats, CHECK_RULES};
pub use lint::{lint_point, lint_space, LintReport, PointClass, RULES};
pub use omptune_core::diag::{Diagnostic, Severity};

/// A report as indented JSON: what `omplint` and `ompfuzz` print under
/// `--json`.
pub fn pretty(doc: &impl serde::Serialize) -> Result<String, String> {
    serde_json::to_string_pretty(doc).map_err(|e| format!("serialization failed: {e:?}"))
}
