//! Structured diagnostics for configuration-space analysis.
//!
//! The `omplint` crate classifies configuration points against a rule
//! catalog, and checks synchronization traces; each firing of either
//! pass is reported as a [`Diagnostic`] carrying the rule id, a
//! severity, a human-readable message, and (when one exists) a
//! canonical replacement.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Informational: the point is fine but noteworthy.
    Note,
    /// The point is semantically equivalent to another (redundant work).
    Warning,
    /// The point is invalid and must not be swept.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One rule firing against one configuration point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `E-ALIGN-ARCH` or `R-BIND-TRUE`.
    pub rule: String,
    pub severity: Severity,
    /// What is wrong with the point.
    pub message: String,
    /// Suggested fix — for redundant points, the canonical equivalent.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    pub fn new(
        rule: impl Into<String>,
        severity: Severity,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule: rule.into(),
            severity,
            message: message.into(),
            suggestion: None,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.rule, self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, " (suggestion: {s})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_by_badness() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn display_includes_rule_and_suggestion() {
        let mut d = Diagnostic::new("E-TEST", Severity::Error, "bad point");
        d.suggestion = Some("use the default".to_string());
        let s = d.to_string();
        assert!(s.contains("error[E-TEST]"));
        assert!(s.contains("bad point"));
        assert!(s.contains("use the default"));
    }
}
