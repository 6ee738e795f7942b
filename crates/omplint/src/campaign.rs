//! Campaign-level aggregation of checker verdicts.
//!
//! A certification campaign (driven by `ompfuzz`) replays many traces —
//! one per (generated program, explored schedule) pair — through
//! [`check_trace`](crate::check_trace). This module folds the individual
//! [`CheckReport`]s into one [`Campaign`]: how many schedules ran, how
//! many were pruned as equivalent, which rules fired how often, and the
//! summed workload counters. The struct serializes into the
//! `certification.json` report the CLI writes.

use crate::check::{CheckReport, CheckStats};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Aggregated verdict over a whole certification campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Campaign {
    /// Distinct generated programs exercised.
    pub programs: usize,
    /// (program, schedule) traces actually replayed through the checker.
    pub schedules_run: usize,
    /// Schedules skipped because their trace signature matched an
    /// already-certified interleaving (sleep-set-style pruning).
    pub schedules_pruned: usize,
    /// Traces that certified clean.
    pub clean: usize,
    /// Traces with at least one error-severity finding.
    pub failing: usize,
    /// Per-rule fire counts across every failing trace (each rule counted
    /// once per trace it fired in).
    pub rules_fired: BTreeMap<String, usize>,
    /// Element-wise sum of the per-trace checker stats.
    pub totals: CheckStats,
}

impl Campaign {
    /// Empty campaign.
    pub fn new() -> Campaign {
        Campaign::default()
    }

    /// Note one more generated program entering the campaign.
    pub fn add_program(&mut self) {
        self.programs += 1;
    }

    /// Fold one replayed trace's verdict in.
    pub fn record(&mut self, report: &CheckReport) {
        self.schedules_run += 1;
        if report.is_clean() {
            self.clean += 1;
        } else {
            self.failing += 1;
            let mut rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
            rules.sort_unstable();
            rules.dedup();
            for r in rules {
                *self.rules_fired.entry(r.to_string()).or_insert(0) += 1;
            }
        }
        let s = &report.stats;
        let t = &mut self.totals;
        t.events += s.events;
        t.threads += s.threads;
        t.regions += s.regions;
        t.barriers += s.barriers;
        t.episodes_completed += s.episodes_completed;
        t.tasks += s.tasks;
        t.steals += s.steals;
        t.locks += s.locks;
        t.locations += s.locations;
        t.loops += s.loops;
        t.chunks += s.chunks;
        t.conds += s.conds;
        t.notifies += s.notifies;
        t.parks += s.parks;
    }

    /// Note one schedule pruned as equivalent to an earlier one.
    pub fn record_pruned(&mut self) {
        self.schedules_pruned += 1;
    }

    /// Every replayed schedule certified clean.
    pub fn is_clean(&self) -> bool {
        self.failing == 0
    }

    /// Distinct (non-pruned + pruned) schedule visits.
    pub fn schedules_total(&self) -> usize {
        self.schedules_run + self.schedules_pruned
    }

    /// One-line human summary for CLI output.
    pub fn summary(&self) -> String {
        let verdict = if self.is_clean() { "CLEAN" } else { "FAILING" };
        format!(
            "{verdict}: {} programs, {} schedules checked (+{} pruned as equivalent), \
             {} clean / {} failing, {} events replayed",
            self.programs,
            self.schedules_run,
            self.schedules_pruned,
            self.clean,
            self.failing,
            self.totals.events,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_trace, fixtures};

    #[test]
    fn records_clean_and_failing_traces() {
        let mut c = Campaign::new();
        c.add_program();
        c.record(&check_trace(&fixtures::correct_barrier_trace()));
        c.record(&check_trace(&fixtures::broken_barrier_trace()));
        c.record_pruned();
        assert_eq!(c.programs, 1);
        assert_eq!(c.schedules_run, 2);
        assert_eq!(c.schedules_pruned, 1);
        assert_eq!(c.schedules_total(), 3);
        assert_eq!(c.clean, 1);
        assert_eq!(c.failing, 1);
        assert!(!c.is_clean());
        assert!(c.rules_fired.contains_key("B-EARLY-RELEASE"));
        assert!(c.rules_fired.contains_key("C-RACE"));
        assert!(c.totals.events > 0);
    }

    #[test]
    fn rules_count_once_per_trace() {
        let mut c = Campaign::new();
        // broken_barrier fires B-EARLY-RELEASE on both threads but the
        // campaign counts the rule once for the trace.
        c.record(&check_trace(&fixtures::broken_barrier_trace()));
        assert_eq!(c.rules_fired.get("B-EARLY-RELEASE"), Some(&1));
    }

    #[test]
    fn summary_reports_verdict() {
        let mut c = Campaign::new();
        c.record(&check_trace(&fixtures::correct_barrier_trace()));
        assert!(c.summary().starts_with("CLEAN"));
        c.record(&check_trace(&fixtures::racy_trace()));
        assert!(c.summary().starts_with("FAILING"));
    }

    #[test]
    fn round_trips_through_json() {
        let mut c = Campaign::new();
        c.add_program();
        c.record(&check_trace(&fixtures::broken_barrier_trace()));
        let json = serde_json::to_string(&c).expect("serialize");
        let back: Campaign = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, c);
    }
}
