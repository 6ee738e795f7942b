//! `omplint` CLI — the two analysis passes as commands.
//!
//! ```text
//! omplint lint  [--arch a64fx|skylake|milan|all] [--threads N] [--json]
//! omplint check [--demo broken-barrier|lock-cycle|join-cycle|race|chunk-overlap|
//!                lost-wakeup|tainted-barrier] [--json]
//! omplint rules
//! ```
//!
//! `lint` classifies the raw configuration universe and reports the
//! pruned sweep space. `check` runs the instrumented runtime over a
//! representative workload (regions, all schedules, all reduction
//! methods, task joins), certifies the recorded schedule, or — with
//! `--demo` — replays a deliberately broken fixture to show detection.
//! `--json` emits the full machine-readable report on stdout.
//!
//! Exit codes follow the `ompobs` convention: 0 = clean, 4 = findings
//! (error-severity diagnostics fired), 2 = usage error, 1 = internal
//! error (e.g. serialization failure).

use omplint::check::{self, fixtures, CheckReport, CHECK_RULES};
use omplint::lint::{self, PointClass, RULES};
use omptune_core::{Arch, OmpSchedule, ReductionMethod, Severity};
use serde::Serialize;

const USAGE: &str = "usage: omplint <lint|check|rules> [options]
  lint  [--arch a64fx|skylake|milan|all] [--threads N] [--json]
  check [--demo broken-barrier|lock-cycle|join-cycle|race|chunk-overlap|
         lost-wakeup|tainted-barrier] [--json]
  rules
exit codes: 0 clean, 4 findings, 2 usage, 1 internal";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("rules") => cmd_rules(),
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn parse_flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

#[derive(Serialize)]
struct LintSummary {
    arch: String,
    num_threads: usize,
    raw_points: usize,
    invalid: usize,
    redundant: usize,
    valid: usize,
    pruned_len: usize,
    keep_ratio: f64,
    rule_counts: Vec<(String, usize)>,
}

fn summarize(report: &lint::LintReport) -> LintSummary {
    let valid = report.count(PointClass::Valid);
    let pruned_len = report.pruned().map(|p| p.len()).unwrap_or(0);
    LintSummary {
        arch: report.arch.id().to_string(),
        num_threads: report.num_threads,
        raw_points: report.raw_len(),
        invalid: report.count(PointClass::Invalid),
        redundant: report.count(PointClass::Redundant),
        valid,
        pruned_len,
        keep_ratio: valid as f64 / report.raw_len() as f64,
        rule_counts: report
            .rule_counts()
            .into_iter()
            .map(|(id, n)| (id.to_string(), n))
            .collect(),
    }
}

fn cmd_lint(args: &[String]) -> i32 {
    let arch_arg = parse_flag(args, "--arch").unwrap_or("all");
    let archs: Vec<Arch> = if arch_arg == "all" {
        Arch::ALL.to_vec()
    } else {
        match Arch::from_id(arch_arg) {
            Some(a) => vec![a],
            None => {
                eprintln!("unknown arch '{arch_arg}' (a64fx|skylake|milan|all)");
                return 2;
            }
        }
    };
    let threads: Option<usize> = match parse_flag(args, "--threads").map(str::parse) {
        None => None,
        Some(Ok(n)) => Some(n),
        Some(Err(_)) => {
            eprintln!("--threads needs a positive integer");
            return 2;
        }
    };
    let json = has_flag(args, "--json");

    let mut summaries = Vec::new();
    for arch in archs {
        let n = threads.unwrap_or_else(|| arch.cores());
        let report = lint::lint_space(arch, n);
        if !json {
            print_lint_report(&report);
        }
        summaries.push(summarize(&report));
    }
    if json {
        match serde_json::to_string_pretty(&summaries) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialization failed: {e:?}");
                return 1;
            }
        }
    }
    0
}

fn print_lint_report(report: &lint::LintReport) {
    let s = summarize(report);
    println!("== lint: {} @ {} threads ==", s.arch, s.num_threads);
    println!(
        "raw universe {} points: {} invalid, {} redundant, {} valid ({:.1}% kept)",
        s.raw_points,
        s.invalid,
        s.redundant,
        s.valid,
        100.0 * s.keep_ratio
    );
    println!("pruned sweep space: {} configurations", s.pruned_len);
    println!("rule firings:");
    for (id, n) in &s.rule_counts {
        let sample = report
            .points
            .iter()
            .flat_map(|p| p.diagnostics.iter())
            .find(|d| &d.rule == id);
        match sample {
            Some(d) if *n > 0 => println!("  {id:<22} {n:>6}  e.g. {}", d.message),
            _ => println!("  {id:<22} {n:>6}"),
        }
    }
    println!();
}

fn cmd_check(args: &[String]) -> i32 {
    let json = has_flag(args, "--json");
    let (label, report) = match parse_flag(args, "--demo") {
        Some("broken-barrier") => (
            "demo: broken barrier",
            check::check_trace(&fixtures::broken_barrier_trace()),
        ),
        Some("lock-cycle") => (
            "demo: lock-order cycle",
            check::check_trace(&fixtures::lock_cycle_trace()),
        ),
        Some("join-cycle") => (
            "demo: task join cycle",
            check::check_trace(&fixtures::join_cycle_trace()),
        ),
        Some("race") => (
            "demo: unsynchronized writes",
            check::check_trace(&fixtures::racy_trace()),
        ),
        Some("chunk-overlap") => (
            "demo: overlapping chunks",
            check::check_trace(&fixtures::overlapping_chunks_trace()),
        ),
        Some("lost-wakeup") => (
            "demo: lost wakeup (stale-epoch park)",
            check::check_trace(&fixtures::lost_wakeup_trace()),
        ),
        Some("tainted-barrier") => (
            "demo: tainted barrier masking a race",
            check::check_trace(&fixtures::tainted_barrier_mask_trace()),
        ),
        Some(other) => {
            eprintln!("unknown demo '{other}'");
            return 2;
        }
        None => ("live runtime workload", live_workload_report()),
    };

    if json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialization failed: {e:?}");
                return 1;
            }
        }
    } else {
        print_check_report(label, &report);
    }
    if report.is_clean() {
        0
    } else {
        4
    }
}

/// Trace a workload touching every instrumented subsystem: fork-join
/// regions, all three dispatcher schedules, all reduction methods, and
/// nested task joins.
fn live_workload_report() -> CheckReport {
    let pool = omprt::ThreadPool::with_defaults(4);
    let session = omprt::trace::session();

    for schedule in [
        OmpSchedule::Static,
        OmpSchedule::Dynamic,
        OmpSchedule::Guided,
    ] {
        omprt::worksharing::parallel_for(&pool, schedule, 1000, |_| {});
    }
    for method in [
        ReductionMethod::Tree,
        ReductionMethod::Critical,
        ReductionMethod::Atomic,
    ] {
        let sum = omprt::worksharing::parallel_reduce_sum(
            &pool,
            OmpSchedule::Static,
            method,
            1000,
            |i| i as f64,
        );
        assert_eq!(sum, 499_500.0);
    }
    let total = omprt::task_parallel(&pool, || {
        let (a, b) = omprt::join(|| 1u64 + 1, || 2u64 + 2);
        a + b
    });
    assert_eq!(total, 6);

    check::check_trace(&session.finish())
}

fn print_check_report(label: &str, report: &CheckReport) {
    println!("== check: {label} ==");
    let s = &report.stats;
    println!(
        "{} events over {} threads: {} regions, {} barriers ({} episodes), \
         {} tasks ({} stolen), {} locks, {} locations, {} loops ({} chunks)",
        s.events,
        s.threads,
        s.regions,
        s.barriers,
        s.episodes_completed,
        s.tasks,
        s.steals,
        s.locks,
        s.locations,
        s.loops,
        s.chunks
    );
    if s.conds > 0 {
        println!(
            "condvar protocol: {} conds, {} notifies, {} parks",
            s.conds, s.notifies, s.parks
        );
    }
    if report.diagnostics.is_empty() {
        println!("schedule certified: no races, no barrier misuse, no deadlock shapes");
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
    }
    println!();
}

fn cmd_rules() -> i32 {
    println!("lint rules (configuration space):");
    for r in &RULES {
        println!("  {:<7} {:<22} {}", sev(r.severity), r.id, r.summary);
    }
    println!("check rules (synchronization traces):");
    for r in &CHECK_RULES {
        println!("  {:<7} {:<22} {}", sev(r.severity), r.id, r.summary);
    }
    0
}

fn sev(s: Severity) -> &'static str {
    match s {
        Severity::Note => "note",
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}
