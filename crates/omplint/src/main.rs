//! `omplint` CLI — the two analysis passes as commands (command line in
//! [`USAGE`]; exit codes are `omptune_core::cli`'s 0/4/2/1, 4 meaning
//! error-severity diagnostics fired).
//!
//! `lint` classifies the raw configuration universe and counts the rule
//! firings. `check` runs the instrumented runtime over a
//! representative workload (regions, all schedules, all reduction
//! methods, task joins), certifies the recorded schedule, or — with
//! `--demo` — replays a deliberately broken fixture to show detection.
//! `--json` emits the full machine-readable report on stdout.

use omplint::check::{self, fixtures, CheckReport, CHECK_RULES};
use omplint::lint::{self, PointClass, RULES};
use omplint::pretty;
use omprt::trace::Record;
use omptune_core::cli::{self, Args, Error, EXIT_OK};
use omptune_core::{Arch, OmpSchedule, ReductionMethod};
use serde::Serialize;
use std::process::ExitCode;

const USAGE: &str = "usage: omplint <lint|check|rules> [options]
  lint  [--arch a64fx|skylake|milan|all] [--threads N] [--json]
  check [--demo broken-barrier|lock-cycle|join-cycle|race|chunk-overlap|
         lost-wakeup|tainted-barrier] [--json]
  rules
exit codes: 0 clean, 4 findings, 2 usage, 1 internal";

/// A `check --demo` fixture: its report label and its broken trace.
fn demo(name: &str) -> Option<(&'static str, Vec<Record>)> {
    use fixtures::*;
    Some(match name {
        "broken-barrier" => ("demo: broken barrier", broken_barrier_trace()),
        "lock-cycle" => ("demo: lock-order cycle", lock_cycle_trace()),
        "join-cycle" => ("demo: task join cycle", join_cycle_trace()),
        "race" => ("demo: unsynchronized writes", racy_trace()),
        "chunk-overlap" => ("demo: overlapping chunks", overlapping_chunks_trace()),
        "lost-wakeup" => ("demo: lost wakeup (stale-epoch park)", lost_wakeup_trace()),
        "tainted-barrier" => (
            "demo: tainted barrier masking a race",
            tainted_barrier_mask_trace(),
        ),
        _ => return None,
    })
}

/// A parsed command line: the pass to run, ending in its exit code.
type Job = Box<dyn FnOnce() -> Result<u8, Error>>;

fn parse(mut args: Args) -> Result<Job, Error> {
    let job: Job = match args.subcommand()?.as_str() {
        "lint" => {
            let archs = match args.value("--arch")?.as_deref() {
                None | Some("all") => Arch::ALL.to_vec(),
                Some(id) => vec![Arch::from_id(id).ok_or_else(|| Error::unknown("arch", id))?],
            };
            let (threads, json) = (args.positive("--threads")?, args.flag("--json"));
            Box::new(move || cmd_lint(archs, threads, json))
        }
        "check" => {
            // Without a demo (label, trace), checks a live workload.
            let demo = match args.value("--demo")? {
                Some(name) => Some(demo(&name).ok_or_else(|| Error::unknown("demo", &name))?),
                None => None,
            };
            let json = args.flag("--json");
            Box::new(move || cmd_check(demo, json))
        }
        "rules" => Box::new(cmd_rules),
        other => return Err(Error::unknown("subcommand", other)),
    };
    args.finish()?;
    Ok(job)
}

fn main() -> ExitCode {
    cli::run("omplint", USAGE, |args| parse(args)?())
}

#[derive(Serialize)]
struct LintSummary {
    arch: String,
    num_threads: usize,
    raw_points: usize,
    invalid: usize,
    redundant: usize,
    valid: usize,
    keep_ratio: f64,
    rule_counts: Vec<(String, usize)>,
}

fn summarize(report: &lint::LintReport) -> LintSummary {
    let valid = report.count(PointClass::Valid);
    LintSummary {
        arch: report.arch.id().to_string(),
        num_threads: report.num_threads,
        raw_points: report.raw_len(),
        invalid: report.count(PointClass::Invalid),
        redundant: report.count(PointClass::Redundant),
        valid,
        keep_ratio: valid as f64 / report.raw_len() as f64,
        rule_counts: report
            .rule_counts()
            .into_iter()
            .map(|(id, n)| (id.to_string(), n))
            .collect(),
    }
}

fn cmd_lint(archs: Vec<Arch>, threads: Option<usize>, json: bool) -> Result<u8, Error> {
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
        println!("{}", pretty(&summaries)?);
    }
    Ok(EXIT_OK)
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

fn cmd_check(demo: Option<(&str, Vec<Record>)>, json: bool) -> Result<u8, Error> {
    let (label, report) = match demo {
        Some((label, trace)) => (label, check::check_trace(&trace)),
        None => ("live runtime workload", live_workload_report()),
    };
    if json {
        println!("{}", pretty(&report)?);
    } else {
        print_check_report(label, &report);
    }
    Ok(cli::findings(!report.is_clean()))
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

fn cmd_rules() -> Result<u8, Error> {
    println!("lint rules (configuration space):");
    for r in &RULES {
        println!("  {:<7} {:<22} {}", r.severity, r.id, r.summary);
    }
    println!("check rules (synchronization traces):");
    for r in &CHECK_RULES {
        println!("  {:<7} {:<22} {}", r.severity, r.id, r.summary);
    }
    Ok(EXIT_OK)
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_command_line_is_a_pass_or_a_usage_error() {
        omptune_core::cli::check_parse(
            super::parse,
            "lint | lint --arch a64fx --threads 200 --json | lint --arch all | check --json \
             | check --demo tainted-barrier | rules",
            " | frob | lint --arhc milan | lint --arch nope | lint --arch \
             | lint --threads 0 | lint --threads abc | lint milan | check --demo nope \
             | check --threads 4 | rules --json",
        );
    }
}
