//! `ompfuzz` CLI — schedule-space certification campaigns.
//!
//! ```text
//! ompfuzz certify [--seeds N] [--schedules M] [--base-seed S]
//!                 [--budget-s SEC] [--out PATH] [--json]
//! ompfuzz gen     --seed S [--model]
//! ompfuzz run     --seed S [--schedule J] [--json]
//! ```
//!
//! `certify` generates `N` programs, explores `M` perturbation plans
//! each, replays every novel trace through the happens-before checker
//! and the differential harness, shrinks failures to minimal
//! reproducers, and writes the full verdict to `--out` (default
//! `certification.json`). `gen` prints one generated program (with
//! `--model`, its `simrt` workload model as JSON). `run` executes one
//! (program, schedule) pair and reports its verdict.
//!
//! Exit codes follow the `ompobs` convention: 0 = certified clean,
//! 4 = findings (checker rules fired or differential mismatch), 2 =
//! usage error, 1 = internal error (e.g. report serialization failed).

use ompfuzz::certify::{certify, CertifyConfig};
use ompfuzz::diff::diff;
use ompfuzz::exec::execute;
use ompfuzz::gen::generate;
use ompfuzz::signature::trace_signature;
use omplint::check_trace;
use omprt::{perturb, Plan, ThreadPool};
use std::time::Duration;

const USAGE: &str = "usage: ompfuzz <certify|gen|run> [options]
  certify [--seeds N] [--schedules M] [--base-seed S] [--budget-s SEC]
          [--out PATH] [--json]
  gen     --seed S [--model]
  run     --seed S [--schedule J] [--json]
exit codes: 0 clean, 4 findings, 2 usage, 1 internal";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("certify") => cmd_certify(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
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

fn parse_u64(args: &[String], name: &str, default: u64) -> Result<u64, i32> {
    match parse_flag(args, name).map(str::parse) {
        None => Ok(default),
        Some(Ok(v)) => Ok(v),
        Some(Err(_)) => {
            eprintln!("{name} needs a non-negative integer");
            Err(2)
        }
    }
}

fn cmd_certify(args: &[String]) -> i32 {
    let (seeds, schedules, base_seed, budget) = match (
        parse_u64(args, "--seeds", 25),
        parse_u64(args, "--schedules", 64),
        parse_u64(args, "--base-seed", 0),
        parse_u64(args, "--budget-s", 0),
    ) {
        (Ok(a), Ok(b), Ok(c), Ok(d)) => (a, b, c, d),
        _ => return 2,
    };
    if seeds == 0 || schedules == 0 {
        eprintln!("--seeds and --schedules must be positive");
        return 2;
    }
    let out_path = parse_flag(args, "--out").unwrap_or("certification.json");
    let json = has_flag(args, "--json");

    let cfg = CertifyConfig {
        seeds,
        schedules,
        base_seed,
        time_budget: (budget > 0).then(|| Duration::from_secs(budget)),
    };
    let report = certify(&cfg);

    let serialized = match serde_json::to_string_pretty(&report) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serialization failed: {e:?}");
            return 1;
        }
    };
    if let Err(e) = std::fs::write(out_path, &serialized) {
        eprintln!("cannot write {out_path}: {e}");
        return 1;
    }

    if json {
        println!("{serialized}");
    } else {
        println!("{}", report.summary());
        for f in &report.failures {
            println!(
                "FAIL seed={:#x} schedule={} plan={:#x} rules={:?}",
                f.program_seed, f.schedule_index, f.plan_seed, f.rules
            );
            for v in &f.diff_violations {
                println!("  diff: {v}");
            }
            print!(
                "  reproducer ({} nodes):\n{}",
                f.reproducer.nodes.len(),
                indent(&f.reproducer_source)
            );
        }
        println!("report written to {out_path}");
    }
    if report.is_clean() {
        0
    } else {
        4
    }
}

fn cmd_gen(args: &[String]) -> i32 {
    if parse_flag(args, "--seed").is_none() {
        eprintln!("gen requires --seed");
        return 2;
    }
    let seed = match parse_u64(args, "--seed", 0) {
        Ok(s) => s,
        Err(c) => return c,
    };
    let program = generate(seed);
    print!("{}", program.render());
    if has_flag(args, "--model") {
        match serde_json::to_string_pretty(&program.to_model()) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialization failed: {e:?}");
                return 1;
            }
        }
    }
    0
}

fn cmd_run(args: &[String]) -> i32 {
    if parse_flag(args, "--seed").is_none() {
        eprintln!("run requires --seed");
        return 2;
    }
    let seed = match parse_u64(args, "--seed", 0) {
        Ok(s) => s,
        Err(c) => return c,
    };
    let schedule = match parse_u64(args, "--schedule", 0) {
        Ok(s) => s,
        Err(c) => return c,
    };

    let program = generate(seed);
    let pool = ThreadPool::with_defaults(program.threads);
    let plan = Plan::derive(program.seed, schedule);
    let (records, outcome) = {
        let _g = perturb::install(plan);
        execute(&program, &pool)
    };
    let report = check_trace(&records);
    let violations = diff(&program, &records, &outcome);

    if has_flag(args, "--json") {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("serialization failed: {e:?}");
                return 1;
            }
        }
    } else {
        print!("{}", program.render());
        println!(
            "plan seed={:#x} strength={} | trace {} events, signature {:#018x}",
            plan.seed,
            plan.strength,
            records.len(),
            trace_signature(&records)
        );
        for d in &report.diagnostics {
            println!("{d}");
        }
        for v in &violations {
            println!("diff: {v}");
        }
        if report.is_clean() && violations.is_empty() {
            println!("schedule certified: checker clean, differential harness clean");
        }
    }
    if report.is_clean() && violations.is_empty() {
        0
    } else {
        4
    }
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}\n")).collect()
}
