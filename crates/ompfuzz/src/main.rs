//! `ompfuzz` CLI — schedule-space certification campaigns (command line
//! in [`USAGE`]; exit codes are `omptune_core::cli`'s 0/4/2/1).
//!
//! `certify` generates `N` programs, explores `M` perturbation plans
//! each, replays every novel trace through the happens-before checker
//! and the differential harness, shrinks failures to minimal
//! reproducers, and writes the full verdict to `--out` (default
//! `certification.json`). `gen` prints one generated program (with
//! `--model`, its `simrt` workload model as JSON). `run` executes one
//! (program, schedule) pair and reports its verdict.

use ompfuzz::certify::{certify, CertifyConfig};
use ompfuzz::diff::diff;
use ompfuzz::exec::execute;
use ompfuzz::gen::generate;
use ompfuzz::signature::trace_signature;
use omplint::{check_trace, pretty};
use omprt::{perturb, Plan, ThreadPool};
use omptune_core::cli::{self, Args, Error, EXIT_OK};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: ompfuzz <certify|gen|run> [options]
  certify [--seeds N] [--schedules M] [--base-seed S] [--budget-s SEC]
          [--out PATH] [--json]
  gen     --seed S [--model]
  run     --seed S [--schedule J] [--json]
exit codes: 0 clean, 4 findings, 2 usage, 1 internal";

/// A parsed command line: the campaign to run, ending in its exit code.
type Job = Box<dyn FnOnce() -> Result<u8, Error>>;

fn parse(mut args: Args) -> Result<Job, Error> {
    let seed = |args: &mut Args| {
        args.parsed("--seed", "a non-negative integer")?
            .ok_or_else(|| Error::usage("--seed is required"))
    };
    let job: Job = match args.subcommand()?.as_str() {
        "certify" => {
            let cfg = CertifyConfig {
                seeds: args.positive("--seeds")?.unwrap_or(25),
                schedules: args.positive("--schedules")?.unwrap_or(64),
                base_seed: args
                    .parsed("--base-seed", "a non-negative integer")?
                    .unwrap_or(0),
                time_budget: args
                    .parsed("--budget-s", "a number of seconds")?
                    .filter(|s| *s > 0)
                    .map(Duration::from_secs),
            };
            let out = args.value("--out")?;
            let json = args.flag("--json");
            Box::new(move || {
                cmd_certify(&cfg, out.as_deref().unwrap_or("certification.json"), json)
            })
        }
        "gen" => {
            let (seed, model) = (seed(&mut args)?, args.flag("--model"));
            Box::new(move || cmd_gen(seed, model))
        }
        "run" => {
            let seed = seed(&mut args)?;
            let schedule = args.parsed("--schedule", "a non-negative integer")?;
            let json = args.flag("--json");
            Box::new(move || cmd_run(seed, schedule.unwrap_or(0), json))
        }
        other => return Err(Error::unknown("subcommand", other)),
    };
    args.finish()?;
    Ok(job)
}

fn main() -> ExitCode {
    cli::run("ompfuzz", USAGE, |args| parse(args)?())
}

fn cmd_certify(cfg: &CertifyConfig, out_path: &str, json: bool) -> Result<u8, Error> {
    let report = certify(cfg);
    let serialized = pretty(&report)?;
    std::fs::write(out_path, &serialized).map_err(|e| format!("cannot write {out_path}: {e}"))?;

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
    Ok(cli::findings(!report.is_clean()))
}

fn cmd_gen(seed: u64, model: bool) -> Result<u8, Error> {
    let program = generate(seed);
    print!("{}", program.render());
    if model {
        println!("{}", pretty(&program.to_model())?);
    }
    Ok(EXIT_OK)
}

fn cmd_run(seed: u64, schedule: u64, json: bool) -> Result<u8, Error> {
    let program = generate(seed);
    let pool = ThreadPool::with_defaults(program.threads);
    let plan = Plan::derive(program.seed, schedule);
    let (records, outcome) = {
        let _g = perturb::install(plan);
        execute(&program, &pool)
    };
    let report = check_trace(&records);
    let violations = diff(&program, &records, &outcome);
    let clean = report.is_clean() && violations.is_empty();

    if json {
        println!("{}", pretty(&report)?);
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
        if clean {
            println!("schedule certified: checker clean, differential harness clean");
        }
    }
    Ok(cli::findings(!clean))
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}\n")).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_command_line_is_a_campaign_or_a_usage_error() {
        omptune_core::cli::check_parse(
            super::parse,
            "certify \
             | certify --seeds 2 --schedules 3 --base-seed 7 --budget-s 0 --out c.json --json \
             | gen --seed 42 --model | run --seed 42 --schedule 7 --json",
            " | frob | certify --seeds 2 --schedulse 1 | certify --seeds \
             | certify --seeds 0 | certify --seeds two | certify extra | gen \
             | gen --seed 1 --json | run --schedule 3",
        );
    }
}
