//! The omptune pipeline benchmark harness. `run.sh` builds it (and the
//! binaries it spawns) and passes its arguments through; see `README.md`.
//!
//! `--workload NAME --seed S --seconds N --trace 0|1` makes one run and
//! prints one JSON object as the last line of standard output: the
//! end-to-end metrics with tracing off, the per-layer metrics with it on.
//! Without `--workload` it runs the whole suite, one process per workload.

mod e2e;
mod measure;
mod staged;
mod suite;
mod trace;

use measure::{describe, get, hex, median, obj};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use sweep::Scope;

pub const WORKLOADS: [&str; 4] = ["collect_cold", "collect_warm", "sweep_dense", "analyse"];

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
                        [--out DIR] [--no-trace] [--aa] [--smoke]

  --workload NAME  one run of collect_cold | collect_warm | sweep_dense | analyse;
                   its result is the last line of standard output
  --trace 0|1      with --workload: 0 (default) measures the end-to-end metrics
                   with tracing off, 1 makes the traced per-layer run
  --seed S         seed of every in-process sweep (default 0x05271CEB, the
                   CLI's built-in; `collect` has no seed flag)
  --seconds N      how long one run measures (default: BENCHMARK.json run_seconds)
  --out DIR        where results.json, trace.json and scratch state go
                   (default benchmark/out)
  without --workload: the whole suite, one process per workload, then the
                   traced run (--no-trace skips it); writes DIR/results.json
  --aa             the suite twice on the same tree; fails unless every
                   end-to-end metric agrees within its bound and every digest
                   and count is equal
  --smoke          one pass per workload at the tiny scope, every check on,
                   result lines validated against BENCHMARK.json
";

/// Everything one run needs to know.
pub struct Ctx {
    /// Directory holding `collect`, `repro-tables`, `repro-figures`, `ompprof`.
    pub bin_dir: PathBuf,
    /// This run's scratch directory (inside `--out`), removed at exit.
    pub scratch: PathBuf,
    /// Threads every sweep uses: one per core, never more.
    pub workers: usize,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

impl Ctx {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// The sparse scope of the collect and analyse workloads, as the CLI
    /// names it and as the library does.
    pub fn collect_scope(&self) -> (&'static str, Scope) {
        if self.smoke {
            ("tiny", Scope::Strided(400))
        } else {
            ("fast", Scope::Strided(24))
        }
    }

    pub fn dense_scope(&self) -> Scope {
        if self.smoke {
            Scope::Strided(400)
        } else {
            Scope::PaperSized
        }
    }
}

pub struct Cli {
    pub root: PathBuf,
    pub bin_dir: PathBuf,
    pub out: PathBuf,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub no_trace: bool,
    pub aa: bool,
    pub smoke: bool,
    pub collect_paper: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        root: PathBuf::from("."),
        bin_dir: PathBuf::new(),
        out: PathBuf::new(),
        workload: None,
        seed: sweep::SweepSpec::default().seed,
        seconds: None,
        trace: false,
        no_trace: false,
        aa: false,
        smoke: false,
        collect_paper: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            "--root" => cli.root = PathBuf::from(value()?),
            "--bin-dir" => cli.bin_dir = PathBuf::from(value()?),
            "--out" => cli.out = PathBuf::from(value()?),
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {WORKLOADS:?}"));
                }
                cli.workload = Some(name);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = parse_u64(&v).ok_or(format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let secs: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(secs.is_finite() && secs >= 0.0) {
                    return Err(format!("bad --seconds {v:?}"));
                }
                cli.seconds = Some(secs);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--no-trace" => cli.no_trace = true,
            "--aa" => cli.aa = true,
            "--smoke" => cli.smoke = true,
            "--collect-paper" => cli.collect_paper = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if cli.bin_dir.as_os_str().is_empty() {
        return Err("run the harness through benchmark/run.sh (it passes --bin-dir)".into());
    }
    cli.bin_dir = cli
        .bin_dir
        .canonicalize()
        .map_err(|e| format!("{}: {e}", cli.bin_dir.display()))?;
    if cli.out.as_os_str().is_empty() {
        cli.out = cli.root.join("benchmark/out");
    }
    Ok(cli)
}

/// Removes the run's scratch directory on every way out of `main`.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metric(value: f64, unit: &str) -> Value {
    obj(vec![
        ("value", Value::F64(value)),
        ("unit", Value::Str(unit.to_string())),
    ])
}

/// The one line the contract asks for.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(&str, Value)>) -> String {
    serde_json::to_string(&obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(attempted)),
        ("failed", Value::U64(failed)),
        ("metrics", obj(metrics)),
    ]))
    .expect("a value tree always serializes")
}

fn write_json(path: &Path, doc: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(doc).expect("a value tree always serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn floats(values: &[f64]) -> Value {
    Value::Seq(values.iter().map(|&v| Value::F64(v)).collect())
}

/// One end-to-end run of `workload`: measure, report, print the line.
fn run_e2e(ctx: &Ctx, workload: &str, out: &Path) -> Result<(), String> {
    let outcome = match workload {
        "collect_cold" => e2e::run::<e2e::CollectCold>(ctx),
        "collect_warm" => e2e::run::<e2e::CollectWarm>(ctx),
        "sweep_dense" => e2e::run::<e2e::SweepDense>(ctx),
        "analyse" => e2e::run::<e2e::Analyse>(ctx),
        other => unreachable!("parse_cli admitted workload {other:?}"),
    }?;
    let wall: Vec<f64> = outcome.passes.iter().map(|p| p.wall_s).collect();
    let cpu: Vec<f64> = outcome.passes.iter().map(|p| p.cpu_s).collect();
    let setup = &outcome.setups_s;
    let pass_wall_s = median(&wall);
    let samples_per_s = outcome.facts.samples_per_pass as f64 / pass_wall_s;

    eprintln!(
        "{workload}: seed {:#x}, {} workers, {} passes attempted, {} failed",
        ctx.seed, ctx.workers, outcome.attempted, outcome.failed
    );
    eprintln!("  pass_wall_s    {}", describe(&wall, "s"));
    eprintln!("  pass_cpu_s     {}", describe(&cpu, "s"));
    eprintln!(
        "  samples_per_s  {samples_per_s:.1} 1/s ({} samples per pass)",
        outcome.facts.samples_per_pass
    );
    eprintln!("  peak_rss_mb    {:.1} MB", outcome.peak_rss_mb);
    eprintln!(
        "  setup_s        {} (set-ups, not passes)",
        describe(setup, "s")
    );
    eprintln!(
        "  fail_share     {:.4} ({} of {})",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    eprintln!(
        "  virt_fnv       {:016x} (simulated-time fingerprint; the model is unvalidated: \
         the repo holds no reference times, so no error figure)",
        outcome.facts.virt_fnv
    );
    for (name, digest) in &outcome.facts.digests {
        eprintln!("  {name:<14} {digest:016x}");
    }

    write_json(
        &out.join(format!("{workload}.detail.json")),
        &obj(vec![
            ("workload", Value::Str(workload.to_string())),
            ("seed", Value::U64(ctx.seed)),
            ("workers", Value::U64(ctx.workers as u64)),
            (
                "samples_per_pass",
                Value::U64(outcome.facts.samples_per_pass),
            ),
            ("virt_fnv", hex(outcome.facts.virt_fnv)),
            (
                "digests",
                Value::Map(
                    outcome
                        .facts
                        .digests
                        .iter()
                        .map(|(k, v)| (Value::Str(k.clone()), hex(*v)))
                        .collect(),
                ),
            ),
            ("pass_wall_s", floats(&wall)),
            ("pass_cpu_s", floats(&cpu)),
            ("setup_s", floats(setup)),
        ]),
    )?;

    println!(
        "{}",
        result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            vec![
                ("pass_wall_s", metric(pass_wall_s, "s")),
                ("pass_cpu_s", metric(median(&cpu), "s")),
                ("samples_per_s", metric(samples_per_s, "1/s")),
                ("peak_rss_mb", metric(outcome.peak_rss_mb, "MB")),
                ("setup_s", metric(median(setup), "s")),
            ],
        )
    );
    Ok(())
}

/// One traced run: replay the pipeline under spans, report every layer.
fn run_traced(ctx: &Ctx, out: &Path, collect_paper: bool) -> Result<(), String> {
    let traced = staged::run(ctx)?;
    eprintln!(
        "traced run: seed {:#x}, staged driver at workers = 1 ({} for the N-worker sweep)",
        ctx.seed, ctx.workers
    );
    eprintln!("{}", traced.table);
    for m in &traced.metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  virt_fnv (dense sweep)               {:016x}",
        traced.virt_fnv
    );
    let trace_path = out.join("trace.json");
    staged::write_trace(&traced.tracer, &trace_path)?;
    eprintln!("wrote {}", trace_path.display());

    let mut detail = vec![
        ("seed", Value::U64(ctx.seed)),
        ("workers", Value::U64(ctx.workers as u64)),
        ("virt_fnv", hex(traced.virt_fnv)),
        (
            "failures",
            Value::Seq(traced.failures.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    if collect_paper {
        detail.push(("collect_paper", suite::collect_paper_once(ctx)?));
    }
    write_json(&out.join("trace.detail.json"), &obj(detail))?;

    let attempted = 1;
    let failed = u64::from(!traced.failures.is_empty());
    println!(
        "{}",
        result_line(
            failed == 0,
            attempted,
            failed,
            traced
                .metrics
                .iter()
                .map(|m| (m.name, metric(m.value, m.unit)))
                .collect(),
        )
    );
    Ok(())
}

fn real_main() -> Result<(), String> {
    let cli = parse_cli()?;
    let benchmark_json = suite::read_json(&cli.root.join("BENCHMARK.json"))?;
    if cli.aa {
        return suite::aa(&cli, &benchmark_json);
    }
    let Some(workload) = cli.workload.clone() else {
        return suite::run(&cli, &benchmark_json, &cli.out).map(|_| ());
    };

    std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
    let out = cli
        .out
        .canonicalize()
        .map_err(|e| format!("{}: {e}", cli.out.display()))?;
    let scratch = out.join(format!("scratch-{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let _cleanup = Scratch(scratch.clone());

    let run_seconds = get(&benchmark_json, "run_seconds")
        .and_then(Value::as_f64)
        .ok_or("BENCHMARK.json has no run_seconds")?;
    let ctx = Ctx {
        bin_dir: cli.bin_dir.clone(),
        scratch,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed: cli.seed,
        seconds: if cli.smoke {
            0.0
        } else {
            cli.seconds.unwrap_or(run_seconds)
        },
        smoke: cli.smoke,
    };
    if cli.trace {
        run_traced(&ctx, &out, cli.collect_paper)
    } else {
        run_e2e(&ctx, &workload, &out)
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
