//! Whole-suite modes: every workload in a process of its own (so peak
//! memory is per workload), the A/A comparison, and the validation of
//! result lines against `BENCHMARK.json`.

use crate::measure::{get, obj, reap};
use crate::{Cli, Ctx, WORKLOADS};
use serde::Value;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The (name, unit, bound) rows of one metric list of `BENCHMARK.json`
/// (per-layer metrics have no bound; theirs reads 0).
fn declared(benchmark: &Value, list: &str) -> Result<Vec<(String, String, f64)>, String> {
    let rows = get(benchmark, list)
        .and_then(Value::as_seq)
        .ok_or(format!("BENCHMARK.json has no {list} list"))?;
    rows.iter()
        .map(|row| {
            let text = |key: &str| {
                get(row, key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json {list} row without {key}"))
            };
            let bound = get(row, "bound").and_then(Value::as_f64).unwrap_or(0.0);
            Ok((text("name")?, text("unit")?, bound))
        })
        .collect()
}

/// Check one result line against the contract and `BENCHMARK.json`:
/// exactly the four keys, and exactly the declared metrics with their
/// declared units and finite values.
pub fn validate_line(line: &Value, benchmark: &Value, traced: bool) -> Result<(), String> {
    let keys: Vec<&str> = line
        .as_map()
        .ok_or("result line is not an object")?
        .iter()
        .filter_map(|(k, _)| k.as_str())
        .collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result line has keys {keys:?}"));
    }
    let attempted = get(line, "attempted").and_then(Value::as_u64);
    let failed = get(line, "failed").and_then(Value::as_u64);
    let correct = get(line, "correct").and_then(Value::as_bool);
    match (correct, attempted, failed) {
        (Some(_), Some(a), Some(f)) if a >= 1 && f <= a => {}
        other => return Err(format!("bad correct/attempted/failed: {other:?}")),
    }
    let metrics = get(line, "metrics").ok_or("no metrics")?;
    let got: Vec<&str> = metrics
        .as_map()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(k, _)| k.as_str())
        .collect();
    let want = declared(benchmark, if traced { "per_layer" } else { "end_to_end" })?;
    let missing: Vec<&str> = want
        .iter()
        .map(|(name, ..)| name.as_str())
        .filter(|name| !got.contains(name))
        .collect();
    let undeclared: Vec<&str> = got
        .iter()
        .copied()
        .filter(|g| !want.iter().any(|(name, ..)| name == g))
        .collect();
    if !missing.is_empty() || !undeclared.is_empty() {
        return Err(format!(
            "metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {undeclared:?}"
        ));
    }
    for (name, unit, ..) in &want {
        let m = get(metrics, name).expect("not among the missing");
        let value = get(m, "value").and_then(Value::as_f64);
        if !value.is_some_and(f64::is_finite) {
            return Err(format!("{name}: value {value:?} is not a finite number"));
        }
        if get(m, "unit").and_then(Value::as_str) != Some(unit) {
            return Err(format!("{name}: unit is not {unit:?}"));
        }
    }
    Ok(())
}

/// Run the harness again as a child for one workload; its chatter goes
/// to our standard error, its result line comes back parsed.
fn child_run(cli: &Cli, out: &Path, workload: &str, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("--root")
        .arg(&cli.root)
        .arg("--bin-dir")
        .arg(&cli.bin_dir)
        .arg("--out")
        .arg(out)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(secs) = cli.seconds {
        cmd.args(["--seconds", &secs.to_string()]);
    }
    if cli.smoke {
        cmd.arg("--smoke");
    } else if traced {
        cmd.arg("--collect-paper");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot re-run the harness: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} run exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("run printed no result line")?;
    serde_json::from_str(last).map_err(|e| format!("result line does not parse: {e}"))
}

fn pair(result: Value, detail: Value) -> Value {
    obj(vec![("result", result), ("detail", detail)])
}

/// The whole suite into `out`: each workload's end-to-end run, then the
/// traced run. Returns (and writes as `results.json`) every result line
/// with its detail sidecar.
pub fn run(cli: &Cli, benchmark: &Value, out: &Path) -> Result<Value, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let t0 = Instant::now();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        eprintln!("=== {workload} ===");
        let line = child_run(cli, out, workload, false)?;
        validate_line(&line, benchmark, false).map_err(|e| format!("{workload}: {e}"))?;
        all_correct &= get(&line, "correct").and_then(Value::as_bool) == Some(true);
        let detail = read_json(&out.join(format!("{workload}.detail.json")))?;
        workloads.push((Value::Str(workload.to_string()), pair(line, detail)));
    }
    let mut doc = vec![("workloads", Value::Map(workloads))];
    if !cli.no_trace {
        eprintln!("=== traced run ===");
        let line = child_run(cli, out, WORKLOADS[0], true)?;
        validate_line(&line, benchmark, true).map_err(|e| format!("traced run: {e}"))?;
        all_correct &= get(&line, "correct").and_then(Value::as_bool) == Some(true);
        doc.push((
            "trace",
            pair(line, read_json(&out.join("trace.detail.json"))?),
        ));
    }
    let doc = obj(doc);
    let path = out.join("results.json");
    crate::write_json(&path, &doc)?;
    eprintln!(
        "suite finished in {:.0} s; every result line matches BENCHMARK.json; wrote {}",
        t0.elapsed().as_secs_f64(),
        path.display()
    );
    if !all_correct {
        return Err("an output check failed (see the FAILED lines above)".into());
    }
    Ok(doc)
}

fn metric_value(run: &Value, section: &str, workload: Option<&str>, name: &str) -> Option<f64> {
    let mut at = get(run, section)?;
    if let Some(w) = workload {
        at = get(at, w)?;
    }
    get(get(get(get(at, "result")?, "metrics")?, name)?, "value")?.as_f64()
}

/// `--aa`: the suite twice on the same tree, both sets side by side.
pub fn aa(cli: &Cli, benchmark: &Value) -> Result<(), String> {
    let first = run(cli, benchmark, &cli.out.join("aa1"))?;
    let second = run(cli, benchmark, &cli.out.join("aa2"))?;
    let mut disagreements = Vec::new();

    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for workload in WORKLOADS {
        for (name, unit, bound) in declared(benchmark, "end_to_end")? {
            let value = |run| {
                metric_value(run, "workloads", Some(workload), &name)
                    .ok_or(format!("{workload}/{name} missing from results.json"))
            };
            let (a, b) = (value(&first)?, value(&second)?);
            let diff = (b - a).abs() / a.abs().min(b.abs());
            let verdict = if diff <= bound { "" } else { "  DISAGREE" };
            println!(
                "{workload:<14} {name:<14} {a:>14.4} {b:>14.4} {:>7.1}% {:>6.0}% {unit}{verdict}",
                diff * 100.0,
                bound * 100.0
            );
            if diff > bound {
                disagreements.push(format!("{workload}/{name}: {a} vs {b}"));
            }
        }
        // Digests, sample counts and the simulated-time fingerprint must
        // be equal, not close.
        for key in ["virt_fnv", "digests", "samples_per_pass"] {
            let field = |run| {
                get(run, "workloads")
                    .and_then(|w| get(w, workload))
                    .and_then(|w| get(w, "detail"))
                    .and_then(|d| get(d, key))
                    .cloned()
            };
            let (a, b) = (field(&first), field(&second));
            if a.is_none() || a != b {
                disagreements.push(format!("{workload}/{key}: {a:?} vs {b:?}"));
            }
        }
    }
    if !cli.no_trace {
        println!(
            "\n{:<36} {:>16} {:>16}",
            "per-layer metric", "first", "second"
        );
        for (name, unit, ..) in declared(benchmark, "per_layer")? {
            let value = |run| {
                metric_value(run, "trace", None, &name)
                    .ok_or(format!("trace/{name} missing from results.json"))
            };
            let (a, b) = (value(&first)?, value(&second)?);
            println!("{name:<36} {a:>16.6} {b:>16.6} {unit}");
            // Counts made by the program repeat exactly or something is
            // wrong; `steals` is the one count scheduling decides.
            if unit == "count" && a != b && name != "sweep.schedule.steals" && name != "trace.spans"
            {
                disagreements.push(format!("trace/{name}: {a} vs {b}"));
            }
        }
    }
    if disagreements.is_empty() {
        println!("\nA/A: every end-to-end metric within its bound; digests and counts equal");
        Ok(())
    } else {
        Err(format!(
            "A/A disagreement:\n  {}",
            disagreements.join("\n  ")
        ))
    }
}

/// One `collect paper` at every core, reported as information only: its
/// run-to-run spread on this class of machine is far wider than any
/// bound (see README.md, "What is left out"), so it is no metric.
pub fn collect_paper_once(ctx: &Ctx) -> Result<Value, String> {
    let dir = ctx.scratch.join("paper");
    let t0 = Instant::now();
    let (ok, usage) = Command::new(ctx.bin("collect"))
        .arg("paper")
        .arg(dir.join("out"))
        .args(["--workers", &ctx.workers.to_string(), "--cache-dir"])
        .arg(dir.join("cache"))
        .arg("--registry")
        .arg(dir.join("registry"))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .and_then(reap)
        .map_err(|e| format!("cannot run collect: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    if !ok {
        return Err("collect paper failed".into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "collect_paper (information only): wall {wall_s:.2} s, cpu {:.2} s, peak rss {:.0} MB",
        usage.cpu_s, usage.max_rss_mb
    );
    Ok(obj(vec![
        ("wall_s", Value::F64(wall_s)),
        ("cpu_s", Value::F64(usage.cpu_s)),
        ("peak_rss_mb", Value::F64(usage.max_rss_mb)),
    ]))
}
