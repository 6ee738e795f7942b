//! `ompprof` — sweep-wide cost attribution and differential flame
//! graphs.
//!
//! Subcommands:
//!
//! - `ompprof attribute [ARCH] [APP] [--scope N] [--workers N]
//!   [--out PATH] [--data DIR] [--check]` — sweep a strided slice of
//!   one setting (or fold an exported `raw_batches.json` via `--data`),
//!   fold every sample's sink breakdown into the per-(variable, value)
//!   attribution profile, write it as JSON, and print the marginal-cost
//!   ranking. `--check` cross-validates the top-ranked variable against
//!   the logistic-regression influence ranking.
//! - `ompprof diff [ARCH] [APP] [--out-dir DIR]` — sweep the same slice
//!   the telemetry report uses, pick the best and worst configurations
//!   by mean runtime, and render their phase trees as folded stacks and
//!   flame-graph SVGs plus a signed red/blue diff view.
//!
//! Exit codes (shared omplint/ompfuzz/ompobs convention):
//! 0 = clean, 4 = findings (ranking disagreement), 2 = usage error,
//! 1 = internal error.

use ompprof::{Attribution, SliceMeta};
use omptune_core::{Arch, GroupBy, TuningConfig, Variable};
use std::process::ExitCode;
use sweep::{Scope, SettingData, SweepSpec};

const EXIT_FINDINGS: u8 = 4;
const EXIT_USAGE: u8 = 2;
const EXIT_INTERNAL: u8 = 1;

fn usage() -> String {
    "usage: ompprof attribute [ARCH] [APP] [--scope N] [--workers N] [--out PATH] [--data DIR] [--check]\n\
     \x20      ompprof diff [ARCH] [APP] [--out-dir DIR]"
        .to_string()
}

struct CommonArgs {
    arch: Arch,
    app: String,
    scope: usize,
    workers: usize,
    out: String,
    out_dir: String,
    data: Option<String>,
    check: bool,
}

fn parse_args(args: &[String]) -> Result<CommonArgs, String> {
    let mut parsed = CommonArgs {
        arch: Arch::Milan,
        app: "cg".to_string(),
        scope: 400,
        workers: 4,
        out: "profile.json".to_string(),
        out_dir: "ompprof-out".to_string(),
        data: None,
        check: false,
    };
    let mut positional = 0usize;
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        match a.as_str() {
            "--check" => parsed.check = true,
            "--scope" | "--workers" | "--out" | "--out-dir" | "--data" => {
                let v = rest
                    .next()
                    .ok_or_else(|| format!("{a} needs a value"))?
                    .clone();
                match a.as_str() {
                    "--scope" => {
                        parsed.scope = v.parse().map_err(|_| format!("bad --scope {v:?}"))?;
                        if parsed.scope == 0 {
                            return Err("--scope must be positive".into());
                        }
                    }
                    "--workers" => {
                        parsed.workers = v.parse().map_err(|_| format!("bad --workers {v:?}"))?;
                        if parsed.workers == 0 {
                            return Err("--workers must be positive".into());
                        }
                    }
                    "--out" => parsed.out = v,
                    "--out-dir" => parsed.out_dir = v,
                    "--data" => parsed.data = Some(v),
                    _ => unreachable!(),
                }
            }
            s if s.starts_with("--") => return Err(format!("unknown flag {s}")),
            s => {
                match positional {
                    0 => {
                        parsed.arch = Arch::from_id(s).ok_or_else(|| {
                            format!("unknown arch {s:?} (expected a64fx, skylake, or milan)")
                        })?
                    }
                    1 => parsed.app = s.to_string(),
                    _ => return Err(format!("unexpected argument {s:?}")),
                }
                positional += 1;
            }
        }
    }
    Ok(parsed)
}

/// Sweep the strided slice `attribute`/`diff` profile: one setting (the
/// largest) of `app` on `arch`, in catalog position 0, default seed.
fn sweep_slice(
    arch: Arch,
    app_name: &str,
    scope: usize,
    workers: usize,
) -> Result<(Vec<SettingData>, SweepSpec), String> {
    let app = workloads::app(app_name).ok_or_else(|| format!("unknown app {app_name:?}"))?;
    if !workloads::available_on(app_name, arch) {
        return Err(format!("{app_name} is not available on {}", arch.id()));
    }
    let spec = SweepSpec {
        scope: Scope::Strided(scope),
        ..SweepSpec::default()
    };
    let setting = workloads::settings_for(app, arch)
        .last()
        .copied()
        .ok_or_else(|| format!("{app_name} has no settings on {}", arch.id()))?;
    let (data, _stats) = sweep::sweep_setting_scheduled(
        arch,
        app,
        setting,
        0,
        &spec,
        &sweep::SweepOptions::new(workers),
    );
    Ok((vec![data], spec))
}

/// Top environment variable of the logistic-influence ranking for the
/// `{arch}/{app}` group (paper Figs. 2–4 measure).
fn logreg_top(batches: &[SettingData], arch: Arch, app: &str) -> Result<Variable, String> {
    let records = sweep::Dataset::build(batches).records;
    let hm = omptune_core::influence_analysis(&records, GroupBy::ArchApplication)
        .map_err(|e| format!("influence analysis failed: {e:?}"))?;
    let group = format!("{}/{}", arch.id(), app);
    let row = hm
        .row(&group)
        .ok_or_else(|| format!("no influence row for {group}"))?;
    let mut best: Option<(Variable, f64)> = None;
    for (f, v) in hm.features.iter().zip(&row.influence) {
        let Some(var) = f.variable() else {
            continue;
        };
        if best.map(|(_, bv)| *v > bv).unwrap_or(true) {
            best = Some((var, *v));
        }
    }
    best.map(|(f, _)| f)
        .ok_or_else(|| "no env features in influence row".to_string())
}

fn cmd_attribute(args: CommonArgs) -> Result<u8, String> {
    let (batches, seed, scope_label) = match &args.data {
        Some(dir) => {
            let path = format!("{dir}/raw_batches.json");
            let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let batches =
                sweep::export::read_raw_json(&bytes).map_err(|e| format!("{path}: {e}"))?;
            if let Some(foreign) = ompprof::foreign_sample(&batches) {
                return Err(format!("{path}: {foreign}"));
            }
            (batches, SweepSpec::default().seed, format!("data:{dir}"))
        }
        None => {
            let (batches, spec) = sweep_slice(args.arch, &args.app, args.scope, args.workers)?;
            (batches, spec.seed, format!("strided({})", args.scope))
        }
    };
    if batches.iter().all(|b| b.samples.is_empty()) {
        return Err("slice contains no samples".into());
    }

    let mut profile = Attribution::new();
    profile.fold_slice(&batches);
    let meta = SliceMeta {
        arch: args.arch.id().to_string(),
        app: args.app.clone(),
        scope: scope_label,
        seed,
        fingerprint: sweep::slice_fingerprint(&batches),
    };
    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&args.out, profile.to_json(&meta))
        .map_err(|e| format!("cannot write {}: {e}", args.out))?;

    println!(
        "ompprof attribute: {} samples ({} failed reps) over {}/{}",
        profile.samples(),
        profile.grand.failed_reps,
        meta.arch,
        meta.app
    );
    for (i, (f, spread)) in profile.ranked_variables().iter().take(3).enumerate() {
        println!(
            "  #{} {:<20} spread {:.3} ms",
            i + 1,
            f.env_name(),
            spread * 1e-6
        );
    }
    for (i, (f, spread)) in profile.ranked_variables_energy().iter().take(3).enumerate() {
        println!(
            "  E#{} {:<19} spread {:.3} mJ",
            i + 1,
            f.env_name(),
            spread * 1e3
        );
    }
    println!("wrote {}", args.out);

    if args.check {
        let attributed = profile
            .top_variable()
            .ok_or_else(|| "empty profile has no top variable".to_string())?;
        let influence = logreg_top(&batches, args.arch, &args.app)?;
        if attributed == influence {
            println!(
                "check: attribution and logreg influence agree on {}",
                attributed.env_name()
            );
        } else {
            println!(
                "check: DISAGREE — attribution says {}, logreg influence says {}",
                attributed.env_name(),
                influence.env_name()
            );
            return Ok(EXIT_FINDINGS);
        }
    }
    Ok(0)
}

/// Region-level summary of one configuration under an exclusive
/// telemetry session (same recipe as `omptel-report`, whose recorded
/// best-vs-worst gap this subcommand must reproduce).
fn summarize(
    arch: Arch,
    config: &TuningConfig,
    model: &simrt::Model,
    seed: u64,
) -> Result<omptel::Summary, String> {
    let session = omptel::session().map_err(|e| format!("telemetry session: {e}"))?;
    simrt::simulate(arch, config, model, seed);
    Ok(session.finish().summary())
}

fn cmd_diff(args: CommonArgs) -> Result<u8, String> {
    // The exact slice omtel-report's best_vs_worst uses, so the gap
    // printed here is the recorded one.
    let (batches, spec) = sweep_slice(args.arch, &args.app, 50, 4)?;
    let data = &batches[0];
    let best = data
        .samples
        .iter()
        .min_by(|a, b| a.mean_runtime().total_cmp(&b.mean_runtime()))
        .ok_or("empty sweep")?;
    let worst = data
        .samples
        .iter()
        .max_by(|a, b| a.mean_runtime().total_cmp(&b.mean_runtime()))
        .ok_or("empty sweep")?;

    let app = workloads::app(&args.app).expect("validated in sweep_slice");
    let setting = workloads::settings_for(app, args.arch)
        .last()
        .copied()
        .expect("validated in sweep_slice");
    let model = (app.model)(args.arch, setting);

    let best_sum = summarize(args.arch, &best.config, &model, spec.seed)?;
    let worst_sum = summarize(args.arch, &worst.config, &model, spec.seed)?;
    let gap = worst_sum.total_ns as f64 / best_sum.total_ns as f64;

    let best_ex = simrt::explain(args.arch, &best.config, &model, spec.seed);
    let worst_ex = simrt::explain(args.arch, &worst.config, &model, spec.seed);
    let best_tree = ompprof::explanation_tree(&args.app, args.arch, &best.config, &best_ex);
    let worst_tree = ompprof::explanation_tree(&args.app, args.arch, &worst.config, &worst_ex);
    let energy_gap = worst_tree.energy_j / best_tree.energy_j.max(1e-12);

    // Attribution over the same slice names the variable the flame
    // graph subtitle blames.
    let mut profile = Attribution::new();
    profile.fold_slice(&batches);
    let top = profile
        .top_variable()
        .map(|f| f.env_name().to_string())
        .unwrap_or_else(|| "n/a".to_string());

    let dir = std::path::Path::new(&args.out_dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", args.out_dir))?;
    let write = |name: &str, text: String| -> Result<(), String> {
        std::fs::write(dir.join(name), text)
            .map_err(|e| format!("cannot write {}/{name}: {e}", args.out_dir))
    };
    let slug = format!("{}/{} t={}", args.arch.id(), args.app, setting.num_threads);
    write("best.folded", ompprof::folded(&best_tree))?;
    write("worst.folded", ompprof::folded(&worst_tree))?;
    write(
        "flame_best.svg",
        ompprof::svg(
            &best_tree,
            &format!("best {slug}"),
            &format!("speedup {:.2}x | top variable {top}", data.speedup(best)),
        ),
    )?;
    write(
        "flame_worst.svg",
        ompprof::svg(
            &worst_tree,
            &format!("worst {slug}"),
            &format!("speedup {:.2}x | top variable {top}", data.speedup(worst)),
        ),
    )?;
    write(
        "flame_diff.svg",
        ompprof::diff_svg(
            &best_tree,
            &worst_tree,
            &format!("worst vs best {slug}"),
            &format!("best-vs-worst {gap:.2}x region-time gap | top variable {top}"),
        ),
    )?;
    write(
        "flame_energy_diff.svg",
        ompprof::energy_diff_svg(
            &best_tree,
            &worst_tree,
            &format!("worst vs best {slug} (energy)"),
            &format!(
                "best-vs-worst {energy_gap:.2}x modeled-energy gap | time layout, joule colors"
            ),
        ),
    )?;

    println!(
        "ompprof diff {slug}: best-vs-worst: {gap:.2}x region-time gap, \
         {energy_gap:.2}x modeled-energy gap (top variable {top})"
    );
    println!(
        "wrote {}/{{best,worst}}.folded, flame_{{best,worst,diff}}.svg, and flame_energy_diff.svg",
        args.out_dir
    );
    Ok(0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(EXIT_USAGE);
    };
    let parsed = match parse_args(&args[1..]) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("ompprof: {e}\n{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let result = match cmd.as_str() {
        "attribute" => cmd_attribute(parsed),
        "diff" => cmd_diff(parsed),
        other => {
            eprintln!("ompprof: unknown subcommand {other:?}\n{}", usage());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("ompprof: {e}");
            ExitCode::from(EXIT_INTERNAL)
        }
    }
}
