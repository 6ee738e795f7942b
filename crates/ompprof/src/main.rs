//! `ompprof` — sweep-wide cost attribution and differential flame
//! graphs.
//!
//! Subcommands (command lines in [`USAGE`]):
//!
//! - `attribute` — sweep a strided slice of one setting (or fold an
//!   exported `raw_batches.json` via `--data`), fold every sample's sink
//!   breakdown into the per-(variable, value) attribution profile, write
//!   it as JSON, and print the marginal-cost ranking. `--check`
//!   cross-validates the top-ranked variable against the
//!   logistic-regression influence ranking.
//! - `diff` — sweep the same slice the telemetry report uses, pick the
//!   best and worst configurations by mean runtime, and render their
//!   phase trees as folded stacks and flame-graph SVGs plus a signed
//!   red/blue diff view.
//!
//! Exit codes are `omptune_core::cli`'s 0/4/2/1, 4 meaning `--check`
//! found the two rankings disagreeing.

use ompprof::{Attribution, SliceMeta};
use omptune_core::cli::{self, Args, Error, EXIT_OK};
use omptune_core::{Arch, GroupBy, Variable};
use std::process::ExitCode;
use sweep::{ReportSlice, SettingData, SweepOptions, SweepSpec};

const USAGE: &str = "usage: ompprof attribute [ARCH] [APP] [--scope N] [--workers N] [--out PATH] [--data DIR] [--check]
       ompprof diff [ARCH] [APP] [--out-dir DIR]";

/// A parsed command line; a subcommand's flags stay at their defaults
/// under the other one.
struct Cli {
    diff: bool,
    arch: Arch,
    app: String,
    scope: usize,
    workers: usize,
    out: String,
    data: Option<String>,
    check: bool,
    out_dir: String,
}

fn parse(mut args: Args) -> Result<Cli, Error> {
    let diff = match args.subcommand()?.as_str() {
        "attribute" => false,
        "diff" => true,
        other => return Err(Error::unknown("subcommand", other)),
    };
    let mut cli = Cli {
        diff,
        arch: Arch::Milan,
        app: "cg".to_string(),
        scope: 400,
        workers: 4,
        out: "profile.json".to_string(),
        data: None,
        check: false,
        out_dir: "ompprof-out".to_string(),
    };
    if diff {
        cli.out_dir = args.value("--out-dir")?.unwrap_or(cli.out_dir);
    } else {
        cli.scope = args.positive("--scope")?.unwrap_or(cli.scope);
        cli.workers = args.positive("--workers")?.unwrap_or(cli.workers);
        cli.out = args.value("--out")?.unwrap_or(cli.out);
        cli.data = args.value("--data")?;
        cli.check = args.flag("--check");
    }
    if let Some(id) = args.positional()? {
        cli.arch = Arch::from_id(&id).ok_or_else(|| Error::unknown("arch", &id))?;
    }
    cli.app = args.positional()?.unwrap_or(cli.app);
    args.finish()?;
    Ok(cli)
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

fn cmd_attribute(args: &Cli) -> Result<u8, Error> {
    let (batches, scope_label) = match &args.data {
        Some(dir) => {
            let path = format!("{dir}/raw_batches.json");
            let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let batches =
                sweep::export::read_raw_json(&bytes).map_err(|e| format!("{path}: {e}"))?;
            if let Some(foreign) = ompprof::foreign_sample(&batches) {
                return Err(format!("{path}: {foreign}").into());
            }
            (batches, format!("data:{dir}"))
        }
        None => {
            let workers = SweepOptions::new(args.workers);
            let slice = ReportSlice::sweep(args.arch, &args.app, args.scope, &workers)?;
            (vec![slice.data], format!("strided({})", args.scope))
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
        seed: SweepSpec::default().seed,
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
        }
        return Ok(cli::findings(attributed != influence));
    }
    Ok(EXIT_OK)
}

fn cmd_diff(args: &Cli) -> Result<u8, Error> {
    // omptel-report's slice, so the gap printed here is the recorded one.
    let slice = ReportSlice::sweep(args.arch, &args.app, 50, &SweepOptions::new(4))?;
    let (best, worst) = (slice.fastest()?, slice.slowest()?);
    let (data, setting, seed) = (&slice.data, slice.setting, slice.spec.seed);
    let model = slice.model();
    let gap = slice.virtual_gap()?;

    let best_ex = simrt::explain(args.arch, &best.config, &model, seed);
    let worst_ex = simrt::explain(args.arch, &worst.config, &model, seed);
    let best_tree = ompprof::explanation_tree(&args.app, args.arch, &best.config, &best_ex);
    let worst_tree = ompprof::explanation_tree(&args.app, args.arch, &worst.config, &worst_ex);
    let energy_gap = worst_tree.energy_j / best_tree.energy_j.max(1e-12);

    // Attribution over the same slice names the variable the flame
    // graph subtitle blames.
    let mut profile = Attribution::new();
    profile.fold_batch(data);
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
    for (side, tree, sample) in [("best", &best_tree, best), ("worst", &worst_tree, worst)] {
        write(&format!("{side}.folded"), ompprof::folded(tree))?;
        let subtitle = format!("speedup {:.2}x | top variable {top}", data.speedup(sample));
        let svg = ompprof::svg(tree, &format!("{side} {slug}"), &subtitle);
        write(&format!("flame_{side}.svg"), svg)?;
    }
    write(
        "flame_diff.svg",
        ompprof::diff_svg(
            &best_tree,
            &worst_tree,
            &format!("worst vs best {slug}"),
            &format!("best-vs-worst {gap:.2}x virtual-time gap | top variable {top}"),
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
        "ompprof diff {slug}: best-vs-worst: {gap:.2}x virtual-time gap, \
         {energy_gap:.2}x modeled-energy gap (top variable {top})"
    );
    println!(
        "wrote {}/{{best,worst}}.folded, flame_{{best,worst,diff}}.svg, and flame_energy_diff.svg",
        args.out_dir
    );
    Ok(EXIT_OK)
}

fn main() -> ExitCode {
    cli::run("ompprof", USAGE, |args| {
        let cli = parse(args)?;
        match cli.diff {
            true => cmd_diff(&cli),
            false => cmd_attribute(&cli),
        }
    })
}

#[cfg(test)]
mod tests {
    #[test]
    fn a_command_line_is_a_profile_job_or_a_usage_error() {
        omptune_core::cli::check_parse(
            super::parse,
            "attribute | attribute milan cg --scope 400 --workers 2 --out p.json --check \
             | attribute --data collect_out --out profile.json \
             | diff milan cg --out-dir flame",
            " | frob | attribute nope | attribute milan cg extra | attribute --scope 0 \
             | attribute --workers | attribute --out-dir d | diff --check | diff --frob",
        );
    }
}
