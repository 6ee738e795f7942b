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
//! - `diff` — sweep every 50th configuration of one setting
//!   (`sweep::ReportSlice`), pick the best and worst by mean runtime,
//!   print the time and energy gaps of the two samples and each side's
//!   closed sink table, and render their phase trees as folded stacks
//!   and flame-graph SVGs plus signed red/blue diff views.
//! - `energy` — sweep the same slice of one application on every
//!   architecture that runs it, find the time-, energy- and EDP-optimal
//!   configurations, and write the disagreement table
//!   (`disagreement.md`) and `energy.json`. `--check` asserts that at
//!   least one architecture's energy optimum is not its time optimum.
//!
//! Exit codes are `omptune_core::cli`'s 0/4/2/1, 4 meaning a `--check`
//! failed: the two rankings disagree (`attribute`), or time and energy
//! agree everywhere (`energy`).

use ompprof::energy::Report;
use ompprof::{Attribution, SliceMeta};
use omptune_core::cli::{self, Args, Error, EXIT_OK};
use omptune_core::{Arch, GroupBy, Variable};
use std::fmt::Write as _;
use std::process::ExitCode;
use sweep::{ReportSlice, SettingData, SweepOptions, SweepSpec};

const USAGE: &str = "usage: ompprof attribute [ARCH] [APP] [--scope N] [--workers N] [--out PATH] [--data DIR] [--check]
       ompprof diff [ARCH] [APP] [--out-dir DIR]
       ompprof energy [APP] [--scope N] [--workers N] [--out-dir DIR] [--check]";

/// A parsed command line: one verb and only its own flags.
enum Cli {
    Attribute(AttributeArgs),
    Diff {
        arch: Arch,
        app: String,
        out_dir: String,
    },
    Energy(EnergyArgs),
}

struct AttributeArgs {
    arch: Arch,
    app: String,
    scope: usize,
    workers: usize,
    out: String,
    data: Option<String>,
    check: bool,
}

struct EnergyArgs {
    app: String,
    scope: usize,
    workers: usize,
    out_dir: String,
    check: bool,
}

/// The optional `[ARCH] [APP]` positionals, `milan cg` by default.
fn arch_app(args: &mut Args) -> Result<(Arch, String), Error> {
    let arch = match args.positional()? {
        Some(id) => Arch::from_id(&id).ok_or_else(|| Error::unknown("arch", &id))?,
        None => Arch::Milan,
    };
    Ok((arch, args.positional()?.unwrap_or_else(|| "cg".to_string())))
}

fn out_dir(args: &mut Args) -> Result<String, Error> {
    Ok(args
        .value("--out-dir")?
        .unwrap_or_else(|| "ompprof-out".to_string()))
}

fn parse(mut args: Args) -> Result<Cli, Error> {
    let cli = match args.subcommand()?.as_str() {
        "attribute" => {
            let scope = args.positive("--scope")?.unwrap_or(400);
            let workers = args.positive("--workers")?.unwrap_or(4);
            let out = args.value("--out")?;
            let data = args.value("--data")?;
            let check = args.flag("--check");
            let (arch, app) = arch_app(&mut args)?;
            Cli::Attribute(AttributeArgs {
                arch,
                app,
                scope,
                workers,
                out: out.unwrap_or_else(|| "profile.json".to_string()),
                data,
                check,
            })
        }
        "diff" => {
            let out_dir = out_dir(&mut args)?;
            let (arch, app) = arch_app(&mut args)?;
            Cli::Diff { arch, app, out_dir }
        }
        "energy" => Cli::Energy(EnergyArgs {
            scope: args.positive("--scope")?.unwrap_or(200),
            workers: args.positive("--workers")?.unwrap_or(4),
            out_dir: out_dir(&mut args)?,
            check: args.flag("--check"),
            app: args.positional()?.unwrap_or_else(|| "cg".to_string()),
        }),
        other => return Err(Error::unknown("subcommand", other)),
    };
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

/// What a slice holds along one axis: the one value all its batches
/// share, or `all`.
fn axis_label<'a>(mut values: impl Iterator<Item = &'a str>) -> String {
    let first = values.next().unwrap_or("all");
    match values.all(|v| v == first) {
        true => first.to_string(),
        false => "all".to_string(),
    }
}

/// The profile of one slice, as `attribute` writes it (`profile.json`)
/// and prints it, and the exit code of its `--check`.
struct Attributed {
    json: String,
    text: String,
    code: u8,
}

fn attribute(args: &AttributeArgs) -> Result<Attributed, Error> {
    let (batches, scope, seed) = match &args.data {
        Some(dir) => {
            let path = format!("{dir}/raw_batches.json");
            let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let batches =
                sweep::export::read_raw_json(&bytes).map_err(|e| format!("{path}: {e}"))?;
            if let Some(foreign) = ompprof::foreign_sample(&batches) {
                return Err(format!("{path}: {foreign}").into());
            }
            // The run's own seed, where its manifest is there to say it.
            let path = format!("{dir}/manifest.json");
            let seed = match std::fs::read(&path) {
                Ok(bytes) => {
                    sweep::read_manifest(&bytes)
                        .map_err(|e| format!("{path}: {e}"))?
                        .seed
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => SweepSpec::default().seed,
                Err(e) => return Err(format!("cannot read {path}: {e}").into()),
            };
            (batches, format!("data:{dir}"), seed)
        }
        None => {
            let workers = SweepOptions::new(args.workers);
            let slice = ReportSlice::sweep(args.arch, &args.app, args.scope, &workers)?;
            (
                vec![slice.data],
                format!("strided({})", args.scope),
                slice.spec.seed,
            )
        }
    };
    if batches.iter().all(|b| b.samples.is_empty()) {
        return Err("slice contains no samples".into());
    }

    let mut profile = Attribution::new();
    profile.fold_slice(&batches);
    let meta = SliceMeta {
        arch: axis_label(batches.iter().map(|b| b.key.arch.id())),
        app: axis_label(batches.iter().map(|b| b.key.app.as_str())),
        scope,
        seed,
        fingerprint: sweep::slice_fingerprint(&batches),
    };
    let mut text = format!(
        "ompprof attribute: {} samples ({} failed reps) over {}/{}\n",
        profile.samples(),
        profile.grand.failed_reps,
        meta.arch,
        meta.app
    );
    for (i, (f, spread)) in profile.ranked_variables().iter().take(3).enumerate() {
        let _ = writeln!(
            text,
            "  #{} {:<20} spread {:.3} ms",
            i + 1,
            f.env_name(),
            spread * 1e-6
        );
    }
    for (i, (f, spread)) in profile.ranked_variables_energy().iter().take(3).enumerate() {
        let _ = writeln!(
            text,
            "  E#{} {:<19} spread {:.3} mJ",
            i + 1,
            f.env_name(),
            spread * 1e3
        );
    }
    let _ = writeln!(text, "wrote {}", args.out);

    let mut code = EXIT_OK;
    if args.check {
        let attributed = profile
            .top_variable()
            .ok_or_else(|| "empty profile has no top variable".to_string())?;
        let influence = logreg_top(&batches, args.arch, &args.app)?;
        if attributed == influence {
            let _ = writeln!(
                text,
                "check: attribution and logreg influence agree on {}",
                attributed.env_name()
            );
        } else {
            let _ = writeln!(
                text,
                "check: DISAGREE — attribution says {}, logreg influence says {}",
                attributed.env_name(),
                influence.env_name()
            );
        }
        code = cli::findings(attributed != influence);
    }
    Ok(Attributed {
        json: profile.to_json(&meta),
        text,
        code,
    })
}

fn cmd_attribute(args: &AttributeArgs) -> Result<u8, Error> {
    let attributed = attribute(args)?;
    if let Some(parent) = std::path::Path::new(&args.out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(&args.out, &attributed.json)
        .map_err(|e| format!("cannot write {}: {e}", args.out))?;
    print!("{}", attributed.text);
    Ok(attributed.code)
}

/// `diff`'s slice: every 50th configuration, swept on 4 workers.
const DIFF_SCOPE: usize = 50;

/// The best-vs-worst report over one slice.
struct Diff {
    /// What `diff` prints.
    text: String,
    /// The best and the worst sample's flame tree.
    trees: [ompprof::Frame; 2],
    /// The SVGs `diff` draws from them, by file name.
    svgs: Vec<(String, String)>,
}

/// Explain the slice's fastest and slowest samples. The headline gaps
/// are the samples' own `virtual_ns` and `energy.total_j` ratios; each
/// side's sink table and flame tree come from one [`simrt::explain`] of
/// its configuration.
fn diff(slice: &ReportSlice) -> Result<Diff, String> {
    let (arch, app, data) = (slice.arch, slice.app.name, &slice.data);
    let (gap, energy_gap) = (slice.virtual_gap()?, slice.energy_gap()?);
    let model = slice.model();

    // Attribution over the same slice names the variable the flame
    // graph subtitle blames.
    let mut profile = Attribution::new();
    profile.fold_batch(data);
    let top = profile
        .top_variable()
        .map(|f| f.env_name().to_string())
        .unwrap_or_else(|| "n/a".to_string());

    let slug = format!("{}/{app} t={}", arch.id(), slice.setting.num_threads);
    let explain = |side: &str, sample: &sweep::RawSample| {
        let e = simrt::explain(arch, &sample.config, &model, slice.spec.seed);
        let speedup = data.speedup(sample);
        let table = format!(
            "\n== {side:<5} speedup {speedup:.2}x | {} ==\n{}",
            sample.config.describe_knobs(),
            e.render()
        );
        let tree = ompprof::explanation_tree(app, arch, &sample.config, &e);
        let subtitle = format!("speedup {speedup:.2}x | top variable {top}");
        let svg = ompprof::svg(&tree, &format!("{side} {slug}"), &subtitle);
        (
            table,
            (format!("flame_{side}.svg"), svg),
            tree,
            e.ranked_sinks()[0].0,
        )
    };
    let (best_table, best_svg, best, _) = explain("best", slice.fastest()?);
    let (worst_table, worst_svg, worst, worst_top) = explain("worst", slice.slowest()?);
    let diff_svg = ompprof::diff_svg(
        &best,
        &worst,
        &format!("worst vs best {slug}"),
        &format!("best-vs-worst {gap:.2}x virtual-time gap | top variable {top}"),
    );
    let energy_diff_svg = ompprof::energy_diff_svg(
        &best,
        &worst,
        &format!("worst vs best {slug} (energy)"),
        &format!("best-vs-worst {energy_gap:.2}x modeled-energy gap | time layout, joule colors"),
    );
    let text = format!(
        "ompprof diff {slug}: best-vs-worst: {gap:.2}x virtual-time gap, {energy_gap:.2}x \
         modeled-energy gap; worst config dominated by {} (top variable {top})\n\
         {best_table}{worst_table}",
        worst_top.label()
    );
    Ok(Diff {
        text,
        trees: [best, worst],
        svgs: vec![
            best_svg,
            worst_svg,
            ("flame_diff.svg".to_string(), diff_svg),
            ("flame_energy_diff.svg".to_string(), energy_diff_svg),
        ],
    })
}

/// Create `out_dir` and write each `(name, text)` file into it.
fn write_files<N: AsRef<str>>(
    out_dir: &str,
    files: impl IntoIterator<Item = (N, String)>,
) -> Result<(), String> {
    let dir = std::path::Path::new(out_dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {out_dir}: {e}"))?;
    for (name, text) in files {
        let name = name.as_ref();
        std::fs::write(dir.join(name), text)
            .map_err(|e| format!("cannot write {out_dir}/{name}: {e}"))?;
    }
    Ok(())
}

fn cmd_diff(arch: Arch, app: &str, out_dir: &str) -> Result<u8, Error> {
    let slice = ReportSlice::sweep(arch, app, DIFF_SCOPE, &SweepOptions::new(4))?;
    let diff = diff(&slice)?;
    let folded = ["best", "worst"].iter().zip(&diff.trees);
    let folded = folded.map(|(side, tree)| (format!("{side}.folded"), ompprof::folded(tree)));
    write_files(out_dir, folded.chain(diff.svgs))?;
    print!("{}", diff.text);
    println!(
        "wrote {out_dir}/{{best,worst}}.folded, flame_{{best,worst,diff}}.svg, and flame_energy_diff.svg"
    );
    Ok(EXIT_OK)
}

/// `energy --check`'s verdict line and exit code: findings (4) when time
/// and energy pick the same configuration on every architecture.
fn energy_check(report: &Report) -> (String, u8) {
    let line = match report.disagreements() {
        0 => "check: FAILED — time- and energy-optima agree on every architecture".to_string(),
        n => format!("check: {n} architecture(s) where energy-optimal != time-optimal"),
    };
    (line, cli::findings(report.disagreements() == 0))
}

fn cmd_energy(args: &EnergyArgs) -> Result<u8, Error> {
    let report = Report::sweep(&args.app, args.scope, &SweepOptions::new(args.workers))?;
    let md = report.markdown();
    let files = [
        ("disagreement.md", md.clone()),
        ("energy.json", report.json()),
    ];
    write_files(&args.out_dir, files)?;
    println!(
        "ompprof energy: {} over strided({}) on {} arch(es)\n",
        args.app,
        args.scope,
        report.verdicts.len()
    );
    print!("{md}");
    for v in &report.verdicts {
        println!(
            "\n{}: time-opt  {}\n{:>width$}energy-opt {}",
            v.arch.id(),
            v.time_best.config.describe(),
            "",
            v.energy_best.config.describe(),
            width = v.arch.id().len() + 2
        );
    }
    println!("\nwrote {}/{{disagreement.md, energy.json}}", args.out_dir);
    if !args.check {
        return Ok(EXIT_OK);
    }
    let (line, code) = energy_check(&report);
    println!("{line}");
    Ok(code)
}

fn main() -> ExitCode {
    cli::run("ompprof", USAGE, |args| match parse(args)? {
        Cli::Attribute(args) => cmd_attribute(&args),
        Cli::Diff { arch, app, out_dir } => cmd_diff(arch, &app, &out_dir),
        Cli::Energy(args) => cmd_energy(&args),
    })
}

#[cfg(test)]
mod tests {
    use omptune_core::Arch;
    use sweep::{ReportSlice, SweepOptions};

    /// `diff milan cg` prints one time gap and one energy gap, both the
    /// slice's own sample ratios; each flame root is its sample's whole
    /// run; and both sides' sink tables are printed.
    #[test]
    fn the_diff_report_reads_the_slices_own_samples() {
        let slice = ReportSlice::sweep(Arch::Milan, "cg", super::DIFF_SCOPE, &SweepOptions::new(4))
            .unwrap();
        let diff = super::diff(&slice).unwrap();
        let (gap, energy_gap) = (slice.virtual_gap().unwrap(), slice.energy_gap().unwrap());
        let headline = format!(
            "best-vs-worst: {gap:.2}x virtual-time gap, {energy_gap:.2}x modeled-energy gap;"
        );
        let first = diff.text.lines().next().unwrap();
        assert!(
            first.contains(&headline),
            "{headline:?} does not head\n{}",
            diff.text
        );
        let samples = [slice.fastest().unwrap(), slice.slowest().unwrap()];
        for (tree, sample) in diff.trees.iter().zip(samples) {
            let want = sample.telemetry.virtual_ns;
            assert!(
                (tree.value_ns - want).abs() <= 1e-9 * want,
                "flame root {} against the sample's {want}",
                tree.value_ns
            );
        }
        let (best, worst) = diff.text.split_once("\n== worst").expect("a worst side");
        let (_, best) = best.split_once("\n== best ").expect("a best side");
        for (table, sample) in [best, worst].into_iter().zip(samples) {
            let speedup = format!(" speedup {:.2}x | ", slice.data.speedup(sample));
            assert!(
                table.starts_with(&speedup),
                "{speedup:?} does not head\n{table}"
            );
            assert_eq!(table.matches("top time sink: ").count(), 1, "{table}");
            for sink in omptel::Sink::ALL {
                let row = format!("\n  {:<30} ", sink.label());
                assert!(table.contains(&row), "no {sink:?} row:\n{table}");
            }
        }
    }

    /// `attribute --data` names the slice it folded, in the summary line
    /// and in the profile's `slice` header: a run over several arches
    /// and apps is `all/all`, one batch is its own arch and app, and the
    /// seed is the run's own, from its manifest when it has one.
    #[test]
    fn a_data_profile_names_the_slice_it_folded() {
        use sweep::{RunManifest, Scope, SettingData, SweepSpec};
        let spec = SweepSpec {
            scope: Scope::Strided(400),
            seed: 7,
            ..SweepSpec::default()
        };
        let batches = sweep::sweep_all_scheduled(&spec, &SweepOptions::new(2)).batches;
        let dir = std::env::temp_dir().join(format!("ompprof-data-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let line = format!(
            "attribute milan cg --data {} --out unused.json",
            dir.display()
        );
        let Ok(super::Cli::Attribute(cli)) = super::parse(omptune_core::cli::Args::of(&line))
        else {
            panic!("{line:?} is an attribute job");
        };
        let attribute = |batches: &[SettingData]| {
            let mut raw = Vec::new();
            sweep::export::write_raw_json(batches, &mut raw).unwrap();
            std::fs::write(dir.join("raw_batches.json"), raw).unwrap();
            let attributed = super::attribute(&cli).unwrap();
            let first = attributed.text.lines().next().unwrap().to_string();
            (first, attributed.json)
        };

        let samples: usize = batches.iter().map(|b| b.samples.len()).sum();
        let (line, json) = attribute(&batches);
        assert_eq!(
            line,
            format!("ompprof attribute: {samples} samples (0 failed reps) over all/all")
        );
        assert!(json.contains(r#""arch": "all", "app": "all""#), "{json}");
        let default_seed = format!(r#""seed": {},"#, SweepSpec::default().seed);
        assert!(
            json.contains(&default_seed),
            "no manifest: the default seed\n{json}"
        );

        let mut manifest = Vec::new();
        sweep::write_manifest(&RunManifest::new(&spec), &mut manifest).unwrap();
        std::fs::write(dir.join("manifest.json"), manifest).unwrap();
        let one = &batches[batches.len() - 1..];
        let (line, json) = attribute(one);
        let (arch, app) = (one[0].key.arch.id(), &one[0].key.app);
        assert!(line.ends_with(&format!(" over {arch}/{app}")), "{line}");
        let header = format!(r#""arch": "{arch}", "app": "{app}", "scope": "data:"#);
        assert!(
            json.contains(&header) && json.contains(r#""seed": 7,"#),
            "{json}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `energy --check` on a report whose optima agree everywhere is a
    /// failed check: exit 4.
    #[test]
    fn an_energy_check_with_no_disagreement_is_findings() {
        use ompprof::energy::{Best, Report, Verdict};
        let config = omptune_core::TuningConfig::default_for(Arch::Milan, 96);
        let best = Best {
            config,
            virtual_ns: 1e6,
            joules: 1.0,
            edp_js: 1e-3,
        };
        let mut report = Report {
            app: "cg".to_string(),
            scope: 200,
            seed: 0,
            verdicts: vec![Verdict {
                arch: Arch::Milan,
                samples: 1,
                time_best: best.clone(),
                energy_best: best.clone(),
                edp_best: best,
                energy_spread_j: vec![0.0; omptune_core::Variable::ALL.len()],
            }],
        };
        let (line, code) = super::energy_check(&report);
        assert_eq!(code, omptune_core::cli::EXIT_FINDINGS, "{line}");
        assert!(line.starts_with("check: FAILED"), "{line}");

        report.verdicts[0].energy_best.config.num_threads = 48;
        let (line, code) = super::energy_check(&report);
        assert_eq!(code, omptune_core::cli::EXIT_OK, "{line}");
    }

    #[test]
    fn a_command_line_is_a_profile_job_or_a_usage_error() {
        omptune_core::cli::check_parse(
            super::parse,
            "attribute | attribute milan cg --scope 400 --workers 2 --out p.json --check \
             | attribute --data collect_out --out profile.json \
             | diff milan cg --out-dir flame \
             | energy | energy alignment --scope 400 --workers 2 --out-dir d --check \
             | energy cg --scope 200 --workers 4 --out-dir w --check",
            " | frob | attribute nope | attribute milan cg extra | attribute --scope 0 \
             | attribute --workers | attribute --out-dir d | diff --check | diff --frob \
             | diff --scope 4 | energy --scope 0 | energy --data x | energy cg lu \
             | energy --scope | energy --workers x | energy --json | energy --out p.json",
        );
    }
}
