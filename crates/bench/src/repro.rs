//! Generators for every table and figure in the paper's evaluation.
//!
//! | generator | paper artifact |
//! |---|---|
//! | [`Reproduction::table1`] | Table I — hardware configuration |
//! | [`Reproduction::table2`] | Table II — dataset description |
//! | [`Reproduction::table3`] | Table III — Wilcoxon consistency tests |
//! | [`Reproduction::table4`] | Table IV — per-repetition runtime stats |
//! | [`Reproduction::table5`] | Table V — Alignment/XSBench speedup ranges |
//! | [`Reproduction::table6`] | Table VI — per-application speedup ranges |
//! | [`Reproduction::table7`] | Table VII — best variables and values |
//! | [`Reproduction::q1`] | Sec. V Q1 — per-architecture ranges/medians |
//! | [`Reproduction::q4`] | Sec. V Q4 — worst-performance trends |
//! | [`Reproduction::figure_violin`] | Figs. 1, 5–7 — violin plots |
//! | [`Reproduction::figure_heatmap`] | Figs. 2–4 — influence heat maps |
//! | [`Reproduction::fidelity`] | every row of `omptune_core::paper` against ours |

use mlstats::wilcoxon::WilcoxonError;
use mlstats::{wilcoxon_signed_rank, Summary, ViolinSummary, WilcoxonResult};
use omptune_core::analysis::AnalysisError;
use omptune_core::cli::{self, Args, Error, EXIT_OK};
use omptune_core::paper::{self, End, Key, Scorecard};
use omptune_core::{
    influence_analysis, recommend_for, transfer_analysis, worst_trends, AnalysisRecord, Arch,
    CellReport, Feature, GroupBy, InfluenceHeatMap, SettingMaxima, WorstTrend,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;
use sweep::{Dataset, Scope, SettingData, SweepSpec};
use workloads::Setting;

/// How much of the configuration space the reproduction sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReproScope {
    /// Quick smoke slice (CI/tests): every 24th configuration.
    Fast,
    /// Paper-sized subsample reproducing Table II exactly.
    Paper,
    /// The complete cross-product.
    Full,
}

impl ReproScope {
    fn to_scope(self) -> Scope {
        match self {
            ReproScope::Fast => Scope::Strided(24),
            ReproScope::Paper => Scope::PaperSized,
            ReproScope::Full => Scope::Full,
        }
    }

    /// Parse a CLI argument.
    pub fn parse(s: &str) -> Option<ReproScope> {
        match s {
            "fast" => Some(ReproScope::Fast),
            "paper" => Some(ReproScope::Paper),
            "full" => Some(ReproScope::Full),
            _ => None,
        }
    }
}

/// Table VII's cells: application, architecture, and the share of the
/// top 64 configurations a value needs to be recommended.
const TABLE7: [(&str, Arch, f64); 4] = [
    ("nqueens", Arch::A64fx, 0.6),
    ("nqueens", Arch::Skylake, 0.6),
    ("nqueens", Arch::Milan, 0.6),
    ("cg", Arch::Skylake, 0.35),
];

/// A materialized reproduction context: the swept batches and the
/// processed dataset, shared by all generators.
pub struct Reproduction {
    pub batches: Vec<SettingData>,
    pub dataset: Dataset,
    pub spec: SweepSpec,
    /// The influence heat map of each grouping (indexed by `GroupBy as
    /// usize`), fitted the first time a figure or its CSV asks for it.
    heatmaps: [OnceLock<Result<InfluenceHeatMap, AnalysisError>>; 3],
    /// The per-setting speedup maxima Tables V–VI and Q1 read, folded
    /// the first time one of them asks.
    maxima: OnceLock<SettingMaxima>,
}

impl Reproduction {
    /// Run the sweep at `scope` and process the dataset.
    pub fn generate(scope: ReproScope) -> Reproduction {
        let spec = SweepSpec {
            scope: scope.to_scope(),
            ..SweepSpec::default()
        };
        // Byte-identical to the sequential `sweep::sweep_all` at any
        // worker count (`generate_equals_the_sequential_sweep` below).
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut batches =
            sweep::sweep_all_scheduled(&spec, &sweep::SweepOptions::new(workers)).batches;
        for b in &mut batches {
            sweep::clean(b, spec.reps as usize);
        }
        let dataset = Dataset::build(&batches);
        Reproduction {
            batches,
            dataset,
            spec,
            heatmaps: Default::default(),
            maxima: OnceLock::new(),
        }
    }

    /// `influence_analysis(records, group_by)`, a pure function of its
    /// arguments, fitted once per grouping.
    fn heatmap(&self, group_by: GroupBy) -> &Result<InfluenceHeatMap, AnalysisError> {
        self.heatmaps[group_by as usize]
            .get_or_init(|| influence_analysis(self.records(), group_by))
    }

    fn maxima(&self) -> &SettingMaxima {
        self.maxima
            .get_or_init(|| SettingMaxima::of(self.records()))
    }

    fn records(&self) -> &[AnalysisRecord] {
        &self.dataset.records
    }

    /// Table I: hardware configuration (from the machine presets).
    pub fn table1(&self) -> String {
        let mut out = String::from(
            "TABLE I: Hardware configuration\n\
             CPU Architecture               | #Cores | #Sockets | #NUMA | Clock   | Memory\n",
        );
        for arch in Arch::ALL {
            let m = simrt::machine_for(arch);
            out.push_str(&format!(
                "{:<30} | {:>6} | {:>8} | {:>5} | {:>4.1} GHz | {}\n",
                arch.display_name(),
                m.cores,
                m.sockets,
                m.numa_nodes,
                m.clock_ghz,
                if arch.has_hbm() { "HBM" } else { "DDR4" },
            ));
        }
        out
    }

    /// Table II: dataset description (apps and sample counts per arch).
    pub fn table2(&self) -> String {
        let mut out = String::from(
            "TABLE II: Dataset description\n\
             Architecture  | Applications | #Samples | paper\n",
        );
        for (arch, apps, samples) in self.dataset.table2() {
            out.push_str(&format!(
                "{:<13} | {:>12} | {:>8} | {}/{}\n",
                arch.display_name().split(' ').next().unwrap_or(arch.id()),
                apps,
                samples,
                paper::value(Key::Apps(arch)),
                paper::value(Key::Samples(arch)),
            ));
        }
        out
    }

    /// Per-repetition runtime vectors across all samples of one
    /// (arch, alignment-small) batch — the data behind Tables III/IV.
    fn alignment_reps(&self, arch: Arch) -> Option<Vec<Vec<f64>>> {
        let batch = self
            .batches
            .iter()
            .find(|b| b.key.arch == arch && b.key.app == "alignment" && b.key.input_code == 0)?;
        let reps = batch.samples.first()?.runtimes.len();
        Some(
            (0..reps)
                .map(|r| batch.samples.iter().map(|s| s.runtimes[r]).collect())
                .collect(),
        )
    }

    /// The mean of repetition `rep` of alignment-small (Table IV); NaN
    /// when there is no such repetition.
    fn rep_mean(&self, arch: Arch, rep: usize) -> f64 {
        let reps = self.alignment_reps(arch);
        let summary = reps.as_ref().and_then(|r| Summary::of(r.get(rep)?));
        summary.map_or(f64::NAN, |s| s.mean)
    }

    /// Table III: Wilcoxon signed-rank consistency of repeated runs of
    /// the Alignment benchmark (pairs R0R1, R1R2, R2R3).
    pub fn table3(&self) -> String {
        let mut out = String::from(
            "TABLE III: Wilcoxon test results for runtime comparisons\n\
             Architecture-Benchmark   | Pair   | Test Stat   | p-value | paper\n",
        );
        for arch in Arch::ALL {
            for (i, test) in self.consistency(arch).iter().enumerate() {
                let row = match test {
                    Ok(r) => format!("{:>11.1} | {:.3e}", r.statistic.max(0.0), r.p_value),
                    Err(e) => format!("(degenerate: {e})"),
                };
                out.push_str(&format!(
                    "{:<24} | R{i}, R{} | {} | {:.3e}\n",
                    format!("{}-alignment-small", arch.id()),
                    i + 1,
                    row,
                    paper::value(Key::Consistency(arch, i))
                ));
            }
        }
        out
    }

    /// Table III's three tests on one architecture, over a dedicated
    /// 4-repetition sweep of alignment-small so all three pairs exist
    /// regardless of `spec.reps`.
    fn consistency(&self, arch: Arch) -> [Result<WilcoxonResult, WilcoxonError>; 3] {
        let spec = SweepSpec {
            reps: 4,
            ..self.spec
        };
        let app = workloads::app("alignment").expect("alignment registered");
        let setting = Setting {
            input_code: 0,
            num_threads: arch.cores(),
        };
        let batch = sweep::sweep_setting(arch, app, setting, 0, &spec);
        let rep = |r: usize| -> Vec<f64> { batch.samples.iter().map(|s| s.runtimes[r]).collect() };
        [0, 1, 2].map(|r| wilcoxon_signed_rank(&rep(r), &rep(r + 1)))
    }

    /// Table IV: mean/std of each repetition of alignment-small.
    pub fn table4(&self) -> String {
        let mut out = String::from(
            "TABLE IV: Runtime statistics (alignment-small, per repetition)\n\
             Architecture-Application | Runtime Idx | Mean (sec) | Std Dev (sec) | paper mean\n",
        );
        for arch in Arch::ALL {
            if let Some(reps) = self.alignment_reps(arch) {
                for (i, rep) in reps.iter().enumerate().take(3) {
                    let s = Summary::of(rep).expect("non-empty repetition");
                    out.push_str(&format!(
                        "{:<24} | Runtime_{}   | {:>10.3} | {:>10.3} | {:.3}\n",
                        format!("{}-alignment-small", arch.id()),
                        i,
                        s.mean,
                        s.std,
                        paper::value(Key::RepMean(arch, i))
                    ));
                }
            }
        }
        out
    }

    /// Table V: speedup ranges for Alignment and XSBench per architecture.
    pub fn table5(&self) -> String {
        let mut out = String::from(
            "TABLE V: Speedup range for applications on architectures\n\
             Application | Architecture | Speedup Range (x) | paper\n",
        );
        for row in paper::ROWS {
            let Key::AppArch(app, arch, End::Min) = row.key else {
                continue;
            };
            let range = self.maxima().app_arch_range(app, arch);
            out.push_str(&format!(
                "{:<11} | {:<12} | {:<17} | {}\n",
                app,
                arch.id(),
                range.map_or_else(|| "n/a".into(), |r| r.to_string()),
                paper::range(|end| Key::AppArch(app, arch, end))
            ));
        }
        out
    }

    /// Table VI: per-application speedup ranges.
    pub fn table6(&self) -> String {
        let mut out = String::from(
            "TABLE VI: Speedup range per application\n\
             Application | Speedup Range (x) | paper\n",
        );
        for row in paper::ROWS {
            let Key::App(app, End::Min) = row.key else {
                continue;
            };
            out.push_str(&format!(
                "{:<11} | {:<17} | {}\n",
                app,
                self.maxima()
                    .app_range(app)
                    .map_or_else(|| "n/a".into(), |r| r.to_string()),
                paper::range(|end| Key::App(app, end))
            ));
        }
        out
    }

    /// Table VII's recommendation for one of its cells.
    fn recommendation(&self, app: &str, arch: Arch) -> Option<CellReport> {
        let (_, _, support) = TABLE7.iter().find(|c| c.0 == app && c.1 == arch)?;
        recommend_for(self.records(), app, arch, 64, *support)
    }

    /// Table VII: best performing variables and values for NQueens
    /// (all architectures) and CG (Skylake).
    pub fn table7(&self) -> String {
        let mut out = String::from(
            "TABLE VII: Best performing environment variables and values\n\
             App     | Arch    | Recommendations (support)\n",
        );
        for (app, arch, _) in TABLE7 {
            if let Some(report) = self.recommendation(app, arch) {
                let recs: Vec<String> = report
                    .recommendations
                    .iter()
                    .map(|r| format!("{}={} ({:.0}%)", r.variable, r.value, r.support * 100.0))
                    .collect();
                out.push_str(&format!(
                    "{:<7} | {:<7} | best {:.3}x: {}\n",
                    app,
                    arch.id(),
                    report.best_speedup,
                    if recs.is_empty() {
                        "defaults".into()
                    } else {
                        recs.join(", ")
                    }
                ));
            }
        }
        let claims: Vec<String> = paper::ROWS
            .iter()
            .filter(|r| r.artifact == "table7")
            .map(|r| r.key.to_string())
            .collect();
        out.push_str(&format!("(paper: {})\n", claims.join("; ")));
        out
    }

    /// Sec. V Q1: per-architecture speedup ranges and medians.
    pub fn q1(&self) -> String {
        let mut out = String::from("Q1: upshot potential per architecture\n");
        for row in paper::ROWS {
            let Key::Median(arch) = row.key else {
                continue;
            };
            let paper = paper::range(|end| Key::Upshot(arch, end));
            match self.maxima().arch_summary(arch) {
                Some(s) => out.push_str(&format!(
                    "{:<8} range {} median {:.3} over {} groups   (paper: {paper} median {:.3})\n",
                    arch.id(),
                    s.range,
                    s.median_improvement,
                    s.n_groups,
                    row.paper,
                )),
                None => out.push_str(&format!("{:<8} no data\n", arch.id())),
            }
        }
        out
    }

    /// Sec. V Q2 + Fig. 1 markers: does the best configuration of one
    /// architecture transfer to the others?
    pub fn q2(&self, app: &str) -> String {
        let transfers = omptune_core::transfer_analysis(self.records(), app);
        let mut out = format!(
            "Q2: transfer of {app}'s best configuration across architectures\n\
             source   -> target   | speedup at target | percentile in target\n"
        );
        for t in &transfers {
            out.push_str(&format!(
                "{:<8} -> {:<8} | {:>17.3} | {:>19.2}\n",
                t.source_arch.id(),
                t.target_arch.id(),
                t.speedup_at_target,
                t.percentile
            ));
        }
        out.push_str(
            "(paper: best configs are not always top contenders on other \
             architectures; BOTS task apps transfer, xsbench does not)\n",
        );
        out
    }

    /// The patterns of the worst 1 % of the records (at least 10), and
    /// that count.
    fn worst_trends(&self) -> (usize, Vec<WorstTrend>) {
        let k = (self.records().len() / 100).max(10);
        (k, worst_trends(self.records(), k))
    }

    /// Sec. V Q4: worst-performance trends.
    pub fn q4(&self) -> String {
        let (k, trends) = self.worst_trends();
        let mut out = format!("Q4: trends among the worst {k} samples\n");
        for t in &trends {
            out.push_str(&format!(
                "{:<55} bottom {:>5.1}%  base {:>5.1}%  lift {:.1}x\n",
                t.pattern,
                t.bottom_fraction * 100.0,
                t.base_fraction * 100.0,
                t.lift()
            ));
        }
        out.push_str("(paper: master binding with large thread counts dominates the worst runs)\n");
        out
    }

    /// Figs. 1/5/6/7: ASCII violin of the speedup distribution of one
    /// application per (architecture, input size).
    pub fn figure_violin(&self, app: &str) -> String {
        let mut out = format!("Violin: full-space speedup distribution of {app}\n");
        for arch in Arch::ALL {
            for input in 0..3 {
                let sample: Vec<f64> = self
                    .records()
                    .iter()
                    .filter(|r| r.app == app && r.arch == arch && r.input_size == input as f64)
                    .map(|r| r.speedup)
                    .collect();
                if sample.is_empty() {
                    continue;
                }
                if let Some(v) = ViolinSummary::of(&sample, 24) {
                    out.push_str(&format!(
                        "\n--- {} / input {} (n={}, median {:.3}, max {:.3}) ---\n",
                        arch.id(),
                        input,
                        v.stats.n,
                        v.stats.median,
                        v.stats.max
                    ));
                    out.push_str(&v.render_ascii(48));
                }
            }
        }
        out
    }

    /// Machine-readable violin data for one application: one CSV per
    /// (architecture, input) cell, for external plotting.
    pub fn violin_csvs(&self, app: &str) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for arch in Arch::ALL {
            for input in 0..3 {
                let sample: Vec<f64> = self
                    .records()
                    .iter()
                    .filter(|r| r.app == app && r.arch == arch && r.input_size == input as f64)
                    .map(|r| r.speedup)
                    .collect();
                if let Some(v) = ViolinSummary::of(&sample, 64) {
                    out.push((format!("{app}_{}_{input}.csv", arch.id()), v.to_csv()));
                }
            }
        }
        out
    }

    /// Machine-readable heat-map data: `group,feature,influence` rows.
    pub fn heatmap_csv(&self, group_by: GroupBy) -> String {
        let mut out = String::from("group,feature,influence\n");
        if let Ok(hm) = self.heatmap(group_by) {
            for row in &hm.rows {
                for (f, v) in hm.features.iter().zip(&row.influence) {
                    out.push_str(&format!("{},{},{:.6}\n", row.group, f.name(), v));
                }
            }
        }
        out
    }

    /// Write the violin and heat-map CSVs into `dir`, for external plotting.
    pub fn write_figure_csvs(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for app in ["alignment", "bt", "health", "rsbench"] {
            for (name, csv) in self.violin_csvs(app) {
                std::fs::write(dir.join(name), csv)?;
            }
        }
        for (name, group) in [
            ("fig2_by_application.csv", GroupBy::Application),
            ("fig3_by_architecture.csv", GroupBy::Architecture),
            ("fig4_by_arch_application.csv", GroupBy::ArchApplication),
        ] {
            std::fs::write(dir.join(name), self.heatmap_csv(group))?;
        }
        Ok(())
    }

    /// Figs. 2–4: influence heat maps for a grouping strategy.
    pub fn figure_heatmap(&self, group_by: GroupBy) -> String {
        match self.heatmap(group_by) {
            Ok(hm) => {
                let title = match group_by {
                    GroupBy::Application => "Fig. 2: influence grouped by application",
                    GroupBy::Architecture => "Fig. 3: influence grouped by architecture",
                    GroupBy::ArchApplication => {
                        "Fig. 4: influence grouped by architecture-application"
                    }
                };
                format!("{title}\n{}", hm.render_text())
            }
            Err(e) => format!("heat map unavailable: {e}"),
        }
    }

    /// The paper-fidelity scorecard (`repro-tables SCOPE fidelity`): every
    /// row of `omptune_core::paper` against this reproduction. The rows
    /// describe the paper scope at the default seed.
    pub fn fidelity(&self) -> Scorecard<'static> {
        self.score(paper::ROWS)
    }

    /// `rows` against this reproduction: the paper's, or a test's with a
    /// planted miss. A claim is 1 when it holds here and 0 when not; a
    /// value the dataset lacks is NaN, which every tolerance calls a miss.
    pub fn score<'a>(&self, rows: &'a [paper::Row]) -> Scorecard<'a> {
        let nan = |x: Option<f64>| x.unwrap_or(f64::NAN);
        let claim = |holds: bool| f64::from(u8::from(holds));
        let table2 = self.dataset.table2();
        // Indexed by `Arch as usize`, which is its position in `Arch::ALL`.
        let p_values =
            Arch::ALL.map(|a| self.consistency(a).map(|t| nan(t.ok().map(|r| r.p_value))));
        let maxima = self.maxima();
        let median = |arch| nan(maxima.arch_summary(arch).map(|s| s.median_improvement));
        let influence = |group_by, group: &str, feature| {
            let heatmap = self.heatmap(group_by).as_ref().ok();
            nan(heatmap.and_then(|h| h.influence_of(group, feature)))
        };
        let ours = |key: Key| match key {
            Key::Apps(arch) => nan(table2.iter().find(|t| t.0 == arch).map(|t| t.1 as f64)),
            Key::Samples(arch) => nan(table2.iter().find(|t| t.0 == arch).map(|t| t.2 as f64)),
            Key::Consistency(arch, i) => nan(p_values[arch as usize].get(i).copied()),
            Key::RepMean(arch, i) => self.rep_mean(arch, i),
            Key::FirstRepShift(arch) => self.rep_mean(arch, 0) / self.rep_mean(arch, 1),
            Key::AppArch(app, arch, end) => {
                nan(maxima.app_arch_range(app, arch).map(|r| end.of(r)))
            }
            Key::App(app, end) => nan(maxima.app_range(app).map(|r| end.of(r))),
            Key::Upshot(arch, end) => nan(maxima.arch_summary(arch).map(|s| end.of(s.range))),
            Key::Median(arch) => median(arch),
            Key::MedianOrder => claim(
                median(Arch::Milan) > median(Arch::Skylake)
                    && median(Arch::Skylake) > median(Arch::A64fx),
            ),
            Key::Recommends(app, arch, variable, values) => {
                let report = self.recommendation(app, arch);
                claim(report.is_some_and(|report| {
                    report.recommendations.iter().any(|r| {
                        r.variable == variable.env_name()
                            && (values.is_empty() || values.contains(&r.value.as_str()))
                    })
                }))
            }
            Key::TransferBelow(app, percentile) => {
                let transfers = transfer_analysis(self.records(), app);
                claim(
                    transfers
                        .iter()
                        .any(|t| t.source_arch != t.target_arch && t.percentile < percentile),
                )
            }
            Key::MasterBindWorst(lift) => claim(
                self.worst_trends()
                    .1
                    .first()
                    .is_some_and(|t| t.pattern.starts_with("master binding") && t.lift() > lift),
            ),
            Key::LeadersOutrank(arch) => {
                let of = |feature| influence(GroupBy::Architecture, arch.id(), feature);
                let leader = of(Feature::NumThreads).max(of(Feature::ProcBind));
                claim(leader > of(Feature::ForceReduction) && leader > of(Feature::AlignAlloc))
            }
            Key::AlignAllocBelow(arch, x) => {
                claim(influence(GroupBy::Architecture, arch.id(), Feature::AlignAlloc) < x)
            }
            Key::LessArchReliant(a, b) => {
                let of = |app| influence(GroupBy::Application, app, Feature::Architecture);
                claim(of(a) < of(b))
            }
        };
        Scorecard(rows.iter().map(|row| row.check(ours(row.key))).collect())
    }
}

/// One artifact a `repro-*` binary prints: its command-line name and
/// its renderer.
pub type Artifact = (&'static str, fn(&Reproduction) -> String);

/// What is to be reproduced: the scope, one artifact's name (`None` is
/// `all`), and where to dump the figure CSVs.
type ReproJob = (ReproScope, Option<String>, Option<PathBuf>);

/// `repro-tables`' scorecard ([`Reproduction::fidelity`]): one more
/// artifact name, which `all` does not select and whose run exits 4 on a
/// miss.
const FIDELITY: &str = "fidelity";

/// `[SCOPE] [NAME|all]`, then `[CSV_DIR|-]` for the tool that has CSVs;
/// the tool without them, `repro-tables`, also answers [`FIDELITY`].
fn parse(mut args: Args, artifacts: &[Artifact], csvs: bool) -> Result<ReproJob, Error> {
    let scope = match args.positional()? {
        Some(s) => ReproScope::parse(&s).ok_or_else(|| Error::unknown("scope", &s))?,
        None => ReproScope::Fast,
    };
    let which = args.positional()?.filter(|name| name != "all");
    let known = |name: &str| artifacts.iter().any(|a| a.0 == name) || !csvs && name == FIDELITY;
    if let Some(name) = which.as_deref().filter(|name| !known(name)) {
        return Err(Error::unknown("artifact", name));
    }
    let dir = match csvs {
        true => args.positional()?.filter(|dir| dir != "-"),
        false => None,
    };
    args.finish()?;
    Ok((scope, which, dir.map(PathBuf::from)))
}

/// The `main` of `repro-tables` and `repro-figures`: sweep once at the
/// requested scope, print the requested artifacts in table order, or the
/// scorecard and its code.
pub fn repro_main(tool: &str, artifacts: &[Artifact], csvs: bool) -> ExitCode {
    let mut names: Vec<&str> = artifacts.iter().map(|a| a.0).collect();
    if !csvs {
        names.push(FIDELITY);
    }
    let usage = format!(
        "usage: {tool} [fast|paper|full] [{}|all]{}",
        names.join("|"),
        if csvs { " [CSV_DIR|-]" } else { "" }
    );
    cli::run(tool, &usage, |args| {
        let (scope, which, dir) = parse(args, artifacts, csvs)?;
        eprintln!("sweeping ({scope:?} scope)...");
        let r = Reproduction::generate(scope);
        if which.as_deref() == Some(FIDELITY) {
            let card = r.fidelity();
            print!("{card}");
            return Ok(card.code());
        }
        for (name, render) in artifacts {
            if which.as_deref().unwrap_or(name) == *name {
                println!("{}", render(&r));
            }
        }
        if let Some(dir) = dir {
            r.write_figure_csvs(&dir)?;
            eprintln!("figure CSVs written to {}", dir.display());
        }
        Ok(EXIT_OK)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // One shared fast reproduction for all tests (the sweep is the
    // expensive part).
    fn repro() -> &'static Reproduction {
        static REPRO: OnceLock<Reproduction> = OnceLock::new();
        REPRO.get_or_init(|| Reproduction::generate(ReproScope::Fast))
    }

    #[test]
    fn generate_equals_the_sequential_sweep() {
        let r = repro();
        let mut sequential = sweep::sweep_all(&r.spec);
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let opts = sweep::SweepOptions::new(workers.max(2));
        assert_eq!(
            sweep::slice_fingerprint(&sequential),
            sweep::slice_fingerprint(&sweep::sweep_all_scheduled(&r.spec, &opts).batches),
            "raw batches, failed repetitions included"
        );
        for b in &mut sequential {
            sweep::clean(b, r.spec.reps as usize);
        }
        assert_eq!(r.batches, sequential);
    }

    #[test]
    fn a_heatmap_is_fitted_once_and_equals_a_fresh_analysis() {
        let r = repro();
        for g in [
            GroupBy::Application,
            GroupBy::Architecture,
            GroupBy::ArchApplication,
        ] {
            let fresh = influence_analysis(r.records(), g);
            assert_eq!(r.heatmap(g), &fresh);
            assert!(std::ptr::eq(r.heatmap(g), r.heatmap(g)));
        }
    }

    #[test]
    fn the_fast_heat_maps_hash_to_the_pinned_digest() {
        // Every group label, accuracy and influence value of Figs. 2–4
        // at the fast scope, by bit pattern: the fitting kernel, its
        // thread split and the group order may change only if this
        // digest does not.
        let r = repro();
        let mut text = String::new();
        for g in [
            GroupBy::Application,
            GroupBy::Architecture,
            GroupBy::ArchApplication,
        ] {
            let hm = r.heatmap(g).as_ref().expect("fits");
            for row in &hm.rows {
                text.push_str(&format!("{} {:x} ", row.group, row.accuracy.to_bits()));
                for v in &row.influence {
                    text.push_str(&format!("{:x},", v.to_bits()));
                }
                text.push('\n');
            }
        }
        let digest = omptune_core::Fnv1a::of(text.as_bytes());
        assert_eq!(format!("{digest:016x}"), "14dbfb11b4631560");
    }

    #[test]
    fn tables_render_nonempty() {
        let r = repro();
        for table in [
            r.table1(),
            r.table2(),
            r.table5(),
            r.table6(),
            r.q1(),
            r.q4(),
        ] {
            assert!(table.lines().count() > 3, "table too short:\n{table}");
        }
    }

    #[test]
    fn violin_renders_for_alignment() {
        let v = repro().figure_violin("alignment");
        assert!(v.contains("a64fx"));
        assert!(v.contains('#'), "violin body missing");
    }

    #[test]
    fn heatmaps_render_for_all_groupings() {
        let r = repro();
        for g in [
            GroupBy::Application,
            GroupBy::Architecture,
            GroupBy::ArchApplication,
        ] {
            let hm = r.figure_heatmap(g);
            assert!(
                hm.contains("OMP_PROC_BIND"),
                "missing feature column:\n{hm}"
            );
        }
    }

    #[test]
    fn scope_parsing() {
        assert_eq!(ReproScope::parse("fast"), Some(ReproScope::Fast));
        assert_eq!(ReproScope::parse("paper"), Some(ReproScope::Paper));
        assert_eq!(ReproScope::parse("full"), Some(ReproScope::Full));
        assert_eq!(ReproScope::parse("huge"), None);
    }

    #[test]
    fn a_repro_command_line_is_a_job_or_a_usage_error() {
        let artifacts: [Artifact; 2] = [("table1", |r| r.table1()), ("q1", |r| r.q1())];
        let tables = |args| parse(args, &artifacts, false);
        let figures = |args| parse(args, &artifacts, true);
        cli::check_parse(
            tables,
            " | fast | paper q1 | full all | paper fidelity",
            "bogus | fast table9 | fast all figs | fast --json",
        );
        cli::check_parse(
            figures,
            "fast all figs | full table1 -",
            "fast all figs extra | paper fidelity",
        );
    }
}
