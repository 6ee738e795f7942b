//! # ompobs — the run observatory
//!
//! Answers one question about recorded runs: **did the measured
//! behaviour move, beyond what noise explains?** The paper's Table III
//! quantifies per-architecture measurement noise with the Wilcoxon
//! signed-rank test; [`compare`] turns the same test into a regression
//! gate over named series pairs, and everything else here feeds it or
//! reads its verdict:
//!
//! - [`drift`] — two run directories by hand: the per-stratum series
//!   folded from each run's `raw_batches.json`, paired by name.
//! - [`sentinel`] — the N-run change-point scan over the whole history
//!   in a [`sweep::Registry`] (every `collect` run and bench invocation
//!   appends a content-addressed record). Comparable runs (equal
//!   sweep-spec fingerprints) are walked in sequence order; each
//!   consecutive step is tested series-by-series, Holm-adjusted over
//!   *every* (step, series) test in the history so a long trail does
//!   not manufacture spurious change-points. Records with equal content
//!   hashes skip testing outright — equal addresses mean equal results.
//! - [`blame`] — bisection-to-blame. Once a step is flagged, the two
//!   bracketing records' per-app and per-(variable, value) cost
//!   digests are diffed to name the top regressed slice:
//!   (arch, app, variable, value) with its relative delta.

pub mod drift;

use mlstats::wilcoxon::{wilcoxon_signed_rank, WilcoxonError};
use mlstats::{holm_adjust, mean};
use serde::Serialize;
use sweep::series::stratum_series;
use sweep::{CollectCore, RunCore, RunRecord};

pub use drift::{drift_report, DriftReport};

// ---------------------------------------------------------------------------
// The comparison every verdict comes from.

/// One named series on the two sides of a comparison, values oldest
/// first; `None` on a side that never recorded it.
#[derive(Debug, Clone)]
pub struct SeriesPair {
    pub series: String,
    pub a: Option<Vec<f64>>,
    pub b: Option<Vec<f64>>,
}

/// One compared series.
#[derive(Debug, Clone, Serialize)]
pub struct SeriesRow {
    pub series: String,
    /// Paired points actually tested (after tail alignment + NaN drop).
    pub n: usize,
    /// Mean over side A's paired points.
    pub mean_a: f64,
    pub mean_b: f64,
    /// Every paired difference was exactly zero.
    pub identical: bool,
    /// Raw two-sided Wilcoxon p (absent when the test is undefined).
    pub p_raw: Option<f64>,
    /// Holm-adjusted p; only testable, non-identical rows are in the
    /// family.
    pub p_holm: Option<f64>,
    /// This row's call.
    pub drift: bool,
    /// Human-readable qualifier (`identical`, `missing in run B`, …).
    pub note: String,
}

/// Compare every pair at family-wise level `alpha` (0.05 is the
/// paper's): rows in input order, and the size of the Holm family.
///
/// Every pair gates: the callers pass per-stratum virtual time and
/// energy ([`sweep::series`]), deterministic given the seed, and nothing
/// that varies with the machine. One Wilcoxon test per series would be
/// fine; dozens are not — at α = 0.05 a 24-test family flags spurious
/// drift in most comparisons. The p-values are therefore Holm-adjusted
/// and a row drifts only when its adjusted p clears `alpha`, or when one
/// side lacks the series.
pub fn compare(pairs: Vec<SeriesPair>, alpha: f64) -> (Vec<SeriesRow>, usize) {
    let mut rows: Vec<SeriesRow> = pairs.into_iter().map(compare_pair).collect();
    // Holm family: rows with a defined raw p. Identical rows cannot
    // drift and untestable rows carry no evidence; keeping them out
    // preserves power for the tests that can actually speak.
    let mut family: Vec<&mut SeriesRow> = rows.iter_mut().filter(|r| r.p_raw.is_some()).collect();
    let raw: Vec<f64> = family.iter().filter_map(|r| r.p_raw).collect();
    for (row, adjusted) in family.iter_mut().zip(holm_adjust(&raw)) {
        row.p_holm = Some(adjusted);
        row.drift = adjusted <= alpha;
    }
    let size = family.len();
    (rows, size)
}

fn compare_pair(pair: SeriesPair) -> SeriesRow {
    let mut row = SeriesRow {
        series: pair.series,
        n: 0,
        mean_a: f64::NAN,
        mean_b: f64::NAN,
        identical: false,
        p_raw: None,
        p_holm: None,
        drift: false,
        note: String::new(),
    };
    let (a, b) = match (pair.a, pair.b) {
        (Some(a), Some(b)) => (a, b),
        (a, _) => {
            // A series present on one side only means the swept space
            // itself changed — that is drift, not noise.
            row.drift = true;
            row.note = format!("missing in run {}", if a.is_some() { "B" } else { "A" });
            return row;
        }
    };
    // Tail-aligned positional pairing, non-finite pairs dropped: rings
    // keep the most recent window, so when one side retained more
    // history than the other the comparable region is the tail.
    let n = a.len().min(b.len());
    let (xs, ys): (Vec<f64>, Vec<f64>) = a[a.len() - n..]
        .iter()
        .zip(&b[b.len() - n..])
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(&x, &y)| (x, y))
        .unzip();
    row.n = xs.len();
    row.mean_a = mean(&xs);
    row.mean_b = mean(&ys);
    match wilcoxon_signed_rank(&xs, &ys) {
        Ok(r) => {
            row.p_raw = Some(r.p_value);
            row.note = format!("W={:.1}", r.statistic);
        }
        Err(WilcoxonError::AllZeroDifferences) => {
            row.identical = true;
            row.note = "identical".to_string();
        }
        Err(WilcoxonError::Empty) => row.note = "no paired points".to_string(),
        Err(WilcoxonError::LengthMismatch) => unreachable!("the pairing aligns lengths"),
    }
    row
}

// ---------------------------------------------------------------------------
// The N-run sentinel over the registry.

/// History schema marker written into `history.json`.
pub const HISTORY_SCHEMA: &str = "ompobs-history-v1";

/// One run in the comparable trail.
#[derive(Debug, Clone, Serialize)]
pub struct RunBrief {
    pub seq: u64,
    pub ts_unix: u64,
    pub git_rev: String,
    /// Content address, hex.
    pub record_hash: String,
    pub samples: u64,
    pub workers: u64,
}

/// One tested series inside one step: a [`SeriesRow`] as
/// `ompobs-history-v1` spells it (every registry series gates).
#[derive(Debug, Clone, Serialize)]
pub struct StepRow {
    pub series: String,
    /// Paired points tested (tail-aligned, NaN pairs dropped).
    pub n: usize,
    pub mean_a: f64,
    pub mean_b: f64,
    /// Every paired difference was exactly zero.
    pub identical: bool,
    pub p_raw: Option<f64>,
    /// Holm-adjusted over every testable row of every step.
    pub p_holm: Option<f64>,
    pub change: bool,
}

impl From<SeriesRow> for StepRow {
    fn from(row: SeriesRow) -> StepRow {
        StepRow {
            series: row.series,
            n: row.n,
            mean_a: row.mean_a,
            mean_b: row.mean_b,
            identical: row.identical,
            p_raw: row.p_raw,
            p_holm: row.p_holm,
            change: row.drift,
        }
    }
}

/// One consecutive pair of comparable runs.
#[derive(Debug, Clone, Serialize)]
pub struct Step {
    pub from_seq: u64,
    pub to_seq: u64,
    pub from_rev: String,
    pub to_rev: String,
    /// Equal content hashes: the step is identical by address, no
    /// tests were needed.
    pub identical: bool,
    /// Structural disagreements (an architecture present on one side
    /// only) — change-points without any statistics.
    pub structural: Vec<String>,
    pub rows: Vec<StepRow>,
    pub change_point: bool,
}

/// The sentinel's full verdict over one registry.
#[derive(Debug, Clone, Serialize)]
pub struct History {
    pub schema: String,
    pub alpha: f64,
    /// Fingerprint (hex) of the sweep spec the trail was grouped by.
    pub spec_fp: String,
    /// Total Holm family size across all steps.
    pub family: usize,
    pub runs: Vec<RunBrief>,
    pub steps: Vec<Step>,
    /// Indices into `steps` that are change-points.
    pub change_points: Vec<usize>,
    /// The verdict: any step is a change-point.
    pub change: bool,
    /// Why the trail may be shorter than the registry (context line).
    pub note: String,
}

fn collect_samples(c: &CollectCore) -> u64 {
    c.arches.iter().map(|a| a.samples).sum()
}

/// The comparable trail: collect records sharing the *latest* collect
/// record's spec fingerprint, sequence order.
pub fn comparable_trail(records: &[RunRecord]) -> Vec<&RunRecord> {
    let Some(last_fp) = records
        .iter()
        .rev()
        .find(|r| matches!(r.core, RunCore::Collect(_)))
        .map(|r| r.core.spec_fp())
    else {
        return Vec::new();
    };
    records
        .iter()
        .filter(|r| matches!(r.core, RunCore::Collect(_)) && r.core.spec_fp() == last_fp)
        .collect()
}

/// Scan the registry history for change-points at family-wise level
/// `alpha` (0.05 is the paper's).
pub fn sentinel(records: &[RunRecord], alpha: f64) -> History {
    let trail = comparable_trail(records);
    let mut history = History {
        schema: HISTORY_SCHEMA.to_string(),
        alpha,
        spec_fp: trail
            .first()
            .map(|r| format!("{:016x}", r.core.spec_fp()))
            .unwrap_or_else(|| "-".to_string()),
        family: 0,
        runs: Vec::new(),
        steps: Vec::new(),
        change_points: Vec::new(),
        change: false,
        note: String::new(),
    };
    for r in &trail {
        let RunCore::Collect(c) = &r.core else {
            continue;
        };
        history.runs.push(RunBrief {
            seq: r.seq,
            ts_unix: r.ts_unix,
            git_rev: r.git_rev.clone(),
            record_hash: format!("{:016x}", r.record_hash),
            samples: collect_samples(c),
            workers: r.info.workers,
        });
    }
    if trail.len() < 2 {
        history.note = format!(
            "{} comparable run(s) — need at least 2 for a step",
            trail.len()
        );
        return history;
    }
    history.note = format!(
        "{} comparable runs out of {} records",
        trail.len(),
        records.len()
    );

    // Every step's series pairs go to one comparison: a long history
    // is one big multiple-comparison problem, not many small ones.
    let mut pairs = Vec::new();
    let mut rows_per_step = Vec::new();
    for pair in trail.windows(2) {
        let (ra, rb) = (pair[0], pair[1]);
        let mut step = Step {
            from_seq: ra.seq,
            to_seq: rb.seq,
            from_rev: ra.git_rev.clone(),
            to_rev: rb.git_rev.clone(),
            identical: ra.record_hash == rb.record_hash,
            structural: Vec::new(),
            rows: Vec::new(),
            change_point: false,
        };
        let before = pairs.len();
        if !step.identical {
            let (RunCore::Collect(ca), RunCore::Collect(cb)) = (&ra.core, &rb.core) else {
                unreachable!("trail holds collect records only");
            };
            step_pairs(ca, cb, &mut step, &mut pairs);
        }
        rows_per_step.push(pairs.len() - before);
        history.steps.push(step);
    }
    let (rows, family) = compare(pairs, alpha);
    history.family = family;
    let mut rows = rows.into_iter();
    for (si, (step, n)) in history.steps.iter_mut().zip(rows_per_step).enumerate() {
        step.rows = rows.by_ref().take(n).map(StepRow::from).collect();
        step.change_point = !step.structural.is_empty() || step.rows.iter().any(|r| r.change);
        if step.change_point {
            history.change_points.push(si);
        }
    }
    history.change = !history.change_points.is_empty();
    history
}

/// What two collect cores disagree on structurally, into `step`, and
/// the series pairs they share, onto `pairs`.
fn step_pairs(ca: &CollectCore, cb: &CollectCore, step: &mut Step, pairs: &mut Vec<SeriesPair>) {
    for a in &ca.arches {
        if !cb.arches.iter().any(|b| b.arch == a.arch) {
            step.structural
                .push(format!("{} missing in #{}", a.arch, step.to_seq));
        }
    }
    for b in &cb.arches {
        if !ca.arches.iter().any(|a| a.arch == b.arch) {
            step.structural
                .push(format!("{} missing in #{}", b.arch, step.from_seq));
        }
    }
    for a in &ca.arches {
        let Some(b) = cb.arches.iter().find(|b| b.arch == a.arch) else {
            continue;
        };
        // Energy series ride the same test: a config change that moves
        // joules without moving virtual time (a wait-policy swap, say)
        // is a change-point too. A record without energy series is
        // compared on virtual time alone — skipped, not flagged.
        for (objective, sa, sb) in [("virt", &a.virt, &b.virt), ("energy", &a.energy, &b.energy)] {
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            for (k, (sa, sb)) in sa.iter().zip(sb).enumerate() {
                pairs.push(SeriesPair {
                    series: stratum_series(&a.arch, objective, k),
                    a: Some(sa.means()),
                    b: Some(sb.means()),
                });
            }
        }
    }
}

impl History {
    /// Fixed-width trail report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "sentinel: {} comparable run(s), spec {} (alpha {}, Holm over {} tests)\n",
            self.runs.len(),
            self.spec_fp,
            self.alpha,
            self.family
        ));
        for r in &self.runs {
            out.push_str(&format!(
                "  run #{:<3} rev {:<12} hash {} ({} samples, {} workers)\n",
                r.seq,
                short(&r.git_rev),
                r.record_hash,
                r.samples,
                r.workers
            ));
        }
        for step in &self.steps {
            let label = format!("#{} -> #{}", step.from_seq, step.to_seq);
            if step.identical {
                out.push_str(&format!("step {label}: identical (content hashes equal)\n"));
                continue;
            }
            out.push_str(&format!(
                "step {label}: {}\n",
                if step.change_point {
                    "CHANGE-POINT"
                } else {
                    "ok"
                }
            ));
            for s in &step.structural {
                out.push_str(&format!("    structural: {s}\n"));
            }
            for row in step.rows.iter().filter(|r| r.change) {
                out.push_str(&format!(
                    "    {:<24} n={:<3} {:.4e} -> {:.4e}  p_holm={:.2e}\n",
                    row.series,
                    row.n,
                    row.mean_a,
                    row.mean_b,
                    row.p_holm.unwrap_or(f64::NAN)
                ));
            }
        }
        out.push_str(&format!(
            "VERDICT: {}\n",
            if self.change {
                "CHANGE-POINT"
            } else {
                "OK (no change-point)"
            }
        ));
        out
    }

    /// The step to blame by default: the last change-point, else the
    /// last step.
    pub fn default_bracket(&self) -> Option<(u64, u64)> {
        let step = self
            .change_points
            .last()
            .map(|&i| &self.steps[i])
            .or_else(|| self.steps.last())?;
        Some((step.from_seq, step.to_seq))
    }
}

/// The first 12 characters of a recorded git revision. A record's
/// `git_rev` is outside input (only the core is content-hashed), so the
/// cut lands on a character boundary, never inside one.
pub fn short(rev: &str) -> &str {
    rev.char_indices()
        .nth(12)
        .map_or(rev, |(end, _)| &rev[..end])
}

// ---------------------------------------------------------------------------
// Bisection-to-blame.

/// Delta of one digest slice between the bracketing runs.
#[derive(Debug, Clone, Serialize)]
pub struct SliceDelta {
    pub name: String,
    pub from_virt_ns: u64,
    pub to_virt_ns: u64,
    /// `(to - from) / from`; positive means slower.
    pub delta_rel: f64,
}

fn slice_delta(name: String, from: u64, to: u64) -> SliceDelta {
    let delta_rel = if from > 0 {
        (to as f64 - from as f64) / from as f64
    } else if to > 0 {
        f64::INFINITY
    } else {
        0.0
    };
    SliceDelta {
        name,
        from_virt_ns: from,
        to_virt_ns: to,
        delta_rel,
    }
}

/// The named culprit: the top regressed (arch, app, variable, value).
#[derive(Debug, Clone, Serialize)]
pub struct TopSlice {
    pub arch: String,
    pub app: String,
    pub variable: String,
    pub value: String,
    pub delta_rel: f64,
}

/// The blame verdict for one bracketing pair.
#[derive(Debug, Clone, Serialize)]
pub struct Blame {
    pub schema: String,
    pub from_seq: u64,
    pub to_seq: u64,
    pub from_rev: String,
    pub to_rev: String,
    /// Per-arch virtual-time deltas, most-regressed first.
    pub arches: Vec<SliceDelta>,
    /// Per-arch modeled-energy deltas (µJ digests), most-regressed
    /// first; empty when either bracketing record predates energy.
    pub energy: Vec<SliceDelta>,
    /// Per-app deltas within the top arch, most-regressed first.
    pub apps: Vec<SliceDelta>,
    /// Per-(variable, value) deltas within the top arch,
    /// most-regressed first (by absolute nanosecond delta).
    pub cells: Vec<SliceDelta>,
    pub top: Option<TopSlice>,
}

/// Diff the digests of two registered runs and name the top regressed
/// slice. `from_seq`/`to_seq` address records in `records`, which must
/// share a spec fingerprint: runs of different sweeps differ by what
/// they swept, not by a regression.
pub fn blame(records: &[RunRecord], from_seq: u64, to_seq: u64) -> Result<Blame, String> {
    let find = |seq: u64| -> Result<(&RunRecord, &CollectCore), String> {
        let rec = records
            .iter()
            .find(|r| r.seq == seq)
            .ok_or_else(|| format!("run #{seq} is not in the registry"))?;
        match &rec.core {
            RunCore::Collect(c) => Ok((rec, c)),
            RunCore::Bench(_) => Err(format!("run #{seq} is a bench record, not a sweep")),
        }
    };
    let (ra, ca) = find(from_seq)?;
    let (rb, cb) = find(to_seq)?;
    if ca.spec_fingerprint != cb.spec_fingerprint {
        return Err(format!(
            "run #{from_seq} (spec {:016x}) and run #{to_seq} (spec {:016x}) swept different specs — nothing to blame",
            ca.spec_fingerprint, cb.spec_fingerprint
        ));
    }

    let mut arches: Vec<SliceDelta> = ca
        .arches
        .iter()
        .filter_map(|a| {
            cb.arches
                .iter()
                .find(|b| b.arch == a.arch)
                .map(|b| slice_delta(a.arch.clone(), a.virt_ns(), b.virt_ns()))
        })
        .collect();
    if arches.is_empty() {
        return Err("the two runs share no architecture".to_string());
    }
    sort_regressed(&mut arches);
    // Energy deltas: the second objective's view of the same bracket.
    // Gated on both sides carrying energy so a pre-energy baseline
    // never reads as a 100% energy regression.
    let mut energy: Vec<SliceDelta> = ca
        .arches
        .iter()
        .filter(|a| a.energy_uj() > 0)
        .filter_map(|a| {
            cb.arches
                .iter()
                .find(|b| b.arch == a.arch && b.energy_uj() > 0)
                .map(|b| slice_delta(a.arch.clone(), a.energy_uj(), b.energy_uj()))
        })
        .collect();
    sort_regressed(&mut energy);
    let top_arch = arches[0].name.clone();
    let da = ca
        .arches
        .iter()
        .find(|a| a.arch == top_arch)
        .expect("top arch from ca");
    let db = cb
        .arches
        .iter()
        .find(|b| b.arch == top_arch)
        .expect("top arch from cb");

    let mut apps: Vec<SliceDelta> = da
        .apps
        .iter()
        .filter_map(|a| {
            db.apps
                .iter()
                .find(|b| b.app == a.app)
                .map(|b| slice_delta(a.app.clone(), a.virt_ns, b.virt_ns))
        })
        .collect();
    sort_regressed(&mut apps);

    // Cells rank by absolute nanosecond delta: under a uniform shift
    // every cell moves by the same ratio, and the biggest slice is the
    // most informative name to print.
    let mut cells: Vec<SliceDelta> = da
        .cells
        .iter()
        .filter_map(|a| {
            db.cells
                .iter()
                .find(|b| b.var == a.var && b.value == a.value)
                .map(|b| slice_delta(format!("{}={}", a.var, a.value), a.virt_ns, b.virt_ns))
        })
        .filter(|d| d.from_virt_ns > 0 || d.to_virt_ns > 0)
        .collect();
    cells.sort_by(|x, y| {
        let dx = x.to_virt_ns as i128 - x.from_virt_ns as i128;
        let dy = y.to_virt_ns as i128 - y.from_virt_ns as i128;
        dy.abs().cmp(&dx.abs())
    });

    let top = match (apps.first(), cells.first()) {
        (Some(app), Some(cell)) => {
            let (variable, value) = cell
                .name
                .split_once('=')
                .unwrap_or((cell.name.as_str(), ""));
            Some(TopSlice {
                arch: top_arch.clone(),
                app: app.name.clone(),
                variable: variable.to_string(),
                value: value.to_string(),
                delta_rel: arches[0].delta_rel,
            })
        }
        _ => None,
    };
    Ok(Blame {
        schema: "ompobs-blame-v1".to_string(),
        from_seq,
        to_seq,
        from_rev: ra.git_rev.clone(),
        to_rev: rb.git_rev.clone(),
        arches,
        energy,
        apps,
        cells,
        top,
    })
}

fn sort_regressed(v: &mut [SliceDelta]) {
    v.sort_by(|x, y| {
        y.delta_rel
            .abs()
            .partial_cmp(&x.delta_rel.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

impl Blame {
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "blame: run #{} (rev {}) -> run #{} (rev {})\n",
            self.from_seq,
            short(&self.from_rev),
            self.to_seq,
            short(&self.to_rev)
        ));
        for a in &self.arches {
            out.push_str(&format!(
                "  arch {:<10} {:+.2}% virtual time\n",
                a.name,
                a.delta_rel * 100.0
            ));
        }
        for a in &self.energy {
            out.push_str(&format!(
                "  arch {:<10} {:+.2}% modeled energy\n",
                a.name,
                a.delta_rel * 100.0
            ));
        }
        for a in self.apps.iter().take(3) {
            out.push_str(&format!(
                "  app  {:<10} {:+.2}%\n",
                a.name,
                a.delta_rel * 100.0
            ));
        }
        for c in self.cells.iter().take(3) {
            out.push_str(&format!(
                "  cell {:<28} {:+.2}%\n",
                c.name,
                c.delta_rel * 100.0
            ));
        }
        if let Some(t) = &self.top {
            out.push_str(&format!(
                "top regressed slice: {}/{} {}={} ({:+.2}%)\n",
                t.arch,
                t.app,
                t.variable,
                t.value,
                t.delta_rel * 100.0
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweep::{ArchDigest, RunInfo, StratumSeries};

    /// A hand-built digest: deterministic series, two apps, two cells.
    /// `scale` moves virtual time; `energy_scale` moves the modeled
    /// joules — independently, so tests can perturb one objective only.
    fn synth_arch(arch: &str, scale: f64, energy_scale: f64) -> ArchDigest {
        let mut virt = Vec::new();
        let mut energy = Vec::new();
        for k in 0..sweep::registry::STRATA {
            let mut s = StratumSeries::default();
            let mut e = StratumSeries::default();
            for i in 0..40u64 {
                let base = 1000.0 + (k as f64) * 37.0 + (i as f64) * 3.0;
                // Private constructor is in sweep; emulate by pushing
                // through the public fields.
                s.total += 1;
                s.counts.push(3);
                s.sum_bits.push((base * scale).to_bits());
                e.total += 1;
                e.counts.push(1);
                e.sum_bits.push((base * 0.002 * energy_scale).to_bits());
            }
            virt.push(s);
            energy.push(e);
        }
        ArchDigest {
            arch: arch.to_string(),
            settings: 4,
            samples: 320,
            dropped: 0,
            virt,
            energy,
            apps: vec![
                sweep::registry::AppDigest {
                    app: "cg".to_string(),
                    samples: 200,
                    virt_ns: (2_000_000.0 * scale) as u64,
                    energy_uj: (4_000_000.0 * energy_scale) as u64,
                },
                sweep::registry::AppDigest {
                    app: "ft".to_string(),
                    samples: 120,
                    virt_ns: (1_000_000.0 * scale) as u64,
                    energy_uj: (2_000_000.0 * energy_scale) as u64,
                },
            ],
            cells: vec![
                sweep::registry::CellDigest {
                    var: "OMP_SCHEDULE".to_string(),
                    value: "static".to_string(),
                    samples: 160,
                    virt_ns: (1_800_000.0 * scale) as u64,
                    energy_uj: (3_600_000.0 * energy_scale) as u64,
                },
                sweep::registry::CellDigest {
                    var: "OMP_SCHEDULE".to_string(),
                    value: "dynamic,16".to_string(),
                    samples: 160,
                    virt_ns: (1_200_000.0 * scale) as u64,
                    energy_uj: (2_400_000.0 * energy_scale) as u64,
                },
            ],
        }
    }

    fn synth_record_scaled(seq: u64, perturb: Option<(&str, f64, f64)>) -> RunRecord {
        let spec = sweep::SweepSpec::default();
        let mut core = CollectCore::new(&spec);
        for arch in ["a64fx", "skylake"] {
            let (scale, energy_scale) = match perturb {
                Some((p, f, e)) if p == arch => (f, e),
                _ => (1.0, 1.0),
            };
            core.arches.push(synth_arch(arch, scale, energy_scale));
        }
        let rc = RunCore::Collect(core);
        RunRecord {
            seq,
            ts_unix: 1_000 + seq,
            git_rev: format!("rev{seq}"),
            record_hash: rc.hash(),
            core: rc,
            info: RunInfo::default(),
        }
    }

    fn synth_record(seq: u64, perturb: Option<(&str, f64)>) -> RunRecord {
        synth_record_scaled(seq, perturb.map(|(p, f)| (p, f, f)))
    }

    #[test]
    fn identical_history_is_clean() {
        let records: Vec<RunRecord> = (0..3).map(|i| synth_record(i, None)).collect();
        let h = sentinel(&records, 0.05);
        assert_eq!(h.runs.len(), 3);
        assert_eq!(h.steps.len(), 2);
        assert!(h.steps.iter().all(|s| s.identical), "{}", h.render());
        assert!(!h.change);
        assert_eq!(h.family, 0, "identical steps run no tests");
        assert!(h.render().contains("VERDICT: OK"));
    }

    #[test]
    fn perturbed_run_is_a_change_point_and_blame_names_the_arch() {
        let mut records: Vec<RunRecord> = (0..3).map(|i| synth_record(i, None)).collect();
        records.push(synth_record(3, Some(("skylake", 1.10))));
        let h = sentinel(&records, 0.05);
        assert!(h.change, "{}", h.render());
        assert_eq!(h.change_points, vec![2], "only the last step changes");
        let step = &h.steps[2];
        assert!(step
            .rows
            .iter()
            .any(|r| r.change && r.series.starts_with("skylake/virt/")));
        assert!(
            step.rows
                .iter()
                .filter(|r| r.series.starts_with("a64fx/"))
                .all(|r| r.identical),
            "untouched arch stays identical"
        );

        let (from, to) = h.default_bracket().unwrap();
        assert_eq!((from, to), (2, 3));
        let b = blame(&records, from, to).unwrap();
        let top = b.top.as_ref().expect("top slice named");
        assert_eq!(top.arch, "skylake");
        assert_eq!(top.app, "cg");
        assert_eq!(top.variable, "OMP_SCHEDULE");
        assert_eq!(top.value, "static");
        assert!((top.delta_rel - 0.10).abs() < 1e-9, "{}", b.render());
        assert!(b.render().contains("skylake/cg OMP_SCHEDULE=static"));
        // The untouched arch reports ~0 delta.
        let a64fx = b.arches.iter().find(|a| a.name == "a64fx").unwrap();
        assert!(a64fx.delta_rel.abs() < 1e-12);
    }

    #[test]
    fn history_json_matches_the_golden_digest() {
        // Length and FNV-1a of `history.json` over the clean + perturbed
        // history above, captured at the commit before the sentinel and
        // `ompmon drift` became one engine: `ompobs-history-v1` bytes
        // may not move.
        let mut records: Vec<RunRecord> = (0..3).map(|i| synth_record(i, None)).collect();
        records.push(synth_record(3, Some(("skylake", 1.10))));
        let json = serde_json::to_string_pretty(&sentinel(&records, 0.05)).unwrap();
        let digest = omptune_core::Fnv1a::of(json.as_bytes());
        assert_eq!(
            (json.len(), digest),
            (10380, 0xefaf_b459_6e82_f727),
            "{json}"
        );
    }

    #[test]
    fn energy_only_shift_is_a_change_point() {
        // Same virtual time, different joules: the wait-policy-swap
        // shape. Only the energy series may flag; the virt rows must
        // stay identical, and blame names the arch on the energy axis.
        let mut records: Vec<RunRecord> = (0..3).map(|i| synth_record(i, None)).collect();
        records.push(synth_record_scaled(3, Some(("a64fx", 1.0, 1.25))));
        let h = sentinel(&records, 0.05);
        assert!(h.change, "{}", h.render());
        let step = &h.steps[2];
        assert!(step
            .rows
            .iter()
            .any(|r| r.change && r.series.starts_with("a64fx/energy/")));
        assert!(
            step.rows
                .iter()
                .filter(|r| r.series.contains("/virt/"))
                .all(|r| r.identical),
            "virtual time did not move"
        );
        let b = blame(&records, 2, 3).unwrap();
        let top_e = b.energy.first().expect("energy deltas present");
        assert_eq!(top_e.name, "a64fx");
        assert!((top_e.delta_rel - 0.25).abs() < 1e-9, "{}", b.render());
        assert!(b.render().contains("modeled energy"));
    }

    #[test]
    fn pre_energy_baseline_never_flags_energy() {
        // Step from a v1-era record (no energy words) to an energy
        // record: the sentinel must not test — let alone flag — the
        // energy series, and blame reports no energy deltas.
        let mut old = synth_record(0, None);
        if let RunCore::Collect(c) = &mut old.core {
            for a in &mut c.arches {
                a.energy.clear();
                for app in &mut a.apps {
                    app.energy_uj = 0;
                }
                for cell in &mut a.cells {
                    cell.energy_uj = 0;
                }
            }
        }
        old.record_hash = old.core.hash();
        let records = vec![old, synth_record(1, None)];
        let h = sentinel(&records, 0.05);
        assert!(!h.change, "{}", h.render());
        let step = &h.steps[0];
        assert!(
            step.rows.iter().all(|r| !r.series.contains("/energy/")),
            "energy rows must be skipped against a pre-energy baseline"
        );
        let b = blame(&records, 0, 1).unwrap();
        assert!(b.energy.is_empty(), "{}", b.render());
    }

    #[test]
    fn a_record_with_fewer_strata_compares_and_renders_what_it_has() {
        // Hash-consistent, so it loads — but written with other strata.
        let mut short = synth_record(1, None);
        if let RunCore::Collect(c) = &mut short.core {
            c.arches[0].virt.truncate(2);
            c.arches[0].energy.truncate(1);
        }
        short.record_hash = short.core.hash();
        let records = vec![synth_record(0, None), short];
        let h = sentinel(&records, 0.05);
        let a64fx = h.steps[0]
            .rows
            .iter()
            .filter(|r| r.series.starts_with("a64fx/"));
        assert_eq!(a64fx.count(), 3, "the strata both sides have");
        assert!(h.render().contains("VERDICT: OK"), "{}", h.render());
    }

    #[test]
    fn single_run_history_has_no_verdict() {
        let records = vec![synth_record(0, None)];
        let h = sentinel(&records, 0.05);
        assert!(!h.change);
        assert!(h.note.contains("need at least 2"));
    }

    #[test]
    fn bench_records_do_not_enter_the_trail() {
        let mut records: Vec<RunRecord> = (0..2).map(|i| synth_record(i, None)).collect();
        let bc = sweep::BenchCore::from_bench_json("sweep", r#"{"warm_s":0.005}"#).unwrap();
        let rc = RunCore::Bench(bc);
        records.push(RunRecord {
            seq: 2,
            ts_unix: 0,
            git_rev: "r".to_string(),
            record_hash: rc.hash(),
            core: rc,
            info: RunInfo::default(),
        });
        let h = sentinel(&records, 0.05);
        assert_eq!(h.runs.len(), 2);
        assert!(h.note.contains("2 comparable runs out of 3 records"));
    }

    #[test]
    fn blame_refuses_runs_of_different_specs() {
        // A `tiny` run then a `fast` one: the gap is the larger scope,
        // not a regression, so there is no slice to name.
        let scoped = |seq: u64, stride: usize| {
            let spec = sweep::SweepSpec {
                scope: sweep::Scope::Strided(stride),
                ..sweep::SweepSpec::default()
            };
            let mut core = CollectCore::new(&spec);
            core.arches.push(synth_arch("skylake", stride as f64, 1.0));
            let rc = RunCore::Collect(core);
            RunRecord {
                seq,
                ts_unix: 1_000 + seq,
                git_rev: format!("rev{seq}"),
                record_hash: rc.hash(),
                core: rc,
                info: RunInfo::default(),
            }
        };
        let records = vec![scoped(0, 400), scoped(1, 24)];
        let fps = records.iter().map(|r| format!("{:016x}", r.core.spec_fp()));
        let err = blame(&records, 0, 1).unwrap_err();
        for fp in fps {
            assert!(err.contains(&fp), "{err} does not name {fp}");
        }
        // Runs of one spec still blame.
        let records = vec![scoped(0, 400), scoped(1, 400)];
        assert!(blame(&records, 0, 1).is_ok());
    }
}
