//! The paper's numbers, once: one row per claim of Tables II–VII, Sec. V
//! Q1/Q2/Q4 and Figs. 2–3, as `(artifact, key, paper value, tolerance)`.
//! The `repro-tables` printers take their paper column from these rows,
//! `sweep::spec` sizes the paper scope by them, and `repro-tables paper
//! fidelity` holds every row against the paper-sized dataset at the
//! default seed.
//!
//! A [`Tolerance::Deviation`] is a value the reproduction knowingly
//! misses. Its bound is the gap measured when the row was written,
//! rounded up to the next 5 %, so the row fails only if the gap grows.

use crate::arch::Arch::{self, A64fx, Milan, Skylake};
use crate::cli;
use crate::report::SpeedupRange;
use crate::variable::Variable::{self, AlignAlloc, ForceReduction, Library};
use std::fmt;
use End::{Max, Min};
use Key::*;
use Tolerance::*;

/// Significance level of Table III's Wilcoxon tests.
const ALPHA: f64 = 0.05;
/// How far a [`Tolerance::Relative`] row may stray from the paper.
const RELATIVE: f64 = 0.02;

/// One end of a speedup range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    Min,
    Max,
}

impl End {
    /// This end of `range`.
    pub fn of(self, range: SpeedupRange) -> f64 {
        match self {
            Min => range.lo,
            Max => range.hi,
        }
    }
}

/// What a row is about; its `Display` is the scorecard's key column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Key {
    /// Table II: applications swept on an architecture.
    Apps(Arch),
    /// Table II: samples kept on an architecture.
    Samples(Arch),
    /// Table III: Wilcoxon p-value of alignment-small repetitions R`i`, R`i+1`.
    Consistency(Arch, usize),
    /// Table IV: mean runtime of alignment-small repetition R`i`, seconds.
    RepMean(Arch, usize),
    /// Table IV: the R0 mean over the R1 mean.
    FirstRepShift(Arch),
    /// Table V: one end of an (application, architecture) speedup range.
    AppArch(&'static str, Arch, End),
    /// Table VI: one end of an application's speedup range.
    App(&'static str, End),
    /// Q1: one end of an architecture's speedup range.
    Upshot(Arch, End),
    /// Q1: the median of an architecture's per-setting maxima.
    Median(Arch),
    /// Q1: the medians order milan > skylake > a64fx.
    MedianOrder,
    /// Table VII: the top configurations of (application, architecture)
    /// share the variable at one of these values (any value when empty).
    Recommends(&'static str, Arch, Variable, &'static [&'static str]),
    /// Q2: some other architecture ranks the application's best
    /// configuration below this percentile.
    TransferBelow(&'static str, f64),
    /// Q4: the top worst-trend pattern is master binding, with a lift
    /// above this.
    MasterBindWorst(f64),
    /// Fig. 3: max(NUM_THREADS, PROC_BIND) outranks FORCE_REDUCTION and
    /// ALIGN_ALLOC on an architecture.
    LeadersOutrank(Arch),
    /// Fig. 3: ALIGN_ALLOC's influence on an architecture is below this.
    AlignAllocBelow(Arch, f64),
    /// Fig. 2: the first application relies less on the architecture than
    /// the second.
    LessArchReliant(&'static str, &'static str),
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let end = |e: End| if e == Min { "min" } else { "max" };
        match *self {
            Apps(arch) => write!(f, "{arch} apps"),
            Samples(arch) => write!(f, "{arch} samples"),
            Consistency(arch, i) => write!(f, "{arch} p(R{i}, R{})", i + 1),
            RepMean(arch, i) => write!(f, "{arch} mean R{i}"),
            FirstRepShift(arch) => write!(f, "{arch} mean R0 / R1"),
            AppArch(app, arch, e) => write!(f, "{app}/{arch} {}", end(e)),
            App(app, e) => write!(f, "{app} {}", end(e)),
            Upshot(arch, e) => write!(f, "{arch} {}", end(e)),
            Median(arch) => write!(f, "{arch} median"),
            MedianOrder => write!(f, "median milan > skylake > a64fx"),
            Recommends(app, arch, var, []) => write!(f, "{app}/{arch} {}", var.env_name()),
            Recommends(app, arch, var, values) => {
                write!(f, "{app}/{arch} {}={}", var.env_name(), values.join("|"))
            }
            TransferBelow(app, p) => write!(f, "{app} best elsewhere below {p} pct"),
            MasterBindWorst(lift) => write!(f, "worst trend master bind, lift > {lift}"),
            LeadersOutrank(arch) => write!(f, "{arch} threads|bind > reduction, align"),
            AlignAllocBelow(arch, x) => write!(f, "{arch} align influence < {x}"),
            LessArchReliant(a, b) => write!(f, "{a} arch influence < {b}'s"),
        }
    }
}

/// How a row's reproduced value is held to the paper's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// The same count.
    Exact,
    /// Within 2 % of the paper's value.
    Relative,
    /// A p-value on the paper's side of α = 0.05.
    Significance,
    /// A claim of the paper (value 1) that holds here too.
    Holds,
    /// A value we knowingly miss: the verdict is [`Verdict::Deviation`]
    /// while the relative gap stays within `bound`, and a miss past it.
    Deviation { bound: f64, reason: &'static str },
}

impl Tolerance {
    /// The verdict on `ours` against `paper`; NaN (no value) is a miss.
    pub fn judge(self, paper: f64, ours: f64) -> Verdict {
        let gap = (ours / paper - 1.0).abs();
        let pass = match self {
            Exact | Holds => ours == paper,
            Relative => gap <= RELATIVE,
            Significance => !ours.is_nan() && (ours < ALPHA) == (paper < ALPHA),
            Deviation { bound, .. } if gap <= bound => return Verdict::Deviation,
            Deviation { .. } => false,
        };
        if pass {
            Verdict::Pass
        } else {
            Verdict::Miss
        }
    }

    /// A value as this kind of row prints it.
    fn show(self, x: f64) -> String {
        match self {
            Exact | Holds => format!("{x:.0}"),
            Significance => format!("{x:.3e}"),
            Relative | Deviation { .. } => format!("{x:.3}"),
        }
    }
}

impl fmt::Display for Tolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Exact => f.write_str("exact"),
            Relative => write!(f, "{} %", RELATIVE * 100.0),
            Significance => write!(f, "alpha {ALPHA}"),
            Holds => f.write_str("holds"),
            Deviation { bound, .. } => write!(f, "<= {:.0} %", bound * 100.0),
        }
    }
}

/// What the scorecard says of one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Deviation,
    Miss,
}

/// One number or claim of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// The `repro-tables` / `repro-figures` artifact it belongs to.
    pub artifact: &'static str,
    pub key: Key,
    pub paper: f64,
    pub tolerance: Tolerance,
}

impl Row {
    /// This row held against the reproduction's value.
    pub fn check(&self, ours: f64) -> Check<'_> {
        let verdict = self.tolerance.judge(self.paper, ours);
        Check {
            row: self,
            ours,
            verdict,
        }
    }
}

/// A row and the reproduction's value for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Check<'a> {
    pub row: &'a Row,
    pub ours: f64,
    pub verdict: Verdict,
}

impl fmt::Display for Check<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Row {
            artifact,
            key,
            paper,
            tolerance,
        } = *self.row;
        let verdict = match (self.verdict, tolerance) {
            (Verdict::Pass, _) => "pass".to_string(),
            (Verdict::Deviation, Deviation { reason, .. }) => format!("deviation: {reason}"),
            _ => "MISS".to_string(),
        };
        write!(
            f,
            "{artifact:<8} | {:<42} | {:>10} | {:>10} | {:<10} | {verdict}",
            key.to_string(),
            tolerance.show(paper),
            tolerance.show(self.ours),
            tolerance.to_string(),
        )
    }
}

/// Every row checked: what `repro-tables SCOPE fidelity` prints, and its
/// exit code.
pub struct Scorecard<'a>(pub Vec<Check<'a>>);

impl Scorecard<'_> {
    fn count(&self, verdict: Verdict) -> usize {
        self.0.iter().filter(|c| c.verdict == verdict).count()
    }

    /// [`cli::EXIT_FINDINGS`] when any row misses, else [`cli::EXIT_OK`].
    pub fn code(&self) -> u8 {
        cli::findings(self.count(Verdict::Miss) > 0)
    }
}

impl fmt::Display for Scorecard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "FIDELITY: the paper's numbers against this reproduction")?;
        writeln!(
            f,
            "artifact | {:<42} | {:>10} | {:>10} | tolerance  | verdict",
            "key", "paper", "ours"
        )?;
        for check in &self.0 {
            writeln!(f, "{check}")?;
        }
        writeln!(
            f,
            "{} rows: {} pass, {} deviation, {} MISS",
            self.0.len(),
            self.count(Verdict::Pass),
            self.count(Verdict::Deviation),
            self.count(Verdict::Miss)
        )
    }
}

/// The paper's value under `key`. Panics when no row has it: a caller
/// names only keys of the table.
pub fn value(key: Key) -> f64 {
    let row = ROWS.iter().find(|r| r.key == key);
    row.unwrap_or_else(|| panic!("no paper row for {key}"))
        .paper
}

/// The paper's range whose ends are `key(Min)` and `key(Max)`.
pub fn range(key: impl Fn(End) -> Key) -> SpeedupRange {
    SpeedupRange {
        lo: value(key(Min)),
        hi: value(key(Max)),
    }
}

const fn row_of(artifact: &'static str, key: Key, paper: f64, tolerance: Tolerance) -> Row {
    Row {
        artifact,
        key,
        paper,
        tolerance,
    }
}

const fn dev(bound: f64, reason: &'static str) -> Tolerance {
    Deviation { bound, reason }
}

const FLOOR: &str = "min high: every modelled setting keeps a library/placement win";
const CELL: &str = "the model is calibrated for shape, not for every cell";
const VIRTUAL: &str = "virtual seconds; the R0 / R1 row is the check";
const MEDIAN: &str = "follows the high Table V/VI minima";
const CG_SEED: &str = "seed-sensitive: 1.797 at seed 0, 1.543 at the spec seed";
const NO_ALIGN: &str = "no alignment is shared by cg/skylake's top configurations";
const TURNAROUND: &[&str] = &["turnaround"];

/// Every row, in artifact order. The paper prints p≈0 for most x86 pairs
/// of Table III: written 0.
#[rustfmt::skip]
pub const ROWS: &[Row] = &[
    row_of("table2", Apps(A64fx), 15.0, Exact),
    row_of("table2", Samples(A64fx), 53_822.0, Exact),
    row_of("table2", Apps(Milan), 13.0, Exact),
    row_of("table2", Samples(Milan), 99_707.0, Exact),
    row_of("table2", Apps(Skylake), 12.0, Exact),
    row_of("table2", Samples(Skylake), 90_230.0, Exact),
    row_of("table3", Consistency(A64fx, 0), 0.73, Significance),
    row_of("table3", Consistency(A64fx, 1), 0.86, Significance),
    row_of("table3", Consistency(A64fx, 2), 0.72, Significance),
    row_of("table3", Consistency(Skylake, 0), 0.19, Significance),
    row_of("table3", Consistency(Skylake, 1), 0.0, Significance),
    row_of("table3", Consistency(Skylake, 2), 0.0, Significance),
    row_of("table3", Consistency(Milan, 0), 3e-12, Significance),
    row_of("table3", Consistency(Milan, 1), 0.0, Significance),
    row_of("table3", Consistency(Milan, 2), 0.0, Significance),
    row_of("table4", RepMean(A64fx, 0), 0.131, dev(0.95, VIRTUAL)),
    row_of("table4", RepMean(A64fx, 1), 0.131, dev(0.95, VIRTUAL)),
    row_of("table4", RepMean(A64fx, 2), 0.131, dev(0.95, VIRTUAL)),
    row_of("table4", RepMean(Milan, 0), 0.135, dev(0.95, VIRTUAL)),
    row_of("table4", RepMean(Milan, 1), 0.109, dev(0.95, VIRTUAL)),
    row_of("table4", RepMean(Milan, 2), 0.111, dev(0.95, VIRTUAL)),
    row_of("table4", RepMean(Skylake, 0), 0.061, dev(0.95, VIRTUAL)),
    row_of("table4", RepMean(Skylake, 1), 0.062, dev(0.95, VIRTUAL)),
    row_of("table4", RepMean(Skylake, 2), 0.062, dev(0.95, VIRTUAL)),
    row_of("table4", FirstRepShift(A64fx), 1.0, Relative), // all three means 0.131
    row_of("table4", FirstRepShift(Milan), 0.135 / 0.109, Relative),
    row_of("table4", FirstRepShift(Skylake), 0.061 / 0.062, Relative),
    row_of("table5", AppArch("alignment", A64fx, Min), 1.032, Relative),
    row_of("table5", AppArch("alignment", A64fx, Max), 1.101, Relative),
    row_of("table5", AppArch("alignment", Milan, Min), 1.022, dev(0.10, FLOOR)),
    row_of("table5", AppArch("alignment", Milan, Max), 1.186, Relative),
    row_of("table5", AppArch("alignment", Skylake, Min), 1.065, dev(0.05, CELL)),
    row_of("table5", AppArch("alignment", Skylake, Max), 1.111, dev(0.05, CELL)),
    row_of("table5", AppArch("xsbench", A64fx, Min), 1.004, Relative),
    row_of("table5", AppArch("xsbench", A64fx, Max), 1.015, Relative),
    row_of("table5", AppArch("xsbench", Milan, Min), 1.016, Relative),
    row_of("table5", AppArch("xsbench", Milan, Max), 2.602, Relative),
    row_of("table5", AppArch("xsbench", Skylake, Min), 1.001, Relative),
    row_of("table5", AppArch("xsbench", Skylake, Max), 1.002, Relative),
    row_of("table6", App("alignment", Min), 1.022, Relative),
    row_of("table6", App("alignment", Max), 1.186, Relative),
    row_of("table6", App("bt", Min), 1.027, Relative),
    row_of("table6", App("bt", Max), 1.185, Relative),
    row_of("table6", App("cg", Min), 1.000, dev(0.10, FLOOR)),
    row_of("table6", App("cg", Max), 1.857, dev(0.20, CG_SEED)),
    row_of("table6", App("ep", Min), 1.000, Relative),
    row_of("table6", App("ep", Max), 1.090, Relative),
    row_of("table6", App("ft", Min), 1.010, Relative),
    row_of("table6", App("ft", Max), 1.545, Relative),
    row_of("table6", App("health", Min), 1.282, dev(0.25, FLOOR)),
    row_of("table6", App("health", Max), 2.218, dev(0.05, CELL)),
    row_of("table6", App("lu", Min), 1.020, dev(0.05, FLOOR)),
    row_of("table6", App("lu", Max), 1.121, Relative),
    row_of("table6", App("lulesh", Min), 1.004, dev(0.05, FLOOR)),
    row_of("table6", App("lulesh", Max), 1.062, dev(0.10, CELL)),
    row_of("table6", App("mg", Min), 1.011, dev(0.15, FLOOR)),
    row_of("table6", App("mg", Max), 2.167, Relative),
    row_of("table6", App("nqueens", Min), 2.342, dev(0.05, FLOOR)),
    row_of("table6", App("nqueens", Max), 4.851, Relative),
    row_of("table6", App("rsbench", Min), 1.004, Relative),
    row_of("table6", App("rsbench", Max), 1.213, Relative),
    row_of("table6", App("sort", Min), 1.174, Relative),
    row_of("table6", App("sort", Max), 1.180, Relative),
    row_of("table6", App("strassen", Min), 1.023, Relative),
    row_of("table6", App("strassen", Max), 1.025, Relative),
    row_of("table6", App("su3bench", Min), 1.002, dev(0.05, FLOOR)),
    row_of("table6", App("su3bench", Max), 2.279, dev(0.05, CELL)),
    row_of("table6", App("xsbench", Min), 1.001, Relative),
    row_of("table6", App("xsbench", Max), 2.602, Relative),
    row_of("table7", Recommends("nqueens", A64fx, Library, TURNAROUND), 1.0, Holds),
    row_of("table7", Recommends("nqueens", Skylake, Library, TURNAROUND), 1.0, Holds),
    row_of("table7", Recommends("nqueens", Milan, Library, TURNAROUND), 1.0, Holds),
    row_of("table7", Recommends("cg", Skylake, ForceReduction, &["tree", "atomic"]), 1.0, Holds),
    row_of("table7", Recommends("cg", Skylake, AlignAlloc, &[]), 1.0, dev(1.0, NO_ALIGN)),
    row_of("q1", Upshot(A64fx, Min), 1.0, Relative),
    row_of("q1", Upshot(A64fx, Max), 4.85, Relative),
    row_of("q1", Median(A64fx), 1.02, dev(0.05, MEDIAN)),
    row_of("q1", Upshot(Milan, Min), 1.011, Relative),
    row_of("q1", Upshot(Milan, Max), 2.6, Relative),
    row_of("q1", Median(Milan), 1.15, dev(0.05, MEDIAN)),
    row_of("q1", Upshot(Skylake, Min), 1.0, Relative),
    row_of("q1", Upshot(Skylake, Max), 3.47, Relative),
    row_of("q1", Median(Skylake), 1.065, Relative),
    // Holds by 0.002 at the spec seed: skylake 1.058 against a64fx 1.056.
    row_of("q1", MedianOrder, 1.0, Holds),
    row_of("q2", TransferBelow("xsbench", 0.95), 1.0, Holds),
    row_of("q4", MasterBindWorst(3.0), 1.0, Holds),
    row_of("fig2", LessArchReliant("nqueens", "xsbench"), 1.0, Holds),
    row_of("fig3", LeadersOutrank(A64fx), 1.0, Holds),
    row_of("fig3", LeadersOutrank(Skylake), 1.0, Holds),
    row_of("fig3", LeadersOutrank(Milan), 1.0, Holds),
    row_of("fig3", AlignAllocBelow(A64fx, 0.08), 1.0, Holds),
    row_of("fig3", AlignAllocBelow(Skylake, 0.08), 1.0, Holds),
    row_of("fig3", AlignAllocBelow(Milan, 0.08), 1.0, Holds),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_accepts_and_rejects_on_either_side_of_its_boundary() {
        use Verdict::{Miss, Pass};
        let cases = [
            (Exact, 15.0, 15.0, Pass),
            (Exact, 15.0, 14.0, Miss),
            (Relative, 2.0, 2.0 * 1.019, Pass),
            (Relative, 2.0, 2.0 * 0.979, Miss),
            (Relative, 1.0, f64::NAN, Miss),
            (Significance, 0.73, 0.051, Pass),
            (Significance, 0.73, 0.049, Miss),
            (Significance, 0.0, 0.049, Pass),
            (Significance, 0.0, 0.051, Miss),
            (Significance, 0.0, f64::NAN, Miss),
            (Holds, 1.0, 1.0, Pass),
            (Holds, 1.0, 0.0, Miss),
            (dev(0.20, ""), 1.857, 1.857 * 0.81, Verdict::Deviation),
            (dev(0.20, ""), 1.857, 1.857 * 0.79, Miss),
            (dev(0.20, ""), 1.0, f64::NAN, Miss),
            (dev(1.0, ""), 1.0, 0.0, Verdict::Deviation),
        ];
        for (tolerance, paper, ours, want) in cases {
            let got = tolerance.judge(paper, ours);
            assert_eq!(got, want, "{tolerance} paper {paper} ours {ours}");
        }
    }

    #[test]
    fn a_key_names_one_row_and_ranges_read_both_ends() {
        for (i, a) in ROWS.iter().enumerate() {
            for b in &ROWS[i + 1..] {
                assert_ne!(a.key, b.key, "{} twice", a.key);
            }
        }
        assert_eq!(range(|e| App("nqueens", e)).to_string(), "2.342 - 4.851");
        assert_eq!(value(Samples(Milan)), 99_707.0);
    }
}
