//! Sweep-wide cost attribution: fold every sample's sink breakdown —
//! and its modeled energy — into per-(variable, value) marginal-cost
//! cells, so each tuning value carries both a mean-time and a
//! mean-joules column.
//!
//! The accumulator is *exact*: every nanosecond figure is rounded once
//! into 2^16 fixed point and summed in `i128`, so accumulation is
//! associative and commutative — folding per-worker shards and merging
//! them is byte-identical to folding the whole sweep in one pass, at any
//! shard boundary. That is the property the `merge_props` suite pins
//! down and the property that lets profiles from separate collection
//! runs be combined without re-reading raw samples.
//!
//! The sum-to-total invariant of [`omptel::Breakdown`] survives folding:
//! each cell's seven sink sums add up to its total (all are sums of
//! per-sample figures that already closed against their totals, rounded
//! with the same rule).

use omptune_core::{ConfigSpace, Variable};
use sweep::{RawSample, SettingData};

/// Fixed-point scale: 2^16 fractional bits. A sample's f64 nanosecond
/// figure is rounded once on entry; sums are exact from then on.
pub const FP_SCALE: f64 = 65536.0;

/// Round one nanosecond figure into fixed point. Non-finite figures
/// (failed reps never produce them in telemetry, but be total) fold as
/// zero so a corrupt sample cannot poison a whole profile.
fn to_fp(ns: f64) -> i128 {
    if ns.is_finite() {
        (ns * FP_SCALE).round() as i128
    } else {
        0
    }
}

/// Fixed point back to (approximate) nanoseconds for presentation.
fn from_fp(fp: i128) -> f64 {
    fp as f64 / FP_SCALE
}

/// One (variable, value) accumulator: exact integer state only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cell {
    /// Samples folded into this cell.
    pub samples: u64,
    /// Failure-injected (NaN) repetitions among those samples.
    pub failed_reps: u64,
    /// Sum of sample virtual totals, 2^16 fixed point.
    pub total_fp: i128,
    /// Per-sink sums in [`omptel::Sink::ALL`] order, 2^16 fixed point.
    pub sinks_fp: [i128; 7],
    /// Sum of sample modeled energy, microjoules in 2^16 fixed point
    /// (µJ rather than J so the fixed point keeps sub-µJ resolution).
    pub energy_ufp: i128,
    /// Sum of sample energy-delay products, microjoule-seconds in
    /// 2^16 fixed point.
    pub edp_ufp: i128,
}

impl Cell {
    /// One sample as a cell: its ten figures rounded into fixed point
    /// once, to be merged into every cell the sample is charged to.
    fn of(sample: &RawSample) -> Cell {
        let t = &sample.telemetry;
        let mut sinks_fp = [0; 7];
        for (slot, sink) in sinks_fp.iter_mut().zip(omptel::Sink::ALL) {
            *slot = to_fp(t.breakdown.get(sink));
        }
        Cell {
            samples: 1,
            failed_reps: sample.runtimes.iter().filter(|t| !t.is_finite()).count() as u64,
            total_fp: to_fp(t.virtual_ns),
            sinks_fp,
            energy_ufp: to_fp(t.energy.total_j * 1e6),
            edp_ufp: to_fp(t.energy.edp_js(t.virtual_ns) * 1e6),
        }
    }

    fn merge(&mut self, other: &Cell) {
        self.samples += other.samples;
        self.failed_reps += other.failed_reps;
        self.total_fp += other.total_fp;
        for (slot, v) in self.sinks_fp.iter_mut().zip(other.sinks_fp) {
            *slot += v;
        }
        self.energy_ufp += other.energy_ufp;
        self.edp_ufp += other.edp_ufp;
    }

    /// Mean virtual total per sample in nanoseconds (0 when empty).
    pub fn mean_total_ns(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            from_fp(self.total_fp) / self.samples as f64
        }
    }

    /// Mean modeled energy per sample in joules (0 when empty).
    pub fn mean_energy_j(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            from_fp(self.energy_ufp) / 1e6 / self.samples as f64
        }
    }
}

/// A marginal-cost profile over a sweep slice: one cell per
/// (variable, value) plus a grand-total cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    /// `cells[variable as usize][slot]`, one cell per slot of the
    /// variable's union domain.
    pub cells: Vec<Vec<Cell>>,
    /// Every folded sample once.
    pub grand: Cell,
}

impl Default for Attribution {
    fn default() -> Self {
        Attribution::new()
    }
}

impl Attribution {
    pub fn new() -> Attribution {
        Attribution {
            cells: Variable::ALL
                .iter()
                .map(|v| vec![Cell::default(); v.union_len()])
                .collect(),
            grand: Cell::default(),
        }
    }

    /// Fold one sample: its total and sinks are charged to the cell of
    /// each variable's value in the sample's configuration. A value
    /// without a slot (a foreign alignment, which [`foreign_sample`]
    /// rejects in loaded data) is charged to the grand total only.
    pub fn fold_sample(&mut self, sample: &RawSample) {
        let one = Cell::of(sample);
        self.grand.merge(&one);
        for var in Variable::ALL {
            if let Some(slot) = var.slot(&sample.config) {
                self.cells[var as usize][slot].merge(&one);
            }
        }
    }

    /// Fold every sampled configuration of a batch (the default rows
    /// carry no configuration axis and are not part of the profile).
    pub fn fold_batch(&mut self, batch: &SettingData) {
        for sample in &batch.samples {
            self.fold_sample(sample);
        }
    }

    /// Fold a whole slice.
    pub fn fold_slice(&mut self, batches: &[SettingData]) {
        for b in batches {
            self.fold_batch(b);
        }
    }

    /// Exact merge: integer addition cell by cell. `merge(a, b)` equals
    /// folding the concatenated slices in either order.
    pub fn merge(&mut self, other: &Attribution) {
        self.grand.merge(&other.grand);
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.merge(t);
            }
        }
    }

    /// Samples folded so far.
    pub fn samples(&self) -> u64 {
        self.grand.samples
    }

    /// Marginal spread per variable: the gap in mean virtual total
    /// between its cheapest and most expensive value (populated cells
    /// only). The variable whose setting moves mean cost the most ranks
    /// first — the attribution counterpart of logistic-influence.
    pub fn spread_ns(&self, var_index: usize) -> f64 {
        let populated: Vec<f64> = self.cells[var_index]
            .iter()
            .filter(|c| c.samples > 0)
            .map(Cell::mean_total_ns)
            .collect();
        if populated.len() < 2 {
            return 0.0;
        }
        let max = populated.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = populated.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    }

    /// Marginal energy spread per variable: the gap in mean modeled
    /// joules between its cheapest and most expensive value. The energy
    /// counterpart of [`spread_ns`](Attribution::spread_ns) — the two
    /// rankings disagree exactly where time- and energy-tuning pull in
    /// different directions.
    pub fn spread_energy_j(&self, var_index: usize) -> f64 {
        let populated: Vec<f64> = self.cells[var_index]
            .iter()
            .filter(|c| c.samples > 0)
            .map(Cell::mean_energy_j)
            .collect();
        if populated.len() < 2 {
            return 0.0;
        }
        let max = populated.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = populated.iter().copied().fold(f64::INFINITY, f64::min);
        max - min
    }

    /// Variables ranked by [`spread_ns`](Attribution::spread_ns),
    /// descending; ties keep [`Variable::ALL`] order.
    pub fn ranked_variables(&self) -> Vec<(Variable, f64)> {
        let mut ranked: Vec<(Variable, f64)> = Variable::ALL
            .iter()
            .map(|v| (*v, self.spread_ns(*v as usize)))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked
    }

    /// Variables ranked by
    /// [`spread_energy_j`](Attribution::spread_energy_j), descending;
    /// ties keep [`Variable::ALL`] order.
    pub fn ranked_variables_energy(&self) -> Vec<(Variable, f64)> {
        let mut ranked: Vec<(Variable, f64)> = Variable::ALL
            .iter()
            .map(|v| (*v, self.spread_energy_j(*v as usize)))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked
    }

    /// The top-ranked variable (`None` on an empty profile).
    pub fn top_variable(&self) -> Option<Variable> {
        if self.samples() == 0 {
            return None;
        }
        self.ranked_variables().first().map(|(f, _)| *f)
    }

    /// Render the profile as deterministic JSON. Integer sums are
    /// decimal strings (exact — `i128` exceeds JSON number range);
    /// derived means/spreads are fixed-precision decimals computed from
    /// the integer state, so equal states render byte-identically.
    pub fn to_json(&self, meta: &SliceMeta) -> String {
        let mut out = String::with_capacity(8192);
        out.push_str("{\n  \"schema\": \"ompprof-attribution-v2\",\n");
        out.push_str(&format!(
            "  \"slice\": {{\"arch\": \"{}\", \"app\": \"{}\", \"scope\": \"{}\", \"seed\": {}, \"fingerprint\": \"{:016x}\"}},\n",
            json_escape(&meta.arch),
            json_escape(&meta.app),
            json_escape(&meta.scope),
            meta.seed,
            meta.fingerprint
        ));
        out.push_str(&format!("  \"fixed_point_scale\": {},\n", FP_SCALE as u64));
        out.push_str(&format!(
            "  \"samples\": {},\n  \"failed_reps\": {},\n",
            self.grand.samples, self.grand.failed_reps
        ));
        out.push_str(&format!("  \"grand\": {},\n", cell_json(&self.grand)));
        out.push_str("  \"variables\": [\n");
        for (vi, var) in Variable::ALL.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"spread_ns\": {}, \"spread_j\": {}, \"values\": [\n",
                var.env_name(),
                fmt_ns(self.spread_ns(vi)),
                fmt_j(self.spread_energy_j(vi))
            ));
            for (ci, cell) in self.cells[vi].iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"label\": \"{}\", \"cell\": {}}}{}\n",
                    json_escape(var.label(ci)),
                    cell_json(cell),
                    if ci + 1 < self.cells[vi].len() {
                        ","
                    } else {
                        ""
                    }
                ));
            }
            out.push_str(&format!(
                "    ]}}{}\n",
                if vi + 1 < Variable::ALL.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ],\n  \"ranking\": [\n");
        let ranked = self.ranked_variables();
        for (i, (f, spread)) in ranked.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"spread_ns\": {}}}{}\n",
                f.env_name(),
                fmt_ns(*spread),
                if i + 1 < ranked.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"energy_ranking\": [\n");
        let ranked_e = self.ranked_variables_energy();
        for (i, (f, spread)) in ranked_e.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"spread_j\": {}}}{}\n",
                f.env_name(),
                fmt_j(*spread),
                if i + 1 < ranked_e.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The first sample of `batches` whose configuration is not a point of
/// its batch's space, named by batch and `config_index`. Loaded data is
/// outside input (`KmpAlignAlloc` deserialises any `u32`), and a profile
/// has no cell for such a value.
pub fn foreign_sample(batches: &[SettingData]) -> Option<String> {
    batches.iter().find_map(|batch| {
        // Not `ConfigSpace::new`: a loaded thread count may be anything.
        let (arch, num_threads) = (batch.key.arch, batch.key.num_threads);
        let space = ConfigSpace { arch, num_threads };
        let mut samples = batch.samples.iter();
        let sample = samples.find(|s| space.index_of(&s.config).is_none())?;
        Some(format!(
            "batch {}/{} sample config_index {}: {} is not a configuration of its space",
            arch.id(),
            batch.key.stem(),
            sample.config_index,
            sample.config.describe()
        ))
    })
}

/// Identity of the slice a profile was folded from, stamped into the
/// JSON so a profile can be matched to its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceMeta {
    pub arch: String,
    pub app: String,
    pub scope: String,
    pub seed: u64,
    /// [`sweep::slice_fingerprint`] of the folded batches.
    pub fingerprint: u64,
}

/// Deterministic fixed-precision nanosecond figure (3 decimals).
fn fmt_ns(ns: f64) -> String {
    format!("{ns:.3}")
}

/// Deterministic fixed-precision joule figure (9 decimals = nJ).
fn fmt_j(j: f64) -> String {
    format!("{j:.9}")
}

fn cell_json(cell: &Cell) -> String {
    let mut sinks = String::new();
    for (i, sink) in omptel::Sink::ALL.iter().enumerate() {
        if i > 0 {
            sinks.push_str(", ");
        }
        sinks.push_str(&format!(
            "\"{}\": \"{}\"",
            sink_key(*sink),
            cell.sinks_fp[i]
        ));
    }
    format!(
        "{{\"samples\": {}, \"failed_reps\": {}, \"total_fp\": \"{}\", \"mean_ns\": {}, \
         \"energy_ufp\": \"{}\", \"edp_ufp\": \"{}\", \"mean_j\": {}, \"sinks_fp\": {{{}}}}}",
        cell.samples,
        cell.failed_reps,
        cell.total_fp,
        fmt_ns(cell.mean_total_ns()),
        cell.energy_ufp,
        cell.edp_ufp,
        fmt_j(cell.mean_energy_j()),
        sinks
    )
}

/// Short stable JSON key per sink.
pub fn sink_key(sink: omptel::Sink) -> &'static str {
    match sink {
        omptel::Sink::Compute => "compute",
        omptel::Sink::Memory => "memory",
        omptel::Sink::Sync => "sync",
        omptel::Sink::Wake => "wake",
        omptel::Sink::Dispatch => "dispatch",
        omptel::Sink::Serial => "serial",
        omptel::Sink::Imbalance => "imbalance",
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omptune_core::Arch;
    use sweep::{Scope, SweepSpec};
    use workloads::Setting;

    fn slice() -> Vec<SettingData> {
        let spec = SweepSpec {
            scope: Scope::Strided(700),
            reps: 2,
            seed: 29,
            failure_rate: 0.08,
        };
        let app = workloads::app("cg").unwrap();
        let setting = Setting {
            input_code: 0,
            num_threads: 96,
        };
        vec![sweep::sweep_setting(Arch::Milan, app, setting, 0, &spec)]
    }

    /// The fold `fold_sample` retired: every cell rounds the sample's
    /// ten figures into fixed point again.
    fn retired_fold(cell: &mut Cell, sample: &RawSample) {
        cell.samples += 1;
        cell.failed_reps += sample.runtimes.iter().filter(|t| !t.is_finite()).count() as u64;
        cell.total_fp += to_fp(sample.telemetry.virtual_ns);
        for (slot, sink) in cell.sinks_fp.iter_mut().zip(omptel::Sink::ALL) {
            *slot += to_fp(sample.telemetry.breakdown.get(sink));
        }
        let e = &sample.telemetry.energy;
        cell.energy_ufp += to_fp(e.total_j * 1e6);
        cell.edp_ufp += to_fp(e.edp_js(sample.telemetry.virtual_ns) * 1e6);
    }

    /// Converting a sample once and merging it into its eight cells is
    /// the retired eight-fold rounding, cell for cell — failed
    /// repetitions, a foreign value's missing slot and non-finite
    /// figures included.
    #[test]
    fn one_conversion_per_sample_folds_like_eight() {
        let mut batches = slice();
        batches[0].samples[3].config.align_alloc = omptune_core::KmpAlignAlloc(1024);
        batches[0].samples[5].telemetry.virtual_ns = f64::NAN;
        batches[0].samples[6].telemetry.energy.total_j = f64::INFINITY;
        let mut retired = Attribution::new();
        for sample in &batches[0].samples {
            retired_fold(&mut retired.grand, sample);
            for var in Variable::ALL {
                if let Some(slot) = var.slot(&sample.config) {
                    retired_fold(&mut retired.cells[var as usize][slot], sample);
                }
            }
        }
        let mut folded = Attribution::new();
        folded.fold_slice(&batches);
        assert!(retired.grand.failed_reps > 0);
        assert_eq!(folded, retired);
    }

    #[test]
    fn sinks_sum_to_total_in_every_cell() {
        let batches = slice();
        let mut a = Attribution::new();
        a.fold_slice(&batches);
        assert!(a.samples() > 0);
        let check = |c: &Cell| {
            let sum: i128 = c.sinks_fp.iter().sum();
            // Each addend was rounded independently, so allow one
            // half-ULP of fixed point per sink per sample.
            let slack = (7 * c.samples) as i128;
            assert!(
                (sum - c.total_fp).abs() <= slack,
                "sinks {sum} vs total {} over {} samples",
                c.total_fp,
                c.samples
            );
        };
        check(&a.grand);
        for var in &a.cells {
            for cell in var {
                check(cell);
            }
        }
    }

    #[test]
    fn every_variable_partitions_the_samples() {
        let batches = slice();
        let mut a = Attribution::new();
        a.fold_slice(&batches);
        for (vi, cells) in a.cells.iter().enumerate() {
            let n: u64 = cells.iter().map(|c| c.samples).sum();
            assert_eq!(n, a.grand.samples, "variable {vi} lost samples");
            let total: i128 = cells.iter().map(|c| c.total_fp).sum();
            assert_eq!(total, a.grand.total_fp, "variable {vi} lost time");
        }
    }

    #[test]
    fn energy_partitions_exactly_like_time() {
        let batches = slice();
        let mut a = Attribution::new();
        a.fold_slice(&batches);
        assert!(a.grand.energy_ufp > 0, "slice must carry modeled energy");
        assert!(a.grand.edp_ufp > 0);
        for (vi, cells) in a.cells.iter().enumerate() {
            let e: i128 = cells.iter().map(|c| c.energy_ufp).sum();
            assert_eq!(e, a.grand.energy_ufp, "variable {vi} lost energy");
            let d: i128 = cells.iter().map(|c| c.edp_ufp).sum();
            assert_eq!(d, a.grand.edp_ufp, "variable {vi} lost EDP");
        }
        // The energy ranking is complete and deterministic, like the
        // time ranking.
        let r = a.ranked_variables_energy();
        assert_eq!(r.len(), Variable::ALL.len());
        assert!(r[0].1 >= r[r.len() - 1].1);
        assert!(r[0].1 > 0.0, "some variable must move modeled energy");
    }

    #[test]
    fn merge_equals_whole_fold_bytewise() {
        let batches = slice();
        let mut whole = Attribution::new();
        whole.fold_slice(&batches);
        // Shard at every sample boundary of the first batch.
        let samples = &batches[0].samples;
        for split in [1, samples.len() / 3, samples.len() / 2, samples.len() - 1] {
            let mut left = Attribution::new();
            let mut right = Attribution::new();
            for s in &samples[..split] {
                left.fold_sample(s);
            }
            for s in &samples[split..] {
                right.fold_sample(s);
            }
            left.merge(&right);
            assert_eq!(left, whole, "split at {split} diverged");
            let meta = SliceMeta {
                arch: "milan".into(),
                app: "cg".into(),
                scope: "test".into(),
                seed: 29,
                fingerprint: sweep::slice_fingerprint(&batches),
            };
            assert_eq!(left.to_json(&meta), whole.to_json(&meta));
        }
    }

    #[test]
    fn a_foreign_alignment_is_named_and_never_reaches_a_cell() {
        let mut batches = slice();
        assert_eq!(foreign_sample(&batches), None);
        batches[0].samples[3].config.align_alloc = omptune_core::KmpAlignAlloc(1024);
        let named = foreign_sample(&batches).expect("1024 B is in no architecture's domain");
        let index = batches[0].samples[3].config_index;
        let sample = format!("batch milan/cg-i0-t96 sample config_index {index}: ");
        assert!(
            named.starts_with(&sample) && named.contains("align=1024"),
            "{named}"
        );
        // Folded anyway, it is charged to the grand total and to no cell.
        let mut a = Attribution::new();
        a.fold_slice(&batches);
        let aligned = a.cells[Variable::AlignAlloc as usize].iter();
        assert_eq!(aligned.map(|c| c.samples).sum::<u64>() + 1, a.grand.samples);
    }

    #[test]
    fn failed_reps_are_counted_not_folded() {
        let batches = slice();
        let mut a = Attribution::new();
        a.fold_slice(&batches);
        let nan_reps: u64 = batches[0]
            .samples
            .iter()
            .flat_map(|s| &s.runtimes)
            .filter(|t| !t.is_finite())
            .count() as u64;
        assert!(nan_reps > 0, "fixture must inject failures");
        assert_eq!(a.grand.failed_reps, nan_reps);
        // Totals stay finite (integers) regardless.
        assert!(a.grand.total_fp > 0);
    }

    #[test]
    fn ranking_is_deterministic_and_complete() {
        let batches = slice();
        let mut a = Attribution::new();
        a.fold_slice(&batches);
        let r1 = a.ranked_variables();
        let r2 = a.ranked_variables();
        assert_eq!(r1, r2);
        assert_eq!(r1.len(), Variable::ALL.len());
        assert!(r1[0].1 >= r1[r1.len() - 1].1);
        assert!(a.top_variable().is_some());
    }

    #[test]
    fn empty_profile_is_well_formed() {
        let a = Attribution::new();
        assert_eq!(a.samples(), 0);
        assert_eq!(a.top_variable(), None);
        let meta = SliceMeta {
            arch: "milan".into(),
            app: "none".into(),
            scope: "empty".into(),
            seed: 0,
            fingerprint: 0,
        };
        let doc = a.to_json(&meta);
        assert!(doc.contains("\"samples\": 0"));
        // The markers readers of profile.json key on.
        assert!(doc.contains("\"schema\": \"ompprof-attribution-v2\""));
        assert!(doc.contains("\"energy_ranking\""));
    }
}
