//! # bench-harness — reproduction of every table and figure
//!
//! One generator per table/figure of the paper, all driven by the same
//! sweep dataset. The `repro-tables` and `repro-figures` binaries print
//! them; the benches in `benches/` measure the substrates and the
//! ablations called out in DESIGN.md. Every bench times its passes with
//! [`Series`] and publishes one flat [`BenchDoc`] — scalars plus a
//! `<key>_reps` array per timed series — that `bench-diff` gates and the
//! `.ompobs/` registry records.

pub mod repro;

pub use repro::{ReproScope, Reproduction};

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Whether this bench process is a full run: `cargo bench` passes
/// `--bench` to a `harness = false` target, `cargo test --bench NAME`
/// passes nothing. Anything else (and `cargo bench -- --test`) runs the
/// smoke slice, and [`BenchDoc::publish`] writes nothing.
pub fn full_run() -> bool {
    full_run_of(std::env::args())
}

/// [`full_run`]'s rule over an argv.
fn full_run_of(args: impl IntoIterator<Item = impl AsRef<str>>) -> bool {
    let (mut bench, mut test) = (false, false);
    for arg in args {
        bench |= arg.as_ref() == "--bench";
        test |= arg.as_ref() == "--test";
    }
    bench && !test
}

/// The repetitions of one timed workload, in run order. A bench claims
/// nothing from a single timing: every pass lands here and is published.
#[derive(Debug, Clone, Default)]
pub struct Series {
    reps: Vec<f64>,
}

impl Series {
    /// `passes` timed passes of `pass`.
    pub fn of(passes: usize, mut pass: impl FnMut()) -> Series {
        let mut series = Series::default();
        for _ in 0..passes {
            series.time(&mut pass);
        }
        series
    }

    /// `passes` passes of a workload too short to clock one call of:
    /// each pass repeats `iteration` often enough to fill `pass_budget_s`
    /// (sized once, from the best of three warm-up calls) and records its
    /// seconds per iteration.
    pub fn per_iteration(passes: usize, pass_budget_s: f64, mut iteration: impl FnMut()) -> Series {
        let one = Series::of(3, &mut iteration).best();
        let iterations = (pass_budget_s / one).clamp(1.0, 1e6) as usize;
        let pass = || (0..iterations).for_each(|_| iteration());
        Series::of(passes, pass).scaled(1.0 / iterations as f64)
    }

    /// One more pass: clock `pass` and hand back what it returned.
    /// Interleaved and retried measurements call this on two series in
    /// turn, so both sides of a ratio see the same machine weather.
    pub fn time<T>(&mut self, pass: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = pass();
        self.record(t0.elapsed().as_secs_f64());
        out
    }

    /// One more repetition that was clocked inside a pass.
    pub fn record(&mut self, value: f64) {
        self.reps.push(value);
    }

    /// The fastest repetition: the estimate least touched by other load.
    pub fn best(&self) -> f64 {
        self.reps.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The upper median: robust where a pass is too short for `best` to
    /// be more than the luckiest scheduler slot.
    pub fn median(&self) -> f64 {
        let mut sorted = self.reps.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    }

    /// The same repetitions in another unit (seconds → ns per item).
    pub fn scaled(&self, factor: f64) -> Series {
        Series {
            reps: self.reps.iter().map(|t| t * factor).collect(),
        }
    }
}

/// The flat `BENCH_*.json` document: identifying text, counts, series
/// and ratios in the order given, then one `<key>_reps` array per series.
/// `bench-diff` gates a series (lower is better) and reports every other
/// scalar as information.
pub struct BenchDoc {
    bench: &'static str,
    scalars: String,
    reps: String,
}

impl BenchDoc {
    pub fn new(bench: &'static str) -> BenchDoc {
        let mut doc = BenchDoc {
            bench,
            scalars: String::new(),
            reps: String::new(),
        };
        doc.text("bench", bench);
        doc
    }

    fn scalar(&mut self, key: &str, value: std::fmt::Arguments) -> &mut Self {
        let sep = if self.scalars.is_empty() { "" } else { ",\n" };
        write!(self.scalars, "{sep}  \"{key}\": {value}").expect("write to a String");
        self
    }

    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        let quoted = serde_json::to_string(value).expect("a string serializes");
        self.scalar(key, format_args!("{quoted}"))
    }

    pub fn count(&mut self, key: &str, value: u64) -> &mut Self {
        self.scalar(key, format_args!("{value}"))
    }

    pub fn ratio(&mut self, key: &str, value: f64) -> &mut Self {
        self.scalar(key, format_args!("{value:.3}"))
    }

    /// A timed series: `key` is the statistic the bench reports
    /// (`series.best()` or `series.median()`), `<key>_reps` every
    /// repetition, which `bench-diff` puts to the Wilcoxon test.
    pub fn series(&mut self, key: &str, value: f64, series: &Series) -> &mut Self {
        let inner: Vec<String> = series.reps.iter().map(|&t| fixed(t)).collect();
        write!(self.reps, ",\n  \"{key}_reps\": [{}]", inner.join(", "))
            .expect("write to a String");
        self.scalar(key, format_args!("{}", fixed(value)))
    }

    pub fn to_json(&self) -> String {
        format!("{{\n{}{}\n}}\n", self.scalars, self.reps)
    }

    /// Publish a full run's results through [`publish_bench`]; a smoke
    /// run (see [`full_run`]) leaves no artifact.
    pub fn publish(&self, file: &str) {
        if full_run() {
            publish_bench(self.bench, file, &self.to_json());
        }
    }
}

/// A timing as positional text: nine decimals, and more below a
/// millisecond, so a per-unit cost of nanoseconds keeps six significant
/// digits.
fn fixed(t: f64) -> String {
    let decimals = (5.0 - t.log10().floor()).clamp(9.0, 17.0) as usize;
    format!("{t:.decimals$}")
}

/// Publish one bench's results: write `json` to `BENCH_OUT` (default:
/// `file` at the repo root, the committed baseline) and append it to the
/// longitudinal run registry (`OMPOBS_DIR`, default `.ompobs/` at the
/// repo root). The registry is best-effort: a missing or locked one
/// never fails the bench.
pub fn publish_bench(bench: &str, file: &str, json: &str) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = std::env::var_os("BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join(file));
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("  wrote {}", path.display());
    let dir = sweep::registry::env_registry_dir().unwrap_or_else(|| root.join(".ompobs"));
    match sweep::record_bench(&dir, bench, json) {
        Ok(rec) => println!("  registered run #{} in {}", rec.seq, dir.display()),
        Err(e) => eprintln!("  registry {} unavailable: {e}", dir.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cargo bench` passes `--bench`; `cargo test --bench NAME` passes
    /// nothing, and `cargo bench -- --test` asks for the smoke slice.
    #[test]
    fn only_cargo_bench_is_a_full_run() {
        assert!(full_run_of(["x", "--bench"]));
        assert!(!full_run_of(["x"]));
        assert!(!full_run_of(["x", "--test"]));
        assert!(!full_run_of(["x", "--bench", "--test"]));
    }

    #[test]
    fn document_round_trips_through_the_registry_parser() {
        let mut warm = Series::default();
        for t in [0.003, 0.001, 0.002] {
            warm.record(t);
        }
        assert_eq!((warm.best(), warm.median()), (0.001, 0.002));
        let mut doc = BenchDoc::new("demo");
        doc.text("scope", "Strided(\"7\")")
            .count("samples", 9090)
            .series("warm_s", warm.best(), &warm)
            .series("span_s", 4.52e-8, &warm.scaled(1e-5))
            .ratio("warm_speedup", 26.7512);
        let json = doc.to_json();
        assert!(json.starts_with("{\n  \"bench\": \"demo\",\n  \"scope\": "));
        assert!(json.contains("\n  \"warm_s_reps\": [0.003000000, 0.001000000, 0.002000000],\n"));
        assert!(json.contains("\n  \"span_s\": 0.0000000452000,\n"));
        assert!(json.ends_with(
            "\n  \"span_s_reps\": [0.0000000300000, 0.0000000100000, 0.0000000200000]\n}\n"
        ));
        let core = sweep::BenchCore::from_bench_json("demo", &json).expect("parses");
        assert_eq!(core.scalar("samples"), Some(9090.0));
        assert_eq!(core.scalar("warm_s"), Some(0.001));
        assert_eq!(core.scalar("warm_speedup"), Some(26.751));
        assert_eq!(core.reps_of("warm_s"), Some(vec![0.003, 0.001, 0.002]));
        assert_eq!(core.scalar("span_s"), Some(4.52e-8));
    }
}
