//! The time-series a collection run leaves in its `tsdb/`: their names,
//! which of them gate a comparison, and the two writers.
//!
//! A run's samples are stratified by `config_index % STRATA`; per
//! architecture and stratum it records one series of virtual time and
//! one of modeled energy, a point per sample. Both are deterministic
//! given the seed, so two same-seed runs must agree on them exactly —
//! which is what lets `ompobs` gate on them. The registry's
//! [`ArchDigest`](crate::ArchDigest) folds the same strata under the
//! same names. Everything else a run records — [`append_arch_series`]'s
//! per-arch energy totals, wall latency, scheduler rates and influence
//! snapshots — varies with the machine or the schedule, or only repeats
//! the gating series, and is informational.

use crate::provenance::ArchManifest;
use crate::registry::STRATA;
use crate::runner::SettingData;
use omptel::{Point, Tsdb};
use omptune_core::LiveInfluence;
use std::io;

/// The objectives recorded per stratum, as they appear in series names.
pub const OBJECTIVES: [&str; 2] = ["virt", "energy"];

/// Series family of each objective's streaming influence snapshots,
/// indexed like [`OBJECTIVES`].
const INFLUENCE_FAMILIES: [&str; 2] = ["influence", "influence-energy"];

/// Name of `arch`'s stratum-`k` series of one of the [`OBJECTIVES`].
pub fn stratum_series(arch: &str, objective: &str, k: usize) -> String {
    format!("{arch}/{objective}/s{k}")
}

/// Whether a series may decide a comparison's verdict: exactly the
/// names [`stratum_series`] builds, `{arch}/virt/s{k}` and
/// `{arch}/energy/s{k}`.
pub fn is_gating(series: &str) -> bool {
    let mut parts = series.split('/');
    let (Some(arch), Some(objective), Some(stratum), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return false;
    };
    let k = stratum.strip_prefix('s').unwrap_or("");
    !arch.is_empty()
        && OBJECTIVES.contains(&objective)
        && !k.is_empty()
        && k.bytes().all(|b| b.is_ascii_digit())
}

/// Append one architecture's cleaned samples to its stratum series:
/// per sample with a finite repetition, one virtual-time point (count
/// and sum of the finite repetitions) and — when the sample has modeled
/// joules — one energy point at the same stratum sequence number, so
/// the two objectives pair up position for position. Returns the points
/// appended; the caller flushes.
pub fn append_stratum_series(
    tsdb: &mut Tsdb,
    arch: &str,
    batches: &[SettingData],
) -> io::Result<u64> {
    let names = |objective| -> [String; STRATA] {
        std::array::from_fn(|k| stratum_series(arch, objective, k))
    };
    let (virt, energy) = (names("virt"), names("energy"));
    let mut stratum_seq = [0u64; STRATA];
    let mut points = 0u64;
    for sample in batches.iter().flat_map(|data| &data.samples) {
        let finite = || sample.runtimes.iter().filter(|t| t.is_finite());
        let count = finite().count() as u64;
        if count == 0 {
            continue;
        }
        let k = sample.config_index % STRATA;
        let ts = stratum_seq[k];
        stratum_seq[k] += 1;
        let sum = finite().sum();
        tsdb.append(&virt[k], Point { ts, count, sum })?;
        points += 1;
        let joules = sample.telemetry.energy.total_j;
        if joules.is_finite() && joules > 0.0 {
            tsdb.append(&energy[k], Point::single(ts, joules))?;
            points += 1;
        }
    }
    Ok(points)
}

/// Append one finished architecture's informational points, one per
/// series, each a `(count, sum)` bucket whose mean is the figure:
/// `{arch}/energy/joules` and `{arch}/energy/edp_js` (the two `energy`
/// totals over `arch.samples` cleaned samples), `{arch}/wall/sample_ns`
/// (`latency_sum_ns` over the latency histogram's count),
/// `{arch}/rate/cache_hit` (hits over `lookups = (hits, misses)` — this
/// architecture's own lookups, not `arch.stats`' pair, which is
/// cumulative over the run's cache handle), `{arch}/rate/steal` (steals
/// over units) and, per variable, `{arch}/influence/{var}` and
/// `{arch}/influence-energy/{var}` — the `influence` pair, indexed like
/// [`OBJECTIVES`], as it stands after this architecture; batch
/// completion order is scheduling-dependent, so the snapshots chart how
/// the ranking firmed up rather than gate. A series with nothing behind
/// it (no joules, no meter, no cache, no observed sample) gets no point.
/// Returns the points appended; the caller flushes.
pub fn append_arch_series(
    tsdb: &mut Tsdb,
    arch: &ArchManifest,
    lookups: (u64, u64),
    latency_sum_ns: u64,
    energy: (f64, f64),
    influence: &[LiveInfluence; 2],
) -> io::Result<u64> {
    let mut points = 0u64;
    let mut put = |series: String, count: u64, sum: f64| -> io::Result<()> {
        if count > 0 {
            tsdb.append(&series, Point { ts: 0, count, sum })?;
            points += 1;
        }
        Ok(())
    };
    let id = &arch.arch;
    let (joules, edp_js) = energy;
    if joules > 0.0 {
        put(format!("{id}/energy/joules"), arch.samples as u64, joules)?;
        put(format!("{id}/energy/edp_js"), arch.samples as u64, edp_js)?;
    }
    let sampled = arch.sample_latency.count;
    put(
        format!("{id}/wall/sample_ns"),
        sampled,
        latency_sum_ns as f64,
    )?;
    let (hits, misses) = lookups;
    put(format!("{id}/rate/cache_hit"), hits + misses, hits as f64)?;
    let stats = &arch.stats;
    put(format!("{id}/rate/steal"), stats.units, stats.steals as f64)?;
    for (family, live) in INFLUENCE_FAMILIES.iter().zip(influence) {
        for (var, value) in live.influence() {
            let slug = var.env_name().to_lowercase();
            put(format!("{id}/{family}/{slug}"), live.samples(), value)?;
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunManifest, Scope, SweepOptions, SweepSpec, SweepStats};
    use omptune_core::Arch;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sweep-series-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn the_gate_accepts_what_the_stratum_writer_wrote_and_nothing_of_the_arch_writer() {
        // An odd stride spreads the samples over several strata.
        let spec = SweepSpec {
            scope: Scope::Strided(1001),
            ..SweepSpec::default()
        };
        let mut batches =
            crate::sweep_arch_scheduled(Arch::Skylake, &spec, &SweepOptions::new(2)).batches;
        for data in &mut batches {
            crate::clean(data, spec.reps as usize);
        }
        let samples: usize = batches.iter().map(|b| b.samples.len()).sum();
        let dir = scratch("gate");
        let mut tsdb = Tsdb::open(&dir, omptel::DEFAULT_CAPACITY).unwrap();

        let points = append_stratum_series(&mut tsdb, "skylake", &batches).unwrap();
        tsdb.flush().unwrap();
        assert_eq!(
            points,
            2 * samples as u64,
            "a virt and an energy point per sample"
        );
        let gating = Tsdb::series(&dir).unwrap();
        assert!(gating.len() > 2, "one stratum only: {gating:?}");
        for name in &gating {
            assert!(is_gating(name), "{name} was written but would not gate");
        }

        let mut manifest = RunManifest::new(&spec);
        let stats = SweepStats {
            sample_misses: samples as u64,
            steals: 3,
            units: 12,
            ..SweepStats::default()
        };
        let mut latency = omptel::Histogram::new();
        latency.record(400);
        manifest.push_arch(Arch::Skylake, &batches, 0, 0.5, stats, latency);
        let mut pair = [LiveInfluence::new(), LiveInfluence::new()];
        for live in &mut pair {
            live.observe(&batches[0].samples[0].config, 1.5);
        }
        let (arch, lookups) = (&manifest.arches[0], manifest.arch_lookups(0));
        let points =
            append_arch_series(&mut tsdb, arch, lookups, 400, (12.5, 3.25), &pair).unwrap();
        tsdb.flush().unwrap();
        let written = Tsdb::series(&dir).unwrap();
        let informational: Vec<&String> = written.iter().filter(|n| !gating.contains(n)).collect();
        // Two energy totals, wall latency, two rates, seven variables
        // under each objective.
        assert_eq!(points, 5 + 2 * 7);
        assert_eq!(informational.len() as u64, points, "{informational:?}");
        for name in informational {
            assert!(name.starts_with("skylake/"), "{name}");
            assert!(!is_gating(name), "{name} is informational but would gate");
        }
        let point = |series: &str| Tsdb::read(&dir, series).unwrap().0[0];
        assert_eq!(point("skylake/energy/joules").count, samples as u64);
        assert_eq!(point("skylake/energy/joules").sum, 12.5);
        assert_eq!(point("skylake/energy/edp_js").sum, 3.25);
        assert_eq!(point("skylake/wall/sample_ns").value(), 400.0);
        assert_eq!(point("skylake/rate/steal").value(), 0.25);
        assert_eq!(point("skylake/rate/cache_hit").value(), 0.0);
        let _ = std::fs::remove_dir_all(&dir);

        // Anything that only resembles a stratum series does not gate.
        for name in ["skylake/virt/sx", "skylake/virt/s0/extra", "virt/s0"] {
            assert!(!is_gating(name), "{name} must not gate");
        }
    }

    /// `ArchManifest::stats` carries the cache handle's cumulative pair;
    /// the hit rate of an architecture is over its own lookups. A cold
    /// a64fx (585 misses) followed by a warm skylake (900 hits) is 0 and
    /// 1, not 0 and 900/1485.
    #[test]
    fn cache_hit_rate_is_per_architecture() {
        let mut manifest = RunManifest::new(&SweepSpec::default());
        let dir = scratch("rate");
        let mut tsdb = Tsdb::open(&dir, omptel::DEFAULT_CAPACITY).unwrap();
        let idle = [LiveInfluence::new(), LiveInfluence::new()];
        for (i, (arch, sample_hits)) in [(Arch::A64fx, 0), (Arch::Skylake, 900)]
            .into_iter()
            .enumerate()
        {
            let stats = SweepStats {
                sample_hits,
                sample_misses: 585,
                ..SweepStats::default()
            };
            manifest.push_arch(arch, &[], 0, 0.0, stats, omptel::Histogram::new());
            let (arch, lookups) = (&manifest.arches[i], manifest.arch_lookups(i));
            let points =
                append_arch_series(&mut tsdb, arch, lookups, 0, (0.0, 0.0), &idle).unwrap();
            assert_eq!(points, 1, "nothing but lookups behind this architecture");
        }
        tsdb.flush().unwrap();
        let rate = |series: &str| {
            let point = Tsdb::read(&dir, series).unwrap().0[0];
            (point.count, point.value())
        };
        assert_eq!(rate("a64fx/rate/cache_hit"), (585, 0.0));
        assert_eq!(rate("skylake/rate/cache_hit"), (900, 1.0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
