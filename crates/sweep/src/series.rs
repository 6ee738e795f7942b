//! The per-stratum time-series a collection run leaves in its `tsdb/`:
//! their names, which of them gate a comparison, and the one writer.
//!
//! A run's samples are stratified by `config_index % STRATA`; per
//! architecture and stratum it records one series of virtual time and
//! one of modeled energy, a point per sample. Both are deterministic
//! given the seed, so two same-seed runs must agree on them exactly —
//! which is what lets `ompobs` gate on them. The registry's
//! [`ArchDigest`](crate::ArchDigest) folds the same strata under the
//! same names. Everything else a run records (wall latency, scheduler
//! rates, influence snapshots, per-arch energy totals) varies with the
//! machine or the schedule and is informational.

use crate::registry::STRATA;
use crate::runner::SettingData;
use std::io;

/// The objectives recorded per stratum, as they appear in series names.
pub const OBJECTIVES: [&str; 2] = ["virt", "energy"];

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
    tsdb: &mut omptel::Tsdb,
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
        tsdb.append(&virt[k], omptel::Point { ts, count, sum })?;
        points += 1;
        let joules = sample.telemetry.energy.total_j;
        if joules.is_finite() && joules > 0.0 {
            tsdb.append(&energy[k], omptel::Point::single(ts, joules))?;
            points += 1;
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scope, SweepOptions, SweepSpec};
    use omptune_core::Arch;

    #[test]
    fn the_writer_leaves_exactly_the_series_the_gate_accepts() {
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
        let dir = std::env::temp_dir().join(format!("sweep-series-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tsdb = omptel::Tsdb::open(&dir, omptel::DEFAULT_CAPACITY).unwrap();
        let points = append_stratum_series(&mut tsdb, "skylake", &batches).unwrap();
        tsdb.flush().unwrap();
        let samples: usize = batches.iter().map(|b| b.samples.len()).sum();
        assert_eq!(
            points,
            2 * samples as u64,
            "a virt and an energy point per sample"
        );

        let written = omptel::Tsdb::series(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(written.len() > 2, "one stratum only: {written:?}");
        for name in &written {
            assert!(is_gating(name), "{name} was written but would not gate");
        }
        // What else `collect` records is informational, and so is
        // anything that only resembles a stratum series.
        for name in [
            "skylake/wall/sample_ns",
            "skylake/rate/steal",
            "skylake/influence-energy/omp_schedule",
            "skylake/energy/joules",
            "skylake/energy/edp_js",
            "skylake/virt/sx",
            "skylake/virt/s0/extra",
            "virt/s0",
        ] {
            assert!(!is_gating(name), "{name} must not gate");
        }
    }
}
