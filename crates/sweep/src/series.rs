//! The time-series a collection run leaves in its `tsdb/`: their names
//! and their one writer.
//!
//! A run's samples are stratified by `config_index % STRATA`; per
//! architecture and stratum it records one series of virtual time and
//! one of modeled energy, a point per sample. Both are deterministic
//! given the seed, so two same-seed runs must agree on them exactly —
//! which is what lets `ompobs drift` gate on every one of them. The
//! registry's [`ArchDigest`](crate::ArchDigest) folds the same strata
//! under the same names. A run records nothing else there: what varies
//! with the machine or the schedule has no reader that could gate on it.

use crate::registry::STRATA;
use crate::runner::SettingData;
use omptel::{Point, Tsdb};
use omptune_core::Arch;
use std::io;

/// The objectives recorded per stratum, as they appear in series names.
pub const OBJECTIVES: [&str; 2] = ["virt", "energy"];

/// Name of `arch`'s stratum-`k` series of one of the [`OBJECTIVES`].
pub fn stratum_series(arch: &str, objective: &str, k: usize) -> String {
    format!("{arch}/{objective}/s{k}")
}

/// Every name [`stratum_series`] builds: [`Arch::ALL`] × [`OBJECTIVES`]
/// × strata, in that order.
pub fn all_stratum_series() -> Vec<String> {
    let mut names = Vec::new();
    for arch in Arch::ALL {
        for objective in OBJECTIVES {
            names.extend((0..STRATA).map(|k| stratum_series(arch.id(), objective, k)));
        }
    }
    names
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scope, SweepOptions, SweepSpec};

    #[test]
    fn the_stratum_writer_writes_only_stratum_series() {
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
        let dir = std::env::temp_dir().join(format!("sweep-series-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tsdb = Tsdb::open(&dir, omptel::DEFAULT_CAPACITY).unwrap();

        let points = append_stratum_series(&mut tsdb, "skylake", &batches).unwrap();
        tsdb.flush().unwrap();
        assert_eq!(
            points,
            2 * samples as u64,
            "a virt and an energy point per sample"
        );
        let written = Tsdb::series(&dir).unwrap();
        assert!(written.len() > 2, "one stratum only: {written:?}");
        let names = all_stratum_series();
        assert_eq!(names.len(), Arch::ALL.len() * OBJECTIVES.len() * STRATA);
        for name in &written {
            assert!(names.contains(name), "{name} is not a stratum series");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
