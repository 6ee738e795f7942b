//! The per-stratum series `ompobs drift` gates on: their names and the
//! one fold that reads them out of a run's cleaned batches.
//!
//! A run's samples are stratified by `config_index % STRATA`; per
//! architecture and stratum there is one series of mean repetition
//! seconds (`virt`) and one of modeled joules (`energy`), a point per
//! sample. Both are deterministic given the seed, so two same-seed runs
//! must agree on them exactly — which is what lets `ompobs drift` gate
//! on every one of them. They are not stored anywhere: `drift` folds
//! them from each run's `raw_batches.json`. The registry's
//! [`ArchDigest`](crate::ArchDigest) folds the same strata under the
//! same names, but its `virt` series hold the simulation's
//! `virtual_ns`, not the repetition times.

use crate::registry::STRATA;
use crate::runner::SettingData;
use omptune_core::Arch;
use std::collections::BTreeMap;

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

/// Fold cleaned batches into their stratum series, by name; a name is
/// there when it has a point. Per sample with a finite repetition, one
/// `virt` point (the finite repetitions' sum over their count) and —
/// when the sample has modeled joules — one `energy` point, so the two
/// objectives pair up position for position. Points follow batch order,
/// then sample order, within each (arch, stratum).
pub fn fold_stratum_series(batches: &[SettingData]) -> BTreeMap<String, Vec<f64>> {
    let mut points: [[[Vec<f64>; STRATA]; 2]; Arch::ALL.len()] = Default::default();
    for data in batches {
        let arch = Arch::ALL.iter().position(|&a| a == data.key.arch);
        let [virt, energy] = &mut points[arch.expect("an architecture of Arch::ALL")];
        for sample in &data.samples {
            let finite = || sample.runtimes.iter().filter(|t| t.is_finite());
            let count = finite().count() as u64;
            if count == 0 {
                continue;
            }
            let k = sample.config_index % STRATA;
            let sum: f64 = finite().sum();
            virt[k].push(sum / count as f64);
            let joules = sample.telemetry.energy.total_j;
            if joules.is_finite() && joules > 0.0 {
                energy[k].push(joules);
            }
        }
    }
    let mut series = BTreeMap::new();
    for (arch, objectives) in Arch::ALL.iter().zip(points) {
        for (objective, strata) in OBJECTIVES.iter().zip(objectives) {
            for (k, values) in strata.into_iter().enumerate() {
                if !values.is_empty() {
                    series.insert(stratum_series(arch.id(), objective, k), values);
                }
            }
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scope, SweepOptions, SweepSpec};

    #[test]
    fn the_fold_yields_only_stratum_series() {
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

        let series = fold_stratum_series(&batches);
        let points: usize = series.values().map(Vec::len).sum();
        assert_eq!(points, 2 * samples, "a virt and an energy point per sample");
        assert!(series.len() > 2, "one stratum only: {series:?}");
        let names = all_stratum_series();
        assert_eq!(names.len(), Arch::ALL.len() * OBJECTIVES.len() * STRATA);
        for name in series.keys() {
            assert!(names.contains(name), "{name} is not a stratum series");
            assert!(name.starts_with("skylake/"), "{name}");
        }
        // The first sample of stratum 0 is the first point of its series.
        let first = batches
            .iter()
            .flat_map(|b| &b.samples)
            .find(|s| s.config_index % STRATA == 0)
            .unwrap();
        let finite: Vec<f64> = first
            .runtimes
            .iter()
            .copied()
            .filter(|t| t.is_finite())
            .collect();
        let mean = finite.iter().sum::<f64>() / finite.len() as f64;
        assert_eq!(series["skylake/virt/s0"][0].to_bits(), mean.to_bits());
        let joules = first.telemetry.energy.total_j;
        assert_eq!(series["skylake/energy/s0"][0].to_bits(), joules.to_bits());
    }
}
