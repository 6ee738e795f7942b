//! Thread → place assignment under `OMP_PLACES` × `OMP_PROC_BIND`.
//!
//! This is the pure logic shared by the real runtime (`omprt`, which
//! records assignments) and the simulator (`simrt`, where placement has
//! performance consequences): given the place granularity, the effective
//! binding policy, and a thread count, compute which place every thread
//! occupies.
//!
//! Semantics follow the OpenMP spec as implemented by libomp:
//!
//! - `close`: consecutive threads fill consecutive places (threads are
//!   partitioned into `P` contiguous groups),
//! - `spread`: threads are spaced as evenly as possible across places,
//! - `master`: every thread shares the primary thread's place (place 0) —
//!   the paper's worst-trend configuration at high thread counts,
//! - unbound: no assignment; threads migrate freely.
//!
//! When `OMP_PROC_BIND` requests binding but `OMP_PLACES` is unset, libomp
//! falls back to a per-core place list; we do the same.

use crate::arch::Arch;
use crate::config::{EffectiveBind, TuningConfig};
use crate::envvar::OmpPlaces;
use serde::{Deserialize, Serialize};

/// The result of placing `num_threads` threads on an architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Placement {
    /// Threads are unbound and may migrate across all cores.
    Unbound,
    /// `assignment[i]` is the place index of thread `i`.
    Bound {
        /// Place of each thread.
        assignment: Vec<usize>,
        /// Total number of places.
        n_places: usize,
        /// Cores per place.
        cores_per_place: usize,
    },
}

impl Placement {
    /// Compute the placement for `config` on `arch`.
    pub fn compute(arch: Arch, config: &TuningConfig) -> Placement {
        let bind = config.effective_bind();
        if bind == EffectiveBind::None {
            return Placement::Unbound;
        }
        // Binding without places: libomp falls back to per-core places.
        let granularity = if config.places == OmpPlaces::Unset {
            OmpPlaces::Cores
        } else {
            config.places
        };
        let n_places = granularity.place_count(arch);
        let t = config.num_threads;
        let assignment: Vec<usize> = match bind {
            EffectiveBind::None => unreachable!("handled above"),
            EffectiveBind::Master => vec![0; t],
            EffectiveBind::Close => {
                // Partition threads into contiguous groups of ceil(T/P).
                let group = t.div_ceil(n_places);
                (0..t).map(|i| (i / group).min(n_places - 1)).collect()
            }
            EffectiveBind::Spread => (0..t).map(|i| i * n_places / t).collect(),
        };
        Placement::Bound {
            assignment,
            n_places,
            cores_per_place: arch.cores() / n_places,
        }
    }

    /// Number of threads sharing each place (empty for unbound).
    pub fn occupancy(&self) -> Vec<usize> {
        match self {
            Placement::Unbound => Vec::new(),
            Placement::Bound {
                assignment,
                n_places,
                ..
            } => {
                let mut occ = vec![0usize; *n_places];
                for &p in assignment {
                    occ[p] += 1;
                }
                occ
            }
        }
    }

    /// The worst-case ratio of threads to cores on any single place —
    /// 1.0 means no core is shared; above 1.0 threads time-slice.
    /// Unbound placements report the machine-wide ratio.
    pub fn max_oversubscription(&self, arch: Arch, num_threads: usize) -> f64 {
        match self {
            Placement::Unbound => num_threads as f64 / arch.cores() as f64,
            Placement::Bound {
                cores_per_place, ..
            } => {
                let occ = self.occupancy();
                let max_occ = occ.into_iter().max().unwrap_or(0);
                max_occ as f64 / *cores_per_place as f64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envvar::OmpProcBind;

    fn config(arch: Arch, places: OmpPlaces, bind: OmpProcBind, t: usize) -> TuningConfig {
        TuningConfig {
            places,
            proc_bind: bind,
            ..TuningConfig::default_for(arch, t)
        }
    }

    #[test]
    fn default_config_is_unbound() {
        let c = TuningConfig::default_for(Arch::Milan, 96);
        assert_eq!(Placement::compute(Arch::Milan, &c), Placement::Unbound);
    }

    #[test]
    fn master_piles_everyone_on_place_zero() {
        let c = config(Arch::Milan, OmpPlaces::Cores, OmpProcBind::Master, 96);
        let p = Placement::compute(Arch::Milan, &c);
        let occ = p.occupancy();
        assert_eq!(occ[0], 96);
        assert!(occ[1..].iter().all(|n| *n == 0));
        // 96 threads on one core: oversubscription 96.
        assert_eq!(p.max_oversubscription(Arch::Milan, 96), 96.0);
    }

    #[test]
    fn spread_balances_occupancy() {
        let c = config(Arch::Milan, OmpPlaces::Sockets, OmpProcBind::Spread, 96);
        let p = Placement::compute(Arch::Milan, &c);
        assert_eq!(p.occupancy(), vec![48, 48]);
        assert!((p.max_oversubscription(Arch::Milan, 96) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn spread_with_fewer_threads_than_places_spaces_them() {
        let c = config(Arch::A64fx, OmpPlaces::Cores, OmpProcBind::Spread, 4);
        let p = Placement::compute(Arch::A64fx, &c);
        match p {
            Placement::Bound { assignment, .. } => {
                assert_eq!(assignment, vec![0, 12, 24, 36]);
            }
            _ => panic!("expected bound"),
        }
    }

    #[test]
    fn close_packs_consecutively() {
        let c = config(Arch::A64fx, OmpPlaces::LlCaches, OmpProcBind::Close, 8);
        let p = Placement::compute(Arch::A64fx, &c);
        match &p {
            Placement::Bound {
                assignment,
                n_places,
                ..
            } => {
                assert_eq!(*n_places, 4);
                // ceil(8/4)=2 threads per place, consecutive.
                assert_eq!(assignment, &vec![0, 0, 1, 1, 2, 2, 3, 3]);
            }
            _ => panic!("expected bound"),
        }
    }

    #[test]
    fn close_on_cores_never_oversubscribes_at_full_count() {
        for arch in Arch::ALL {
            let c = config(arch, OmpPlaces::Cores, OmpProcBind::Close, arch.cores());
            let p = Placement::compute(arch, &c);
            assert!((p.max_oversubscription(arch, arch.cores()) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bind_without_places_uses_core_places() {
        let c = config(Arch::Skylake, OmpPlaces::Unset, OmpProcBind::Close, 40);
        let p = Placement::compute(Arch::Skylake, &c);
        match p {
            Placement::Bound {
                n_places,
                cores_per_place,
                ..
            } => {
                assert_eq!(n_places, 40);
                assert_eq!(cores_per_place, 1);
            }
            _ => panic!("bind=close must bind even without places"),
        }
    }

    #[test]
    fn places_without_bind_derives_spread() {
        // Sec. III-2: places set, bind unset → effective spread.
        let c = config(Arch::Skylake, OmpPlaces::Sockets, OmpProcBind::Unset, 40);
        let p = Placement::compute(Arch::Skylake, &c);
        assert_eq!(p.occupancy(), vec![20, 20]);
    }

    #[test]
    fn unbound_oversubscription_is_machine_wide() {
        let p = Placement::Unbound;
        assert_eq!(p.max_oversubscription(Arch::Skylake, 40), 1.0);
        assert_eq!(p.max_oversubscription(Arch::Skylake, 20), 0.5);
    }

    #[test]
    fn every_thread_gets_a_valid_place() {
        for arch in Arch::ALL {
            for places in OmpPlaces::ALL {
                for bind in OmpProcBind::ALL {
                    for t in [1, 2, arch.cores() / 2, arch.cores()] {
                        let c = config(arch, places, bind, t);
                        if let Placement::Bound {
                            assignment,
                            n_places,
                            ..
                        } = Placement::compute(arch, &c)
                        {
                            assert_eq!(assignment.len(), t);
                            assert!(assignment.iter().all(|p| p < &n_places));
                        }
                    }
                }
            }
        }
    }
}
