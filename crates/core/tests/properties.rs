//! Property-based tests of the configuration-space and placement
//! invariants (proptest).

use omptune_core::placement::Placement;
use omptune_core::{Arch, ConfigSpace, TuningConfig};
use proptest::prelude::*;

fn arch_strategy() -> impl Strategy<Value = Arch> {
    prop_oneof![Just(Arch::A64fx), Just(Arch::Skylake), Just(Arch::Milan)]
}

proptest! {
    /// Every index in the space round-trips through get/index_of.
    #[test]
    fn space_get_index_bijection(arch in arch_strategy(), idx in 0usize..9216) {
        let space = ConfigSpace::new(arch, arch.cores());
        if idx < space.len() {
            let config = space.get(idx).expect("within len");
            prop_assert_eq!(space.index_of(&config), Some(idx));
        } else {
            prop_assert!(space.get(idx).is_none());
        }
    }

    /// Every configuration round-trips through its environment-variable
    /// string form.
    #[test]
    fn config_env_roundtrip(arch in arch_strategy(), idx in 0usize..4608) {
        let space = ConfigSpace::new(arch, arch.cores());
        let config = space.get(idx % space.len()).expect("in space");
        let env = config.to_env();
        prop_assert_eq!(TuningConfig::from_env(&env, arch), Ok(config));
    }

    /// Unset variables never appear in the exported environment.
    #[test]
    fn env_export_omits_unset(arch in arch_strategy(), idx in 0usize..4608) {
        let space = ConfigSpace::new(arch, arch.cores());
        let config = space.get(idx % space.len()).expect("in space");
        let env = config.to_env();
        use omptune_core::{KmpForceReduction, OmpPlaces, OmpProcBind};
        prop_assert_eq!(
            env.contains_key("OMP_PLACES"),
            config.places != OmpPlaces::Unset
        );
        prop_assert_eq!(
            env.contains_key("OMP_PROC_BIND"),
            config.proc_bind != OmpProcBind::Unset
        );
        prop_assert_eq!(
            env.contains_key("KMP_FORCE_REDUCTION"),
            config.force_reduction != KmpForceReduction::Unset
        );
    }

    /// Bound placements assign every thread to a valid place, the
    /// occupancy sums to the thread count, and oversubscription is at
    /// least the machine-wide load.
    #[test]
    fn placement_invariants(
        arch in arch_strategy(),
        idx in 0usize..4608,
        t in 1usize..=96,
    ) {
        let t = t.min(arch.cores());
        let space = ConfigSpace::new(arch, t);
        let config = space.get(idx % space.len()).expect("in space");
        match Placement::compute(arch, &config) {
            Placement::Unbound => {
                prop_assert_eq!(config.effective_bind(), omptune_core::EffectiveBind::None);
            }
            Placement::Bound { assignment, n_places, cores_per_place } => {
                prop_assert_eq!(assignment.len(), t);
                prop_assert!(assignment.iter().all(|p| *p < n_places));
                prop_assert_eq!(n_places * cores_per_place, arch.cores());
                let placement = Placement::compute(arch, &config);
                let occ = placement.occupancy();
                prop_assert_eq!(occ.iter().sum::<usize>(), t);
                let over = placement.max_oversubscription(arch, t);
                prop_assert!(over >= t as f64 / arch.cores() as f64 - 1e-12);
            }
        }
    }

    /// The wait policy derivation is total and consistent: blocktime 0 ⇒
    /// passive, infinite ⇒ active, otherwise spin-then-sleep with the
    /// blocktime's milliseconds.
    #[test]
    fn wait_policy_total(arch in arch_strategy(), idx in 0usize..4608) {
        use omptune_core::{KmpBlocktime, WaitPolicy};
        let space = ConfigSpace::new(arch, arch.cores());
        let config = space.get(idx % space.len()).expect("in space");
        match (config.blocktime, config.wait_policy()) {
            (KmpBlocktime::Zero, WaitPolicy::Passive) => {}
            (KmpBlocktime::Default200, WaitPolicy::SpinThenSleep { millis: 200, .. }) => {}
            (KmpBlocktime::Infinite, WaitPolicy::Active { .. }) => {}
            (bt, wp) => prop_assert!(false, "inconsistent {bt:?} -> {wp:?}"),
        }
    }

    /// Speedup-range helper is order-invariant and tight.
    #[test]
    fn speedup_range_over_any_values(mut xs in prop::collection::vec(0.1f64..10.0, 1..50)) {
        let r = omptune_core::SpeedupRange::over(xs.iter().copied()).expect("non-empty");
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(r.lo, xs[0]);
        prop_assert_eq!(r.hi, *xs.last().unwrap());
    }
}

// Per-variable env-string round-trips: every value of each of the seven
// swept variables must survive `env_value` → `parse` on every
// architecture. The index strategy samples uniformly over the largest
// domain and is reduced modulo each domain's size, so every value of
// every variable is exercised across the run.
proptest! {
    /// `OMP_PLACES` round-trips, and the paper-excluded spellings
    /// (`threads`, `numa_domains`) are rejected.
    #[test]
    fn places_env_value_parse_roundtrip(_arch in arch_strategy(), idx in 0usize..64) {
        use omptune_core::OmpPlaces;
        let v = OmpPlaces::ALL[idx % OmpPlaces::ALL.len()];
        prop_assert_eq!(OmpPlaces::parse(v.env_value()), Some(v));
        prop_assert!(OmpPlaces::parse(Some("threads")).is_none());
        prop_assert!(OmpPlaces::parse(Some("numa_domains")).is_none());
    }

    /// `OMP_PROC_BIND` round-trips; the deprecated `primary` alias parses
    /// to the same value as `master`.
    #[test]
    fn proc_bind_env_value_parse_roundtrip(_arch in arch_strategy(), idx in 0usize..64) {
        use omptune_core::OmpProcBind;
        let v = OmpProcBind::ALL[idx % OmpProcBind::ALL.len()];
        prop_assert_eq!(OmpProcBind::parse(v.env_value()), Some(v));
        prop_assert_eq!(OmpProcBind::parse(Some("primary")), Some(OmpProcBind::Master));
    }

    /// `OMP_SCHEDULE` round-trips; the unset form parses to the `static`
    /// default, so the only value that maps back to `None`-equivalent
    /// spelling is `Static` itself.
    #[test]
    fn schedule_env_value_parse_roundtrip(_arch in arch_strategy(), idx in 0usize..64) {
        use omptune_core::OmpSchedule;
        let v = OmpSchedule::ALL[idx % OmpSchedule::ALL.len()];
        prop_assert_eq!(OmpSchedule::parse(Some(v.env_value())), Some(v));
        prop_assert_eq!(OmpSchedule::parse(None), Some(OmpSchedule::Static));
    }

    /// `KMP_LIBRARY` round-trips; `serial` (paper-excluded) is rejected
    /// and unset means the `throughput` default.
    #[test]
    fn library_env_value_parse_roundtrip(_arch in arch_strategy(), idx in 0usize..64) {
        use omptune_core::KmpLibrary;
        let v = KmpLibrary::ALL[idx % KmpLibrary::ALL.len()];
        prop_assert_eq!(KmpLibrary::parse(Some(v.env_value())), Some(v));
        prop_assert!(KmpLibrary::parse(Some("serial")).is_none());
        prop_assert_eq!(KmpLibrary::parse(None), Some(KmpLibrary::Throughput));
    }

    /// `KMP_BLOCKTIME` round-trips; arbitrary positive numbers collapse
    /// onto the 200 ms default and negative values are rejected.
    #[test]
    fn blocktime_env_value_parse_roundtrip(
        _arch in arch_strategy(),
        idx in 0usize..64,
        ms in 1i64..1_000_000,
    ) {
        use omptune_core::KmpBlocktime;
        let v = KmpBlocktime::ALL[idx % KmpBlocktime::ALL.len()];
        prop_assert_eq!(KmpBlocktime::parse(Some(v.env_value())), Some(v));
        prop_assert_eq!(
            KmpBlocktime::parse(Some(&ms.to_string())),
            Some(KmpBlocktime::Default200)
        );
        prop_assert!(KmpBlocktime::parse(Some(&(-ms).to_string())).is_none());
    }

    /// `KMP_FORCE_REDUCTION` round-trips; unset means the heuristic.
    #[test]
    fn force_reduction_env_value_parse_roundtrip(_arch in arch_strategy(), idx in 0usize..64) {
        use omptune_core::KmpForceReduction;
        let v = KmpForceReduction::ALL[idx % KmpForceReduction::ALL.len()];
        prop_assert_eq!(KmpForceReduction::parse(v.env_value()), Some(v));
        prop_assert_eq!(KmpForceReduction::parse(None), Some(KmpForceReduction::Unset));
    }

    /// `KMP_ALIGN_ALLOC` round-trips over the per-arch domain; unset
    /// parses to the architecture's cache-line default, and non-power-of-
    /// two or out-of-range alignments are rejected on every arch.
    #[test]
    fn align_alloc_env_value_parse_roundtrip(arch in arch_strategy(), idx in 0usize..64) {
        use omptune_core::KmpAlignAlloc;
        let domain = KmpAlignAlloc::domain(arch);
        let v = domain[idx % domain.len()];
        prop_assert_eq!(KmpAlignAlloc::parse(Some(&v.env_value()), arch), Some(v));
        prop_assert_eq!(
            KmpAlignAlloc::parse(None, arch),
            Some(KmpAlignAlloc::default_for(arch))
        );
        prop_assert!(KmpAlignAlloc::parse(Some("100"), arch).is_none());
        prop_assert!(KmpAlignAlloc::parse(Some("4"), arch).is_none());
        prop_assert!(KmpAlignAlloc::parse(Some("8192"), arch).is_none());
    }
}
