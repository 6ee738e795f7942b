//! A complete tuning configuration and the libomp default-derivation rules.
//!
//! A [`TuningConfig`] is one point in the sweep: a value for each of the
//! seven environment variables plus `OMP_NUM_THREADS`. The type also
//! implements the *derived* semantics the paper describes:
//!
//! - `OMP_PROC_BIND` defaults to `false`, **unless** `OMP_PLACES` is set,
//!   in which case the effective policy is `spread` (Sec. III-2);
//! - `OMP_WAIT_POLICY` is derived from `KMP_BLOCKTIME` and `KMP_LIBRARY`
//!   (Sec. III: the paper excludes `OMP_WAIT_POLICY` in favour of the two
//!   `KMP_*` variables);
//! - the reduction-method heuristic used when `KMP_FORCE_REDUCTION` is
//!   unset (Sec. III-6): one thread → no synchronization, 2–4 threads →
//!   `critical`, more → `tree`;
//! - the default `KMP_ALIGN_ALLOC` is the architecture cache-line size.

use crate::arch::Arch;
use crate::envvar::{
    KmpAlignAlloc, KmpBlocktime, KmpForceReduction, KmpLibrary, OmpPlaces, OmpProcBind, OmpSchedule,
};
use crate::variable::Variable;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The binding policy actually in force after default derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EffectiveBind {
    /// Threads are unbound and may migrate between places.
    None,
    /// All threads share the primary thread's place.
    Master,
    /// Threads packed onto places near the parent.
    Close,
    /// Threads spread evenly over places.
    Spread,
}

/// The wait policy derived from `KMP_BLOCKTIME` × `KMP_LIBRARY`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WaitPolicy {
    /// Sleep immediately when idle (blocktime 0).
    Passive,
    /// Spin for a bounded time, then sleep.
    SpinThenSleep {
        /// Spin budget in milliseconds.
        millis: u32,
        /// Whether the spin loop yields to the OS (`throughput` mode).
        yielding: bool,
    },
    /// Never sleep (blocktime infinite).
    Active {
        /// Whether the spin loop yields to the OS (`throughput` mode).
        yielding: bool,
    },
}

/// The reduction method actually used for a given thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReductionMethod {
    /// Single thread: plain store, no synchronization.
    None,
    /// One critical section shared by all threads.
    Critical,
    /// Atomic read-modify-write per thread.
    Atomic,
    /// Pairwise combination tree.
    Tree,
}

impl ReductionMethod {
    /// libomp's heuristic when `KMP_FORCE_REDUCTION` is unset (Sec. III-6).
    pub fn heuristic(num_threads: usize) -> ReductionMethod {
        match num_threads {
            0 | 1 => ReductionMethod::None,
            2..=4 => ReductionMethod::Critical,
            _ => ReductionMethod::Tree,
        }
    }
}

/// The projection of a [`TuningConfig`] onto the variables that can
/// change *execution structure*: loop partitioning, chunk/steal
/// assignment, thread placement, and task-starvation behaviour. The
/// remaining variables (`KMP_BLOCKTIME`, `KMP_ALIGN_ALLOC`,
/// `KMP_FORCE_REDUCTION`) only re-price a fixed structure — wake-up
/// latencies, barrier/reduction constants — so two configurations with
/// equal projections share one simulation plan.
///
/// `KMP_LIBRARY` is part of the projection (not the pricing layer): it
/// changes whether idle task workers yield, which feeds the greedy
/// task-dispatch makespan, not just a constant.
///
/// A projection is always of a [`TuningConfig::canonical`] configuration,
/// so configurations the model prices alike share one plan. Other crates
/// read the fields but obtain a projection only from
/// [`TuningConfig::plan_projection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub struct PlanProjection {
    pub places: OmpPlaces,
    pub proc_bind: OmpProcBind,
    pub schedule: OmpSchedule,
    pub library: KmpLibrary,
    pub num_threads: usize,
}

/// One point in the configuration space: all swept variables plus the
/// thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Deserialize)]
pub struct TuningConfig {
    pub places: OmpPlaces,
    pub proc_bind: OmpProcBind,
    pub schedule: OmpSchedule,
    pub library: KmpLibrary,
    pub blocktime: KmpBlocktime,
    pub force_reduction: KmpForceReduction,
    pub align_alloc: KmpAlignAlloc,
    pub num_threads: usize,
}

// Every enum field of a `TuningConfig` is fieldless and one byte wide, so
// its discriminant fits the byte `memo_key` gives it.
const _: () = assert!(
    size_of::<OmpPlaces>() == 1
        && size_of::<OmpProcBind>() == 1
        && size_of::<OmpSchedule>() == 1
        && size_of::<KmpLibrary>() == 1
        && size_of::<KmpBlocktime>() == 1
        && size_of::<KmpForceReduction>() == 1
);

impl TuningConfig {
    /// Every field, packed without loss: the six enum discriminants a
    /// byte each, then the alignment, then the thread count. Equal keys
    /// are equal configurations, so they serialize to equal text; three
    /// words, so no other memo block of a document (a `SampleTelemetry`
    /// is fifteen) shares a key with one. Destructured to the last field,
    /// so a field added to the struct fails to compile here.
    fn memo_key(&self) -> [u64; 3] {
        let TuningConfig {
            places,
            proc_bind,
            schedule,
            library,
            blocktime,
            force_reduction,
            align_alloc,
            num_threads,
        } = *self;
        let enums = [
            places as u64,
            proc_bind as u64,
            schedule as u64,
            library as u64,
            blocktime as u64,
            force_reduction as u64,
        ];
        let packed = enums.into_iter().fold(0, |word, d| word << 8 | d);
        [packed, u64::from(align_alloc.0), num_threads as u64]
    }
}

// Hand-written (not derived) to hand the object to the sink's memo: a
// sweep repeats each configuration across settings (~13x per document
// at `collect fast`), and a JSON sink writes each distinct one once per
// document. The fields and their order are the derive's.
impl Serialize for TuningConfig {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) -> Result<(), S::Error> {
        struct Fields<'a>(&'a TuningConfig);
        impl Serialize for Fields<'_> {
            fn serialize<S: serde::Sink>(&self, sink: &mut S) -> Result<(), S::Error> {
                let c = self.0;
                sink.map_begin()?;
                sink.field("places", &c.places)?;
                sink.field("proc_bind", &c.proc_bind)?;
                sink.field("schedule", &c.schedule)?;
                sink.field("library", &c.library)?;
                sink.field("blocktime", &c.blocktime)?;
                sink.field("force_reduction", &c.force_reduction)?;
                sink.field("align_alloc", &c.align_alloc)?;
                sink.field("num_threads", &c.num_threads)?;
                sink.map_end()
            }
        }
        sink.memo(&self.memo_key(), &Fields(self))
    }
}

impl TuningConfig {
    /// The default configuration on `arch` with `num_threads` threads —
    /// what an untouched environment gives you, and the baseline all
    /// speedups in the study are measured against.
    pub fn default_for(arch: Arch, num_threads: usize) -> TuningConfig {
        TuningConfig {
            places: OmpPlaces::Unset,
            proc_bind: OmpProcBind::Unset,
            schedule: OmpSchedule::Static,
            library: KmpLibrary::Throughput,
            blocktime: KmpBlocktime::Default200,
            force_reduction: KmpForceReduction::Unset,
            align_alloc: KmpAlignAlloc::default_for(arch),
            num_threads,
        }
    }

    /// Whether this config equals the default for `arch` at its own thread
    /// count.
    pub fn is_default(&self, arch: Arch) -> bool {
        *self == TuningConfig::default_for(arch, self.num_threads)
    }

    /// The plan-relevant projection of this configuration's canonical
    /// form: the cache key for simulation-plan reuse (see
    /// [`PlanProjection`]).
    pub fn plan_projection(&self) -> PlanProjection {
        let c = self.canonical();
        PlanProjection {
            places: c.places,
            proc_bind: c.proc_bind,
            schedule: c.schedule,
            library: c.library,
            num_threads: c.num_threads,
        }
    }

    /// The representative of this configuration's equivalence class, and a
    /// fixpoint of itself. Four rewrites, each a libomp derivation the
    /// simulator prices bit for bit the same (`tests/model_sanity.rs`
    /// holds every catalog cell to that):
    /// `auto` → `static`; `true` → `close`; `false` → unset, with places
    /// unset too, since they are never consulted; and `spread` with places
    /// set → unset, which derives `spread`.
    ///
    /// `KMP_LIBRARY` at `KMP_BLOCKTIME=0`, and a forced reduction equal to
    /// the heuristic's choice, are *not* rewritten: the model prices both
    /// differently (task workers yield by library, and the heuristic costs
    /// a dispatch).
    pub fn canonical(&self) -> TuningConfig {
        let mut c = *self;
        if c.schedule == OmpSchedule::Auto {
            c.schedule = OmpSchedule::Static;
        }
        match c.proc_bind {
            OmpProcBind::True => c.proc_bind = OmpProcBind::Close,
            OmpProcBind::False => {
                c.proc_bind = OmpProcBind::Unset;
                c.places = OmpPlaces::Unset;
            }
            OmpProcBind::Spread if c.places != OmpPlaces::Unset => {
                c.proc_bind = OmpProcBind::Unset;
            }
            _ => {}
        }
        c
    }

    /// The binding policy actually in force (Sec. III-2 derivation):
    /// `unset` → `false` normally, but `spread` when `OMP_PLACES` is set;
    /// `true` → implementation choice, libomp binds close.
    pub fn effective_bind(&self) -> EffectiveBind {
        match self.proc_bind {
            OmpProcBind::Unset => {
                if self.places == OmpPlaces::Unset {
                    EffectiveBind::None
                } else {
                    EffectiveBind::Spread
                }
            }
            OmpProcBind::False => EffectiveBind::None,
            OmpProcBind::Master => EffectiveBind::Master,
            OmpProcBind::Close => EffectiveBind::Close,
            OmpProcBind::Spread => EffectiveBind::Spread,
            OmpProcBind::True => EffectiveBind::Close,
        }
    }

    /// The wait policy derived from `KMP_BLOCKTIME` and `KMP_LIBRARY`.
    pub fn wait_policy(&self) -> WaitPolicy {
        let yielding = self.library == KmpLibrary::Throughput;
        match self.blocktime.millis() {
            Some(0) => WaitPolicy::Passive,
            Some(ms) => WaitPolicy::SpinThenSleep {
                millis: ms,
                yielding,
            },
            None => WaitPolicy::Active { yielding },
        }
    }

    /// The reduction method in force for this config's thread count.
    pub fn reduction_method(&self) -> ReductionMethod {
        match self.force_reduction {
            KmpForceReduction::Unset => ReductionMethod::heuristic(self.num_threads),
            KmpForceReduction::Tree => ReductionMethod::Tree,
            KmpForceReduction::Critical => ReductionMethod::Critical,
            KmpForceReduction::Atomic => ReductionMethod::Atomic,
        }
    }

    /// Environment spelling of this configuration's value of `var`;
    /// `None` means "leave the variable unset".
    pub fn spelling(&self, var: Variable) -> Option<Cow<'static, str>> {
        match var.slot(self) {
            Some(slot) => var.spelling(slot).map(Cow::Borrowed),
            // Only an alignment can lack a slot (`KMP_ALIGN_ALLOC` accepts
            // any power of two), and it still spells.
            None => Some(Cow::Owned(self.align_alloc.env_value())),
        }
    }

    /// [`TuningConfig::spelling`] with unset spelled out, for reports.
    pub fn label(&self, var: Variable) -> Cow<'static, str> {
        self.spelling(var).unwrap_or(Cow::Borrowed("unset"))
    }

    /// Export as the environment-variable map a job script would set.
    /// Unset variables are absent from the map.
    pub fn to_env(&self) -> BTreeMap<String, String> {
        let mut env = BTreeMap::new();
        for var in Variable::ALL {
            if let Some(v) = self.spelling(var) {
                env.insert(var.env_name().into(), v.into_owned());
            }
        }
        env.insert("OMP_NUM_THREADS".into(), self.num_threads.to_string());
        env
    }

    /// Reconstruct a config from an environment map (inverse of
    /// [`TuningConfig::to_env`]). The error is the name of the first
    /// variable whose value does not parse.
    pub fn from_env(
        env: &BTreeMap<String, String>,
        arch: Arch,
    ) -> Result<TuningConfig, &'static str> {
        let get = |k: &str| env.get(k).map(String::as_str);
        let mut config = TuningConfig::default_for(arch, 0);
        for var in Variable::ALL {
            config = var
                .parse(config, get(var.env_name()), arch)
                .ok_or(var.env_name())?;
        }
        config.num_threads = get("OMP_NUM_THREADS")
            .and_then(|s| s.parse().ok())
            .ok_or("OMP_NUM_THREADS")?;
        Ok(config)
    }

    /// The seven variables as `key=value` words, unset spelled out — the
    /// part of [`TuningConfig::describe`] that does not depend on the
    /// setting.
    pub fn describe_knobs(&self) -> String {
        Variable::ALL
            .map(|v| format!("{}={}", v.key(), self.label(v)))
            .join(" ")
    }

    /// Compact single-line description used in reports and logs.
    pub fn describe(&self) -> String {
        format!("{} threads={}", self.describe_knobs(), self.num_threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_section_iii() {
        let c = TuningConfig::default_for(Arch::Skylake, 40);
        assert_eq!(c.places, OmpPlaces::Unset);
        assert_eq!(c.proc_bind, OmpProcBind::Unset);
        assert_eq!(c.schedule, OmpSchedule::Static);
        assert_eq!(c.library, KmpLibrary::Throughput);
        assert_eq!(c.blocktime, KmpBlocktime::Default200);
        assert_eq!(c.force_reduction, KmpForceReduction::Unset);
        assert_eq!(c.align_alloc.bytes(), 64);
        assert!(c.is_default(Arch::Skylake));
    }

    #[test]
    fn a64fx_default_alignment_is_256() {
        let c = TuningConfig::default_for(Arch::A64fx, 48);
        assert_eq!(c.align_alloc.bytes(), 256);
    }

    #[test]
    fn unset_bind_with_places_becomes_spread() {
        let mut c = TuningConfig::default_for(Arch::Milan, 96);
        assert_eq!(c.effective_bind(), EffectiveBind::None);
        c.places = OmpPlaces::Cores;
        assert_eq!(c.effective_bind(), EffectiveBind::Spread);
    }

    #[test]
    fn explicit_binds_pass_through() {
        let mut c = TuningConfig::default_for(Arch::Milan, 96);
        c.proc_bind = OmpProcBind::Master;
        assert_eq!(c.effective_bind(), EffectiveBind::Master);
        c.proc_bind = OmpProcBind::False;
        c.places = OmpPlaces::Cores;
        assert_eq!(c.effective_bind(), EffectiveBind::None);
        c.proc_bind = OmpProcBind::True;
        assert_eq!(c.effective_bind(), EffectiveBind::Close);
    }

    #[test]
    fn wait_policy_derivation() {
        let mut c = TuningConfig::default_for(Arch::A64fx, 48);
        assert_eq!(
            c.wait_policy(),
            WaitPolicy::SpinThenSleep {
                millis: 200,
                yielding: true
            }
        );
        c.blocktime = KmpBlocktime::Zero;
        assert_eq!(c.wait_policy(), WaitPolicy::Passive);
        c.blocktime = KmpBlocktime::Infinite;
        c.library = KmpLibrary::Turnaround;
        assert_eq!(c.wait_policy(), WaitPolicy::Active { yielding: false });
    }

    #[test]
    fn reduction_heuristic_thresholds() {
        assert_eq!(ReductionMethod::heuristic(1), ReductionMethod::None);
        assert_eq!(ReductionMethod::heuristic(2), ReductionMethod::Critical);
        assert_eq!(ReductionMethod::heuristic(4), ReductionMethod::Critical);
        assert_eq!(ReductionMethod::heuristic(5), ReductionMethod::Tree);
        assert_eq!(ReductionMethod::heuristic(96), ReductionMethod::Tree);
    }

    #[test]
    fn forced_reduction_overrides_heuristic() {
        let mut c = TuningConfig::default_for(Arch::Milan, 96);
        c.force_reduction = KmpForceReduction::Atomic;
        assert_eq!(c.reduction_method(), ReductionMethod::Atomic);
    }

    #[test]
    fn env_roundtrip_default() {
        let c = TuningConfig::default_for(Arch::Milan, 48);
        let env = c.to_env();
        // Unset variables must be absent, like a real job script.
        assert!(!env.contains_key("OMP_PLACES"));
        assert!(!env.contains_key("OMP_PROC_BIND"));
        assert!(!env.contains_key("KMP_FORCE_REDUCTION"));
        assert_eq!(TuningConfig::from_env(&env, Arch::Milan), Ok(c));
    }

    #[test]
    fn env_roundtrip_fully_set() {
        let c = TuningConfig {
            places: OmpPlaces::LlCaches,
            proc_bind: OmpProcBind::Spread,
            schedule: OmpSchedule::Guided,
            library: KmpLibrary::Turnaround,
            blocktime: KmpBlocktime::Infinite,
            force_reduction: KmpForceReduction::Tree,
            align_alloc: KmpAlignAlloc(512),
            num_threads: 17,
        };
        let mut env = c.to_env();
        // The whole map, as the parent of the variable table wrote it.
        let text: Vec<String> = env.iter().map(|(k, v)| format!("{k}={v}")).collect();
        assert_eq!(
            text.join(" "),
            "KMP_ALIGN_ALLOC=512 KMP_BLOCKTIME=infinite KMP_FORCE_REDUCTION=tree \
             KMP_LIBRARY=turnaround OMP_NUM_THREADS=17 OMP_PLACES=ll_caches \
             OMP_PROC_BIND=spread OMP_SCHEDULE=guided"
        );
        assert_eq!(TuningConfig::from_env(&env, Arch::Skylake), Ok(c));
        // A value that does not parse is reported by the variable's name,
        // the first one in table order.
        env.insert("KMP_LIBRARY".into(), "serial".into());
        env.remove("OMP_NUM_THREADS");
        let failed = TuningConfig::from_env(&env, Arch::Skylake);
        assert_eq!(failed, Err("KMP_LIBRARY"));
        env.remove("KMP_LIBRARY");
        let failed = TuningConfig::from_env(&env, Arch::Skylake);
        assert_eq!(failed, Err("OMP_NUM_THREADS"));
    }

    #[test]
    fn plan_projection_ignores_pricing_variables() {
        let a = TuningConfig::default_for(Arch::Milan, 96);
        let mut b = a;
        b.blocktime = KmpBlocktime::Zero;
        b.align_alloc = KmpAlignAlloc(512);
        b.force_reduction = KmpForceReduction::Atomic;
        assert_eq!(a.plan_projection(), b.plan_projection());
        // Structure-changing variables must show up in the projection.
        b.schedule = OmpSchedule::Dynamic;
        assert_ne!(a.plan_projection(), b.plan_projection());
        let mut c = a;
        c.library = KmpLibrary::Turnaround;
        assert_ne!(a.plan_projection(), c.plan_projection());
        // A configuration and its rewrite under each of `canonical()`'s
        // four rules share one projection.
        let placed = TuningConfig {
            places: OmpPlaces::Cores,
            ..a
        };
        let bound = |proc_bind| TuningConfig {
            proc_bind,
            ..placed
        };
        let auto = TuningConfig {
            schedule: OmpSchedule::Auto,
            ..a
        };
        for (from, to) in [
            (auto, a),
            (bound(OmpProcBind::True), bound(OmpProcBind::Close)),
            (bound(OmpProcBind::False), a),
            (bound(OmpProcBind::Spread), placed),
        ] {
            assert_ne!(from, to);
            assert_eq!(from.plan_projection(), to.plan_projection(), "{from:?}");
        }
    }

    #[test]
    fn canonical_is_idempotent_and_keeps_the_derived_semantics() {
        for arch in Arch::ALL {
            for threads in [1, 3, arch.cores()] {
                for c in crate::space::ConfigSpace::new(arch, threads).iter() {
                    let k = c.canonical();
                    assert_eq!(k.canonical(), k, "{} is not a fixpoint", k.describe());
                    assert_eq!(k.effective_bind(), c.effective_bind());
                    assert_eq!(k.wait_policy(), c.wait_policy());
                    assert_eq!(k.reduction_method(), c.reduction_method());
                    assert_eq!(k.align_alloc, c.align_alloc);
                }
            }
        }
    }

    #[test]
    fn describe_matches_the_parents_literal() {
        // `ompprof diff` side headers carry the knobs, logs the whole line.
        let c = crate::space::ConfigSpace::new(Arch::Milan, 24).get(4861);
        let knobs = "places=ll_caches bind=unset sched=guided lib=turnaround blocktime=0 \
                     red=atomic align=128";
        assert_eq!(c.unwrap().describe_knobs(), knobs);
        assert_eq!(c.unwrap().describe(), format!("{knobs} threads=24"));
    }
}
