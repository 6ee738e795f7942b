//! The plan/price split: reusable simulation plans and a projection-keyed
//! plan cache.
//!
//! A full-factorial sweep visits thousands of configurations per
//! `(arch, app, thread-count)` cell, but most of them differ only in the
//! *pricing* variables — `KMP_BLOCKTIME`, `KMP_ALIGN_ALLOC`,
//! `KMP_FORCE_REDUCTION` — which never change how iterations are chunked,
//! where threads land, or who steals from whom. [`RegionPlan`] captures
//! everything that depends on the [`PlanProjection`]
//! (schedule, places, proc-bind, library, thread count) plus the model
//! and seed; [`RegionPlan::price`] then replays the cheap constants for
//! one concrete configuration.
//!
//! **Bit-identity contract.** `RegionPlan::build(..).price(tuning)` must
//! produce a [`SimResult`] bit-identical to
//! [`crate::exec::simulate_monolithic`] for every configuration — the
//! plan stores the exact f64 addends the monolithic path would apply and
//! pricing replays its accumulation order verbatim. The property tests in
//! `tests/properties.rs` pin this.
//!
//! **Shared planning work.** No planning step reads a whole projection:
//! phase skeletons read none of it, the thread environment reads only
//! the placement, loop regions ignore `library` and task regions ignore
//! `schedule`. The plans of one [`PlanCache`] are therefore assembled
//! from one `PlanShared`, which computes each of those parts once
//! (DESIGN §8.1 has the table and the 78 → ≤30/≤20 bound).

use crate::costs;
use crate::exec::{
    machine_for, plan_loop_with, plan_tasks_with, price_loop, price_tasks, thread_env,
    LoopSkeleton, PlannedRegion, SimResult, TaskSkeleton, ThreadEnv, TimeBreakdown,
};
use crate::model::{Model, Phase};
use archsim::{MachineDesc, Topology};
use omptune_core::placement::Placement;
use omptune_core::{Arch, KmpLibrary, PlanProjection, TuningConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The projection-independent part of one phase of one simulated step.
enum Skeleton {
    Serial { ns: f64 },
    Loop(LoopSkeleton),
    Tasks(TaskSkeleton),
}

/// Everything planned under one thread environment (one or more
/// placements): the environment and the write-once regions, filled by
/// whichever projection needs one first and read by all the others.
struct Placed {
    env: ThreadEnv,
    /// Per loop skeleton in (step, phase) order, by schedule: a
    /// projection's is canonical, so never `Auto`.
    loops: Vec<[OnceLock<PlannedRegion>; 3]>,
    /// Per task skeleton in (step, phase) order, by `yielding`.
    tasks: Vec<[OnceLock<PlannedRegion>; 2]>,
}

/// The machine and, per simulated step (cold, then warm when the model
/// has more than one timestep), the skeleton of every phase.
struct Skeletons {
    topo: Topology,
    steps: Vec<Vec<Skeleton>>,
}

impl Skeletons {
    fn new(arch: Arch, model: &Model, seed: u64) -> Skeletons {
        let topo = Topology::new(machine_for(arch));
        let sim_steps: u64 = if model.timesteps > 1 { 2 } else { 1 };
        let steps = (0..sim_steps)
            .map(|step| {
                model
                    .phases
                    .iter()
                    .enumerate()
                    .map(|(pi, phase)| {
                        let phase_seed = seed ^ (step << 32) ^ pi as u64;
                        match phase {
                            Phase::Serial { ns } => Skeleton::Serial { ns: *ns },
                            Phase::Loop(l) => {
                                Skeleton::Loop(LoopSkeleton::new(l, topo.machine(), phase_seed))
                            }
                            Phase::Tasks(tp) => Skeleton::Tasks(TaskSkeleton::new(tp, phase_seed)),
                        }
                    })
                    .collect()
            })
            .collect();
        Skeletons { topo, steps }
    }
}

/// The planning work the projections of one `(arch, model, seed)` share:
/// phase skeletons, and per thread environment the planned regions.
/// Every stored value comes from the same expression
/// [`crate::exec::simulate_monolithic`] evaluates, so a plan assembled
/// from it is bit-identical whichever projection computed each part.
pub(crate) struct PlanShared {
    arch: Arch,
    seed: u64,
    model_name: String,
    timesteps: u32,
    migration_sensitivity: f64,
    /// Computed by the first build, so a cache that only ever answers
    /// from a warm sample cache (no builds) never pays for them.
    skeletons: OnceLock<Skeletons>,
    /// Looked up by the computed placement itself (with the thread count
    /// an unbound placement does not carry); shared by thread
    /// environment, so two placements whose threads land alike alias
    /// one `Placed`. A handful of entries: searched, not hashed.
    placed: Mutex<Vec<(usize, Placement, Arc<Placed>)>>,
}

impl PlanShared {
    fn new(arch: Arch, model: &Model, seed: u64) -> PlanShared {
        PlanShared {
            arch,
            seed,
            model_name: model.name.clone(),
            timesteps: model.timesteps,
            migration_sensitivity: model.migration_sensitivity,
            skeletons: OnceLock::new(),
            placed: Mutex::new(Vec::new()),
        }
    }

    /// The machine every plan of this state is planned and priced on.
    fn machine(&self) -> &MachineDesc {
        let built = self.skeletons.get();
        built.expect("plans come after skeletons").topo.machine()
    }

    /// The placement state for `projection` — the one lock a plan build
    /// takes; the regions behind it are lock-free once filled.
    fn placed_for(&self, projection: &PlanProjection, skeletons: &Skeletons) -> Arc<Placed> {
        // Planning config: projection fields forced, pricing fields at
        // their defaults — the planning passes never read them.
        let planning = TuningConfig {
            places: projection.places,
            proc_bind: projection.proc_bind,
            schedule: projection.schedule,
            library: projection.library,
            num_threads: projection.num_threads,
            ..TuningConfig::default_for(self.arch, projection.num_threads)
        };
        let t = projection.num_threads;
        let placement = Placement::compute(self.arch, &planning);
        let mut placed = self.placed.lock().expect("plan memo poisoned");
        if let Some((.., hit)) = placed.iter().find(|(n, p, _)| *n == t && *p == placement) {
            return Arc::clone(hit);
        }
        // A new placement may still land every thread where an earlier
        // one did: the planners read only the environment, so it shares
        // that placement's regions.
        let env = thread_env(&placement, t, &skeletons.topo);
        let shared = match placed.iter().find(|(.., p)| p.env == env) {
            Some((.., alike)) => Arc::clone(alike),
            None => {
                let phases = || skeletons.steps.iter().flatten();
                Arc::new(Placed {
                    env,
                    loops: phases()
                        .filter(|s| matches!(s, Skeleton::Loop(_)))
                        .map(|_| Default::default())
                        .collect(),
                    tasks: phases()
                        .filter(|s| matches!(s, Skeleton::Tasks(_)))
                        .map(|_| Default::default())
                        .collect(),
                })
            }
        };
        placed.push((t, placement, Arc::clone(&shared)));
        shared
    }
}

#[cfg(test)]
impl PlanShared {
    /// The distinct thread environments so far: one `Placed` per
    /// environment, however many placements alias it.
    fn environments(&self) -> Vec<Arc<Placed>> {
        let mut distinct: Vec<Arc<Placed>> = Vec::new();
        for (.., p) in self.placed.lock().expect("plan memo poisoned").iter() {
            if !distinct.iter().any(|d| Arc::ptr_eq(d, p)) {
                distinct.push(Arc::clone(p));
            }
        }
        distinct
    }

    /// How many regions have actually been planned so far, per
    /// (step, phase) slot, summed over environments and classes.
    fn planned_per_slot(&self) -> Vec<usize> {
        fn filled(slots: &[OnceLock<PlannedRegion>]) -> usize {
            slots.iter().filter(|region| region.get().is_some()).count()
        }
        let placed = self.environments();
        let skeletons = self.skeletons.get().expect("nothing built yet");
        let (mut li, mut ti) = (0, 0);
        let phases = skeletons.steps.iter().flatten();
        phases
            .map(|skeleton| match skeleton {
                Skeleton::Serial { .. } => 0,
                Skeleton::Loop(_) => {
                    li += 1;
                    placed.iter().map(|p| filled(&p.loops[li - 1])).sum()
                }
                Skeleton::Tasks(_) => {
                    ti += 1;
                    placed.iter().map(|p| filled(&p.tasks[ti - 1])).sum()
                }
            })
            .collect()
    }
}

/// Which pricing a planned region takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegionKind {
    Loop,
    Tasks,
}

/// One phase of a planned timestep.
#[derive(Debug, Clone, PartialEq)]
enum PhasePlan {
    Serial {
        ns: f64,
    },
    Region {
        /// Phase index in the model (the virtual span's argument).
        pi: usize,
        kind: RegionKind,
        planned: PlannedRegion,
        /// Reduction clauses (loop regions only; zero for task regions).
        reductions: u32,
        /// Serial idle time accumulated since the previous region ended —
        /// the wake-up latency input. Price-independent: serial phases
        /// and region boundaries are plan structure, so this is
        /// precomputed exactly as the monolithic path threads it.
        idle_before: f64,
    },
}

/// One planned timestep: the phase sequence with all schedule-dependent
/// structure resolved.
#[derive(Debug, Clone, PartialEq)]
struct StepPlan {
    phases: Vec<PhasePlan>,
    regions: u64,
}

/// Priced outcome of one step (mirrors the monolithic `StepOutcome`,
/// minus the idle threading which the plan already resolved).
struct PricedStep {
    ns: f64,
    bd: TimeBreakdown,
    regions: u64,
}

/// The reusable, schedule-dependent part of a simulation: everything
/// [`crate::exec::simulate_monolithic`] computes that depends only on
/// `(arch, plan projection, model, seed)`.
pub struct RegionPlan {
    projection: PlanProjection,
    /// One entry for the cold step; a second for the warm step when the
    /// model has more than one timestep.
    steps: Vec<StepPlan>,
    /// The state the plan was assembled from: machine, model identity.
    shared: Arc<PlanShared>,
}

impl RegionPlan {
    /// Plan the cold and warm timesteps for `projection` on `arch`, from
    /// a fresh planning state (nothing shared with any other plan).
    pub fn build(arch: Arch, projection: PlanProjection, model: &Model, seed: u64) -> RegionPlan {
        let shared = Arc::new(PlanShared::new(arch, model, seed));
        RegionPlan::build_with(&shared, projection, model)
    }

    /// Assemble the plan for `projection` from `shared`, computing only
    /// the regions no earlier projection has planned.
    fn build_with(
        shared: &Arc<PlanShared>,
        projection: PlanProjection,
        model: &Model,
    ) -> RegionPlan {
        let skeletons = shared
            .skeletons
            .get_or_init(|| Skeletons::new(shared.arch, model, shared.seed));
        let placed = shared.placed_for(&projection, skeletons);
        let machine = skeletons.topo.machine();
        let t = projection.num_threads;
        let yielding = projection.library == KmpLibrary::Throughput;

        let mut steps = Vec::with_capacity(skeletons.steps.len());
        let mut loops = placed.loops.iter();
        let mut tasks = placed.tasks.iter();
        // Idle-time threading across steps reproduces the monolithic
        // chain: INFINITY before the very first region (cold team), then
        // trailing serial time carries into the next step.
        let mut idle_since_region = f64::INFINITY;
        for step in &skeletons.steps {
            let mut phases = Vec::with_capacity(step.len());
            let mut regions = 0u64;
            for (pi, skeleton) in step.iter().enumerate() {
                let (kind, planned, reductions) = match skeleton {
                    Skeleton::Serial { ns } => {
                        idle_since_region += ns;
                        phases.push(PhasePlan::Serial { ns: *ns });
                        continue;
                    }
                    Skeleton::Loop(l) => {
                        let by_schedule = loops.next().expect("one entry per loop skeleton");
                        let planned = by_schedule[projection.schedule as usize].get_or_init(|| {
                            plan_loop_with(
                                l,
                                t,
                                projection.schedule,
                                machine,
                                &placed.env,
                                shared.migration_sensitivity,
                            )
                        });
                        (RegionKind::Loop, *planned, l.reductions())
                    }
                    Skeleton::Tasks(tp) => {
                        let by_yielding = tasks.next().expect("one entry per task skeleton");
                        let planned = by_yielding[usize::from(yielding)]
                            .get_or_init(|| plan_tasks_with(tp, t, yielding, machine, &placed.env));
                        (RegionKind::Tasks, *planned, 0)
                    }
                };
                phases.push(PhasePlan::Region {
                    pi,
                    kind,
                    planned,
                    reductions,
                    idle_before: idle_since_region,
                });
                idle_since_region = 0.0;
                regions += 1;
            }
            steps.push(StepPlan { phases, regions });
        }
        RegionPlan {
            projection,
            steps,
            shared: Arc::clone(shared),
        }
    }

    /// Price the plan under one concrete configuration. `tuning` must
    /// project onto this plan's [`PlanProjection`].
    pub fn price(&self, tuning: &TuningConfig) -> SimResult {
        debug_assert_eq!(
            tuning.plan_projection(),
            self.projection,
            "priced config must match the plan projection"
        );
        let machine = self.shared.machine();
        let policy = tuning.wait_policy();

        let mut total = 0.0f64;
        let mut bd = TimeBreakdown::default();
        let mut regions = 0u64;

        let s0 = self.price_step(0, tuning, machine, policy, 0.0);
        total += s0.ns;
        bd.add_scaled(&s0.bd, 1.0);
        regions += s0.regions;

        let timesteps = self.shared.timesteps;
        if timesteps > 1 {
            let s1 = self.price_step(1, tuning, machine, policy, s0.ns);
            let reps = (timesteps - 1) as f64;
            total += s1.ns * reps;
            bd.add_scaled(&s1.bd, reps);
            regions += s1.regions * (timesteps as u64 - 1);
        }

        SimResult {
            total_ns: total,
            breakdown: bd,
            regions,
        }
    }

    /// Price one planned step, replaying `simulate_step`'s accumulation
    /// order exactly.
    fn price_step(
        &self,
        idx: usize,
        tuning: &TuningConfig,
        machine: &MachineDesc,
        policy: omptune_core::WaitPolicy,
        base_ns: f64,
    ) -> PricedStep {
        let step = &self.steps[idx];
        let t = tuning.num_threads;
        let mut bd = TimeBreakdown::default();
        let mut total = 0.0f64;
        for phase in &step.phases {
            match phase {
                PhasePlan::Serial { ns } => {
                    total += ns;
                    bd.serial_ns += ns;
                }
                PhasePlan::Region {
                    pi,
                    kind,
                    planned,
                    reductions,
                    idle_before,
                } => {
                    let wake = costs::region_wake_ns(machine, policy, *idle_before, t);
                    let fork = costs::fork_ns(t);
                    let span = match kind {
                        RegionKind::Tasks => price_tasks(planned, tuning, machine, &mut bd),
                        RegionKind::Loop => {
                            price_loop(planned, *reductions, tuning, machine, &mut bd)
                        }
                    };
                    bd.wake_ns += wake;
                    bd.sync_ns += fork;
                    omptel::add(omptel::Counter::Regions, 1);
                    omptel::virtual_span(
                        omptel::SpanKind::SimRegion,
                        (base_ns + total) as u64,
                        (wake + fork + span) as u64,
                        *pi as u64,
                    );
                    total += wake + fork + span;
                }
            }
        }
        PricedStep {
            ns: total,
            bd,
            regions: step.regions,
        }
    }

    /// Price the plan for every configuration in `tunings` at once,
    /// bit-identical to calling [`RegionPlan::price`] per config (the
    /// property tests pin this). Results are appended to `out` in input
    /// order.
    ///
    /// When no telemetry session or flight recording is live, this runs
    /// a struct-of-arrays fast path: the per-region plan addends are
    /// walked once per phase with a config-inner accumulation loop, so
    /// one plan fetch prices the whole group and the inner loops
    /// auto-vectorize. Per-config FP accumulation order is unchanged —
    /// only the loop nest is transposed — so every result is bit-equal
    /// to the sequential path. With telemetry or tracing active it
    /// falls back to per-config [`RegionPlan::price`] so event order
    /// (virtual spans, counters) is identical to the one-at-a-time path.
    pub fn price_batch(
        &self,
        tunings: &[TuningConfig],
        scratch: &mut PriceScratch,
        out: &mut Vec<SimResult>,
    ) {
        if tunings.is_empty() {
            return;
        }
        if omptel::enabled() || omptel::tracing() {
            for t in tunings {
                let _s = omptel::span(omptel::SpanKind::Price, 0);
                out.push(self.price(t));
            }
            return;
        }
        let n = tunings.len();
        let machine = self.shared.machine();
        let t = self.projection.num_threads;
        scratch.reset(n);

        // Per-config pricing constants. Within one projection only
        // blocktime / force_reduction / align_alloc vary, so there are
        // at most 3 distinct wait policies to wake-cost per region.
        for (c, tuning) in tunings.iter().enumerate() {
            debug_assert_eq!(
                tuning.plan_projection(),
                self.projection,
                "batched config must match the plan projection"
            );
            let policy = tuning.wait_policy();
            let p = match scratch.policies.iter().position(|&q| q == policy) {
                Some(p) => p,
                None => {
                    scratch.policies.push(policy);
                    scratch.policies.len() - 1
                }
            };
            scratch.policy_of[c] = p as u8;
            scratch.barrier[c] = costs::barrier_ns(t, machine, tuning.align_alloc);
            let heuristic_pick = tuning.force_reduction == omptune_core::KmpForceReduction::Unset;
            scratch.red_unit[c] = costs::reduction_ns(
                tuning.reduction_method(),
                t,
                machine,
                tuning.align_alloc,
                heuristic_pick,
            );
        }
        let fork = costs::fork_ns(t);

        for (idx, step) in self.steps.iter().enumerate() {
            let acc = &mut scratch.acc[idx];
            for phase in &step.phases {
                match phase {
                    PhasePlan::Serial { ns } => {
                        for c in 0..n {
                            acc.total[c] += ns;
                            acc.serial[c] += ns;
                        }
                    }
                    PhasePlan::Region {
                        kind,
                        planned,
                        reductions,
                        idle_before,
                        ..
                    } => {
                        scratch.wake_of.clear();
                        for &policy in &scratch.policies {
                            scratch.wake_of.push(costs::region_wake_ns(
                                machine,
                                policy,
                                *idle_before,
                                t,
                            ));
                        }
                        let wake_of = &scratch.wake_of;
                        let pol = &scratch.policy_of;
                        if planned.empty {
                            // price_loop/price_tasks return 0.0 without
                            // touching the breakdown; only wake + fork
                            // are charged (span contributes +0.0, which
                            // is exact on the non-negative sum).
                            for c in 0..n {
                                let wk = wake_of[pol[c] as usize];
                                acc.wake[c] += wk;
                                acc.sync[c] += fork;
                                acc.total[c] += wk + fork;
                            }
                        } else if *kind == RegionKind::Tasks {
                            let span = planned.span;
                            for c in 0..n {
                                let wk = wake_of[pol[c] as usize];
                                let bar = scratch.barrier[c];
                                acc.compute[c] += planned.compute_add;
                                acc.memory[c] += planned.memory_add;
                                acc.dispatch[c] += planned.dispatch_add;
                                acc.sync[c] += bar;
                                acc.wake[c] += wk;
                                acc.sync[c] += fork;
                                acc.total[c] += wk + fork + (span + bar);
                            }
                        } else {
                            let span = planned.span;
                            let red_count = *reductions as f64;
                            for c in 0..n {
                                let wk = wake_of[pol[c] as usize];
                                let bar = scratch.barrier[c];
                                let red = red_count * scratch.red_unit[c];
                                acc.compute[c] += planned.compute_add;
                                acc.memory[c] += planned.memory_add;
                                acc.dispatch[c] += planned.dispatch_add;
                                acc.sync[c] += bar + red;
                                acc.wake[c] += wk;
                                acc.sync[c] += fork;
                                acc.total[c] += wk + fork + ((span + bar) + red);
                            }
                        }
                    }
                }
            }
        }

        // Combine steps exactly as `price` does: step 0 once, step 1
        // scaled by the remaining timesteps.
        let s0_regions = self.steps[0].regions;
        let timesteps = self.shared.timesteps;
        let (two_steps, reps, s1_regions) = if timesteps > 1 {
            (
                true,
                (timesteps - 1) as f64,
                self.steps[1].regions * (timesteps as u64 - 1),
            )
        } else {
            (false, 0.0, 0)
        };
        for c in 0..n {
            let s0 = &scratch.acc[0];
            let mut total = s0.total[c];
            let mut bd = TimeBreakdown {
                compute_ns: s0.compute[c],
                memory_ns: s0.memory[c],
                sync_ns: s0.sync[c],
                wake_ns: s0.wake[c],
                dispatch_ns: s0.dispatch[c],
                serial_ns: s0.serial[c],
            };
            if two_steps {
                let s1 = &scratch.acc[1];
                total += s1.total[c] * reps;
                bd.compute_ns += s1.compute[c] * reps;
                bd.memory_ns += s1.memory[c] * reps;
                bd.sync_ns += s1.sync[c] * reps;
                bd.wake_ns += s1.wake[c] * reps;
                bd.dispatch_ns += s1.dispatch[c] * reps;
                bd.serial_ns += s1.serial[c] * reps;
            }
            out.push(SimResult {
                total_ns: total,
                breakdown: bd,
                regions: s0_regions + s1_regions,
            });
        }
    }
}

/// One step's struct-of-arrays accumulators: one lane per batched
/// config, one array per breakdown sink (plus the running total).
#[derive(Default)]
struct StepAcc {
    total: Vec<f64>,
    compute: Vec<f64>,
    memory: Vec<f64>,
    sync: Vec<f64>,
    wake: Vec<f64>,
    dispatch: Vec<f64>,
    serial: Vec<f64>,
}

impl StepAcc {
    fn reset(&mut self, n: usize) {
        for v in [
            &mut self.total,
            &mut self.compute,
            &mut self.memory,
            &mut self.sync,
            &mut self.wake,
            &mut self.dispatch,
            &mut self.serial,
        ] {
            v.clear();
            v.resize(n, 0.0);
        }
    }
}

/// Reusable scratch buffers for [`RegionPlan::price_batch`]: workers
/// keep one per thread so steady-state batch pricing allocates nothing.
#[derive(Default)]
pub struct PriceScratch {
    policies: Vec<omptune_core::WaitPolicy>,
    policy_of: Vec<u8>,
    barrier: Vec<f64>,
    red_unit: Vec<f64>,
    wake_of: Vec<f64>,
    acc: [StepAcc; 2],
}

impl PriceScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> PriceScratch {
        PriceScratch::default()
    }

    fn reset(&mut self, n: usize) {
        self.policies.clear();
        self.policy_of.clear();
        self.policy_of.resize(n, 0);
        self.barrier.clear();
        self.barrier.resize(n, 0.0);
        self.red_unit.clear();
        self.red_unit.resize(n, 0.0);
        for acc in &mut self.acc {
            acc.reset(n);
        }
    }
}

/// In-memory plan cache for one `(arch, model, seed)` batch: maps each
/// [`PlanProjection`] to its shared [`RegionPlan`], built exactly once.
/// Thread-safe; hit and miss counts are tracked locally (always) and
/// mirrored into the `omptel` counters when a telemetry session is
/// active.
pub struct PlanCache {
    /// Who the cache is for, and — from the first miss on — the
    /// planning work its plans share.
    shared: Arc<PlanShared>,
    /// Per key, the plan once its one build is done; a concurrent probe
    /// of the same key waits for that build.
    plans: Mutex<HashMap<PlanProjection, Arc<OnceLock<Arc<RegionPlan>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Empty cache for simulations of `model` on `arch` with `seed`.
    pub fn new(arch: Arch, model: &Model, seed: u64) -> PlanCache {
        PlanCache {
            shared: Arc::new(PlanShared::new(arch, model, seed)),
            plans: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Build the plan for `key` from the cache's shared planning state.
    fn build(&self, key: PlanProjection, model: &Model) -> Arc<RegionPlan> {
        let _s = omptel::span(omptel::SpanKind::PlanBuild, 0);
        Arc::new(RegionPlan::build_with(&self.shared, key, model))
    }

    /// The plan for `tuning`'s projection, building it on first use: a
    /// group of one.
    pub fn plan(&self, tuning: &TuningConfig, model: &Model) -> Arc<RegionPlan> {
        self.plan_batch(tuning, model, 1)
    }

    /// The plan for a whole group of `group` configurations sharing
    /// `tuning`'s projection — one cache probe for the group, counted
    /// exactly as `group` per-config [`PlanCache::plan`] calls would be
    /// (a cached plan scores `group` hits; a build scores one miss plus
    /// `group - 1` hits), so hit-rate telemetry is unchanged by
    /// batching. A probe that finds its key's build under way waits for
    /// it and scores hits, so each key is built exactly once.
    pub fn plan_batch(&self, tuning: &TuningConfig, model: &Model, group: u64) -> Arc<RegionPlan> {
        debug_assert!(group >= 1, "a plan group holds at least one config");
        debug_assert_eq!(
            model.name, self.shared.model_name,
            "plan cache is per (arch, model, seed)"
        );
        let key = tuning.plan_projection();
        let slot = Arc::clone(
            self.plans
                .lock()
                .expect("plan cache poisoned")
                .entry(key)
                .or_default(),
        );
        let mut built = false;
        let plan = slot.get_or_init(|| {
            built = true;
            self.build(key, model)
        });
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
            omptel::add(omptel::Counter::PlanCacheMisses, 1);
            if group > 1 {
                self.hits.fetch_add(group - 1, Ordering::Relaxed);
                omptel::add(omptel::Counter::PlanCacheHits, group - 1);
            }
        } else {
            self.hits.fetch_add(group, Ordering::Relaxed);
            omptel::add(omptel::Counter::PlanCacheHits, group);
            omptel::instant(omptel::SpanKind::PlanHit, group);
        }
        Arc::clone(plan)
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of distinct projections planned (or being planned).
    pub fn len(&self) -> usize {
        self.plans.lock().expect("plan cache poisoned").len()
    }

    /// Whether no plan has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// [`crate::exec::simulate`] through a [`PlanCache`]: identical results,
/// amortized planning. The cache must have been created for the same
/// `(arch, model, seed)`.
pub fn simulate_with_cache(
    arch: Arch,
    tuning: &TuningConfig,
    model: &Model,
    seed: u64,
    cache: &PlanCache,
) -> SimResult {
    debug_assert_eq!(arch, cache.shared.arch, "cache built for a different arch");
    debug_assert_eq!(seed, cache.shared.seed, "cache built for a different seed");
    let plan = cache.plan(tuning, model);
    let _s = omptel::span(omptel::SpanKind::Price, 0);
    plan.price(tuning)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{simulate, simulate_monolithic};
    use crate::model::{AccessPattern, Imbalance, LoopPhase, TaskPhase};
    use omptune_core::{
        KmpAlignAlloc, KmpBlocktime, KmpForceReduction, KmpLibrary, OmpPlaces, OmpProcBind,
        OmpSchedule,
    };

    fn mixed_model() -> Model {
        Model {
            name: "mixed".into(),
            phases: vec![
                Phase::Loop(LoopPhase {
                    iters: 40_000,
                    cycles_per_iter: 180.0,
                    bytes_per_iter: 64.0,
                    access: AccessPattern::Streaming,
                    imbalance: Imbalance::Random { cv: 0.4 },
                    reductions: 2,
                }),
                Phase::Serial { ns: 8_000.0 },
                Phase::Tasks(TaskPhase {
                    n_tasks: 5_000,
                    cycles_per_task: 700.0,
                    cv: 0.3,
                    starvation: 0.4,
                    bytes_per_task: 16.0,
                }),
            ],
            timesteps: 6,
            migration_sensitivity: 0.7,
        }
    }

    #[test]
    fn planned_price_is_bit_identical_to_monolithic() {
        let _tel = crate::tel_shared();
        let m = mixed_model();
        for arch in [Arch::A64fx, Arch::Skylake, Arch::Milan] {
            let mut c = TuningConfig::default_for(arch, 24);
            c.schedule = OmpSchedule::Guided;
            c.places = OmpPlaces::Cores;
            let planned = simulate(arch, &c, &m, 11);
            let mono = simulate_monolithic(arch, &c, &m, 11);
            assert_eq!(planned, mono, "{arch:?}");
            assert_eq!(planned.total_ns.to_bits(), mono.total_ns.to_bits());
        }
    }

    #[test]
    fn one_plan_prices_every_pricing_variant_identically() {
        let _tel = crate::tel_shared();
        let m = mixed_model();
        let arch = Arch::Skylake;
        let cache = PlanCache::new(arch, &m, 5);
        let mut count = 0;
        for blocktime in [
            KmpBlocktime::Zero,
            KmpBlocktime::Default200,
            KmpBlocktime::Infinite,
        ] {
            for force in [
                KmpForceReduction::Unset,
                KmpForceReduction::Tree,
                KmpForceReduction::Critical,
                KmpForceReduction::Atomic,
            ] {
                for align in [KmpAlignAlloc(64), KmpAlignAlloc(4096)] {
                    let mut c = TuningConfig::default_for(arch, 20);
                    c.schedule = OmpSchedule::Dynamic;
                    c.blocktime = blocktime;
                    c.force_reduction = force;
                    c.align_alloc = align;
                    let cached = simulate_with_cache(arch, &c, &m, 5, &cache);
                    let mono = simulate_monolithic(arch, &c, &m, 5);
                    assert_eq!(
                        cached.total_ns.to_bits(),
                        mono.total_ns.to_bits(),
                        "bt={blocktime:?} fr={force:?} al={align:?}"
                    );
                    assert_eq!(cached, mono);
                    count += 1;
                }
            }
        }
        // All 24 pricing variants share one plan.
        let (hits, misses) = cache.stats();
        assert_eq!(misses, 1);
        assert_eq!(hits, count - 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_projections_get_distinct_plans() {
        let _tel = crate::tel_shared();
        let m = mixed_model();
        let cache = PlanCache::new(Arch::Milan, &m, 0);
        for schedule in [
            OmpSchedule::Static,
            OmpSchedule::Dynamic,
            OmpSchedule::Guided,
        ] {
            for library in [KmpLibrary::Throughput, KmpLibrary::Turnaround] {
                let mut c = TuningConfig::default_for(Arch::Milan, 16);
                c.schedule = schedule;
                c.library = library;
                let a = simulate_with_cache(Arch::Milan, &c, &m, 0, &cache);
                let b = simulate(Arch::Milan, &c, &m, 0);
                assert_eq!(a, b);
            }
        }
        assert_eq!(cache.len(), 6);
    }

    #[test]
    fn cached_simulation_matches_under_concurrency() {
        let _tel = crate::tel_shared();
        let m = std::sync::Arc::new(mixed_model());
        let cache = std::sync::Arc::new(PlanCache::new(Arch::A64fx, &m, 9));
        let configs: Vec<TuningConfig> =
            [OmpProcBind::Unset, OmpProcBind::Close, OmpProcBind::Spread]
                .iter()
                .flat_map(|&pb| {
                    [KmpBlocktime::Zero, KmpBlocktime::Infinite]
                        .iter()
                        .map(move |&bt| {
                            let mut c = TuningConfig::default_for(Arch::A64fx, 12);
                            c.proc_bind = pb;
                            c.places = OmpPlaces::Cores;
                            c.blocktime = bt;
                            c
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
        let expected: Vec<SimResult> = configs
            .iter()
            .map(|c| simulate_monolithic(Arch::A64fx, c, &m, 9))
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = std::sync::Arc::clone(&m);
                let cache = std::sync::Arc::clone(&cache);
                let configs = &configs;
                let expected = &expected;
                s.spawn(move || {
                    for (c, want) in configs.iter().zip(expected) {
                        let got = simulate_with_cache(Arch::A64fx, c, &m, 9, &cache);
                        assert_eq!(&got, want);
                    }
                });
            }
        });
    }

    fn pricing_variants(arch: Arch, t: usize) -> Vec<TuningConfig> {
        let mut out = Vec::new();
        for blocktime in [
            KmpBlocktime::Zero,
            KmpBlocktime::Default200,
            KmpBlocktime::Infinite,
        ] {
            for force in [
                KmpForceReduction::Unset,
                KmpForceReduction::Tree,
                KmpForceReduction::Critical,
                KmpForceReduction::Atomic,
            ] {
                for align in [KmpAlignAlloc(64), KmpAlignAlloc(4096)] {
                    let mut c = TuningConfig::default_for(arch, t);
                    c.schedule = OmpSchedule::Dynamic;
                    c.blocktime = blocktime;
                    c.force_reduction = force;
                    c.align_alloc = align;
                    out.push(c);
                }
            }
        }
        out
    }

    fn assert_bit_equal(a: &SimResult, b: &SimResult, what: &str) {
        assert_eq!(a.total_ns.to_bits(), b.total_ns.to_bits(), "{what}: total");
        assert_eq!(a.regions, b.regions, "{what}: regions");
        let (x, y) = (&a.breakdown, &b.breakdown);
        for (l, r, f) in [
            (x.compute_ns, y.compute_ns, "compute"),
            (x.memory_ns, y.memory_ns, "memory"),
            (x.sync_ns, y.sync_ns, "sync"),
            (x.wake_ns, y.wake_ns, "wake"),
            (x.dispatch_ns, y.dispatch_ns, "dispatch"),
            (x.serial_ns, y.serial_ns, "serial"),
        ] {
            assert_eq!(l.to_bits(), r.to_bits(), "{what}: {f}");
        }
    }

    #[test]
    fn batch_pricing_is_bit_identical_to_sequential() {
        let _tel = crate::tel_shared();
        let m = mixed_model();
        let mut scratch = PriceScratch::new();
        for arch in [Arch::A64fx, Arch::Skylake, Arch::Milan] {
            let variants = pricing_variants(arch, 20);
            let cache = PlanCache::new(arch, &m, 5);
            let plan = cache.plan_batch(&variants[0], &m, variants.len() as u64);
            let mut out = Vec::new();
            plan.price_batch(&variants, &mut scratch, &mut out);
            assert_eq!(out.len(), variants.len());
            for (c, got) in variants.iter().zip(&out) {
                assert_bit_equal(got, &plan.price(c), &format!("{arch:?} {c:?}"));
            }
            // Scratch reuse across a differently-sized batch stays exact.
            let mut out2 = Vec::new();
            plan.price_batch(&variants[..5], &mut scratch, &mut out2);
            for (got, want) in out2.iter().zip(&out[..5]) {
                assert_bit_equal(got, want, "scratch reuse");
            }
        }
    }

    #[test]
    fn plan_batch_counts_like_per_config_plan_calls() {
        let _tel = crate::tel_shared();
        let m = mixed_model();
        let cache = PlanCache::new(Arch::Skylake, &m, 3);
        let c = TuningConfig::default_for(Arch::Skylake, 8);
        // Cold group: one build, the rest of the group are hits.
        cache.plan_batch(&c, &m, 24);
        assert_eq!(cache.stats(), (23, 1));
        // Warm group: all hits.
        cache.plan_batch(&c, &m, 24);
        assert_eq!(cache.stats(), (47, 1));
        assert_eq!(cache.len(), 1);
    }

    /// The 192 raw (places, bind, schedule, library) combinations at one
    /// thread count, in odometer order, with default pricing variables.
    fn all_structures(arch: Arch, t: usize) -> Vec<TuningConfig> {
        let mut out = Vec::with_capacity(192);
        for places in OmpPlaces::ALL {
            for proc_bind in OmpProcBind::ALL {
                for schedule in OmpSchedule::ALL {
                    for library in KmpLibrary::ALL {
                        out.push(TuningConfig {
                            places,
                            proc_bind,
                            schedule,
                            library,
                            ..TuningConfig::default_for(arch, t)
                        });
                    }
                }
            }
        }
        out
    }

    #[test]
    fn planning_state_waits_for_the_first_build() {
        let _tel = crate::tel_shared();
        let m = mixed_model();
        let cache = PlanCache::new(Arch::Milan, &m, 4);
        assert!(cache.shared.skeletons.get().is_none());
        cache.plan(&TuningConfig::default_for(Arch::Milan, 24), &m);
        assert!(cache.shared.skeletons.get().is_some());
    }

    #[test]
    fn full_projection_pass_plans_each_region_class_once_per_thread_environment() {
        let _tel = crate::tel_shared();
        let m = mixed_model();
        let cache = PlanCache::new(Arch::Milan, &m, 4);
        for c in all_structures(Arch::Milan, 24) {
            cache.build(c.plan_projection(), &m);
        }
        // The 24 (places, proc_bind) pairs compute 8 distinct placements
        // here (unbound; master, close and spread on each of 3 place
        // granularities, less 2 because close and spread assign alike
        // when 24 threads divide evenly over 12 LLC groups or 2
        // sockets), and those land threads in 7 distinct environments:
        // master on a 48-core socket puts thread i on core i, as close
        // on cores does. x 3 canonical schedules per loop phase, x 2
        // libraries per task phase, on the cold and the warm step: the
        // 78 canonical projections consumed 70 planned regions, not 312.
        // In general at most 10 placements, so at most 30 and 20 per
        // phase.
        assert_eq!(cache.shared.placed.lock().unwrap().len(), 8);
        assert_eq!(cache.shared.environments().len(), 7);
        assert_eq!(cache.shared.planned_per_slot(), [21, 0, 14, 21, 0, 14]);
        // 5 threads on 12 LLC groups tell close from spread again; two
        // sockets never do. Master on an 8-core LLC group, like master
        // on a socket, puts thread i on core i.
        let cache = PlanCache::new(Arch::Milan, &m, 4);
        for c in all_structures(Arch::Milan, 5) {
            cache.build(c.plan_projection(), &m);
        }
        assert_eq!(cache.shared.placed.lock().unwrap().len(), 9);
        assert_eq!(cache.shared.environments().len(), 7);
        assert_eq!(cache.shared.planned_per_slot(), [21, 0, 14, 21, 0, 14]);
    }

    #[test]
    fn placements_that_land_alike_share_one_placed() {
        let _tel = crate::tel_shared();
        let m = mixed_model();
        let arch = Arch::Milan;
        let cache = PlanCache::new(arch, &m, 4);
        let of = |places, proc_bind| TuningConfig {
            places,
            proc_bind,
            schedule: OmpSchedule::Guided,
            ..TuningConfig::default_for(arch, 24)
        };
        let master = of(OmpPlaces::Sockets, OmpProcBind::Master);
        let close = of(OmpPlaces::Cores, OmpProcBind::Close);
        assert_ne!(
            Placement::compute(arch, &master),
            Placement::compute(arch, &close)
        );
        cache.plan(&master, &m);
        cache.plan(&close, &m);
        let memo = cache.shared.placed.lock().unwrap();
        assert_eq!(memo.len(), 2, "one memo entry per placement");
        assert!(Arc::ptr_eq(&memo[0].2, &memo[1].2));
        drop(memo);
        assert_eq!(cache.len(), 2);
        for c in [master, close] {
            let cached = simulate_with_cache(arch, &c, &m, 4, &cache);
            assert_bit_equal(&cached, &simulate_monolithic(arch, &c, &m, 4), "aliased");
        }
    }

    /// A model from generated phase descriptors: `kind` picks the phase
    /// shape, every fifth `size` is an empty (zero-work) phase.
    fn generated_model(phases: &[(u8, u64)], timesteps: u32, loops: bool, tasks: bool) -> Model {
        let phases = phases
            .iter()
            .filter_map(|&(kind, size)| {
                let n = if size % 5 == 0 { 0 } else { size };
                let imbalance = match kind {
                    0 => Imbalance::Uniform,
                    1 => Imbalance::Linear { skew: 1.3 },
                    2 => Imbalance::Random { cv: 0.4 },
                    3 => {
                        return tasks.then_some(Phase::Tasks(TaskPhase {
                            n_tasks: n / 8,
                            cycles_per_task: 900.0,
                            cv: 0.3,
                            starvation: 0.5,
                            bytes_per_task: 24.0,
                        }))
                    }
                    _ => return Some(Phase::Serial { ns: size as f64 }),
                };
                loops.then_some(Phase::Loop(LoopPhase {
                    iters: n,
                    cycles_per_iter: 150.0,
                    bytes_per_iter: 48.0,
                    access: if kind == 1 {
                        AccessPattern::RandomShared {
                            accesses_per_iter: 3.0,
                        }
                    } else {
                        AccessPattern::Streaming
                    },
                    imbalance,
                    reductions: kind as u32,
                }))
            })
            .collect();
        Model {
            name: "generated".into(),
            phases,
            timesteps,
            migration_sensitivity: 0.6,
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// What the region memo's keys leave out, the planner never
        /// reads: plans built from *separate* fresh states are equal
        /// whenever their projections differ only in a field the memo
        /// collapses. (Through one shared state the equality would be
        /// trivial — both plans would read the same slot.)
        #[test]
        fn projections_the_memo_collapses_plan_identically(
            arch in prop_oneof![Just(Arch::A64fx), Just(Arch::Skylake), Just(Arch::Milan)],
            phases in prop::collection::vec((0u8..5, 0u64..60_000), 1..6),
            timesteps in 1u32..4,
            seed in any::<u64>(),
            base in 0usize..192,
            other_schedule in 0usize..4,
            t in 1usize..=48,
        ) {
            let _tel = crate::tel_shared();
            let a = all_structures(arch, t)[base];
            let steps = |c: TuningConfig, m: &Model| {
                RegionPlan::build(arch, c.plan_projection(), m, seed).steps
            };

            // Loop regions never read the library.
            let loops_only = generated_model(&phases, timesteps, true, false);
            let flipped = match a.library {
                KmpLibrary::Throughput => KmpLibrary::Turnaround,
                KmpLibrary::Turnaround => KmpLibrary::Throughput,
            };
            prop_assert!(steps(a, &loops_only) == steps(TuningConfig { library: flipped, ..a }, &loops_only));

            // Task regions never read the schedule.
            let tasks_only = generated_model(&phases, timesteps, false, true);
            let rescheduled = TuningConfig { schedule: OmpSchedule::ALL[other_schedule], ..a };
            prop_assert!(steps(a, &tasks_only) == steps(rescheduled, &tasks_only));

            // Bind-without-places falls back to per-core places.
            let mixed = generated_model(&phases, timesteps, true, true);
            let of = |places| TuningConfig { places, proc_bind: OmpProcBind::Close, ..a };
            prop_assert!(steps(of(OmpPlaces::Unset), &mixed) == steps(of(OmpPlaces::Cores), &mixed));
        }
    }

    #[test]
    fn batch_pricing_matches_across_telemetry_paths() {
        // The telemetry-active fallback (per-config price) and the SoA
        // fast path must agree bit-for-bit.
        let _tel = crate::tel_exclusive();
        let m = mixed_model();
        let variants = pricing_variants(Arch::Milan, 16);
        let cache = PlanCache::new(Arch::Milan, &m, 2);
        let plan = cache.plan_batch(&variants[0], &m, variants.len() as u64);
        let mut scratch = PriceScratch::new();
        let mut fast = Vec::new();
        plan.price_batch(&variants, &mut scratch, &mut fast);
        let session = omptel::session().expect("no other session active");
        let mut slow = Vec::new();
        plan.price_batch(&variants, &mut scratch, &mut slow);
        session.finish();
        assert_eq!(fast.len(), slow.len());
        for (a, b) in fast.iter().zip(&slow) {
            assert_bit_equal(a, b, "telemetry fallback");
        }
    }

    #[test]
    fn plan_cache_counters_reach_telemetry() {
        let _tel = crate::tel_exclusive();
        let m = mixed_model();
        let cache = PlanCache::new(Arch::Skylake, &m, 1);
        let session = omptel::session().expect("no other session active");
        let mut c = TuningConfig::default_for(Arch::Skylake, 8);
        simulate_with_cache(Arch::Skylake, &c, &m, 1, &cache);
        c.blocktime = KmpBlocktime::Zero;
        simulate_with_cache(Arch::Skylake, &c, &m, 1, &cache);
        let counters = session.finish();
        assert_eq!(counters.get(omptel::Counter::PlanCacheMisses), 1);
        assert_eq!(counters.get(omptel::Counter::PlanCacheHits), 1);
    }

    #[test]
    fn tracing_does_not_perturb_results_bitwise() {
        let _tel = crate::tel_exclusive();
        let m = mixed_model();
        let configs: Vec<TuningConfig> = (1..=8)
            .map(|t| TuningConfig::default_for(Arch::A64fx, t))
            .collect();
        // Each config priced twice: the second pass exercises plan-cache
        // hits under tracing.
        let baseline: Vec<SimResult> = {
            let cache = PlanCache::new(Arch::A64fx, &m, 7);
            configs
                .iter()
                .chain(configs.iter())
                .map(|c| simulate_with_cache(Arch::A64fx, c, &m, 7, &cache))
                .collect()
        };
        // Same simulations with the flight recorder and virtual spans on.
        let rec = omptel::Recorder::start(omptel::RecorderOptions {
            sim_spans: true,
            ..omptel::RecorderOptions::default()
        })
        .expect("no live recorder");
        let cache = PlanCache::new(Arch::A64fx, &m, 7);
        let traced: Vec<SimResult> = configs
            .iter()
            .chain(configs.iter())
            .map(|c| simulate_with_cache(Arch::A64fx, c, &m, 7, &cache))
            .collect();
        let recording = rec.finish();
        for (a, b) in baseline.iter().zip(&traced) {
            assert_eq!(a.total_ns.to_bits(), b.total_ns.to_bits());
            assert_eq!(a.regions, b.regions);
            assert_eq!(
                a.breakdown.compute_ns.to_bits(),
                b.breakdown.compute_ns.to_bits()
            );
        }
        // The recorder actually saw the lifecycle: plan builds, prices,
        // plan-cache hits, and virtual-time regions.
        use omptel::{EventKind, SpanKind};
        assert!(recording.count(EventKind::SpanBegin, SpanKind::PlanBuild) >= 1);
        assert_eq!(
            recording.count(EventKind::SpanBegin, SpanKind::Price),
            configs.len() * 2
        );
        assert!(recording.count(EventKind::Instant, SpanKind::PlanHit) >= 1);
        assert!(recording.count(EventKind::VirtualSpan, SpanKind::SimRegion) > 0);
        omptel::validate_trace(&recording).expect("well-nested spans");
    }
}
