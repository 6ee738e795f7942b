//! The simulated runtime executor: runs a [`Model`] under a
//! [`TuningConfig`] on a machine, in virtual time.
//!
//! Execution is chunk-level: each worksharing loop is discretized into at
//! most [`MAX_UNITS`] scheduling units; static blocks and guided steps are
//! the real runtime's (`omptune_core::chunk`, which `omprt::sched` calls
//! too), dynamic/guided assign units greedily to the earliest-free thread exactly as the
//! shared-counter dispatchers do, with per-chunk dispatch costs. All
//! tuning effects — placement/locality, oversubscription, wait-policy
//! wake-ups, reduction methods, allocation alignment — enter through
//! `costs`.
//!
//! **Timestep extrapolation.** Application timesteps are statistically
//! identical; the executor simulates the first (cold) and second (warm)
//! timesteps exactly and extrapolates the rest from the warm one. This
//! keeps a 240k-run sweep in seconds while preserving the cold-start
//! effects (first region pays the full team wake-up).

use crate::costs;
use crate::model::{AccessPattern, Imbalance, LoopPhase, Model, Phase, TaskPhase};
use archsim::{MachineDesc, Topology};
use omptune_core::placement::Placement;
use omptune_core::{chunk, Arch, TuningConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Upper bound on scheduling units per loop phase: enough resolution for
/// imbalance shapes while keeping the sweep cheap.
pub const MAX_UNITS: usize = 512;

/// Breakdown of where simulated time went (one entry per category).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Pure compute, perfectly-parallel part.
    pub compute_ns: f64,
    /// Memory stalls (bandwidth + latency terms).
    pub memory_ns: f64,
    /// Fork, barrier, and reduction synchronization.
    pub sync_ns: f64,
    /// Region-start wake-up latencies.
    pub wake_ns: f64,
    /// Dynamic/guided chunk dispatch and task administration.
    pub dispatch_ns: f64,
    /// Serial (non-parallel) sections.
    pub serial_ns: f64,
}

impl TimeBreakdown {
    pub(crate) fn add_scaled(&mut self, other: &TimeBreakdown, k: f64) {
        self.compute_ns += other.compute_ns * k;
        self.memory_ns += other.memory_ns * k;
        self.sync_ns += other.sync_ns * k;
        self.wake_ns += other.wake_ns * k;
        self.dispatch_ns += other.dispatch_ns * k;
        self.serial_ns += other.serial_ns * k;
    }

    /// The telemetry view of this breakdown. The simulator charges ideal
    /// per-thread time, so the imbalance sink starts at zero here; callers
    /// with a known region total use [`omptel::Breakdown::close_to_total`]
    /// to push the uncharged idle time into it.
    pub fn to_tel(&self) -> omptel::Breakdown {
        omptel::Breakdown {
            compute_ns: self.compute_ns,
            memory_ns: self.memory_ns,
            sync_ns: self.sync_ns,
            wake_ns: self.wake_ns,
            dispatch_ns: self.dispatch_ns,
            serial_ns: self.serial_ns,
            imbalance_ns: 0.0,
        }
    }
}

/// Result of one simulated application run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// End-to-end virtual runtime in nanoseconds.
    pub total_ns: f64,
    pub breakdown: TimeBreakdown,
    /// Number of parallel regions executed.
    pub regions: u64,
}

impl SimResult {
    /// Runtime in seconds.
    pub fn seconds(&self) -> f64 {
        self.total_ns * 1e-9
    }
}

/// The machine description used to simulate `arch`.
pub fn machine_for(arch: Arch) -> MachineDesc {
    match arch {
        Arch::A64fx => MachineDesc::a64fx(),
        Arch::Skylake => MachineDesc::skylake(),
        Arch::Milan => MachineDesc::milan(),
    }
}

/// Per-thread execution environment derived from the placement. Every
/// field is a count or a ratio of counts, so `==` is exact.
#[derive(PartialEq)]
pub(crate) struct ThreadEnv {
    /// Slowdown from core sharing (1.0 = exclusive core).
    speed_div: Vec<f64>,
    /// NUMA node of each thread.
    numa: Vec<usize>,
    /// Threads resident per NUMA node.
    node_threads: Vec<usize>,
    /// Whether threads are bound to places.
    bound: bool,
    /// threads / cores occupancy.
    load: f64,
}

pub(crate) fn thread_env(placement: &Placement, t: usize, topo: &Topology) -> ThreadEnv {
    let machine = topo.machine();
    let mut core_of = vec![0usize; t];
    let bound;
    match placement {
        Placement::Unbound => {
            bound = false;
            // The OS spreads runnable threads across the machine.
            for (i, c) in core_of.iter_mut().enumerate() {
                *c = i * machine.cores / t.max(1);
            }
        }
        Placement::Bound {
            assignment,
            n_places,
            cores_per_place,
        } => {
            bound = true;
            // Within a place, threads round-robin over its cores.
            let mut used = vec![0usize; *n_places];
            for (i, &p) in assignment.iter().enumerate() {
                let k = used[p];
                used[p] += 1;
                core_of[i] = p * cores_per_place + k % cores_per_place;
            }
        }
    }
    // Core sharing: count threads per core.
    let mut per_core = vec![0usize; machine.cores];
    for &c in &core_of {
        per_core[c] += 1;
    }
    let speed_div: Vec<f64> = core_of.iter().map(|&c| per_core[c].max(1) as f64).collect();
    let numa: Vec<usize> = core_of.iter().map(|&c| topo.numa_of(c)).collect();
    let mut node_threads = vec![0usize; machine.numa_nodes];
    for &n in &numa {
        node_threads[n] += 1;
    }
    ThreadEnv {
        speed_div,
        numa,
        node_threads,
        bound,
        load: t as f64 / machine.cores as f64,
    }
}

/// Per-iteration memory time (ns) for thread `i` of the environment.
fn mem_ns_per_iter(
    phase_access: AccessPattern,
    bytes_per_iter: f64,
    env: &ThreadEnv,
    machine: &MachineDesc,
    migration_sensitivity: f64,
    thread: usize,
) -> f64 {
    match phase_access {
        AccessPattern::CacheResident => 0.0,
        AccessPattern::Streaming => {
            if bytes_per_iter == 0.0 {
                return 0.0;
            }
            let sharers = env.node_threads[env.numa[thread]].max(1) as f64;
            // GB/s numerically equals bytes/ns.
            let bw_share = machine.mem.node_bw_gibs / sharers;
            let frac_local = costs::streaming_local_fraction(env.bound, machine.numa_nodes);
            let locality_mult = frac_local + (1.0 - frac_local) * machine.mem.remote_factor;
            let contention = costs::streaming_contention(machine, frac_local, env.load);
            bytes_per_iter / bw_share * locality_mult * contention
        }
        AccessPattern::RandomShared { accesses_per_iter } => {
            // Interleaved table: local fraction is 1/numa regardless of
            // binding; unbound threads additionally lose cached slices.
            let frac_local = 1.0 / machine.numa_nodes as f64;
            let mut lat = costs::avg_latency_ns(machine, frac_local);
            if !env.bound {
                lat *= 1.0
                    + costs::migration_latency_penalty(machine, migration_sensitivity, env.load);
            }
            accesses_per_iter * lat
        }
    }
}

/// Min-heap of (finish_time, thread) used for greedy earliest-free
/// dispatch; f64 keys carried as ordered bit patterns (all finite, ≥ 0).
struct FinishHeap {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl FinishHeap {
    fn new(t: usize) -> FinishHeap {
        let mut heap = BinaryHeap::with_capacity(t);
        for i in 0..t {
            heap.push(Reverse((0, i)));
        }
        FinishHeap { heap }
    }

    /// Charge `cost(thread)` to the earliest-free thread in place: one
    /// sift instead of a pop and a push. Keys are distinct `(finish,
    /// thread)` pairs, so the thread chosen is the one a pop would return.
    fn charge_earliest(&mut self, cost: impl FnOnce(usize) -> f64) {
        let mut top = self.heap.peek_mut().expect("heap never empty");
        let Reverse((bits, i)) = *top;
        let finish = f64::from_bits(bits) + cost(i);
        debug_assert!(finish.is_finite() && finish >= 0.0);
        *top = Reverse((finish.to_bits(), i));
    }

    fn max_finish(self) -> f64 {
        self.heap
            .into_iter()
            .map(|Reverse((bits, _))| f64::from_bits(bits))
            .fold(0.0, f64::max)
    }
}

/// The schedule-dependent structure of one parallel region, computed
/// once per plan projection and re-priced per configuration.
///
/// `span` is the critical-path span of the region body (chunk
/// assignment, dispatch, imbalance tails, unbound-OS penalty applied) —
/// everything *before* the price-layer barrier/reduction constants. The
/// `*_add` fields are the exact breakdown addends the monolithic path
/// would apply, preserved verbatim so re-pricing is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlannedRegion {
    pub span: f64,
    pub compute_add: f64,
    pub memory_add: f64,
    pub dispatch_add: f64,
    /// Zero-work region: the monolithic path returns early and charges
    /// nothing (not even a barrier), so pricing must skip too.
    pub empty: bool,
}

impl PlannedRegion {
    const EMPTY: PlannedRegion = PlannedRegion {
        span: 0.0,
        compute_add: 0.0,
        memory_add: 0.0,
        dispatch_add: 0.0,
        empty: true,
    };
}

/// The projection-independent part of a loop region: the imbalance
/// shape integrated over the iteration space. Reads only the phase, the
/// phase seed and the machine clock, so one skeleton serves every plan
/// projection of its (step, phase).
pub(crate) struct LoopSkeleton {
    phase: LoopPhase,
    /// Prefix integral of per-iteration *compute* cost over the iteration
    /// space, discretized to at most [`MAX_UNITS`] units for the imbalance
    /// shape: `prefix[u]` is the compute time of iterations
    /// `[0, u * iters_per_unit)`.
    prefix: Vec<f64>,
    /// Largest per-unit imbalance multiplier (the dynamic-schedule tail).
    max_unit_mult: f64,
}

impl LoopSkeleton {
    pub(crate) fn new(phase: &LoopPhase, machine: &MachineDesc, seed: u64) -> LoopSkeleton {
        let units = (phase.iters as usize).min(MAX_UNITS);
        let iters_per_unit = phase.iters as f64 / units as f64;
        let compute_per_iter = phase.cycles_per_iter / machine.clock_ghz;
        let mut prefix = Vec::with_capacity(units + 1);
        prefix.push(0.0f64);
        let mut max_unit_mult = 0.0f64;
        for u in 0..units {
            let x0 = u as f64 / units as f64;
            let x1 = (u + 1) as f64 / units as f64;
            let w = phase.imbalance.mean_over(x0, x1, u as u64, seed);
            max_unit_mult = max_unit_mult.max(w);
            prefix.push(prefix[u] + compute_per_iter * w * iters_per_unit);
        }
        LoopSkeleton {
            phase: *phase,
            prefix,
            max_unit_mult,
        }
    }

    /// Reduction clauses closing the loop (a price-layer input).
    pub(crate) fn reductions(&self) -> u32 {
        self.phase.reductions
    }
}

/// Plan one worksharing-loop region from its skeleton: everything that
/// depends on the schedule class (`Static` and `Auto` plan identically),
/// the thread count and the placement-derived environment. `library` is
/// never read here.
pub(crate) fn plan_loop_with(
    skeleton: &LoopSkeleton,
    t: usize,
    schedule: omptune_core::OmpSchedule,
    machine: &MachineDesc,
    env: &ThreadEnv,
    migration_sensitivity: f64,
) -> PlannedRegion {
    use omptune_core::OmpSchedule;
    let LoopSkeleton {
        phase,
        prefix,
        max_unit_mult,
    } = skeleton;
    if phase.iters == 0 {
        return PlannedRegion::EMPTY;
    }
    let units = prefix.len() - 1;
    let iters_per_unit = phase.iters as f64 / units as f64;
    let compute_per_iter = phase.cycles_per_iter / machine.clock_ghz;

    // Per-thread memory time per iteration (depends on the thread's NUMA
    // node occupancy under asymmetric placements).
    let mem: Vec<f64> = (0..t)
        .map(|i| {
            mem_ns_per_iter(
                phase.access,
                phase.bytes_per_iter,
                env,
                machine,
                migration_sensitivity,
                i,
            )
        })
        .collect();

    let total_compute = prefix[units];
    // Compute time of iterations [0, x), by interpolation — exact at unit
    // boundaries, linear inside a unit.
    let interp = |x: f64| -> f64 {
        let pos = (x / iters_per_unit).clamp(0.0, units as f64);
        let lo = pos.floor() as usize;
        if lo >= units {
            return prefix[units];
        }
        prefix[lo] + (pos - lo as f64) * (prefix[lo + 1] - prefix[lo])
    };
    let compute_between = |i0: f64, i1: f64| interp(i1) - interp(i0);

    let compute_add = total_compute / t as f64;
    let memory_add = mem[0] * phase.iters as f64 / t as f64;

    let dispatch = costs::dispatch_ns(t);
    let mut dispatch_total = 0.0;
    // Effective parallel capacity in unit-speed threads (oversubscribed
    // threads contribute 1/div each) — a work-conserving dispatcher
    // achieves it.
    let capacity: f64 = env.speed_div.iter().map(|d| 1.0 / d).sum();
    let span = match schedule {
        OmpSchedule::Static | OmpSchedule::Auto => {
            // Exact near-equal contiguous split of the iteration space.
            let mut span = 0.0f64;
            for (i, m) in mem.iter().enumerate().take(t) {
                let (lo, hi) = chunk::static_block(phase.iters, t as u64, i as u64);
                let cost = (compute_between(lo as f64, hi as f64) + m * (hi - lo) as f64)
                    * env.speed_div[i];
                span = span.max(cost);
            }
            span
        }
        OmpSchedule::Dynamic => {
            // Chunk size 1: the shared counter balances at iteration
            // granularity, so the span is the work-conserving optimum
            // plus per-iteration dispatch and a largest-iteration tail.
            let mem_avg: f64 = mem.iter().sum::<f64>() / t as f64;
            dispatch_total = dispatch * phase.iters as f64;
            let total = total_compute + (mem_avg + dispatch) * phase.iters as f64;
            let max_div = env.speed_div.iter().cloned().fold(1.0, f64::max);
            let tail = (compute_per_iter * max_unit_mult + mem_avg) * max_div;
            total / capacity + tail
        }
        OmpSchedule::Guided => {
            // The real guided chunk sequence over the iteration space,
            // greedily assigned to the earliest-free thread. Each chunk's
            // upper interpolation is the next chunk's lower one.
            let mut heap = FinishHeap::new(t);
            let total_iters = phase.iters;
            let mut next = 0u64;
            let mut done = interp(0.0);
            while next < total_iters {
                let size = chunk::guided_chunk(total_iters - next, t as u64);
                next += size;
                let upto = interp(next as f64);
                let compute = upto - done;
                done = upto;
                heap.charge_earliest(|i| {
                    (compute + mem[i] * size as f64) * env.speed_div[i] + dispatch
                });
                dispatch_total += dispatch;
            }
            heap.max_finish()
        }
    };
    let dispatch_add = dispatch_total / t as f64;

    // Unbound regions additionally wait out OS scheduler imbalance.
    let span = if env.bound {
        span
    } else {
        span * costs::unbound_span_penalty(machine, env.load)
    };

    PlannedRegion {
        span,
        compute_add,
        memory_add,
        dispatch_add,
        empty: false,
    }
}

/// Apply the price layer to a planned loop region: the breakdown
/// addends, then the barrier and reduction constants `KMP_ALIGN_ALLOC`
/// and `KMP_FORCE_REDUCTION` control. Returns the full region span.
pub(crate) fn price_loop(
    planned: &PlannedRegion,
    reductions: u32,
    tuning: &TuningConfig,
    machine: &MachineDesc,
    bd: &mut TimeBreakdown,
) -> f64 {
    if planned.empty {
        return 0.0;
    }
    let t = tuning.num_threads;
    bd.compute_ns += planned.compute_add;
    bd.memory_ns += planned.memory_add;
    bd.dispatch_ns += planned.dispatch_add;
    let barrier = costs::barrier_ns(t, machine, tuning.align_alloc);
    let heuristic_pick = tuning.force_reduction == omptune_core::KmpForceReduction::Unset;
    let red = reductions as f64
        * costs::reduction_ns(
            tuning.reduction_method(),
            t,
            machine,
            tuning.align_alloc,
            heuristic_pick,
        );
    bd.sync_ns += barrier + red;
    planned.span + barrier + red
}

/// Monolithic loop simulation: plan + price in one call.
fn simulate_loop(
    phase: &LoopPhase,
    tuning: &TuningConfig,
    machine: &MachineDesc,
    env: &ThreadEnv,
    migration_sensitivity: f64,
    seed: u64,
    bd: &mut TimeBreakdown,
) -> f64 {
    let planned = plan_loop_with(
        &LoopSkeleton::new(phase, machine, seed),
        tuning.num_threads,
        tuning.schedule,
        machine,
        env,
        migration_sensitivity,
    );
    price_loop(&planned, phase.reductions, tuning, machine, bd)
}

/// The projection-independent part of a task region: the per-unit task
/// size multipliers. Reads only the phase and the phase seed.
pub(crate) struct TaskSkeleton {
    phase: TaskPhase,
    /// One size multiplier per scheduling unit (at most [`MAX_UNITS`]).
    weights: Vec<f64>,
}

impl TaskSkeleton {
    pub(crate) fn new(phase: &TaskPhase, seed: u64) -> TaskSkeleton {
        let units = (phase.n_tasks as usize).min(MAX_UNITS);
        let imb = Imbalance::Random { cv: phase.cv };
        TaskSkeleton {
            phase: *phase,
            weights: (0..units)
                .map(|u| imb.mean_over(0.0, 1.0, u as u64, seed))
                .collect(),
        }
    }
}

/// Plan one task region from its skeleton: the greedy
/// earliest-free-thread makespan. `KMP_LIBRARY` enters here (not in
/// pricing) because yielding idle workers change per-task starvation
/// costs inside the dispatch loop; the schedule is never read.
pub(crate) fn plan_tasks_with(
    skeleton: &TaskSkeleton,
    t: usize,
    yielding: bool,
    machine: &MachineDesc,
    env: &ThreadEnv,
) -> PlannedRegion {
    let TaskSkeleton { phase, weights } = skeleton;
    if phase.n_tasks == 0 {
        return PlannedRegion::EMPTY;
    }
    let tasks_per_unit = phase.n_tasks as f64 / weights.len() as f64;
    let base_task = phase.cycles_per_task / machine.clock_ghz;
    let admin = costs::task_admin_ns();
    let starve = phase.starvation * costs::task_starvation_ns(machine, yielding);

    let mem: Vec<f64> = (0..t)
        .map(|i| {
            mem_ns_per_iter(
                AccessPattern::Streaming,
                phase.bytes_per_task,
                env,
                machine,
                0.0,
                i,
            )
        })
        .collect();
    let mut heap = FinishHeap::new(t);
    let mut mem_total = 0.0f64;
    for w in weights {
        heap.charge_earliest(|i| {
            mem_total += mem[i] * tasks_per_unit;
            let per_task = base_task * w + mem[i] + admin + starve;
            per_task * tasks_per_unit * env.speed_div[i]
        });
    }
    let compute_add = base_task * phase.n_tasks as f64 / t as f64;
    let memory_add = mem_total / t as f64;
    let dispatch_add = (admin + starve) * phase.n_tasks as f64 / t as f64;

    let span = heap.max_finish();
    let span = if env.bound {
        span
    } else {
        span * costs::unbound_span_penalty(machine, env.load)
    };
    PlannedRegion {
        span,
        compute_add,
        memory_add,
        dispatch_add,
        empty: false,
    }
}

/// Apply the price layer to a planned task region (the barrier constant
/// is the only priced component). Returns the full region span.
pub(crate) fn price_tasks(
    planned: &PlannedRegion,
    tuning: &TuningConfig,
    machine: &MachineDesc,
    bd: &mut TimeBreakdown,
) -> f64 {
    if planned.empty {
        return 0.0;
    }
    bd.compute_ns += planned.compute_add;
    bd.memory_ns += planned.memory_add;
    bd.dispatch_ns += planned.dispatch_add;
    let barrier = costs::barrier_ns(tuning.num_threads, machine, tuning.align_alloc);
    bd.sync_ns += barrier;
    planned.span + barrier
}

/// Monolithic task simulation: plan + price in one call.
fn simulate_tasks(
    phase: &TaskPhase,
    tuning: &TuningConfig,
    machine: &MachineDesc,
    env: &ThreadEnv,
    seed: u64,
    bd: &mut TimeBreakdown,
) -> f64 {
    let yielding = tuning.library == omptune_core::KmpLibrary::Throughput;
    let planned = plan_tasks_with(
        &TaskSkeleton::new(phase, seed),
        tuning.num_threads,
        yielding,
        machine,
        env,
    );
    price_tasks(&planned, tuning, machine, bd)
}

/// State threaded between timesteps.
struct StepOutcome {
    ns: f64,
    bd: TimeBreakdown,
    regions: u64,
    /// Idle time at step end (trailing serial phases).
    trailing_idle: f64,
}

/// Simulate one timestep. `base_ns` is the virtual time at which the step
/// begins (used only to timestamp virtual spans).
#[allow(clippy::too_many_arguments)]
fn simulate_step(
    model: &Model,
    tuning: &TuningConfig,
    machine: &MachineDesc,
    env: &ThreadEnv,
    policy: omptune_core::WaitPolicy,
    step: u64,
    seed: u64,
    mut idle_since_region: f64,
    base_ns: f64,
) -> StepOutcome {
    let mut bd = TimeBreakdown::default();
    let mut total = 0.0f64;
    let mut regions = 0u64;
    for (pi, phase) in model.phases.iter().enumerate() {
        let phase_seed = seed ^ (step << 32) ^ pi as u64;
        match phase {
            Phase::Serial { ns } => {
                total += ns;
                bd.serial_ns += ns;
                idle_since_region += ns;
            }
            Phase::Loop(l) => {
                let wake =
                    costs::region_wake_ns(machine, policy, idle_since_region, tuning.num_threads);
                let fork = costs::fork_ns(tuning.num_threads);
                let span = simulate_loop(
                    l,
                    tuning,
                    machine,
                    env,
                    model.migration_sensitivity,
                    phase_seed,
                    &mut bd,
                );
                bd.wake_ns += wake;
                bd.sync_ns += fork;
                omptel::add(omptel::Counter::Regions, 1);
                omptel::virtual_span(
                    omptel::SpanKind::SimRegion,
                    (base_ns + total) as u64,
                    (wake + fork + span) as u64,
                    pi as u64,
                );
                total += wake + fork + span;
                idle_since_region = 0.0;
                regions += 1;
            }
            Phase::Tasks(tp) => {
                let wake =
                    costs::region_wake_ns(machine, policy, idle_since_region, tuning.num_threads);
                let fork = costs::fork_ns(tuning.num_threads);
                let span = simulate_tasks(tp, tuning, machine, env, phase_seed, &mut bd);
                bd.wake_ns += wake;
                bd.sync_ns += fork;
                omptel::add(omptel::Counter::Regions, 1);
                omptel::virtual_span(
                    omptel::SpanKind::SimRegion,
                    (base_ns + total) as u64,
                    (wake + fork + span) as u64,
                    pi as u64,
                );
                total += wake + fork + span;
                idle_since_region = 0.0;
                regions += 1;
            }
        }
    }
    StepOutcome {
        ns: total,
        bd,
        regions,
        trailing_idle: idle_since_region,
    }
}

/// Simulate a full application run.
///
/// Deterministic: the same `(arch, tuning, model, seed)` always yields the
/// same result. Measurement noise is applied downstream by the sweep
/// harness, not here.
///
/// Internally this builds a fresh [`crate::plan::RegionPlan`] and prices
/// it — bit-identical to [`simulate_monolithic`], which the property
/// tests pin. Sweeps over many configurations sharing a plan projection
/// should use [`crate::plan::simulate_with_cache`] instead.
pub fn simulate(arch: Arch, tuning: &TuningConfig, model: &Model, seed: u64) -> SimResult {
    crate::plan::RegionPlan::build(arch, tuning.plan_projection(), model, seed).price(tuning)
}

/// The original single-pass simulation path: plan and price interleaved
/// per phase, no reusable plan structure. Kept as the reference the
/// plan/price split is property-tested against.
pub fn simulate_monolithic(
    arch: Arch,
    tuning: &TuningConfig,
    model: &Model,
    seed: u64,
) -> SimResult {
    let machine = machine_for(arch);
    let topo = Topology::new(machine.clone());
    let env = thread_env(&Placement::compute(arch, tuning), tuning.num_threads, &topo);
    let policy = tuning.wait_policy();

    let mut total = 0.0f64;
    let mut bd = TimeBreakdown::default();
    let mut regions = 0u64;

    // Cold first step: the team has never run, so the first region pays a
    // full wake-up regardless of blocktime.
    let s0 = simulate_step(
        model,
        tuning,
        &machine,
        &env,
        policy,
        0,
        seed,
        f64::INFINITY,
        0.0,
    );
    total += s0.ns;
    bd.add_scaled(&s0.bd, 1.0);
    regions += s0.regions;

    if model.timesteps > 1 {
        // Warm second step, then extrapolate: steps are statistically
        // identical, so the remaining (timesteps - 2) repeat the warm one.
        // Virtual spans are emitted for the two simulated steps only;
        // extrapolated repeats contribute to aggregates, not timelines.
        let s1 = simulate_step(
            model,
            tuning,
            &machine,
            &env,
            policy,
            1,
            seed,
            s0.trailing_idle,
            s0.ns,
        );
        let reps = (model.timesteps - 1) as f64;
        total += s1.ns * reps;
        bd.add_scaled(&s1.bd, reps);
        regions += s1.regions * (model.timesteps as u64 - 1);
    }

    SimResult {
        total_ns: total,
        breakdown: bd,
        regions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AccessPattern, Imbalance, LoopPhase, Model, Phase, TaskPhase};
    use omptune_core::{KmpBlocktime, KmpLibrary, OmpPlaces, OmpProcBind, OmpSchedule};

    fn loop_model(iters: u64, imbalance: Imbalance, access: AccessPattern) -> Model {
        Model {
            name: "test".into(),
            phases: vec![Phase::Loop(LoopPhase {
                iters,
                cycles_per_iter: 200.0,
                bytes_per_iter: if matches!(access, AccessPattern::Streaming) {
                    64.0
                } else {
                    0.0
                },
                access,
                imbalance,
                reductions: 0,
            })],
            timesteps: 10,
            migration_sensitivity: 1.0,
        }
    }

    fn cfg(arch: Arch, t: usize) -> TuningConfig {
        TuningConfig::default_for(arch, t)
    }

    #[test]
    fn simulation_is_deterministic() {
        let _tel = crate::tel_shared();
        let m = loop_model(100_000, Imbalance::Uniform, AccessPattern::CacheResident);
        let c = cfg(Arch::Milan, 48);
        let a = simulate(Arch::Milan, &c, &m, 7);
        let b = simulate(Arch::Milan, &c, &m, 7);
        assert_eq!(a, b);
        let other_seed = simulate(Arch::Milan, &c, &m, 8);
        // Uniform imbalance: seed has no effect on this model.
        assert_eq!(a.total_ns, other_seed.total_ns);
    }

    #[test]
    fn extrapolated_steps_match_explicit_simulation() {
        let _tel = crate::tel_shared();
        // A model with random imbalance: warm steps differ only by seed;
        // the extrapolation must equal (t1 * (n-1)) by construction, and
        // regions must count all steps.
        let m = loop_model(
            50_000,
            Imbalance::Random { cv: 0.3 },
            AccessPattern::CacheResident,
        );
        let r = simulate(Arch::Skylake, &cfg(Arch::Skylake, 40), &m, 3);
        assert_eq!(r.regions, 10);
        let mut one = m.clone();
        one.timesteps = 1;
        let r1 = simulate(Arch::Skylake, &cfg(Arch::Skylake, 40), &one, 3);
        assert!(r.total_ns > r1.total_ns * 9.0);
    }

    #[test]
    fn more_threads_is_faster_for_parallel_work() {
        let _tel = crate::tel_shared();
        let m = loop_model(1_000_000, Imbalance::Uniform, AccessPattern::CacheResident);
        let t8 = simulate(Arch::Milan, &cfg(Arch::Milan, 8), &m, 0);
        let t96 = simulate(Arch::Milan, &cfg(Arch::Milan, 96), &m, 0);
        assert!(t96.total_ns < t8.total_ns / 6.0, "scaling is broken");
    }

    #[test]
    fn master_binding_is_catastrophic_at_high_thread_counts() {
        let _tel = crate::tel_shared();
        let m = loop_model(500_000, Imbalance::Uniform, AccessPattern::CacheResident);
        let mut c = cfg(Arch::Milan, 96);
        c.places = OmpPlaces::Cores;
        c.proc_bind = OmpProcBind::Master;
        let bad = simulate(Arch::Milan, &c, &m, 0);
        let good = simulate(Arch::Milan, &cfg(Arch::Milan, 96), &m, 0);
        assert!(
            bad.total_ns > 20.0 * good.total_ns,
            "master bind must oversubscribe one core: {} vs {}",
            bad.total_ns,
            good.total_ns
        );
    }

    #[test]
    fn binding_helps_streaming_workloads() {
        let _tel = crate::tel_shared();
        let m = loop_model(500_000, Imbalance::Uniform, AccessPattern::Streaming);
        let unbound = simulate(Arch::Milan, &cfg(Arch::Milan, 96), &m, 0);
        let mut c = cfg(Arch::Milan, 96);
        c.places = OmpPlaces::Cores; // bind unset → derived spread
        let bound = simulate(Arch::Milan, &c, &m, 0);
        assert!(bound.total_ns < unbound.total_ns);
    }

    #[test]
    fn dynamic_beats_static_on_imbalanced_loops() {
        let _tel = crate::tel_shared();
        // Coarse iterations (µs-scale) so dispatch cost doesn't drown the
        // balance win — the regime where real apps profit from dynamic.
        let m = Model {
            phases: vec![Phase::Loop(LoopPhase {
                iters: 20_000,
                cycles_per_iter: 6000.0,
                bytes_per_iter: 0.0,
                access: AccessPattern::CacheResident,
                imbalance: Imbalance::Linear { skew: 1.5 },
                reductions: 0,
            })],
            ..loop_model(1, Imbalance::Uniform, AccessPattern::CacheResident)
        };
        let stat = simulate(Arch::Skylake, &cfg(Arch::Skylake, 40), &m, 0);
        let mut c = cfg(Arch::Skylake, 40);
        c.schedule = OmpSchedule::Dynamic;
        let dyn_ = simulate(Arch::Skylake, &c, &m, 0);
        let mut c = cfg(Arch::Skylake, 40);
        c.schedule = OmpSchedule::Guided;
        let guided = simulate(Arch::Skylake, &c, &m, 0);
        assert!(
            dyn_.total_ns < stat.total_ns,
            "dynamic {} static {}",
            dyn_.total_ns,
            stat.total_ns
        );
        assert!(guided.total_ns < stat.total_ns);
    }

    #[test]
    fn dynamic_costs_dispatch_on_balanced_loops() {
        let _tel = crate::tel_shared();
        let m = loop_model(500_000, Imbalance::Uniform, AccessPattern::CacheResident);
        let stat = simulate(Arch::Skylake, &cfg(Arch::Skylake, 40), &m, 0);
        let mut c = cfg(Arch::Skylake, 40);
        c.schedule = OmpSchedule::Dynamic;
        let dyn_ = simulate(Arch::Skylake, &c, &m, 0);
        assert!(dyn_.total_ns > stat.total_ns);
    }

    #[test]
    fn turnaround_helps_fine_grained_tasks() {
        let _tel = crate::tel_shared();
        let m = Model {
            name: "nq".into(),
            phases: vec![Phase::Tasks(TaskPhase {
                n_tasks: 100_000,
                cycles_per_task: 2000.0,
                cv: 0.3,
                starvation: 0.9,
                bytes_per_task: 0.0,
            })],
            timesteps: 1,
            migration_sensitivity: 0.0,
        };
        let thr = simulate(Arch::Milan, &cfg(Arch::Milan, 48), &m, 0);
        let mut c = cfg(Arch::Milan, 48);
        c.library = KmpLibrary::Turnaround;
        let turn = simulate(Arch::Milan, &c, &m, 0);
        let speedup = thr.total_ns / turn.total_ns;
        assert!(speedup > 1.5, "turnaround speedup {speedup}");
    }

    #[test]
    fn blocktime_zero_hurts_many_region_apps() {
        let _tel = crate::tel_shared();
        let m = Model {
            name: "mg".into(),
            phases: vec![
                Phase::Loop(LoopPhase {
                    iters: 10_000,
                    cycles_per_iter: 50.0,
                    bytes_per_iter: 0.0,
                    access: AccessPattern::CacheResident,
                    imbalance: Imbalance::Uniform,
                    reductions: 0,
                }),
                Phase::Serial { ns: 20_000.0 },
            ],
            timesteps: 500,
            migration_sensitivity: 0.0,
        };
        let default = simulate(Arch::Skylake, &cfg(Arch::Skylake, 40), &m, 0);
        let mut c = cfg(Arch::Skylake, 40);
        c.blocktime = KmpBlocktime::Zero;
        let sleepy = simulate(Arch::Skylake, &c, &m, 0);
        assert!(sleepy.total_ns > default.total_ns);
    }

    #[test]
    fn migration_penalty_hits_milan_random_lookups_only() {
        let _tel = crate::tel_shared();
        let m = loop_model(
            200_000,
            Imbalance::Uniform,
            AccessPattern::RandomShared {
                accesses_per_iter: 6.0,
            },
        );
        let speedup_of_binding = |arch: Arch, t: usize| {
            let unbound = simulate(arch, &cfg(arch, t), &m, 0);
            let mut c = cfg(arch, t);
            c.places = OmpPlaces::Cores;
            let bound = simulate(arch, &c, &m, 0);
            unbound.total_ns / bound.total_ns
        };
        let milan = speedup_of_binding(Arch::Milan, 96);
        let skl = speedup_of_binding(Arch::Skylake, 40);
        let fx = speedup_of_binding(Arch::A64fx, 48);
        assert!(milan > 1.5, "milan binding speedup {milan}");
        assert!(skl < 1.12, "skylake should barely move: {skl}");
        assert!(fx < 1.15, "a64fx should barely move: {fx}");
    }

    #[test]
    fn migration_penalty_fades_at_low_occupancy() {
        let _tel = crate::tel_shared();
        let m = loop_model(
            200_000,
            Imbalance::Uniform,
            AccessPattern::RandomShared {
                accesses_per_iter: 6.0,
            },
        );
        let speedup_of_binding = |t: usize| {
            let unbound = simulate(Arch::Milan, &cfg(Arch::Milan, t), &m, 0);
            let mut c = cfg(Arch::Milan, t);
            c.places = OmpPlaces::Cores;
            let bound = simulate(Arch::Milan, &c, &m, 0);
            unbound.total_ns / bound.total_ns
        };
        assert!(speedup_of_binding(96) > 2.0 * speedup_of_binding(24));
    }

    #[test]
    fn breakdown_sums_close_to_total() {
        let _tel = crate::tel_shared();
        let m = loop_model(100_000, Imbalance::Uniform, AccessPattern::Streaming);
        let r = simulate(Arch::Skylake, &cfg(Arch::Skylake, 40), &m, 1);
        let b = &r.breakdown;
        let sum = b.compute_ns + b.memory_ns + b.sync_ns + b.wake_ns + b.dispatch_ns + b.serial_ns;
        // The breakdown charges ideal per-thread time; the total also
        // carries imbalance idle time, so sum <= total (with slack).
        assert!(sum <= r.total_ns * 1.05, "sum {sum} total {}", r.total_ns);
        assert!(sum >= r.total_ns * 0.2);
        assert_eq!(r.regions, 10);
    }

    #[test]
    fn a_session_counts_each_simulated_region_and_the_run_closes() {
        let _tel = crate::tel_exclusive();
        let m = Model {
            name: "cg".into(),
            phases: vec![
                Phase::Loop(LoopPhase {
                    iters: 100_000,
                    cycles_per_iter: 200.0,
                    bytes_per_iter: 64.0,
                    access: AccessPattern::Streaming,
                    imbalance: Imbalance::Uniform,
                    reductions: 1,
                }),
                Phase::Serial { ns: 5_000.0 },
                Phase::Tasks(TaskPhase {
                    n_tasks: 10_000,
                    cycles_per_task: 500.0,
                    cv: 0.3,
                    starvation: 0.2,
                    bytes_per_task: 32.0,
                }),
            ],
            timesteps: 5,
            migration_sensitivity: 0.5,
        };
        let session = omptel::session().expect("no other session active");
        let r = simulate(Arch::Milan, &cfg(Arch::Milan, 48), &m, 7);
        let counters = session.finish();
        // Two simulated steps × two parallel phases; the extrapolated
        // steps are counted in `regions`, not simulated.
        assert_eq!(counters.get(omptel::Counter::Regions), 4);
        assert_eq!(r.regions, 10);
        // Acceptance invariant: the closed breakdown sums to the run's
        // elapsed virtual time.
        let sum = r.breakdown.to_tel().close_to_total(r.total_ns).sum();
        assert!(
            (sum - r.total_ns).abs() <= r.total_ns * 1e-9,
            "sum {sum} != total {}",
            r.total_ns
        );
    }

    #[test]
    fn pathological_master_binding_is_dominated_by_imbalance() {
        let _tel = crate::tel_shared();
        // The paper's worst case: many threads all bound to the master's
        // place serialize on one core; nearly all elapsed time is threads
        // waiting on the straggler — the barrier/imbalance-wait sink.
        let m = loop_model(500_000, Imbalance::Uniform, AccessPattern::CacheResident);
        let mut c = cfg(Arch::Milan, 96);
        c.places = OmpPlaces::Cores;
        c.proc_bind = OmpProcBind::Master;
        let r = simulate(Arch::Milan, &c, &m, 0);
        let mut summary = omptel::Summary::default();
        let closed = r.breakdown.to_tel().close_to_total(r.total_ns);
        summary.add_aggregate(r.total_ns, &closed, r.regions);
        assert_eq!(summary.dominant_sink(), omptel::Sink::Imbalance);
        assert!(
            summary.sink_fraction(omptel::Sink::Imbalance) > 0.9,
            "imbalance fraction {}",
            summary.sink_fraction(omptel::Sink::Imbalance)
        );
    }

    #[test]
    fn telemetry_disabled_simulation_is_bit_identical() {
        let _tel = crate::tel_exclusive();
        let m = loop_model(
            50_000,
            Imbalance::Random { cv: 0.4 },
            AccessPattern::Streaming,
        );
        let c = cfg(Arch::Skylake, 40);
        let plain = simulate(Arch::Skylake, &c, &m, 3);
        let session = omptel::session().expect("no other session active");
        let telemetered = simulate(Arch::Skylake, &c, &m, 3);
        drop(session);
        assert_eq!(plain, telemetered, "telemetry must not perturb results");
    }

    #[test]
    fn empty_phases_cost_nothing_parallel() {
        let _tel = crate::tel_shared();
        let m = Model {
            name: "empty".into(),
            phases: vec![Phase::Loop(LoopPhase {
                iters: 0,
                cycles_per_iter: 0.0,
                bytes_per_iter: 0.0,
                access: AccessPattern::CacheResident,
                imbalance: Imbalance::Uniform,
                reductions: 0,
            })],
            timesteps: 1,
            migration_sensitivity: 0.0,
        };
        let r = simulate(Arch::A64fx, &cfg(Arch::A64fx, 48), &m, 0);
        // Only fork/wake/barrier overheads remain.
        assert!(r.total_ns < 1e6);
    }

    /// The earliest-free-thread heap as the retired loops drove it: one
    /// push per thread, then a pop and a push per chunk or unit.
    fn retired_heap(t: usize) -> BinaryHeap<Reverse<(u64, usize)>> {
        let mut heap = BinaryHeap::with_capacity(t);
        for i in 0..t {
            heap.push(Reverse((0, i)));
        }
        heap
    }

    fn retired_max_finish(heap: BinaryHeap<Reverse<(u64, usize)>>) -> f64 {
        heap.into_iter()
            .map(|Reverse((bits, _))| f64::from_bits(bits))
            .fold(0.0, f64::max)
    }

    /// `plan_loop_with`'s guided arm before the one-sift walk: pop, two
    /// interpolations per chunk, push, `dispatch_ns` per chunk.
    fn plan_guided_retired(
        skeleton: &LoopSkeleton,
        t: usize,
        machine: &MachineDesc,
        env: &ThreadEnv,
        migration_sensitivity: f64,
    ) -> PlannedRegion {
        let LoopSkeleton { phase, prefix, .. } = skeleton;
        if phase.iters == 0 {
            return PlannedRegion::EMPTY;
        }
        let units = prefix.len() - 1;
        let iters_per_unit = phase.iters as f64 / units as f64;
        let mem: Vec<f64> = (0..t)
            .map(|i| {
                let (access, bytes) = (phase.access, phase.bytes_per_iter);
                mem_ns_per_iter(access, bytes, env, machine, migration_sensitivity, i)
            })
            .collect();
        let compute_between = |i0: f64, i1: f64| -> f64 {
            let interp = |x: f64| -> f64 {
                let pos = (x / iters_per_unit).clamp(0.0, units as f64);
                let lo = pos.floor() as usize;
                if lo >= units {
                    return prefix[units];
                }
                prefix[lo] + (pos - lo as f64) * (prefix[lo + 1] - prefix[lo])
            };
            interp(i1) - interp(i0)
        };
        let mut dispatch_total = 0.0;
        let mut heap = retired_heap(t);
        let mut next = 0u64;
        while next < phase.iters {
            let size = chunk::guided_chunk(phase.iters - next, t as u64);
            let Reverse((bits, i)) = heap.pop().unwrap();
            let cost = (compute_between(next as f64, (next + size) as f64) + mem[i] * size as f64)
                * env.speed_div[i]
                + costs::dispatch_ns(t);
            heap.push(Reverse(((f64::from_bits(bits) + cost).to_bits(), i)));
            dispatch_total += costs::dispatch_ns(t);
            next += size;
        }
        let span = retired_max_finish(heap);
        PlannedRegion {
            span: if env.bound {
                span
            } else {
                span * costs::unbound_span_penalty(machine, env.load)
            },
            compute_add: prefix[units] / t as f64,
            memory_add: mem[0] * phase.iters as f64 / t as f64,
            dispatch_add: dispatch_total / t as f64,
            empty: false,
        }
    }

    /// `plan_tasks_with` before the one-sift walk: pop, one
    /// `mem_ns_per_iter` per unit, push.
    fn plan_tasks_retired(
        skeleton: &TaskSkeleton,
        t: usize,
        yielding: bool,
        machine: &MachineDesc,
        env: &ThreadEnv,
    ) -> PlannedRegion {
        let TaskSkeleton { phase, weights } = skeleton;
        if phase.n_tasks == 0 {
            return PlannedRegion::EMPTY;
        }
        let tasks_per_unit = phase.n_tasks as f64 / weights.len() as f64;
        let base_task = phase.cycles_per_task / machine.clock_ghz;
        let admin = costs::task_admin_ns();
        let starve = phase.starvation * costs::task_starvation_ns(machine, yielding);
        let mut heap = retired_heap(t);
        let mut mem_total = 0.0f64;
        for w in weights {
            let Reverse((bits, i)) = heap.pop().unwrap();
            let streaming = AccessPattern::Streaming;
            let mem = mem_ns_per_iter(streaming, phase.bytes_per_task, env, machine, 0.0, i);
            mem_total += mem * tasks_per_unit;
            let per_task = base_task * w + mem + admin + starve;
            let finish = f64::from_bits(bits) + per_task * tasks_per_unit * env.speed_div[i];
            heap.push(Reverse((finish.to_bits(), i)));
        }
        let span = retired_max_finish(heap);
        PlannedRegion {
            span: if env.bound {
                span
            } else {
                span * costs::unbound_span_penalty(machine, env.load)
            },
            compute_add: base_task * phase.n_tasks as f64 / t as f64,
            memory_add: mem_total / t as f64,
            dispatch_add: (admin + starve) * phase.n_tasks as f64 / t as f64,
            empty: false,
        }
    }

    fn assert_same_bits(got: PlannedRegion, want: PlannedRegion) {
        for (g, w) in [
            (got.span, want.span),
            (got.compute_add, want.compute_add),
            (got.memory_add, want.memory_add),
            (got.dispatch_add, want.dispatch_add),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{got:?} vs {want:?}");
        }
        assert_eq!(got.empty, want.empty);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-sift guided and task walks plan every region to the
        /// bit the retired pop/push loops did, on unbound, bound and
        /// oversubscribed (master-bound, or more threads than cores)
        /// teams of every arch.
        #[test]
        fn one_sift_walks_match_the_retired_loops(
            arch in prop_oneof![Just(Arch::A64fx), Just(Arch::Skylake), Just(Arch::Milan)],
            t in 1usize..=128,
            (size_class, raw_size) in (0u8..4, any::<u64>()),
            (places, proc_bind) in (0usize..4, 0usize..6),
            (shape, skew, cv) in (0u8..3, -2.0f64..2.0, 0.0f64..1.5),
            (access, accesses) in (0u8..3, 0.5f64..8.0),
            (cycles, bytes, starvation) in (1.0f64..10_000.0, 0.0f64..256.0, 0.0f64..1.0),
            yielding in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let size = match size_class {
                0 => 0,
                1 => 1,
                2 => raw_size % (2 * t as u64),
                _ => raw_size % 8_000_001,
            };
            let imbalance = [
                Imbalance::Uniform,
                Imbalance::Linear { skew },
                Imbalance::Random { cv },
            ][shape as usize];
            let access = [
                AccessPattern::Streaming,
                AccessPattern::RandomShared { accesses_per_iter: accesses },
                AccessPattern::CacheResident,
            ][access as usize];
            let machine = machine_for(arch);
            let topo = Topology::new(machine.clone());
            let tuning = TuningConfig {
                places: OmpPlaces::ALL[places],
                proc_bind: OmpProcBind::ALL[proc_bind],
                ..cfg(arch, t)
            };
            let env = thread_env(&Placement::compute(arch, &tuning), t, &topo);

            let phase = LoopPhase {
                iters: size,
                cycles_per_iter: cycles,
                bytes_per_iter: bytes,
                access,
                imbalance,
                reductions: 0,
            };
            let skeleton = LoopSkeleton::new(&phase, &machine, seed);
            assert_same_bits(
                plan_loop_with(&skeleton, t, OmpSchedule::Guided, &machine, &env, 0.8),
                plan_guided_retired(&skeleton, t, &machine, &env, 0.8),
            );

            let phase = TaskPhase {
                n_tasks: size,
                cycles_per_task: cycles,
                cv,
                starvation,
                bytes_per_task: bytes,
            };
            let skeleton = TaskSkeleton::new(&phase, seed);
            assert_same_bits(
                plan_tasks_with(&skeleton, t, yielding, &machine, &env),
                plan_tasks_retired(&skeleton, t, yielding, &machine, &env),
            );
        }
    }
}
