//! # simrt — the simulated OpenMP runtime
//!
//! Executes [`model::Model`] workload descriptions under a
//! `TuningConfig` on a simulated machine (`archsim`), in deterministic
//! virtual time. This is the substrate that lets the reproduction run the
//! paper's 240,000-sample sweep on a laptop: every tuning effect the
//! paper measures is modelled explicitly —
//!
//! - **placement & binding** → NUMA locality of streaming traffic,
//!   per-node bandwidth sharing, core oversubscription (the `master`-bind
//!   worst-trend), migration penalties for random-lookup tables,
//! - **schedule** → chunk assignment (reusing the real runtime's chunk
//!   math), dispatch costs, imbalance tails,
//! - **library & blocktime** → region-start wake-up latencies
//!   (spin vs. yield vs. park) and task-starvation costs,
//! - **force-reduction & align-alloc** → reduction-method costs and the
//!   adjacent-line interference of the runtime's internal allocations.
//!
//! See `costs` for every formula and `EXPERIMENTS.md` for calibration.

pub mod costs;
pub mod energy;
pub mod exec;
pub mod explain;
pub mod microsim;
pub mod model;
pub mod plan;

/// Telemetry sessions and flight recorders are process-global, and the
/// tests that open one assert on exact region, span and counter totals —
/// so every simulator-driving test in the crate serializes against them
/// on this lock: [`tel_exclusive`] to open a session or recorder,
/// [`tel_shared`] for everything else that simulates.
#[cfg(test)]
static TEL_TEST_LOCK: std::sync::RwLock<()> = std::sync::RwLock::new(());

/// Guard for a test that opens a telemetry session or recorder. Poison
/// is recovered (the lock guards no data), so one failing test reports
/// as one failure rather than cascading.
#[cfg(test)]
pub(crate) fn tel_exclusive() -> std::sync::RwLockWriteGuard<'static, ()> {
    TEL_TEST_LOCK
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Guard for a test that drives the simulator without observing
/// telemetry: runs alongside its peers, never alongside a session.
#[cfg(test)]
pub(crate) fn tel_shared() -> std::sync::RwLockReadGuard<'static, ()> {
    TEL_TEST_LOCK
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use energy::{power_for, price_energy};
pub use exec::{machine_for, simulate, simulate_monolithic, SimResult, TimeBreakdown, MAX_UNITS};
pub use explain::{explain, Explanation, PhaseCost};
pub use microsim::{run_loop_event_driven, MicroResult};
pub use model::{AccessPattern, Imbalance, LoopPhase, Model, Phase, TaskPhase};
pub use plan::{simulate_with_cache, PlanCache, PriceScratch, RegionPlan};
