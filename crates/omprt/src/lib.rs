//! # omprt — a real, executing mini OpenMP-style runtime
//!
//! The paper studies the LLVM/OpenMP (`libomp`) CPU runtime through its
//! environment variables. Rust has no OpenMP, so this crate rebuilds the
//! relevant runtime machinery natively — not as a mock, but as an actually
//! executing substrate whose control surface matches the variables the
//! paper sweeps:
//!
//! | paper variable | honoured by |
//! |---|---|
//! | `OMP_NUM_THREADS` | [`pool::ThreadPool`] team size |
//! | `KMP_BLOCKTIME`, `KMP_LIBRARY` | worker wait policy ([`pool`]) |
//! | `OMP_SCHEDULE` | worksharing dispatchers ([`sched`], [`worksharing`]) |
//! | `KMP_FORCE_REDUCTION` | reduction methods ([`reduce`]) |
//! | `OMP_PLACES`, `OMP_PROC_BIND` | placement logic (`omptune_core::placement`; OS pinning is intentionally out of scope) |
//! | `KMP_ALIGN_ALLOC` | padded slots in [`reduce`]; full model in `simrt` |
//!
//! Modules:
//! - [`pool`] — persistent team with spin/yield/park waiting,
//! - [`sched`] — static/dynamic/guided/auto chunk dispatch (pure math +
//!   atomic dispatchers),
//! - [`barrier`] — central and combining-tree barriers,
//! - [`reduce`] — tree/critical/atomic reductions with libomp's heuristic,
//! - [`task`] — work-stealing fork-join (`join`) for the BOTS workloads,
//! - [`worksharing`] — `parallel for` / `parallel for reduction` drivers,
//! - [`mod@env`] — initialization from real environment variables.

pub mod barrier;
pub mod deque;
pub mod env;
pub mod perturb;
pub mod pool;
pub mod reduce;
pub mod sched;
pub mod task;
pub mod trace;
pub mod worksharing;

pub use barrier::{default_barrier, Barrier, CentralBarrier, TreeBarrier};
pub use env::{EnvError, RuntimeConfig};
pub use perturb::{Decision, PerturbGuard, Plan, Site};
pub use pool::{ThreadCtx, ThreadPool};
pub use reduce::Reducer;
pub use sched::{DynamicDispatcher, GuidedDispatcher};
pub use task::{for_each_split, join, task_parallel};
pub use worksharing::{
    parallel_for, parallel_for_chunked, parallel_reduce_sum, parallel_sections, parallel_single,
};
