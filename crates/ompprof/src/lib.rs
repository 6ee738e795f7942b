//! # ompprof — the explanation layer over the omptune telemetry stack
//!
//! The sweep harness can say *which* configuration won; `ompprof` says
//! *why*. Four pieces:
//!
//! - [`attrib`] — fold every sample's sink [`omptel::Breakdown`] into
//!   exact, mergeable per-(variable, value) marginal-cost profiles.
//!   Accumulation is integer (2^16 fixed point), so shard-and-merge is
//!   byte-identical to whole-sweep folding — the property the paper's
//!   months-long, multi-cluster collection workflow needs to combine
//!   partial profiles safely.
//! - [`flame`] — differential profiler: render two configurations'
//!   [`simrt::explain`] phase trees as folded stacks and dependency-free
//!   SVG flame graphs, including a signed red/blue diff view that turns
//!   a best-vs-worst runtime gap into a picture of where the time goes.
//! - [`energy`] — energy as a second objective: per-arch time-, energy-
//!   and EDP-optimal configurations over the report slice, and whether
//!   time and energy pick the same one.
//! - the `ompprof` binary — `attribute`, `diff` and `energy` subcommands
//!   wiring these onto live sweeps or exported `raw_batches.json`.
//!   `attribute --check` cross-validates the attribution ranking against
//!   the logistic-regression influence ranking (paper Figs. 2–4). `diff`
//!   is the best-vs-worst report: the slice's time and energy gaps, and
//!   both sides' closed sink tables. `energy --check` asserts that some
//!   architecture's energy optimum is not its time optimum.
//!
//! Exit codes follow the repo convention (ompfuzz/ompobs):
//! 0 = clean, 4 = findings (a failed `--check`), 2 = usage error,
//! 1 = internal error.

pub mod attrib;
pub mod energy;
pub mod flame;

pub use attrib::{foreign_sample, sink_key, Attribution, Cell, SliceMeta, FP_SCALE};
pub use flame::{diff_svg, energy_diff_svg, explanation_tree, folded, svg, Frame};
