//! The worksharing chunk rules, written once: libomp's
//! `__kmp_for_static_init` near-equal split and its default guided step.
//! The executing runtime (`omprt::sched`) and the model (`simrt`'s planner
//! and event-driven oracle) both call these, so the chunks they dispatch
//! agree by construction. `omprt`'s `sched` unit tests and property tests
//! hold the rules through its `Range` wrappers.

/// `schedule(static)`: the contiguous block `[lo, hi)` of `0..total` that
/// thread `tid` of `num_threads` executes — near-equal blocks, the first
/// `total % num_threads` threads one iteration longer.
#[inline]
pub fn static_block(total: u64, num_threads: u64, tid: u64) -> (u64, u64) {
    let (base, rem) = (total / num_threads, total % num_threads);
    let lo = tid * base + tid.min(rem);
    (lo, lo + base + u64::from(tid < rem))
}

/// Guided scheduling never hands out chunks smaller than this.
pub const MIN_GUIDED_CHUNK: u64 = 1;

/// `schedule(guided)`: the size of the next chunk with `remaining`
/// iterations left — `remaining / (2 * num_threads)`, at least one
/// iteration, never more than are left.
#[inline]
pub fn guided_chunk(remaining: u64, num_threads: u64) -> u64 {
    (remaining / (2 * num_threads))
        .max(MIN_GUIDED_CHUNK)
        .min(remaining)
}
