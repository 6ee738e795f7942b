//! Worksharing-loop schedules (`OMP_SCHEDULE`, Sec. III-3).
//!
//! Two layers:
//!
//! 1. **Pure chunk math** — [`static_chunks`], [`guided_chunk_size`] —
//!    `Range` views of the two rules in `omptune_core::chunk` (libomp's
//!    `__kmp_for_static_init` split and guided step). The simulator
//!    (`simrt`) calls the same two functions, so the simulated and real
//!    runtimes dispatch identical chunks.
//! 2. **Atomic dispatchers** — [`DynamicDispatcher`], [`GuidedDispatcher`]
//!    — the shared-counter machinery threads use at run time.
//!
//! `auto` maps to `static`, as in libomp.

use crate::perturb::{self, Site};
use crate::trace::{self, Event};
use omptune_core::{chunk, OmpSchedule};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default chunk size when none is given: libomp uses 1 for `dynamic`.
pub const DEFAULT_DYNAMIC_CHUNK: usize = 1;
/// Guided scheduling never hands out chunks smaller than this.
pub const MIN_GUIDED_CHUNK: usize = chunk::MIN_GUIDED_CHUNK as usize;

/// The contiguous block of iterations thread `tid` executes under plain
/// `static` (no chunk): iterations are divided into `num_threads`
/// near-equal blocks; the first `rem` threads get one extra iteration.
pub fn static_chunks(total: usize, num_threads: usize, tid: usize) -> Range<usize> {
    debug_assert!(tid < num_threads);
    let (lo, hi) = chunk::static_block(total as u64, num_threads as u64, tid as u64);
    lo as usize..hi as usize
}

/// The chunks thread `tid` executes under `static,chunk` (block-cyclic):
/// chunk `k` (0-based) goes to thread `k % num_threads`.
pub fn static_cyclic_chunks(
    total: usize,
    num_threads: usize,
    chunk: usize,
    tid: usize,
) -> Vec<Range<usize>> {
    debug_assert!(chunk > 0 && tid < num_threads);
    let mut out = Vec::new();
    let mut k = tid;
    loop {
        let lo = k * chunk;
        if lo >= total {
            break;
        }
        out.push(lo..(lo + chunk).min(total));
        k += num_threads;
    }
    out
}

/// Guided chunk size for `remaining` iterations on a team of
/// `num_threads`: libomp's default guided formula (without chunk
/// parameter).
pub fn guided_chunk_size(remaining: usize, num_threads: usize) -> usize {
    chunk::guided_chunk(remaining as u64, num_threads as u64) as usize
}

/// Shared-counter dispatcher for `dynamic` scheduling.
pub struct DynamicDispatcher {
    next: AtomicUsize,
    total: usize,
    chunk: usize,
    trace_id: u64,
}

impl DynamicDispatcher {
    /// Dispatcher over `0..total` with the given chunk size.
    pub fn new(total: usize, chunk: usize) -> DynamicDispatcher {
        assert!(chunk > 0, "chunk must be positive");
        DynamicDispatcher {
            next: AtomicUsize::new(0),
            total,
            chunk,
            trace_id: trace::next_id(),
        }
    }

    /// Grab the next chunk; `None` when the loop is exhausted.
    pub fn next_chunk(&self) -> Option<Range<usize>> {
        perturb::point(Site::ChunkClaim);
        let lo = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if lo >= self.total {
            return None;
        }
        let hi = (lo + self.chunk).min(self.total);
        omptel::add(omptel::Counter::ChunksDynamic, 1);
        trace::emit(Event::ChunkClaim {
            loop_id: self.trace_id,
            lo,
            hi,
        });
        Some(lo..hi)
    }
}

/// Shared-state dispatcher for `guided` scheduling.
pub struct GuidedDispatcher {
    next: AtomicUsize,
    total: usize,
    num_threads: usize,
    trace_id: u64,
}

impl GuidedDispatcher {
    /// Dispatcher over `0..total` for a team of `num_threads`.
    pub fn new(total: usize, num_threads: usize) -> GuidedDispatcher {
        assert!(num_threads > 0);
        GuidedDispatcher {
            next: AtomicUsize::new(0),
            total,
            num_threads,
            trace_id: trace::next_id(),
        }
    }

    /// Grab the next (exponentially shrinking) chunk.
    pub fn next_chunk(&self) -> Option<Range<usize>> {
        perturb::point(Site::ChunkClaim);
        loop {
            let lo = self.next.load(Ordering::Relaxed);
            if lo >= self.total {
                return None;
            }
            let hi = lo + guided_chunk_size(self.total - lo, self.num_threads);
            if self
                .next
                .compare_exchange_weak(lo, hi, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                omptel::add(omptel::Counter::ChunksGuided, 1);
                trace::emit(Event::ChunkClaim {
                    loop_id: self.trace_id,
                    lo,
                    hi,
                });
                return Some(lo..hi);
            }
        }
    }
}

/// The sequence of chunk sizes `guided` produces for a whole loop when
/// chunks are taken one at a time (deterministic reference used by the
/// simulator and by tests).
pub fn guided_chunk_sequence(total: usize, num_threads: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut remaining = total;
    while remaining > 0 {
        let c = guided_chunk_size(remaining, num_threads);
        out.push(c);
        remaining -= c;
    }
    out
}

/// The per-thread iteration chunks of a `schedule(static)` /
/// `schedule(auto)` loop — the only schedules whose assignment is a pure
/// function of `(total, num_threads, tid)`.
pub fn chunks_for(
    schedule: OmpSchedule,
    total: usize,
    num_threads: usize,
    tid: usize,
) -> Option<Vec<Range<usize>>> {
    match schedule {
        OmpSchedule::Static | OmpSchedule::Auto => {
            let r = static_chunks(total, num_threads, tid);
            Some(if r.is_empty() { Vec::new() } else { vec![r] })
        }
        OmpSchedule::Dynamic | OmpSchedule::Guided => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_exact_cover(ranges: &[Range<usize>], total: usize) {
        let mut seen = vec![false; total];
        for r in ranges {
            for i in r.clone() {
                assert!(!seen[i], "iteration {i} dispatched twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|s| *s), "not all iterations covered");
    }

    #[test]
    fn static_chunks_cover_exactly() {
        for (total, n) in [(100, 7), (3, 8), (0, 4), (64, 64), (1, 1)] {
            let ranges: Vec<_> = (0..n).map(|t| static_chunks(total, n, t)).collect();
            assert_exact_cover(&ranges, total);
        }
    }

    #[test]
    fn static_chunks_are_balanced() {
        // Sizes differ by at most one iteration.
        let sizes: Vec<usize> = (0..7).map(|t| static_chunks(100, 7, t).len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn static_cyclic_covers_exactly() {
        for (total, n, chunk) in [(100, 4, 3), (10, 3, 20), (17, 5, 1)] {
            let ranges: Vec<_> = (0..n)
                .flat_map(|t| static_cyclic_chunks(total, n, chunk, t))
                .collect();
            assert_exact_cover(&ranges, total);
        }
    }

    #[test]
    fn static_cyclic_round_robins() {
        // chunk 2, 3 threads, 12 iterations: thread 0 gets [0,2) and [6,8).
        let c = static_cyclic_chunks(12, 3, 2, 0);
        assert_eq!(c, vec![0..2, 6..8]);
    }

    #[test]
    fn dynamic_dispatcher_covers_exactly() {
        let d = DynamicDispatcher::new(1000, 7);
        let mut ranges = Vec::new();
        while let Some(r) = d.next_chunk() {
            ranges.push(r);
        }
        assert_exact_cover(&ranges, 1000);
        assert!(d.next_chunk().is_none());
    }

    #[test]
    fn dynamic_dispatcher_concurrent_cover() {
        let d = DynamicDispatcher::new(10_000, 3);
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    while let Some(r) = d.next_chunk() {
                        for i in r {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn guided_chunks_shrink() {
        let seq = guided_chunk_sequence(10_000, 8);
        // Non-increasing until the floor of 1.
        for w in seq.windows(2) {
            assert!(w[1] <= w[0], "sequence must shrink: {seq:?}");
        }
        assert_eq!(seq.iter().sum::<usize>(), 10_000);
        // First chunk is total/(2n).
        assert_eq!(seq[0], 10_000 / 16);
    }

    #[test]
    fn guided_dispatcher_matches_reference_sequence() {
        let g = GuidedDispatcher::new(5000, 4);
        let mut sizes = Vec::new();
        while let Some(r) = g.next_chunk() {
            sizes.push(r.len());
        }
        assert_eq!(sizes, guided_chunk_sequence(5000, 4));
    }

    #[test]
    fn guided_dispatcher_concurrent_cover() {
        let g = GuidedDispatcher::new(9999, 5);
        let hits: Vec<AtomicUsize> = (0..9999).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..5 {
                s.spawn(|| {
                    while let Some(r) = g.next_chunk() {
                        for i in r {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn auto_maps_to_static() {
        assert_eq!(
            chunks_for(OmpSchedule::Auto, 100, 4, 1),
            chunks_for(OmpSchedule::Static, 100, 4, 1)
        );
        assert_eq!(chunks_for(OmpSchedule::Dynamic, 100, 4, 1), None);
    }

    #[test]
    fn empty_loop_yields_no_chunks() {
        assert_eq!(chunks_for(OmpSchedule::Static, 0, 4, 2), Some(Vec::new()));
        let d = DynamicDispatcher::new(0, 1);
        assert!(d.next_chunk().is_none());
        let g = GuidedDispatcher::new(0, 4);
        assert!(g.next_chunk().is_none());
    }
}
