//! Streaming log-bucketed latency histograms with *bounded* quantiles.
//!
//! The sweep's progress meter and manifests need exact counts,
//! mergeability, and quantile answers with a guaranteed error bound.
//! This module provides an HdrHistogram-style bucket scheme with **8
//! sub-buckets per octave**:
//!
//! - values `0..16` get exact unit-width bins (index = value),
//! - a value `v ≥ 16` with `exp = floor(log2 v)` lands in sub-bucket
//!   `sub = (v >> (exp - 3)) & 7`, at index `8 + (exp - 3) * 8 + sub`.
//!
//! Each bin `[lo, lo + width)` has `width = lo / (8 + sub) ≤ lo / 8`, so
//! any quantile is bracketed within **12.5% relative error** — tight
//! enough to rank p99 regressions, cheap enough (496 bins max for u64)
//! to snapshot into every manifest.
//!
//! Two flavors share the bucket math: the plain [`Histogram`] for
//! single-owner accumulation and (de)serialization, and
//! [`AtomicHistogram`] for concurrent recording from sweep workers with
//! relaxed bin increments (counts are exact; only ordering is relaxed).

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per octave; bin width ≤ lo/8 ⇒ ≤ 12.5% relative error.
const SUB_BUCKETS: u64 = 8;
/// Bins for u64 range: 16 exact + 8 per octave for exponents 4..=63.
pub const NUM_BINS: usize = 16 + 60 * SUB_BUCKETS as usize;

/// Bin index for a value. Monotone in `v`.
#[inline]
pub fn bin_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as u64; // floor(log2 v), >= 4
        let sub = (v >> (exp - 3)) & (SUB_BUCKETS - 1);
        (8 + (exp - 3) * SUB_BUCKETS + sub) as usize
    }
}

/// Inclusive-exclusive `[lo, hi)` bounds of a bin.
pub fn bin_bounds(index: usize) -> (u64, u64) {
    if index < 16 {
        (index as u64, index as u64 + 1)
    } else {
        let i = index as u64 - 8;
        let exp = i / SUB_BUCKETS + 3;
        let sub = i % SUB_BUCKETS;
        let lo = (SUB_BUCKETS + sub) << (exp - 3);
        let width = 1u64 << (exp - 3);
        // The very top sub-bucket's upper bound is 2^64; saturate.
        (lo, lo.saturating_add(width))
    }
}

/// A quantile bracket: the true q-quantile lies in `[lo, hi)` (or is
/// exactly `lo == hi` for saturated top bins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantileBound {
    pub lo: u64,
    pub hi: u64,
}

impl QuantileBound {
    /// Midpoint point-estimate, for display.
    pub fn mid(&self) -> u64 {
        self.lo + (self.hi - self.lo) / 2
    }
}

/// Mergeable log-bucketed histogram with exact counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Bin counts, trailing zeros trimmed (so equal distributions
    /// compare equal regardless of history).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: Vec::new(),
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, v: u64) {
        let b = bin_index(v);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Bin-wise sum; exact and associative.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        while self.counts.last() == Some(&0) {
            self.counts.pop();
        }
    }

    /// Is the histogram empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Bracket the `q`-quantile (0 < q ≤ 1): the rank-`ceil(q·count)`
    /// observation's bin bounds, clipped by the observed min/max.
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<QuantileBound> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bin_bounds(b);
                return Some(QuantileBound {
                    lo: lo.max(self.min),
                    hi: hi.min(self.max.saturating_add(1)).max(lo.max(self.min)),
                });
            }
        }
        None
    }

    pub fn p50(&self) -> Option<QuantileBound> {
        self.quantile(0.50)
    }
    pub fn p95(&self) -> Option<QuantileBound> {
        self.quantile(0.95)
    }
    pub fn p99(&self) -> Option<QuantileBound> {
        self.quantile(0.99)
    }

    /// Exact arithmetic mean is unknowable from bins; this is the
    /// bin-midpoint estimate, for display only.
    pub fn mean_estimate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                let (lo, hi) = bin_bounds(b);
                sum += (lo + (hi - lo) / 2) as f64 * c as f64;
            }
        }
        sum / self.count as f64
    }
}

/// Concurrent histogram: workers `record` with relaxed atomics, a
/// single consumer `snapshot`s into a plain [`Histogram`]. Counts are
/// exact (fetch_add never loses increments); only inter-bin ordering
/// is relaxed, which a snapshot taken after the workers quiesce never
/// observes.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            counts: (0..NUM_BINS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation. Lock-free; callable from any thread.
    pub fn record(&self, v: u64) {
        self.counts[bin_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total observations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Freeze current contents into a mergeable [`Histogram`].
    pub fn snapshot(&self) -> Histogram {
        let mut counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        while counts.last() == Some(&0) {
            counts.pop();
        }
        let count: u64 = counts.iter().sum();
        Histogram {
            counts,
            count,
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_bins() {
        for v in 0..16u64 {
            assert_eq!(bin_index(v), v as usize);
            assert_eq!(bin_bounds(v as usize), (v, v + 1));
        }
    }

    #[test]
    fn bins_are_monotone_and_self_consistent() {
        // Sweep exponentially spaced values plus neighbors.
        let mut v = 1u64;
        while v < u64::MAX / 4 {
            for x in [v.saturating_sub(1), v, v + 1, v * 3 / 2] {
                let b = bin_index(x);
                let (lo, hi) = bin_bounds(b);
                assert!(
                    lo <= x && x < hi,
                    "value {x} not inside its bin [{lo},{hi}) (bin {b})"
                );
                assert!(
                    bin_index(x) <= bin_index(x + 1),
                    "bin index not monotone at {x}"
                );
                assert!(b < NUM_BINS, "bin {b} out of range for {x}");
            }
            v *= 2;
        }
    }

    #[test]
    fn bin_width_is_at_most_one_eighth() {
        for v in [16u64, 100, 1_000, 123_456, 1 << 40] {
            let (lo, hi) = bin_bounds(bin_index(v));
            assert!(
                (hi - lo) * 8 <= lo,
                "bin [{lo},{hi}) wider than lo/8 for {v}"
            );
        }
    }

    #[test]
    fn quantiles_are_bracketed() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count, 10_000);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 10_000);
        let p50 = h.p50().unwrap();
        assert!(p50.lo <= 5_000 && 5_000 < p50.hi, "p50 {p50:?}");
        // 12.5% bound check.
        assert!((p50.hi - p50.lo) as f64 <= p50.lo as f64 / 8.0 + 1.0);
        let p99 = h.p99().unwrap();
        assert!(p99.lo <= 9_900 && 9_900 < p99.hi, "p99 {p99:?}");
    }

    #[test]
    fn merge_is_exact_and_trims() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [3u64, 17, 17, 900, 1 << 30] {
            a.record(v);
            whole.record(v);
        }
        for v in [5u64, 17, 1 << 20] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.count, 8);
        // Merging an empty histogram is the identity.
        let before = a.clone();
        a.merge(&Histogram::new());
        assert_eq!(a, before);
    }

    #[test]
    fn atomic_snapshot_matches_plain() {
        let at = AtomicHistogram::new();
        let mut plain = Histogram::new();
        for v in [0u64, 1, 15, 16, 31, 32, 1000, u64::MAX / 2] {
            at.record(v);
            plain.record(v);
        }
        assert_eq!(at.snapshot(), plain);
        assert_eq!(at.count(), 8);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let at = std::sync::Arc::new(AtomicHistogram::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let at = at.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    at.record(t * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = at.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 3999);
    }

    #[test]
    fn serde_round_trip() {
        let mut h = Histogram::new();
        for v in [12u64, 130, 70_000] {
            h.record(v);
        }
        let s = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&s).unwrap();
        assert_eq!(back, h);
    }
}
