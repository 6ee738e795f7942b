//! Deterministic discrete-event simulation engine.
//!
//! Virtual time is `u64` nanoseconds. The engine is a priority queue of
//! `(time, payload)` events with strict determinism: equal-time events pop
//! in insertion order (a monotone sequence number breaks ties), so a
//! simulation is a pure function of its inputs — a property the 240k-run
//! sweep and the resumable tests rely on.
//!
//! [`CorePool`] complements the queue for the chunk-level runtime
//! simulation: it tracks when each simulated core becomes free and serves
//! "run this for d ns on core c, starting no earlier than t" requests.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Virtual time in nanoseconds.
pub type VTime = u64;

/// Convert fractional nanoseconds to the integer clock, rounding up so
/// that zero-cost work still advances time when it must.
pub fn ns(t: f64) -> VTime {
    debug_assert!(
        t >= 0.0 && t.is_finite(),
        "negative or non-finite time: {t}"
    );
    t.ceil() as VTime
}

#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Entry(VTime, u64);

/// A deterministic event queue carrying payloads of type `T`.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<(Entry, usize)>>,
    payloads: Vec<Option<T>>,
    seq: u64,
    now: VTime,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Create an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            payloads: Vec::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> VTime {
        self.now
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// # Panics
    /// Panics when scheduling into the past — that is always a simulation
    /// bug, and catching it eagerly keeps causality honest.
    pub fn schedule(&mut self, at: VTime, payload: T) {
        assert!(
            at >= self.now,
            "scheduling into the past: {} < {}",
            at,
            self.now
        );
        let idx = self.payloads.len();
        self.payloads.push(Some(payload));
        self.heap.push(Reverse((Entry(at, self.seq), idx)));
        self.seq += 1;
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(VTime, T)> {
        let Reverse((Entry(at, _), idx)) = self.heap.pop()?;
        self.now = at;
        let payload = self.payloads[idx].take().expect("payload popped twice");
        Some((at, payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Per-core availability tracking for chunk-level execution.
///
/// Each core has a `next_free` time; work placed on a core starts at
/// `max(requested_start, next_free)` and pushes `next_free` forward.
/// Oversubscription (more threads than cores on a place) therefore
/// serializes naturally — the mechanism behind the paper's worst-trend
/// (`master` binding at high thread counts).
#[derive(Debug, Clone, PartialEq)]
pub struct CorePool {
    next_free: Vec<VTime>,
    busy_ns: Vec<VTime>,
}

impl CorePool {
    /// A pool of `n` idle cores at time zero.
    pub fn new(n: usize) -> CorePool {
        assert!(n > 0, "need at least one core");
        CorePool {
            next_free: vec![0; n],
            busy_ns: vec![0; n],
        }
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.next_free.len()
    }

    /// Always false; pools have at least one core.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Run `duration` ns of work on `core`, starting no earlier than
    /// `earliest`. Returns `(start, end)`.
    pub fn run(&mut self, core: usize, earliest: VTime, duration: VTime) -> (VTime, VTime) {
        let start = self.next_free[core].max(earliest);
        let end = start + duration;
        self.next_free[core] = end;
        self.busy_ns[core] += duration;
        (start, end)
    }

    /// Among `cores`, the one that frees up first (ties go to the lowest
    /// index, deterministically).
    pub fn earliest_free_of(&self, cores: impl IntoIterator<Item = usize>) -> Option<usize> {
        let mut best: Option<(VTime, usize)> = None;
        for c in cores {
            let t = self.next_free[c];
            if best.is_none_or(|(bt, bc)| t < bt || (t == bt && c < bc)) {
                best = Some((t, c));
            }
        }
        best.map(|(_, c)| c)
    }

    /// Total busy nanoseconds accumulated on `core`.
    pub fn busy_ns(&self, core: usize) -> VTime {
        self.busy_ns[core]
    }

    /// The time by which every core is free — the pool-wide makespan.
    pub fn makespan(&self) -> VTime {
        self.next_free.iter().copied().max().unwrap_or(0)
    }

    /// Aggregate utilization in `[0, 1]` relative to the makespan.
    pub fn utilization(&self) -> f64 {
        let span = self.makespan();
        if span == 0 {
            return 0.0;
        }
        let busy: u128 = self.busy_ns.iter().map(|b| *b as u128).sum();
        busy as f64 / (span as u128 * self.next_free.len() as u128) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.now(), 20);
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_time_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn core_pool_serializes_on_one_core() {
        let mut p = CorePool::new(2);
        let (s1, e1) = p.run(0, 0, 100);
        let (s2, e2) = p.run(0, 0, 50);
        assert_eq!((s1, e1), (0, 100));
        assert_eq!((s2, e2), (100, 150)); // waits for the first chunk
        let (s3, e3) = p.run(1, 0, 30);
        assert_eq!((s3, e3), (0, 30)); // other core is free
        assert_eq!(p.makespan(), 150);
    }

    #[test]
    fn earliest_free_prefers_lowest_index_on_tie() {
        let mut p = CorePool::new(4);
        p.run(0, 0, 10);
        p.run(2, 0, 5);
        assert_eq!(p.earliest_free_of([0, 1, 2, 3]), Some(1)); // 1 and 3 free at 0
        assert_eq!(p.earliest_free_of([0, 2]), Some(2));
        assert_eq!(p.earliest_free_of(std::iter::empty()), None);
    }

    #[test]
    fn utilization_bounds() {
        let mut p = CorePool::new(2);
        p.run(0, 0, 100);
        p.run(1, 0, 100);
        assert!((p.utilization() - 1.0).abs() < 1e-12);
        let mut p = CorePool::new(2);
        p.run(0, 0, 100);
        assert!((p.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(CorePool::new(3).utilization(), 0.0);
    }

    #[test]
    fn ns_rounds_up() {
        assert_eq!(ns(0.0), 0);
        assert_eq!(ns(0.1), 1);
        assert_eq!(ns(5.0), 5);
    }
}
