//! Synchronization-event tracing for the happens-before checker.
//!
//! When a trace session is active, instrumented sites across the runtime
//! (barrier waits, task fork/steal/join, reduction slot accesses, lock
//! sections, worksharing chunk claims, region fork/join) append
//! [`Record`]s to a global buffer. `omplint::check` replays the buffer
//! through a vector-clock happens-before analysis to certify the
//! schedule race-free and to detect barrier misuse and deadlock shapes.
//!
//! Cost model: every site is gated on one relaxed atomic load, so with
//! tracing off (the default) the instrumented runtime stays within noise
//! of an uninstrumented build — the `runtime_ablation` bench quantifies
//! both states.
//!
//! Sessions are exclusive: [`session`] holds a global lock for the
//! guard's lifetime so concurrent tests cannot interleave their traces.
//! Records are keyed by a per-OS-thread id (`os`) for ordering and by
//! the team-relative id (`tid`) for protocol checks, so stray events
//! from other (untraced) code paths degrade into isolated components
//! instead of corrupting the analysis.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One synchronization event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A parallel-region dispatch is about to fork (emitted by the caller).
    RegionFork { region: u64 },
    /// A team thread entered the region closure.
    RegionBegin { region: u64 },
    /// A team thread finished the region closure.
    RegionEnd { region: u64 },
    /// The caller observed the implicit end-of-region join.
    RegionJoin { region: u64 },
    /// Arrival at a barrier episode (`team` = the barrier's team size).
    BarrierArrive { barrier: u64, team: u32 },
    /// Release from the matching barrier episode.
    BarrierRelease { barrier: u64 },
    /// A task was forked and made stealable.
    TaskSpawn { task: u64 },
    /// A task was taken from another thread's deque.
    TaskSteal { task: u64 },
    /// Task body starts executing (on owner or thief).
    TaskStart { task: u64 },
    /// Task body finished; completion latch set.
    TaskComplete { task: u64 },
    /// The forking thread observed the task's completion.
    TaskJoin { task: u64 },
    /// Mutex acquired.
    LockAcquire { lock: u64 },
    /// Mutex released.
    LockRelease { lock: u64 },
    /// Plain (non-atomic) write to a shared location.
    Write { loc: u64 },
    /// Plain (non-atomic) read of a shared location.
    Read { loc: u64 },
    /// A worksharing chunk `[lo, hi)` was claimed from loop `loop_id`.
    ChunkClaim { loop_id: u64, lo: usize, hi: usize },
    /// A new epoch `epoch` was announced on condition object `cond`
    /// (emitted by the notifier while holding the lock that guards the
    /// epoch).
    Notify { cond: u64, epoch: u64 },
    /// The thread decided to park on `cond` having observed `epoch`
    /// under the guarding lock; it sleeps until the epoch changes.
    ParkBegin { cond: u64, epoch: u64 },
    /// The thread woke from `cond` and re-observed `epoch`.
    ParkEnd { cond: u64, epoch: u64 },
}

/// One trace entry. Order within the session buffer is the global
/// linearization (emission happens inside the buffer lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Team-relative thread id (`usize::MAX` when emitted outside a
    /// team context).
    pub tid: usize,
    /// Process-unique id of the emitting OS thread.
    pub os: u64,
    pub event: Event,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static BUFFER: Mutex<Vec<Record>> = Mutex::new(Vec::new());
static SESSION: Mutex<()> = Mutex::new(());

thread_local! {
    static TEAM_TID: Cell<usize> = const { Cell::new(usize::MAX) };
    static OS_ID: Cell<u64> = const { Cell::new(0) };
}

fn unpoison<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Allocate a process-unique id for a traced object (barrier, lock,
/// location, loop, task, region). Never returns 0.
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Allocate `n` consecutive ids and return the first. Lets an object
/// with per-element locations (e.g. a slot array) derive element ids by
/// offset instead of storing a vector of them.
pub fn next_ids(n: u64) -> u64 {
    NEXT_ID.fetch_add(n, Ordering::Relaxed)
}

/// Whether a trace session is currently collecting.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// [`next_id`] when a session is active, 0 otherwise. Lets call sites
/// allocate per-episode object ids (regions, tasks) at the cost of a
/// single relaxed load when untraced.
#[inline]
pub fn live_id() -> u64 {
    if is_enabled() {
        next_id()
    } else {
        0
    }
}

/// Set the team-relative thread id for the current OS thread. The pool
/// does this on region entry; tests driving primitives with raw threads
/// should call it themselves.
pub fn set_thread_id(tid: usize) {
    TEAM_TID.with(|c| c.set(tid));
}

fn os_id() -> u64 {
    OS_ID.with(|c| {
        if c.get() == 0 {
            c.set(next_id());
        }
        c.get()
    })
}

/// Append an event to the active session (no-op when none is active).
#[inline]
pub fn emit(event: Event) {
    if !is_enabled() {
        return;
    }
    let rec = Record {
        tid: TEAM_TID.with(Cell::get),
        os: os_id(),
        event,
    };
    unpoison(BUFFER.lock()).push(rec);
}

/// Exclusive handle on the global trace buffer.
pub struct TraceSession {
    _exclusive: MutexGuard<'static, ()>,
}

/// Begin a trace session: takes the global session lock, clears the
/// buffer, and starts collection. Dropping the session stops collection;
/// call [`TraceSession::finish`] to stop and take the records.
pub fn session() -> TraceSession {
    let guard = unpoison(SESSION.lock());
    unpoison(BUFFER.lock()).clear();
    ENABLED.store(true, Ordering::SeqCst);
    TraceSession { _exclusive: guard }
}

impl TraceSession {
    /// Stop collecting and return the recorded events in emission order.
    pub fn finish(self) -> Vec<Record> {
        ENABLED.store(false, Ordering::SeqCst);
        std::mem::take(&mut *unpoison(BUFFER.lock()))
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emits_nothing() {
        // No session: emit must be a no-op.
        emit(Event::Read { loc: 99 });
        let s = session();
        let records = s.finish();
        assert!(records.is_empty());
    }

    #[test]
    fn session_collects_in_order() {
        let s = session();
        set_thread_id(3);
        emit(Event::Write { loc: 7 });
        emit(Event::Read { loc: 7 });
        let records = s.finish();
        set_thread_id(usize::MAX);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].tid, 3);
        assert_eq!(records[0].event, Event::Write { loc: 7 });
        assert_eq!(records[1].event, Event::Read { loc: 7 });
        assert_eq!(records[0].os, records[1].os);
    }

    #[test]
    fn ids_are_unique() {
        let a = next_id();
        let b = next_id();
        assert_ne!(a, b);
        assert_ne!(a, 0);
    }
}
