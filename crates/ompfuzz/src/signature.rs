//! Trace canonicalization: which schedules are *actually* distinct.
//!
//! Two executions whose traces differ only in OS thread ids or in the
//! absolute values of trace object ids (regions, tasks, locks, loops —
//! allocated from one global counter that other sessions advance) are
//! the same interleaving. The signature renames every id by first
//! appearance and hashes the linearized trace (FNV-1a), so the explorer
//! can prune re-observed interleavings the way sleep sets prune
//! provably equivalent schedules, and count only genuinely distinct
//! ones toward certification.

use omprt::trace::{Event, Record};
use omptune_core::Fnv1a;
use std::collections::HashMap;

/// Canonical 64-bit signature of a trace.
pub fn trace_signature(records: &[Record]) -> u64 {
    let mut h = Fnv1a::new();
    let mut canon = Canon::default();
    for rec in records {
        h.eat_u64(rec.tid as u64);
        h.eat_u64(canon.os(rec.os));
        h.eat_u64(tag(&rec.event));
        match rec.event {
            Event::RegionFork { region }
            | Event::RegionBegin { region }
            | Event::RegionEnd { region }
            | Event::RegionJoin { region } => h.eat_u64(canon.obj(region)),
            Event::BarrierArrive { barrier, team } => {
                h.eat_u64(canon.obj(barrier));
                h.eat_u64(u64::from(team));
            }
            Event::BarrierRelease { barrier } => h.eat_u64(canon.obj(barrier)),
            Event::TaskSpawn { task }
            | Event::TaskSteal { task }
            | Event::TaskStart { task }
            | Event::TaskComplete { task }
            | Event::TaskJoin { task } => h.eat_u64(canon.obj(task)),
            Event::LockAcquire { lock } | Event::LockRelease { lock } => h.eat_u64(canon.obj(lock)),
            Event::Write { loc } | Event::Read { loc } => h.eat_u64(canon.obj(loc)),
            Event::ChunkClaim { loop_id, lo, hi } => {
                h.eat_u64(canon.obj(loop_id));
                h.eat_u64(lo as u64);
                h.eat_u64(hi as u64);
            }
            Event::Notify { cond, epoch }
            | Event::ParkBegin { cond, epoch }
            | Event::ParkEnd { cond, epoch } => {
                h.eat_u64(canon.obj(cond));
                h.eat_u64(epoch);
            }
        }
    }
    h.finish()
}

fn tag(e: &Event) -> u64 {
    match e {
        Event::RegionFork { .. } => 1,
        Event::RegionBegin { .. } => 2,
        Event::RegionEnd { .. } => 3,
        Event::RegionJoin { .. } => 4,
        Event::BarrierArrive { .. } => 5,
        Event::BarrierRelease { .. } => 6,
        Event::TaskSpawn { .. } => 7,
        Event::TaskSteal { .. } => 8,
        Event::TaskStart { .. } => 9,
        Event::TaskComplete { .. } => 10,
        Event::TaskJoin { .. } => 11,
        Event::LockAcquire { .. } => 12,
        Event::LockRelease { .. } => 13,
        Event::Write { .. } => 14,
        Event::Read { .. } => 15,
        Event::ChunkClaim { .. } => 16,
        Event::Notify { .. } => 17,
        Event::ParkBegin { .. } => 18,
        Event::ParkEnd { .. } => 19,
    }
}

/// First-appearance renaming of OS thread ids and trace object ids.
#[derive(Default)]
struct Canon {
    os: HashMap<u64, u64>,
    obj: HashMap<u64, u64>,
}

impl Canon {
    fn os(&mut self, raw: u64) -> u64 {
        let next = self.os.len() as u64;
        *self.os.entry(raw).or_insert(next)
    }

    fn obj(&mut self, raw: u64) -> u64 {
        let next = self.obj.len() as u64;
        *self.obj.entry(raw).or_insert(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tid: usize, os: u64, event: Event) -> Record {
        Record { tid, os, event }
    }

    #[test]
    fn id_renaming_makes_sessions_comparable() {
        // Same interleaving recorded in two sessions with different
        // absolute ids must hash identically.
        let a = vec![
            rec(0, 100, Event::RegionFork { region: 7 }),
            rec(1, 200, Event::Write { loc: 9 }),
        ];
        let b = vec![
            rec(0, 555, Event::RegionFork { region: 70 }),
            rec(1, 777, Event::Write { loc: 90 }),
        ];
        assert_eq!(trace_signature(&a), trace_signature(&b));
    }

    #[test]
    fn order_matters() {
        let a = vec![
            rec(0, 1, Event::Write { loc: 5 }),
            rec(1, 2, Event::Read { loc: 5 }),
        ];
        let b = vec![
            rec(1, 2, Event::Read { loc: 5 }),
            rec(0, 1, Event::Write { loc: 5 }),
        ];
        assert_ne!(trace_signature(&a), trace_signature(&b));
    }

    #[test]
    fn distinct_aliasing_stays_distinct() {
        // Two writes to one location vs. two different locations.
        let same = vec![
            rec(0, 1, Event::Write { loc: 5 }),
            rec(0, 1, Event::Write { loc: 5 }),
        ];
        let diff = vec![
            rec(0, 1, Event::Write { loc: 5 }),
            rec(0, 1, Event::Write { loc: 6 }),
        ];
        assert_ne!(trace_signature(&same), trace_signature(&diff));
    }

    #[test]
    fn chunk_bounds_feed_the_hash() {
        let a = vec![rec(
            0,
            1,
            Event::ChunkClaim {
                loop_id: 3,
                lo: 0,
                hi: 8,
            },
        )];
        let b = vec![rec(
            0,
            1,
            Event::ChunkClaim {
                loop_id: 3,
                lo: 0,
                hi: 9,
            },
        )];
        assert_ne!(trace_signature(&a), trace_signature(&b));
    }
}
