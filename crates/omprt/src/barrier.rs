//! Barriers: central (sense-reversing) and combining-tree.
//!
//! libomp implements several barrier algorithms; the two ends of the
//! spectrum matter for tuning: a *central* barrier (one shared counter —
//! O(n) contention on one cache line) and a *tree* barrier (log-depth
//! combining, less contention at high thread counts). Both are exposed so
//! the ablation bench can compare them; the runtime default follows
//! thread count like libomp's hierarchical choice.

use crate::perturb::{self, Site};
use crate::trace::{self, Event};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// One barrier wait episode's observability state: the telemetry clock
/// (when a counter session is live) and a flight-recorder span (when
/// tracing is live). Both are one relaxed load when disabled.
struct Episode {
    tel: Option<Instant>,
    _span: omptel::Span,
}

/// Start a barrier wait episode.
fn episode_start(team: usize) -> Episode {
    Episode {
        tel: omptel::enabled().then(Instant::now),
        _span: omptel::span(omptel::SpanKind::Barrier, team as u64),
    }
}

/// Record one completed barrier wait episode (dropping the episode
/// closes its trace span).
fn episode_end(episode: Episode) {
    if let Some(t0) = episode.tel {
        omptel::add(omptel::Counter::BarrierEpisodes, 1);
        omptel::add(
            omptel::Counter::BarrierWaitNs,
            t0.elapsed().as_nanos() as u64,
        );
    }
}

/// A reusable barrier for a fixed team size.
pub trait Barrier: Sync {
    /// Block until all `team_size` threads have arrived. `tid` is the
    /// caller's team-local id.
    fn wait(&self, tid: usize);
    /// The team size this barrier synchronizes.
    fn team_size(&self) -> usize;
}

/// Central sense-reversing barrier: one atomic counter plus a global
/// sense flag; the last arriver flips the sense.
pub struct CentralBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    team: usize,
    trace_id: u64,
}

impl CentralBarrier {
    /// Barrier for `team` threads.
    pub fn new(team: usize) -> CentralBarrier {
        assert!(team >= 1);
        CentralBarrier {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            team,
            trace_id: trace::next_id(),
        }
    }
}

impl Barrier for CentralBarrier {
    fn wait(&self, _tid: usize) {
        trace::emit(Event::BarrierArrive {
            barrier: self.trace_id,
            team: self.team as u32,
        });
        let tel = episode_start(self.team);
        if self.team == 1 {
            episode_end(tel);
            trace::emit(Event::BarrierRelease {
                barrier: self.trace_id,
            });
            return;
        }
        perturb::point(Site::BarrierArrive);
        let my_sense = !self.sense.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.team {
            self.count.store(0, Ordering::Release);
            self.sense.store(my_sense, Ordering::Release);
        } else {
            perturb::point(Site::BarrierSpin);
            while self.sense.load(Ordering::Acquire) != my_sense {
                std::hint::spin_loop();
            }
        }
        episode_end(tel);
        trace::emit(Event::BarrierRelease {
            barrier: self.trace_id,
        });
    }

    fn team_size(&self) -> usize {
        self.team
    }
}

/// Combining-tree barrier: threads arrive at leaf groups of
/// `branching` children; group winners propagate up; the root releases
/// everyone by flipping a per-round sense.
pub struct TreeBarrier {
    /// Arrival counters, one per internal node, level by level.
    nodes: Vec<AtomicUsize>,
    /// Children per node.
    branching: usize,
    sense: AtomicBool,
    team: usize,
    /// Per-level ranges into `nodes`: (offset, width).
    levels: Vec<(usize, usize)>,
    trace_id: u64,
}

impl TreeBarrier {
    /// Tree barrier for `team` threads with the given branching factor.
    pub fn new(team: usize, branching: usize) -> TreeBarrier {
        assert!(team >= 1 && branching >= 2);
        let mut levels = Vec::new();
        let mut width = team;
        let mut offset = 0;
        while width > 1 {
            let parents = width.div_ceil(branching);
            levels.push((offset, parents));
            offset += parents;
            width = parents;
        }
        let nodes = (0..offset).map(|_| AtomicUsize::new(0)).collect();
        TreeBarrier {
            nodes,
            branching,
            sense: AtomicBool::new(false),
            team,
            levels,
            trace_id: trace::next_id(),
        }
    }

    /// Number of children of node `node_idx` on `level` (the last group
    /// may be smaller).
    fn fanin(&self, level: usize, node: usize) -> usize {
        let width_below = if level == 0 {
            self.team
        } else {
            self.levels[level - 1].1
        };
        let full = self.branching;
        let start = node * full;
        full.min(width_below - start)
    }
}

impl Barrier for TreeBarrier {
    fn wait(&self, tid: usize) {
        trace::emit(Event::BarrierArrive {
            barrier: self.trace_id,
            team: self.team as u32,
        });
        let tel = episode_start(self.team);
        if self.team == 1 {
            episode_end(tel);
            trace::emit(Event::BarrierRelease {
                barrier: self.trace_id,
            });
            return;
        }
        perturb::point(Site::BarrierArrive);
        let my_sense = !self.sense.load(Ordering::Acquire);

        // Climb: at each level, the arriving thread that completes its
        // group continues upward; the others wait for the release.
        let mut pos = tid;
        let mut winner = true;
        for (level, &(offset, _)) in self.levels.iter().enumerate() {
            let node = pos / self.branching;
            let fanin = self.fanin(level, node);
            let idx = offset + node;
            let arrived = self.nodes[idx].fetch_add(1, Ordering::AcqRel) + 1;
            if arrived == fanin {
                // Last of the group: reset and continue climbing.
                self.nodes[idx].store(0, Ordering::Release);
                pos = node;
            } else {
                winner = false;
                break;
            }
        }
        if winner {
            // Reached (past) the root: release everyone.
            self.sense.store(my_sense, Ordering::Release);
        } else {
            perturb::point(Site::BarrierSpin);
            while self.sense.load(Ordering::Acquire) != my_sense {
                std::hint::spin_loop();
            }
        }
        episode_end(tel);
        trace::emit(Event::BarrierRelease {
            barrier: self.trace_id,
        });
    }

    fn team_size(&self) -> usize {
        self.team
    }
}

/// The barrier algorithm libomp-style heuristics would choose for a team:
/// tree for larger teams, central for small ones.
pub fn default_barrier(team: usize) -> Box<dyn Barrier + Send> {
    if team > 8 {
        Box::new(TreeBarrier::new(team, 4))
    } else {
        Box::new(CentralBarrier::new(team))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Generic stress: `rounds` barrier episodes; a shared counter is
    /// incremented before each wait and must read `team * round` after.
    fn stress(barrier: &(dyn Barrier + Sync), team: usize, rounds: usize) {
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for tid in 0..team {
                let counter = &counter;
                s.spawn(move || {
                    for round in 1..=rounds {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait(tid);
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(
                            seen >= (team * round) as u64,
                            "barrier released early: saw {seen} < {}",
                            team * round
                        );
                        barrier.wait(tid);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), (team * rounds) as u64);
    }

    #[test]
    fn central_barrier_synchronizes() {
        let b = CentralBarrier::new(4);
        stress(&b, 4, 20);
    }

    #[test]
    fn tree_barrier_synchronizes() {
        for team in [2, 3, 4, 5, 8] {
            let b = TreeBarrier::new(team, 2);
            stress(&b, team, 10);
        }
    }

    #[test]
    fn tree_barrier_wide_branching() {
        let b = TreeBarrier::new(7, 4);
        stress(&b, 7, 10);
    }

    #[test]
    fn single_thread_barrier_is_noop() {
        CentralBarrier::new(1).wait(0);
        TreeBarrier::new(1, 2).wait(0);
    }

    #[test]
    fn default_barrier_choice() {
        assert_eq!(default_barrier(4).team_size(), 4);
        assert_eq!(default_barrier(48).team_size(), 48);
    }

    #[test]
    fn tree_levels_shape() {
        // 9 threads, branching 2: levels 5, 3, 2, 1 parents.
        let b = TreeBarrier::new(9, 2);
        let widths: Vec<usize> = b.levels.iter().map(|(_, w)| *w).collect();
        assert_eq!(widths, vec![5, 3, 2, 1]);
    }
}
