//! Happens-before race/deadlock checking over runtime traces.
//!
//! The `check`-instrumented runtime (`omprt::trace`) records one
//! [`Record`] per synchronization event; this module replays the buffer
//! through a vector-clock analysis and certifies the observed schedule:
//!
//! - **Races** — plain `Read`/`Write` events on the same location must be
//!   ordered by the happens-before relation induced by barrier episodes,
//!   lock release→acquire pairs, task spawn→start / complete→join pairs,
//!   and region fork/join. Unordered conflicting accesses fire `C-RACE`.
//! - **Barrier misuse** — a release observed before the episode gathered
//!   its full team (`B-EARLY-RELEASE`), re-arrival before release
//!   (`B-REENTRY`), and inconsistent team sizes (`B-TEAM-MISMATCH`). A
//!   misused episode is *tainted*: it contributes no ordering, so bugs it
//!   would have masked still surface as races.
//! - **Lock and task misuse** — a lock acquired while held or released
//!   by a non-holder (`L-MISUSE`), a task started without a recorded
//!   spawn (`T-ORPHAN`), a join observed before its task completed
//!   (`T-JOIN-INCOMPLETE`).
//! - **Deadlock shapes** — cycles in the lock-order graph
//!   (`D-LOCK-CYCLE`), cycles in the task join-wait graph
//!   (`D-JOIN-CYCLE`), tasks spawned but never completed
//!   (`D-TASK-INCOMPLETE`), and a thread parked on an epoch a recorded
//!   notification had already advanced past (`D-LOST-WAKEUP`).
//! - **Worksharing** — chunk claims within one loop must be disjoint
//!   (`C-CHUNK-OVERLAP`).
//!
//! The analysis is sound for the runtime's own traces because every
//! instrumented site emits while holding the ordering it witnesses (see
//! `omprt::trace`): arrivals precede their releases in log order, task
//! completions precede the joins they unblock, and lock events are
//! emitted inside the critical section.
//!
//! Threads are keyed by the process-unique `os` id, so events leaking
//! from concurrent *untraced* code form isolated components instead of
//! producing false positives.

use omprt::trace::{Event, Record};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How bad a finding is. Every rule is an error: any finding means the
/// schedule is not certified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Severity {
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("error")
    }
}

/// One rule firing against one trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `C-RACE` or `B-EARLY-RELEASE`.
    pub rule: String,
    pub severity: Severity,
    /// What went wrong, naming the threads and objects involved.
    pub message: String,
    /// Suggested fix; the checker leaves it empty.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// An error-severity firing of `rule`.
    pub fn new(rule: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            rule: rule.into(),
            severity: Severity::Error,
            message: message.into(),
            suggestion: None,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.rule, self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, " (suggestion: {s})")?;
        }
        Ok(())
    }
}

/// A vector clock mapping os-thread ids to event counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct VClock(BTreeMap<u64, u64>);

impl VClock {
    fn get(&self, t: u64) -> u64 {
        self.0.get(&t).copied().unwrap_or(0)
    }

    /// Advance this thread's own component; returns the new value.
    fn tick(&mut self, t: u64) -> u64 {
        let e = self.0.entry(t).or_insert(0);
        *e += 1;
        *e
    }

    fn join(&mut self, other: &VClock) {
        for (&t, &v) in &other.0 {
            let e = self.0.entry(t).or_insert(0);
            if *e < v {
                *e = v;
            }
        }
    }
}

/// Counts of what the checker saw (also the ablation's workload proxy).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckStats {
    pub events: usize,
    pub threads: usize,
    pub regions: usize,
    pub barriers: usize,
    /// Barrier episodes that gathered their full team.
    pub episodes_completed: usize,
    pub tasks: usize,
    pub steals: usize,
    pub locks: usize,
    pub locations: usize,
    pub loops: usize,
    pub chunks: usize,
    /// Condition objects seen in the condvar protocol.
    pub conds: usize,
    /// Epoch announcements (`Notify`) recorded.
    pub notifies: usize,
    /// Park decisions (`ParkBegin`) recorded.
    pub parks: usize,
}

/// The checker's verdict on one trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckReport {
    pub diagnostics: Vec<Diagnostic>,
    pub stats: CheckStats,
}

impl CheckReport {
    /// No findings: the schedule is certified race- and deadlock-free.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    pub fn has_rule(&self, id: &str) -> bool {
        self.diagnostics.iter().any(|d| d.rule == id)
    }

    pub fn races(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.rule == "C-RACE")
            .count()
    }
}

/// Certify a trace, returning the stats on success and the formatted
/// findings on failure — the form property tests want.
pub fn certify(records: &[Record]) -> Result<CheckStats, String> {
    let report = check_trace(records);
    if report.is_clean() {
        Ok(report.stats)
    } else {
        let lines: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
        Err(lines.join("\n"))
    }
}

#[derive(Default)]
struct Episode {
    arrivals: u32,
    vc: VClock,
    tainted: bool,
}

#[derive(Default)]
struct BarrierState {
    team: Option<u32>,
    episodes: Vec<Episode>,
    arrived: BTreeMap<u64, usize>,
    released: BTreeMap<u64, usize>,
}

#[derive(Default)]
struct TaskState {
    spawn_vc: Option<VClock>,
    complete_vc: Option<VClock>,
}

#[derive(Default)]
struct LockState {
    last_release: Option<VClock>,
    holder: Option<u64>,
}

#[derive(Default)]
struct LocState {
    /// Epoch of the most recent write: (os, that thread's own component).
    last_write: Option<(u64, u64)>,
    /// Epochs of reads since the last write.
    reads: Vec<(u64, u64)>,
}

#[derive(Default)]
struct RegionState {
    fork_vc: Option<VClock>,
    end_vc: VClock,
}

/// One condition object's protocol state. All three cond events are
/// emitted under the epoch-guarding mutex, so log order on one cond is
/// the mutex order — the invariants below hold exactly, not modulo
/// reordering.
#[derive(Default)]
struct CondState {
    /// Highest epoch announced by a `Notify` so far; `None` until the
    /// first recorded announcement (a thread legitimately parked across
    /// the session start has no notify to compare against).
    last_epoch: Option<u64>,
    /// Join of every notifier's clock: a waker's `ParkEnd` inherits it,
    /// giving the checker the notify→wake happens-before edge.
    notify_vc: VClock,
}

fn tid_str(tid: usize) -> String {
    if tid == usize::MAX {
        "?".to_string()
    } else {
        tid.to_string()
    }
}

/// Emit at most one diagnostic per (rule, object, flavor) so a single
/// buggy barrier in a 10⁵-event trace reports once, not 10⁵ times.
fn fire(
    diags: &mut Vec<Diagnostic>,
    seen: &mut BTreeSet<(&'static str, u64, u64)>,
    rule: &'static str,
    key: (u64, u64),
    message: String,
) {
    if seen.insert((rule, key.0, key.1)) {
        diags.push(Diagnostic::new(rule, message));
    }
}

/// Find one cycle in a directed graph, returned as the node sequence.
fn find_cycle(edges: &BTreeMap<u64, BTreeSet<u64>>) -> Option<Vec<u64>> {
    fn dfs(
        node: u64,
        edges: &BTreeMap<u64, BTreeSet<u64>>,
        state: &mut BTreeMap<u64, u8>, // 1 = on path, 2 = done
        path: &mut Vec<u64>,
    ) -> Option<Vec<u64>> {
        state.insert(node, 1);
        path.push(node);
        if let Some(next) = edges.get(&node) {
            for &n in next {
                match state.get(&n).copied().unwrap_or(0) {
                    0 => {
                        if let Some(c) = dfs(n, edges, state, path) {
                            return Some(c);
                        }
                    }
                    1 => {
                        let start = path.iter().position(|&p| p == n).unwrap_or(0);
                        let mut cycle = path[start..].to_vec();
                        cycle.push(n);
                        return Some(cycle);
                    }
                    _ => {}
                }
            }
        }
        path.pop();
        state.insert(node, 2);
        None
    }

    let mut state = BTreeMap::new();
    for &node in edges.keys() {
        if state.get(&node).copied().unwrap_or(0) == 0 {
            if let Some(c) = dfs(node, edges, &mut state, &mut Vec::new()) {
                return Some(c);
            }
        }
    }
    None
}

/// Replay a trace through the vector-clock analysis.
pub fn check_trace(records: &[Record]) -> CheckReport {
    let mut clocks: BTreeMap<u64, VClock> = BTreeMap::new();
    let mut barriers: BTreeMap<u64, BarrierState> = BTreeMap::new();
    let mut tasks: BTreeMap<u64, TaskState> = BTreeMap::new();
    let mut locks: BTreeMap<u64, LockState> = BTreeMap::new();
    let mut locs: BTreeMap<u64, LocState> = BTreeMap::new();
    let mut regions: BTreeMap<u64, RegionState> = BTreeMap::new();
    let mut conds: BTreeMap<u64, CondState> = BTreeMap::new();
    let mut loops: BTreeMap<u64, Vec<(usize, usize)>> = BTreeMap::new();
    // Per-thread stack of currently-executing tasks (for join-wait edges).
    let mut exec_stack: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    // Per-thread stack of currently-held locks (for the order graph).
    let mut held: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut lock_edges: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    // Joins that ran before the joined task completed: (enclosing, task).
    let mut pending_joins: Vec<(Option<u64>, u64)> = Vec::new();

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut seen: BTreeSet<(&'static str, u64, u64)> = BTreeSet::new();
    let mut stats = CheckStats::default();
    let mut episodes_completed = 0usize;
    let mut steals = 0usize;
    let mut notifies = 0usize;
    let mut parks = 0usize;

    for rec in records {
        let os = rec.os;
        let vc = clocks.entry(os).or_default();
        let stamp = vc.tick(os);

        match rec.event {
            Event::RegionFork { region } => {
                regions.entry(region).or_default().fork_vc = Some(vc.clone());
            }
            Event::RegionBegin { region } => {
                if let Some(f) = &regions.entry(region).or_default().fork_vc {
                    vc.join(f);
                }
            }
            Event::RegionEnd { region } => {
                regions.entry(region).or_default().end_vc.join(vc);
            }
            Event::RegionJoin { region } => {
                vc.join(&regions.entry(region).or_default().end_vc);
            }
            Event::BarrierArrive { barrier, team } => {
                let st = barriers.entry(barrier).or_default();
                match st.team {
                    None => st.team = Some(team),
                    Some(t0) if t0 != team => fire(
                        &mut diags,
                        &mut seen,
                        "B-TEAM-MISMATCH",
                        (barrier, 0),
                        format!(
                            "barrier {barrier}: thread {} arrived announcing team {team}, \
                             barrier was created for team {t0}",
                            tid_str(rec.tid)
                        ),
                    ),
                    _ => {}
                }
                let released = st.released.get(&os).copied().unwrap_or(0);
                let arrived = st.arrived.entry(os).or_insert(0);
                if *arrived > released {
                    fire(
                        &mut diags,
                        &mut seen,
                        "B-REENTRY",
                        (barrier, os),
                        format!(
                            "barrier {barrier}: thread {} re-arrived before being released \
                             from episode {}",
                            tid_str(rec.tid),
                            *arrived - 1
                        ),
                    );
                }
                let k = *arrived;
                *arrived += 1;
                if st.episodes.len() <= k {
                    st.episodes.resize_with(k + 1, Episode::default);
                }
                let team_size = st.team.unwrap_or(team);
                let ep = &mut st.episodes[k];
                ep.arrivals += 1;
                ep.vc.join(vc);
                if ep.arrivals > team_size {
                    fire(
                        &mut diags,
                        &mut seen,
                        "B-TEAM-MISMATCH",
                        (barrier, k as u64 + 1),
                        format!(
                            "barrier {barrier}: episode {k} gathered {} arrivals for a team \
                             of {team_size}",
                            ep.arrivals
                        ),
                    );
                }
                if ep.arrivals == team_size {
                    episodes_completed += 1;
                }
            }
            Event::BarrierRelease { barrier } => {
                let st = barriers.entry(barrier).or_default();
                let arrived = st.arrived.get(&os).copied().unwrap_or(0);
                let released = st.released.entry(os).or_insert(0);
                if *released >= arrived {
                    fire(
                        &mut diags,
                        &mut seen,
                        "B-EARLY-RELEASE",
                        (barrier, os),
                        format!(
                            "barrier {barrier}: thread {} released without a matching arrival",
                            tid_str(rec.tid)
                        ),
                    );
                    *released += 1;
                } else {
                    let k = *released;
                    *released += 1;
                    let team_size = st.team.unwrap_or(0);
                    let ep = &mut st.episodes[k];
                    if ep.arrivals < team_size {
                        ep.tainted = true;
                        fire(
                            &mut diags,
                            &mut seen,
                            "B-EARLY-RELEASE",
                            (barrier, u64::MAX - k as u64),
                            format!(
                                "barrier {barrier}: episode {k} released thread {} after only \
                                 {} of {team_size} arrivals",
                                tid_str(rec.tid),
                                ep.arrivals
                            ),
                        );
                    }
                    // A tainted episode provides no ordering: races it
                    // would have hidden must still be reported.
                    if !ep.tainted {
                        vc.join(&ep.vc);
                    }
                }
            }
            Event::TaskSpawn { task } => {
                tasks.entry(task).or_default().spawn_vc = Some(vc.clone());
            }
            Event::TaskSteal { task: _ } => {
                steals += 1;
            }
            Event::TaskStart { task } => {
                let st = tasks.entry(task).or_default();
                if let Some(s) = &st.spawn_vc {
                    vc.join(s);
                } else {
                    fire(
                        &mut diags,
                        &mut seen,
                        "T-ORPHAN",
                        (task, 0),
                        format!("task {task} started without a recorded spawn"),
                    );
                }
                exec_stack.entry(os).or_default().push(task);
            }
            Event::TaskComplete { task } => {
                tasks.entry(task).or_default().complete_vc = Some(vc.clone());
                if let Some(stack) = exec_stack.get_mut(&os) {
                    if stack.last() == Some(&task) {
                        stack.pop();
                    }
                }
            }
            Event::TaskJoin { task } => {
                match tasks.get(&task).and_then(|t| t.complete_vc.as_ref()) {
                    Some(cvc) => vc.join(cvc),
                    None => {
                        let enclosing = exec_stack.get(&os).and_then(|s| s.last().copied());
                        pending_joins.push((enclosing, task));
                    }
                }
            }
            Event::LockAcquire { lock } => {
                let st = locks.entry(lock).or_default();
                if let Some(h) = st.holder {
                    fire(
                        &mut diags,
                        &mut seen,
                        "L-MISUSE",
                        (lock, os),
                        format!("lock {lock} acquired while already held by thread {h}"),
                    );
                }
                if let Some(rel) = &st.last_release {
                    vc.join(rel);
                }
                st.holder = Some(os);
                let hstack = held.entry(os).or_default();
                for &h in hstack.iter() {
                    if h != lock {
                        lock_edges.entry(h).or_default().insert(lock);
                    }
                }
                hstack.push(lock);
            }
            Event::LockRelease { lock } => {
                let st = locks.entry(lock).or_default();
                if st.holder != Some(os) {
                    fire(
                        &mut diags,
                        &mut seen,
                        "L-MISUSE",
                        (lock, u64::MAX - os),
                        format!(
                            "lock {lock} released by thread {} which does not hold it",
                            tid_str(rec.tid)
                        ),
                    );
                }
                st.holder = None;
                st.last_release = Some(vc.clone());
                if let Some(hstack) = held.get_mut(&os) {
                    if let Some(pos) = hstack.iter().rposition(|&l| l == lock) {
                        hstack.remove(pos);
                    }
                }
            }
            Event::Write { loc } => {
                let st = locs.entry(loc).or_default();
                if let Some((wos, ws)) = st.last_write {
                    if wos != os && vc.get(wos) < ws {
                        fire(
                            &mut diags,
                            &mut seen,
                            "C-RACE",
                            (loc, 0),
                            format!("write-write race on location {loc}"),
                        );
                    }
                }
                for &(ros, rs) in &st.reads {
                    if ros != os && vc.get(ros) < rs {
                        fire(
                            &mut diags,
                            &mut seen,
                            "C-RACE",
                            (loc, 1),
                            format!("read-write race on location {loc}"),
                        );
                    }
                }
                st.last_write = Some((os, stamp));
                st.reads.clear();
            }
            Event::Read { loc } => {
                let st = locs.entry(loc).or_default();
                if let Some((wos, ws)) = st.last_write {
                    if wos != os && vc.get(wos) < ws {
                        fire(
                            &mut diags,
                            &mut seen,
                            "C-RACE",
                            (loc, 2),
                            format!("write-read race on location {loc}"),
                        );
                    }
                }
                st.reads.push((os, stamp));
            }
            Event::ChunkClaim { loop_id, lo, hi } => {
                loops.entry(loop_id).or_default().push((lo, hi));
            }
            Event::Notify { cond, epoch } => {
                notifies += 1;
                let st = conds.entry(cond).or_default();
                st.last_epoch = Some(st.last_epoch.map_or(epoch, |e| e.max(epoch)));
                st.notify_vc.join(vc);
            }
            Event::ParkBegin { cond, epoch } => {
                parks += 1;
                let st = conds.entry(cond).or_default();
                // A park is lost-wakeup-prone exactly when the observed
                // epoch is older than an announcement already on record:
                // the thread read the epoch, missed the notify, and went
                // to sleep anyway. The runtime's correct discipline
                // (re-check and emit under the guarding mutex) can never
                // produce this shape.
                if let Some(last) = st.last_epoch {
                    if epoch < last {
                        fire(
                            &mut diags,
                            &mut seen,
                            "D-LOST-WAKEUP",
                            (cond, os),
                            format!(
                                "cond {cond}: thread {} parked having observed epoch \
                                 {epoch} after epoch {last} was already announced — \
                                 the wakeup was missed",
                                tid_str(rec.tid)
                            ),
                        );
                    }
                }
            }
            Event::ParkEnd { cond, epoch: _ } => {
                vc.join(&conds.entry(cond).or_default().notify_vc);
            }
        }
    }

    // --- end-of-trace analyses -----------------------------------------

    for (id, t) in &tasks {
        if t.spawn_vc.is_some() && t.complete_vc.is_none() {
            fire(
                &mut diags,
                &mut seen,
                "D-TASK-INCOMPLETE",
                (*id, 0),
                format!("task {id} was spawned but never completed"),
            );
        }
    }

    let mut join_edges: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for (enclosing, task) in &pending_joins {
        if let Some(waiter) = enclosing {
            join_edges.entry(*waiter).or_default().insert(*task);
        }
    }
    let join_cycle = find_cycle(&join_edges);
    if let Some(cycle) = &join_cycle {
        let path: Vec<String> = cycle.iter().map(|t| t.to_string()).collect();
        fire(
            &mut diags,
            &mut seen,
            "D-JOIN-CYCLE",
            (cycle[0], 0),
            format!(
                "tasks deadlock waiting on each other: {}",
                path.join(" -> ")
            ),
        );
    }
    for (enclosing, task) in &pending_joins {
        let in_cycle = join_cycle.as_ref().is_some_and(|c| {
            c.contains(task) && enclosing.map(|e| c.contains(&e)).unwrap_or(false)
        });
        if !in_cycle {
            fire(
                &mut diags,
                &mut seen,
                "T-JOIN-INCOMPLETE",
                (*task, 0),
                format!("task {task} was joined before it completed"),
            );
        }
    }

    if let Some(cycle) = find_cycle(&lock_edges) {
        let path: Vec<String> = cycle.iter().map(|l| l.to_string()).collect();
        fire(
            &mut diags,
            &mut seen,
            "D-LOCK-CYCLE",
            (cycle[0], 0),
            format!("locks are acquired in cyclic order: {}", path.join(" -> ")),
        );
    }

    let mut chunk_count = 0usize;
    for (loop_id, claims) in &mut loops {
        chunk_count += claims.len();
        claims.sort_unstable();
        for w in claims.windows(2) {
            let (_, prev_hi) = w[0];
            let (lo, hi) = w[1];
            if prev_hi > lo {
                fire(
                    &mut diags,
                    &mut seen,
                    "C-CHUNK-OVERLAP",
                    (*loop_id, 0),
                    format!(
                        "loop {loop_id}: chunk [{lo}, {hi}) overlaps an earlier claim \
                         ending at {prev_hi}"
                    ),
                );
            }
        }
    }

    stats.events = records.len();
    stats.threads = clocks.len();
    stats.regions = regions.len();
    stats.barriers = barriers.len();
    stats.episodes_completed = episodes_completed;
    stats.tasks = tasks.len();
    stats.steals = steals;
    stats.locks = locks.len();
    stats.locations = locs.len();
    stats.loops = loops.len();
    stats.chunks = chunk_count;
    stats.conds = conds.len();
    stats.notifies = notifies;
    stats.parks = parks;

    CheckReport {
        diagnostics: diags,
        stats,
    }
}

/// Hand-built traces exercising the checker's failure modes: the
/// deliberately broken barrier the acceptance test demands, plus cycle
/// and race shapes.
pub mod fixtures {
    use omprt::trace::{Event, Record};

    fn rec(tid: usize, os: u64, event: Event) -> Record {
        Record { tid, os, event }
    }

    /// Two threads exchange values through a barrier that waits for
    /// nobody: thread 0 publishes to location 11 and reads 12, thread 1
    /// publishes to 12 and reads 11, but the "barrier" releases each
    /// thread immediately. The checker must flag the early release and
    /// the resulting race.
    pub fn broken_barrier_trace() -> Vec<Record> {
        vec![
            rec(0, 1, Event::Write { loc: 11 }),
            rec(
                0,
                1,
                Event::BarrierArrive {
                    barrier: 5,
                    team: 2,
                },
            ),
            rec(0, 1, Event::BarrierRelease { barrier: 5 }),
            rec(0, 1, Event::Read { loc: 12 }),
            rec(1, 2, Event::Write { loc: 12 }),
            rec(
                1,
                2,
                Event::BarrierArrive {
                    barrier: 5,
                    team: 2,
                },
            ),
            rec(1, 2, Event::BarrierRelease { barrier: 5 }),
            rec(1, 2, Event::Read { loc: 11 }),
        ]
    }

    /// The same exchange through a correct barrier: all arrivals precede
    /// all releases. Must check clean.
    pub fn correct_barrier_trace() -> Vec<Record> {
        vec![
            rec(0, 1, Event::Write { loc: 11 }),
            rec(
                0,
                1,
                Event::BarrierArrive {
                    barrier: 5,
                    team: 2,
                },
            ),
            rec(1, 2, Event::Write { loc: 12 }),
            rec(
                1,
                2,
                Event::BarrierArrive {
                    barrier: 5,
                    team: 2,
                },
            ),
            rec(1, 2, Event::BarrierRelease { barrier: 5 }),
            rec(1, 2, Event::Read { loc: 11 }),
            rec(0, 1, Event::BarrierRelease { barrier: 5 }),
            rec(0, 1, Event::Read { loc: 12 }),
        ]
    }

    /// Task 1's body joins task 2 while task 2's body joins task 1.
    pub fn join_cycle_trace() -> Vec<Record> {
        vec![
            rec(0, 1, Event::TaskSpawn { task: 1 }),
            rec(1, 2, Event::TaskSpawn { task: 2 }),
            rec(1, 2, Event::TaskStart { task: 1 }),
            rec(0, 1, Event::TaskStart { task: 2 }),
            rec(0, 1, Event::TaskJoin { task: 1 }),
            rec(1, 2, Event::TaskJoin { task: 2 }),
        ]
    }

    /// Thread 0 acquires locks 1 then 2; thread 1 acquires 2 then 1.
    /// This interleaving completes, but the order graph has a cycle.
    pub fn lock_cycle_trace() -> Vec<Record> {
        vec![
            rec(0, 1, Event::LockAcquire { lock: 1 }),
            rec(0, 1, Event::LockAcquire { lock: 2 }),
            rec(0, 1, Event::LockRelease { lock: 2 }),
            rec(0, 1, Event::LockRelease { lock: 1 }),
            rec(1, 2, Event::LockAcquire { lock: 2 }),
            rec(1, 2, Event::LockAcquire { lock: 1 }),
            rec(1, 2, Event::LockRelease { lock: 1 }),
            rec(1, 2, Event::LockRelease { lock: 2 }),
        ]
    }

    /// Two threads write one location with no synchronization at all.
    pub fn racy_trace() -> Vec<Record> {
        vec![
            rec(0, 1, Event::Write { loc: 7 }),
            rec(1, 2, Event::Write { loc: 7 }),
        ]
    }

    /// One worksharing loop hands iteration 5 to two claims.
    pub fn overlapping_chunks_trace() -> Vec<Record> {
        vec![
            rec(
                0,
                1,
                Event::ChunkClaim {
                    loop_id: 3,
                    lo: 0,
                    hi: 6,
                },
            ),
            rec(
                1,
                2,
                Event::ChunkClaim {
                    loop_id: 3,
                    lo: 5,
                    hi: 10,
                },
            ),
        ]
    }

    /// A classic lost wakeup: the notifier announces epoch 1, but the
    /// waiter — having read the epoch *outside* the guarding lock —
    /// parks still believing it is 0. The wakeup it needed has already
    /// happened; nobody will notify again.
    pub fn lost_wakeup_trace() -> Vec<Record> {
        vec![
            rec(0, 1, Event::Notify { cond: 4, epoch: 1 }),
            rec(1, 2, Event::ParkBegin { cond: 4, epoch: 0 }),
        ]
    }

    /// The correct condvar discipline for the same exchange: the waiter
    /// re-checks the epoch under the lock, parks on the current epoch,
    /// and wakes when the next announcement lands. Must check clean.
    pub fn correct_parking_trace() -> Vec<Record> {
        vec![
            rec(0, 1, Event::Notify { cond: 4, epoch: 1 }),
            rec(1, 2, Event::ParkBegin { cond: 4, epoch: 1 }),
            rec(0, 1, Event::Notify { cond: 4, epoch: 2 }),
            rec(1, 2, Event::ParkEnd { cond: 4, epoch: 2 }),
        ]
    }

    /// A tainted barrier that would mask a race if the checker trusted
    /// it: thread 0 publishes and releases itself *early* (1 of 2
    /// arrivals); thread 1 arrives afterwards, so at its own release the
    /// episode looks complete — but the episode was already tainted, so
    /// it must provide no ordering and thread 1's read of thread 0's
    /// publication must still be reported as a race.
    pub fn tainted_barrier_mask_trace() -> Vec<Record> {
        vec![
            rec(0, 1, Event::Write { loc: 21 }),
            rec(
                0,
                1,
                Event::BarrierArrive {
                    barrier: 8,
                    team: 2,
                },
            ),
            rec(0, 1, Event::BarrierRelease { barrier: 8 }),
            rec(1, 2, Event::Write { loc: 22 }),
            rec(
                1,
                2,
                Event::BarrierArrive {
                    barrier: 8,
                    team: 2,
                },
            ),
            rec(1, 2, Event::BarrierRelease { barrier: 8 }),
            rec(1, 2, Event::Read { loc: 21 }),
        ]
    }

    /// A thread arrives twice at a barrier without being released.
    pub fn reentrant_barrier_trace() -> Vec<Record> {
        vec![
            rec(
                0,
                1,
                Event::BarrierArrive {
                    barrier: 9,
                    team: 2,
                },
            ),
            rec(
                0,
                1,
                Event::BarrierArrive {
                    barrier: 9,
                    team: 2,
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omprt::pool::ThreadPool;
    use omprt::trace;
    use omptune_core::{OmpSchedule, ReductionMethod};

    #[test]
    fn a_diagnostic_prints_and_serializes_in_its_report_form() {
        let mut d = Diagnostic::new("C-RACE", "bad trace");
        assert_eq!(d.to_string(), "error[C-RACE]: bad trace");
        assert_eq!(
            serde_json::to_string(&d).unwrap(),
            r#"{"rule":"C-RACE","severity":"Error","message":"bad trace","suggestion":null}"#
        );
        d.suggestion = Some("join first".to_string());
        assert_eq!(
            d.to_string(),
            "error[C-RACE]: bad trace (suggestion: join first)"
        );
    }

    #[test]
    fn broken_barrier_is_flagged() {
        let report = check_trace(&fixtures::broken_barrier_trace());
        assert!(!report.is_clean());
        assert!(
            report.has_rule("B-EARLY-RELEASE"),
            "{:?}",
            report.diagnostics
        );
        assert!(report.has_rule("C-RACE"), "{:?}", report.diagnostics);
    }

    #[test]
    fn correct_barrier_is_clean() {
        let report = check_trace(&fixtures::correct_barrier_trace());
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.stats.episodes_completed, 1);
        assert_eq!(report.stats.threads, 2);
    }

    #[test]
    fn join_cycle_is_flagged() {
        let report = check_trace(&fixtures::join_cycle_trace());
        assert!(report.has_rule("D-JOIN-CYCLE"), "{:?}", report.diagnostics);
        assert!(report.has_rule("D-TASK-INCOMPLETE"));
    }

    #[test]
    fn lock_order_cycle_is_flagged() {
        let report = check_trace(&fixtures::lock_cycle_trace());
        assert!(report.has_rule("D-LOCK-CYCLE"), "{:?}", report.diagnostics);
        assert_eq!(report.races(), 0);
    }

    #[test]
    fn unsynchronized_writes_race() {
        let report = check_trace(&fixtures::racy_trace());
        assert_eq!(report.races(), 1, "{:?}", report.diagnostics);
    }

    #[test]
    fn overlapping_chunks_are_flagged() {
        let report = check_trace(&fixtures::overlapping_chunks_trace());
        assert!(
            report.has_rule("C-CHUNK-OVERLAP"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn barrier_reentry_is_flagged() {
        let report = check_trace(&fixtures::reentrant_barrier_trace());
        assert!(report.has_rule("B-REENTRY"), "{:?}", report.diagnostics);
    }

    #[test]
    fn lost_wakeup_is_flagged_with_exact_rule() {
        let report = check_trace(&fixtures::lost_wakeup_trace());
        assert!(!report.is_clean());
        assert!(report.has_rule("D-LOST-WAKEUP"), "{:?}", report.diagnostics);
        // Exactly this rule, nothing else.
        assert!(report.diagnostics.iter().all(|d| d.rule == "D-LOST-WAKEUP"));
        assert_eq!(report.stats.conds, 1);
        assert_eq!(report.stats.notifies, 1);
        assert_eq!(report.stats.parks, 1);
    }

    #[test]
    fn correct_parking_is_clean() {
        let report = check_trace(&fixtures::correct_parking_trace());
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.stats.notifies, 2);
    }

    #[test]
    fn tainted_barrier_does_not_mask_the_race() {
        let report = check_trace(&fixtures::tainted_barrier_mask_trace());
        assert!(
            report.has_rule("B-EARLY-RELEASE"),
            "{:?}",
            report.diagnostics
        );
        assert!(
            report.has_rule("C-RACE"),
            "the tainted episode must not order the accesses: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn pool_parking_protocol_certifies_clean() {
        // Passive workers park between regions; the protocol events they
        // emit must satisfy D-LOST-WAKEUP and add notify→wake ordering.
        use omptune_core::config::WaitPolicy;
        let pool = ThreadPool::new(4, WaitPolicy::Passive);
        let s = trace::session();
        for _ in 0..5 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            omprt::worksharing::parallel_for(&pool, OmpSchedule::Static, 64, |_| {});
        }
        drop(pool); // shutdown notify is part of the protocol
        let records = s.finish();
        let report = check_trace(&records);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert!(report.stats.notifies >= 5, "{:?}", report.stats);
    }

    #[test]
    fn empty_trace_is_clean() {
        let report = check_trace(&[]);
        assert!(report.is_clean());
        assert_eq!(report.stats.events, 0);
    }

    #[test]
    fn real_parallel_for_certifies_clean() {
        let pool = ThreadPool::with_defaults(4);
        for schedule in [
            OmpSchedule::Static,
            OmpSchedule::Dynamic,
            OmpSchedule::Guided,
        ] {
            let s = trace::session();
            omprt::worksharing::parallel_for(&pool, schedule, 500, |_| {});
            let records = s.finish();
            assert!(!records.is_empty(), "{schedule:?} produced no trace");
            let stats = certify(&records).unwrap_or_else(|e| panic!("{schedule:?}:\n{e}"));
            assert_eq!(stats.regions, 1);
            assert!(stats.chunks > 0);
        }
    }

    #[test]
    fn real_reductions_certify_clean() {
        let pool = ThreadPool::with_defaults(4);
        for method in [
            ReductionMethod::Tree,
            ReductionMethod::Critical,
            ReductionMethod::Atomic,
        ] {
            let s = trace::session();
            let sum = omprt::worksharing::parallel_reduce_sum(
                &pool,
                OmpSchedule::Static,
                method,
                1000,
                |i| i as f64,
            );
            let records = s.finish();
            assert_eq!(sum, 499_500.0);
            let stats = certify(&records).unwrap_or_else(|e| panic!("{method:?}:\n{e}"));
            assert!(stats.barriers >= 1, "{method:?} used no barrier");
            if method == ReductionMethod::Critical {
                assert!(stats.locks >= 1);
            }
        }
    }
}
