//! The priority-aware interference graph behind incremental analysis.
//!
//! The holistic iteration only propagates through two kinds of edges:
//!
//! * **interference** — task `a` can delay task `b` iff they share a
//!   platform and `a`'s priority is ≥ `b`'s (`a ∈ hp(b)`, Eq. 17); a change
//!   to `a`'s timing can therefore change `b`'s response, never the other
//!   way around;
//! * **chain** — `b`'s response feeds the jitter of its successor in the
//!   same transaction (`J_{i,j} = R_{i,j−1} − Rbest_{i,j−1}`, Eq. 18).
//!
//! The tasks whose fixpoint values can change after a batch of arrivals,
//! departures, or retunes are exactly the forward-reachable set from the
//! change's seeds over these edges — the change's **interference cone**.
//! Everything outside the cone keeps its old converged values, which is
//! what makes cone-restricted re-analysis exact (see
//! [`crate::WarmStart`]): a platform-sharing island is only an upper bound
//! on the cone, and usually a much coarser one, because interference never
//! flows from low to high priority.
//!
//! [`HpGraph`] is the reusable form of that graph: built once per
//! transaction set, it answers the admission layer's island and closure
//! queries, and once per holistic fixpoint, whose task analyses
//! read their hp sets off it and whose Gauss-Seidel sweeps it orders. All
//! of these read one definition of who reads whom. The tasks of a platform
//! are kept as one run, by ascending priority; a task's hp sets (Eq. 17)
//! are the suffix of its run from its own priority up, itself excluded
//! ([`HpGraph::hp_sets`]). The analysis of a task reads its own jitter and
//! those of its hp sets, so the **readers** of task `s`'s jitter are the
//! tasks on `s`'s platform with priority ≤ `s`'s, `s` itself included. The
//! sweep visits the strongly connected components of the read graph
//! (`v` → readers of `v`'s successor) in topological order
//! ([`HpGraph::sweep_order`]) and re-analyzes a task only after a jitter it
//! reads moved.

use hsched_platform::PlatformId;
use hsched_transaction::{TaskRef, TransactionSet};
use std::ops::Range;

/// A change to feed into [`HpGraph::closure`]: where new, removed, or
/// retimed demand enters the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DirtySeed {
    /// A task present in the set whose own timing must be (re)computed —
    /// e.g. every task of a freshly admitted transaction.
    Task(TaskRef),
    /// The interference footprint of a task that is *no longer* in the set
    /// (a departure): everything it could have delayed — tasks on
    /// `platform` with priority ≤ `priority` — may now finish earlier.
    Footprint {
        /// Platform the departed task executed on.
        platform: PlatformId,
        /// Priority of the departed task.
        priority: u32,
    },
    /// A platform whose service curve changed (a retune): every task it
    /// hosts is a seed.
    Platform(PlatformId),
}

/// Per-task record of the graph.
#[derive(Debug, Clone, Copy)]
struct TaskNode {
    /// The task's transaction.
    tx: usize,
    priority: u32,
    /// Index of the task's platform into [`HpGraph::runs`].
    run: usize,
    /// `true` when the task has a successor in its transaction chain.
    has_successor: bool,
}

/// The hp sets `hpi(τa,b)` of Eq. (17) of one task τa,b in its
/// [`HpPool`]: the own transaction's, ascending (possibly empty), and every
/// other transaction's non-empty set, by ascending transaction.
#[derive(Debug, Clone)]
pub(crate) struct HpSets {
    own: Range<usize>,
    foreign: Range<usize>,
}

/// One foreign transaction's hp set of a task.
#[derive(Debug, Clone)]
pub(crate) struct ForeignHp {
    /// The transaction `i`.
    pub tx: usize,
    /// `hpi(τa,b)`, ascending: a range of the pool's members.
    members: Range<usize>,
    /// Flat index of the set's first member in the platform run. The set
    /// is every task of Γi in the run from the anchor on, so the anchor
    /// names it: tasks whose sets share an anchor share one step table.
    pub anchor: usize,
}

/// The hp sets of the tasks one holistic fixpoint analyzed: the members of
/// every set and every foreign set, appended on a task's first analysis,
/// and the scratch of [`HpGraph::hp_sets`], `(transaction, flat index,
/// place in the run)` of one task's hp tasks.
#[derive(Debug, Default)]
pub(crate) struct HpPool {
    members: Vec<usize>,
    foreign: Vec<ForeignHp>,
    sorted: Vec<(usize, usize, usize)>,
}

impl HpPool {
    /// The own set and the foreign sets of `sets`.
    pub(crate) fn sets(&self, sets: &HpSets) -> (&[usize], &[ForeignHp]) {
        (
            &self.members[sets.own.clone()],
            &self.foreign[sets.foreign.clone()],
        )
    }

    /// The members of a foreign set.
    pub(crate) fn members(&self, set: &ForeignHp) -> &[usize] {
        &self.members[set.members.clone()]
    }
}

/// The dirty closure of a batch of seeds: which transactions have a task
/// inside the interference cone. Layout-aligned with the set the graph was
/// built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyClosure {
    /// `transactions[i]` — some task of Γi is inside the cone.
    pub transactions: Vec<bool>,
}

impl DirtyClosure {
    /// Number of dirty transactions.
    pub fn transaction_count(&self) -> usize {
        self.transactions.iter().filter(|&&d| d).count()
    }
}

/// The task-level interference graph of one transaction set (see the
/// module docs for the edge relation). Construction is O(tasks · log tasks)
/// whatever the size of the platform table; closure queries are a BFS over
/// the cone only.
#[derive(Debug, Clone)]
pub struct HpGraph {
    /// Flat index of the first task of each transaction.
    starts: Vec<usize>,
    nodes: Vec<TaskNode>,
    /// `(flat task index, priority)` of every task, grouped by platform and
    /// by ascending priority inside a platform (set order among equals).
    by_platform: Vec<(usize, u32)>,
    /// One `(platform id, start in by_platform)` per platform the set
    /// uses, by ascending id.
    runs: Vec<(usize, usize)>,
}

impl HpGraph {
    /// Builds the graph of the given set.
    pub fn of(set: &TransactionSet) -> HpGraph {
        let tasks = set.transactions().iter().map(|tx| tx.len()).sum();
        let mut starts = Vec::with_capacity(set.transactions().len());
        let mut nodes = Vec::with_capacity(tasks);
        let mut placed: Vec<(usize, u32, usize)> = Vec::with_capacity(tasks);
        for (i, tx) in set.transactions().iter().enumerate() {
            starts.push(nodes.len());
            for (j, task) in tx.tasks().iter().enumerate() {
                placed.push((task.platform.0, task.priority, nodes.len()));
                nodes.push(TaskNode {
                    tx: i,
                    priority: task.priority,
                    run: 0, // set below, once the runs are known
                    has_successor: j + 1 < tx.len(),
                });
            }
        }
        placed.sort_unstable();
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for (k, &(platform, _, flat)) in placed.iter().enumerate() {
            if runs.last().is_none_or(|&(last, _)| last != platform) {
                runs.push((platform, k));
            }
            nodes[flat].run = runs.len() - 1;
        }
        HpGraph {
            starts,
            nodes,
            by_platform: placed.into_iter().map(|(_, p, flat)| (flat, p)).collect(),
            runs,
        }
    }

    /// Flat index of a task.
    pub(crate) fn flat(&self, r: TaskRef) -> usize {
        self.starts[r.tx] + r.idx
    }

    /// Number of tasks.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The tasks on the platform of run `run`, by ascending priority.
    fn run(&self, run: usize) -> &[(usize, u32)] {
        let start = self.runs[run].1;
        let end = self
            .runs
            .get(run + 1)
            .map_or(self.by_platform.len(), |r| r.1);
        &self.by_platform[start..end]
    }

    /// Tasks on the platform of run `run` with priority ≤ `priority`.
    fn below(&self, run: usize, priority: u32) -> &[(usize, u32)] {
        let tasks = self.run(run);
        &tasks[..tasks.partition_point(|&(_, p)| p <= priority)]
    }

    /// The hp sets of task `flat` (Eq. 17), read into `pool`: the suffix
    /// of its platform run with priority ≥ its own, itself left out, split
    /// by transaction.
    pub(crate) fn hp_sets(&self, flat: usize, pool: &mut HpPool) -> HpSets {
        let node = self.nodes[flat];
        let run = self.run(node.run);
        let suffix = &run[run.partition_point(|&(_, p)| p < node.priority)..];
        pool.sorted.clear();
        pool.sorted.extend(
            suffix
                .iter()
                .enumerate()
                .filter(|&(_, &(v, _))| v != flat)
                .map(|(place, &(v, _))| (self.nodes[v].tx, v, place)),
        );
        pool.sorted.sort_unstable();
        let (first_foreign, mut own) = (pool.foreign.len(), 0..0);
        for set in pool.sorted.chunk_by(|a, b| a.0 == b.0) {
            let (tx, start) = (set[0].0, pool.members.len());
            let members = set.iter().map(|&(_, v, _)| v - self.starts[tx]);
            pool.members.extend(members);
            let members = start..pool.members.len();
            if tx == node.tx {
                own = members;
                continue;
            }
            let &(_, anchor, _) = set.iter().min_by_key(|m| m.2).expect("sets are non-empty");
            pool.foreign.push(ForeignHp {
                tx,
                members,
                anchor,
            });
        }
        let foreign = first_foreign..pool.foreign.len();
        HpSets { own, foreign }
    }

    /// Tasks on `platform` with priority ≤ `priority` — what a task with
    /// these coordinates can interfere with (its direct cone frontier).
    fn sweep_platform(&self, platform: usize, priority: u32, out: &mut Vec<usize>) {
        if let Some(run) = self.run_of(platform) {
            out.extend(self.below(run, priority).iter().map(|&(flat, _)| flat));
        }
    }

    /// The tasks whose analysis reads task `flat`'s jitter: those on its
    /// platform with priority ≤ its own (Eq. 17), itself included.
    fn readers(&self, flat: usize) -> &[(usize, u32)] {
        let node = self.nodes[flat];
        self.below(node.run, node.priority)
    }

    /// `(flat index, priority)` of the tasks that read what task `flat`'s
    /// analysis writes: its response sets its successor's jitter (Eq. 18),
    /// so these are the successor's readers — none for the last task of a
    /// chain.
    pub(crate) fn dependents(&self, flat: usize) -> &[(usize, u32)] {
        if self.nodes[flat].has_successor {
            self.readers(flat + 1)
        } else {
            &[]
        }
    }

    /// The order in which a Gauss-Seidel sweep visits the tasks with
    /// `active[flat]` set (flat indices, as [`TransactionSet::task_refs`]
    /// enumerates them): the strongly connected components of the read
    /// graph restricted to them, in topological order, each in set order,
    /// laid end to end, and their bounds: component `c` is
    /// `order[bounds[c]..bounds[c + 1]]`. Tarjan's algorithm, iterative:
    /// the depth of a long chain costs heap, not stack.
    pub(crate) fn sweep_order(&self, active: &[bool]) -> (Vec<usize>, Vec<usize>) {
        const UNSEEN: usize = usize::MAX;
        let n = self.nodes.len();
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        // DFS frames: a task and the next of its dependents to visit.
        let mut frames: Vec<(usize, usize)> = Vec::new();
        // Tarjan completes the components sinks first, so they are laid
        // into `order` from its end, and their starts collected backwards.
        let mut end = active.iter().filter(|&&a| a).count();
        let mut order = vec![0; end];
        let mut bounds = Vec::new();
        let mut next_index = 0;
        // Roots in reverse set order: where set order is already
        // topological, the sweep order is set order.
        for root in (0..n).rev() {
            if !active[root] || index[root] != UNSEEN {
                continue;
            }
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root] = true;
            frames.push((root, 0));
            while let Some(&(v, edge)) = frames.last() {
                if let Some(&(w, _)) = self.dependents(v).get(edge) {
                    frames.last_mut().expect("frame is live").1 += 1;
                    if !active[w] {
                        continue;
                    }
                    if index[w] == UNSEEN {
                        index[w] = next_index;
                        low[w] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let at = stack
                        .iter()
                        .rposition(|&w| w == v)
                        .expect("v is on the stack");
                    let start = end - (stack.len() - at);
                    let component = &mut order[start..end];
                    component.copy_from_slice(&stack[at..]);
                    component.sort_unstable();
                    for &w in &*component {
                        on_stack[w] = false;
                    }
                    stack.truncate(at);
                    bounds.push(start);
                    end = start;
                }
            }
        }
        bounds.reverse();
        bounds.push(order.len());
        (order, bounds)
    }

    /// The flat indices of transaction `tx`'s tasks.
    fn tasks_of(&self, tx: usize) -> Range<usize> {
        self.starts[tx]..self.starts.get(tx + 1).copied().unwrap_or(self.nodes.len())
    }

    /// The run of `platform`, if the set uses it.
    fn run_of(&self, platform: usize) -> Option<usize> {
        self.runs
            .binary_search_by_key(&platform, |&(id, _)| id)
            .ok()
    }

    /// Appends to `reached` the transactions `within` admits reached from
    /// `runs` and then from theirs, ascending; `seen` marks the runs and
    /// transactions walked so far.
    fn walk(
        &self,
        runs: impl IntoIterator<Item = usize>,
        within: impl Fn(usize) -> bool,
        seen: &mut (Vec<bool>, Vec<bool>),
        reached: &mut Vec<usize>,
    ) {
        let start = reached.len();
        let mut visit = |run: usize, reached: &mut Vec<usize>| {
            if !std::mem::replace(&mut seen.0[run], true) {
                for &(flat, _) in self.run(run) {
                    let tx = self.nodes[flat].tx;
                    if within(tx) && !std::mem::replace(&mut seen.1[tx], true) {
                        reached.push(tx);
                    }
                }
            }
        };
        runs.into_iter().for_each(|run| visit(run, reached));
        let mut next = start;
        while let Some(&tx) = reached.get(next) {
            next += 1;
            for v in self.tasks_of(tx) {
                visit(self.nodes[v].run, reached);
            }
        }
        reached[start..].sort_unstable();
    }

    fn unseen(&self) -> (Vec<bool>, Vec<bool>) {
        (vec![false; self.runs.len()], vec![false; self.starts.len()])
    }

    /// The platform-sharing islands among the transactions marked in
    /// `within`, by first member, members ascending, laid end to end, and
    /// their bounds: island `c` is `order[bounds[c]..bounds[c + 1]]`. With
    /// every transaction marked, the set's islands, which interference
    /// never crosses (Eq. 17); with a cone marked, its independently
    /// analyzable parts.
    pub fn islands(&self, within: &[bool]) -> (Vec<usize>, Vec<usize>) {
        let mut seen = self.unseen();
        let mut order = Vec::with_capacity(within.iter().filter(|&&w| w).count());
        let mut bounds = vec![0];
        for tx in 0..self.starts.len() {
            if within[tx] && !seen.1[tx] {
                let runs = self.tasks_of(tx).map(|v| self.nodes[v].run);
                self.walk(runs, |t| within[t], &mut seen, &mut order);
                bounds.push(order.len());
            }
        }
        (order, bounds)
    }

    /// The transactions of the islands that run a task on one of
    /// `platforms`, ascending, walked from there: what a change there can
    /// reach.
    pub fn islands_of(&self, platforms: impl IntoIterator<Item = PlatformId>) -> Vec<usize> {
        let runs = platforms.into_iter().filter_map(|p| self.run_of(p.0));
        let mut reached = Vec::new();
        self.walk(runs, |_| true, &mut self.unseen(), &mut reached);
        reached
    }

    /// The transactions not marked in `within` that the analysis of
    /// `members` reads (Eq. 17), ascending: those with a task on a member
    /// platform at or above the lowest member priority there.
    pub fn context(&self, members: &[usize], within: &[bool]) -> Vec<usize> {
        let tasks = members.iter().flat_map(|&i| self.tasks_of(i));
        let mut floors = Vec::with_capacity(members.iter().map(|&i| self.tasks_of(i).len()).sum());
        floors.extend(tasks.map(|v| (self.nodes[v].run, self.nodes[v].priority)));
        floors.sort_unstable();
        floors.dedup_by_key(|&mut (run, _)| run);
        let mut context: Vec<usize> = floors
            .into_iter()
            .flat_map(|(run, floor)| {
                let tasks = self.run(run);
                &tasks[tasks.partition_point(|&(_, p)| p < floor)..]
            })
            .map(|&(v, _)| self.nodes[v].tx)
            .filter(|&tx| !within[tx])
            .collect();
        context.sort_unstable();
        context.dedup();
        context
    }

    /// Forward reachability from the seeds over interference + chain edges,
    /// by transaction: the transactions whose fixpoint values can differ
    /// from the pre-change analysis. Out-of-range seeds (e.g. footprints on
    /// a platform with no remaining tasks) contribute nothing.
    pub fn closure(&self, seeds: &[DirtySeed]) -> DirtyClosure {
        let dirty = self.reached(seeds);
        DirtyClosure {
            transactions: (0..self.starts.len())
                .map(|tx| self.tasks_of(tx).any(|v| dirty[v]))
                .collect(),
        }
    }

    /// The cone of `seeds`, by flat task index: the exact set of tasks
    /// whose fixpoint values can differ from the pre-change analysis.
    fn reached(&self, seeds: &[DirtySeed]) -> Vec<bool> {
        let mut dirty = vec![false; self.nodes.len()];
        let mut frontier: Vec<usize> = Vec::new();
        for seed in seeds {
            match *seed {
                DirtySeed::Task(r) => {
                    if r.tx < self.starts.len() {
                        frontier.push(self.flat(r));
                    }
                }
                DirtySeed::Footprint { platform, priority } => {
                    self.sweep_platform(platform.0, priority, &mut frontier);
                }
                DirtySeed::Platform(p) => {
                    self.sweep_platform(p.0, u32::MAX, &mut frontier);
                }
            }
        }
        while let Some(flat) = frontier.pop() {
            if std::mem::replace(&mut dirty[flat], true) {
                continue;
            }
            // Interference edges: everything this task can delay.
            frontier.extend(self.readers(flat).iter().map(|&(r, _)| r));
            // Chain edge: the response feeds the successor's jitter.
            if self.nodes[flat].has_successor {
                frontier.push(flat + 1);
            }
        }
        dirty
    }

    /// The platform of each run, by run.
    pub(crate) fn run_platforms(&self) -> impl ExactSizeIterator<Item = PlatformId> + '_ {
        self.runs.iter().map(|&(id, _)| PlatformId(id))
    }

    /// The run of task `flat`'s platform.
    pub(crate) fn run_of_task(&self, flat: usize) -> usize {
        self.nodes[flat].run
    }

    /// The cone of `seeds` by task, `[i][j]` for τi,j: what a warm start
    /// restricted to it may freeze task by task. Admission freezes whole
    /// transactions ([`HpGraph::closure`]).
    #[cfg(test)]
    pub(crate) fn task_cone(&self, seeds: &[DirtySeed]) -> Vec<Vec<bool>> {
        let dirty = self.reached(seeds);
        (0..self.starts.len())
            .map(|tx| self.tasks_of(tx).map(|v| dirty[v]).collect())
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::interference::tests::hp_tasks;
    use hsched_transaction::paper_example;

    /// Every task's hp sets read off `set`'s graph are Eq. (17)'s, and
    /// every foreign set named by one anchor is the same set.
    pub(crate) fn assert_hp_sets_follow_eq17(set: &TransactionSet) {
        let graph = HpGraph::of(set);
        let mut pool = HpPool::default();
        let mut named: Vec<Option<(usize, Vec<usize>)>> = vec![None; graph.len()];
        for under in set.task_refs() {
            let sets = graph.hp_sets(graph.flat(under), &mut pool);
            let (own, foreign_sets) = pool.sets(&sets);
            assert_eq!(own, hp_tasks(set, under.tx, under), "own set of {under}");
            let foreign: Vec<(usize, Vec<usize>)> = (0..set.transactions().len())
                .filter(|&i| i != under.tx)
                .map(|i| (i, hp_tasks(set, i, under)))
                .filter(|(_, hp)| !hp.is_empty())
                .collect();
            let read: Vec<(usize, Vec<usize>)> = foreign_sets
                .iter()
                .map(|f| (f.tx, pool.members(f).to_vec()))
                .collect();
            assert_eq!(read, foreign, "foreign sets of {under}");
            for f in foreign_sets {
                let entry = (f.tx, pool.members(f).to_vec());
                let slot = named[f.anchor].get_or_insert_with(|| entry.clone());
                assert_eq!(*slot, entry, "anchor {} names two sets", f.anchor);
            }
        }
    }

    #[test]
    fn hp_sets_read_off_the_runs_follow_eq17() {
        assert_hp_sets_follow_eq17(&paper_example::transactions());
        // Equal priorities across and within transactions, interleaved on
        // one platform: a suffix starts at the first task of its priority.
        let mut platforms = hsched_platform::PlatformSet::new();
        let p1 = platforms.add(hsched_platform::Platform::dedicated("p1"));
        let p2 = platforms.add(hsched_platform::Platform::dedicated("p2"));
        let one = hsched_numeric::rat(1, 1);
        let task = |name: &str, priority, platform| {
            hsched_transaction::Task::new(name, one, one, priority, platform)
        };
        let tx = |name: &str, tasks| {
            let period = hsched_numeric::rat(100, 1);
            hsched_transaction::Transaction::new(name, period, period, tasks).unwrap()
        };
        let set = TransactionSet::new(
            platforms,
            vec![
                tx(
                    "a",
                    vec![task("a1", 2, p1), task("a2", 1, p2), task("a3", 2, p1)],
                ),
                tx(
                    "b",
                    vec![task("b1", 2, p1), task("b2", 3, p1), task("b3", 1, p1)],
                ),
                tx("c", vec![task("c1", 1, p1), task("c2", 3, p2)]),
            ],
        )
        .unwrap();
        assert_hp_sets_follow_eq17(&set);
        // c1 (p1, priority 1) reads {a1, a3} and {b1, b2, b3}; a1
        // (priority 2) reads {b1, b2} of Γb, a set of its own.
        let graph = HpGraph::of(&set);
        let mut pool = HpPool::default();
        let c1 = graph.hp_sets(graph.flat(TaskRef { tx: 2, idx: 0 }), &mut pool);
        let a1 = graph.hp_sets(graph.flat(TaskRef { tx: 0, idx: 0 }), &mut pool);
        let (c1_b, (a1_own, a1_foreign)) = (&pool.sets(&c1).1[1], pool.sets(&a1));
        let a1_b = &a1_foreign[0];
        assert_eq!(pool.members(c1_b), [0, 1, 2]);
        assert_eq!(a1_own, [2]);
        assert_eq!(pool.members(a1_b), [0, 1]);
        assert_ne!(a1_b.anchor, c1_b.anchor);
    }

    /// The components of a sweep order, one vector each.
    fn components((order, bounds): (Vec<usize>, Vec<usize>)) -> Vec<Vec<usize>> {
        bounds
            .windows(2)
            .map(|w| order[w[0]..w[1]].to_vec())
            .collect()
    }

    fn paper() -> (TransactionSet, HpGraph) {
        let set = paper_example::transactions();
        let graph = HpGraph::of(&set);
        (set, graph)
    }

    /// The paper's system: Γ1 = τ1,1(Π3,p2) τ1,2(Π1,p1) τ1,3(Π2,p1)
    /// τ1,4(Π3,p3); Γ2 = τ2,1(Π1,p3); Γ3 = τ3,1(Π2,p3); Γ4 = τ4,1(Π3,p1).
    #[test]
    fn arrival_cone_excludes_higher_priority_tasks() {
        let (_, graph) = paper();
        // A new task on Π3 at priority 1 can only delay priority ≤ 1 tasks
        // on Π3: τ4,1. Nothing propagates further (τ4,1 has no successor
        // and interferes with nothing below it except itself).
        let seeds = [DirtySeed::Footprint {
            platform: hsched_platform::PlatformId(2),
            priority: 1,
        }];
        let cone = graph.closure(&seeds);
        assert_eq!(cone.transactions, vec![false, false, false, true]);
        assert!(graph.task_cone(&seeds)[3][0]);
    }

    #[test]
    fn chain_edges_propagate_downstream_then_across() {
        let (_, graph) = paper();
        // Seed τ1,1 (Π3, p2): its interference targets on Π3 are τ4,1 (p1)
        // — not τ1,4 (p3, higher). Its chain successor τ1,2 (Π1, p1)
        // drags in nothing new on Π1 (τ2,1 has p3), then τ1,3, τ1,4; τ1,4
        // (p3 on Π3) re-sweeps Π3 and confirms τ1,1/τ4,1.
        let seeds = [DirtySeed::Task(TaskRef { tx: 0, idx: 0 })];
        assert_eq!(
            graph.closure(&seeds).transactions,
            vec![true, false, false, true]
        );
        assert_eq!(graph.task_cone(&seeds)[0], vec![true, true, true, true]);
    }

    #[test]
    fn high_priority_island_member_stays_clean() {
        let (_, graph) = paper();
        // Seed the lowest-priority task τ4,1 (Π3, p1): it delays nothing,
        // so the cone is itself alone — even though Π1/Π2/Π3 form one
        // island through Γ1 (the island tracker would re-analyze all four
        // transactions).
        let cone = graph.closure(&[DirtySeed::Task(TaskRef { tx: 3, idx: 0 })]);
        assert_eq!(cone.transactions, vec![false, false, false, true]);
        assert_eq!(cone.transaction_count(), 1);
    }

    #[test]
    fn retune_sweeps_the_whole_platform() {
        let (_, graph) = paper();
        let cone = graph.closure(&[DirtySeed::Platform(hsched_platform::PlatformId(0))]);
        // Π1 hosts τ1,2 (chain → τ1,3, τ1,4 → Π3 sweep at p3) and τ2,1.
        assert_eq!(cone.transactions, vec![true, true, false, true]);
    }

    #[test]
    fn sweep_order_puts_the_chain_cycle_before_what_it_feeds() {
        let (_, graph) = paper();
        // Flat: τ1,1..τ1,4 = 0..3, τ2,1 = 4, τ3,1 = 5, τ4,1 = 6. τ1,1 →
        // τ1,2 → τ1,3 feed each other's readers, and τ1,3's response sets
        // J1,4, which τ1,1, τ1,4 and τ4,1 read (Π3, priority ≤ 3): one
        // cycle {τ1,1, τ1,2, τ1,3}, then τ1,4 and τ4,1.
        assert_eq!(
            components(graph.sweep_order(&[true; 7])),
            vec![vec![0, 1, 2], vec![3], vec![4], vec![5], vec![6]]
        );
        // Frozen tasks are left out, and cut the edges through them.
        let active = [false, true, true, true, false, false, true];
        assert_eq!(
            components(graph.sweep_order(&active)),
            vec![vec![1], vec![2], vec![3], vec![6]]
        );
    }

    #[test]
    fn sweep_order_is_topological_against_set_order() {
        // Γ1 = a (Π1, p1); Γ2 = b (Π2, p1) → c (Π1, p2). c's jitter is
        // read by a (lower priority on Π1), so b must precede a, and the
        // order departs from set order.
        let mut platforms = hsched_platform::PlatformSet::new();
        let p1 = platforms.add(hsched_platform::Platform::dedicated("p1"));
        let p2 = platforms.add(hsched_platform::Platform::dedicated("p2"));
        let one = hsched_numeric::rat(1, 1);
        let task = |name: &str, priority, platform| {
            hsched_transaction::Task::new(name, one, one, priority, platform)
        };
        let tx = |name: &str, tasks| {
            let period = hsched_numeric::rat(100, 1);
            hsched_transaction::Transaction::new(name, period, period, tasks).unwrap()
        };
        let set = TransactionSet::new(
            platforms,
            vec![
                tx("a", vec![task("a", 1, p1)]),
                tx("bc", vec![task("b", 1, p2), task("c", 2, p1)]),
            ],
        )
        .unwrap();
        assert_eq!(
            components(HpGraph::of(&set).sweep_order(&[true; 3])),
            vec![vec![1], vec![0], vec![2]]
        );
    }

    #[test]
    fn sweep_order_of_a_long_chain_needs_no_deep_stack() {
        // One transaction of 100 000 tasks, each on a platform of its own:
        // a DFS as deep as the chain, which must not recurse.
        const N: usize = 100_000;
        let mut platforms = hsched_platform::PlatformSet::new();
        let one = hsched_numeric::rat(1, 100_000_000);
        let tasks = (0..N)
            .map(|k| {
                let p = platforms.add(hsched_platform::Platform::dedicated(format!("p{k}")));
                hsched_transaction::Task::new(format!("t{k}"), one, one, 1, p)
            })
            .collect();
        let period = hsched_numeric::rat(1, 1);
        let chain = hsched_transaction::Transaction::new("chain", period, period, tasks).unwrap();
        let set = TransactionSet::new(platforms, vec![chain]).unwrap();
        let order = HpGraph::of(&set).sweep_order(&vec![true; N]);
        assert!(components(order).into_iter().eq((0..N).map(|v| vec![v])));
    }

    #[test]
    fn islands_are_walked_from_their_platforms() {
        // One island, joined by Γ1's chain across Π1, Π2 and Π3.
        let (_, graph) = paper();
        let p = hsched_platform::PlatformId;
        assert_eq!(graph.islands_of([p(1)]), vec![0, 1, 2, 3]);
        assert_eq!(graph.islands(&[true; 4]), (vec![0, 1, 2, 3], vec![0, 4]));
        // Γ4 reads Γ1 (τ1,1 and τ1,4 above it on Π3). Γ1 reads Γ2 on Π1
        // and Γ3 on Π2, but not Γ4, below its lowest task on Π3.
        assert_eq!(graph.context(&[3], &[false, false, false, true]), vec![0]);
        assert_eq!(
            graph.context(&[0], &[true, false, false, false]),
            vec![1, 2]
        );
        // Γa on p1, Γbc bridging p2 and p3, Γd on p3, p4 unused: two
        // islands.
        let mut platforms = hsched_platform::PlatformSet::new();
        let ids: Vec<_> = (0..4)
            .map(|k| platforms.add(hsched_platform::Platform::dedicated(format!("p{k}"))))
            .collect();
        let one = hsched_numeric::rat(1, 1);
        let tx = |name: &str, on: &[usize]| {
            let tasks = on
                .iter()
                .enumerate()
                .map(|(j, &k)| {
                    hsched_transaction::Task::new(format!("{name}{j}"), one, one, 1, ids[k])
                })
                .collect();
            let period = hsched_numeric::rat(100, 1);
            hsched_transaction::Transaction::new(name, period, period, tasks).unwrap()
        };
        let set = TransactionSet::new(
            platforms,
            vec![tx("a", &[0]), tx("bc", &[1, 2]), tx("d", &[2])],
        )
        .unwrap();
        let graph = HpGraph::of(&set);
        assert_eq!(graph.islands_of([p(0)]), vec![0]);
        assert_eq!(graph.islands_of([p(2)]), vec![1, 2]);
        assert_eq!(graph.islands_of([p(2), p(0), p(1)]), vec![0, 1, 2]);
        assert!(graph.islands_of([p(3), p(99)]).is_empty());
    }

    #[test]
    fn out_of_range_seeds_are_ignored() {
        let (_, graph) = paper();
        let cone = graph.closure(&[DirtySeed::Footprint {
            platform: hsched_platform::PlatformId(99),
            priority: 5,
        }]);
        assert_eq!(cone.transaction_count(), 0);
        let cone = graph.closure(&[]);
        assert_eq!(cone.transaction_count(), 0);
    }
}
