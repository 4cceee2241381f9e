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
//! transaction set, it answers closure queries for the admission layer's
//! dirty tracking. (The analysis reads Eq. 17's hp sets directly; it does
//! not consult this graph.)

use hsched_platform::PlatformId;
use hsched_transaction::{TaskRef, TransactionSet};

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
    priority: u32,
    platform: usize,
    /// `true` when the task has a successor in its transaction chain.
    has_successor: bool,
}

/// The dirty closure of a batch of seeds: which tasks (and transactions)
/// are inside the interference cone. Layout-aligned with the set the graph
/// was built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyClosure {
    /// `tasks[i][j]` — task τi,j is inside the cone.
    pub tasks: Vec<Vec<bool>>,
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
/// module docs for the edge relation). Construction is O(tasks + platform
/// populations); closure queries are a BFS over the cone only.
#[derive(Debug, Clone)]
pub struct HpGraph {
    /// Flat index of the first task of each transaction.
    starts: Vec<usize>,
    nodes: Vec<TaskNode>,
    /// Platform index → `(flat task index, priority)` of its tasks.
    platform_tasks: Vec<Vec<(usize, u32)>>,
}

impl HpGraph {
    /// Builds the graph of the given set.
    pub fn of(set: &TransactionSet) -> HpGraph {
        let mut starts = Vec::with_capacity(set.transactions().len());
        let mut nodes = Vec::new();
        let mut platform_tasks: Vec<Vec<(usize, u32)>> = vec![Vec::new(); set.platforms().len()];
        for tx in set.transactions() {
            starts.push(nodes.len());
            for (j, task) in tx.tasks().iter().enumerate() {
                let flat = nodes.len();
                nodes.push(TaskNode {
                    priority: task.priority,
                    platform: task.platform.0,
                    has_successor: j + 1 < tx.len(),
                });
                platform_tasks[task.platform.0].push((flat, task.priority));
            }
        }
        HpGraph {
            starts,
            nodes,
            platform_tasks,
        }
    }

    /// Flat index of a task.
    fn flat(&self, r: TaskRef) -> usize {
        self.starts[r.tx] + r.idx
    }

    /// Tasks on `platform` with priority ≤ `priority` — what a task with
    /// these coordinates can interfere with (its direct cone frontier).
    fn sweep_platform(&self, platform: usize, priority: u32, out: &mut Vec<usize>) {
        if let Some(tasks) = self.platform_tasks.get(platform) {
            for &(flat, prio) in tasks {
                if prio <= priority {
                    out.push(flat);
                }
            }
        }
    }

    /// Forward reachability from the seeds over interference + chain edges:
    /// the exact set of tasks whose fixpoint values can differ from the
    /// pre-change analysis. Out-of-range seeds (e.g. footprints on a
    /// platform with no remaining tasks) contribute nothing.
    pub fn closure(&self, set: &TransactionSet, seeds: &[DirtySeed]) -> DirtyClosure {
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
            let node = self.nodes[flat];
            // Interference edges: everything this task can delay.
            self.sweep_platform(node.platform, node.priority, &mut frontier);
            // Chain edge: the response feeds the successor's jitter.
            if node.has_successor {
                frontier.push(flat + 1);
            }
        }

        let mut tasks = Vec::with_capacity(set.transactions().len());
        let mut transactions = Vec::with_capacity(set.transactions().len());
        for (i, tx) in set.transactions().iter().enumerate() {
            let row: Vec<bool> = (0..tx.len()).map(|j| dirty[self.starts[i] + j]).collect();
            transactions.push(row.iter().any(|&d| d));
            tasks.push(row);
        }
        DirtyClosure {
            tasks,
            transactions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_transaction::paper_example;

    fn paper() -> (TransactionSet, HpGraph) {
        let set = paper_example::transactions();
        let graph = HpGraph::of(&set);
        (set, graph)
    }

    /// The paper's system: Γ1 = τ1,1(Π3,p2) τ1,2(Π1,p1) τ1,3(Π2,p1)
    /// τ1,4(Π3,p3); Γ2 = τ2,1(Π1,p3); Γ3 = τ3,1(Π2,p3); Γ4 = τ4,1(Π3,p1).
    #[test]
    fn arrival_cone_excludes_higher_priority_tasks() {
        let (set, graph) = paper();
        // A new task on Π3 at priority 1 can only delay priority ≤ 1 tasks
        // on Π3: τ4,1. Nothing propagates further (τ4,1 has no successor
        // and interferes with nothing below it except itself).
        let cone = graph.closure(
            &set,
            &[DirtySeed::Footprint {
                platform: hsched_platform::PlatformId(2),
                priority: 1,
            }],
        );
        assert_eq!(cone.transactions, vec![false, false, false, true]);
        assert!(cone.tasks[3][0]);
    }

    #[test]
    fn chain_edges_propagate_downstream_then_across() {
        let (set, graph) = paper();
        // Seed τ1,1 (Π3, p2): its interference targets on Π3 are τ4,1 (p1)
        // — not τ1,4 (p3, higher). Its chain successor τ1,2 (Π1, p1)
        // drags in nothing new on Π1 (τ2,1 has p3), then τ1,3, τ1,4; τ1,4
        // (p3 on Π3) re-sweeps Π3 and confirms τ1,1/τ4,1.
        let cone = graph.closure(&set, &[DirtySeed::Task(TaskRef { tx: 0, idx: 0 })]);
        assert_eq!(cone.transactions, vec![true, false, false, true]);
        assert_eq!(cone.tasks[0], vec![true, true, true, true]);
    }

    #[test]
    fn high_priority_island_member_stays_clean() {
        let (set, graph) = paper();
        // Seed the lowest-priority task τ4,1 (Π3, p1): it delays nothing,
        // so the cone is itself alone — even though Π1/Π2/Π3 form one
        // island through Γ1 (the island tracker would re-analyze all four
        // transactions).
        let cone = graph.closure(&set, &[DirtySeed::Task(TaskRef { tx: 3, idx: 0 })]);
        assert_eq!(cone.transactions, vec![false, false, false, true]);
        assert_eq!(cone.transaction_count(), 1);
    }

    #[test]
    fn retune_sweeps_the_whole_platform() {
        let (set, graph) = paper();
        let cone = graph.closure(&set, &[DirtySeed::Platform(hsched_platform::PlatformId(0))]);
        // Π1 hosts τ1,2 (chain → τ1,3, τ1,4 → Π3 sweep at p3) and τ2,1.
        assert_eq!(cone.transactions, vec![true, true, false, true]);
    }

    #[test]
    fn out_of_range_seeds_are_ignored() {
        let (set, graph) = paper();
        let cone = graph.closure(
            &set,
            &[DirtySeed::Footprint {
                platform: hsched_platform::PlatformId(99),
                priority: 5,
            }],
        );
        assert_eq!(cone.transaction_count(), 0);
        let cone = graph.closure(&set, &[]);
        assert_eq!(cone.transaction_count(), 0);
    }
}
