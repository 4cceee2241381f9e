//! Interference islands and cones: the dependency structure that makes
//! admission analysis incremental.
//!
//! A task's response time depends only on tasks mapped to the *same
//! platform* (the `hp` sets of Eq. 17) and on its own predecessors, whose
//! jitters are again responses of tasks on some platform of the same
//! transaction. Interference therefore cannot cross the boundary of a
//! connected component of the bipartite transaction–platform graph: group
//! platforms with a union–find, merging all platforms touched by each
//! transaction, and the transaction set partitions into **islands** that are
//! analyzable independently — the holistic fixpoint of an island is
//! *identical* to its restriction in a full-system analysis.
//!
//! Islands are only the coarse bound, though: *within* an island,
//! interference still only flows from high to low priority
//! (`hsched_analysis::HpGraph`), so the set of transactions a change can
//! actually affect is its **interference cone** — usually a small slice of
//! the island. The controller computes cones per batch, pins everything
//! outside them at the cached fixpoint, and re-analyzes only cone members
//! ([`dirty_components`] groups them into independently-analyzable
//! sub-problems). With every transaction dirty its components are exactly
//! the islands, so the same function is the island partition wherever one
//! is needed: the seed analysis, every commit's touched-island lookup
//! (utilization precheck and stale rows) and
//! `AdmissionController::split_islands`.

use hsched_transaction::TransactionSet;
use std::collections::HashMap;

/// A plain union–find (path halving, no ranks) over `0..n`: the partition
/// behind the controller's dirty components and islands, public for
/// callers that group platforms the same way (the benchmark's island
/// inputs).
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b` (the representative of `a` wins).
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

/// Groups the cone's dirty transactions into connected components *among
/// themselves*, connecting two dirty transactions iff they share a platform
/// (priorities on one platform are totally ordered, so platform-sharing
/// dirty transactions always carry an interference edge in some direction
/// and must be solved together; dirty transactions only linked through a
/// *clean* transaction cannot influence each other — the clean one would be
/// dirty if influence flowed through it). Components come back in
/// deterministic order: ascending by first member, members ascending.
pub(crate) fn dirty_components(set: &TransactionSet, dirty: &[bool]) -> Vec<Vec<usize>> {
    let members: Vec<usize> = (0..set.transactions().len())
        .filter(|&i| dirty[i])
        .collect();
    let mut uf = UnionFind::new(members.len());
    let mut owner: HashMap<usize, usize> = HashMap::new(); // platform → member pos
    for (k, &i) in members.iter().enumerate() {
        for task in set.transactions()[i].tasks() {
            match owner.get(&task.platform.0) {
                Some(&j) => uf.union(j, k),
                None => {
                    owner.insert(task.platform.0, k);
                }
            }
        }
    }
    // Root member position → its component's index, so the grouping stays
    // linear in the members however many components there are.
    let mut component_of: Vec<Option<usize>> = vec![None; members.len()];
    let mut components: Vec<Vec<usize>> = Vec::new();
    for (k, &i) in members.iter().enumerate() {
        let root = uf.find(k);
        match component_of[root] {
            Some(c) => components[c].push(i),
            None => {
                component_of[root] = Some(components.len());
                components.push(vec![i]);
            }
        }
    }
    components
}

/// The clean transactions whose state a component's analysis reads: every
/// non-dirty transaction with a task that can interfere *into* the
/// component — on a member platform at priority ≥ the lowest member
/// priority there (`hp` of Eq. 17 only looks upward; clean lower-priority
/// neighbors are never read). They join the analyzed sub-set *frozen*
/// (pinned at the cached fixpoint) so member tasks see their hp
/// interference unchanged.
pub(crate) fn component_context(
    set: &TransactionSet,
    members: &[usize],
    dirty: &[bool],
) -> Vec<usize> {
    // Per member platform: the lowest priority any member task holds there.
    let mut floor: HashMap<usize, u32> = HashMap::new();
    for &i in members {
        for task in set.transactions()[i].tasks() {
            let f = floor.entry(task.platform.0).or_insert(task.priority);
            *f = (*f).min(task.priority);
        }
    }
    (0..set.transactions().len())
        .filter(|&i| {
            !dirty[i]
                && set.transactions()[i]
                    .tasks()
                    .iter()
                    .any(|t| floor.get(&t.platform.0).is_some_and(|&f| t.priority >= f))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_numeric::rat;
    use hsched_platform::{Platform, PlatformId, PlatformSet};
    use hsched_transaction::{Task, Transaction};

    fn set_on(n_platforms: usize, chains: &[&[usize]]) -> TransactionSet {
        let mut platforms = PlatformSet::new();
        for k in 0..n_platforms {
            platforms.add(Platform::dedicated(format!("P{k}")));
        }
        let txs = chains
            .iter()
            .enumerate()
            .map(|(i, chain)| {
                let tasks = chain
                    .iter()
                    .enumerate()
                    .map(|(j, &p)| {
                        Task::new(format!("t{i}_{j}"), rat(1, 1), rat(1, 1), 1, PlatformId(p))
                    })
                    .collect();
                Transaction::new(format!("tx{i}"), rat(100, 1), rat(100, 1), tasks).unwrap()
            })
            .collect();
        TransactionSet::new(platforms, txs).unwrap()
    }

    #[test]
    fn chains_union_their_platforms() {
        // tx0 bridges P0–P1, tx1 sits on P2, tx2 on P1 (joins island A).
        let set = set_on(4, &[&[0, 1], &[2], &[1]]);
        // With every transaction dirty, the dirty components are exactly
        // the islands; P3 hosts nothing.
        assert_eq!(
            dirty_components(&set, &[true; 3]),
            vec![vec![0, 2], vec![1]]
        );
    }

    #[test]
    fn dirty_components_split_disjoint_cones() {
        // tx0 on P0, tx1 on P1, tx2 on P0–P1 (bridges), tx3 on P2.
        let set = set_on(3, &[&[0], &[1], &[0, 1], &[2]]);
        // All dirty: one component bridged by tx2, plus tx3 alone.
        let all = vec![true; 4];
        assert_eq!(dirty_components(&set, &all), vec![vec![0, 1, 2], vec![3]]);
        // Without the bridge, tx0 and tx1 are independent cones even though
        // they share an island with tx2.
        let no_bridge = vec![true, true, false, true];
        assert_eq!(
            dirty_components(&set, &no_bridge),
            vec![vec![0], vec![1], vec![3]]
        );
        // Context of {tx0}: the clean bridge tx2 (shares P0), not tx1/tx3.
        assert_eq!(component_context(&set, &[0], &no_bridge), vec![2]);
        assert!(component_context(&set, &[3], &no_bridge).is_empty());
    }
}
