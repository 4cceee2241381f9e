//! Interference islands and cones, the structure that makes admission
//! incremental: interference never crosses an **island** of the
//! transaction–platform graph (Eq. 17), and inside one flows only from high
//! to low priority, so a change reaches only its **interference cone**. One
//! `hsched_analysis::HpGraph` of the live set answers every such query
//! (`islands_of`, `closure`, `islands`, `context`).

/// A plain union–find (path halving, no ranks) over `0..n`, public for
/// callers that group platforms into islands themselves (the benchmark's
/// island inputs, the admission property tests' oracle).
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

#[cfg(test)]
mod tests {
    use hsched_analysis::HpGraph;
    use hsched_numeric::rat;
    use hsched_platform::{Platform, PlatformId, PlatformSet};
    use hsched_transaction::{Task, Transaction, TransactionSet};

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
            HpGraph::of(&set).islands(&[true; 3]),
            (vec![0, 2, 1], vec![0, 2, 3])
        );
    }

    #[test]
    fn dirty_components_split_disjoint_cones() {
        // tx0 on P0, tx1 on P1, tx2 on P0–P1 (bridges), tx3 on P2.
        let set = set_on(3, &[&[0], &[1], &[0, 1], &[2]]);
        // All dirty: one component bridged by tx2, plus tx3 alone.
        let graph = HpGraph::of(&set);
        let all = vec![true; 4];
        assert_eq!(graph.islands(&all), (vec![0, 1, 2, 3], vec![0, 3, 4]));
        // Without the bridge, tx0 and tx1 are independent cones even though
        // they share an island with tx2.
        let no_bridge = vec![true, true, false, true];
        assert_eq!(graph.islands(&no_bridge), (vec![0, 1, 3], vec![0, 1, 2, 3]));
        // Context of {tx0}: the clean bridge tx2 (shares P0), not tx1/tx3.
        assert_eq!(graph.context(&[0], &no_bridge), vec![2]);
        assert!(graph.context(&[3], &no_bridge).is_empty());
    }
}
