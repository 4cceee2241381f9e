//! Per-task analysis state: offsets, jitters, response times.

use crate::grid::Grid;
use crate::{best_service_time, ServiceTimeMode};
use hsched_numeric::Time;
use hsched_transaction::TransactionSet;

/// The evolving state of one task during the holistic iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskState {
    /// Offset `φi,j`: earliest instant after the transaction's activation at
    /// which the task can be released — the accumulated best-case completion
    /// of its predecessors (Eq. 18, static across iterations because the
    /// best-case bound is).
    pub phi: Time,
    /// Jitter `Ji,j`: worst-case extra release delay past the offset —
    /// `R_{i,j−1} − Rbest_{i,j−1}` (Eq. 18), grows monotonically over the
    /// holistic iterations.
    pub jitter: Time,
}

impl TaskState {
    /// Latest possible release after transaction activation: `φ + J`.
    pub fn latest_release(&self) -> Time {
        self.phi + self.jitter
    }
}

/// Computes, for each task, the best-case completion time of its
/// predecessor chain (the paper's `Rbest` / Table 1's φmin column):
///
/// `offsets[i][j] = Σ_{k<j} best_service(Cbest_{i,k})`
///
/// and `best_response[i][j] = offsets[i][j] + best_service(Cbest_{i,j})`.
pub fn best_case_offsets(
    set: &TransactionSet,
    mode: ServiceTimeMode,
) -> (Vec<Vec<Time>>, Vec<Vec<Time>>) {
    chain_offsets(set, |i, j| {
        let task = &set.transactions()[i].tasks()[j];
        best_service_time(&set.platforms()[task.platform], task.bcet, mode)
    })
}

/// The offsets and best-case responses of `set`'s chains, with `best(i,
/// j)` the best-case service time of task τi,j.
pub(crate) fn chain_offsets(
    set: &TransactionSet,
    best: impl Fn(usize, usize) -> Time,
) -> (Vec<Vec<Time>>, Vec<Vec<Time>>) {
    let mut offsets = Vec::with_capacity(set.transactions().len());
    let mut best_responses = Vec::with_capacity(set.transactions().len());
    for (i, tx) in set.transactions().iter().enumerate() {
        let mut row_off = Vec::with_capacity(tx.len());
        let mut row_best = Vec::with_capacity(tx.len());
        let mut acc = Time::ZERO;
        for j in 0..tx.len() {
            row_off.push(acc);
            acc += best(i, j);
            row_best.push(acc);
        }
        offsets.push(row_off);
        best_responses.push(row_best);
    }
    (offsets, best_responses)
}

/// Initial state on `grid`: offsets at their best-case values (from
/// [`Grid::best_case_offsets`]), jitters zero (§3.2: "the initial values
/// of jitters and offsets") — except the first task of each transaction,
/// which inherits the stream's release jitter.
pub(crate) fn states_at(grid: &Grid, offsets: Vec<Vec<Time>>) -> Vec<Vec<TaskState>> {
    offsets
        .into_iter()
        .enumerate()
        .map(|(i, row)| {
            row.into_iter()
                .enumerate()
                .map(|(j, phi)| TaskState {
                    phi,
                    jitter: if j == 0 {
                        grid.release_jitter(i)
                    } else {
                        Time::ZERO
                    },
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hsched_numeric::rat;
    use hsched_transaction::paper_example;

    /// [`states_at`] the set's best-case offsets.
    pub(crate) fn initial_states(
        set: &TransactionSet,
        mode: ServiceTimeMode,
    ) -> Vec<Vec<TaskState>> {
        states_at(
            &Grid::unscaled(set, &Default::default()),
            best_case_offsets(set, mode).0,
        )
    }

    #[test]
    fn paper_offsets_match_table1_phi_min() {
        let set = paper_example::transactions();
        let (offsets, best) = best_case_offsets(&set, ServiceTimeMode::LinearBounds);
        // Γ1: φmin = [0, 3, 4, 5] (Table 1).
        assert_eq!(offsets[0], vec![rat(0, 1), rat(3, 1), rat(4, 1), rat(5, 1)]);
        // Best-case responses: 3, 4, 5, 8 (compute's own best on Π3 is 3).
        assert_eq!(best[0], vec![rat(3, 1), rat(4, 1), rat(5, 1), rat(8, 1)]);
        // Single-task transactions have zero offset.
        assert_eq!(offsets[1], vec![rat(0, 1)]);
        assert_eq!(offsets[3], vec![rat(0, 1)]);
        // τ2,1 best: max(0, 0.25/0.4 − 1) = 0.
        assert_eq!(best[1], vec![rat(0, 1)]);
        // τ4,1 best: max(0, 5/0.2 − 1) = 24.
        assert_eq!(best[3], vec![rat(24, 1)]);
    }

    #[test]
    fn initial_states_have_zero_jitter() {
        let set = paper_example::transactions();
        let states = initial_states(&set, ServiceTimeMode::LinearBounds);
        for row in &states {
            for s in row {
                assert_eq!(s.jitter, Time::ZERO);
            }
        }
        assert_eq!(states[0][3].phi, rat(5, 1));
        assert_eq!(states[0][3].latest_release(), rat(5, 1));
    }
}
