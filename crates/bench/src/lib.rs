//! Experiment support: randomized workload generation and scenario-space
//! accounting, shared by the experiment binaries, the Criterion benches,
//! and the workspace integration tests.

pub mod workload;

pub use workload::{random_system, WorkloadSpec};

use hsched_transaction::{TaskRef, TransactionSet};

/// The reference admission-churn workload of the `admission_bench`
/// criterion bench.
pub mod admission_churn {
    use hsched_admission::gen::ScenarioSpec;
    use hsched_admission::{AdmissionController, AdmissionRequest};
    use hsched_transaction::Transaction;

    /// The headline system: 50 transactions over 10 two-platform clusters,
    /// seed 1 (verified schedulable, so the churn below stays admissible).
    pub fn churn_spec() -> ScenarioSpec {
        ScenarioSpec {
            clusters: 10,
            platforms_per_cluster: 2,
            transactions: 50,
            max_tasks_per_tx: 3,
            seed: 1,
            ..ScenarioSpec::default()
        }
    }

    /// One single-transaction churn epoch pair: retire `victim`, re-admit
    /// it. The state returns to the start, so iterations are independent.
    pub fn churn_once(controller: &mut AdmissionController, victim: &Transaction) {
        let out = controller.admit(AdmissionRequest::RemoveTransaction {
            name: victim.name.clone(),
        });
        assert!(
            out.verdict.admitted(),
            "churn remove rejected: {}",
            out.verdict
        );
        let out = controller.admit(AdmissionRequest::AddTransaction(victim.clone()));
        assert!(
            out.verdict.admitted(),
            "churn re-add rejected: {}",
            out.verdict
        );
    }
}

/// The scenario count of the exact analysis for one task (Eq. 12 of the
/// paper): `(Na + 1) · Π_{i ≠ a, hpi ≠ ∅} Ni`, where `Ni` is the number of
/// tasks of Γi with priority ≥ the task's on the same platform.
pub fn scenario_count(set: &TransactionSet, under: TaskRef) -> u128 {
    let target = set.task(under);
    let mut count: u128 = 1;
    for (i, tx) in set.transactions().iter().enumerate() {
        let n_i = tx
            .tasks()
            .iter()
            .enumerate()
            .filter(|(j, t)| {
                !(i == under.tx && *j == under.idx)
                    && t.platform == target.platform
                    && t.priority >= target.priority
            })
            .count() as u128;
        if i == under.tx {
            count = count.saturating_mul(n_i + 1);
        } else if n_i > 0 {
            count = count.saturating_mul(n_i);
        }
    }
    count
}

/// Total scenario count over all tasks — the work the exact analysis of
/// §3.1.1 faces, versus `Σ (Na + 1)` for the reduced analysis of §3.1.2.
pub fn total_scenarios(set: &TransactionSet) -> (u128, u128) {
    let mut exact: u128 = 0;
    let mut reduced: u128 = 0;
    for r in set.task_refs() {
        exact = exact.saturating_add(scenario_count(set, r));
        let target = set.task(r);
        let own = set.transactions()[r.tx]
            .tasks()
            .iter()
            .enumerate()
            .filter(|(j, t)| {
                *j != r.idx && t.platform == target.platform && t.priority >= target.priority
            })
            .count() as u128;
        reduced = reduced.saturating_add(own + 1);
    }
    (exact, reduced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_transaction::paper_example;

    #[test]
    fn paper_example_scenario_counts() {
        let set = paper_example::transactions();
        // τ1,1 (Π3, p=2): own hp = {τ1,4} → Na+1 = 2; Γ4's τ4,1 has p=1,
        // no foreign axis → 2 scenarios.
        assert_eq!(scenario_count(&set, TaskRef { tx: 0, idx: 0 }), 2);
        // τ4,1 (Π3, p=1): own none → 1; Γ1 contributes {τ1,1, τ1,4} → 2.
        assert_eq!(scenario_count(&set, TaskRef { tx: 3, idx: 0 }), 2);
        let (exact, reduced) = total_scenarios(&set);
        assert!(exact >= reduced);
    }

    #[test]
    fn generated_workloads_are_well_formed() {
        for seed in 0..10 {
            let spec = WorkloadSpec {
                seed,
                ..WorkloadSpec::default()
            };
            let set = random_system(&spec);
            assert!(!set.transactions().is_empty());
            assert!(
                set.overloaded_platforms().is_empty(),
                "seed {seed} overloads"
            );
            for tx in set.transactions() {
                assert!(tx.period.is_positive());
                for t in tx.tasks() {
                    assert!(t.wcet.is_positive());
                    assert!(t.bcet <= t.wcet);
                }
            }
        }
    }

    #[test]
    fn workload_scales_with_spec() {
        let small = random_system(&WorkloadSpec {
            transactions: 2,
            seed: 1,
            ..WorkloadSpec::default()
        });
        let large = random_system(&WorkloadSpec {
            transactions: 12,
            seed: 1,
            ..WorkloadSpec::default()
        });
        assert!(large.num_tasks() > small.num_tasks());
    }
}
