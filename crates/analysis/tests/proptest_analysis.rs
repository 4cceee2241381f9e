//! Property tests for the holistic analysis on randomized small systems:
//! ordering and monotonicity laws that must hold whatever the workload.

use hsched_analysis::{
    analyze_resumed, analyze_with, AnalysisConfig, DirtySeed, HpGraph, UpdateOrder, WarmStart,
};
use hsched_numeric::{rat, Rational};
use hsched_platform::{Platform, PlatformId, PlatformSet};
use hsched_transaction::{Task, TaskRef, Transaction, TransactionSet};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RawTask {
    wcet_tenths: i128,
    bcet_pct: i128,
    priority: u32,
    platform: usize,
}

#[derive(Debug, Clone)]
struct RawSystem {
    alphas: Vec<i128>, // tenths, 1..=10
    deltas: Vec<i128>,
    txs: Vec<(i128, Vec<RawTask>)>, // (period index, tasks)
}

const PERIODS: [i128; 5] = [25, 40, 50, 80, 100];

fn raw_system() -> impl Strategy<Value = RawSystem> {
    let task = (1i128..=10, 25i128..=100, 1u32..=4, 0usize..2).prop_map(
        |(wcet_tenths, bcet_pct, priority, platform)| RawTask {
            wcet_tenths,
            bcet_pct,
            priority,
            platform,
        },
    );
    let tx = (0i128..5, proptest::collection::vec(task, 1..=3));
    (
        proptest::collection::vec(3i128..=10, 2..=2),
        proptest::collection::vec(0i128..=2, 2..=2),
        proptest::collection::vec(tx, 1..=3),
    )
        .prop_map(|(alphas, deltas, txs)| RawSystem {
            alphas,
            deltas,
            txs,
        })
}

/// The interference cone of `seed` by task, from its definition: what the
/// seed reaches over interference edges (to the tasks on its platform at
/// or below its priority) and chain edges (to its successor). A warm start
/// restricted to it freezes tasks one by one, where admission freezes
/// whole transactions.
fn task_cone(set: &TransactionSet, seed: TaskRef) -> Vec<Vec<bool>> {
    let mut cone: Vec<Vec<bool>> = set
        .transactions()
        .iter()
        .map(|tx| vec![false; tx.len()])
        .collect();
    let mut frontier = vec![seed];
    while let Some(r) = frontier.pop() {
        if std::mem::replace(&mut cone[r.tx][r.idx], true) {
            continue;
        }
        let task = set.task(r);
        frontier.extend(set.task_refs().filter(|&other| {
            let t = set.task(other);
            t.platform == task.platform && t.priority <= task.priority
        }));
        if r.idx + 1 < set.transactions()[r.tx].len() {
            frontier.push(TaskRef {
                tx: r.tx,
                idx: r.idx + 1,
            });
        }
    }
    cone
}

fn build(raw: &RawSystem) -> TransactionSet {
    let mut platforms = PlatformSet::new();
    for (k, (&a, &d)) in raw.alphas.iter().zip(&raw.deltas).enumerate() {
        platforms.add(
            Platform::linear(format!("P{k}"), rat(a, 10), rat(d, 1), rat(0, 1)).expect("valid"),
        );
    }
    let txs = raw
        .txs
        .iter()
        .enumerate()
        .map(|(i, (p_idx, tasks))| {
            let period = rat(PERIODS[(*p_idx as usize) % PERIODS.len()], 1);
            let tasks = tasks
                .iter()
                .enumerate()
                .map(|(j, t)| {
                    let wcet = rat(t.wcet_tenths, 10);
                    Task::new(
                        format!("t{i}_{j}"),
                        wcet,
                        wcet * rat(t.bcet_pct, 100),
                        t.priority,
                        PlatformId(t.platform % 2),
                    )
                })
                .collect();
            Transaction::new(format!("tx{i}"), period, period * rat(4, 1), tasks).expect("valid")
        })
        .collect();
    TransactionSet::new(platforms, txs).expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn responses_dominate_best_case_chain(raw in raw_system()) {
        let set = build(&raw);
        let report = analyze_with(&set, &AnalysisConfig::default()).unwrap();
        prop_assume!(!report.diverged && report.converged);
        for (i, row) in report.tasks.iter().enumerate() {
            for (j, t) in row.iter().enumerate() {
                prop_assert!(
                    t.response >= t.best_response,
                    "R < Rbest at τ{},{}", i + 1, j + 1
                );
                prop_assert!(t.response.is_positive());
                prop_assert!(!t.jitter.is_negative());
                // Responses grow along the chain (precedence).
                if j > 0 {
                    prop_assert!(
                        t.response >= row[j - 1].response,
                        "chain response not monotone at τ{},{}", i + 1, j + 1
                    );
                }
            }
        }
    }

    #[test]
    fn trace_responses_monotone_across_iterations(raw in raw_system()) {
        let set = build(&raw);
        let report = analyze_with(&set, &AnalysisConfig::default()).unwrap();
        prop_assume!(!report.diverged);
        for k in 1..report.trace.len() {
            for (i, row) in report.trace[k].responses.iter().enumerate() {
                for (j, &r) in row.iter().enumerate() {
                    prop_assert!(
                        r >= report.trace[k - 1].responses[i][j],
                        "iteration {k} shrank R at τ{},{}", i + 1, j + 1
                    );
                }
            }
        }
    }

    #[test]
    fn inflating_a_wcet_never_shrinks_any_response(raw in raw_system()) {
        let set = build(&raw);
        let base = analyze_with(&set, &AnalysisConfig::default()).unwrap();
        prop_assume!(base.converged && !base.diverged);
        // Double the first task's WCET.
        let mut txs: Vec<Transaction> = set.transactions().to_vec();
        let mut tasks = txs[0].tasks().to_vec();
        tasks[0].wcet *= rat(2, 1);
        tasks[0].bcet = tasks[0].bcet.min(tasks[0].wcet);
        txs[0] = Transaction::new(
            txs[0].name.clone(),
            txs[0].period,
            txs[0].deadline,
            tasks,
        )
        .unwrap();
        let heavier = TransactionSet::new(set.platforms().clone(), txs).unwrap();
        let inflated = analyze_with(&heavier, &AnalysisConfig::default()).unwrap();
        prop_assume!(!inflated.diverged);
        for r in set.task_refs() {
            prop_assert!(
                inflated.response(r.tx, r.idx) >= base.response(r.tx, r.idx),
                "heavier load shrank response at {}", r
            );
        }
    }

    #[test]
    fn utilization_overflow_always_detected(raw in raw_system()) {
        // Scale all WCETs so that some platform's demand exceeds its rate:
        // the analysis must report divergence rather than fabricate bounds.
        let set = build(&raw);
        let u = set.platform_utilization();
        let alpha0 = set.platforms()[PlatformId(0)].alpha();
        prop_assume!(u[0].is_positive());
        // Factor pushing platform 0 to 1.5× its capacity.
        let factor = alpha0 / u[0] * rat(3, 2);
        let txs: Vec<Transaction> = set
            .transactions()
            .iter()
            .map(|tx| {
                let tasks = tx
                    .tasks()
                    .iter()
                    .map(|t| {
                        let mut t = t.clone();
                        if t.platform == PlatformId(0) {
                            t.wcet *= factor;
                            t.bcet = t.bcet.min(t.wcet);
                        }
                        t
                    })
                    .collect();
                Transaction::new(tx.name.clone(), tx.period, tx.deadline, tasks).unwrap()
            })
            .collect();
        let overloaded = TransactionSet::new(set.platforms().clone(), txs).unwrap();
        prop_assert!(!overloaded.overloaded_platforms().is_empty());
        let report = analyze_with(&overloaded, &AnalysisConfig::default()).unwrap();
        prop_assert!(report.diverged || !report.schedulable());
    }
}

/// Case count of the update-order property, env-tunable so CI can run it
/// extended (`HSCHED_PROPTEST_CASES=500`) without editing it.
fn stress_cases(tier1: u32) -> u32 {
    std::env::var("HSCHED_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(tier1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(stress_cases(48)))]

    /// Admission iterates Gauss-Seidel wherever the config says Jacobi, so
    /// Gauss-Seidel must reach Jacobi's cold fixpoint from every start a
    /// controller builds: cold; warm after the set grew by its last
    /// transaction; and restricted to the cone of one transaction's first
    /// task, the cone restarting cold and warm. The two orders agree on
    /// `converged` and `diverged`, and wherever Jacobi converged bounded,
    /// on every response, jitter and verdict.
    #[test]
    fn gauss_seidel_matches_jacobi_fixpoint(raw in raw_system(), pick in 0usize..8) {
        let set = build(&raw);
        let gauss_seidel = AnalysisConfig {
            update_order: UpdateOrder::GaussSeidel,
            ..AnalysisConfig::default()
        };
        let jacobi = analyze_with(&set, &AnalysisConfig::default()).unwrap();
        let cold = analyze_with(&set, &gauss_seidel).unwrap();
        let (last, rest) = set.transactions().split_last().unwrap();
        let before = TransactionSet::new(set.platforms().clone(), rest.to_vec()).unwrap();
        let mut grown = WarmStart::from_report(&analyze_with(&before, &gauss_seidel).unwrap());
        grown.jitters.push(vec![Rational::ZERO; last.len()]);
        let seed = TaskRef { tx: pick % set.transactions().len(), idx: 0 };
        let cone = task_cone(&set, seed);
        prop_assert_eq!(
            HpGraph::of(&set).closure(&[DirtySeed::Task(seed)]).transactions,
            cone.iter().map(|row| row.contains(&true)).collect::<Vec<_>>()
        );
        let starts = [
            Some(grown),
            Some(WarmStart::restricted(&cold, cone.clone(), true)),
            Some(WarmStart::restricted(&cold, cone.clone(), false)),
        ];
        for (k, warm) in std::iter::once(None).chain(starts).enumerate() {
            let gs = analyze_resumed(&set, &gauss_seidel, warm.as_ref()).unwrap();
            prop_assert_eq!(gs.converged, jacobi.converged, "start {}: converged", k);
            prop_assert_eq!(gs.diverged, jacobi.diverged, "start {}: diverged", k);
            if jacobi.converged && !jacobi.diverged {
                prop_assert_eq!(&gs.tasks, &jacobi.tasks, "start {}: rows", k);
                prop_assert_eq!(&gs.verdicts, &jacobi.verdicts, "start {}: verdicts", k);
                prop_assert!(gs.iterations() <= jacobi.iterations(), "start {}: sweeps", k);
            }
        }
    }
}

/// Case 2 of `gauss_seidel_matches_jacobi_fixpoint`, kept by name: the cone
/// of Γ2's first task (P0, priority 4) reaches τ3,2 on P0 but not its
/// predecessor τ3,1 on P1. Restarted cold, τ3,2's jitter is fed by a pinned
/// response no sweep re-analyzes, so Gauss-Seidel must apply Eq. 18 to it
/// before the first sweep, or it converges at J3,2 = 0.
#[test]
fn gauss_seidel_seeds_jitter_from_a_pinned_predecessor() {
    let task = |wcet_tenths, bcet_pct, priority, platform| RawTask {
        wcet_tenths,
        bcet_pct,
        priority,
        platform,
    };
    let raw = RawSystem {
        alphas: vec![3, 9],
        deltas: vec![0, 2],
        txs: vec![
            (1, vec![task(2, 60, 3, 1)]),
            (4, vec![task(7, 67, 4, 0), task(5, 69, 1, 0)]),
            (4, vec![task(9, 31, 2, 1), task(8, 39, 2, 0)]),
        ],
    };
    let set = build(&raw);
    let jacobi = analyze_with(&set, &AnalysisConfig::default()).unwrap();
    let cone = task_cone(&set, TaskRef { tx: 1, idx: 0 });
    assert_eq!(cone[2], vec![false, true], "τ3,2 active, τ3,1 pinned");
    let warm = WarmStart::restricted(&jacobi, cone, true);
    let gauss_seidel = AnalysisConfig {
        update_order: UpdateOrder::GaussSeidel,
        ..AnalysisConfig::default()
    };
    let resumed = analyze_resumed(&set, &gauss_seidel, Some(&warm)).unwrap();
    assert!(jacobi.converged && resumed.converged);
    assert_ne!(jacobi.tasks[2][1].jitter, Rational::ZERO);
    assert_eq!(resumed.tasks, jacobi.tasks);
}

/// Non-proptest determinism anchor: the same raw system analyzed twice gives
/// byte-identical reports.
#[test]
fn analysis_is_deterministic() {
    let raw = RawSystem {
        alphas: vec![4, 7],
        deltas: vec![1, 2],
        txs: vec![
            (
                0,
                vec![
                    RawTask {
                        wcet_tenths: 8,
                        bcet_pct: 50,
                        priority: 2,
                        platform: 0,
                    },
                    RawTask {
                        wcet_tenths: 5,
                        bcet_pct: 100,
                        priority: 1,
                        platform: 1,
                    },
                ],
            ),
            (
                2,
                vec![RawTask {
                    wcet_tenths: 10,
                    bcet_pct: 75,
                    priority: 3,
                    platform: 0,
                }],
            ),
        ],
    };
    let set = build(&raw);
    let a = analyze_with(&set, &AnalysisConfig::default()).unwrap();
    let b = analyze_with(&set, &AnalysisConfig::default()).unwrap();
    assert_eq!(a, b);
    assert_eq!(Rational::ONE, rat(1, 1));
}
