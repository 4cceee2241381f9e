//! Metamorphic relations of the analysis: each runs the analysis on a
//! generated system and on a transformed copy of it, and checks that the
//! two reports relate as the paper's model (§3, Eqs. 7–18) says they must.
//!
//! * **R2, rate co-scaling.** Under `LinearBounds`, multiplying one
//!   platform's rate α and every `C` and `Cbest` on it by the same `s`
//!   leaves every response, jitter, offset and verdict unchanged: only
//!   `C/α` and `Cbest/α` enter the analysis. This protects the grid's
//!   `C/num(α)` term and the inversion of the linear supply bound.
//! * **R3, relabelling.** Permuting the transactions, and renaming
//!   transactions and tasks, permutes the report and renames its rows,
//!   and changes nothing else: no tie-break or index leaks into a value.
//!
//! Both run over `hsched-bench`'s `random_system` and
//! `hsched-admission`'s mixed-kind `random_scenario`, in both scenario
//! modes and both update orders. `HSCHED_PROPTEST_CASES` sets the number
//! of seeds per generator.

use hsched::admission::gen::{random_scenario, PlatformMix, ScenarioSpec};
use hsched::analysis::{ScenarioMode, UpdateOrder};
use hsched::platform::ServiceModel;
use hsched::prelude::*;
use hsched_bench::{random_system, WorkloadSpec};

/// Seeds per generator: `HSCHED_PROPTEST_CASES`, or `tier1`.
fn cases(tier1: u64) -> u64 {
    std::env::var("HSCHED_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(tier1)
}

/// The two generated systems of `seed`.
fn systems(seed: u64) -> [(&'static str, TransactionSet); 2] {
    let system = random_system(&WorkloadSpec {
        platforms: 3,
        transactions: 6,
        max_tasks_per_tx: 4,
        load_fraction: rat(3, 5),
        priority_levels: 4,
        seed,
    });
    let scenario = random_scenario(&ScenarioSpec {
        clusters: 2,
        platforms_per_cluster: 2,
        transactions: 6,
        max_tasks_per_tx: 3,
        load: rat(3, 5),
        priority_levels: 4,
        mix: PlatformMix::Mixed,
        seed,
    });
    [("random_system", system), ("random_scenario", scenario)]
}

/// Every configuration the relations run under.
fn configs() -> Vec<AnalysisConfig> {
    let mut configs = Vec::new();
    for scenario_mode in [
        ScenarioMode::Approximate,
        ScenarioMode::Exact {
            max_scenarios: 4096,
        },
    ] {
        for update_order in [UpdateOrder::Jacobi, UpdateOrder::GaussSeidel] {
            configs.push(AnalysisConfig {
                scenario_mode,
                update_order,
                ..AnalysisConfig::default()
            });
        }
    }
    configs
}

/// `set` with its transactions rebuilt by `task`, in the order `order`
/// names, each renamed by `rename`, over `platforms`.
fn rebuilt(
    set: &TransactionSet,
    platforms: PlatformSet,
    order: &[usize],
    rename: impl Fn(&str) -> String,
    task: impl Fn(&Task) -> Task,
) -> TransactionSet {
    let transactions = order
        .iter()
        .map(|&i| {
            let tx = &set.transactions()[i];
            let tasks = tx
                .tasks()
                .iter()
                .map(|t| Task {
                    name: rename(&t.name),
                    ..task(t)
                })
                .collect();
            Transaction::new(rename(&tx.name), tx.period, tx.deadline, tasks)
                .unwrap()
                .with_release_jitter(tx.release_jitter)
        })
        .collect();
    TransactionSet::new(platforms, transactions).unwrap()
}

#[test]
fn r2_rate_co_scaling_leaves_the_report_unchanged() {
    let mut scaled_platforms = 0;
    for seed in 0..cases(40) {
        for (generator, set) in systems(seed) {
            let identity: Vec<usize> = (0..set.transactions().len()).collect();
            for config in configs() {
                let report = analyze_with(&set, &config);
                for (id, platform) in set.platforms().iter() {
                    let model = platform.linear_model();
                    let s = if model.alpha() * rat(3, 2) <= rat(1, 1) {
                        rat(3, 2)
                    } else {
                        rat(2, 3)
                    };
                    let faster =
                        BoundedDelay::new(model.alpha() * s, model.delay(), model.burstiness())
                            .unwrap();
                    let mut platforms = set.platforms().clone();
                    platforms.replace(id, platform.with_model(ServiceModel::Linear(faster)));
                    let scaled = rebuilt(&set, platforms, &identity, str::to_string, |t| {
                        if t.platform == id {
                            Task {
                                wcet: t.wcet * s,
                                bcet: t.bcet * s,
                                ..t.clone()
                            }
                        } else {
                            t.clone()
                        }
                    });
                    assert_eq!(
                        analyze_with(&scaled, &config),
                        report,
                        "{generator} seed {seed}, {config:?}: α and C on {id} scaled by {s}"
                    );
                    scaled_platforms += 1;
                }
            }
        }
    }
    assert!(scaled_platforms > 0);
}

/// `report`'s rows in the order `order` names, renamed by `rename`.
fn relabelled(
    report: &SchedulabilityReport,
    order: &[usize],
    rename: impl Fn(&str) -> String,
) -> SchedulabilityReport {
    let mut expected = report.clone();
    expected.tasks = order
        .iter()
        .map(|&i| {
            let mut row = report.tasks[i].clone();
            for task in &mut row {
                task.name = rename(&task.name);
            }
            row
        })
        .collect();
    expected.verdicts = order
        .iter()
        .map(|&i| {
            let mut verdict = report.verdicts[i].clone();
            verdict.name = rename(&verdict.name);
            verdict
        })
        .collect();
    for record in &mut expected.trace {
        record.jitters = order.iter().map(|&i| record.jitters[i].clone()).collect();
        record.responses = order.iter().map(|&i| record.responses[i].clone()).collect();
    }
    expected
}

#[test]
fn r3_relabelling_permutes_the_report() {
    let rename = |name: &str| format!("renamed.{name}");
    let mut relabelled_sets = 0;
    for seed in 0..cases(40) {
        for (generator, set) in systems(seed) {
            let n = set.transactions().len();
            // Reversed, and rotated by the seed.
            let orders: [Vec<usize>; 2] = [
                (0..n).rev().collect(),
                (0..n).map(|i| (i + seed as usize + 1) % n).collect(),
            ];
            for order in &orders {
                let permuted = rebuilt(&set, set.platforms().clone(), order, rename, Task::clone);
                for config in configs() {
                    let what = format!("{generator} seed {seed}, {config:?}, order {order:?}");
                    match analyze_with(&set, &config) {
                        Ok(report) => assert_eq!(
                            analyze_with(&permuted, &config).unwrap(),
                            relabelled(&report, order, rename),
                            "{what}"
                        ),
                        Err(_) => assert!(analyze_with(&permuted, &config).is_err(), "{what}"),
                    }
                    relabelled_sets += 1;
                }
            }
        }
    }
    assert!(relabelled_sets > 0);
}
