//! Criterion bench: online admission under single-transaction churn on a
//! 50-transaction clustered system — the incremental controller (dirty
//! islands + warm starts) against the from-scratch baseline (full
//! re-analysis per epoch), plus the oracle cost of one offline `analyze`.
//!
//! The headline claim: incremental re-analysis beats from-scratch on
//! single-transaction churn because only the touched interference island
//! (~1/10th of the system here) is re-solved.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hsched_admission::gen::{random_scenario, PlatformMix, ScenarioSpec};
use hsched_admission::{AdmissionController, AdmissionPolicy, AdmissionRequest};
use hsched_analysis::{analyze_with, AnalysisConfig};
use hsched_bench::admission_churn::{churn_once, churn_spec};
use hsched_platform::{Platform, PlatformSet};
use hsched_transaction::{Transaction, TransactionSet};

fn bench_single_tx_churn(c: &mut Criterion) {
    let set = random_scenario(&churn_spec());
    let victim = set.transactions().last().expect("non-empty").clone();
    let mut group = c.benchmark_group("admission/single_tx_churn");
    group.sample_size(20);

    let mut incremental = AdmissionController::new(
        set.clone(),
        AnalysisConfig::default(),
        AdmissionPolicy::default(),
    )
    .expect("seed analysis");
    group.bench_function("incremental", |b| {
        b.iter(|| churn_once(black_box(&mut incremental), &victim))
    });

    let mut scratch = AdmissionController::new(
        set.clone(),
        AnalysisConfig::default(),
        AdmissionPolicy {
            dirty_tracking: false,
            warm_start: false,
            ..AdmissionPolicy::default()
        },
    )
    .expect("seed analysis");
    group.bench_function("from_scratch", |b| {
        b.iter(|| churn_once(black_box(&mut scratch), &victim))
    });

    group.bench_function("offline_analyze_oracle", |b| {
        b.iter(|| black_box(analyze_with(&set, &AnalysisConfig::default())))
    });
    group.finish();

    let stats = incremental.stats();
    println!(
        "admission/single_tx_churn: incremental analyzed {} vs reused {} \
         ({} warm epochs over {} epochs)",
        stats.transactions_analyzed, stats.analyses_avoided, stats.warm_epochs, stats.epochs
    );
}

fn bench_batching(c: &mut Criterion) {
    // Batching amortizes: admitting 8 arrivals as one epoch analyzes each
    // dirty island once, versus 8 single-request epochs.
    let set = random_scenario(&churn_spec());
    let arrivals: Vec<AdmissionRequest> = (0..8)
        .map(|i| {
            // A light clone (quarter load) of an existing transaction, so
            // the batch is always admissible on the seed-1 scenario.
            let src = &set.transactions()[i * 5];
            let tasks = src
                .tasks()
                .iter()
                .map(|t| {
                    hsched_transaction::Task::new(
                        format!("batched{i}.{}", t.name),
                        t.wcet * hsched_numeric::rat(1, 4),
                        t.bcet * hsched_numeric::rat(1, 4),
                        t.priority,
                        t.platform,
                    )
                })
                .collect();
            let tx = hsched_transaction::Transaction::new(
                format!("batched{i}"),
                src.period,
                src.deadline,
                tasks,
            )
            .expect("scaled copy stays valid");
            AdmissionRequest::AddTransaction(tx)
        })
        .collect();
    let removals: Vec<AdmissionRequest> = (0..8)
        .map(|i| AdmissionRequest::RemoveTransaction {
            name: format!("batched{i}"),
        })
        .collect();
    let mut controller =
        AdmissionController::new(set, AnalysisConfig::default(), AdmissionPolicy::default())
            .expect("seed analysis");

    let mut group = c.benchmark_group("admission/batching_8_arrivals");
    group.sample_size(20);
    group.bench_function("one_batch", |b| {
        b.iter(|| {
            assert!(controller.commit(black_box(&arrivals)).verdict.admitted());
            assert!(controller.commit(black_box(&removals)).verdict.admitted());
        })
    });
    group.bench_function("one_epoch_each", |b| {
        b.iter(|| {
            for request in &arrivals {
                assert!(controller
                    .admit(black_box(request.clone()))
                    .verdict
                    .admitted());
            }
            for request in &removals {
                assert!(controller
                    .admit(black_box(request.clone()))
                    .verdict
                    .admitted());
            }
        })
    });
    group.finish();
}

fn bench_generator(c: &mut Criterion) {
    c.bench_function("admission/gen/random_scenario_50tx", |b| {
        b.iter(|| black_box(random_scenario(black_box(&churn_spec()))))
    });
}

/// What a commit costs as the *system* grows while its cone does not: the
/// engine's shard situation — one island's transactions over the whole
/// system's platform table, in the wire benchmark's shape (light linear
/// islands of 8). The island, and so the fixpoint work, is the same at
/// every size; only the table length differs, so any slope is set-up that
/// scales with the system (`docs/PERFORMANCE.md` attributes it).
fn bench_platform_scaling(c: &mut Criterion) {
    let base = random_scenario(&ScenarioSpec {
        clusters: 48,
        platforms_per_cluster: 2,
        transactions: 8 * 48,
        max_tasks_per_tx: 2,
        load: hsched_numeric::rat(2, 5),
        mix: PlatformMix::Linear,
        seed: 1,
        ..ScenarioSpec::default()
    });
    let policy = AdmissionPolicy::default();
    let controller_over = |table: PlatformSet, island: &[Transaction]| {
        let set = TransactionSet::new(table, island.to_vec()).expect("island uses platforms 0-1");
        AdmissionController::new(set, AnalysisConfig::default(), policy.clone())
            .expect("seed analysis")
    };
    let mut island: Vec<Transaction> = base
        .transactions()
        .iter()
        .filter(|tx| tx.tasks().iter().all(|t| t.platform.0 < 2))
        .cloned()
        .collect();
    // Admission needs every live transaction schedulable: drop the misses.
    let misses = controller_over(base.platforms().clone(), &island).misses();
    island.retain(|tx| !misses.contains(&tx.name));
    let victim = island.last().expect("cluster 0 is populated").clone();
    // One epoch that returns to its start state: iterations are independent.
    let churn = [
        AdmissionRequest::RemoveTransaction {
            name: victim.name.clone(),
        },
        AdmissionRequest::AddTransaction(victim),
    ];

    let mut group = c.benchmark_group("admission/platform_scaling");
    group.sample_size(20);
    for platforms in [96usize, 768, 3072] {
        let mut table = base.platforms().clone();
        while table.len() < platforms {
            table.add(Platform::dedicated(format!("idle{}", table.len())));
        }
        let mut controller = controller_over(table, &island);
        group.bench_with_input(
            BenchmarkId::from_parameter(platforms),
            &churn,
            |b, churn| b.iter(|| assert!(controller.commit(black_box(churn)).verdict.admitted())),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_tx_churn,
    bench_batching,
    bench_generator,
    bench_platform_scaling
);
criterion_main!(benches);
