//! Criterion bench: the holistic analysis — the paper example (Table 3),
//! scaling in system size, exact vs approximate scenario handling, Jacobi
//! against Gauss-Seidel, and one mixed-kind island's cold and warm
//! fixpoints under both service-time modes and both update orders.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hsched_admission::gen::{random_scenario, PlatformMix, ScenarioSpec};
use hsched_analysis::{
    analyze_resumed, analyze_with, AnalysisConfig, ServiceTimeMode, UpdateOrder, WarmStart,
};
use hsched_bench::{random_system, WorkloadSpec};
use hsched_numeric::{rat, Time};
use hsched_transaction::{paper_example, TransactionSet};

fn bench_paper_example(c: &mut Criterion) {
    let set = paper_example::transactions();
    c.bench_function("analysis/paper_example_table3", |b| {
        b.iter(|| black_box(analyze_with(black_box(&set), &AnalysisConfig::default())))
    });
    c.bench_function("analysis/paper_example_exact", |b| {
        b.iter(|| {
            black_box(analyze_with(
                black_box(&set),
                &AnalysisConfig::exact(100_000),
            ))
        })
    });
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis/scaling_transactions");
    group.sample_size(10);
    for n in [4usize, 8, 16, 32] {
        let set = random_system(&WorkloadSpec {
            platforms: 4,
            transactions: n,
            max_tasks_per_tx: 4,
            seed: 42,
            ..WorkloadSpec::default()
        });
        group.bench_with_input(BenchmarkId::from_parameter(n), &set, |b, set| {
            b.iter(|| black_box(analyze_with(set, &AnalysisConfig::default())))
        });
    }
    group.finish();
}

/// The two update orders on one 24-transaction system: Jacobi, the paper's
/// sweep-by-sweep reference order, against Gauss-Seidel in dependency
/// order, what admission runs.
fn bench_update_order(c: &mut Criterion) {
    let set = random_system(&WorkloadSpec {
        platforms: 4,
        transactions: 24,
        max_tasks_per_tx: 4,
        seed: 7,
        ..WorkloadSpec::default()
    });
    let mut group = c.benchmark_group("analysis/update_order");
    group.sample_size(10);
    for (name, update_order) in [
        ("jacobi", UpdateOrder::Jacobi),
        ("gauss_seidel", UpdateOrder::GaussSeidel),
    ] {
        let config = AnalysisConfig {
            update_order,
            ..AnalysisConfig::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| black_box(analyze_with(&set, config)))
        });
    }
    group.finish();
}

/// One island in `deep_cone`'s shape (≈ 10 transactions over 3 platforms
/// of mixed kinds, 5 priority levels): a cold fixpoint, and a warm one
/// resumed after the island gained its last transaction — under the
/// paper's linear bounds and under exact supply inversion, iterated Jacobi
/// (the default) and Gauss-Seidel (`…/gauss_seidel/…`, what admission
/// runs).
fn bench_island_fixpoint(c: &mut Criterion) {
    let island = random_scenario(&ScenarioSpec {
        clusters: 1,
        platforms_per_cluster: 3,
        transactions: 10,
        max_tasks_per_tx: 4,
        load: rat(1, 2),
        priority_levels: 5,
        mix: PlatformMix::Mixed,
        seed: 2,
    });
    let txs = island.transactions();
    let (last, rest) = txs.split_last().expect("the island is populated");
    let before = TransactionSet::new(island.platforms().clone(), rest.to_vec())
        .expect("a prefix of a valid set");
    let mut group = c.benchmark_group("analysis/island_fixpoint");
    group.sample_size(20);
    for (name, service_mode, update_order) in [
        ("linear", ServiceTimeMode::LinearBounds, UpdateOrder::Jacobi),
        (
            "exact_curve",
            ServiceTimeMode::ExactCurve,
            UpdateOrder::Jacobi,
        ),
        (
            "linear/gauss_seidel",
            ServiceTimeMode::LinearBounds,
            UpdateOrder::GaussSeidel,
        ),
        (
            "exact_curve/gauss_seidel",
            ServiceTimeMode::ExactCurve,
            UpdateOrder::GaussSeidel,
        ),
    ] {
        let config = AnalysisConfig {
            service_mode,
            update_order,
            ..AnalysisConfig::default()
        };
        let mut warm = WarmStart::from_report(&analyze_with(&before, &config).expect("analyzes"));
        warm.jitters.push(vec![Time::ZERO; last.len()]);
        group.bench_function(format!("{name}/cold"), |b| {
            b.iter(|| black_box(analyze_resumed(&island, &config, None)))
        });
        group.bench_function(format!("{name}/warm"), |b| {
            b.iter(|| black_box(analyze_resumed(&island, &config, Some(&warm))))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_paper_example,
    bench_scaling,
    bench_update_order,
    bench_island_fixpoint
);
criterion_main!(benches);
