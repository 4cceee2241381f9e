//! The two admission invariants, property-tested across generated
//! scenarios and churn sequences:
//!
//! (a) **equivalence** — after any admitted batch, the controller's cached
//!     incremental results (dirty islands only, warm-started where
//!     additive) equal a from-scratch `analyze_with` of the live set;
//! (b) **transactionality** — after any rejected batch, the controller's
//!     state is exactly its pre-batch snapshot.
//!
//! Together with the per-epoch admission rule this gives the end-to-end
//! guarantee: the live system is always schedulable, and the incremental
//! fast path can never drift from the paper's offline analysis.

use hsched_admission::gen::{random_scenario, ChurnGen, ScenarioSpec};
use hsched_admission::{AdmissionController, AdmissionPolicy, RejectReason, UnionFind, Verdict};
use hsched_analysis::{analyze_with, AnalysisConfig, DirtySeed, HpGraph};
use hsched_numeric::rat;
use hsched_platform::{Platform, PlatformId, PlatformSet};
use hsched_transaction::TransactionSet;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// One full churn session: seed a scenario, run several batches, check both
/// invariants after every epoch.
fn churn_session(seed: u64, batches: usize, max_batch: usize, policy: AdmissionPolicy) {
    let spec = ScenarioSpec {
        clusters: 3,
        platforms_per_cluster: 2,
        transactions: 8,
        max_tasks_per_tx: 3,
        load: rat(3, 5),
        priority_levels: 3,
        seed,
        ..ScenarioSpec::default()
    };
    let set = random_scenario(&spec);
    let config = AnalysisConfig::default();
    let mut controller = AdmissionController::new(set, config.clone(), policy)
        .unwrap_or_else(|e| panic!("seed {seed}: controller construction failed: {e}"));
    let mut churn = ChurnGen::new(&spec, seed.wrapping_mul(0x9e3779b9).wrapping_add(1));

    for step in 0..batches {
        let snapshot_set = controller.current_set().clone();
        let snapshot_report = controller.report();
        let snapshot_system = controller.system().clone();
        let batch = churn.next_batch(controller.current_set(), max_batch);
        let outcome = controller.commit(&batch);

        match &outcome.verdict {
            Verdict::Admitted => {
                // (a) incremental == from-scratch on the final system.
                let fresh = analyze_with(controller.current_set(), &config)
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: oracle failed: {e}"));
                let cached = controller.report();
                assert_eq!(
                    cached.tasks, fresh.tasks,
                    "seed {seed} step {step}: task results diverged from scratch analysis"
                );
                assert_eq!(
                    cached.verdicts, fresh.verdicts,
                    "seed {seed} step {step}: verdicts diverged"
                );
                assert_eq!(cached.converged, fresh.converged, "seed {seed} step {step}");
                assert_eq!(cached.diverged, fresh.diverged, "seed {seed} step {step}");
                assert!(
                    controller.schedulable(),
                    "seed {seed} step {step}: admitted an unschedulable state"
                );
            }
            Verdict::Rejected(reason) => {
                // (b) rejected batches leave the state byte-identical: the
                // undo-log playback (inverse requests, O(batch + dirty))
                // must restore exactly what the old full-state snapshot
                // clone restored.
                assert_eq!(
                    controller.current_set(),
                    &snapshot_set,
                    "seed {seed} step {step}: rejection mutated the set ({reason})"
                );
                assert_eq!(
                    controller.report(),
                    snapshot_report,
                    "seed {seed} step {step}: rejection mutated cached results ({reason})"
                );
                assert_eq!(
                    controller.system(),
                    &snapshot_system,
                    "seed {seed} step {step}: rejection mutated the system mirror ({reason})"
                );
                // Structural rejections must not have burned analysis work.
                if matches!(reason, RejectReason::Structural(_)) {
                    assert_eq!(outcome.analyzed_transactions, 0);
                }
            }
        }
    }
}

/// The undo log is also exposed as `rollback_last`: an *admitted* epoch can
/// be reverted (the shard-router coordination primitive), restoring the
/// pre-commit snapshot byte-identically.
#[test]
fn rollback_last_reverts_an_admitted_epoch_byte_identically() {
    let spec = ScenarioSpec {
        clusters: 3,
        platforms_per_cluster: 2,
        transactions: 8,
        seed: 11,
        ..ScenarioSpec::default()
    };
    let set = random_scenario(&spec);
    let mut controller =
        AdmissionController::new(set, AnalysisConfig::default(), AdmissionPolicy::default())
            .unwrap();
    let mut churn = ChurnGen::new(&spec, 23);
    let mut rolled_back = 0;
    for _ in 0..12 {
        let before_set = controller.current_set().clone();
        let before_report = controller.report();
        let batch = churn.next_batch(controller.current_set(), 2);
        let outcome = controller.commit(&batch);
        match outcome.verdict {
            Verdict::Admitted => {
                assert!(
                    controller.rollback_last(),
                    "admitted epoch must be revertible"
                );
                rolled_back += 1;
                assert_eq!(controller.current_set(), &before_set);
                assert_eq!(controller.report(), before_report);
                assert!(!controller.rollback_last(), "undo log is single-shot");
            }
            Verdict::Rejected(_) => {
                assert!(
                    !controller.rollback_last(),
                    "rejected epochs consumed their undo log already"
                );
            }
        }
    }
    assert!(rolled_back > 0, "churn must admit at least once");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// The default policy (dirty tracking + warm start + precheck) across
    /// 60 scenarios × 4 churn batches each.
    #[test]
    fn incremental_matches_scratch_default_policy(seed in 0u64..10_000) {
        churn_session(seed, 4, 3, AdmissionPolicy::default());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Warm start disabled: isolates dirty tracking.
    #[test]
    fn incremental_matches_scratch_cold_only(seed in 10_000u64..20_000) {
        churn_session(seed, 3, 2, AdmissionPolicy {
            warm_start: false,
            ..AdmissionPolicy::default()
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Dirty tracking disabled (every epoch re-analyzes everything): the
    /// from-scratch baseline must agree with the oracle too, and rollback
    /// must still be exact.
    #[test]
    fn full_reanalysis_baseline_agrees(seed in 20_000u64..30_000) {
        churn_session(seed, 3, 2, AdmissionPolicy {
            dirty_tracking: false,
            warm_start: false,
            island_threads: 1,
            ..AdmissionPolicy::default()
        });
    }
}

/// `adopt_platforms` is exact: a controller over one island, handed a table
/// in which a platform of *another* island was retuned and then committed
/// to, equals a controller seeded from scratch on that table — the shard
/// router's situation after a sibling shard's retune settled.
fn adopt_session(seed: u64) {
    let spec = ScenarioSpec {
        clusters: 3,
        platforms_per_cluster: 2,
        transactions: 9,
        seed,
        ..ScenarioSpec::default()
    };
    let full = random_scenario(&spec);
    let island: Vec<_> = full
        .transactions()
        .iter()
        .filter(|tx| tx.tasks().iter().all(|t| t.platform.0 < 2))
        .cloned()
        .collect();
    let seeded = |table: PlatformSet| {
        let set = TransactionSet::new(table, island.clone()).unwrap();
        AdmissionController::new(set, AnalysisConfig::default(), AdmissionPolicy::default())
            .unwrap_or_else(|e| panic!("seed {seed}: controller construction failed: {e}"))
    };
    let foreign = PlatformId(full.platforms().len() - 1);
    let mut adopted = full.platforms().clone();
    adopted.replace(
        foreign,
        Platform::dedicated(full.platforms()[foreign].name()),
    );

    let mut shard = seeded(full.platforms().clone());
    shard.adopt_platforms(adopted.clone()).unwrap();
    let mut fresh = seeded(adopted);
    let mut churn = ChurnGen::new(&spec, seed.wrapping_mul(0x9e3779b9).wrapping_add(7));
    for step in 0..3 {
        let batch = churn.next_batch(shard.current_set(), 2);
        assert_eq!(
            shard.commit(&batch).verdict,
            fresh.commit(&batch).verdict,
            "seed {seed} step {step}"
        );
        assert_eq!(
            shard.current_set(),
            fresh.current_set(),
            "seed {seed} step {step}"
        );
        assert_eq!(shard.report(), fresh.report(), "seed {seed} step {step}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn adopt_then_commit_matches_fresh_seed(seed in 50_000u64..60_000) {
        adopt_session(seed);
    }
}

/// Deterministic single-scenario smoke for quick failure triage (mirrors
/// one proptest case; keeps a stable name for `cargo test <name>`).
#[test]
fn churn_session_seed_zero() {
    churn_session(0, 6, 3, AdmissionPolicy::default());
}

/// Asserts the controller's cached state equals a from-scratch oracle (the
/// equivalence half of [`churn_session`], reused by the removal-focused
/// sessions below).
fn assert_matches_oracle(controller: &AdmissionController, context: &str) {
    let config = AnalysisConfig::default();
    let fresh = analyze_with(controller.current_set(), &config)
        .unwrap_or_else(|e| panic!("{context}: oracle failed: {e}"));
    let cached = controller.report();
    assert_eq!(
        cached.tasks, fresh.tasks,
        "{context}: task results diverged"
    );
    assert_eq!(
        cached.verdicts, fresh.verdicts,
        "{context}: verdicts diverged"
    );
}

/// Removal-only and mixed batches resume from the old fixpoint through the
/// downward-restart bound; every admitted epoch must still match the
/// from-scratch oracle exactly — responses, jitters, and verdicts.
fn removal_session(seed: u64, policy: AdmissionPolicy) {
    let spec = ScenarioSpec {
        clusters: 3,
        platforms_per_cluster: 2,
        transactions: 10,
        max_tasks_per_tx: 3,
        load: rat(1, 2),
        priority_levels: 3,
        seed,
        ..ScenarioSpec::default()
    };
    let set = random_scenario(&spec);
    let all: Vec<_> = set.transactions().to_vec();
    let mut controller = AdmissionController::new(set, AnalysisConfig::default(), policy)
        .unwrap_or_else(|e| panic!("seed {seed}: controller construction failed: {e}"));
    if !controller.schedulable() {
        // An unschedulable seed rejects every batch (the live set keeps
        // missing deadlines no matter what departs) — nothing to test.
        return;
    }

    // Phase 1 — removal-only batches, two departures per epoch.
    let mut removed = Vec::new();
    for pair in all.chunks(2).take(3) {
        let batch: Vec<_> = pair
            .iter()
            .map(|tx| hsched_admission::AdmissionRequest::RemoveTransaction {
                name: tx.name.clone(),
            })
            .collect();
        let outcome = controller.commit(&batch);
        assert!(
            outcome.verdict.admitted(),
            "seed {seed}: removal-only batch rejected: {}",
            outcome.verdict
        );
        removed.extend(pair.iter().cloned());
        assert_matches_oracle(&controller, &format!("seed {seed} removal-only"));
    }

    // Phase 2 — mixed batches: one re-arrival and one departure per epoch.
    while removed.len() >= 2 {
        let back = removed.remove(0);
        let victim = controller
            .current_set()
            .transactions()
            .last()
            .expect("live set non-empty")
            .name
            .clone();
        let batch = vec![
            hsched_admission::AdmissionRequest::AddTransaction(back.clone()),
            hsched_admission::AdmissionRequest::RemoveTransaction { name: victim },
        ];
        let outcome = controller.commit(&batch);
        if outcome.verdict.admitted() {
            assert_matches_oracle(&controller, &format!("seed {seed} mixed"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Downward warm starts across removal-only and mixed churn.
    #[test]
    fn removal_and_mixed_batches_match_scratch(seed in 30_000u64..40_000) {
        removal_session(seed, AdmissionPolicy::default());
    }
}

/// The island dirty set of a change: every transaction in an island
/// containing one of the touched platforms — the PR-2 granularity the
/// hp-graph cone refines.
fn island_dirty(
    set: &hsched_transaction::TransactionSet,
    touched: &HashSet<usize>,
) -> HashSet<String> {
    let mut uf = UnionFind::new(set.platforms().len());
    for tx in set.transactions() {
        let first = tx.tasks()[0].platform.0;
        for task in tx.tasks() {
            uf.union(first, task.platform.0);
        }
    }
    let roots: HashSet<usize> = touched.iter().map(|&p| uf.find(p)).collect();
    set.transactions()
        .iter()
        .filter(|tx| roots.contains(&uf.find(tx.tasks()[0].platform.0)))
        .map(|tx| tx.name.clone())
        .collect()
}

/// The cone-soundness contract of the hp-graph tracker, checked against
/// from-scratch analyses on both sides of a single change:
///
/// * **subset** — the cone never exceeds the old island dirty set;
/// * **completeness** — every transaction whose task results changed is in
///   the cone (the tracker can be finer than islands, never lossy).
fn check_cone(seed: u64) {
    let spec = ScenarioSpec {
        clusters: 3,
        platforms_per_cluster: 2,
        transactions: 9,
        max_tasks_per_tx: 3,
        load: rat(1, 2),
        priority_levels: 3,
        seed,
        ..ScenarioSpec::default()
    };
    let full = random_scenario(&spec);
    let config = AnalysisConfig::default();
    let k = (seed as usize) % full.transactions().len();
    let victim = full.transactions()[k].clone();
    let mut rest: Vec<_> = full.transactions().to_vec();
    rest.remove(k);
    let reduced = hsched_transaction::TransactionSet::new(full.platforms().clone(), rest).unwrap();

    let full_report = analyze_with(&full, &config).expect("full analysis");
    let reduced_report = analyze_with(&reduced, &config).expect("reduced analysis");
    if full_report.diverged
        || reduced_report.diverged
        || !full_report.converged
        || !reduced_report.converged
    {
        return; // bail-out values are not comparable coordinate-wise
    }
    let touched: HashSet<usize> = victim.tasks().iter().map(|t| t.platform.0).collect();

    // Direction 1 — removal: cone on the reduced set from the victim's
    // interference footprints.
    let seeds: Vec<DirtySeed> = victim
        .tasks()
        .iter()
        .map(|t| DirtySeed::Footprint {
            platform: t.platform,
            priority: t.priority,
        })
        .collect();
    let cone = HpGraph::of(&reduced).closure(&reduced, &seeds);
    let island = island_dirty(&reduced, &touched);
    verify_cone(
        seed,
        "removal",
        &full,
        &full_report,
        &reduced,
        &reduced_report,
        &cone,
        &island,
    );

    // Direction 2 — arrival: cone on the full set from the victim's own
    // tasks (plus, by closure, everything they interfere with).
    let seeds: Vec<DirtySeed> = (0..victim.tasks().len())
        .map(|idx| DirtySeed::Task(hsched_transaction::TaskRef { tx: k, idx }))
        .collect();
    let cone = HpGraph::of(&full).closure(&full, &seeds);
    let island = island_dirty(&full, &touched);
    assert!(
        cone.transactions[k],
        "seed {seed}: the arrival itself must be in its own cone"
    );
    verify_cone(
        seed,
        "arrival",
        &reduced,
        &reduced_report,
        &full,
        &full_report,
        &cone,
        &island,
    );
}

/// Shared checker: `after`'s cone must be ⊆ `island` and must contain every
/// transaction (common to both sets, matched by name) whose task results
/// differ between the two from-scratch reports.
#[allow(clippy::too_many_arguments)]
fn verify_cone(
    seed: u64,
    label: &str,
    before: &hsched_transaction::TransactionSet,
    before_report: &hsched_analysis::SchedulabilityReport,
    after: &hsched_transaction::TransactionSet,
    after_report: &hsched_analysis::SchedulabilityReport,
    cone: &hsched_analysis::DirtyClosure,
    island: &HashSet<String>,
) {
    let before_rows: HashMap<&str, usize> = before
        .transactions()
        .iter()
        .enumerate()
        .map(|(i, tx)| (tx.name.as_str(), i))
        .collect();
    for (i, tx) in after.transactions().iter().enumerate() {
        if cone.transactions[i] {
            assert!(
                island.contains(&tx.name),
                "seed {seed} {label}: cone member `{}` outside the island dirty set",
                tx.name
            );
        }
        if let Some(&j) = before_rows.get(tx.name.as_str()) {
            if before_report.tasks[j] != after_report.tasks[i] {
                assert!(
                    cone.transactions[i],
                    "seed {seed} {label}: `{}` changed but is outside the cone",
                    tx.name
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Cone soundness across generated scenarios, both change directions.
    #[test]
    fn hp_graph_cone_is_subset_and_complete(seed in 40_000u64..50_000) {
        check_cone(seed);
    }
}

/// The generated scenarios decompose into several islands; verify the
/// controller actually avoids work (the incremental claim, not just the
/// correctness claim).
#[test]
fn dirty_tracking_avoids_work_on_clustered_scenarios() {
    let spec = ScenarioSpec {
        clusters: 8,
        platforms_per_cluster: 2,
        transactions: 24,
        max_tasks_per_tx: 3,
        seed: 42,
        ..ScenarioSpec::default()
    };
    let set = random_scenario(&spec);
    let mut controller =
        AdmissionController::new(set, AnalysisConfig::default(), AdmissionPolicy::default())
            .unwrap();
    let mut churn = ChurnGen::new(&spec, 7);
    for _ in 0..12 {
        let batch = churn.next_batch(controller.current_set(), 1);
        controller.commit(&batch);
    }
    let stats = controller.stats();
    assert!(
        stats.analyses_avoided > stats.transactions_analyzed,
        "clustered churn should reuse more results than it recomputes \
         (analyzed {}, avoided {})",
        stats.transactions_analyzed,
        stats.analyses_avoided
    );
}
