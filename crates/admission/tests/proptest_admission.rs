//! The admission invariants, property-tested across generated
//! scenarios and churn sequences:
//!
//! (a) **equivalence** — after any admitted batch, every island the batch
//!     touched is schedulable and the controller's cached incremental
//!     results for it (cones only, warm-started where additive) equal a
//!     from-scratch `analyze_with` of that island alone, while every other
//!     row is byte-identical to the pre-batch report;
//! (b) **transactionality** — after any rejected batch, the controller's
//!     state is exactly its pre-batch snapshot;
//! (c) **update order** — every verdict and reason is the one Jacobi
//!     analyses of the touched islands give, although the controller
//!     iterates Gauss-Seidel (the Jacobi oracle at the end of this file).
//!
//! Together they give the end-to-end guarantee: a system seeded
//! schedulable stays schedulable, and the incremental fast path can never
//! drift from the paper's offline analysis.

use hsched_admission::gen::{random_scenario, ChurnGen, PlatformMix, ScenarioSpec};
use hsched_admission::{
    AdmissionController, AdmissionPolicy, AdmissionRequest, RejectReason, UnionFind, Verdict,
};
use hsched_analysis::{
    analyze_with, AnalysisConfig, AnalysisError, DirtySeed, HpGraph, ScenarioMode,
    SchedulabilityReport,
};
use hsched_numeric::{rat, Rational};
use hsched_platform::{Platform, PlatformId, PlatformSet};
use hsched_transaction::{Task, Transaction, TransactionSet};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};

/// The platforms a batch of [`ChurnGen`] requests names: its arrivals'
/// tasks, its departures' tasks in the pre-batch set `before`, and its
/// retunes.
fn batch_platforms(before: &TransactionSet, batch: &[AdmissionRequest]) -> HashSet<usize> {
    let mut platforms = HashSet::new();
    for request in batch {
        let tx = match request {
            AdmissionRequest::AddTransaction(tx) => Some(tx),
            AdmissionRequest::RemoveTransaction { name } => before
                .transaction_index(name)
                .map(|i| &before.transactions()[i]),
            AdmissionRequest::Retune { platform, .. } => {
                platforms.insert(platform.0);
                None
            }
            _ => unreachable!("ChurnGen churns transactions and platforms only"),
        };
        platforms.extend(
            tx.into_iter()
                .flat_map(|tx| tx.tasks())
                .map(|t| t.platform.0),
        );
    }
    platforms
}

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
        let was_schedulable = controller.schedulable();
        let batch = churn.next_batch(controller.current_set(), max_batch);
        let outcome = controller.commit(&batch);

        match &outcome.verdict {
            Verdict::Admitted => {
                let set = controller.current_set();
                let cached = controller.report();
                let row = |report: &SchedulabilityReport, i: usize| {
                    (report.tasks[i].clone(), report.verdicts[i].clone())
                };
                // (a) every touched island is schedulable, and its rows are
                // its own from-scratch analysis.
                let touched = islands_holding(set, &batch_platforms(&snapshot_set, &batch));
                for island in &touched {
                    let txs = island.iter().map(|&i| set.transactions()[i].clone());
                    let alone =
                        TransactionSet::new(set.platforms().clone(), txs.collect()).unwrap();
                    let fresh = analyze_with(&alone, &config)
                        .unwrap_or_else(|e| panic!("seed {seed} step {step}: oracle failed: {e}"));
                    assert!(
                        fresh.schedulable(),
                        "seed {seed} step {step}: admitted an unschedulable island"
                    );
                    for (k, &i) in island.iter().enumerate() {
                        assert_eq!(
                            row(&cached, i),
                            row(&fresh, k),
                            "seed {seed} step {step}: `{}` diverged from scratch analysis",
                            set.transactions()[i].name
                        );
                    }
                }
                // ... and every other row is the pre-batch one.
                let judged: HashSet<usize> = touched.concat().into_iter().collect();
                for (i, tx) in set.transactions().iter().enumerate() {
                    if judged.contains(&i) {
                        continue;
                    }
                    let j = snapshot_set
                        .transaction_index(&tx.name)
                        .expect("an untouched transaction was live before the batch");
                    assert_eq!(
                        row(&cached, i),
                        row(&snapshot_report, j),
                        "seed {seed} step {step}: untouched `{}` changed",
                        tx.name
                    );
                }
                assert!(
                    !was_schedulable || controller.schedulable(),
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

/// Case count of the churn suites, env-tunable so CI can run them extended
/// (`HSCHED_PROPTEST_CASES=500`) without editing them. Defaults to each
/// suite's tier-1 budget.
fn stress_cases(tier1: u32) -> u32 {
    std::env::var("HSCHED_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(tier1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(stress_cases(60)))]

    /// The default policy (dirty tracking + warm start + precheck) across
    /// 60 scenarios × 4 churn batches each.
    #[test]
    fn incremental_matches_scratch_default_policy(seed in 0u64..10_000) {
        churn_session(seed, 4, 3, AdmissionPolicy::default());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(stress_cases(30)))]

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
    #![proptest_config(ProptestConfig::with_cases(stress_cases(30)))]

    /// Dirty tracking disabled (every epoch re-analyzes everything): the
    /// from-scratch baseline must agree with the oracle too, and rollback
    /// must still be exact.
    #[test]
    fn full_reanalysis_baseline_agrees(seed in 20_000u64..30_000) {
        churn_session(seed, 3, 2, AdmissionPolicy {
            dirty_tracking: false,
            warm_start: false,
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
    let mut controller = AdmissionController::new(set, AnalysisConfig::default(), policy)
        .unwrap_or_else(|e| panic!("seed {seed}: controller construction failed: {e}"));
    // Drop the seed's deadline misses first: a removal from an island that
    // keeps missing is rejected, and the whole-set oracle bails out at a
    // divergence. Less interference never creates a miss, so this admits.
    let heal: Vec<_> = controller
        .misses()
        .into_iter()
        .map(|name| AdmissionRequest::RemoveTransaction { name })
        .collect();
    let outcome = controller.commit(&heal);
    assert!(
        outcome.verdict.admitted(),
        "seed {seed}: {}",
        outcome.verdict
    );
    let all: Vec<_> = controller.current_set().transactions().to_vec();

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

    // Phase 2 — mixed batches: one re-arrival and one departure per epoch
    // (no departure once a small healed seed has emptied out).
    while removed.len() >= 2 {
        let mut batch = vec![AdmissionRequest::AddTransaction(removed.remove(0))];
        if let Some(victim) = controller.current_set().transactions().last() {
            let name = victim.name.clone();
            batch.push(AdmissionRequest::RemoveTransaction { name });
        }
        let outcome = controller.commit(&batch);
        if outcome.verdict.admitted() {
            assert_matches_oracle(&controller, &format!("seed {seed} mixed"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(stress_cases(40)))]

    /// Downward warm starts across removal-only and mixed churn.
    #[test]
    fn removal_and_mixed_batches_match_scratch(seed in 30_000u64..40_000) {
        removal_session(seed, AdmissionPolicy::default());
    }
}

/// The islands of `set` holding one of the `touched` platforms, each as its
/// transactions' indices in set order: the islands a commit touching those
/// platforms is judged on.
fn islands_holding(set: &TransactionSet, touched: &HashSet<usize>) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(set.platforms().len());
    for tx in set.transactions() {
        let first = tx.tasks()[0].platform.0;
        for task in tx.tasks() {
            uf.union(first, task.platform.0);
        }
    }
    let roots: HashSet<usize> = touched.iter().map(|&p| uf.find(p)).collect();
    let mut islands: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, tx) in set.transactions().iter().enumerate() {
        let root = uf.find(tx.tasks()[0].platform.0);
        if roots.contains(&root) {
            islands.entry(root).or_default().push(i);
        }
    }
    islands.into_values().collect()
}

/// The island dirty set of a change: every transaction in an island
/// containing one of the touched platforms — the PR-2 granularity the
/// hp-graph cone refines.
fn island_dirty(set: &TransactionSet, touched: &HashSet<usize>) -> HashSet<String> {
    let islands = islands_holding(set, touched);
    let members = islands.into_iter().flatten();
    members
        .map(|i| set.transactions()[i].name.clone())
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
    let cone = HpGraph::of(&reduced).closure(&seeds);
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
    let cone = HpGraph::of(&full).closure(&seeds);
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

// The Jacobi oracle. The controller iterates every island Gauss-Seidel
// whatever its `AnalysisConfig` says, so no controller, not even one with
// `dirty_tracking: false`, can serve as a Jacobi reference. The oracle
// decides each epoch without a controller's analysis: it applies the batch
// structurally (`apply_unanalyzed` on a clone), runs the utilization
// precheck on the islands the batch touches, and analyses each of those
// islands alone with `analyze_with(_, &AnalysisConfig::default())`, which is
// Jacobi, exactly as `hsched analyze` runs it. After every epoch the
// controller's verdict and reason must equal the oracle's, and every island
// whose Jacobi analysis converges must hold exactly that analysis's rows.
// The system is dense and mixed-kind, in the shape of the `deep_cone`
// benchmark workload, driven through that workload's seven-step script and
// then through seeded random churn.

/// One `deep_cone` island: 3 platforms, 10 transactions of up to 4 tasks,
/// 5 priority levels, every reservation mechanism.
fn spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        clusters: 1,
        platforms_per_cluster: 3,
        transactions: 10,
        max_tasks_per_tx: 4,
        load: rat(1, 2),
        priority_levels: 5,
        mix: PlatformMix::Mixed,
        seed,
    }
}

/// The island's transactions as a set of their own.
fn alone(set: &TransactionSet, island: &[usize]) -> TransactionSet {
    let txs = island.iter().map(|&i| set.transactions()[i].clone());
    TransactionSet::new(set.platforms().clone(), txs.collect()).expect("island members are valid")
}

/// The verdict a controller at `before` must give `batch`, decided with
/// Jacobi analyses of the touched islands alone.
fn jacobi_verdict(before: &AdmissionController, batch: &[AdmissionRequest]) -> Verdict {
    let mut applied = before.clone();
    if let Err(message) = applied.apply_unanalyzed(batch) {
        return Verdict::Rejected(RejectReason::Structural(message));
    }
    let set = applied.current_set();
    let touched = islands_holding(set, &batch_platforms(before.current_set(), batch));
    let mut utilization: BTreeMap<usize, Rational> = BTreeMap::new();
    for &i in touched.iter().flatten() {
        let tx = &set.transactions()[i];
        for task in tx.tasks() {
            *utilization.entry(task.platform.0).or_insert(Rational::ZERO) += task.wcet / tx.period;
        }
    }
    let platforms: Vec<String> = utilization
        .into_iter()
        .filter(|&(k, u)| u > set.platforms()[PlatformId(k)].alpha())
        .map(|(k, _)| set.platforms()[PlatformId(k)].name().to_string())
        .collect();
    if !platforms.is_empty() {
        return Verdict::Rejected(RejectReason::Overload { platforms });
    }
    let mut misses = Vec::new();
    for island in &touched {
        let report = match analyze_with(&alone(set, island), &AnalysisConfig::default()) {
            Ok(report) => report,
            Err(error) => return Verdict::Rejected(RejectReason::Analysis(error.to_string())),
        };
        for (k, &i) in island.iter().enumerate() {
            if !report.verdicts[k].schedulable {
                misses.push((i, report.verdicts[k].name.clone()));
            }
        }
    }
    if misses.is_empty() {
        return Verdict::Admitted;
    }
    misses.sort();
    let misses = misses.into_iter().map(|(_, name)| name).collect();
    Verdict::Rejected(RejectReason::Unschedulable { misses })
}

/// Commits `batch` and checks the verdict, then every converged island's
/// cached rows, against the Jacobi oracle. Returns the verdict.
fn commit_checked(
    controller: &mut AdmissionController,
    batch: &[AdmissionRequest],
    at: &str,
) -> Verdict {
    let expected = jacobi_verdict(controller, batch);
    let verdict = controller.commit(batch).verdict;
    assert_eq!(verdict, expected, "{at}: verdict differs from Jacobi's");
    let set = controller.current_set();
    let cached = controller.report();
    let every_platform = (0..set.platforms().len()).collect();
    for island in islands_holding(set, &every_platform) {
        let jacobi = analyze_with(&alone(set, &island), &AnalysisConfig::default())
            .unwrap_or_else(|e| panic!("{at}: Jacobi oracle failed: {e}"));
        if !jacobi.converged || jacobi.diverged {
            continue;
        }
        for (k, &i) in island.iter().enumerate() {
            let name = &set.transactions()[i].name;
            assert_eq!(cached.tasks[i], jacobi.tasks[k], "{at}: rows of `{name}`");
            assert_eq!(
                cached.verdicts[i], jacobi.verdicts[k],
                "{at}: verdict of `{name}`"
            );
        }
    }
    verdict
}

/// The `deep_cone` island, pruned to schedulable (every deadline miss of the
/// generated seed removed in one checked epoch).
fn pruned_controller(seed: u64) -> AdmissionController {
    let set = random_scenario(&spec(seed));
    let mut controller =
        AdmissionController::new(set, AnalysisConfig::default(), AdmissionPolicy::default())
            .expect("generated scenarios analyze");
    let prune: Vec<AdmissionRequest> = controller
        .misses()
        .into_iter()
        .map(|name| AdmissionRequest::RemoveTransaction { name })
        .collect();
    let verdict = commit_checked(&mut controller, &prune, "prune");
    assert!(verdict.admitted(), "removing every miss admits: {verdict}");
    assert!(controller.schedulable());
    controller
}

/// The `deep_cone` script on one island: retune the busiest platform down,
/// admit a top-priority arrival, swap a transaction for a heavier twin, offer
/// a hog that cannot meet its own deadline, then undo the three changes.
fn deep_cone_script(set: &TransactionSet) -> Vec<Vec<AdmissionRequest>> {
    let utilization = set.platform_utilization();
    let relative = |id: PlatformId| utilization[id.0] / set.platforms()[id].alpha();
    let mut ids = (0..set.platforms().len()).map(PlatformId);
    let busiest = ids.clone().max_by_key(|&id| relative(id));
    let busiest = busiest.expect("platforms");
    let other = ids.find(|&id| id != busiest).expect("≥ 2 platforms");
    let platform = &set.platforms()[busiest];
    let (alpha, delta, beta) = (platform.alpha(), platform.delta(), platform.beta());
    let retune = |alpha: Rational| {
        vec![AdmissionRequest::Retune {
            platform: busiest,
            alpha,
            delta,
            beta,
        }]
    };
    let period = rat(40, 1);
    let slice = |id: PlatformId| set.platforms()[id].alpha() * period * rat(1, 100);
    let top = |name: &str, id: PlatformId| Task::new(name, slice(id), slice(id), 5, id);
    let arrival = Transaction::new(
        "hp",
        period,
        period * rat(2, 1),
        vec![top("hp_0", busiest), top("hp_1", other)],
    )
    .expect("valid arrival");
    let hog = Transaction::new("hog", period, rat(1, 100), vec![top("hog_0", busiest)])
        .expect("valid hog");
    let original = set
        .transactions()
        .iter()
        .find(|tx| tx.tasks().iter().any(|t| t.platform == busiest))
        .expect("the busiest platform runs something");
    let heavier_tasks = original.tasks().iter().map(|t| {
        Task::new(
            t.name.clone(),
            t.wcet * rat(21, 20),
            t.bcet,
            t.priority,
            t.platform,
        )
    });
    let heavier = Transaction::new(
        original.name.clone(),
        original.period,
        original.deadline,
        heavier_tasks.collect(),
    )
    .expect("valid twin");
    let swap = |to: &Transaction| {
        vec![
            AdmissionRequest::RemoveTransaction {
                name: to.name.clone(),
            },
            AdmissionRequest::AddTransaction(to.clone()),
        ]
    };
    vec![
        retune(alpha * rat(19, 20)),
        vec![AdmissionRequest::AddTransaction(arrival.clone())],
        swap(&heavier),
        vec![AdmissionRequest::AddTransaction(hog)],
        retune(alpha),
        vec![AdmissionRequest::RemoveTransaction { name: arrival.name }],
        swap(original),
    ]
}

#[test]
fn deep_cone_script_matches_jacobi() {
    let mut controller = pruned_controller(2);
    let script = deep_cone_script(controller.current_set());
    let mut rejected = 0;
    for cycle in 0..2 {
        for (step, batch) in script.iter().enumerate() {
            let at = format!("cycle {cycle} step {step}");
            rejected += usize::from(!commit_checked(&mut controller, batch, &at).admitted());
        }
    }
    // The hog step rejects and every other step admits, as on `deep_cone`.
    assert_eq!(rejected, 2, "one rejection per cycle");
}

#[test]
fn random_churn_matches_jacobi() {
    for seed in 0..4u64 {
        let mut controller = pruned_controller(2);
        let mut churn = ChurnGen::new(&spec(2), seed);
        for step in 0..8 {
            let batch = churn.next_batch(controller.current_set(), 3);
            commit_checked(
                &mut controller,
                &batch,
                &format!("churn seed {seed} step {step}"),
            );
        }
    }
}

/// One generated platform of the numeric-contract suite: rate index,
/// `Δ·3` and `β·5`.
type RawRate = (usize, i128, i128);
/// One generated transaction: period index, release jitter `·3`, and its
/// tasks' WCET numerators, WCET denominator indices, priorities and
/// platform indices.
type RawTx = (usize, i128, Vec<(i128, usize, u32, usize)>);

/// The one-island system `rates` and `txs` describe, every time and cycle
/// multiplied by `s`: rates have odd numerators and every other input an
/// odd denominator, so the grid's scale `k` is the same for every
/// `s = q·2ᵐ` with a prime `q` above 27, while its bound `V` grows with
/// `s`.
fn contract_system(rates: &[RawRate], txs: &[RawTx], s: i128) -> TransactionSet {
    let mut platforms = PlatformSet::new();
    let ids: Vec<_> = rates
        .iter()
        .enumerate()
        .map(|(p, &(alpha, delta, beta))| {
            let alpha = [rat(3, 10), rat(27, 100), rat(7, 9), rat(1, 2)][alpha];
            let model =
                Platform::linear(format!("P{p}"), alpha, rat(delta * s, 3), rat(beta * s, 5));
            platforms.add(model.unwrap())
        })
        .collect();
    let transactions = txs
        .iter()
        .enumerate()
        .map(|(i, (period, jitter, tasks))| {
            let (n, d) = [(25, 1), (95, 3), (40, 1), (121, 3)][*period];
            let tasks = tasks
                .iter()
                .enumerate()
                .map(|(j, &(wcet, den, priority, p))| {
                    let den = [7, 9][den];
                    let platform = if j == 0 { ids[0] } else { ids[p % ids.len()] };
                    let (wcet, bcet) = (rat(wcet * s, den), rat(2 * wcet * s, 3 * den));
                    Task::new(format!("t{i}_{j}"), wcet, bcet, priority, platform)
                })
                .collect();
            Transaction::new(
                format!("tx{i}"),
                rat(n * s, d),
                rat(5 * n * s, 3 * d),
                tasks,
            )
            .unwrap()
            .with_release_jitter(rat(jitter * s, 3))
        })
        .collect();
    TransactionSet::new(platforms, transactions).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(stress_cases(24)))]

    /// The grid's overflow contract through `commit`, with the utilization
    /// precheck off so that the analysis meets every batch. Generated
    /// one-island systems, overloaded ones among them, are scaled so that
    /// their grid's `k·V` lies within ×2 of 2¹²³, on either side, and
    /// arrive as one batch at a controller seeded without transactions.
    /// Inside the bound the analysis returns a report and the batch a
    /// verdict of the analysis (admitted or unschedulable); outside it the
    /// analysis returns `AnalysisError::Numeric` and the batch is rejected
    /// `Numeric`, in both scenario modes, with and without dirty tracking.
    #[test]
    fn the_overflow_contract_holds_through_commit(
        rates in proptest::collection::vec((0usize..4, 0i128..4, 0i128..3), 1..=2),
        raw in proptest::collection::vec(
            (0usize..4, 0i128..3, proptest::collection::vec(
                (1i128..=60, 0usize..2, 1u32..=3, 0usize..2),
                1..=3,
            )),
            2..=3,
        ),
        prime in 0usize..5,
        outside in 0i32..2,
    ) {
        let q = [101i128, 103, 107, 109, 113][prime];
        // At s = q·2¹⁰⁵ every generated system is refused, and the refusal
        // names its k and V, which scale with s.
        let product = match analyze_with(&contract_system(&rates, &raw, q << 105), &AnalysisConfig::default()) {
            Err(AnalysisError::Numeric { scale: Some(k), bound }) => k as f64 * bound / (1u128 << 105) as f64,
            other => panic!("expected a refusal at 2^105, got {other:?}"),
        };
        let m = 122 - product.log2().floor() as i32 + outside;
        prop_assert!((0..110).contains(&m), "m = {}", m);
        let set = contract_system(&rates, &raw, q << m);
        for scenario_mode in [ScenarioMode::Approximate, ScenarioMode::Exact { max_scenarios: 4096 }] {
            let config = AnalysisConfig { scenario_mode, ..AnalysisConfig::default() };
            let analysis = analyze_with(&set, &config);
            prop_assert_eq!(
                outside == 1,
                matches!(analysis, Err(AnalysisError::Numeric { .. })),
                "{:?}: {:?}",
                scenario_mode,
                analysis.as_ref().map(|r| r.converged)
            );
            prop_assert!(outside == 1 || analysis.is_ok());
            for dirty_tracking in [true, false] {
                let policy = AdmissionPolicy {
                    dirty_tracking,
                    utilization_precheck: false,
                    ..AdmissionPolicy::default()
                };
                let empty = TransactionSet::new(set.platforms().clone(), Vec::new()).unwrap();
                let mut controller = AdmissionController::new(empty, config.clone(), policy).unwrap();
                let batch: Vec<AdmissionRequest> = set
                    .transactions()
                    .iter()
                    .cloned()
                    .map(AdmissionRequest::AddTransaction)
                    .collect();
                let verdict = controller.commit(&batch).verdict;
                match verdict {
                    Verdict::Rejected(RejectReason::Numeric(_)) => prop_assert!(outside == 1),
                    Verdict::Admitted | Verdict::Rejected(RejectReason::Unschedulable { .. }) => {
                        prop_assert!(outside == 0)
                    }
                    other => prop_assert!(false, "{:?}, tracking {}: {}", scenario_mode, dirty_tracking, other),
                }
            }
        }
    }
}
