//! The sharded engine's two contracts, property-tested:
//!
//! (a) **equivalence** — driving the same churn stream through the sharded
//!     `SchedService` and the single `AdmissionController` produces the
//!     same verdict every epoch (rejection reason included) and the same
//!     live state and
//!     analysis results (content-wise; the router is free to order its
//!     aggregate set by shard), and both agree, island by island, with a
//!     from-scratch `analyze_with` oracle — across ≥100 generated
//!     multi-island churn scenarios, three in four seeded with an
//!     overloaded, unsummable or deadline-missing island beside them. A
//!     deadline-miss rejection names only transactions of the islands the
//!     batch touched;
//!
//! (b) **durability** — a journaled full-mix session (instances, bridges,
//!     mints, compaction, a rejection from every stage) torn at a *random
//!     byte* and rebuilt via `replay()` is byte-identical (state digest
//!     over epoch, set, system, report, and handle table) to the reference
//!     engine as of the last complete journal record — and so are a
//!     verified replay and a standby streamed the journal record by record.

mod common;

use hsched_admission::gen::{random_scenario, ChurnGen, ScenarioSpec};
use hsched_admission::{
    AdmissionController, AdmissionPolicy, AdmissionRequest, RejectReason, UnionFind, Verdict,
};
use hsched_analysis::{analyze_with, AnalysisConfig, TaskResult, TransactionVerdict};
use hsched_engine::{AutoCompactPolicy, EngineRequest, SchedService};
use hsched_numeric::rat;
use hsched_platform::Platform;
use hsched_transaction::{Task, Transaction, TransactionSet};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};

fn spec_for(seed: u64, clusters: usize) -> ScenarioSpec {
    ScenarioSpec {
        clusters,
        platforms_per_cluster: 2,
        transactions: 3 * clusters,
        max_tasks_per_tx: 3,
        load: rat(3, 5),
        priority_levels: 3,
        seed,
        ..ScenarioSpec::default()
    }
}

/// Sorts a report's per-transaction content by name so shard-ordered and
/// set-ordered views compare.
fn by_name(
    names: impl Iterator<Item = String>,
    tasks: &[Vec<TaskResult>],
    verdicts: &[TransactionVerdict],
) -> BTreeMap<String, (Vec<TaskResult>, TransactionVerdict)> {
    names
        .zip(tasks.iter().cloned().zip(verdicts.iter().cloned()))
        .collect()
}

/// The generated scenario of `seed`, plus — for three seeds in four — one
/// hostile island on a platform of its own that the churn only reaches by
/// retuning it or removing its transactions: overloaded (`U > α`, so its
/// seed analysis diverges), unsummable (utilizations no 128-bit fraction
/// can sum, [`common::HUGE_PERIODS`]) or missing a deadline (converged,
/// with `R` above `D`). Batches that never touch it are judged without
/// it, alike by both engines.
fn seed_shape(spec: &ScenarioSpec) -> TransactionSet {
    let set = random_scenario(spec);
    let mut platforms = set.platforms().clone();
    let mut transactions = set.transactions().to_vec();
    let one = |name: String, period: i128, deadline, wcet, priority: u32, p| {
        let task = Task::new(format!("{name}_t"), wcet, wcet, priority, p);
        Transaction::new(name, rat(period, 1), deadline, vec![task]).unwrap()
    };
    match spec.seed % 4 {
        0 => return set,
        1 => {
            let p = platforms
                .add(Platform::linear("hostile", rat(1, 4), rat(0, 1), rat(0, 1)).unwrap());
            transactions.push(one("hog".into(), 10, rat(10, 1), rat(5, 1), 1, p));
        }
        2 => {
            let p = platforms.add(Platform::dedicated("hostile"));
            for (i, &period) in common::HUGE_PERIODS.iter().enumerate() {
                let (name, deadline) = (format!("huge{i}"), rat(period, 1));
                transactions.push(one(name, period, deadline, rat(1, 1), 1 + i as u32, p));
            }
        }
        _ => {
            // U = 1/20 fits α = 1/10, but 1/2 unit at rate 1/10 takes 5 > 1.
            let p = platforms
                .add(Platform::linear("hostile", rat(1, 10), rat(0, 1), rat(0, 1)).unwrap());
            transactions.push(one("hog".into(), 10, rat(1, 1), rat(1, 2), 1, p));
        }
    }
    TransactionSet::new(platforms, transactions).unwrap()
}

/// The names on the islands an applied [`ChurnGen`] batch touches: the
/// islands of the post-batch topology (`before` minus departures, plus
/// arrivals) that hold a platform the batch names.
fn touched_names(before: &TransactionSet, batch: &[AdmissionRequest]) -> HashSet<String> {
    let mut live: Vec<&Transaction> = before.transactions().iter().collect();
    let mut named = HashSet::new();
    for request in batch {
        match request {
            AdmissionRequest::AddTransaction(tx) => {
                named.extend(tx.tasks().iter().map(|t| t.platform.0));
                live.push(tx);
            }
            AdmissionRequest::RemoveTransaction { name } => {
                if let Some(k) = live.iter().position(|tx| &tx.name == name) {
                    named.extend(live.remove(k).tasks().iter().map(|t| t.platform.0));
                }
            }
            AdmissionRequest::Retune { platform, .. } => {
                named.insert(platform.0);
            }
            _ => unreachable!("ChurnGen churns transactions and platforms only"),
        }
    }
    let mut uf = UnionFind::new(before.platforms().len());
    for tx in &live {
        for task in tx.tasks() {
            uf.union(tx.tasks()[0].platform.0, task.platform.0);
        }
    }
    let roots: HashSet<usize> = named.iter().map(|&p| uf.find(p)).collect();
    live.iter()
        .filter(|tx| roots.contains(&uf.find(tx.tasks()[0].platform.0)))
        .map(|tx| tx.name.clone())
        .collect()
}

/// One churn session driven through both engines in lockstep.
fn equivalence_session(seed: u64, clusters: usize, batches: usize, max_batch: usize) {
    let spec = spec_for(seed, clusters);
    let set = seed_shape(&spec);
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let mut single = AdmissionController::new(set.clone(), config.clone(), policy.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: controller seed failed: {e}"));
    let router = SchedService::new(set, config.clone(), policy)
        .unwrap_or_else(|e| panic!("seed {seed}: router seed failed: {e}"));
    // Feed the generator from the single controller's set so both engines
    // see the *identical* request stream (the generator picks departure
    // victims by index).
    let mut churn = ChurnGen::new(&spec, seed.wrapping_mul(0x9e3779b9).wrapping_add(7));

    for step in 0..batches {
        let before = single.current_set().clone();
        let batch = churn.next_batch(&before, max_batch);
        let single_outcome = single.commit(&batch);
        let response = router
            .submit(&EngineRequest::batch(batch.clone()))
            .unwrap_or_else(|e| panic!("seed {seed} step {step}: engine error: {e}"));

        assert_eq!(
            response.outcome.verdict, single_outcome.verdict,
            "seed {seed} step {step}: verdicts diverged"
        );
        if let Verdict::Rejected(RejectReason::Unschedulable { misses }) = &response.outcome.verdict
        {
            let touched = touched_names(&before, &batch);
            for name in misses {
                assert!(
                    touched.contains(name),
                    "seed {seed} step {step}: `{name}` is on an island the batch never touched"
                );
            }
        }
        assert_eq!(response.epoch, single.epoch(), "seed {seed} step {step}");

        // Same live population, content-wise.
        let router_set = router.current_set();
        let single_set = single.current_set();
        assert_eq!(
            router_set.platforms(),
            single_set.platforms(),
            "seed {seed} step {step}"
        );
        let mut router_names: Vec<&str> = router_set
            .transactions()
            .iter()
            .map(|t| t.name.as_str())
            .collect();
        let mut single_names: Vec<&str> = single_set
            .transactions()
            .iter()
            .map(|t| t.name.as_str())
            .collect();
        router_names.sort_unstable();
        single_names.sort_unstable();
        assert_eq!(router_names, single_names, "seed {seed} step {step}");
        for tx in router_set.transactions() {
            let i = single_set
                .transaction_index(&tx.name)
                .expect("name present in both");
            assert_eq!(
                *tx,
                single_set.transactions()[i],
                "seed {seed} step {step}: transaction `{}` differs",
                tx.name
            );
        }

        // Same analysis results, matched by name; and — when admitted —
        // both equal the from-scratch oracle.
        let router_report = router.report();
        let single_report = single.report();
        let router_view = by_name(
            router_set.transactions().iter().map(|t| t.name.clone()),
            &router_report.tasks,
            &router_report.verdicts,
        );
        let single_view = by_name(
            single_set.transactions().iter().map(|t| t.name.clone()),
            &single_report.tasks,
            &single_report.verdicts,
        );
        assert_eq!(router_view, single_view, "seed {seed} step {step}");
        assert_eq!(
            router.schedulable(),
            single.schedulable(),
            "seed {seed} step {step}"
        );

        if single_outcome.verdict.admitted() {
            // Island by island: a whole-set analysis bails out at the
            // overloaded shape's divergence and marks every row.
            let island_of = common::islands_by_name(&router_set);
            let mut islands: BTreeMap<usize, Vec<Transaction>> = BTreeMap::new();
            for tx in router_set.transactions() {
                islands
                    .entry(island_of[&tx.name])
                    .or_default()
                    .push(tx.clone());
            }
            for txs in islands.into_values() {
                let alone = TransactionSet::new(router_set.platforms().clone(), txs).unwrap();
                let fresh = analyze_with(&alone, &config)
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: oracle failed: {e}"));
                let names = alone.transactions().iter().map(|t| t.name.clone());
                for (name, row) in by_name(names, &fresh.tasks, &fresh.verdicts) {
                    assert_eq!(router_view[&name], row, "seed {seed} step {step}: `{name}`");
                }
            }
        }
    }
}

/// Case count of the two equivalence suites, env-tunable so CI can run
/// them extended (`HSCHED_PROPTEST_CASES=1000`) without editing them.
/// Defaults to each suite's tier-1 budget.
fn stress_cases(tier1: u32) -> u32 {
    std::env::var("HSCHED_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(tier1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(stress_cases(70)))]

    /// Multi-island scenarios (4 clusters): router == single == oracle.
    #[test]
    fn router_matches_single_controller_multi_island(seed in 0u64..10_000) {
        equivalence_session(seed, 4, 4, 3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(stress_cases(40)))]

    /// Wider systems (6 clusters) with bigger batches, so single batches
    /// regularly span several shards (concurrent commits + cross-shard
    /// atomicity are on the hot path).
    #[test]
    fn router_matches_single_controller_wide(seed in 10_000u64..20_000) {
        equivalence_session(seed, 6, 3, 5);
    }
}

/// Deterministic smoke mirroring proptest cases, one per seed shape
/// (stable name for `cargo test` triage).
#[test]
fn equivalence_session_seed_zero() {
    for seed in 0..4 {
        equivalence_session(seed, 4, 6, 3);
    }
}

/// Crash-point recovery of a full-mix session ([`common::FullMix`]:
/// instances, bridges, mints, retunes and a rejection from every stage),
/// with auto-compaction on for odd seeds: the live digest after every
/// epoch is the reference, and replay, verified replay and a streamed
/// standby must reach it at random cut points ([`common::assert_recovery`]).
fn crash_replay_session(seed: u64, cuts: (u64, u64)) {
    let (spec, set) = common::full_mix_scenario(seed);
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let path = std::env::temp_dir().join(format!(
        "hsched-proptest-journal-{}-{seed}-{}-{}.journal",
        std::process::id(),
        cuts.0,
        cuts.1
    ));

    let mut engine = SchedService::new(set.clone(), config, policy)
        .unwrap_or_else(|e| panic!("seed {seed}: router seed failed: {e}"))
        .with_journal(&path)
        .unwrap();
    if seed % 2 == 1 {
        engine = engine.with_auto_compact(AutoCompactPolicy {
            every_epochs: Some(3 + seed % 4),
            max_journal_bytes: None,
        });
    }
    let mut mix = common::FullMix::new(&spec, seed.wrapping_mul(0x517c_c1b7).wrapping_add(3));
    // digests[k] = reference state after k epochs.
    let mut digests = vec![engine.state_digest()];
    for _ in 0..12 {
        let batch = mix.next_batch(&engine);
        engine
            .submit(&EngineRequest::batch(batch))
            .unwrap_or_else(|e| panic!("seed {seed}: engine error: {e}"));
        digests.push(engine.state_digest());
    }
    let next = mix.next_batch(&engine);
    drop(engine); // crash

    common::assert_recovery(&set, &path, &digests, &next, cuts);
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(stress_cases(24)))]

    /// Random crash points across random full-mix sessions.
    #[test]
    fn journal_replay_is_byte_identical_after_crash(
        seed in 0u64..5_000,
        standby_cut in 0u64..=100,
        tear in 0u64..=100,
    ) {
        crash_replay_session(seed, (standby_cut, tear));
    }
}

/// The full mix reaches everything the recovery property claims to cover:
/// a rejection from each stage, instances admitted and removed, and every
/// kind of topology change. Counted over the sessions of the first seeds.
#[test]
fn full_mix_covers_every_kind_of_epoch() {
    let mut reasons = BTreeSet::new();
    let (mut instances_in, mut instances_out, mut empty_classes) = (0, 0, 0);
    let mut topology = common::TopologyCounts::default();
    for seed in 0..16 {
        let (spec, set) = common::full_mix_scenario(seed);
        let engine =
            SchedService::new(set, AnalysisConfig::default(), AdmissionPolicy::default()).unwrap();
        let mut mix = common::FullMix::new(&spec, seed);
        let mut before = common::islands_by_name(&engine.current_set());
        for _ in 0..12 {
            let batch = mix.next_batch(&engine);
            let response = engine.submit(&EngineRequest::batch(batch.clone())).unwrap();
            // An instance of a class with no threads is never admitted.
            let empty = batch.iter().find_map(|request| match request {
                AdmissionRequest::AddInstance { class, .. } if class.threads.is_empty() => {
                    Some(format!("class `{}` flattens to no transaction", class.name))
                }
                _ => None,
            });
            if let Some(message) = empty {
                let verdict = &response.outcome.verdict;
                assert!(!verdict.admitted(), "{verdict}");
                let expected = Verdict::Rejected(RejectReason::Structural(message));
                empty_classes += usize::from(*verdict == expected);
            }
            match &response.outcome.verdict {
                Verdict::Admitted => {
                    for request in &batch {
                        match request {
                            AdmissionRequest::AddInstance { .. } => instances_in += 1,
                            AdmissionRequest::RemoveInstance { .. } => instances_out += 1,
                            _ => {}
                        }
                    }
                }
                Verdict::Rejected(reason) => {
                    reasons.insert(reason.to_string().split(':').next().unwrap().to_string());
                }
            }
            let after = common::islands_by_name(&engine.current_set());
            topology.count(&before, &after, response.shards_touched);
            before = after;
        }
    }
    println!(
        "full mix: rejections {reasons:?}, instances +{instances_in} -{instances_out}, \
         {empty_classes} empty classes, {topology:?}"
    );
    for stage in ["structural", "numeric", "overload", "unschedulable"] {
        assert!(
            reasons.iter().any(|r| r.starts_with(stage)),
            "no {stage} rejection in {reasons:?}"
        );
    }
    assert!(instances_in > 0 && instances_out > 0 && empty_classes > 0);
    let common::TopologyCounts {
        multi_shard,
        merges,
        mints,
        splits,
    } = topology;
    assert!(
        multi_shard > 0 && merges > 0 && mints > 0 && splits > 0,
        "{topology:?}"
    );
}

/// Deterministic crash-replay smoke: the whole journal, and cuts in the
/// middle, with and without compaction.
#[test]
fn crash_replay_seed_zero() {
    crash_replay_session(0, (100, 100));
    crash_replay_session(0, (30, 55));
    crash_replay_session(1, (60, 40));
}
