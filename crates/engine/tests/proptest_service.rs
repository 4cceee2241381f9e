//! The concurrent service's four contracts, property-tested:
//!
//! (a) **linearizability** — N client threads fire generated churn at one
//!     `SchedService` concurrently; the write-ahead journal's epoch order
//!     must replay to a state byte-identical to applying those epochs
//!     serially to a single `AdmissionController` (same per-epoch
//!     verdicts, same live set and analysis results), and a serial
//!     `SchedService::replay` of the journal must reproduce the service's
//!     state digest exactly;
//!
//! (b) **compaction durability** — a journal compacted mid-session
//!     (`snapshot()`), continued, then torn at a random byte and replayed
//!     resumes from snapshot + tail byte-identically to the reference at
//!     the surviving epoch count; tears *inside* the atomically-written
//!     snapshot block surface as corruption, never as silent data loss;
//!
//! (c) **numeric parity** — both engines check utilization only on the
//!     islands a batch touches, so an island whose exact utilization sum
//!     overflows rejects `Numeric` exactly the batches that touch it, on
//!     both sides (a deterministic test below; `proptest_engine` adds such
//!     an island to generated scenarios);
//!
//! (d) **racing clients** — the same linearizability contract with every
//!     client on the *same* islands and the full churn mix (retunes,
//!     merges, splits and fresh shards included, all while sibling epochs
//!     are in flight), behind a watchdog that turns a parked front door
//!     into a failure naming the seed.

mod common;

use hsched_admission::gen::{random_scenario, ChurnGen, PlatformMix, ScenarioSpec};
use hsched_admission::{
    AdmissionController, AdmissionPolicy, AdmissionRequest, RejectReason, Verdict,
};
use hsched_analysis::{analyze_with, AnalysisConfig};
use hsched_engine::{
    read_journal, AutoCompactPolicy, EngineError, EngineRequest, EngineResponse, JournalEpoch,
    SchedService,
};
use hsched_numeric::{rat, Rational};
use hsched_platform::{Platform, PlatformId, PlatformSet};
use hsched_transaction::{Task, Transaction, TransactionSet};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

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

fn temp_journal(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hsched-service-proptest-{}-{tag}-{seed}.journal",
        std::process::id()
    ))
}

/// A deterministic single-thread churn driver over a *disjoint* cluster
/// slice: arrivals use thread-unique names, departures only name
/// transactions this thread owns, so concurrent threads never conflict on
/// names or islands (the service serializes any that would).
struct ClientGen {
    thread: usize,
    state: u64,
    clusters: Vec<usize>,
    platforms_per_cluster: usize,
    /// Transactions this thread may remove (its cluster's seeds + its own
    /// admitted arrivals).
    live: Vec<String>,
    counter: u64,
}

impl ClientGen {
    fn new(
        thread: usize,
        seed: u64,
        clusters: Vec<usize>,
        set: &TransactionSet,
        ppc: usize,
    ) -> Self {
        let live = set
            .transactions()
            .iter()
            .filter(|tx| clusters.contains(&(tx.tasks()[0].platform.0 / ppc)))
            .map(|tx| tx.name.clone())
            .collect();
        ClientGen {
            thread,
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
            clusters,
            platforms_per_cluster: ppc,
            live,
            counter: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // SplitMix64 — deterministic per (seed, thread).
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn arrival(&mut self) -> AdmissionRequest {
        self.counter += 1;
        let at = self.pick(self.clusters.len());
        let cluster = self.clusters[at];
        let platform = PlatformId(
            cluster * self.platforms_per_cluster + self.pick(self.platforms_per_cluster),
        );
        let name = format!("t{}x{}", self.thread, self.counter);
        let period = rat(40 + 10 * self.pick(8) as i128, 1);
        let wcet = Rational::new(1, 1 + self.pick(4) as i128);
        let tx = Transaction::new(
            name.clone(),
            period,
            period,
            vec![Task::new(
                format!("{name}.t"),
                wcet,
                wcet,
                1 + self.pick(3) as u32,
                platform,
            )],
        )
        .unwrap();
        AdmissionRequest::AddTransaction(tx)
    }

    fn next_batch(&mut self, max_batch: usize) -> Vec<AdmissionRequest> {
        let size = 1 + self.pick(max_batch);
        let mut batch = Vec::with_capacity(size);
        for _ in 0..size {
            match self.pick(10) {
                0..=5 => {
                    let request = self.arrival();
                    if let AdmissionRequest::AddTransaction(tx) = &request {
                        // Optimistically track; a rejected epoch is healed
                        // by the remove simply structurally rejecting
                        // later, which is itself a valid journal record.
                        self.live.push(tx.name.clone());
                    }
                    batch.push(request);
                }
                _ => {
                    if self.live.is_empty() {
                        batch.push(self.arrival());
                    } else {
                        let at = self.pick(self.live.len());
                        let name = self.live.swap_remove(at);
                        batch.push(AdmissionRequest::RemoveTransaction { name });
                    }
                }
            }
        }
        batch
    }
}

/// Sorted per-transaction view of a report, for content comparison.
fn by_name(
    set: &TransactionSet,
    report: &hsched_analysis::SchedulabilityReport,
) -> BTreeMap<
    String,
    (
        Vec<hsched_analysis::TaskResult>,
        hsched_analysis::TransactionVerdict,
    ),
> {
    set.transactions()
        .iter()
        .map(|t| t.name.clone())
        .zip(
            report
                .tasks
                .iter()
                .cloned()
                .zip(report.verdicts.iter().cloned()),
        )
        .collect()
}

/// One concurrent session: N threads × `batches` epochs of disjoint churn.
fn linearizability_session(seed: u64, threads: usize, batches: usize) {
    let clusters = threads * 2;
    let spec = spec_for(seed, clusters);
    let set = random_scenario(&spec);
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let path = temp_journal("linear", seed);

    let service = SchedService::new(set.clone(), config.clone(), policy.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: service seed failed: {e}"))
        .with_journal(&path)
        .unwrap();

    std::thread::scope(|scope| {
        for thread in 0..threads {
            let service = &service;
            let owned: Vec<usize> = vec![2 * thread, 2 * thread + 1];
            let mut client = ClientGen::new(
                thread,
                seed.wrapping_mul(31).wrapping_add(thread as u64),
                owned,
                &set,
                spec.platforms_per_cluster,
            );
            scope.spawn(move || {
                for step in 0..batches {
                    let batch = client.next_batch(3);
                    service
                        .submit(&EngineRequest::batch(batch))
                        .unwrap_or_else(|e| panic!("seed {seed} thread {thread} step {step}: {e}"));
                }
            });
        }
    });

    let digest = service.state_digest();
    let total_epochs = service.epoch();
    assert_eq!(total_epochs, (threads * batches) as u64);

    // The journal is a serialization: consecutive tickets, one per epoch.
    let contents = read_journal(&path).unwrap();
    assert_eq!(contents.epochs.len(), threads * batches);
    for (i, record) in contents.epochs.iter().enumerate() {
        assert_eq!(record.epoch, i as u64 + 1, "seed {seed}: ticket order");
    }

    // (a1) applying the journal's epochs serially to a single controller
    // reproduces every verdict and the same final state, content-wise.
    let mut single = AdmissionController::new(set.clone(), config.clone(), policy.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: controller seed failed: {e}"));
    for record in &contents.epochs {
        let outcome = single.commit(&record.batch);
        assert_eq!(
            outcome.verdict.admitted(),
            record.admitted,
            "seed {seed} epoch {}: concurrent verdict {} vs serial {}",
            record.epoch,
            if record.admitted {
                "admitted"
            } else {
                "rejected"
            },
            outcome.verdict,
        );
    }
    let service_set = service.current_set();
    let single_set = single.current_set();
    assert_eq!(
        service_set.platforms(),
        single_set.platforms(),
        "seed {seed}"
    );
    let mut service_names: Vec<&str> = service_set
        .transactions()
        .iter()
        .map(|t| t.name.as_str())
        .collect();
    let mut single_names: Vec<&str> = single_set
        .transactions()
        .iter()
        .map(|t| t.name.as_str())
        .collect();
    service_names.sort_unstable();
    single_names.sort_unstable();
    assert_eq!(service_names, single_names, "seed {seed}");
    assert_eq!(
        by_name(&service_set, &service.report()),
        by_name(single_set, &single.report()),
        "seed {seed}: analysis results diverged"
    );
    assert_eq!(service.schedulable(), single.schedulable(), "seed {seed}");
    if service.schedulable() {
        let fresh = analyze_with(&service_set, &config)
            .unwrap_or_else(|e| panic!("seed {seed}: oracle failed: {e}"));
        assert_eq!(service.report().tasks, fresh.tasks, "seed {seed}");
    }

    // (a2) a serial replay of the journal rebuilds the service
    // byte-identically (digest includes handles, counters, slot order).
    let (replayed, stats) = SchedService::replay(set, config, policy, &path)
        .unwrap_or_else(|e| panic!("seed {seed}: replay failed: {e}"));
    assert_eq!(stats.tail_records, threads * batches);
    assert_eq!(
        replayed.state_digest(),
        digest,
        "seed {seed}: replay digest"
    );
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 4 client threads × 6 epochs of disjoint-island churn, random seeds.
    #[test]
    fn concurrent_epochs_linearize(seed in 0u64..10_000) {
        linearizability_session(seed, 4, 6);
    }
}

/// Deterministic smoke mirroring one proptest case (stable name for
/// `cargo test` triage), with more threads.
#[test]
fn concurrent_epochs_linearize_seed_zero() {
    linearizability_session(0, 6, 5);
}

/// One compaction session over the full mix ([`common::FullMix`]): churn →
/// snapshot → churn → crash. The recovery invariants hold at random cuts
/// past the snapshot block ([`common::assert_recovery`]: replay, verified
/// replay and a streamed standby all reach the live digest), and a tear
/// *inside* the atomically-written block is corruption, never silent data
/// loss.
fn compaction_crash_session(seed: u64, cuts: (u64, u64)) {
    let (spec, set) = common::full_mix_scenario(seed);
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let path = temp_journal("compact", seed);

    let service = SchedService::new(set.clone(), config.clone(), policy.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: service seed failed: {e}"))
        .with_journal(&path)
        .unwrap();
    let mut mix = common::FullMix::new(&spec, seed.wrapping_mul(0x517c_c1b7).wrapping_add(11));
    // digests[k] = reference state after k epochs.
    let mut digests = vec![service.state_digest()];
    let mut churn = |epochs: usize, digests: &mut Vec<String>| {
        for _ in 0..epochs {
            let batch = mix.next_batch(&service);
            service.submit(&EngineRequest::batch(batch)).unwrap();
            digests.push(service.state_digest());
        }
    };
    churn(3, &mut digests);
    let info = service.snapshot().unwrap();
    assert_eq!(info.epoch, 3, "seed {seed}");
    let compacted_bytes = std::fs::metadata(&path).unwrap().len();
    assert_eq!(info.compacted_bytes, compacted_bytes);
    assert_eq!(
        digests[3], info.digest,
        "snapshot digest is the live digest"
    );
    churn(6, &mut digests);
    let next = mix.next_batch(&service);
    drop(service); // crash

    let bytes = std::fs::read(&path).unwrap();
    common::assert_recovery(&set, &path, &digests, &next, cuts);

    // A tear *inside* the snapshot block is corruption, not data loss.
    if compacted_bytes > 60 {
        std::fs::write(&path, &bytes[..compacted_bytes as usize - 20]).unwrap();
        let outcome = SchedService::replay(set, config, policy, &path);
        assert!(
            matches!(outcome, Err(EngineError::Journal(_))),
            "seed {seed}: torn snapshot must refuse to load"
        );
    }
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(stress_cases(16)))]

    /// Random crash points in the post-compaction tail.
    #[test]
    fn compaction_replay_is_byte_identical_after_crash(
        seed in 0u64..5_000,
        standby_cut in 0u64..=100,
        tear in 0u64..=100,
    ) {
        compaction_crash_session(seed, (standby_cut, tear));
    }
}

/// Deterministic compaction smoke: full tail and mid-tail cuts.
#[test]
fn compaction_crash_seed_zero() {
    compaction_crash_session(0, (100, 100));
    compaction_crash_session(0, (20, 40));
}

/// Runs `epochs` serial [`ChurnGen`] batches (up to three requests each)
/// against a journaled service. Auto-compaction is switched on after
/// `switch_at` epochs by a restart: the journal written so far is replayed
/// into a fresh service that carries the policy, as an operator restarting
/// with `--auto-compact` would. After each epoch that `check` selects (by
/// epoch number and response), a read-only replica rebuilt from the
/// journal must reach the live digest — a divergence lasts only until the
/// next compaction re-captures the live state, so a check at the end alone
/// would mostly miss it.
#[allow(clippy::too_many_arguments)]
fn churn_with_compaction_switch(
    spec: &ScenarioSpec,
    set: &TransactionSet,
    churn_seed: u64,
    epochs: usize,
    switch_at: usize,
    policy: AutoCompactPolicy,
    check: impl Fn(usize, &EngineResponse) -> bool,
    path: &Path,
) {
    let config = AnalysisConfig::default();
    let admission = AdmissionPolicy::default();
    let mut service = SchedService::new(set.clone(), config.clone(), admission.clone())
        .unwrap()
        .with_journal(path)
        .unwrap();
    let mut churn = ChurnGen::new(spec, churn_seed);
    for epoch in 1..=epochs {
        if epoch == switch_at + 1 {
            drop(service);
            let (restarted, _) =
                SchedService::replay(set.clone(), config.clone(), admission.clone(), path)
                    .unwrap_or_else(|e| panic!("restart at epoch {switch_at}: {e}"));
            service = restarted.with_auto_compact(policy);
        }
        let batch = churn.next_batch(&service.current_set(), 3);
        let response = service
            .submit(&EngineRequest::batch(batch))
            .unwrap_or_else(|e| panic!("epoch {epoch}: {e}"));
        if check(epoch, &response) {
            let (replica, _) =
                SchedService::replay_standby(set.clone(), config.clone(), admission.clone(), path)
                    .unwrap_or_else(|e| panic!("epoch {epoch}: replay failed: {e}"));
            assert_eq!(replica.epoch(), epoch as u64);
            assert_eq!(
                replica.state_digest(),
                service.state_digest(),
                "epoch {epoch}: replay of the journal diverged from the live engine"
            );
        }
    }
}

/// ROADMAP item 1's reproducer as a fixed case: 768 transactions over 192
/// clusters, `ChurnGen` seed 1, batches of up to three, compaction every
/// 500 epochs. A post-compaction epoch that allocates a shard slot must
/// land where an engine rebuilt from the snapshot puts it, however many
/// vacancies the live engine's history left.
#[test]
fn compaction_replay_matches_live_roadmap_case() {
    let spec = ScenarioSpec {
        clusters: 192,
        platforms_per_cluster: 2,
        transactions: 768,
        max_tasks_per_tx: 2,
        load: rat(1, 2),
        priority_levels: 5,
        mix: PlatformMix::Linear,
        seed: 1,
    };
    let set = common::schedulable_scenario(&spec);
    let path = temp_journal("roadmap1", 1);
    let policy = AutoCompactPolicy {
        every_epochs: Some(500),
        max_journal_bytes: None,
    };
    // A divergence starts at an epoch that allocates a slot; checking the
    // epochs after the last compaction whose shard count grew, and the
    // last one, keeps the case affordable.
    let shards = std::cell::Cell::new(0);
    let check = |epoch: usize, response: &EngineResponse| {
        let grew = response.shards_live > shards.replace(response.shards_live);
        epoch > 1000 && (grew || epoch == 1220)
    };
    churn_with_compaction_switch(&spec, &set, 1, 1220, 0, policy, check, &path);
    let contents = read_journal(&path).unwrap();
    assert_eq!(
        contents.snapshot.map(|s| s.epoch),
        Some(1000),
        "two compactions ran"
    );
    let _ = std::fs::remove_file(&path);
}

/// The smallest shape of item 1: a merge vacates a slot, the journal is
/// compacted, and the next epoch mints a shard. Every rendering follows
/// slot order, so the new island must take the same slot in the live
/// engine, which had a vacancy, and in the engine rebuilt from the
/// snapshot, which is seeded dense.
#[test]
fn mint_after_compaction_replays_like_live() {
    let mut platforms = PlatformSet::new();
    let a = platforms.add(Platform::dedicated("A"));
    let b = platforms.add(Platform::dedicated("B"));
    let c = platforms.add(Platform::dedicated("C"));
    let d = platforms.add(Platform::dedicated("D"));
    let tx = |name: &str, on: &[PlatformId]| {
        let tasks = on
            .iter()
            .enumerate()
            .map(|(k, &p)| Task::new(format!("{name}{k}"), rat(1, 1), rat(1, 1), 1, p))
            .collect();
        Transaction::new(name, rat(20, 1), rat(20, 1), tasks).unwrap()
    };
    let set =
        TransactionSet::new(platforms, vec![tx("a", &[a]), tx("b", &[b]), tx("c", &[c])]).unwrap();
    let path = temp_journal("mintaftercompact", 0);
    let service = SchedService::new(
        set.clone(),
        AnalysisConfig::default(),
        AdmissionPolicy::default(),
    )
    .unwrap()
    .with_journal(&path)
    .unwrap();
    let add = |t| EngineRequest::batch(vec![AdmissionRequest::AddTransaction(t)]);
    // Slots [a, b, c] → the bridge merges b into a's slot: [ab, -, c].
    assert!(service
        .submit(&add(tx("ab", &[a, b])))
        .unwrap()
        .outcome
        .verdict
        .admitted());
    service.snapshot().unwrap();
    // A fresh island on the free platform D.
    let response = service.submit(&add(tx("d", &[d]))).unwrap();
    assert!(response.outcome.verdict.admitted());
    let (replayed, _) = SchedService::replay(
        set,
        AnalysisConfig::default(),
        AdmissionPolicy::default(),
        &path,
    )
    .unwrap();
    assert_eq!(replayed.current_set(), service.current_set());
    assert_eq!(replayed.state_digest(), service.state_digest());
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(stress_cases(8)))]

    /// Compaction switched on at a random epoch of a serial churn session
    /// (a restart with the policy armed), firing every few epochs after
    /// that: after every epoch, replay of the journal reaches the live
    /// digest.
    #[test]
    fn compaction_switched_on_mid_session_replays_like_live(
        seed in 0u64..5_000,
        switch_at in 0usize..12,
        every in 2u64..7,
    ) {
        // One seed transaction per cluster of three platforms: islands
        // empty out, merge and split, and free platforms mint new ones.
        let spec = ScenarioSpec {
            clusters: 6,
            platforms_per_cluster: 3,
            transactions: 6,
            max_tasks_per_tx: 2,
            load: rat(1, 2),
            priority_levels: 3,
            mix: PlatformMix::Linear,
            seed,
        };
        let set = common::schedulable_scenario(&spec);
        let path = temp_journal("compactswitch", seed);
        let policy = AutoCompactPolicy { every_epochs: Some(every), max_journal_bytes: None };
        churn_with_compaction_switch(
            &spec, &set, seed ^ 0x5eed, 40, switch_at, policy, |epoch, _| epoch > switch_at, &path,
        );
        let _ = std::fs::remove_file(&path);
    }
}

/// A concurrent heal of a hostile island B — unsummable in even rounds,
/// missing a deadline in odd ones — must serialize against disjoint epochs
/// on island A: those are judged on A alone, so all three are admitted
/// whatever their ticket order against the heal, and the journal replays
/// to the same state. The healer waits for 0–3 of A's epochs to return
/// before it races the rest, so every order occurs. The reserve-time
/// numeric rejection this first guarded (it raced the in-flight healer and
/// recorded a rejection that replayed as admitted) no longer exists, and
/// neither does the rejection of A's epochs for B's misses.
#[test]
fn concurrent_poison_heal_replays_serially() {
    for round in 0..8u64 {
        let mut platforms = PlatformSet::new();
        let a = platforms.add(Platform::dedicated("A"));
        let one = |name: String, period, deadline, wcet, priority, p| {
            let task = Task::new(format!("{name}_t"), wcet, wcet, priority, p);
            Transaction::new(name, period, deadline, vec![task]).unwrap()
        };
        let mut seed_txns = vec![one(
            "normal".into(),
            rat(10, 1),
            rat(10, 1),
            rat(1, 1),
            1,
            a,
        )];
        let heal: Vec<String> = if round % 2 == 0 {
            let b = platforms.add(Platform::dedicated("B"));
            for (i, &p) in common::HUGE_PERIODS.iter().enumerate() {
                let (name, period) = (format!("hostile{i}"), rat(p, 1));
                seed_txns.push(one(name, period, period, rat(1, 1), 1 + i as u32, b));
            }
            (0..4).map(|i| format!("hostile{i}")).collect()
        } else {
            // Converged, but 1/2 unit at rate 1/10 takes 5 > 1.
            let b = platforms.add(Platform::linear("B", rat(1, 10), rat(0, 1), rat(0, 1)).unwrap());
            seed_txns.push(one("hog".into(), rat(10, 1), rat(1, 1), rat(1, 2), 1, b));
            vec!["hog".into()]
        };
        let set = TransactionSet::new(platforms, seed_txns).unwrap();
        let config = AnalysisConfig::default();
        let policy = AdmissionPolicy::default();
        let path = temp_journal("poisonheal", round);
        let service = SchedService::new(set.clone(), config.clone(), policy.clone())
            .unwrap()
            .with_max_inflight(4)
            .with_journal(&path)
            .unwrap();

        let (returned, client_returned) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            // Healer: touches the hostile island B.
            let healer = &service;
            scope.spawn(move || {
                for _ in 0..round / 2 {
                    client_returned.recv().unwrap();
                }
                let heal = heal
                    .into_iter()
                    .map(|name| AdmissionRequest::RemoveTransaction { name })
                    .collect();
                healer.submit(&EngineRequest::batch(heal)).unwrap();
            });
            // Disjoint client on island A, racing the healer.
            let client = &service;
            scope.spawn(move || {
                for k in 0..3 {
                    let tx = one(format!("x{k}"), rat(10, 1), rat(10, 1), rat(1, 1), 2, a);
                    let batch = vec![AdmissionRequest::AddTransaction(tx)];
                    let response = client.submit(&EngineRequest::batch(batch)).unwrap();
                    let verdict = response.outcome.verdict;
                    assert!(verdict.admitted(), "round {round}: x{k} {verdict}");
                    let _ = returned.send(());
                }
            });
        });
        let digest = service.state_digest();
        drop(service);

        let (replayed, stats) = SchedService::replay(set, config.clone(), policy.clone(), &path)
            .unwrap_or_else(|e| panic!("round {round}: journal does not replay: {e}"));
        assert_eq!(stats.tail_records, 4, "round {round}");
        assert_eq!(replayed.state_digest(), digest, "round {round}");
        let _ = std::fs::remove_file(&path);
    }
}

/// (c) Cross-island numeric parity: a seeded island B whose exact
/// utilization sum overflows i128 (huge coprime periods) — but whose
/// response-time analysis stays in range. Both engines admit a batch that
/// never touches B, reject `Numeric` a batch that adds to B, and admit the
/// batch that heals B.
#[test]
fn cross_island_overflow_parity_matches_single_controller() {
    let mut platforms = PlatformSet::new();
    let a = platforms.add(Platform::dedicated("A"));
    let b = platforms.add(Platform::dedicated("B"));
    // Large coprime periods: each u_i = 1/p_i is fine, but the exact sum's
    // denominator is Π p_i ≫ i128::MAX.
    let primes: [i128; 5] = [
        1_000_000_000_039,
        1_000_000_000_061,
        1_000_000_000_063,
        1_000_000_000_091,
        999_999_999_989,
    ];
    let mut seed_txns = vec![Transaction::new(
        "normal",
        rat(10, 1),
        rat(10, 1),
        vec![Task::new("n", rat(1, 1), rat(1, 1), 1, a)],
    )
    .unwrap()];
    for (i, p) in primes.iter().enumerate() {
        seed_txns.push(
            Transaction::new(
                format!("hostile{i}"),
                rat(*p, 1),
                rat(*p, 1),
                vec![Task::new(
                    format!("h{i}"),
                    rat(1, 1),
                    rat(1, 1),
                    1 + i as u32,
                    b,
                )],
            )
            .unwrap(),
        );
    }
    let set = TransactionSet::new(platforms, seed_txns).unwrap();
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let mut single = AdmissionController::new(set.clone(), config.clone(), policy.clone())
        .expect("analysis itself stays in range");
    let service = SchedService::new(set, config, policy).unwrap();

    let fresh = |name: &str, platform| {
        let task = Task::new(format!("{name}.t"), rat(1, 1), rat(1, 1), 9, platform);
        let tx = Transaction::new(name, rat(10, 1), rat(10, 1), vec![task]);
        AdmissionRequest::AddTransaction(tx.unwrap())
    };
    // Commits `batch` on both engines and returns their common verdict.
    let mut both = |batch: Vec<AdmissionRequest>| {
        let outcome = single.commit(&batch);
        let response = service.submit(&EngineRequest::batch(batch)).unwrap();
        assert_eq!(response.outcome.verdict, outcome.verdict);
        outcome.verdict
    };

    // An island-A batch never looks at B's utilization.
    let verdict = both(vec![fresh("x1", a)]);
    assert!(verdict.admitted(), "{verdict}");

    // A batch that adds to B meets B's overflow in the precheck.
    let verdict = both(vec![fresh("y1", b)]);
    assert!(
        matches!(verdict, Verdict::Rejected(RejectReason::Numeric(_))),
        "{verdict}"
    );

    // Healing: remove enough hostile transactions that the sum computes.
    let heal: Vec<AdmissionRequest> = (0..4)
        .map(|i| AdmissionRequest::RemoveTransaction {
            name: format!("hostile{i}"),
        })
        .collect();
    let verdict = both(heal);
    assert!(verdict.admitted(), "heal: {verdict}");

    // Both now admit B's traffic too.
    let verdict = both(vec![fresh("y2", b)]);
    assert!(verdict.admitted(), "{verdict}");
}

/// One *overlapping* concurrent session: every thread churns over the
/// same shared name pool and the same clusters, so concurrent batches
/// collide on names, platforms, and shard slots constantly. Structural
/// rejections (duplicate adds, removes of departed names) are expected —
/// each is a valid journal record. The contract under fire is reserve's
/// conflict handling: the journal must still be a consecutive-ticket
/// serialization whose serial replay is byte-identical.
fn contention_session(seed: u64, threads: usize, batches: usize) {
    let spec = spec_for(seed, 2);
    let set = random_scenario(&spec);
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let path = temp_journal("contend", seed);

    let service = SchedService::new(set.clone(), config.clone(), policy.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: service seed failed: {e}"))
        .with_journal(&path)
        .unwrap();

    // Shared pool: every thread adds/removes the same dozen names over the
    // same two clusters (all four platforms).
    let pool: Vec<String> = (0..12).map(|i| format!("shared{i}")).collect();
    let shared_tx = |name: &str, salt: usize| {
        let platform = PlatformId(salt % 4);
        let period = rat(40 + 10 * (salt % 8) as i128, 1);
        let wcet = Rational::new(1, 1 + (salt % 4) as i128);
        Transaction::new(
            name,
            period,
            period,
            vec![Task::new(
                format!("{name}.t"),
                wcet,
                wcet,
                1 + (salt % 3) as u32,
                platform,
            )],
        )
        .unwrap()
    };

    std::thread::scope(|scope| {
        for thread in 0..threads {
            let service = &service;
            let pool = &pool;
            scope.spawn(move || {
                let mut state = seed
                    .wrapping_mul(0x517c_c1b7)
                    .wrapping_add(thread as u64 ^ 0x9e37_79b9);
                let mut next = || {
                    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                    (z ^ (z >> 31)) as usize
                };
                for step in 0..batches {
                    let size = 1 + next() % 2;
                    let batch: Vec<AdmissionRequest> = (0..size)
                        .map(|_| {
                            let name = &pool[next() % pool.len()];
                            if next() % 2 == 0 {
                                AdmissionRequest::AddTransaction(shared_tx(name, next()))
                            } else {
                                AdmissionRequest::RemoveTransaction { name: name.clone() }
                            }
                        })
                        .collect();
                    // Rejections are fine; engine errors are not.
                    service
                        .submit(&EngineRequest::batch(batch))
                        .unwrap_or_else(|e| panic!("seed {seed} thread {thread} step {step}: {e}"));
                }
            });
        }
    });

    let history = read_journal(&path).unwrap().epochs;
    assert_eq!(history.len(), threads * batches, "seed {seed}");
    assert_journal_linearizes(seed, &service, set, config, policy, &path, &history);
}

/// The verdict both contended sessions end on: `history` — every epoch
/// the clients were answered, in ticket order — is a consecutive-ticket
/// serialization of the concurrent run whose suffix the journal holds
/// (all of it unless the engine compacted), serial single-controller
/// application reproduces every verdict, and a serial replay of the
/// journal is byte-identical to the live engine. Removes the journal on
/// success.
fn assert_journal_linearizes(
    seed: u64,
    service: &SchedService,
    set: TransactionSet,
    config: AnalysisConfig,
    policy: AdmissionPolicy,
    path: &Path,
    history: &[JournalEpoch],
) {
    let digest = service.state_digest();
    assert_eq!(service.epoch(), history.len() as u64, "seed {seed}");

    // Consecutive tickets: the WAL is a serialization of the concurrent run.
    for (i, record) in history.iter().enumerate() {
        assert_eq!(record.epoch, i as u64 + 1, "seed {seed}: ticket order");
    }
    let contents = read_journal(path).unwrap();
    let folded = contents.snapshot.as_ref().map_or(0, |s| s.epoch as usize);
    assert_eq!(
        contents.epochs,
        history[folded..],
        "seed {seed}: the journal's records past its snapshot are the answered epochs"
    );

    // Serial single-controller application reproduces every verdict.
    let mut single = AdmissionController::new(set.clone(), config.clone(), policy.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: controller seed failed: {e}"));
    for record in history {
        let outcome = single.commit(&record.batch);
        assert_eq!(
            outcome.verdict.admitted(),
            record.admitted,
            "seed {seed} epoch {}: concurrent verdict vs serial {}",
            record.epoch,
            outcome.verdict,
        );
    }

    // Serial replay is byte-identical.
    let (replayed, stats) = SchedService::replay(set, config, policy, path)
        .unwrap_or_else(|e| panic!("seed {seed}: replay failed: {e}"));
    assert_eq!(stats.tail_records, history.len() - folded, "seed {seed}");
    assert_eq!(
        replayed.state_digest(),
        digest,
        "seed {seed}: replay digest"
    );
    let _ = std::fs::remove_file(path);
}

/// Case count of the two contended suites, env-tunable so CI can dial the
/// stress level (e.g. a nightly with `HSCHED_PROPTEST_CASES=200`) without
/// editing the tests. Defaults to each suite's tier-1 budget.
fn stress_cases(tier1: u32) -> u32 {
    std::env::var("HSCHED_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(tier1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(stress_cases(10)))]

    /// 4 threads × 6 epochs over one shared name pool, random seeds.
    #[test]
    fn overlapping_epochs_linearize(seed in 0u64..10_000) {
        contention_session(seed, 4, 6);
    }
}

/// Deterministic contended smoke with more threads (stable triage name).
#[test]
fn overlapping_epochs_linearize_seed_zero() {
    contention_session(7, 6, 5);
}

/// One *racing* session: every thread submits the full [`ChurnGen`] mix —
/// arrivals, departures, retunes, batches of up to three — over the **same**
/// system, so epochs collide on islands while retunes move the master
/// platform table and arrivals mint, merge and split shards under them.
/// Two of the ten clusters get no seed transaction: their platforms start
/// free, so fresh shards are minted (and then bridged) while sibling epochs
/// are in flight. Halfway through, the engine restarts from its journal
/// with auto-compaction switched on, so the second half races compactions
/// as well.
///
/// Every earlier generator stayed clear of exactly this: [`ClientGen`] keeps
/// each client on its own clusters, and [`contention_session`] shares names
/// and platforms but only adds and removes over four platforms — no retune,
/// no topology change beside traffic. That is how the stale-platform-stamp
/// and half-applied-merge defects (ROADMAP 1(ii)/(iii)) survived every gate
/// until a benchmark raced two connections.
///
/// The streams are generated up front against the seed set, so a remove may
/// name a transaction a sibling already removed and two threads may mint the
/// same `churnK` name: both are valid structural rejections, journaled like
/// any other epoch.
///
/// Returns how the session's epochs changed shard topology, counted on the
/// serial re-run of its history.
fn racing_churn_session(seed: u64, threads: usize, batches: usize) -> common::TopologyCounts {
    let spec = ScenarioSpec {
        clusters: 10,
        platforms_per_cluster: 4,
        transactions: 40,
        max_tasks_per_tx: 2,
        load: rat(1, 2),
        priority_levels: 5,
        seed,
        ..ScenarioSpec::default()
    };
    let generated = random_scenario(&spec);
    let seeded_platforms = 8 * spec.platforms_per_cluster;
    let set = TransactionSet::new(
        generated.platforms().clone(),
        generated
            .transactions()
            .iter()
            .filter(|tx| tx.tasks()[0].platform.0 < seeded_platforms)
            .cloned()
            .collect(),
    )
    .unwrap();
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let path = temp_journal("racing", seed);

    let mut first = Vec::new();
    let mut second = Vec::new();
    for thread in 0..threads {
        let mut churn = ChurnGen::new(&spec, seed.wrapping_mul(31).wrapping_add(thread as u64));
        let mut stream: Vec<Vec<AdmissionRequest>> =
            (0..batches).map(|_| churn.next_batch(&set, 3)).collect();
        second.push(stream.split_off(batches / 2));
        first.push(stream);
    }
    let service = SchedService::new(set.clone(), config.clone(), policy.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: service seed failed: {e}"))
        .with_journal(&path)
        .unwrap();
    let mut told = race(seed, Arc::new(service), first);
    let (restarted, _) = SchedService::replay(set.clone(), config.clone(), policy.clone(), &path)
        .unwrap_or_else(|e| panic!("seed {seed}: restart failed: {e}"));
    let service = Arc::new(restarted.with_auto_compact(AutoCompactPolicy {
        every_epochs: Some(16 + seed % 32),
        max_journal_bytes: None,
    }));
    told.extend(race(seed, Arc::clone(&service), second));

    // At rest, every shard is back on the one platform table (identity,
    // not equality: a stale-but-equal copy would pass every digest).
    assert!(service.idle_shards_hold_master(), "seed {seed}");

    // What each client was told while siblings were mid-analysis is what
    // a serial run of the same history reports for that epoch — the net
    // for merges, splits and fresh shards settling out from under
    // in-flight epochs. The serial run also counts those changes and
    // checks that every shard is exactly one island.
    let serial = SchedService::new(set.clone(), config.clone(), policy.clone()).unwrap();
    let mut counts = common::TopologyCounts::default();
    let mut before = common::islands_by_name(&serial.current_set());
    for (epoch, answer) in &told {
        let response = serial
            .submit(&EngineRequest::batch(answer.record.batch.clone()))
            .unwrap_or_else(|e| panic!("seed {seed} epoch {epoch}: serial run: {e}"));
        assert_eq!(response.epoch, *epoch, "seed {seed}");
        assert_eq!(
            (answer.transactions, answer.shards),
            (response.outcome.total_transactions, response.shards_live),
            "seed {seed} epoch {epoch}: (live transactions, live shards) told vs serial",
        );
        let after = common::islands_by_name(&serial.current_set());
        let islands: BTreeSet<usize> = after.values().copied().collect();
        assert_eq!(
            response.shards_live,
            islands.len(),
            "seed {seed} epoch {epoch}: one shard per island",
        );
        counts.count(&before, &after, response.shards_touched);
        before = after;
    }

    let history: Vec<JournalEpoch> = told.into_values().map(|answer| answer.record).collect();
    assert_eq!(history.len(), threads * batches, "seed {seed}");
    assert_journal_linearizes(seed, &service, set, config, policy, &path, &history);
    counts
}

/// What one epoch's client was told: its record (ticket, batch, verdict)
/// and the live transaction and shard counts of the response.
struct Answer {
    record: JournalEpoch,
    transactions: usize,
    shards: usize,
}

/// Races one client thread per stream against `service` and returns every
/// answer by epoch. Rejections are fine; engine errors are not. A watchdog
/// on the progress channel turns a parked front door into a failure naming
/// the seed instead of a hung test; the client threads are detached for
/// that reason (a scoped join would wait on the deadlock).
fn race(
    seed: u64,
    service: Arc<SchedService>,
    streams: Vec<Vec<Vec<AdmissionRequest>>>,
) -> BTreeMap<u64, Answer> {
    let expected: usize = streams.iter().map(Vec::len).sum();
    let (progress, watchdog) = mpsc::channel::<Result<Answer, String>>();
    let clients: Vec<_> = streams
        .into_iter()
        .enumerate()
        .map(|(thread, stream)| {
            let service = Arc::clone(&service);
            let progress = progress.clone();
            std::thread::spawn(move || {
                for (step, batch) in stream.into_iter().enumerate() {
                    let outcome = service
                        .submit(&EngineRequest::batch(batch.clone()))
                        .map(|r| Answer {
                            record: JournalEpoch {
                                epoch: r.epoch,
                                batch,
                                admitted: r.outcome.verdict.admitted(),
                            },
                            transactions: r.outcome.total_transactions,
                            shards: r.shards_live,
                        })
                        .map_err(|e| format!("thread {thread} step {step}: {e}"));
                    let failed = outcome.is_err();
                    if progress.send(outcome).is_err() || failed {
                        return;
                    }
                }
            })
        })
        .collect();
    drop(progress);
    let mut told = BTreeMap::new();
    loop {
        match watchdog.recv_timeout(Duration::from_secs(60)) {
            Ok(Ok(answer)) => {
                told.insert(answer.record.epoch, answer);
            }
            Ok(Err(message)) => panic!("seed {seed}: after {} epochs: {message}", told.len()),
            Err(RecvTimeoutError::Timeout) => panic!(
                "seed {seed}: no progress in 60 s after {} of {expected} epochs \
                 (clients parked at the front door)",
                told.len(),
            ),
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for client in clients {
        client.join().expect("client thread panicked");
    }
    told
}

/// 2 threads × 150 batches of the full churn mix over one system, one
/// session per seed. Together the sessions must have changed topology every
/// way while sibling epochs were in flight.
#[test]
fn racing_clients_linearize() {
    let mut counts = common::TopologyCounts::default();
    for case in 0..u64::from(stress_cases(4)) {
        let seed = case.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 50;
        counts.add(racing_churn_session(seed, 2, 150));
    }
    println!("racing_clients_linearize: {counts:?}");
    assert!(
        counts.multi_shard > 0 && counts.merges > 0 && counts.mints > 0 && counts.splits > 0,
        "the racing sessions left a topology change untested: {counts:?}"
    );
}

/// `submit_async` + `sync(w)`: epochs settle without touching the disk
/// watermark, `sync` advances it (group commit may cover more than asked),
/// and the journal replays every settled epoch byte-identically.
#[test]
fn submit_async_sync_watermark_durability() {
    let spec = spec_for(42, 2);
    let set = random_scenario(&spec);
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let path = temp_journal("async", 42);

    let service = SchedService::new(set.clone(), config.clone(), policy.clone())
        .unwrap()
        .with_journal(&path)
        .unwrap();
    assert_eq!(service.durable_epoch(), 0, "nothing synced yet");

    let mut churn = ChurnGen::new(&spec, 99);
    let mut tickets = Vec::new();
    for _ in 0..4 {
        let batch = churn.next_batch(&service.current_set(), 2);
        let ticket = service.submit_async(&EngineRequest::batch(batch)).unwrap();
        tickets.push(ticket);
    }
    assert_eq!(
        tickets.iter().map(|t| t.epoch).collect::<Vec<_>>(),
        vec![1, 2, 3, 4],
        "tickets are consecutive"
    );
    for ticket in &tickets {
        assert_eq!(ticket.response.epoch, ticket.epoch);
    }
    // Settled but not yet known durable.
    assert_eq!(service.epoch(), 4);
    assert_eq!(service.durable_epoch(), 0);

    // sync(2) must cover at least epoch 2; group commit covers every
    // record written before the fsync started — here, all four.
    let covered = service.sync(2).unwrap();
    assert!(covered >= 2, "sync(2) covered only {covered}");
    assert!(service.durable_epoch() >= 2);

    // A watermark beyond the settled ticket clamps to it.
    let covered = service.sync(u64::MAX).unwrap();
    assert_eq!(covered, 4);
    assert_eq!(service.durable_epoch(), 4);

    // The journal holds exactly the settled epochs, in ticket order, and
    // replays to the same digest.
    let contents = read_journal(&path).unwrap();
    assert_eq!(contents.epochs.len(), 4);
    let digest = service.state_digest();
    let (replayed, stats) = SchedService::replay(set, config, policy, &path).unwrap();
    assert_eq!(stats.tail_records, 4);
    assert_eq!(replayed.state_digest(), digest);

    // `submit` is submit_async + sync: the watermark tracks it with no
    // explicit sync call.
    let batch = churn.next_batch(&service.current_set(), 2);
    service.submit(&EngineRequest::batch(batch)).unwrap();
    assert_eq!(service.epoch(), 5);
    assert_eq!(service.durable_epoch(), 5);

    // Why pipelining can only win: the four async epochs shared one
    // flush, the lock-step `submit` paid one of its own.
    let snap = service.metrics();
    let flushes = snap.histogram("engine.sync.batch_epochs").unwrap();
    assert_eq!((flushes.count(), flushes.sum()), (2, 5));
    let _ = std::fs::remove_file(&path);
}
