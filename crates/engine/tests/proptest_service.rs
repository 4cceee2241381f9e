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
//! (c) **numeric parity** — the service-wide utilization poison map
//!     reproduces the single controller's global checked utilization scan
//!     on overflow-boundary scenarios (covered by a deterministic test
//!     below since generated scenarios keep magnitudes sane);
//!
//! (d) **racing clients** — the same linearizability contract with every
//!     client on the *same* islands and the full churn mix (retunes,
//!     merges, splits and fresh shards included, all while sibling epochs
//!     are in flight), behind a watchdog that turns a parked front door
//!     into a failure naming the seed.

use hsched_admission::gen::{random_scenario, ChurnGen, ScenarioSpec};
use hsched_admission::{
    AdmissionController, AdmissionPolicy, AdmissionRequest, RejectReason, UnionFind, Verdict,
};
use hsched_analysis::{analyze_with, AnalysisConfig};
use hsched_engine::{read_journal, EngineError, EngineRequest, SchedService};
use hsched_numeric::{rat, Rational};
use hsched_platform::{Platform, PlatformId, PlatformSet};
use hsched_transaction::{Task, Transaction, TransactionSet};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
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

/// One compaction session: churn → snapshot → churn → crash at a random
/// byte of the tail → replay resumes from snapshot + surviving records.
fn compaction_crash_session(seed: u64, cut_fraction: (u64, u64)) {
    let spec = spec_for(seed, 4);
    let set = random_scenario(&spec);
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let path = temp_journal("compact", seed);

    let service = SchedService::new(set.clone(), config.clone(), policy.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: service seed failed: {e}"))
        .with_journal(&path)
        .unwrap();
    let mut churn = ChurnGen::new(&spec, seed.wrapping_mul(0x517c_c1b7).wrapping_add(11));
    for _ in 0..3 {
        let batch = churn.next_batch(&service.current_set(), 3);
        service.submit(&EngineRequest::batch(batch)).unwrap();
    }
    let info = service.snapshot().unwrap();
    assert_eq!(info.epoch, 3, "seed {seed}");
    let compacted_bytes = std::fs::metadata(&path).unwrap().len();
    assert_eq!(info.compacted_bytes, compacted_bytes);

    // digests[k] = reference state after k post-snapshot epochs.
    let mut digests = vec![service.state_digest()];
    assert_eq!(
        digests[0], info.digest,
        "snapshot digest is the live digest"
    );
    for _ in 0..4 {
        let batch = churn.next_batch(&service.current_set(), 3);
        service.submit(&EngineRequest::batch(batch)).unwrap();
        digests.push(service.state_digest());
    }
    drop(service); // crash

    let bytes = std::fs::read(&path).unwrap();
    let tail = bytes.len() as u64 - compacted_bytes;
    let cut = compacted_bytes + tail * cut_fraction.0 / cut_fraction.1;
    std::fs::write(&path, &bytes[..cut as usize]).unwrap();

    let (replayed, stats) =
        SchedService::replay(set.clone(), config.clone(), policy.clone(), &path)
            .unwrap_or_else(|e| panic!("seed {seed} cut {cut}: replay failed: {e}"));
    let epochs = stats.tail_records;
    assert!(epochs <= 4, "seed {seed}");
    assert_eq!(
        replayed.epoch(),
        3 + epochs as u64,
        "seed {seed}: tickets resume after the snapshot epoch"
    );
    assert_eq!(
        replayed.state_digest(),
        digests[epochs],
        "seed {seed} cut {cut}: diverged from the reference after {epochs} tail epochs"
    );
    // The repaired journal keeps serving.
    let batch = churn.next_batch(&replayed.current_set(), 2);
    replayed.submit(&EngineRequest::batch(batch)).unwrap();

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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random crash points in the post-compaction tail.
    #[test]
    fn compaction_replay_is_byte_identical_after_crash(
        seed in 0u64..5_000,
        num in 0u64..=100,
    ) {
        compaction_crash_session(seed, (num, 100));
    }
}

/// Deterministic compaction smoke: full tail and a mid-tail tear.
#[test]
fn compaction_crash_seed_zero() {
    compaction_crash_session(0, (100, 100));
    compaction_crash_session(0, (40, 100));
}

/// A concurrent heal of a poisoned island must serialize against disjoint
/// epochs: whichever ticket order the service picks, the journal has to
/// replay to the same verdicts (regression test — the reserve-time parity
/// rejection used to race the in-flight healer and record a rejection
/// that replayed as admitted).
#[test]
fn concurrent_poison_heal_replays_serially() {
    for round in 0..6u64 {
        let mut platforms = PlatformSet::new();
        let a = platforms.add(Platform::dedicated("A"));
        let b = platforms.add(Platform::dedicated("B"));
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
        let path = temp_journal("poisonheal", round);
        let service = SchedService::new(set.clone(), config.clone(), policy.clone())
            .unwrap()
            .with_max_inflight(4)
            .with_journal(&path)
            .unwrap();

        std::thread::scope(|scope| {
            // Healer: touches the poisoned island B.
            let healer = &service;
            scope.spawn(move || {
                let heal: Vec<AdmissionRequest> = (0..4)
                    .map(|i| AdmissionRequest::RemoveTransaction {
                        name: format!("hostile{i}"),
                    })
                    .collect();
                healer.submit(&EngineRequest::batch(heal)).unwrap();
            });
            // Disjoint client on island A, racing the healer.
            let client = &service;
            scope.spawn(move || {
                for k in 0..3 {
                    let tx = Transaction::new(
                        format!("x{k}"),
                        rat(10, 1),
                        rat(10, 1),
                        vec![Task::new(format!("x{k}.t"), rat(1, 1), rat(1, 1), 2, a)],
                    )
                    .unwrap();
                    client
                        .submit(&EngineRequest::batch(vec![
                            AdmissionRequest::AddTransaction(tx),
                        ]))
                        .unwrap();
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

/// (c) Cross-island numeric parity: a seeded island whose exact
/// utilization sum overflows i128 (huge coprime periods) — but whose
/// response-time analysis stays in range — poisons *every* epoch of the
/// single controller's global scan. The service must reject identically
/// on batches that never touch that island, and heal identically once a
/// batch does.
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

    let fresh = |name: &str| {
        AdmissionRequest::AddTransaction(
            Transaction::new(
                name,
                rat(10, 1),
                rat(10, 1),
                vec![Task::new(format!("{name}.t"), rat(1, 1), rat(1, 1), 2, a)],
            )
            .unwrap(),
        )
    };

    // An island-A batch: the single controller's global scan overflows on
    // island B and rejects Numeric — the service must agree even though it
    // never touches B.
    let outcome = single.commit(&[fresh("x1")]);
    assert!(
        matches!(outcome.verdict, Verdict::Rejected(RejectReason::Numeric(_))),
        "single controller: {}",
        outcome.verdict
    );
    let response = service
        .submit(&EngineRequest::batch(vec![fresh("x1")]))
        .unwrap();
    assert!(
        matches!(
            response.outcome.verdict,
            Verdict::Rejected(RejectReason::Numeric(_))
        ),
        "service: {}",
        response.outcome.verdict
    );

    // Healing: remove enough hostile transactions that the sum computes.
    let heal: Vec<AdmissionRequest> = (0..4)
        .map(|i| AdmissionRequest::RemoveTransaction {
            name: format!("hostile{i}"),
        })
        .collect();
    let outcome = single.commit(&heal);
    assert!(
        outcome.verdict.admitted(),
        "single heal: {}",
        outcome.verdict
    );
    let response = service.submit(&EngineRequest::batch(heal)).unwrap();
    assert!(
        response.outcome.verdict.admitted(),
        "service heal: {}",
        response.outcome.verdict
    );

    // Both now admit island-A traffic again.
    let outcome = single.commit(&[fresh("x2")]);
    assert!(outcome.verdict.admitted(), "{}", outcome.verdict);
    let response = service
        .submit(&EngineRequest::batch(vec![fresh("x2")]))
        .unwrap();
    assert!(
        response.outcome.verdict.admitted(),
        "{}",
        response.outcome.verdict
    );
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

    assert_journal_linearizes(
        seed,
        &service,
        set,
        config,
        policy,
        &path,
        threads * batches,
    );
}

/// The verdict both contended sessions end on: the engine settled `epochs`
/// epochs, its journal is a consecutive-ticket serialization of the
/// concurrent run, serial single-controller application reproduces every
/// journaled verdict, and a serial replay is byte-identical to the live
/// engine. Removes the journal on success.
fn assert_journal_linearizes(
    seed: u64,
    service: &SchedService,
    set: TransactionSet,
    config: AnalysisConfig,
    policy: AdmissionPolicy,
    path: &Path,
    epochs: usize,
) {
    let digest = service.state_digest();
    assert_eq!(service.epoch(), epochs as u64, "seed {seed}");

    // Consecutive tickets: the WAL is a serialization of the concurrent run.
    let contents = read_journal(path).unwrap();
    assert_eq!(contents.epochs.len(), epochs, "seed {seed}");
    for (i, record) in contents.epochs.iter().enumerate() {
        assert_eq!(record.epoch, i as u64 + 1, "seed {seed}: ticket order");
    }

    // Serial single-controller application reproduces every verdict.
    let mut single = AdmissionController::new(set.clone(), config.clone(), policy.clone())
        .unwrap_or_else(|e| panic!("seed {seed}: controller seed failed: {e}"));
    for record in &contents.epochs {
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
    assert_eq!(stats.tail_records, epochs, "seed {seed}");
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
/// are in flight.
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
/// any other epoch. A watchdog on the progress channel turns a parked front
/// door into a failure instead of a hung test; the client threads are
/// detached for that reason (a scoped join would wait on the deadlock).
///
/// Returns how the session's epochs changed shard topology, counted on the
/// serial re-run of its journal.
fn racing_churn_session(seed: u64, threads: usize, batches: usize) -> TopologyCounts {
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

    let service = Arc::new(
        SchedService::new(set.clone(), config.clone(), policy.clone())
            .unwrap_or_else(|e| panic!("seed {seed}: service seed failed: {e}"))
            .with_journal(&path)
            .unwrap(),
    );

    // Per settled epoch, what the client was told: (epoch, live
    // transactions, live shards).
    let (progress, watchdog) = mpsc::channel::<Result<(u64, usize, usize), String>>();
    let clients: Vec<_> = (0..threads)
        .map(|thread| {
            let mut churn = ChurnGen::new(&spec, seed.wrapping_mul(31).wrapping_add(thread as u64));
            let stream: Vec<Vec<AdmissionRequest>> =
                (0..batches).map(|_| churn.next_batch(&set, 3)).collect();
            let service = Arc::clone(&service);
            let progress = progress.clone();
            std::thread::spawn(move || {
                for (step, batch) in stream.into_iter().enumerate() {
                    // Rejections are fine; engine errors are not.
                    let outcome = service
                        .submit(&EngineRequest::batch(batch))
                        .map(|r| (r.epoch, r.outcome.total_transactions, r.shards_live))
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
    let mut told: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    loop {
        match watchdog.recv_timeout(Duration::from_secs(60)) {
            Ok(Ok((epoch, transactions, shards))) => {
                told.insert(epoch, (transactions, shards));
            }
            Ok(Err(message)) => panic!("seed {seed}: after {} epochs: {message}", told.len()),
            Err(RecvTimeoutError::Timeout) => panic!(
                "seed {seed}: no progress in 60 s after {} of {} epochs \
                 (clients parked at the front door)",
                told.len(),
                threads * batches
            ),
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    for client in clients {
        client.join().expect("client thread panicked");
    }

    // At rest, every shard is back on the one platform table (identity,
    // not equality: a stale-but-equal copy would pass every digest).
    assert!(service.idle_shards_hold_master(), "seed {seed}");

    // What each client was told while siblings were mid-analysis is what
    // a serial run of the same journal reports for that epoch — the net
    // for merges, splits and fresh shards settling out from under
    // in-flight epochs. The serial run also counts those changes and
    // checks that every shard is exactly one island.
    let serial = SchedService::new(set.clone(), config.clone(), policy.clone()).unwrap();
    let mut counts = TopologyCounts::default();
    let mut before = islands_by_name(&serial.current_set());
    for record in &read_journal(&path).unwrap().epochs {
        let response = serial
            .submit(&EngineRequest::batch(record.batch.clone()))
            .unwrap_or_else(|e| panic!("seed {seed} epoch {}: serial run: {e}", record.epoch));
        assert_eq!(
            told.get(&response.epoch),
            Some(&(response.outcome.total_transactions, response.shards_live)),
            "seed {seed} epoch {}: (live transactions, live shards) told vs serial",
            response.epoch
        );
        let after = islands_by_name(&serial.current_set());
        let islands: BTreeSet<usize> = after.values().copied().collect();
        assert_eq!(
            response.shards_live,
            islands.len(),
            "seed {seed} epoch {}: one shard per island",
            response.epoch
        );
        counts.count(&before, &after, response.shards_touched);
        before = after;
    }

    assert_journal_linearizes(
        seed,
        &service,
        set,
        config,
        policy,
        &path,
        threads * batches,
    );
    counts
}

/// Each live transaction's island (the partition recomputed test-side):
/// transaction name → an island id, comparable within one map only.
fn islands_by_name(set: &TransactionSet) -> HashMap<String, usize> {
    let mut uf = UnionFind::new(set.platforms().len());
    for tx in set.transactions() {
        for task in tx.tasks() {
            uf.union(tx.tasks()[0].platform.0, task.platform.0);
        }
    }
    set.transactions()
        .iter()
        .map(|tx| (tx.name.clone(), uf.find(tx.tasks()[0].platform.0)))
        .collect()
}

/// Epochs that touched ≥ 2 shards, merged shards, minted one, and split
/// one.
#[derive(Debug, Default, Clone, Copy)]
struct TopologyCounts {
    multi_shard: usize,
    merges: usize,
    mints: usize,
    splits: usize,
}

impl TopologyCounts {
    /// Classifies one epoch from the islands before and after it.
    fn count(
        &mut self,
        before: &HashMap<String, usize>,
        after: &HashMap<String, usize>,
        shards_touched: usize,
    ) {
        // After-island → the before-islands its survivors came from, and
        // before-island → the after-islands its survivors went to.
        let mut sources: HashMap<usize, BTreeSet<usize>> = HashMap::new();
        let mut sinks: HashMap<usize, BTreeSet<usize>> = HashMap::new();
        for (name, &to) in after {
            let from = sources.entry(to).or_default();
            if let Some(&was) = before.get(name) {
                from.insert(was);
                sinks.entry(was).or_default().insert(to);
            }
        }
        self.multi_shard += usize::from(shards_touched >= 2);
        self.merges += usize::from(sources.values().any(|s| s.len() >= 2));
        self.mints += usize::from(sources.values().any(BTreeSet::is_empty));
        self.splits += usize::from(sinks.values().any(|s| s.len() >= 2));
    }

    fn add(&mut self, other: TopologyCounts) {
        self.multi_shard += other.multi_shard;
        self.merges += other.merges;
        self.mints += other.mints;
        self.splits += other.splits;
    }
}

/// 2 threads × 150 batches of the full churn mix over one system, one
/// session per seed. Together the sessions must have changed topology every
/// way while sibling epochs were in flight.
#[test]
fn racing_clients_linearize() {
    let mut counts = TopologyCounts::default();
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
