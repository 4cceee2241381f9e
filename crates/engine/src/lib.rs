//! The sharded admission engine: the service layer of online admission.
//!
//! PR 2's [`hsched_admission::AdmissionController`] made admission
//! *incremental*; PR 3 made it a sharded engine; this crate's
//! [`SchedService`] makes it a *concurrent service*. The live set is
//! partitioned by platform-sharing interference islands (the same
//! partition that drives dirty tracking), one shard controller per island,
//! and the front door is a shared-reference `&self`
//! [`SchedService::submit`]: many client threads commit epochs
//! concurrently, each batch routed to exactly the shards it touches,
//! checked out under a lock-per-shard slot table and committed once on
//! their merge — exact, because interference cannot cross island
//! boundaries. An epoch *ticket* totally
//! orders concurrent epochs, so the write-ahead journal is a
//! serialization of the concurrent history and [`SchedService::replay`]
//! rebuilds a byte-identical engine (the linearizability property suite
//! fires N client threads and asserts exactly this). Long-lived journals
//! compact via [`SchedService::snapshot`] (state snapshot + truncation);
//! replay resumes from snapshot + tail.
//!
//! Around that core, the public API:
//!
//! * **Typed handles** — every admitted transaction gets a stable
//!   [`TxnId`]; removal by handle ([`EngineOp::Remove`]) cannot race a name
//!   reuse, and a stale handle fails with a typed [`EngineError`] instead
//!   of a string.
//! * **Versioned envelope** — [`EngineRequest`]/[`EngineResponse`]
//!   (schema [`SCHEMA_VERSION`], v2: epoch ticket + shard set) are shared
//!   by the library API, `hsched admit`, `hsched replay`, `hsched
//!   compact`, and the `--json` serializer.
//! * **Write-ahead journal** — every committed epoch (admitted *and*
//!   rejected, so the epoch counter and shard topology replay exactly) is
//!   appended — and group-commit synced — before the response returns;
//!   torn tails are repaired, and replay streams records in O(1) memory.
//!
//! # Example
//!
//! ```
//! use hsched_engine::{EngineOp, EngineRequest, SchedService};
//! use hsched_admission::{AdmissionPolicy, AdmissionRequest};
//! use hsched_analysis::AnalysisConfig;
//! use hsched_numeric::rat;
//! use hsched_platform::{Platform, PlatformId, PlatformSet};
//! use hsched_transaction::{Task, Transaction, TransactionSet};
//!
//! // Two dedicated platforms → two islands → two shards.
//! let mut platforms = PlatformSet::new();
//! let a = platforms.add(Platform::dedicated("A"));
//! let b = platforms.add(Platform::dedicated("B"));
//! let tx = |name: &str, p| {
//!     Transaction::new(
//!         name,
//!         rat(10, 1),
//!         rat(10, 1),
//!         vec![Task::new(format!("{name}_t"), rat(1, 1), rat(1, 1), 1, p)],
//!     )
//!     .unwrap()
//! };
//! let set = TransactionSet::new(platforms, vec![tx("left", a), tx("right", b)]).unwrap();
//! let engine =
//!     SchedService::new(set, AnalysisConfig::default(), AdmissionPolicy::default()).unwrap();
//! assert_eq!(engine.shard_count(), 2);
//!
//! // Two client threads submit to the two islands truly concurrently —
//! // `submit` takes `&self`.
//! std::thread::scope(|scope| {
//!     for (name, platform) in [("left2", a), ("right2", b)] {
//!         let engine = &engine;
//!         let tx = tx(name, platform);
//!         scope.spawn(move || {
//!             let response = engine
//!                 .submit(&EngineRequest::batch(vec![
//!                     AdmissionRequest::AddTransaction(tx),
//!                 ]))
//!                 .unwrap();
//!             assert!(response.outcome.verdict.admitted());
//!         });
//!     }
//! });
//! assert_eq!(engine.live_transactions(), 4);
//!
//! // Arrivals got stable handles; removal by handle is the typed path.
//! let id = engine.resolve("left2").unwrap();
//! let response = engine
//!     .submit(&EngineRequest::new(vec![EngineOp::Remove(id)]))
//!     .unwrap();
//! assert!(response.outcome.verdict.admitted());
//! assert_eq!(engine.live_transactions(), 3);
//! ```

#![warn(missing_docs)]

mod digest;
mod envelope;
mod journal;
mod metrics;
mod routing;
mod service;
mod snapshot;
mod sync;

pub use digest::{fnv1a_64, fnv1a_64_extend};
pub use envelope::{
    EngineError, EngineOp, EngineRequest, EngineResponse, EpochTicket, EpochTimings, TxnId,
    SCHEMA_VERSION,
};
pub use journal::{
    decode_request, encode_request, esc, read_journal, unesc, DurableMark, JournalContents,
    JournalEpoch, JournalStream, JournalSubscriber, JournalWriter,
};
pub use metrics::EngineMetrics;
pub use service::{AutoCompactPolicy, ReplayStats, SchedService, SnapshotInfo};
pub use snapshot::{Snapshot, SnapshotInstance, SnapshotPlatform, SnapshotTxn};

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_admission::{AdmissionPolicy, AdmissionRequest, RejectReason, Verdict};
    use hsched_analysis::{analyze_with, AnalysisConfig};
    use hsched_numeric::rat;
    use hsched_platform::{Platform, PlatformId, PlatformSet};
    use hsched_transaction::{paper_example, Task, Transaction, TransactionSet};

    fn tx_on(name: &str, p: PlatformId) -> Transaction {
        Transaction::new(
            name,
            rat(10, 1),
            rat(10, 1),
            vec![Task::new(format!("{name}_t"), rat(1, 1), rat(1, 1), 1, p)],
        )
        .unwrap()
    }

    fn two_island_engine() -> (SchedService, PlatformId, PlatformId) {
        let mut platforms = PlatformSet::new();
        let a = platforms.add(Platform::dedicated("A"));
        let b = platforms.add(Platform::dedicated("B"));
        let set =
            TransactionSet::new(platforms, vec![tx_on("left", a), tx_on("right", b)]).unwrap();
        let engine =
            SchedService::new(set, AnalysisConfig::default(), AdmissionPolicy::default()).unwrap();
        (engine, a, b)
    }

    #[test]
    fn seeding_splits_into_island_shards_and_mints_ids() {
        let (engine, _, _) = two_island_engine();
        assert_eq!(engine.shard_count(), 2);
        assert_eq!(engine.live_transactions(), 2);
        let left = engine.resolve("left").unwrap();
        assert_eq!(engine.name_of(left).as_deref(), Some("left"));
        assert!(engine.schedulable());
        // Aggregate report equals a from-scratch analysis (content-wise).
        let fresh = analyze_with(&engine.current_set(), &AnalysisConfig::default()).unwrap();
        assert_eq!(engine.report().tasks, fresh.tasks);
        assert_eq!(engine.report().verdicts, fresh.verdicts);
    }

    #[test]
    fn version_mismatch_is_a_typed_error_and_consumes_no_epoch() {
        let (engine, _, _) = two_island_engine();
        // Exactly the current schema is accepted: a newer version and the
        // retired v1 are refused alike.
        for version in [99, 1] {
            let mut request = EngineRequest::batch(vec![]);
            request.version = version;
            assert_eq!(
                engine.submit(&request),
                Err(EngineError::UnsupportedVersion {
                    found: version,
                    supported: SCHEMA_VERSION
                })
            );
        }
        assert_eq!(engine.epoch(), 0);
    }

    #[test]
    fn unknown_handle_is_a_typed_error() {
        let (engine, _, _) = two_island_engine();
        let err = engine
            .submit(&EngineRequest::new(vec![EngineOp::Remove(TxnId(999))]))
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownTxn(TxnId(999)));
        assert_eq!(engine.epoch(), 0, "no epoch consumed");

        // A departed transaction's handle goes stale.
        let id = engine.resolve("left").unwrap();
        let response = engine
            .submit(&EngineRequest::new(vec![EngineOp::Remove(id)]))
            .unwrap();
        assert!(response.outcome.verdict.admitted());
        assert_eq!(
            engine.submit(&EngineRequest::new(vec![EngineOp::Remove(id)])),
            Err(EngineError::UnknownTxn(id))
        );
    }

    #[test]
    fn bridging_arrival_merges_shards_and_departure_splits_them() {
        let (engine, a, b) = two_island_engine();
        let bridge = Transaction::new(
            "bridge",
            rat(20, 1),
            rat(20, 1),
            vec![
                Task::new("b0", rat(1, 1), rat(1, 1), 2, a),
                Task::new("b1", rat(1, 1), rat(1, 1), 2, b),
            ],
        )
        .unwrap();
        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::AddTransaction(bridge),
            ]))
            .unwrap();
        assert!(response.outcome.verdict.admitted());
        assert_eq!(engine.shard_count(), 1, "islands merged into one shard");

        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::RemoveTransaction {
                    name: "bridge".into(),
                },
            ]))
            .unwrap();
        assert!(response.outcome.verdict.admitted());
        assert_eq!(engine.shard_count(), 2, "departure splits the islands");
        let fresh = analyze_with(&engine.current_set(), &AnalysisConfig::default()).unwrap();
        assert_eq!(engine.report().tasks, fresh.tasks);
    }

    #[test]
    fn cross_shard_batch_is_atomic() {
        let (engine, a, b) = two_island_engine();
        let set_before = engine.current_set();
        let report_before = engine.report();
        // Island A gets a fine arrival, island B an overload: the whole
        // epoch must reject and island A must roll back.
        let hog = Transaction::new(
            "hog",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("h", rat(11, 1), rat(11, 1), 9, b)],
        )
        .unwrap();
        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::AddTransaction(tx_on("fine", a)),
                AdmissionRequest::AddTransaction(hog),
            ]))
            .unwrap();
        assert!(matches!(
            response.outcome.verdict,
            Verdict::Rejected(RejectReason::Overload { .. })
        ));
        assert_eq!(engine.live_transactions(), 2);
        assert_eq!(engine.current_set(), set_before, "set rolled back");
        assert_eq!(engine.report(), report_before, "cached results rolled back");
    }

    #[test]
    fn retune_routes_to_the_owning_island_and_propagates() {
        let set = paper_example::transactions();
        let engine =
            SchedService::new(set, AnalysisConfig::default(), AdmissionPolicy::default()).unwrap();
        let response = engine
            .submit(&EngineRequest::batch(vec![AdmissionRequest::Retune {
                platform: PlatformId(2),
                alpha: rat(3, 10),
                delta: rat(1, 1),
                beta: rat(1, 1),
            }]))
            .unwrap();
        assert!(response.outcome.verdict.admitted());
        assert_eq!(
            engine.current_set().platforms()[PlatformId(2)].alpha(),
            rat(3, 10)
        );
        let fresh = analyze_with(&engine.current_set(), &AnalysisConfig::default()).unwrap();
        assert_eq!(engine.report().tasks, fresh.tasks);
    }

    #[test]
    fn empty_batch_is_an_epoch_and_tracks_schedulability() {
        let (engine, _, _) = two_island_engine();
        let response = engine.submit(&EngineRequest::batch(vec![])).unwrap();
        assert!(response.outcome.verdict.admitted());
        assert_eq!(engine.epoch(), 1);
        assert_eq!(response.shards_touched, 0);
    }

    #[test]
    fn unschedulable_foreign_shard_does_not_block_admission() {
        // Shard B is seeded unschedulable; an arrival on shard A is judged
        // on A alone and admitted, and B keeps missing until healed.
        let mut platforms = PlatformSet::new();
        let a = platforms.add(Platform::dedicated("A"));
        let b = platforms.add(Platform::linear("B", rat(1, 10), rat(0, 1), rat(0, 1)).unwrap());
        let hog = Transaction::new(
            "hog",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("h", rat(2, 1), rat(2, 1), 1, b)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![tx_on("good", a), hog]).unwrap();
        let engine = SchedService::new(
            set.clone(),
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
        )
        .unwrap();
        assert!(!engine.schedulable());
        let arrival = vec![AdmissionRequest::AddTransaction(tx_on("more", a))];
        let response = engine
            .submit(&EngineRequest::batch(arrival.clone()))
            .unwrap();
        assert!(response.outcome.verdict.admitted());
        assert!(!engine.schedulable());

        // A journal holding that admitted record replays, structurally and
        // verified, to the live state.
        let path = forged_journal("foreign-unsched", 2, &[(arrival, true)]);
        for replay in [SchedService::replay, SchedService::replay_verified] {
            let (replayed, _) = replay(
                set.clone(),
                AnalysisConfig::default(),
                AdmissionPolicy::default(),
                &path,
            )
            .unwrap();
            assert_eq!(replayed.state_digest(), engine.state_digest());
        }
        let _ = std::fs::remove_file(&path);

        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::RemoveTransaction { name: "hog".into() },
            ]))
            .unwrap();
        assert!(
            response.outcome.verdict.admitted(),
            "healing removal admits"
        );
        assert!(engine.schedulable());
    }

    #[test]
    fn rejection_names_only_the_misses_of_touched_shards() {
        // Island B is unschedulable at rest (`hog` misses its deadline); the
        // batch's own island A misses too. Both engines judge A alone, so
        // their reason names the newcomer only.
        let mut platforms = PlatformSet::new();
        let a = platforms.add(Platform::dedicated("A"));
        let b = platforms.add(Platform::linear("B", rat(1, 10), rat(0, 1), rat(0, 1)).unwrap());
        let hog = Transaction::new(
            "hog",
            rat(10, 1),
            rat(1, 1),
            vec![Task::new("h", rat(1, 2), rat(1, 2), 1, b)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![tx_on("good", a), hog]).unwrap();
        let newcomer = Transaction::new(
            "newcomer",
            rat(10, 1),
            rat(2, 1),
            vec![Task::new("n", rat(3, 1), rat(3, 1), 9, a)],
        )
        .unwrap();
        let batch = vec![AdmissionRequest::AddTransaction(newcomer)];
        let mut single = hsched_admission::AdmissionController::new(
            set.clone(),
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
        )
        .unwrap();
        let engine =
            SchedService::new(set, AnalysisConfig::default(), AdmissionPolicy::default()).unwrap();
        let expected = Verdict::Rejected(RejectReason::Unschedulable {
            misses: vec!["newcomer".to_string()],
        });
        assert_eq!(single.commit(&batch).verdict, expected);
        let response = engine.submit(&EngineRequest::batch(batch)).unwrap();
        assert_eq!(response.outcome.verdict, expected);
    }

    #[test]
    fn both_engines_reject_an_instance_without_transactions() {
        // `good` runs on A, an unschedulable `hog` on B, and C is free. A
        // class with no threads, or only an event-triggered one while
        // external stimuli are off, flattens to no transaction: both engines
        // reject it as structural on every platform, before and after a
        // bridge joins A and C and leaves again and a snapshot compacts the
        // journal. Every replay reaches the live state, and a forged
        // admitted record of the add does not apply.
        use hsched_model::{Action, ComponentClass, ProvidedMethod, ThreadSpec};
        let mut platforms = PlatformSet::new();
        let a = platforms.add(Platform::dedicated("A"));
        let b = platforms.add(Platform::linear("B", rat(1, 10), rat(0, 1), rat(0, 1)).unwrap());
        let c = platforms.add(Platform::dedicated("C"));
        let hog = Transaction::new(
            "hog",
            rat(10, 1),
            rat(1, 1),
            vec![Task::new("h", rat(1, 2), rat(1, 2), 1, b)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![tx_on("good", a), hog]).unwrap();
        let bridge = Transaction::new(
            "bridge",
            rat(20, 1),
            rat(20, 1),
            vec![
                Task::new("b0", rat(1, 1), rat(1, 1), 2, a),
                Task::new("b1", rat(1, 1), rat(1, 1), 2, c),
            ],
        )
        .unwrap();
        let on_call = ComponentClass::new("OnCall")
            .provides(ProvidedMethod::new("poke", rat(50, 1)))
            .thread(ThreadSpec::realizes(
                "Poke",
                "poke",
                1,
                vec![Action::task("p", rat(1, 1), rat(1, 1))],
            ));
        let quiet = AdmissionPolicy {
            external_stimuli: false,
            ..AdmissionPolicy::default()
        };
        let cases = [
            (ComponentClass::new("Idle"), AdmissionPolicy::default()),
            (on_call, quiet),
        ];
        for (k, (class, policy)) in cases.into_iter().enumerate() {
            let add_on = |platform| {
                vec![AdmissionRequest::AddInstance {
                    name: "empty".into(),
                    class: class.clone(),
                    platform,
                    node: 0,
                }]
            };
            let empty = Verdict::Rejected(RejectReason::Structural(format!(
                "class `{}` flattens to no transaction",
                class.name
            )));
            let unknown =
                Verdict::Rejected(RejectReason::Structural("no instance named `empty`".into()));
            let remove = vec![AdmissionRequest::RemoveInstance {
                name: "empty".into(),
            }];
            let seed = || {
                SchedService::new(set.clone(), AnalysisConfig::default(), policy.clone()).unwrap()
            };
            let path = std::env::temp_dir().join(format!(
                "hsched-engine-test-empty-instance-{k}-{}.journal",
                std::process::id()
            ));
            let engine = seed().with_journal(&path).unwrap();
            let mut single = hsched_admission::AdmissionController::new(
                set.clone(),
                AnalysisConfig::default(),
                policy.clone(),
            )
            .unwrap();
            let mut history = vec![
                (add_on(c), empty.clone()),
                (remove.clone(), unknown.clone()),
                (add_on(a), empty.clone()),
                (add_on(b), empty.clone()),
                (
                    vec![AdmissionRequest::AddTransaction(bridge.clone())],
                    Verdict::Admitted,
                ),
                (
                    vec![AdmissionRequest::RemoveTransaction {
                        name: "bridge".into(),
                    }],
                    Verdict::Admitted,
                ),
                (remove.clone(), unknown.clone()),
                (add_on(a), empty.clone()),
            ];
            let tail = history.split_off(4);
            let mut run = |history: Vec<(Vec<AdmissionRequest>, Verdict)>| {
                for (batch, expected) in history {
                    assert_eq!(single.commit(&batch).verdict, expected);
                    let response = engine.submit(&EngineRequest::batch(batch)).unwrap();
                    assert_eq!(response.outcome.verdict, expected);
                }
            };
            run(history);
            let standby = seed();
            for record in read_journal(&path).unwrap().epochs {
                standby.apply_journal_record(&record).unwrap();
            }
            standby.refresh().unwrap();
            assert_eq!(standby.state_digest(), engine.state_digest());
            engine.snapshot().unwrap();
            run(tail);
            let digest = engine.state_digest();
            drop(engine);

            for replay in [SchedService::replay, SchedService::replay_verified] {
                let (replayed, _) = replay(
                    set.clone(),
                    AnalysisConfig::default(),
                    policy.clone(),
                    &path,
                )
                .unwrap();
                assert_eq!(replayed.state_digest(), digest);
            }
            let _ = std::fs::remove_file(&path);

            let path = forged_journal("empty-instance", 3, &[(add_on(b), true)]);
            match SchedService::replay(set.clone(), AnalysisConfig::default(), policy, &path) {
                Err(EngineError::Replay(message)) => {
                    assert!(message.contains("does not apply: class"), "{message}")
                }
                other => panic!("expected a refusal, got {other:?}"),
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn rebuild_refuses_a_snapshot_instance_without_transactions() {
        // A snapshot block whose instance owns no listed transaction: on a
        // platform with a shard the shard refuses it, on a free platform
        // there is no shard to attach it to.
        use hsched_model::ComponentClass;
        let (engine, a, _) = two_island_engine();
        let set = engine.current_set();
        let free = PlatformId(set.platforms().len());
        let mut platforms = set.platforms().clone();
        platforms.add(Platform::dedicated("C"));
        let set = TransactionSet::new(platforms, set.transactions().to_vec()).unwrap();
        let txns = set
            .transactions()
            .iter()
            .enumerate()
            .map(|(id, tx)| SnapshotTxn {
                origin: None,
                id: Some(id as u64),
                tx: tx.clone(),
            })
            .collect();
        let path = std::env::temp_dir().join(format!(
            "hsched-engine-test-empty-snapshot-instance-{}.journal",
            std::process::id()
        ));
        for (platform, why) in [
            (a, "owns no transaction"),
            (free, "has no shard on its platform"),
        ] {
            let snap = Snapshot {
                epoch: 0,
                admitted: 0,
                rejected: 0,
                next_id: 2,
                digest: engine.state_digest(),
                platforms: Vec::new(),
                instances: vec![SnapshotInstance {
                    name: "idle".into(),
                    platform,
                    node: 0,
                    class: ComponentClass::new("Idle"),
                }],
                txns: Vec::clone(&txns),
            };
            JournalWriter::rewrite_with_snapshot(&path, 3, &snap.encode_block()).unwrap();
            let replayed = SchedService::replay(
                set.clone(),
                AnalysisConfig::default(),
                AdmissionPolicy::default(),
                &path,
            );
            match replayed {
                Err(EngineError::Replay(message)) => assert!(message.contains(why), "{message}"),
                other => panic!("expected a refusal, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shard_set_lists_routed_slots_minus_absorbed_plus_fresh() {
        let mut platforms = PlatformSet::new();
        let a = platforms.add(Platform::dedicated("A"));
        let b = platforms.add(Platform::dedicated("B"));
        let c = platforms.add(Platform::dedicated("C"));
        let set =
            TransactionSet::new(platforms, vec![tx_on("left", a), tx_on("right", b)]).unwrap();
        let engine =
            SchedService::new(set, AnalysisConfig::default(), AdmissionPolicy::default()).unwrap();
        let submit = |batch| engine.submit(&EngineRequest::batch(batch)).unwrap();

        // Two islands, one epoch: both slots, both stay.
        let response = submit(vec![
            AdmissionRequest::AddTransaction(tx_on("a2", a)),
            AdmissionRequest::AddTransaction(tx_on("b2", b)),
        ]);
        assert!(response.outcome.verdict.admitted());
        assert_eq!((response.shards, response.shards_touched), (vec![0, 1], 2));
        assert_eq!(response.shards_live, 2);

        // A bridge merges them: slot 1 is absorbed into slot 0.
        let bridge = Transaction::new(
            "bridge",
            rat(20, 1),
            rat(20, 1),
            vec![
                Task::new("b0", rat(1, 1), rat(1, 1), 2, a),
                Task::new("b1", rat(1, 1), rat(1, 1), 2, b),
            ],
        )
        .unwrap();
        let response = submit(vec![AdmissionRequest::AddTransaction(bridge)]);
        assert!(response.outcome.verdict.admitted());
        assert_eq!((response.shards, response.shards_touched), (vec![0], 1));
        assert_eq!(response.shards_live, 1);

        // A fresh island on the free platform takes the first vacancy —
        // the slot the merge vacated, assigned at settle.
        let response = submit(vec![AdmissionRequest::AddTransaction(tx_on("c1", c))]);
        assert!(response.outcome.verdict.admitted());
        assert_eq!((response.shards, response.shards_touched), (vec![1], 1));
        assert_eq!(response.shards_live, 2);
    }

    #[test]
    fn out_of_range_platform_in_arrival_is_a_structural_rejection() {
        let (engine, _, _) = two_island_engine();
        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::AddTransaction(tx_on("ghost", PlatformId(99))),
            ]))
            .unwrap();
        match &response.outcome.verdict {
            Verdict::Rejected(RejectReason::Structural(message)) => {
                assert!(message.contains("unknown platform"), "{message}");
            }
            other => panic!("expected structural rejection, got {other}"),
        }
        assert_eq!(engine.live_transactions(), 2, "state untouched");
    }

    #[test]
    fn instance_txn_name_is_reusable_in_the_removing_batch() {
        use hsched_model::{Action, ComponentClass, ThreadSpec};
        let (engine, a, _) = two_island_engine();
        let class = ComponentClass::new("Worker").thread(ThreadSpec::periodic(
            "T",
            rat(50, 1),
            1,
            vec![Action::task("w", rat(1, 1), rat(1, 1))],
        ));
        let response = engine
            .submit(&EngineRequest::batch(vec![AdmissionRequest::AddInstance {
                name: "w1".into(),
                class,
                platform: a,
                node: 0,
            }]))
            .unwrap();
        assert!(response.outcome.verdict.admitted());
        // [RemoveInstance w1, AddTransaction "w1.T"] must resolve like
        // sequential application: the flattened name departs with the
        // instance, so the bare re-arrival under the same name admits.
        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::RemoveInstance { name: "w1".into() },
                AdmissionRequest::AddTransaction(tx_on("w1.T", a)),
            ]))
            .unwrap();
        assert!(
            response.outcome.verdict.admitted(),
            "{}",
            response.outcome.verdict
        );
        assert!(engine.system().instance_by_name("w1").is_none());
        assert!(
            engine.resolve("w1.T").is_some(),
            "bare transaction got a handle"
        );
    }

    #[test]
    fn stats_survive_shard_retirement() {
        let (engine, a, _) = two_island_engine();
        let analyzed_before = engine.stats().transactions_analyzed;
        // Fresh island on nothing shared: add then remove — the shard
        // retires, but its analysis counters must stay in the totals.
        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::AddTransaction(tx_on("ephemeral", a)),
            ]))
            .unwrap();
        assert!(response.outcome.verdict.admitted());
        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::RemoveTransaction {
                    name: "left".into(),
                },
                AdmissionRequest::RemoveTransaction {
                    name: "ephemeral".into(),
                },
            ]))
            .unwrap();
        assert!(response.outcome.verdict.admitted());
        assert!(
            engine.stats().transactions_analyzed > analyzed_before,
            "analysis work of retired shards is not forgotten"
        );
    }

    #[test]
    fn instance_lifecycle_via_engine() {
        use hsched_model::{Action, ComponentClass, ThreadSpec};
        let (engine, a, _) = two_island_engine();
        let class = ComponentClass::new("Worker").thread(ThreadSpec::periodic(
            "T",
            rat(50, 1),
            1,
            vec![Action::task("w", rat(1, 1), rat(1, 1))],
        ));
        let response = engine
            .submit(&EngineRequest::batch(vec![AdmissionRequest::AddInstance {
                name: "w1".into(),
                class,
                platform: a,
                node: 0,
            }]))
            .unwrap();
        assert!(response.outcome.verdict.admitted());
        assert_eq!(response.admitted.len(), 1, "one flattened transaction");
        assert!(engine.system().instance_by_name("w1").is_some());
        assert!(engine.resolve("w1.T").is_some());

        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::RemoveInstance { name: "w1".into() },
            ]))
            .unwrap();
        assert!(response.outcome.verdict.admitted());
        assert!(engine.system().instance_by_name("w1").is_none());
        assert!(engine.resolve("w1.T").is_none());
    }

    #[test]
    fn journal_records_and_replays_byte_identically() {
        let path = std::env::temp_dir().join(format!(
            "hsched-engine-test-replay-{}.journal",
            std::process::id()
        ));
        let set = paper_example::transactions();
        let engine = SchedService::new(
            set.clone(),
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
        )
        .unwrap()
        .with_journal(&path)
        .unwrap();
        // One admitted arrival, one rejected overload, one removal.
        let extra = Transaction::new(
            "extra",
            rat(60, 1),
            rat(120, 1),
            vec![Task::new("e", rat(1, 1), rat(1, 2), 1, PlatformId(0))],
        )
        .unwrap();
        let hog = Transaction::new(
            "hog",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("h", rat(9, 1), rat(9, 1), 9, PlatformId(2))],
        )
        .unwrap();
        for batch in [
            vec![AdmissionRequest::AddTransaction(extra)],
            vec![AdmissionRequest::AddTransaction(hog)],
            vec![AdmissionRequest::RemoveTransaction {
                name: "Sensor2.Thread1".into(),
            }],
        ] {
            engine.submit(&EngineRequest::batch(batch)).unwrap();
        }
        let digest = engine.state_digest();
        let epoch = engine.epoch();
        drop(engine); // "crash"

        let (replayed, stats) = SchedService::replay(
            set,
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
            &path,
        )
        .unwrap();
        assert_eq!(stats.tail_records, 3);
        assert_eq!(replayed.epoch(), epoch);
        assert_eq!(replayed.state_digest(), digest);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn auto_compaction_folds_the_journal_on_epoch_threshold() {
        let path = std::env::temp_dir().join(format!(
            "hsched-engine-test-autocompact-{}.journal",
            std::process::id()
        ));
        let mut platforms = PlatformSet::new();
        let a = platforms.add(Platform::dedicated("A"));
        let b = platforms.add(Platform::dedicated("B"));
        let set =
            TransactionSet::new(platforms, vec![tx_on("left", a), tx_on("right", b)]).unwrap();
        let engine = SchedService::new(
            set.clone(),
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
        )
        .unwrap()
        .with_journal(&path)
        .unwrap()
        .with_auto_compact(AutoCompactPolicy {
            every_epochs: Some(2),
            max_journal_bytes: None,
        });
        for round in 0..5 {
            let batch = if round % 2 == 0 {
                vec![AdmissionRequest::AddTransaction(tx_on("churn", a))]
            } else {
                vec![AdmissionRequest::RemoveTransaction {
                    name: "churn".into(),
                }]
            };
            let response = engine.submit(&EngineRequest::batch(batch)).unwrap();
            assert!(response.outcome.verdict.admitted());
        }
        let digest = engine.state_digest();
        assert_eq!(engine.epoch(), 5);
        drop(engine); // "crash"

        let contents = read_journal(&path).unwrap();
        let snapshot = contents.snapshot.expect("auto-compaction wrote a snapshot");
        assert!(snapshot.epoch >= 2, "threshold fired");
        assert!(
            contents.epochs.len() < 5,
            "history was folded ({} tail epochs)",
            contents.epochs.len()
        );
        // The compacted journal still rebuilds the engine byte-identically.
        let (replayed, _) = SchedService::replay(
            set,
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
            &path,
        )
        .unwrap();
        assert_eq!(replayed.epoch(), 5);
        assert_eq!(replayed.state_digest(), digest);
        let _ = std::fs::remove_file(&path);
    }

    /// A journal whose records are the given `(batch, admitted)` pairs,
    /// epochs numbered from 1 — a forger's pen.
    fn forged_journal(
        tag: &str,
        platforms: usize,
        records: &[(Vec<AdmissionRequest>, bool)],
    ) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "hsched-engine-test-forged-{tag}-{}.journal",
            std::process::id()
        ));
        let mut writer = JournalWriter::create(&path, platforms).unwrap();
        for (epoch, (batch, admitted)) in records.iter().enumerate() {
            writer.append(epoch as u64 + 1, batch, *admitted).unwrap();
        }
        path
    }

    #[test]
    fn replay_refuses_an_admitted_record_that_does_not_apply() {
        let (engine, a, _) = two_island_engine();
        let set = engine.current_set();
        let replay = |path: &std::path::Path| {
            SchedService::replay(
                set.clone(),
                AnalysisConfig::default(),
                AdmissionPolicy::default(),
                path,
            )
        };
        let bad_retune = AdmissionRequest::Retune {
            platform: a,
            alpha: rat(3, 2),
            delta: rat(0, 1),
            beta: rat(0, 1),
        };
        let fine = AdmissionRequest::AddTransaction(tx_on("fine", a));
        // Routing refuses the duplicate before anything is checked out;
        // the retune only fails inside the shard, after a checkout and a
        // first request that applied.
        for (tag, batch, why) in [
            (
                "dup",
                vec![AdmissionRequest::AddTransaction(tx_on("left", a))],
                "the engine rejects it",
            ),
            ("retune", vec![fine, bad_retune], "it does not apply"),
        ] {
            let path = forged_journal(tag, 2, &[(batch.clone(), true)]);
            match replay(&path) {
                Err(EngineError::Replay(message)) => assert!(message.contains(why), "{message}"),
                other => panic!("{tag}: expected a refusal, got {other:?}"),
            }
            // The streaming applier refuses it without changing anything.
            let before = (engine.epoch(), engine.state_digest());
            let record = JournalEpoch {
                epoch: 1,
                batch,
                admitted: true,
            };
            assert!(matches!(
                engine.apply_journal_record(&record),
                Err(EngineError::Replay(_))
            ));
            assert_eq!((engine.epoch(), engine.state_digest()), before, "{tag}");
            let _ = std::fs::remove_file(&path);
        }
        // The engine still serves.
        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::AddTransaction(tx_on("after", a)),
            ]))
            .unwrap();
        assert!(response.outcome.verdict.admitted());
    }

    #[test]
    fn replay_refuses_an_admitted_record_that_leaves_a_shard_unschedulable() {
        let (engine, _, b) = two_island_engine();
        let set = engine.current_set();
        let hog = Transaction::new(
            "hog",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("h", rat(11, 1), rat(11, 1), 9, b)],
        )
        .unwrap();
        let batch = vec![AdmissionRequest::AddTransaction(hog)];
        // Live, the batch is rejected (overload); the forgery says admitted.
        let path = forged_journal("unsched", 2, &[(batch.clone(), true)]);
        let replayed = SchedService::replay(
            set.clone(),
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
            &path,
        );
        match replayed {
            Err(EngineError::Replay(message)) => assert!(message.contains("hog"), "{message}"),
            other => panic!("expected a refusal at refresh, got {other:?}"),
        }
        // Record by record: the applier takes the structure on trust, the
        // refresh checks the promise, and the refusal is kept.
        let record = JournalEpoch {
            epoch: 1,
            batch,
            admitted: true,
        };
        engine.apply_journal_record(&record).unwrap();
        for _ in 0..2 {
            assert!(matches!(engine.refresh(), Err(EngineError::Replay(_))));
        }
        assert!(!engine.schedulable());
        // A later record is refused too.
        let record = JournalEpoch {
            epoch: 2,
            batch: vec![AdmissionRequest::RemoveTransaction {
                name: "left".into(),
            }],
            admitted: true,
        };
        assert!(matches!(
            engine.apply_journal_record(&record),
            Err(EngineError::Replay(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn verified_replay_refuses_a_rejected_record_whose_batch_admits() {
        let (engine, a, _) = two_island_engine();
        let set = engine.current_set();
        let batch = vec![AdmissionRequest::AddTransaction(tx_on("fine", a))];
        let path = forged_journal("rejected-admits", 2, &[(batch, false)]);
        let replay = |verified: bool| {
            let replay = if verified {
                SchedService::replay_verified
            } else {
                SchedService::replay
            };
            replay(
                set.clone(),
                AnalysisConfig::default(),
                AdmissionPolicy::default(),
                &path,
            )
        };
        // Structural replay cannot see this forgery: a rejection only
        // advances the counters.
        let (replayed, _) = replay(false).unwrap();
        assert_eq!(replayed.epoch(), 1);
        assert_eq!(replayed.live_transactions(), 2);
        drop(replayed);
        assert!(matches!(replay(true), Err(EngineError::Replay(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pipelined_epochs_compact_at_sync() {
        let path = std::env::temp_dir().join(format!(
            "hsched-engine-test-autocompact-sync-{}.journal",
            std::process::id()
        ));
        let (engine, a, _) = two_island_engine();
        let set = engine.current_set();
        let engine = engine
            .with_journal(&path)
            .unwrap()
            .with_auto_compact(AutoCompactPolicy {
                every_epochs: Some(2),
                max_journal_bytes: None,
            });
        for name in ["p1", "p2", "p3"] {
            engine
                .submit_async(&EngineRequest::batch(vec![
                    AdmissionRequest::AddTransaction(tx_on(name, a)),
                ]))
                .unwrap();
        }
        assert!(
            read_journal(&path).unwrap().snapshot.is_none(),
            "settling alone never compacts"
        );
        assert_eq!(engine.sync(3).unwrap(), 3);
        let contents = read_journal(&path).unwrap();
        assert_eq!(
            contents.snapshot.map(|s| s.epoch),
            Some(3),
            "sync compacted"
        );
        assert!(contents.epochs.is_empty());
        let (replayed, _) = SchedService::replay(
            set,
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
            &path,
        )
        .unwrap();
        assert_eq!(replayed.state_digest(), engine.state_digest());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn byte_threshold_also_triggers_auto_compaction() {
        let path = std::env::temp_dir().join(format!(
            "hsched-engine-test-autocompact-bytes-{}.journal",
            std::process::id()
        ));
        let mut platforms = PlatformSet::new();
        let a = platforms.add(Platform::dedicated("A"));
        let set = TransactionSet::new(platforms, vec![tx_on("left", a)]).unwrap();
        let engine = SchedService::new(set, AnalysisConfig::default(), AdmissionPolicy::default())
            .unwrap()
            .with_journal(&path)
            .unwrap()
            .with_auto_compact(AutoCompactPolicy {
                every_epochs: None,
                max_journal_bytes: Some(1), // every record crosses it
            });
        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::AddTransaction(tx_on("more", a)),
            ]))
            .unwrap();
        assert!(response.outcome.verdict.admitted());
        let contents = read_journal(&path).unwrap();
        assert!(contents.snapshot.is_some(), "byte threshold fired");
        assert!(
            contents.epochs.is_empty(),
            "record folded into the snapshot"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rejection_misses_come_back_in_global_set_order() {
        // Build a service whose shard-slot order disagrees with the global
        // set order: seed `abe` (island A) and `zed` (island B), then churn
        // `abe` so it re-arrives *after* `zed` in set order while re-using
        // the vacated slot 0.
        let mut platforms = PlatformSet::new();
        let a = platforms.add(Platform::dedicated("A"));
        let b = platforms.add(Platform::dedicated("B"));
        let slow = |name: &str, p| {
            Transaction::new(
                name,
                rat(10, 1),
                rat(10, 1),
                vec![Task::new(format!("{name}_t"), rat(6, 1), rat(6, 1), 5, p)],
            )
            .unwrap()
        };
        let set = TransactionSet::new(platforms, vec![slow("abe", a), slow("zed", b)]).unwrap();
        let engine =
            SchedService::new(set, AnalysisConfig::default(), AdmissionPolicy::default()).unwrap();
        let abe = slow("abe", a);
        for batch in [
            vec![AdmissionRequest::RemoveTransaction { name: "abe".into() }],
            vec![AdmissionRequest::AddTransaction(abe)],
        ] {
            assert!(engine
                .submit(&EngineRequest::batch(batch))
                .unwrap()
                .outcome
                .verdict
                .admitted());
        }
        // One epoch pushing both islands past their deadlines: U stays ≤ 1
        // (no overload), but `abe`/`zed` (wcet 6, D 10) now suffer 5 units
        // of higher-priority interference each.
        let hi = |name: &str, p| {
            Transaction::new(
                name,
                rat(20, 1),
                rat(20, 1),
                vec![Task::new(format!("{name}_t"), rat(5, 1), rat(5, 1), 9, p)],
            )
            .unwrap()
        };
        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::AddTransaction(hi("hi_a", a)),
                AdmissionRequest::AddTransaction(hi("hi_b", b)),
            ]))
            .unwrap();
        match &response.outcome.verdict {
            Verdict::Rejected(RejectReason::Unschedulable { misses }) => {
                // Global set order: zed (older handle) before the re-added
                // abe — even though abe's shard occupies the lower slot.
                assert_eq!(misses, &vec!["zed".to_string(), "abe".to_string()]);
            }
            other => panic!("expected unschedulable rejection, got {other}"),
        }
    }

    #[test]
    fn structural_rejections_match_controller_semantics() {
        let (engine, a, _) = two_island_engine();
        // Unknown removal.
        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::RemoveTransaction {
                    name: "nope".into(),
                },
            ]))
            .unwrap();
        assert!(matches!(
            response.outcome.verdict,
            Verdict::Rejected(RejectReason::Structural(_))
        ));
        assert_eq!(engine.epoch(), 1, "structural rejection consumes an epoch");
        // Duplicate arrival.
        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::AddTransaction(tx_on("left", a)),
            ]))
            .unwrap();
        assert!(matches!(
            response.outcome.verdict,
            Verdict::Rejected(RejectReason::Structural(_))
        ));
        // [remove X, add X] in one batch works like sequential application.
        let response = engine
            .submit(&EngineRequest::batch(vec![
                AdmissionRequest::RemoveTransaction {
                    name: "left".into(),
                },
                AdmissionRequest::AddTransaction(tx_on("left", a)),
            ]))
            .unwrap();
        assert!(
            response.outcome.verdict.admitted(),
            "{}",
            response.outcome.verdict
        );
    }
}
