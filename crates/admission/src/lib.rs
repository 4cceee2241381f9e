//! Online admission control for hierarchically scheduled systems.
//!
//! The paper's analysis answers an offline question: *is this fixed system
//! schedulable on these `(α, Δ, β)` platforms?* A production service faces
//! the online form: components and transactions arrive and depart
//! continuously, platforms are renegotiated at runtime, and every change
//! must be admitted or rejected quickly — without re-running the holistic
//! fixpoint over the whole system for each request.
//!
//! This crate provides the [`AdmissionController`], a long-lived engine
//! that gets its speed from three stacked layers:
//!
//! 1. **Cone-granular dirty tracking** — interference only propagates
//!    from higher- to lower-priority tasks on a shared platform (Eq. 17)
//!    and along transaction chains, so the tasks a batch can affect are
//!    exactly the forward reachability of its changes over that graph
//!    ([`hsched_analysis::HpGraph`]) — its interference *cone*, usually a
//!    small slice of the platform-sharing island PR 2 tracked. Only cone
//!    members are re-analyzed; everything else is pinned at the cached
//!    fixpoint. The restriction is *exact*, not an approximation, and
//!    property-tested to be a subset of the island dirty set that never
//!    misses a changed transaction.
//! 2. **Warm-started fixpoints** — for purely additive batches cone
//!    members resume from the previous epoch's converged jitters
//!    ([`hsched_analysis::WarmStart`]): interference only grew, so the old
//!    fixpoint lies below the new least fixpoint and the resumed iteration
//!    reaches exactly the same answer in fewer sweeps. Removal-only and
//!    mixed batches use the **downward-restart bound**: cone coordinates
//!    restart cold while the pinned rest carries the old fixpoint — the
//!    combined seed is still ≤ the new least fixpoint, so the resume is
//!    exact (no more cold island fixpoints on departures). Below both, each
//!    task's analysis memoizes its foreign-interference totals across
//!    sweeps, and drops them when the hp states they were computed from
//!    move.
//! 3. **Batching** — requests are coalesced per epoch and disjoint dirty
//!    cones (even inside one island) are analyzed one after another, on
//!    the caller's thread; a rejected batch rolls the controller back
//!    byte-identically (transactional semantics) by playing back an undo
//!    log of inverse requests — O(batch + dirty), not a full-state
//!    snapshot clone. Nothing reverts an admitted batch.
//!
//! At service scale, prefer `hsched-engine`'s `SchedService`: it
//! partitions the live set into one controller shard per interference
//! island ([`AdmissionController::split_islands`]), commits each epoch on
//! one controller merged from the shards it touches
//! ([`AdmissionController::merge_from`]), runs epochs on disjoint shards
//! concurrently, and adds typed handles plus a journaled write-ahead log
//! with byte-identical replay. This single-controller API remains the
//! shard core and the right tool for small or single-island systems. The
//! islands come from `hsched_analysis::HpGraph::islands`; [`UnionFind`]
//! groups platforms for callers that partition a set themselves.
//!
//! Hostile magnitudes are a verdict, not a crash: the utilization precheck
//! uses the fallible `try_*` arithmetic of `hsched-numeric`, and the
//! analysis refuses, before its fixpoint starts, any group whose integer
//! grid it cannot show to stay inside `i128`. Both surface as
//! [`RejectReason::Numeric`]. Any other panic is a bug, and is not caught.
//!
//! # Controller lifecycle
//!
//! 1. **Seed** — build a controller from a flattened
//!    [`hsched_transaction::TransactionSet`]
//!    ([`AdmissionController::new`]). One full analysis populates the
//!    per-transaction cache. Component instances arrive later, as
//!    [`AdmissionRequest::AddInstance`] requests that remember each
//!    flattened transaction's originating instance.
//! 2. **Serve** — for each epoch, collect the pending
//!    [`AdmissionRequest`]s and call [`AdmissionController::commit`]. The
//!    returned [`EpochOutcome`] says whether the batch is live and how much
//!    work the incremental analysis actually did.
//! 3. **Observe** — [`AdmissionController::report`] assembles the cached
//!    per-transaction results into a full `SchedulabilityReport` equal (up
//!    to the iteration trace) to a from-scratch analysis of
//!    [`AdmissionController::current_set`]; [`AdmissionController::stats`]
//!    tracks the cumulative incremental savings.
//!
//! # Request script format
//!
//! The `hsched admit` subcommand drives a controller from a plain-text
//! script, one request per line, batches separated by `commit`:
//!
//! ```text
//! # comments and blank lines are ignored
//! add sensor3 period 15 deadline 15 task acquire wcet 1 bcet 0.25 prio 2 on Pi1
//! retune Pi3 alpha 0.25 delta 2 beta 1
//! commit
//! remove sensor3
//! commit            # trailing requests without a commit also form a batch
//! ```
//!
//! `add` takes the transaction name, `period`/`deadline` (and optional
//! `jitter`) rationals, then one or more `task <name> wcet <r> bcet <r>
//! prio <n> on <platform-name>` clauses; `remove` takes a live transaction
//! name; `retune` takes a platform name and the new `(α, Δ, β)`.
//!
//! # Example
//!
//! ```
//! use hsched_admission::{AdmissionController, AdmissionPolicy, AdmissionRequest};
//! use hsched_analysis::AnalysisConfig;
//! use hsched_numeric::rat;
//! use hsched_transaction::paper_example;
//!
//! let set = paper_example::transactions();
//! let mut controller = AdmissionController::new(
//!     set,
//!     AnalysisConfig::default(),
//!     AdmissionPolicy::default(),
//! )
//! .unwrap();
//! assert!(controller.schedulable());
//!
//! // A transaction that would overload Π3 is rejected — and the
//! // controller state is untouched.
//! use hsched_platform::PlatformId;
//! use hsched_transaction::{Task, Transaction};
//! let hog = Transaction::new(
//!     "hog",
//!     rat(10, 1),
//!     rat(10, 1),
//!     vec![Task::new("h", rat(9, 1), rat(9, 1), 9, PlatformId(2))],
//! )
//! .unwrap();
//! let outcome = controller.admit(AdmissionRequest::AddTransaction(hog));
//! assert!(!outcome.verdict.admitted());
//! assert_eq!(controller.current_set().transactions().len(), 4);
//! ```

#![warn(missing_docs)]

mod controller;
mod dirty;
pub mod gen;
mod metrics;
mod request;

pub use controller::{AdmissionController, AdmissionPolicy, ControllerStats};
pub use dirty::UnionFind;
pub use metrics::AdmissionMetrics;
pub use request::{AdmissionRequest, EpochOutcome, RejectReason, Verdict};

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_analysis::{analyze_with, AnalysisConfig};
    use hsched_model::{Action, ComponentClass, ProvidedMethod, ThreadSpec};
    use hsched_numeric::rat;
    use hsched_platform::{Platform, PlatformId, PlatformSet};
    use hsched_transaction::{paper_example, Task, Transaction, TransactionSet};

    fn paper_controller() -> AdmissionController {
        AdmissionController::new(
            paper_example::transactions(),
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
        )
        .unwrap()
    }

    #[test]
    fn seed_analysis_matches_from_scratch() {
        let controller = paper_controller();
        let fresh = analyze_with(controller.current_set(), &AnalysisConfig::default()).unwrap();
        let cached = controller.report();
        assert_eq!(cached.tasks, fresh.tasks);
        assert_eq!(cached.verdicts, fresh.verdicts);
        assert!(controller.schedulable());
    }

    #[test]
    fn additive_admission_is_incremental_and_exact() {
        let mut controller = paper_controller();
        // A light transaction on Π1 only: the dirty island is Π1∪Π2∪Π3
        // (Γ1 bridges them), so everything is re-analyzed here — but the
        // batch is additive, so it warm-starts.
        let tx = Transaction::new(
            "extra",
            rat(60, 1),
            rat(120, 1),
            vec![Task::new("e", rat(1, 1), rat(1, 2), 1, PlatformId(0))],
        )
        .unwrap();
        let outcome = controller.admit(AdmissionRequest::AddTransaction(tx));
        assert!(outcome.verdict.admitted(), "{}", outcome.verdict);
        assert!(outcome.warm_started);
        let fresh = analyze_with(controller.current_set(), &AnalysisConfig::default()).unwrap();
        assert_eq!(controller.report().tasks, fresh.tasks);
    }

    #[test]
    fn disjoint_island_is_not_reanalyzed() {
        // Two dedicated platforms, one transaction each: two islands.
        let mut platforms = PlatformSet::new();
        let p0 = platforms.add(Platform::dedicated("A"));
        let p1 = platforms.add(Platform::dedicated("B"));
        let tx = |name: &str, p| {
            Transaction::new(
                name,
                rat(10, 1),
                rat(10, 1),
                vec![Task::new(format!("{name}_t"), rat(1, 1), rat(1, 1), 1, p)],
            )
            .unwrap()
        };
        let set = TransactionSet::new(platforms, vec![tx("a", p0), tx("b", p1)]).unwrap();
        let mut controller =
            AdmissionController::new(set, AnalysisConfig::default(), AdmissionPolicy::default())
                .unwrap();
        let outcome = controller.admit(AdmissionRequest::AddTransaction(tx("c", p1)));
        assert!(outcome.verdict.admitted());
        assert_eq!(
            outcome.analyzed_transactions, 2,
            "only island B re-analyzed"
        );
        assert_eq!(outcome.total_transactions, 3);
        assert_eq!(outcome.islands, 1);
        let stats = controller.stats();
        assert_eq!(stats.analyses_avoided, 1);
    }

    #[test]
    fn rejected_batch_rolls_back_byte_identically() {
        let mut controller = paper_controller();
        let before_set = controller.current_set().clone();
        let before_report = controller.report();
        // Overloads Π3 (α = 0.2): rejected by the utilization precheck.
        let hog = Transaction::new(
            "hog",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("h", rat(9, 1), rat(9, 1), 9, PlatformId(2))],
        )
        .unwrap();
        let outcome = controller.commit(&[
            AdmissionRequest::AddTransaction(hog),
            AdmissionRequest::RemoveTransaction {
                name: "Sensor1.Thread1".into(),
            },
        ]);
        assert!(matches!(
            outcome.verdict,
            Verdict::Rejected(RejectReason::Overload { .. })
        ));
        assert_eq!(controller.current_set(), &before_set);
        assert_eq!(controller.report(), before_report);
    }

    #[test]
    fn deadline_miss_is_rejected_after_analysis() {
        let mut controller = paper_controller();
        // Fits the utilization bound but pushes Π3 past Γ4's deadline.
        let tight = Transaction::new(
            "tight",
            rat(150, 1),
            rat(150, 1),
            vec![Task::new("t", rat(4, 1), rat(4, 1), 2, PlatformId(2))],
        )
        .unwrap();
        let outcome = controller.admit(AdmissionRequest::AddTransaction(tight));
        match &outcome.verdict {
            Verdict::Rejected(RejectReason::Unschedulable { misses }) => {
                assert!(!misses.is_empty());
            }
            other => panic!("expected unschedulable rejection, got {other}"),
        }
        assert!(outcome.analyzed_transactions > 0, "analysis did run");
        assert!(
            outcome.analyzed_transactions <= outcome.total_transactions,
            "analyzed/total pair must describe the same (post-application) population"
        );
        assert_eq!(
            outcome.total_transactions, 5,
            "4 live + the rejected arrival"
        );
        assert!(controller.schedulable(), "rollback restored the system");
    }

    #[test]
    fn structural_errors_reject_without_analysis() {
        let mut controller = paper_controller();
        let outcome = controller.admit(AdmissionRequest::RemoveTransaction {
            name: "nope".into(),
        });
        assert!(matches!(
            outcome.verdict,
            Verdict::Rejected(RejectReason::Structural(_))
        ));
        assert_eq!(outcome.analyzed_transactions, 0);
        // Duplicate names collide.
        let dup = Transaction::new(
            "Sensor1.Thread1",
            rat(15, 1),
            rat(15, 1),
            vec![Task::new("x", rat(1, 1), rat(1, 1), 1, PlatformId(0))],
        )
        .unwrap();
        let outcome = controller.admit(AdmissionRequest::AddTransaction(dup));
        assert!(matches!(
            outcome.verdict,
            Verdict::Rejected(RejectReason::Structural(_))
        ));
    }

    #[test]
    fn removal_then_readmission_round_trips() {
        let mut controller = paper_controller();
        let outcome = controller.admit(AdmissionRequest::RemoveTransaction {
            name: "Sensor2.Thread1".into(),
        });
        assert!(outcome.verdict.admitted());
        assert_eq!(controller.current_set().transactions().len(), 3);
        let fresh = analyze_with(controller.current_set(), &AnalysisConfig::default()).unwrap();
        assert_eq!(controller.report().tasks, fresh.tasks);

        let back = paper_example::transactions().transactions()[2].clone();
        let outcome = controller.admit(AdmissionRequest::AddTransaction(back));
        assert!(outcome.verdict.admitted());
        let fresh = analyze_with(controller.current_set(), &AnalysisConfig::default()).unwrap();
        assert_eq!(controller.report().tasks, fresh.tasks);
    }

    #[test]
    fn retune_is_applied_and_exact() {
        let mut controller = paper_controller();
        // Strengthen Π3: responses can only improve; the verdict stays OK.
        let outcome = controller.admit(AdmissionRequest::Retune {
            platform: PlatformId(2),
            alpha: rat(3, 10),
            delta: rat(1, 1),
            beta: rat(1, 1),
        });
        assert!(outcome.verdict.admitted());
        assert!(!outcome.warm_started, "retunes must cold-start");
        assert_eq!(
            controller.current_set().platforms()[PlatformId(2)].alpha(),
            rat(3, 10)
        );
        let fresh = analyze_with(controller.current_set(), &AnalysisConfig::default()).unwrap();
        assert_eq!(controller.report().tasks, fresh.tasks);

        // Weakening Π3 to starvation is rejected and rolled back.
        let outcome = controller.admit(AdmissionRequest::Retune {
            platform: PlatformId(2),
            alpha: rat(1, 10),
            delta: rat(3, 1),
            beta: rat(0, 1),
        });
        assert!(!outcome.verdict.admitted());
        assert_eq!(
            controller.current_set().platforms()[PlatformId(2)].alpha(),
            rat(3, 10)
        );
    }

    #[test]
    fn instance_lifecycle_add_then_remove() {
        let mut controller = paper_controller();
        let class = ComponentClass::new("Logger")
            .provides(ProvidedMethod::new("flush", rat(200, 1)))
            .thread(ThreadSpec::periodic(
                "Tick",
                rat(100, 1),
                1,
                vec![Action::task("log", rat(1, 1), rat(1, 2))],
            ))
            .thread(ThreadSpec::realizes(
                "Flush",
                "flush",
                1,
                vec![Action::task("sync", rat(1, 1), rat(1, 1))],
            ));
        let outcome = controller.admit(AdmissionRequest::AddInstance {
            name: "logger1".into(),
            class,
            platform: PlatformId(0),
            node: 0,
        });
        assert!(outcome.verdict.admitted(), "{}", outcome.verdict);
        // Periodic thread + unbound provided method = 2 transactions.
        assert_eq!(controller.current_set().transactions().len(), 6);
        assert!(controller.system().instance_by_name("logger1").is_some());
        let fresh = analyze_with(controller.current_set(), &AnalysisConfig::default()).unwrap();
        assert_eq!(controller.report().tasks, fresh.tasks);

        // Its transactions cannot be removed individually…
        let outcome = controller.admit(AdmissionRequest::RemoveTransaction {
            name: "logger1.Tick".into(),
        });
        assert!(!outcome.verdict.admitted());

        // …but the instance departs as a unit.
        let outcome = controller.admit(AdmissionRequest::RemoveInstance {
            name: "logger1".into(),
        });
        assert!(outcome.verdict.admitted());
        assert_eq!(controller.current_set().transactions().len(), 4);
        assert!(controller.system().instance_by_name("logger1").is_none());
    }

    #[test]
    fn instance_churn_does_not_grow_the_class_list() {
        let mut controller = paper_controller();
        let class = ComponentClass::new("Ephemeral").thread(ThreadSpec::periodic(
            "T",
            rat(100, 1),
            1,
            vec![Action::task("w", rat(1, 1), rat(1, 1))],
        ));
        for round in 0..5 {
            let outcome = controller.admit(AdmissionRequest::AddInstance {
                name: "eph".into(),
                class: class.clone(),
                platform: PlatformId(0),
                node: 0,
            });
            assert!(
                outcome.verdict.admitted(),
                "round {round}: {}",
                outcome.verdict
            );
            let outcome = controller.admit(AdmissionRequest::RemoveInstance { name: "eph".into() });
            assert!(
                outcome.verdict.admitted(),
                "round {round}: {}",
                outcome.verdict
            );
        }
        assert_eq!(
            controller.system().classes.len(),
            1,
            "identical classes are reused across churn rounds"
        );
    }

    #[test]
    fn classes_with_required_methods_are_refused() {
        let mut controller = paper_controller();
        let needy = ComponentClass::new("Needy")
            .requires(hsched_model::RequiredMethod::derived("help"))
            .thread(ThreadSpec::periodic(
                "T",
                rat(50, 1),
                1,
                vec![Action::task("work", rat(1, 1), rat(1, 1))],
            ));
        let outcome = controller.admit(AdmissionRequest::AddInstance {
            name: "needy1".into(),
            class: needy,
            platform: PlatformId(0),
            node: 0,
        });
        assert!(matches!(
            outcome.verdict,
            Verdict::Rejected(RejectReason::Structural(_))
        ));
    }

    #[test]
    fn hostile_magnitudes_degrade_to_rejection() {
        // (a) With the precheck on, an absurd utilization is rejected by
        // checked arithmetic (Overload or Numeric, never a crash).
        let mut controller = paper_controller();
        let big = i128::MAX / 4;
        let hostile = Transaction::new(
            "hostile",
            rat(3, 1),
            rat(3, 1),
            vec![Task::new("h", rat(big, 1), rat(1, 1), 9, PlatformId(0))],
        )
        .unwrap();
        let outcome = controller.admit(AdmissionRequest::AddTransaction(hostile.clone()));
        assert!(matches!(
            outcome.verdict,
            Verdict::Rejected(RejectReason::Overload { .. } | RejectReason::Numeric(_))
        ));
        assert!(controller.schedulable());

        // (b) With the precheck off, the analysis refuses the island, whose
        // integer grid could leave i128 — rejection, not a controller crash.
        let mut controller = AdmissionController::new(
            paper_example::transactions(),
            AnalysisConfig::default(),
            AdmissionPolicy {
                utilization_precheck: false,
                ..AdmissionPolicy::default()
            },
        )
        .unwrap();
        let outcome = controller.admit(AdmissionRequest::AddTransaction(hostile));
        match &outcome.verdict {
            Verdict::Rejected(RejectReason::Numeric(message)) => {
                assert!(message.contains("exceeds 2^123"), "{message}");
            }
            other => panic!("expected a numeric rejection, got {other}"),
        }
        assert!(controller.schedulable(), "state survived the hostile batch");
    }

    #[test]
    fn only_the_linear_service_mode_is_admitted() {
        // The overflow contract covers `LinearBounds` only, so a controller
        // over another mode is refused up front.
        let config = AnalysisConfig {
            service_mode: hsched_analysis::ServiceTimeMode::ExactCurve,
            ..AnalysisConfig::default()
        };
        let refused = AdmissionController::new(
            paper_example::transactions(),
            config,
            AdmissionPolicy::default(),
        );
        assert!(refused.unwrap_err().contains("LinearBounds"));
    }

    /// Island A holds `good` on a dedicated platform; island B is `hostile`:
    /// overloaded (one hog at U = 0.2 on a rate-0.1 platform) or unsummable
    /// (five tasks whose huge coprime periods no 128-bit fraction can sum,
    /// though each response time stays in range).
    fn with_hostile_island(overloaded: bool, policy: AdmissionPolicy) -> AdmissionController {
        let mut platforms = PlatformSet::new();
        let pa = platforms.add(Platform::dedicated("A"));
        let pb = if overloaded {
            platforms.add(Platform::linear("B", rat(1, 10), rat(0, 1), rat(0, 1)).unwrap())
        } else {
            platforms.add(Platform::dedicated("B"))
        };
        let one = |name: &str, period: i128, wcet: i128, prio: u32, p: PlatformId| {
            let task = Task::new(format!("{name}.t"), rat(wcet, 1), rat(wcet, 1), prio, p);
            Transaction::new(name, rat(period, 1), rat(period, 1), vec![task]).unwrap()
        };
        let mut txs = vec![one("good", 10, 1, 1, pa)];
        if overloaded {
            txs.push(one("hog", 10, 2, 1, pb));
        } else {
            let periods = [
                1_000_000_000_039,
                1_000_000_000_061,
                1_000_000_000_063,
                1_000_000_000_091,
                999_999_999_989,
            ];
            for (i, period) in periods.into_iter().enumerate() {
                txs.push(one(&format!("huge{i}"), period, 1, 1 + i as u32, pb));
            }
        }
        let set = TransactionSet::new(platforms, txs).unwrap();
        AdmissionController::new(set, AnalysisConfig::default(), policy).unwrap()
    }

    fn arrival_on(platform: usize) -> AdmissionRequest {
        let task = Task::new("x.t", rat(1, 1), rat(1, 1), 2, PlatformId(platform));
        AdmissionRequest::AddTransaction(
            Transaction::new("x", rat(10, 1), rat(10, 1), vec![task]).unwrap(),
        )
    }

    fn policies() -> [AdmissionPolicy; 2] {
        let scratch = AdmissionPolicy {
            dirty_tracking: false,
            ..AdmissionPolicy::default()
        };
        [AdmissionPolicy::default(), scratch]
    }

    #[test]
    fn a_foreign_overloaded_island_does_not_reject() {
        for policy in policies() {
            let mut controller = with_hostile_island(true, policy);
            // A batch that touches B meets the precheck.
            let outcome = controller.admit(arrival_on(1));
            assert_eq!(
                outcome.verdict,
                Verdict::Rejected(RejectReason::Overload {
                    platforms: vec!["B".into()]
                })
            );
            let outcome = controller.admit(arrival_on(0));
            assert!(outcome.verdict.admitted(), "{}", outcome.verdict);
            // B still misses: admission judged A alone.
            assert_eq!(controller.misses(), vec!["hog".to_string()]);
        }
    }

    #[test]
    fn a_foreign_unsummable_island_does_not_reject() {
        for policy in policies() {
            let mut controller = with_hostile_island(false, policy);
            let outcome = controller.admit(arrival_on(0));
            assert!(outcome.verdict.admitted(), "{}", outcome.verdict);
            assert!(controller.schedulable());
        }
    }

    #[test]
    fn a_touched_unsummable_island_rejects_numeric_until_healed() {
        for policy in policies() {
            let mut controller = with_hostile_island(false, policy);
            let outcome = controller.admit(arrival_on(1));
            assert!(
                matches!(outcome.verdict, Verdict::Rejected(RejectReason::Numeric(_))),
                "{}",
                outcome.verdict
            );
            let retune = AdmissionRequest::Retune {
                platform: PlatformId(1),
                alpha: rat(1, 2),
                delta: rat(0, 1),
                beta: rat(0, 1),
            };
            let outcome = controller.admit(retune);
            assert!(
                matches!(outcome.verdict, Verdict::Rejected(RejectReason::Numeric(_))),
                "{}",
                outcome.verdict
            );
            assert!(controller.checked_overload().is_err());
            let heal: Vec<AdmissionRequest> = (0..4)
                .map(|i| AdmissionRequest::RemoveTransaction {
                    name: format!("huge{i}"),
                })
                .collect();
            let outcome = controller.commit(&heal);
            assert!(outcome.verdict.admitted(), "{}", outcome.verdict);
            assert_eq!(controller.checked_overload(), Ok(Vec::new()));
        }
    }

    #[test]
    fn an_instance_without_transactions_is_rejected_structural() {
        // `good` runs on A, an overloaded `hog` on B, and C is free. A class
        // with no threads, or only an event-triggered one while external
        // stimuli are off, flattens to no transaction: it is turned away as
        // structural on every platform, and the state is rolled back.
        let unchecked = AdmissionPolicy {
            utilization_precheck: false,
            ..AdmissionPolicy::default()
        };
        let idle = ComponentClass::new("Idle");
        let on_call = ComponentClass::new("OnCall")
            .provides(ProvidedMethod::new("poke", rat(50, 1)))
            .thread(ThreadSpec::realizes(
                "Poke",
                "poke",
                1,
                vec![Action::task("p", rat(1, 1), rat(1, 1))],
            ));
        for policy in policies().into_iter().chain([unchecked]) {
            for (class, external_stimuli) in [(&idle, true), (&on_call, false)] {
                let mut platforms = PlatformSet::new();
                let a = platforms.add(Platform::dedicated("A"));
                let b =
                    platforms.add(Platform::linear("B", rat(1, 10), rat(0, 1), rat(0, 1)).unwrap());
                let c = platforms.add(Platform::dedicated("C"));
                let one = |name: &str, wcet, p| {
                    let task = Task::new(format!("{name}.t"), rat(wcet, 1), rat(wcet, 1), 1, p);
                    Transaction::new(name, rat(10, 1), rat(10, 1), vec![task]).unwrap()
                };
                let set = TransactionSet::new(platforms, vec![one("good", 1, a), one("hog", 2, b)])
                    .unwrap();
                let policy = AdmissionPolicy {
                    external_stimuli,
                    ..policy.clone()
                };
                let mut controller =
                    AdmissionController::new(set, AnalysisConfig::default(), policy).unwrap();
                let report = controller.report();
                for platform in [a, b, c] {
                    let outcome = controller.admit(AdmissionRequest::AddInstance {
                        name: "empty".into(),
                        class: class.clone(),
                        platform,
                        node: 0,
                    });
                    let expected = Verdict::Rejected(RejectReason::Structural(format!(
                        "class `{}` flattens to no transaction",
                        class.name
                    )));
                    assert_eq!(outcome.verdict, expected);
                    assert_eq!(controller.report(), report, "rolled back");
                    assert!(controller.system().instances.is_empty());
                }
            }
        }
    }

    #[test]
    fn removing_a_divergent_transaction_heals_the_system() {
        // Regression: the seed analysis must keep convergence flags
        // island-local. With a clean island A and a divergent island B,
        // removing B's hog re-analyzes nothing (B becomes empty) — A's
        // cached verdict alone must carry the admit.
        let mut platforms = PlatformSet::new();
        let pa = platforms.add(Platform::dedicated("A"));
        let pb = platforms.add(Platform::linear("B", rat(1, 10), rat(0, 1), rat(0, 1)).unwrap());
        let good = Transaction::new(
            "good",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("g", rat(1, 1), rat(1, 1), 1, pa)],
        )
        .unwrap();
        let hog = Transaction::new(
            "hog",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("h", rat(2, 1), rat(2, 1), 1, pb)], // U = 0.2 > α
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![good, hog]).unwrap();
        let mut controller =
            AdmissionController::new(set, AnalysisConfig::default(), AdmissionPolicy::default())
                .unwrap();
        assert!(!controller.schedulable(), "seed state diverges on B");
        let outcome = controller.admit(AdmissionRequest::RemoveTransaction { name: "hog".into() });
        assert!(
            outcome.verdict.admitted(),
            "healing removal must be admitted, got {}",
            outcome.verdict
        );
        assert!(controller.schedulable());
        let fresh = analyze_with(controller.current_set(), &AnalysisConfig::default()).unwrap();
        assert_eq!(controller.report().tasks, fresh.tasks);
    }

    #[test]
    fn healing_removal_refreshes_stale_island_members() {
        // Island B holds a diverging hog (U = 0.2 > α = 0.1) and a
        // higher-priority neighbor `vip` the hog never delays — so `vip`
        // is *outside* the hog's interference cone, yet the seed analysis
        // stamped it with the island's diverged flags. Removing the hog
        // must re-activate `vip` at island granularity (a frozen pin of a
        // bail-out value is not a fixpoint) and admit, exactly as the
        // PR-2 island tracker did.
        let mut platforms = PlatformSet::new();
        let pb = platforms.add(Platform::linear("B", rat(1, 10), rat(0, 1), rat(0, 1)).unwrap());
        let vip = Transaction::new(
            "vip",
            rat(100, 1),
            rat(100, 1),
            vec![Task::new("v", rat(1, 1), rat(1, 1), 5, pb)],
        )
        .unwrap();
        let hog = Transaction::new(
            "hog",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("h", rat(2, 1), rat(2, 1), 1, pb)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![vip, hog]).unwrap();
        let mut controller =
            AdmissionController::new(set, AnalysisConfig::default(), AdmissionPolicy::default())
                .unwrap();
        assert!(!controller.schedulable(), "seed state diverges");
        let outcome = controller.admit(AdmissionRequest::RemoveTransaction { name: "hog".into() });
        assert!(
            outcome.verdict.admitted(),
            "healing removal must refresh the stale neighbor, got {}",
            outcome.verdict
        );
        assert!(controller.schedulable());
        let fresh = analyze_with(controller.current_set(), &AnalysisConfig::default()).unwrap();
        assert_eq!(controller.report().tasks, fresh.tasks);
        assert_eq!(controller.report().verdicts, fresh.verdicts);
    }

    #[test]
    fn empty_batch_is_a_trivial_admit() {
        let mut controller = paper_controller();
        let outcome = controller.commit(&[]);
        assert!(outcome.verdict.admitted());
        assert_eq!(outcome.analyzed_transactions, 0);
        assert_eq!(controller.epoch(), 1);
    }
}
