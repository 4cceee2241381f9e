//! Model-checked concurrency for the service front door.
//!
//! Compiled only under `RUSTFLAGS="--cfg hsched_model"`, where the
//! engine's sync facade (`crates/engine/src/sync.rs`) swaps `std::sync`
//! for the instrumented shims in `hsched-check`: every test below runs
//! its scenario under exhaustive bounded exploration, with lock-order
//! validation against the documented routing → core → gate order, the
//! condvar-hold check (a wait holds nothing but the mutex it sleeps on),
//! and deadlock detection that turns a missed wakeup into a named report
//! instead of a hung test.
//!
//! Each scenario asserts that exploration visited at least 1,000
//! distinct interleavings (or exhausted the space) with zero reports,
//! and prints the count (`--nocapture` in the CI job logs it).
#![cfg(hsched_model)]

use hsched_admission::{AdmissionPolicy, AdmissionRequest};
use hsched_analysis::AnalysisConfig;
use hsched_check::{explore, thread, Config, Stats};
use hsched_engine::{EngineRequest, SchedService};
use hsched_model::{Action, ComponentClass, ThreadSpec};
use hsched_numeric::rat;
use hsched_platform::{Platform, PlatformId, PlatformSet};
use hsched_transaction::{Task, Transaction, TransactionSet};
use std::path::PathBuf;

fn tx(name: &str, platform: PlatformId) -> Transaction {
    Transaction::new(
        name,
        rat(100, 1),
        rat(100, 1),
        vec![Task::new(
            format!("{name}.t"),
            rat(1, 1),
            rat(1, 1),
            1,
            platform,
        )],
    )
    .expect("valid transaction")
}

/// Two occupied single-transaction islands (p0, p1), plus optionally a
/// vacant platform p2 on which an arrival mints a fresh shard.
fn tiny_set(vacant_platform: bool) -> TransactionSet {
    let mut platforms = PlatformSet::new();
    let p0 = platforms.add(Platform::dedicated("p0"));
    let p1 = platforms.add(Platform::dedicated("p1"));
    if vacant_platform {
        platforms.add(Platform::dedicated("p2"));
    }
    TransactionSet::new(platforms, vec![tx("a", p0), tx("b", p1)]).expect("valid set")
}

fn arrival(name: &str, platform: usize) -> EngineRequest {
    EngineRequest::batch(vec![AdmissionRequest::AddTransaction(tx(
        name,
        PlatformId(platform),
    ))])
}

fn service(set: TransactionSet) -> SchedService {
    // The controller analyzes on the calling thread, so the only OS threads
    // in an execution are the model threads themselves.
    SchedService::new(set, AnalysisConfig::default(), AdmissionPolicy::default())
        .expect("seed analysis")
}

/// Exploration budget: env-tunable (`HSCHED_MODEL_MAX_INTERLEAVINGS`,
/// `HSCHED_MODEL_MAX_SECONDS`, `HSCHED_MODEL_PREEMPTION_BOUND`) so CI
/// can cap wall clock without editing the tests.
fn model_config() -> Config {
    Config::from_env()
}

/// The acceptance gate shared by every scenario: no validator reports,
/// and the space was either exhausted or sampled at depth.
fn assert_clean(name: &str, stats: &Stats) {
    println!(
        "model {name}: {} interleavings explored (exhausted: {})",
        stats.interleavings, stats.exhausted
    );
    assert!(
        stats.reports.is_empty(),
        "model {name}: validator reports (replay with the printed seed):\n{:#?}",
        stats.reports
    );
    assert!(
        stats.interleavings >= 1_000 || stats.exhausted,
        "model {name}: only {} interleavings and not exhausted",
        stats.interleavings
    );
}

/// Pipeline-depth contention: with `max_inflight = 1` the second epoch
/// must park on the capacity condvar and rely on settle's wakeup; a
/// missed wakeup (the PR-6 hazard this suite exists for) deadlocks the
/// interleaving and is reported with the parked thread named.
#[test]
fn contended_attempts_never_miss_a_gate_wakeup() {
    let stats = explore(&model_config(), || {
        let service = service(tiny_set(false)).with_max_inflight(1);
        thread::scope(|s| {
            let h = s.spawn(|| service.submit(&arrival("c", 0)).map(|r| r.epoch));
            let mine = service.submit(&arrival("d", 1)).expect("epoch");
            let theirs = h.join().expect("no panic").expect("epoch");
            // Tickets are dense and distinct regardless of interleaving.
            assert_ne!(mine.epoch, theirs);
        });
        assert_eq!(service.epoch(), 2);
        assert_eq!(service.live_transactions(), 4);
    });
    assert_clean("gate_wakeup", &stats);
}

/// Busy-checkout conflict: both epochs route to the same island, so one
/// finds the shard checked out (a blocked route), parks on the conflict
/// condvar, and routes again after the settle. Every interleaving must
/// settle both epochs exactly once.
#[test]
fn busy_checkout_conflict_parks_and_retries() {
    let stats = explore(&model_config(), || {
        let service = service(tiny_set(false));
        thread::scope(|s| {
            let h = s.spawn(|| service.submit(&arrival("c", 0)).map(|r| r.epoch));
            service.submit(&arrival("d", 0)).expect("same-island epoch");
            h.join().expect("no panic").expect("same-island epoch");
        });
        assert_eq!(service.epoch(), 2);
        assert_eq!(service.live_transactions(), 4);
    });
    assert_clean("busy_checkout", &stats);
}

/// Drain racing an in-flight epoch: an instance arrival must register as a
/// writer, gate new reservations off, and wait for the pipeline to drain
/// before it tickets — while the other epoch settles under it. The
/// instance lands on the vacant platform, so its settle also mints a
/// shard.
#[test]
fn instance_drain_coexists_with_in_flight_epochs() {
    let stats = explore(&model_config(), || {
        let service = service(tiny_set(true));
        let class = ComponentClass::new("Worker").thread(ThreadSpec::periodic(
            "T",
            rat(100, 1),
            1,
            vec![Action::task("w", rat(1, 1), rat(1, 1))],
        ));
        let instance = EngineRequest::batch(vec![AdmissionRequest::AddInstance {
            name: "w".into(),
            class,
            platform: PlatformId(2),
            node: 0,
        }]);
        thread::scope(|s| {
            let h = s.spawn(|| service.submit(&instance).map(|r| r.epoch));
            service.submit(&arrival("d", 0)).expect("plain epoch");
            h.join().expect("no panic").expect("draining epoch");
        });
        assert_eq!(service.epoch(), 2);
        assert_eq!(service.shard_count(), 3);
        assert_eq!(service.live_transactions(), 4);
    });
    assert_clean("instance_drain", &stats);
}

/// The set-up of ROADMAP 1(ii): two clients on the *same* island plus an
/// arrival on the vacant platform in flight — a blocked route and a fresh
/// shard minted at settle while a sibling epoch is in flight, with no
/// drain: slot allocation happens only at settle, in ticket order.
#[test]
fn same_island_conflict_races_a_fresh_shard() {
    let stats = explore(&model_config(), || {
        let service = service(tiny_set(true));
        thread::scope(|s| {
            let c = s.spawn(|| service.submit(&arrival("c", 0)).map(|r| r.epoch));
            let e = s.spawn(|| service.submit(&arrival("e", 2)).map(|r| r.epoch));
            service.submit(&arrival("d", 0)).expect("same-island epoch");
            c.join().expect("no panic").expect("same-island epoch");
            e.join().expect("no panic").expect("fresh-shard epoch");
        });
        assert_eq!(service.epoch(), 3);
        assert_eq!(service.shard_count(), 3);
        assert_eq!(service.live_transactions(), 5);
    });
    assert_clean("conflict_and_fresh_shard", &stats);
}

/// Group-commit poison propagation: with the first `sync_data` armed to
/// fail, *both* submitters must see the journal error — whichever
/// thread runs the failing syscall, and whichever merely waited on the
/// group commit — in every interleaving. A waiter that returns `Ok`
/// would be claiming durability for an epoch that never reached disk.
#[test]
fn failed_sync_poisons_every_group_commit_waiter() {
    let dir = std::env::temp_dir();
    let path: PathBuf = dir.join(format!(
        "hsched-model-poison-{}.journal",
        std::process::id()
    ));
    let stats = explore(&model_config(), || {
        let _ = std::fs::remove_file(&path);
        let service = service(tiny_set(false))
            .with_journal(&path)
            .expect("journal attach");
        service.fail_next_sync();
        thread::scope(|s| {
            let h = s.spawn(|| {
                let ticket = service.submit_async(&arrival("c", 0)).expect("settle");
                service.sync(ticket.epoch)
            });
            let ticket = service.submit_async(&arrival("d", 1)).expect("settle");
            let mine = service.sync(ticket.epoch);
            let theirs = h.join().expect("no panic");
            assert!(mine.is_err(), "waiter claimed durability: {mine:?}");
            assert!(theirs.is_err(), "waiter claimed durability: {theirs:?}");
        });
        // The sticky poison keeps the durable watermark at zero.
        assert_eq!(service.durable_epoch(), 0);
    });
    let _ = std::fs::remove_file(&path);
    assert_clean("sync_poison", &stats);
}
