//! Criterion bench: recovery. `engine/replay` replays one generated
//! journal of [`ChurnGen`] churn on `admission_bench`'s 50-transaction
//! clustered system two ways — the
//! structural applier `SchedService::replay` uses, and the verified replay
//! of `hsched replay --verify`, which re-runs every epoch's analysis.
//! Divide by the printed record count for the per-record cost.
//!
//! `engine/promote` then times one warm-standby promotion, from the
//! moment the follower declares its primary lost to a server accepting
//! connections on the promoted engine, on a 10 000-record mirror of the
//! wire benchmark's system shape (light islands of eight). It is a single
//! timed run, not a criterion loop: each promotion consumes its follower
//! and its mirror.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hsched_admission::gen::{random_scenario, ChurnGen, PlatformMix, ScenarioSpec};
use hsched_admission::{AdmissionController, AdmissionPolicy, AdmissionRequest};
use hsched_analysis::AnalysisConfig;
use hsched_engine::{EngineRequest, SchedService};
use hsched_net::{Follower, FollowerConfig, FollowerExit, Server, ServerConfig};
use hsched_numeric::rat;
use hsched_transaction::TransactionSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The scenario of `spec` with every deadline-missing transaction removed
/// (a seed that misses would turn every arrival into a rejection).
fn schedulable(spec: &ScenarioSpec) -> TransactionSet {
    let mut controller = AdmissionController::new(
        random_scenario(spec),
        AnalysisConfig::default(),
        AdmissionPolicy::default(),
    )
    .expect("generated scenarios analyze");
    let removals: Vec<AdmissionRequest> = controller
        .misses()
        .into_iter()
        .map(|name| AdmissionRequest::RemoveTransaction { name })
        .collect();
    if !removals.is_empty() {
        assert!(controller.commit(&removals).verdict.admitted());
    }
    controller.current_set().clone()
}

/// Journals `records` epochs of [`ChurnGen`] batches (up to three
/// requests) on `spec`'s system; returns the seed set and the journal.
fn journal(spec: &ScenarioSpec, records: usize, tag: &str) -> (TransactionSet, PathBuf) {
    let set = schedulable(spec);
    let path = std::env::temp_dir().join(format!(
        "hsched-replay-bench-{}-{}.journal",
        tag.replace('/', "-"),
        std::process::id()
    ));
    let engine = SchedService::new(
        set.clone(),
        AnalysisConfig::default(),
        AdmissionPolicy::default(),
    )
    .expect("seed analysis")
    .with_journal(&path)
    .expect("journal attaches");
    let mut churn = ChurnGen::new(spec, 7);
    let mut live = set.clone();
    for epoch in 1..=records {
        let batch = churn.next_batch(&live, 3);
        engine
            .submit_async(&EngineRequest::batch(batch))
            .expect("epochs settle");
        if epoch % 64 == 0 {
            live = engine.current_set();
        }
    }
    engine.sync(u64::MAX).expect("journal syncs");
    let stats = engine.stats();
    println!(
        "{tag}: {records} records ({} admitted, {} rejected) over {} transactions",
        stats.admitted,
        stats.rejected,
        set.transactions().len()
    );
    (set, path)
}

fn bench_replay(c: &mut Criterion) {
    let spec = hsched_bench::admission_churn::churn_spec();
    let (set, path) = journal(&spec, 1000, "engine/replay");
    let replay = |path: &Path, verified: bool| {
        let replay = if verified {
            SchedService::replay_verified
        } else {
            SchedService::replay
        };
        let (engine, stats) = replay(
            set.clone(),
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
            path,
        )
        .expect("the journal replays");
        black_box(engine.state_digest());
        stats.tail_records
    };
    let mut group = c.benchmark_group("engine/replay");
    group.sample_size(10);
    group.bench_function("structural", |b| b.iter(|| replay(&path, false)));
    group.bench_function("verify", |b| b.iter(|| replay(&path, true)));
    group.finish();
    let _ = std::fs::remove_file(&path);
}

fn bench_promote(_: &mut Criterion) {
    let spec = ScenarioSpec {
        clusters: 96,
        platforms_per_cluster: 2,
        transactions: 8 * 96,
        max_tasks_per_tx: 2,
        load: rat(2, 5),
        mix: PlatformMix::Linear,
        seed: 0,
        ..ScenarioSpec::default()
    };
    let (set, mirror) = journal(&spec, 10_000, "engine/promote");
    // Nothing listens on port 1: the first session fails, the primary is
    // declared lost, and the follower holds a standby seeded from the
    // mirror — where `hsched follow --promote-on-loss` takes over.
    let mut follower = Follower::new(
        set,
        AnalysisConfig::default(),
        AdmissionPolicy::default(),
        FollowerConfig {
            primary: "127.0.0.1:1".to_string(),
            journal: mirror.clone(),
            reconnect_delay: Duration::ZERO,
            max_session_failures: Some(1),
            ..FollowerConfig::default()
        },
    );
    assert_eq!(follower.run().expect("loss detected"), FollowerExit::Lost);
    let started = Instant::now();
    let (engine, stats) = follower.promote().expect("the mirror promotes");
    let server = Server::start(engine, ServerConfig::default()).expect("server starts");
    let serving = started.elapsed();
    println!(
        "bench engine/promote/{}_records {:>12.3} ms (loss detected → serving)",
        stats.tail_records,
        serving.as_secs_f64() * 1e3
    );
    server.stop();
    let _ = server.join();
    let _ = std::fs::remove_file(&mirror);
}

criterion_group!(benches, bench_replay, bench_promote);
criterion_main!(benches);
