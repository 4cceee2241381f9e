//! Replication resume, property-tested end to end over real loopback
//! sockets: a primary serves churn submitted through the wire while a
//! follower tails its journal stream; the follower's connection is
//! killed at random byte offsets — including mid-record — and the
//! reconnected standby must resume from its last durable offset and
//! converge to a state digest **and a mirror file** byte-for-byte equal
//! to the primary's.

use hsched_admission::gen::{random_scenario, ChurnGen, ScenarioSpec};
use hsched_admission::AdmissionPolicy;
use hsched_analysis::AnalysisConfig;
use hsched_engine::{SchedService, SCHEMA_VERSION};
use hsched_net::{
    Client, Follower, FollowerConfig, FollowerExit, Server, ServerConfig, SubmitMode,
};
use hsched_numeric::rat;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn spec_for(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        clusters: 2,
        platforms_per_cluster: 2,
        transactions: 6,
        max_tasks_per_tx: 3,
        load: rat(3, 5),
        priority_levels: 3,
        seed,
        ..ScenarioSpec::default()
    }
}

fn temp_path(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hsched-net-repl-{}-{tag}-{seed}.journal",
        std::process::id()
    ))
}

/// One full session: serve, churn over the wire, then a follower that
/// gets its connection cut at each offset in `cuts` (bytes into the
/// session's stream) before being allowed to catch up.
fn resume_session(seed: u64, epochs: usize, cuts: &[u64]) {
    let spec = spec_for(seed);
    let set = random_scenario(&spec);
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let journal = temp_path("primary", seed);
    let mirror = temp_path("mirror", seed);
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&mirror);

    let engine = Arc::new(
        SchedService::new(set.clone(), config.clone(), policy.clone())
            .unwrap_or_else(|e| panic!("seed {seed}: service seed failed: {e}"))
            .with_journal(&journal)
            .expect("journal attach"),
    );
    let handle = Server::start(
        engine.clone(),
        ServerConfig {
            service_addr: "127.0.0.1:0".to_string(),
            repl_addr: Some("127.0.0.1:0".to_string()),
            journal_path: Some(journal.clone()),
            heartbeat_interval: Duration::from_millis(80),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let service_addr = handle.service_addr().to_string();
    let repl_addr = handle.repl_addr().expect("repl port").to_string();

    // Drive churn through the wire, alternating pipelined and per-epoch
    // submits, with a group commit at the end.
    let mut churn = ChurnGen::new(&spec, seed ^ 0xfeed);
    let mut client = Client::connect(&service_addr).expect("client connect");
    for i in 0..epochs {
        let batch = churn.next_batch(&engine.current_set(), 3);
        let mode = if i % 2 == 0 {
            SubmitMode::Async
        } else {
            SubmitMode::Sync
        };
        client
            .submit(mode, SCHEMA_VERSION, &batch)
            .unwrap_or_else(|e| panic!("seed {seed}: submit {i} failed: {e}"));
    }
    client.sync(None).expect("final sync");
    let (epoch_p, digest_p) = client.digest().expect("primary digest");
    let (durable_bytes, durable_epoch) = engine.durable_journal().expect("durable mark");
    assert_eq!(durable_epoch, epoch_p, "seed {seed}: sync(all) covers all");

    // The follower, cut at each offset, then allowed to converge.
    let mut follower = Follower::new(
        set,
        config,
        policy,
        FollowerConfig {
            primary: repl_addr.clone(),
            journal: mirror.clone(),
            reconnect_delay: Duration::from_millis(20),
            exit_on_disconnect: true,
            catch_up_to: Some(epoch_p),
            ..FollowerConfig::default()
        },
    );
    for &cut in cuts {
        let cut = 1 + cut % durable_bytes.max(1);
        follower.config_mut().disconnect_after = Some(cut);
        match follower.run() {
            Ok(FollowerExit::Disconnected) | Ok(FollowerExit::CaughtUp) => {}
            other => panic!("seed {seed}: cut at {cut}: unexpected exit {other:?}"),
        }
    }
    follower.config_mut().disconnect_after = None;
    match follower.run() {
        Ok(FollowerExit::CaughtUp) => {}
        other => panic!("seed {seed}: final catch-up: unexpected exit {other:?}"),
    }

    // Digest equality (state-level) …
    assert_eq!(follower.epoch(), epoch_p, "seed {seed}: epoch");
    assert_eq!(
        follower.state_digest().as_deref(),
        Some(digest_p.as_str()),
        "seed {seed}: standby digest diverged from primary"
    );
    // … and byte-for-byte mirror equality (file-level).
    assert_eq!(
        follower.committed_bytes(),
        durable_bytes,
        "seed {seed}: committed bytes"
    );
    let primary_bytes = std::fs::read(&journal).expect("read primary journal");
    let mirror_bytes = std::fs::read(&mirror).expect("read mirror");
    assert_eq!(
        &primary_bytes[..durable_bytes as usize],
        &mirror_bytes[..],
        "seed {seed}: mirror is not byte-identical to the primary's durable prefix"
    );

    handle.stop();
    handle.join().expect("server drain");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&mirror);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random scenarios, random kill offsets (any byte of the stream,
    /// so cuts land mid-record more often than not).
    #[test]
    fn follower_resumes_byte_identical_after_random_kills(
        seed in 0u64..5_000,
        cuts in proptest::collection::vec(0u64..1_000_000, 1..4),
    ) {
        resume_session(seed, 10, &cuts);
    }
}

/// Deterministic smoke mirroring one proptest case (stable name for
/// `cargo test` triage): early, mid, and repeated tiny cuts.
#[test]
fn follower_resume_seed_zero() {
    resume_session(0, 8, &[1, 37, 9_999]);
}

/// A follower whose mirror silently diverges from the primary must be
/// ordered to reset at the resume handshake (FNV prefix check) and then
/// rebuild from byte 0 to full convergence — never resume onto the
/// corrupt prefix.
#[test]
fn corrupted_mirror_is_reset_and_rebuilt() {
    let seed = 7u64;
    let spec = spec_for(seed);
    let set = random_scenario(&spec);
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let journal = temp_path("corrupt-primary", seed);
    let mirror = temp_path("corrupt-mirror", seed);
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&mirror);

    let engine = Arc::new(
        SchedService::new(set.clone(), config.clone(), policy.clone())
            .expect("seed")
            .with_journal(&journal)
            .expect("journal attach"),
    );
    let handle = Server::start(
        engine.clone(),
        ServerConfig {
            repl_addr: Some("127.0.0.1:0".to_string()),
            journal_path: Some(journal.clone()),
            heartbeat_interval: Duration::from_millis(80),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let repl_addr = handle.repl_addr().expect("repl port").to_string();

    let mut churn = ChurnGen::new(&spec, seed);
    let mut client = Client::connect(&handle.service_addr().to_string()).expect("connect");
    for _ in 0..6 {
        let batch = churn.next_batch(&engine.current_set(), 2);
        client
            .submit(SubmitMode::Async, SCHEMA_VERSION, &batch)
            .expect("submit");
    }
    client.sync(None).expect("sync");
    let (epoch_p, digest_p) = client.digest().expect("digest");

    // First: converge honestly.
    let mut follower = Follower::new(
        set.clone(),
        config.clone(),
        policy.clone(),
        FollowerConfig {
            primary: repl_addr.clone(),
            journal: mirror.clone(),
            exit_on_disconnect: true,
            catch_up_to: Some(epoch_p),
            ..FollowerConfig::default()
        },
    );
    assert_eq!(follower.run().expect("first run"), FollowerExit::CaughtUp);
    let committed = follower.committed_bytes();
    drop(follower);

    // Corrupt one byte in the middle of the mirror, then restart a
    // fresh follower over it. Seeding replays the corrupt file — replay
    // may already refuse it; if the flip survives replay (it landed in
    // an escaped payload, say), the handshake's prefix digest must
    // catch it and force the reset path. Either way the follower must
    // end up converged on the honest prefix.
    let mut bytes = std::fs::read(&mirror).expect("read mirror");
    let at = bytes.len() / 2;
    bytes[at] ^= 0x01;
    std::fs::write(&mirror, &bytes).expect("corrupt mirror");

    let mut follower = Follower::new(
        set,
        config,
        policy,
        FollowerConfig {
            primary: repl_addr,
            journal: mirror.clone(),
            exit_on_disconnect: false,
            catch_up_to: Some(epoch_p),
            ..FollowerConfig::default()
        },
    );
    match follower.run() {
        Ok(FollowerExit::CaughtUp) => {
            assert_eq!(follower.state_digest().as_deref(), Some(digest_p.as_str()));
            assert_eq!(follower.committed_bytes(), committed);
        }
        // A flip that changes record *content* makes the corrupt replay
        // diverge loudly at seeding — also a correct refusal. Wipe and
        // rebuild, as an operator would.
        Err(_) => {
            std::fs::remove_file(&mirror).expect("wipe mirror");
        }
        Ok(other) => panic!("unexpected exit {other:?}"),
    }

    handle.stop();
    handle.join().expect("drain");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&mirror);
}

/// A mirror whose first line is *complete* but is not the journal header
/// is corruption: the follower must refuse it and leave the file alone —
/// not take it for a bootstrap cut short, empty it and re-stream. The
/// garbage line carries the words the old substring classifier keyed on.
/// A mirror cut *inside* the header is the cut-short case and still
/// bootstraps.
#[test]
fn garbage_mirror_is_refused_untouched_but_a_cut_header_bootstraps() {
    let seed = 13u64;
    let spec = spec_for(seed);
    let set = random_scenario(&spec);
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let journal = temp_path("garbage-primary", seed);
    let mirror = temp_path("garbage-mirror", seed);
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&mirror);

    let engine = Arc::new(
        SchedService::new(set.clone(), config.clone(), policy.clone())
            .expect("seed")
            .with_journal(&journal)
            .expect("journal attach"),
    );
    let handle = Server::start(
        engine.clone(),
        ServerConfig {
            repl_addr: Some("127.0.0.1:0".to_string()),
            journal_path: Some(journal.clone()),
            heartbeat_interval: Duration::from_millis(80),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let repl_addr = handle.repl_addr().expect("repl port").to_string();

    let mut churn = ChurnGen::new(&spec, seed);
    let mut client = Client::connect(&handle.service_addr().to_string()).expect("connect");
    for _ in 0..4 {
        let batch = churn.next_batch(&engine.current_set(), 2);
        client
            .submit(SubmitMode::Sync, SCHEMA_VERSION, &batch)
            .expect("submit");
    }
    let (epoch_p, digest_p) = client.digest().expect("digest");
    let follower_over_mirror = || {
        Follower::new(
            set.clone(),
            config.clone(),
            policy.clone(),
            FollowerConfig {
                primary: repl_addr.clone(),
                journal: mirror.clone(),
                exit_on_disconnect: true,
                catch_up_to: Some(epoch_p),
                ..FollowerConfig::default()
            },
        )
    };

    let garbage = b"header_parser on platform empty\nplatforms 4\n";
    std::fs::write(&mirror, garbage).expect("write garbage mirror");
    let refusal = follower_over_mirror().run();
    assert!(refusal.is_err(), "garbage mirror accepted: {refusal:?}");
    assert_eq!(
        std::fs::read(&mirror).expect("read mirror"),
        garbage,
        "a refused mirror must be left for the operator, not wiped"
    );

    let primary_bytes = std::fs::read(&journal).expect("read primary journal");
    for cut in [7, "hsched-journal v2\nplat".len()] {
        std::fs::write(&mirror, &primary_bytes[..cut]).expect("write cut mirror");
        let mut follower = follower_over_mirror();
        assert_eq!(
            follower.run().expect("cut header bootstraps"),
            FollowerExit::CaughtUp,
            "cut at {cut}"
        );
        assert_eq!(follower.state_digest().as_deref(), Some(digest_p.as_str()));
    }

    handle.stop();
    handle.join().expect("drain");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&mirror);
}

/// A restarted follower over an intact, fully caught-up mirror must
/// resume from its durable offset: the primary streams **zero** new
/// journal bytes, it just verifies the prefix and heartbeats.
#[test]
fn restart_resumes_without_restreaming() {
    let seed = 11u64;
    let spec = spec_for(seed);
    let set = random_scenario(&spec);
    let config = AnalysisConfig::default();
    let policy = AdmissionPolicy::default();
    let journal = temp_path("restart-primary", seed);
    let mirror = temp_path("restart-mirror", seed);
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&mirror);

    let engine = Arc::new(
        SchedService::new(set.clone(), config.clone(), policy.clone())
            .expect("seed")
            .with_journal(&journal)
            .expect("journal attach"),
    );
    let handle = Server::start(
        engine.clone(),
        ServerConfig {
            repl_addr: Some("127.0.0.1:0".to_string()),
            journal_path: Some(journal.clone()),
            heartbeat_interval: Duration::from_millis(60),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let service_addr = handle.service_addr().to_string();
    let repl_addr = handle.repl_addr().expect("repl port").to_string();

    let mut churn = ChurnGen::new(&spec, seed);
    let mut client = Client::connect(&service_addr).expect("connect");
    for _ in 0..6 {
        let batch = churn.next_batch(&engine.current_set(), 2);
        client
            .submit(SubmitMode::Sync, SCHEMA_VERSION, &batch)
            .expect("submit");
    }
    let (epoch_p, digest_p) = client.digest().expect("digest");

    // Converge once.
    let mut follower = Follower::new(
        set.clone(),
        config.clone(),
        policy.clone(),
        FollowerConfig {
            primary: repl_addr.clone(),
            journal: mirror.clone(),
            exit_on_disconnect: true,
            catch_up_to: Some(epoch_p),
            ..FollowerConfig::default()
        },
    );
    assert_eq!(follower.run().expect("first run"), FollowerExit::CaughtUp);
    drop(follower);

    let streamed_before = client
        .stats()
        .expect("stats")
        .counter("net.repl.bytes_streamed");

    // Fresh process over the same mirror: seeds from the file, offers
    // its durable offset, and just heartbeats. Stop it after a couple
    // of beats.
    let stop = Arc::new(AtomicBool::new(false));
    let mut follower = Follower::new(
        set,
        config,
        policy,
        FollowerConfig {
            primary: repl_addr,
            journal: mirror.clone(),
            stop: Some(stop.clone()),
            ..FollowerConfig::default()
        },
    );
    let runner = std::thread::spawn(move || {
        let exit = follower.run().expect("restarted follower");
        (exit, follower.state_digest(), follower.epoch())
    });
    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::SeqCst);
    let (exit, digest_f, epoch_f) = runner.join().expect("runner join");
    assert_eq!(exit, FollowerExit::Stopped);
    assert_eq!(epoch_f, epoch_p);
    assert_eq!(digest_f.as_deref(), Some(digest_p.as_str()));

    let streamed_after = client
        .stats()
        .expect("stats")
        .counter("net.repl.bytes_streamed");
    assert_eq!(
        streamed_after, streamed_before,
        "an up-to-date restart must not re-stream journal bytes"
    );

    handle.stop();
    handle.join().expect("drain");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&mirror);
}
