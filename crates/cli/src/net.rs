//! The networked subcommands: `hsched serve` (TCP front end + optional
//! journal-streaming replication), `hsched follow` (warm standby), and
//! the `--remote` client modes of `admit` and `stats`.
//!
//! All wire mechanics live in the `hsched-net` crate; this module is the
//! argument parsing and the output rendering.

use crate::json::{begin_envelope, JsonWriter};
use crate::{engine_policy, load, opt_flag, opt_value};
use hsched_admission::AdmissionRequest;
use hsched_analysis::AnalysisConfig;
use hsched_engine::{SchedService, SCHEMA_VERSION};
use hsched_net::{
    signal, Client, Follower, FollowerConfig, FollowerExit, RemoteEpoch, RetryClient, RetryPolicy,
    Server, ServerConfig, SubmitMode, WireError,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default service bind address of `hsched serve` (port 0 lets the OS
/// pick; scripts then read it back through `--addr-file`).
const DEFAULT_SERVICE_ADDR: &str = "127.0.0.1:7433";

/// Drain-poll cadence of the serve/follow wait loops.
const WAIT_POLL: Duration = Duration::from_millis(25);

// ---------------------------------------------------------------- serve

/// `hsched serve <SPEC.hsc> [OPTIONS]`: seed (or resume) a journaled
/// engine and serve it over TCP until SIGINT/SIGTERM, then drain —
/// in-flight epochs settle, every connection closes after its current
/// frame, and one final group commit makes everything durable.
pub(crate) fn run_serve(args: &[String]) -> Result<String, String> {
    let (path, set) = load(args)?;
    let policy = engine_policy(args);
    let addr = opt_value(args, "--addr")?.unwrap_or(DEFAULT_SERVICE_ADDR);
    let repl = opt_value(args, "--repl")?;
    let journal = opt_value(args, "--journal")?;
    let heartbeat_ms: u64 = match opt_value(args, "--heartbeat-ms")? {
        Some(n) => n
            .parse()
            .map_err(|_| format!("bad heartbeat interval `{n}`"))?,
        None => 500,
    };
    let addr_file = opt_value(args, "--addr-file")?;
    if repl.is_some() && journal.is_none() {
        return Err("--repl requires --journal (the streamer reads raw journal bytes)".to_string());
    }

    // A non-empty journal is a previous life of this server: resume it
    // (replay re-attaches the journal in append mode) instead of
    // clobbering it with a fresh seed.
    let mut resumed = None;
    let engine = match journal {
        Some(journal_path) if std::fs::metadata(journal_path).is_ok_and(|m| m.len() > 0) => {
            let (engine, stats) = SchedService::replay(
                set,
                AnalysisConfig::default(),
                policy,
                std::path::Path::new(journal_path),
            )
            .map_err(|e| e.to_string())?;
            resumed = Some(stats);
            engine
        }
        Some(journal_path) => SchedService::new(set, AnalysisConfig::default(), policy)
            .map_err(|e| e.to_string())?
            .with_journal(std::path::Path::new(journal_path))
            .map_err(|e| e.to_string())?,
        None => {
            SchedService::new(set, AnalysisConfig::default(), policy).map_err(|e| e.to_string())?
        }
    };
    let engine = Arc::new(engine);

    let config = ServerConfig {
        service_addr: addr.to_string(),
        repl_addr: repl.map(str::to_string),
        journal_path: journal.map(PathBuf::from),
        heartbeat_interval: Duration::from_millis(heartbeat_ms),
        shed: Default::default(),
    };
    let handle = Server::start(engine.clone(), config).map_err(|e| e.to_string())?;

    // The bound addresses go out *before* the blocking wait (stdout is
    // line-buffered), so scripts and operators can connect; the returned
    // summary renders after the drain.
    if let Some(stats) = &resumed {
        println!(
            "{path}: resumed epoch {} from journal ({} tail record(s), {} byte(s))",
            engine.epoch(),
            stats.tail_records,
            stats.journal_bytes
        );
    }
    println!("{path}: serving on {}", handle.service_addr());
    if let Some(repl_addr) = handle.repl_addr() {
        println!("replicating on {repl_addr}");
    }
    if let Some(file) = addr_file {
        let mut text = format!("service {}\n", handle.service_addr());
        if let Some(repl_addr) = handle.repl_addr() {
            let _ = writeln!(text, "repl {repl_addr}");
        }
        std::fs::write(file, text).map_err(|e| format!("cannot write `{file}`: {e}"))?;
    }

    let stop = signal::install();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(WAIT_POLL);
    }
    handle.stop();
    let synced = handle.join().map_err(|e| e.to_string())?;
    Ok(format!(
        "serve: drained; durable through epoch {synced}; state digest {}\n",
        engine.state_digest()
    ))
}

// --------------------------------------------------------------- follow

/// `hsched follow <SPEC.hsc> --from <HOST:PORT> --journal <FILE>`: run a
/// warm standby that tails the primary's journal stream into a local
/// mirror, replaying continuously. Divergence from the primary's
/// heartbeat digest is refused loudly (exit 3); with
/// `--exit-on-disconnect` a rejected resume offer is fatal too (exit 4).
/// With `--promote-on-loss`, a primary that stays gone for
/// `--max-reconnects` consecutive no-progress sessions triggers
/// takeover: the mirror replays into a serving primary (digest
/// cross-checked against the live standby) and this process carries on
/// as `hsched serve`.
pub(crate) fn run_follow(args: &[String]) -> Result<String, String> {
    let (path, set) = load(args)?;
    let policy = engine_policy(args);
    let from = opt_value(args, "--from")?.ok_or_else(|| {
        "follow needs --from HOST:PORT (the primary's replication port)".to_string()
    })?;
    let journal = opt_value(args, "--journal")?
        .ok_or_else(|| "follow needs --journal FILE (the local mirror)".to_string())?;
    let exit_on_disconnect = opt_flag(args, "--exit-on-disconnect");
    let promote_on_loss = opt_flag(args, "--promote-on-loss");
    if promote_on_loss && exit_on_disconnect {
        return Err(
            "--promote-on-loss counts reconnect attempts; it cannot be combined with \
             --exit-on-disconnect"
                .to_string(),
        );
    }
    let max_reconnects: u32 = match opt_value(args, "--max-reconnects")? {
        Some(n) => n
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad reconnect limit `{n}`"))?,
        None => 5,
    };
    // Flags of the promoted server, parsed up front: a typo must fail
    // now, not after hours of standby duty when the takeover fires.
    let addr = opt_value(args, "--addr")?.unwrap_or(DEFAULT_SERVICE_ADDR);
    let repl = opt_value(args, "--repl")?;
    let heartbeat_ms: u64 = match opt_value(args, "--heartbeat-ms")? {
        Some(n) => n
            .parse()
            .map_err(|_| format!("bad heartbeat interval `{n}`"))?,
        None => 500,
    };
    let addr_file = opt_value(args, "--addr-file")?;

    // Bridge the process-wide signal flag into the follower's own stop
    // flag; the bridge thread dies with the follower.
    let signal_flag = signal::install();
    let stop = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    {
        let stop = stop.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            while !done.load(Ordering::SeqCst) {
                if signal_flag.load(Ordering::SeqCst) {
                    stop.store(true, Ordering::SeqCst);
                    return;
                }
                std::thread::sleep(WAIT_POLL);
            }
        });
    }

    let config = FollowerConfig {
        primary: from.to_string(),
        journal: PathBuf::from(journal),
        stop: Some(stop),
        exit_on_disconnect,
        // An operator who wants disconnects surfaced wants resume
        // rejections surfaced too (a distinct exit code beats a silent
        // full resync).
        exit_on_reset: exit_on_disconnect,
        max_session_failures: promote_on_loss.then_some(max_reconnects),
        ..FollowerConfig::default()
    };
    let mut follower = Follower::new(set, AnalysisConfig::default(), policy, config);
    println!("{path}: following {from}; mirror {journal}");
    let exit = follower.run();
    done.store(true, Ordering::SeqCst);
    match exit {
        Ok(FollowerExit::Lost) => {
            println!(
                "{path}: primary lost ({max_reconnects} session(s) without progress); promoting"
            );
            promote_and_serve(
                &path,
                follower,
                journal,
                addr,
                repl,
                heartbeat_ms,
                addr_file,
                signal_flag,
            )
        }
        Ok(why) => {
            let why = match why {
                FollowerExit::Stopped => "stopped",
                FollowerExit::Disconnected => "primary disconnected",
                FollowerExit::CaughtUp => "caught up",
                FollowerExit::Lost => unreachable!("handled above"),
            };
            Ok(format!(
                "standby: epoch {} digest {} ({why}; {} mirrored byte(s))\n",
                follower.epoch(),
                follower.state_digest().unwrap_or_else(|| "-".to_string()),
                follower.committed_bytes()
            ))
        }
        // Divergence (and any other fatal wire failure) must be loud:
        // a standby that silently drifts is worse than none. The message
        // prefix is load-bearing — `exit_code_for` maps it to the
        // process exit code documented in the FOLLOW help.
        Err(e) => Err(format!("{}{e}", follow_failure_prefix(&e))),
    }
}

/// The typed failure prefixes `hsched_cli::exit_code_for` keys off.
fn follow_failure_prefix(e: &WireError) -> &'static str {
    match e {
        WireError::Remote { code, .. } if *code == hsched_net::code::REPLAY => "standby diverged: ",
        WireError::Remote { code, .. } if *code == hsched_net::code::BAD_OFFSET => {
            "standby resume rejected: "
        }
        _ => "standby refused: ",
    }
}

/// The takeover path of `follow --promote-on-loss`: replay the mirror
/// into a serving primary (epoch and digest cross-checked against the
/// state the live standby had applied), then run the serve loop until
/// signalled — from here on the process *is* `hsched serve` over the
/// inherited journal.
#[allow(clippy::too_many_arguments)]
fn promote_and_serve(
    path: &str,
    follower: Follower,
    journal: &str,
    addr: &str,
    repl: Option<&str>,
    heartbeat_ms: u64,
    addr_file: Option<&str>,
    signal_flag: &'static AtomicBool,
) -> Result<String, String> {
    let (engine, stats) = follower
        .promote()
        .map_err(|e| format!("{}{e}", follow_failure_prefix(&e)))?;
    let config = ServerConfig {
        service_addr: addr.to_string(),
        repl_addr: repl.map(str::to_string),
        journal_path: Some(PathBuf::from(journal)),
        heartbeat_interval: Duration::from_millis(heartbeat_ms),
        shed: Default::default(),
    };
    let handle = Server::start(engine.clone(), config).map_err(|e| e.to_string())?;
    println!(
        "{path}: promoted at epoch {} ({} tail record(s), {} repaired byte(s)); serving on {}",
        engine.epoch(),
        stats.tail_records,
        stats.repaired_bytes,
        handle.service_addr()
    );
    if let Some(repl_addr) = handle.repl_addr() {
        println!("replicating on {repl_addr}");
    }
    if let Some(file) = addr_file {
        let mut text = format!("service {}\n", handle.service_addr());
        if let Some(repl_addr) = handle.repl_addr() {
            let _ = writeln!(text, "repl {repl_addr}");
        }
        std::fs::write(file, text).map_err(|e| format!("cannot write `{file}`: {e}"))?;
    }
    while !signal_flag.load(Ordering::SeqCst) {
        std::thread::sleep(WAIT_POLL);
    }
    handle.stop();
    let synced = handle.join().map_err(|e| e.to_string())?;
    Ok(format!(
        "promoted: drained; durable through epoch {synced}; state digest {}\n",
        engine.state_digest()
    ))
}

// -------------------------------------------------------- remote client

/// `hsched admit … --remote HOST:PORT`: submit the parsed script batches
/// to a serving primary instead of a local engine. `--async` pipelines
/// the whole run over the connection (all submits sent before the first
/// response is awaited) and group-commits with one `sync`; a signal
/// during the send loop drains what was already sent. `--retry N` routes
/// through [`RetryClient`]: transient wire failures (dead connections,
/// shed `overloaded` replies) reconnect and resend under per-batch
/// idempotency tickets, so no batch ever commits twice.
pub(crate) fn run_admit_remote(
    path: &str,
    remote: &str,
    batches: &[Vec<AdmissionRequest>],
    json: bool,
    pipeline: bool,
    stats: bool,
    retry: u32,
) -> Result<String, String> {
    let mut epochs: Vec<RemoteEpoch> = Vec::new();
    let mut durable_epoch = 0;
    let mut drained_early = false;
    let mut retries = 0u64;
    let (engine_epoch, digest, snapshot);
    if retry > 0 {
        let policy = RetryPolicy {
            attempts: retry.saturating_add(1),
            ..RetryPolicy::default()
        };
        let mut client = RetryClient::new(remote, policy);
        if pipeline {
            epochs = client
                .run_pipelined(SCHEMA_VERSION, batches)
                .map_err(|e| format!("remote: {e}"))?;
            durable_epoch = client.sync(None).map_err(|e| format!("remote: {e}"))?;
        } else {
            for batch in batches {
                let epoch = client
                    .submit(SubmitMode::Sync, SCHEMA_VERSION, batch)
                    .map_err(|e| format!("remote: {e}"))?;
                durable_epoch = epoch.epoch;
                epochs.push(epoch);
            }
        }
        let pair = client.digest().map_err(|e| format!("remote: {e}"))?;
        engine_epoch = pair.0;
        digest = pair.1;
        snapshot = if stats {
            Some(client.stats().map_err(|e| format!("remote: {e}"))?)
        } else {
            None
        };
        retries = client.retries();
        let _ = client.quit();
    } else {
        let mut client =
            Client::connect(remote).map_err(|e| format!("cannot connect to `{remote}`: {e}"))?;
        if pipeline {
            let stop = signal::install();
            let mut sent = 0usize;
            for batch in batches {
                if stop.load(Ordering::SeqCst) {
                    drained_early = true;
                    break;
                }
                client
                    .send_submit(SubmitMode::Async, SCHEMA_VERSION, batch)
                    .map_err(|e| format!("remote: {e}"))?;
                sent += 1;
            }
            for _ in 0..sent {
                epochs.push(client.recv_epoch().map_err(|e| format!("remote: {e}"))?);
            }
            durable_epoch = client.sync(None).map_err(|e| format!("remote: {e}"))?;
        } else {
            for batch in batches {
                let epoch = client
                    .submit(SubmitMode::Sync, SCHEMA_VERSION, batch)
                    .map_err(|e| format!("remote: {e}"))?;
                durable_epoch = epoch.epoch;
                epochs.push(epoch);
            }
        }
        let pair = client.digest().map_err(|e| format!("remote: {e}"))?;
        engine_epoch = pair.0;
        digest = pair.1;
        snapshot = if stats {
            Some(client.stats().map_err(|e| format!("remote: {e}"))?)
        } else {
            None
        };
        let _ = client.quit();
    }

    if json {
        let mut w = JsonWriter::new();
        begin_envelope(&mut w, "admit");
        w.field_str("spec", path)
            .field_str("mode", if pipeline { "async" } else { "sync" })
            .field_str("remote", remote)
            .field_raw("durable_epoch", durable_epoch);
        if retry > 0 {
            w.field_raw("retries", retries);
        }
        if drained_early {
            w.field_raw("drained_on_signal", true);
        }
        w.begin_array_field("epochs");
        for epoch in &epochs {
            write_remote_epoch(&mut w, epoch);
        }
        w.end_array();
        if let Some(snap) = &snapshot {
            crate::stats::write_metrics_json(&mut w, snap);
        }
        w.object_field("engine")
            .field_raw("epoch", engine_epoch)
            .field_str("digest", &digest)
            .end_object();
        w.end_object();
        return Ok(w.finish());
    }

    let mut out = String::new();
    let _ = writeln!(out, "{path}: {} batch(es) -> {remote}", batches.len());
    for epoch in &epochs {
        let _ = writeln!(out, "{epoch}");
    }
    if drained_early {
        let _ = writeln!(
            out,
            "drained on signal: {} of {} batch(es) submitted",
            epochs.len(),
            batches.len()
        );
    }
    if pipeline {
        let _ = writeln!(
            out,
            "pipelined: {} epoch(s) committed async, one sync; durable through epoch {durable_epoch}",
            epochs.len()
        );
    }
    if retry > 0 {
        let _ = writeln!(out, "retried {retries} time(s)");
    }
    if let Some(snap) = &snapshot {
        let _ = write!(out, "{}", crate::stats::render_metrics_human(snap));
    }
    let _ = writeln!(
        out,
        "remote engine: epoch {engine_epoch}; state digest {digest}"
    );
    Ok(out)
}

/// One epoch object of the `--remote` JSON epochs array — the same field
/// names the local `admit --json` writes, plus the stable `err_code` on
/// rejections.
fn write_remote_epoch(w: &mut JsonWriter, epoch: &RemoteEpoch) {
    w.begin_object()
        .field_raw("epoch", epoch.epoch)
        .field_str(
            "verdict",
            if epoch.admitted {
                "admitted"
            } else {
                "rejected"
            },
        )
        .field_raw("requests", epoch.requests)
        .field_raw("analyzed", epoch.analyzed)
        .field_raw("total", epoch.total)
        .field_raw("islands", epoch.islands)
        .field_raw("warm", epoch.warm)
        .field_raw("shards", epoch.shards_touched);
    w.begin_array_field("shard_set");
    for slot in &epoch.shards {
        w.element_raw(slot);
    }
    w.end_array();
    if let Some(reason) = &epoch.reason {
        w.field_str("reason", &reason.kind)
            .field_str("detail", &reason.detail)
            .field_raw("err_code", reason.code);
    }
    w.end_object();
}

/// `hsched stats --remote HOST:PORT [--json]`: fetch a serving primary's
/// merged telemetry snapshot (engine + admission + analysis + wire
/// counters) without needing the spec or a script.
pub(crate) fn run_stats_remote(remote: &str, json: bool) -> Result<String, String> {
    let mut client =
        Client::connect(remote).map_err(|e| format!("cannot connect to `{remote}`: {e}"))?;
    let snap = client.stats().map_err(|e| format!("remote: {e}"))?;
    let _ = client.quit();
    if json {
        let mut w = JsonWriter::new();
        begin_envelope(&mut w, "stats");
        w.field_str("remote", remote);
        crate::stats::write_metrics_json(&mut w, &snap);
        w.end_object();
        return Ok(w.finish());
    }
    let mut out = String::new();
    let _ = writeln!(out, "remote {remote}");
    let _ = write!(out, "{}", crate::stats::render_metrics_human(&snap));
    Ok(out)
}
