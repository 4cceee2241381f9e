//! The `hsched replay` subcommand: rebuild a sharded admission engine from
//! its seed specification plus the write-ahead journal `hsched admit
//! --journal` recorded, repairing any torn tail. The printed state digest
//! equals the one the original `admit` run printed iff the rebuilt engine
//! is byte-identical — that string compare is the whole recovery check.
//!
//! Replay applies records, not analyses: a record marked admitted has its
//! batch applied and must pass reserve's rules, a record marked rejected
//! only advances the counters, and every island the records changed is
//! analyzed once at the end — where a shard an admitted record left failing
//! the numeric precheck, unanalyzable or unschedulable refuses the journal.
//! `--verify` is the audit: the same
//! applier re-analyzes every epoch as the live engine did and cross-checks
//! each recorded verdict, which is the only way to catch a record marked
//! rejected whose batch admits.

use crate::admit::{stats_line, write_stats};
use crate::json::{begin_envelope, write_engine_section, write_report, JsonWriter};
use hsched_admission::AdmissionPolicy;
use hsched_engine::SchedService;
use hsched_transaction::TransactionSet;
use std::fmt::Write as _;

/// Replays `journal` against the spec-seeded `set` (re-deriving every
/// verdict with `verify`) and renders the rebuilt engine (epochs replayed,
/// shard topology, digest, final report).
pub(crate) fn run_replay(
    path: &str,
    set: TransactionSet,
    journal_path: &str,
    policy: AdmissionPolicy,
    json: bool,
    verify: bool,
) -> Result<String, String> {
    let replay = if verify {
        SchedService::replay_verified
    } else {
        SchedService::replay
    };
    let (engine, stats) = replay(
        set,
        hsched_analysis::AnalysisConfig::default(),
        policy,
        std::path::Path::new(journal_path),
    )
    .map_err(|e| e.to_string())?;
    let epochs = stats.tail_records;

    if json {
        let mut w = JsonWriter::new();
        begin_envelope(&mut w, "replay");
        w.field_str("spec", path)
            .field_raw("epochs_replayed", epochs)
            .field_raw("verified", verify)
            .field_raw("journal_bytes", stats.journal_bytes)
            .field_raw("repaired_bytes", stats.repaired_bytes);
        // A compacted journal resumes from its snapshot: the tickets
        // before `snapshot_epoch` were folded into the block, not re-run.
        if let Some(snapshot_epoch) = stats.snapshot_epoch {
            w.field_raw("snapshot_epoch", snapshot_epoch);
        }
        write_stats(&mut w, &engine);
        write_engine_section(&mut w, &engine, Some(journal_path));
        write_report(&mut w, Some("final"), &engine.report());
        w.end_object();
        return Ok(w.finish());
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{journal_path}: replayed {epochs} epoch(s) against {path}"
    );
    if verify {
        let _ = writeln!(
            out,
            "verified: every epoch re-analyzed, all {epochs} recorded verdict(s) agree"
        );
    }
    let _ = writeln!(
        out,
        "journal: {} record(s), {} byte(s) valid{}",
        stats.tail_records,
        stats.journal_bytes,
        if stats.repaired_bytes > 0 {
            format!(", {} torn-tail byte(s) repaired", stats.repaired_bytes)
        } else {
            String::new()
        }
    );
    if let Some(snapshot_epoch) = stats.snapshot_epoch {
        let _ = writeln!(
            out,
            "resumed from snapshot at epoch {snapshot_epoch} (compacted journal)"
        );
    }
    let _ = writeln!(out, "{}", stats_line(&engine));
    let _ = writeln!(
        out,
        "engine: {} island shard(s); state digest {}",
        engine.shard_count(),
        engine.state_digest()
    );
    let _ = writeln!(out, "\nfinal system:");
    let _ = write!(out, "{}", engine.report());
    Ok(out)
}
