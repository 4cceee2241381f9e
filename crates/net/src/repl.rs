//! Journal-streaming replication, primary side.
//!
//! One [`ReplShared`] per server holds the pieces every follower
//! connection shares:
//!
//! * a **durable mark** — the `(bytes, epoch)` high-water pair, advanced
//!   by a single [`SchedService::subscribe_durable`] registration made at
//!   server start (journal subscriptions cannot be removed, so
//!   per-connection registrations would leak one closure per follower
//!   ever seen);
//! * the latest **heartbeat** — a consistent `(epoch, digest)` pair
//!   refreshed at low rate by one server-level thread (digests quiesce
//!   the pipeline; per-follower digests would multiply that cost).
//!
//! Each follower connection gets its own streamer loop that reads raw
//! bytes straight from the journal file — replication ships the journal
//! *verbatim*, so a follower's mirror is byte-identical to the primary's
//! prefix and `hsched replay` of either file is interchangeable.
//!
//! Resume: the follower's `follow <offset> <fnv16>` handshake claims it
//! already holds `offset` bytes whose FNV-1a digest is `fnv16`. The
//! primary accepts only if its own first `offset` bytes hash identically
//! — otherwise (diverged mirror, compacted journal) it orders a `reset`
//! and the follower rebuilds from byte 0. Acceptance is cheap relative
//! to re-streaming a long journal and makes mid-record disconnects safe:
//! the follower re-offers its last *committed* prefix, never a torn one.

use crate::error::{code, WireError};
use crate::frame::{read_frame, write_frame, FrameRead};
use crate::proto;
use crate::server::{ConnCtx, POLL_INTERVAL};
use hsched_engine::{fnv1a_64, fnv1a_64_extend, DurableMark, SchedService};
use std::io::{Read, Seek, SeekFrom};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Upper bound on one `jbytes` chunk (journal bytes per frame). Well
/// under [`crate::frame::MAX_FRAME_BYTES`]; a long catch-up is simply
/// many chunks.
pub const CHUNK_BYTES: u64 = 256 * 1024;

/// FNV-1a 64 of the first `prefix` bytes of the file at `path`, streamed
/// (a journal can be long; nothing here holds it in memory).
pub fn file_prefix_digest(path: &std::path::Path, prefix: u64) -> Result<u64, WireError> {
    let mut file = std::fs::File::open(path)?;
    let mut remaining = prefix;
    let mut hash = fnv1a_64(b"");
    let mut buf = [0u8; 8192];
    while remaining > 0 {
        let want = buf.len().min(remaining as usize);
        let got = file.read(&mut buf[..want])?;
        if got == 0 {
            return Err(WireError::remote(
                code::BAD_OFFSET,
                format!("journal holds fewer than {prefix} bytes"),
            ));
        }
        hash = fnv1a_64_extend(hash, &buf[..got]);
        remaining -= got as u64;
    }
    Ok(hash)
}

struct MarkState {
    mark: Mutex<DurableMark>,
    advanced: Condvar,
}

/// Replication state shared by every follower connection of one server.
pub struct ReplShared {
    engine: Arc<SchedService>,
    journal_path: PathBuf,
    marks: Arc<MarkState>,
    heartbeat: Arc<Mutex<Option<(u64, String)>>>,
}

impl ReplShared {
    /// Wires replication into a serving engine: registers the one
    /// durable-mark subscriber and spawns the heartbeat thread (which
    /// also group-commits settled epochs at each beat, so pipelined
    /// submits reach followers even if no client ever sends `sync`).
    /// Errors if the engine has no attached journal.
    pub fn install(
        engine: &Arc<SchedService>,
        journal_path: PathBuf,
        heartbeat_interval: Duration,
        stop: Arc<AtomicBool>,
    ) -> Result<ReplShared, WireError> {
        let (bytes, epoch) = engine.durable_journal().ok_or_else(|| {
            WireError::remote(
                code::JOURNAL,
                "replication requires an engine with an attached journal",
            )
        })?;
        let marks = Arc::new(MarkState {
            mark: Mutex::new(DurableMark { bytes, epoch }),
            advanced: Condvar::new(),
        });
        {
            let marks = marks.clone();
            engine
                .subscribe_durable(Arc::new(move |new: DurableMark| {
                    let mut mark = marks.mark.lock().expect("durable mark poisoned");
                    // Subscribers can observe marks out of order (the
                    // notifications run outside the engine's core lock),
                    // so the shared mark is a component-wise running max.
                    // Compaction *shrinks* the prefix; streamers detect
                    // that through the engine's compaction counter, not
                    // through this mark.
                    if new.bytes > mark.bytes || new.epoch > mark.epoch {
                        mark.bytes = mark.bytes.max(new.bytes);
                        mark.epoch = mark.epoch.max(new.epoch);
                        marks.advanced.notify_all();
                    }
                }))
                .map_err(WireError::from_engine)?;
        }
        let heartbeat = Arc::new(Mutex::new(None));
        {
            let engine = engine.clone();
            let heartbeat = heartbeat.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    // Group-commit whatever settled, then capture one
                    // consistent (epoch, digest) pair for followers to
                    // cross-check against. A poisoned journal stops the
                    // beats; followers notice the silence, operators
                    // notice the submit errors.
                    if engine.sync(u64::MAX).is_err() {
                        return;
                    }
                    let pair = engine.epoch_digest();
                    *heartbeat.lock().expect("heartbeat pair poisoned") = Some(pair);
                    let mut slept = Duration::ZERO;
                    while slept < heartbeat_interval && !stop.load(Ordering::SeqCst) {
                        std::thread::sleep(POLL_INTERVAL);
                        slept += POLL_INTERVAL;
                    }
                }
            });
        }
        Ok(ReplShared {
            engine: engine.clone(),
            journal_path,
            marks,
            heartbeat,
        })
    }

    fn compaction_count(&self) -> u64 {
        self.engine.metrics().counter("engine.journal.compactions")
    }

    fn current_mark(&self) -> DurableMark {
        *self.marks.mark.lock().expect("durable mark poisoned")
    }
}

fn send(stream: &mut TcpStream, ctx: &ConnCtx, payload: &str) -> Result<(), WireError> {
    let n = write_frame(stream, payload)?;
    ctx.metrics.frames_out.incr();
    ctx.metrics.bytes_out.add(n);
    Ok(())
}

/// One follower connection: handshake (greet, verify the resume offer),
/// then the streamer loop — ship new durable bytes as `jbytes` chunks,
/// relay heartbeats, absorb `ack`s into the lag histogram, and order a
/// `reset` if the journal is compacted out from under the stream.
pub fn handle_follower_conn(mut stream: TcpStream, ctx: &ConnCtx, repl: &ReplShared) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    if send(&mut stream, ctx, proto::REPL_GREETING).is_err() {
        return;
    }
    // Handshake: wait for the follower's resume offer.
    let offer = loop {
        match read_frame(&mut stream, Some(&ctx.stop)) {
            Ok(FrameRead::Frame(payload)) => break payload,
            Ok(FrameRead::Idle) => {
                if ctx.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Ok(FrameRead::Eof) | Err(_) => return,
        }
    };
    ctx.metrics.frames_in.incr();
    ctx.metrics.bytes_in.add(4 + offer.len() as u64);
    let (offset, claimed) = match proto::parse_follow(&offer) {
        Ok(parsed) => parsed,
        Err(e) => {
            ctx.metrics.malformed_rejects.incr();
            let _ = send(&mut stream, ctx, &proto::encode_error(&e));
            return;
        }
    };
    let mark = {
        // The subscription mark only moves on syncs after install; fold
        // in the live engine view so a fresh server accepts immediately.
        let live = repl.engine.durable_journal().unwrap_or((0, 0));
        let mut mark = repl.current_mark();
        mark.bytes = mark.bytes.max(live.0);
        mark.epoch = mark.epoch.max(live.1);
        mark
    };
    if offset > mark.bytes {
        let _ = send(
            &mut stream,
            ctx,
            &proto::encode_reset(&format!(
                "resume offset {offset} is past the durable prefix ({} bytes)",
                mark.bytes
            )),
        );
        return;
    }
    match file_prefix_digest(&repl.journal_path, offset) {
        Ok(actual) if actual == claimed => {}
        Ok(_) => {
            let _ = send(
                &mut stream,
                ctx,
                &proto::encode_reset(&format!("prefix digest mismatch at offset {offset}")),
            );
            return;
        }
        Err(e) => {
            let _ = send(&mut stream, ctx, &proto::encode_error(&e));
            return;
        }
    }
    if send(
        &mut stream,
        ctx,
        &proto::encode_streaming(mark.bytes, mark.epoch),
    )
    .is_err()
    {
        return;
    }

    let base_compactions = repl.compaction_count();
    let mut sent = offset;
    let mut last_heartbeat: Option<u64> = None;
    let mut idle_rounds = 0u32;
    loop {
        if ctx.stop.load(Ordering::SeqCst) {
            return;
        }
        // Absorb follower traffic; the read timeout doubles as the
        // loop's pacing when nothing is happening.
        match read_frame(&mut stream, Some(&ctx.stop)) {
            Ok(FrameRead::Frame(payload)) => {
                ctx.metrics.frames_in.incr();
                ctx.metrics.bytes_in.add(4 + payload.len() as u64);
                match proto::parse_ack(&payload) {
                    Ok(applied) => {
                        let durable_epoch = repl.current_mark().epoch;
                        ctx.metrics
                            .repl_lag_records
                            .record(durable_epoch.saturating_sub(applied));
                    }
                    Err(e) => {
                        ctx.metrics.malformed_rejects.incr();
                        let _ = send(&mut stream, ctx, &proto::encode_error(&e));
                        return;
                    }
                }
            }
            Ok(FrameRead::Idle) => {}
            Ok(FrameRead::Eof) | Err(_) => return,
        }
        // Periodically (and always before touching the file) make sure
        // the journal we are streaming is still the journal we opened
        // the stream against.
        idle_rounds += 1;
        let mark = repl.current_mark();
        if mark.bytes > sent || idle_rounds >= 40 {
            idle_rounds = 0;
            if repl.compaction_count() != base_compactions {
                let _ = send(&mut stream, ctx, &proto::encode_reset("journal compacted"));
                return;
            }
        }
        if mark.bytes > sent && stream_bytes(&mut stream, ctx, repl, &mut sent, mark.bytes).is_err()
        {
            return;
        }
        // Relay the latest heartbeat once per refresh. The follower may
        // not have applied that epoch yet — it holds the pair pending
        // and checks after each apply.
        let beat = repl
            .heartbeat
            .lock()
            .expect("heartbeat pair poisoned")
            .clone();
        if let Some((epoch, digest)) = beat {
            if last_heartbeat != Some(epoch)
                && send(&mut stream, ctx, &proto::encode_digest(epoch, &digest)).is_err()
            {
                return;
            }
            last_heartbeat = Some(epoch);
        }
    }
}

fn stream_bytes(
    stream: &mut TcpStream,
    ctx: &ConnCtx,
    repl: &ReplShared,
    sent: &mut u64,
    upto: u64,
) -> Result<(), WireError> {
    // A fresh handle per burst: bursts are rare next to frames, and a
    // long-lived handle would keep a compacted-away inode alive.
    let mut file = std::fs::File::open(&repl.journal_path)?;
    file.seek(SeekFrom::Start(*sent))?;
    while *sent < upto {
        let want = (upto - *sent).min(CHUNK_BYTES) as usize;
        let mut buf = vec![0u8; want];
        file.read_exact(&mut buf)?;
        let text = String::from_utf8(buf).map_err(|_| {
            WireError::remote(
                code::INTERNAL,
                "journal bytes are not UTF-8 (format violation)",
            )
        })?;
        send(stream, ctx, &proto::encode_jbytes(*sent, &text))?;
        ctx.metrics.repl_bytes_streamed.add(want as u64);
        *sent += want as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_prefix_digest_streams_and_bounds() {
        let dir = std::env::temp_dir().join(format!("hsched-net-fnv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prefix.bin");
        std::fs::write(&path, b"hello journal").unwrap();
        assert_eq!(file_prefix_digest(&path, 5).unwrap(), fnv1a_64(b"hello"));
        assert_eq!(file_prefix_digest(&path, 0).unwrap(), fnv1a_64(b""));
        match file_prefix_digest(&path, 1000) {
            Err(WireError::Remote { code: c, .. }) => assert_eq!(c, code::BAD_OFFSET),
            other => panic!("expected BAD_OFFSET, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
