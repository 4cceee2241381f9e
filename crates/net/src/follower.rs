//! The warm standby: connects to a primary's replication port, mirrors
//! the journal byte-for-byte into a local file, and feeds every complete
//! record through streaming replay *as it arrives* — so at any instant
//! the standby is a live engine at the primary's last-streamed epoch,
//! not a cold journal waiting to be replayed.
//!
//! Correctness discipline:
//!
//! * **The mirror is append-only and the commit point is a byte
//!   offset.** `committed` always equals the valid prefix — the bytes of
//!   every record the standby has applied. A disconnect mid-record
//!   leaves a torn tail *past* `committed`; on reconnect the tail is
//!   truncated and the resume handshake offers exactly `committed`, so
//!   the primary re-streams from the record boundary. The whole journal
//!   is never re-streamed (that is the point of resume), and nothing
//!   before `committed` is ever re-applied.
//! * **Divergence is loud.** Every heartbeat carries the primary's
//!   consistent `(epoch, digest)` pair; once the standby has applied
//!   that epoch it compares its own state digest and *refuses to
//!   continue* on mismatch — a diverged standby that keeps tailing would
//!   be worse than none.

use crate::error::{code, WireError};
use crate::frame::{read_frame, write_frame, FrameRead};
use crate::proto;
use crate::server::POLL_INTERVAL;
use hsched_admission::AdmissionPolicy;
use hsched_analysis::AnalysisConfig;
use hsched_engine::{fnv1a_64, EngineError, JournalStream, SchedService};
use hsched_transaction::TransactionSet;
use std::io::{Seek, SeekFrom, Write as IoWrite};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Follower configuration.
pub struct FollowerConfig {
    /// `host:port` of the primary's replication listener.
    pub primary: String,
    /// Local journal mirror path (created if absent; an existing mirror
    /// seeds the standby and resumes from its durable prefix).
    pub journal: PathBuf,
    /// Pause between reconnect attempts.
    pub reconnect_delay: Duration,
    /// Stop flag (signal handler or test harness); checked between
    /// frames.
    pub stop: Option<Arc<AtomicBool>>,
    /// Test knob: deliberately drop the connection after receiving this
    /// many journal bytes **in one session** — the cut can land
    /// mid-record, which is exactly what the resume proptests exercise.
    pub disconnect_after: Option<u64>,
    /// Exit [`Follower::run`] at the first disconnect instead of
    /// reconnecting (smoke tests assert on the final state).
    pub exit_on_disconnect: bool,
    /// Exit [`Follower::run`] once the standby has applied this epoch —
    /// the "bootstrap a warm standby to a known point, then hand it
    /// over" mode, and the convergence point the resume proptests drive
    /// to.
    pub catch_up_to: Option<u64>,
    /// Treat a `reset` order as fatal instead of resyncing from byte 0:
    /// [`Follower::run`] returns a [`code::BAD_OFFSET`] error carrying
    /// the primary's reason. An operator running `--exit-on-disconnect`
    /// wants distinct exit codes for "primary gone" and "primary refused
    /// our resume offer", not a silent full resync.
    pub exit_on_reset: bool,
    /// Declare the primary **lost** ([`FollowerExit::Lost`]) after this
    /// many consecutive sessions that ended in a disconnect (or failed to
    /// connect) without advancing the mirror. `None` retries forever.
    /// This is the trigger for `hsched follow --promote-on-loss`.
    pub max_session_failures: Option<u32>,
}

impl Default for FollowerConfig {
    fn default() -> FollowerConfig {
        FollowerConfig {
            primary: String::new(),
            journal: PathBuf::new(),
            reconnect_delay: Duration::from_millis(200),
            stop: None,
            disconnect_after: None,
            exit_on_disconnect: false,
            catch_up_to: None,
            exit_on_reset: false,
            max_session_failures: None,
        }
    }
}

/// Why [`Follower::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FollowerExit {
    /// The stop flag was raised.
    Stopped,
    /// The primary went away and `exit_on_disconnect` is set.
    Disconnected,
    /// The standby reached `catch_up_to`.
    CaughtUp,
    /// `max_session_failures` consecutive sessions made no progress — the
    /// primary is presumed dead. The caller decides what happens next
    /// (typically [`Follower::promote`]).
    Lost,
}

enum Session {
    Disconnected,
    Reset(String),
    Stopped,
    CaughtUp,
}

/// A warm standby. Build with [`Follower::new`], drive with
/// [`Follower::run`]; observe with [`Follower::epoch`] /
/// [`Follower::state_digest`] / [`Follower::committed_bytes`].
pub struct Follower {
    set: TransactionSet,
    analysis: AnalysisConfig,
    policy: AdmissionPolicy,
    config: FollowerConfig,
    standby: Option<SchedService>,
    /// Bytes of the mirror covered by applied complete records.
    committed: u64,
    /// The epoch the next journal record must carry.
    next_epoch: u64,
    /// A heartbeat for an epoch the standby has not reached yet.
    pending_heartbeat: Option<(u64, String)>,
}

impl Follower {
    /// Builds a follower over the same system specification the primary
    /// was started from (the journal's platform count is cross-checked,
    /// and replay refuses records that do not apply to it).
    pub fn new(
        set: TransactionSet,
        analysis: AnalysisConfig,
        policy: AdmissionPolicy,
        config: FollowerConfig,
    ) -> Follower {
        Follower {
            set,
            analysis,
            policy,
            config,
            standby: None,
            committed: 0,
            next_epoch: 1,
            pending_heartbeat: None,
        }
    }

    /// The standby's settled epoch (0 before any record applied).
    pub fn epoch(&self) -> u64 {
        self.standby.as_ref().map_or(0, |s| s.epoch())
    }

    /// The standby's state digest, if it exists yet.
    pub fn state_digest(&self) -> Option<String> {
        self.standby.as_ref().map(|s| s.state_digest())
    }

    /// Bytes of the local mirror covered by applied records — the resume
    /// offset the next handshake will offer.
    pub fn committed_bytes(&self) -> u64 {
        self.committed
    }

    /// Mutable access to the run configuration (between [`Follower::run`]
    /// calls: the resume tests re-run one follower with different
    /// disconnect points).
    pub fn config_mut(&mut self) -> &mut FollowerConfig {
        &mut self.config
    }

    fn caught_up(&self) -> bool {
        self.config
            .catch_up_to
            .is_some_and(|target| self.epoch() >= target)
    }

    fn stopped(&self) -> bool {
        self.config
            .stop
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    }

    /// Tails the primary until stopped (or until the first disconnect,
    /// with `exit_on_disconnect`). Reconnects with resume after
    /// disconnects, rebuilds from scratch after a `reset` order, and
    /// returns an error only for conditions that must not be retried —
    /// divergence above all.
    pub fn run(&mut self) -> Result<FollowerExit, WireError> {
        // An existing mirror seeds the standby before first contact, so
        // the handshake offers its durable prefix instead of 0.
        self.seed_from_mirror()?;
        // Consecutive no-progress session failures (loss detection).
        let mut failures = 0u32;
        loop {
            if self.stopped() {
                return Ok(FollowerExit::Stopped);
            }
            // No catch-up short-circuit here: a mirror can *look* caught
            // up (right epoch count, wrong bytes); only a session that
            // passed the resume handshake and streamed/heartbeat against
            // the live primary may declare it.
            let before = self.committed;
            match self.run_session() {
                Ok(Session::Stopped) => return Ok(FollowerExit::Stopped),
                Ok(Session::CaughtUp) => return Ok(FollowerExit::CaughtUp),
                Ok(Session::Disconnected) | Err(WireError::Io(_)) => {
                    if self.config.exit_on_disconnect {
                        return Ok(FollowerExit::Disconnected);
                    }
                    failures = if self.committed > before {
                        0
                    } else {
                        failures + 1
                    };
                    if self
                        .config
                        .max_session_failures
                        .is_some_and(|limit| failures >= limit)
                    {
                        return Ok(FollowerExit::Lost);
                    }
                    std::thread::sleep(self.config.reconnect_delay);
                }
                Ok(Session::Reset(why)) => {
                    if self.config.exit_on_reset {
                        return Err(WireError::remote(
                            code::BAD_OFFSET,
                            format!("primary rejected the resume offer: {why}"),
                        ));
                    }
                    // The primary's journal is not a superset of our
                    // mirror any more (compaction, divergence): discard
                    // everything and resync from byte 0.
                    std::fs::File::create(&self.config.journal)?;
                    self.standby = None;
                    self.committed = 0;
                    self.next_epoch = 1;
                    self.pending_heartbeat = None;
                    failures = 0;
                }
                Err(fatal) => return Err(fatal),
            }
        }
    }

    /// Promotes a lost follower's mirror into a **serving primary**:
    /// replays the committed prefix with the journal *attached* (torn
    /// tail repaired, writer reopened in append mode) and cross-checks
    /// the result against the state the live standby had applied — a
    /// promotion that does not reproduce the standby's own epoch and
    /// digest is refused with [`code::REPLAY`], and so is a standby whose
    /// records a refresh refuses ([`SchedService::refresh`]). Returns the
    /// promoted service (ready for `Server::start`) and the replay stats.
    ///
    /// Consumes the follower: after promotion the mirror is a living
    /// journal owned by the returned service, and tailing it would
    /// corrupt it.
    pub fn promote(mut self) -> Result<(Arc<SchedService>, hsched_engine::ReplayStats), WireError> {
        if let Some(standby) = &self.standby {
            standby.refresh().map_err(WireError::from_engine)?;
        }
        let expect_epoch = self.epoch();
        let expect_digest = self.state_digest();
        // Drop the live standby first: promotion replays the mirror from
        // scratch and must be the file's only reader/writer.
        self.standby = None;
        let (promoted, stats) = SchedService::replay(
            self.set.clone(),
            self.analysis.clone(),
            self.policy.clone(),
            &self.config.journal,
        )
        .map_err(WireError::from_engine)?;
        if promoted.epoch() != expect_epoch {
            return Err(WireError::remote(
                code::REPLAY,
                format!(
                    "promotion aborted: mirror replays to epoch {}, standby had applied {}",
                    promoted.epoch(),
                    expect_epoch
                ),
            ));
        }
        if let Some(expected) = expect_digest {
            let ours = promoted.state_digest();
            if ours != expected {
                return Err(WireError::remote(
                    code::REPLAY,
                    format!(
                        "promotion aborted: replayed digest {ours} does not match \
                         the standby's {expected} at epoch {expect_epoch}"
                    ),
                ));
            }
        }
        Ok((Arc::new(promoted), stats))
    }

    fn seed_from_mirror(&mut self) -> Result<(), WireError> {
        if self.standby.is_some() {
            return Ok(());
        }
        let len = std::fs::metadata(&self.config.journal)
            .map(|m| m.len())
            .unwrap_or(0);
        if len == 0 {
            return Ok(());
        }
        match SchedService::replay_standby(
            self.set.clone(),
            self.analysis.clone(),
            self.policy.clone(),
            &self.config.journal,
        ) {
            Ok((standby, stats)) => {
                self.next_epoch = standby.epoch() + 1;
                self.committed = stats.journal_bytes;
                self.standby = Some(standby);
                Ok(())
            }
            // An incomplete header (mirror cut off mid-bootstrap) is not
            // an error — resume will fetch the rest. Anything else is.
            Err(EngineError::JournalHeaderIncomplete) => {
                self.committed = 0;
                Ok(())
            }
            Err(e) => Err(WireError::from_engine(e)),
        }
    }

    fn run_session(&mut self) -> Result<Session, WireError> {
        let mut stream = TcpStream::connect(&self.config.primary)?;
        stream.set_read_timeout(Some(POLL_INTERVAL * 4))?;
        stream.set_nodelay(true).ok();

        // Greeting.
        match self.next_frame(&mut stream)? {
            Some(greeting) if greeting.starts_with("hsched-repl") => {}
            Some(other) => {
                return Err(WireError::Protocol(format!(
                    "not a replication port (greeting `{}`)",
                    proto::keyword(&other)
                )))
            }
            None => return Ok(Session::Disconnected),
        }

        // Truncate any torn tail past the commit point, then offer the
        // committed prefix for resume.
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&self.config.journal)?;
        file.set_len(self.committed)?;
        let prefix = self.mirror_prefix_digest(self.committed)?;
        write_frame(&mut stream, &proto::encode_follow(self.committed, prefix))?;

        // The primary's verdict on the offer.
        let verdict = match self.next_frame(&mut stream)? {
            Some(frame) => frame,
            None => return Ok(Session::Disconnected),
        };
        match proto::keyword(&verdict) {
            "streaming" => {
                proto::parse_streaming(&verdict)?;
            }
            "reset" => return Ok(Session::Reset(proto::parse_reset(&verdict)?)),
            "error" => return Err(proto::parse_error(&verdict)?),
            other => {
                return Err(WireError::Protocol(format!(
                    "unexpected handshake frame `{other}`"
                )))
            }
        }

        let mut mirror = file;
        mirror.seek(SeekFrom::Start(self.committed))?;
        let mut received = self.committed;
        let mut session_bytes = 0u64;
        loop {
            let frame = match self.next_frame(&mut stream)? {
                Some(frame) => frame,
                None => {
                    return if self.stopped() {
                        Ok(Session::Stopped)
                    } else {
                        Ok(Session::Disconnected)
                    }
                }
            };
            match proto::keyword(&frame) {
                "jbytes" => {
                    let (offset, bytes) = proto::parse_jbytes(&frame)?;
                    if offset != received {
                        return Err(WireError::Protocol(format!(
                            "stream gap: chunk at offset {offset}, mirror holds {received}"
                        )));
                    }
                    let mut bytes: &str = bytes;
                    let mut cut = false;
                    if let Some(limit) = self.config.disconnect_after {
                        let room = limit.saturating_sub(session_bytes);
                        if (bytes.len() as u64) > room {
                            // Deliberate kill, possibly mid-record: keep
                            // only the torn prefix, then drop the link.
                            bytes = &bytes[..room as usize];
                            cut = true;
                        }
                    }
                    mirror.write_all(bytes.as_bytes())?;
                    mirror.flush()?;
                    received += bytes.len() as u64;
                    session_bytes += bytes.len() as u64;
                    self.apply_new_records()?;
                    if cut {
                        return Ok(Session::Disconnected);
                    }
                    let _ = write_frame(&mut stream, &proto::encode_ack(self.epoch()));
                    if self.caught_up() {
                        return Ok(Session::CaughtUp);
                    }
                }
                "digest" => {
                    let (epoch, digest) = proto::parse_digest(&frame)?;
                    self.pending_heartbeat = Some((epoch, digest));
                    self.check_heartbeat()?;
                    let _ = write_frame(&mut stream, &proto::encode_ack(self.epoch()));
                    if self.caught_up() {
                        return Ok(Session::CaughtUp);
                    }
                }
                "reset" => return Ok(Session::Reset(proto::parse_reset(&frame)?)),
                "error" => return Err(proto::parse_error(&frame)?),
                other => {
                    return Err(WireError::Protocol(format!(
                        "unexpected stream frame `{other}`"
                    )))
                }
            }
        }
    }

    /// Waits for one frame, reporting `None` on clean EOF and treating a
    /// torn frame as an I/O-level disconnect (retryable), not a fatal
    /// protocol error — the primary may die mid-frame and that is the
    /// follower's bread and butter.
    fn next_frame(&self, stream: &mut TcpStream) -> Result<Option<String>, WireError> {
        loop {
            match read_frame(stream, self.config.stop.as_deref()) {
                Ok(FrameRead::Frame(payload)) => return Ok(Some(payload)),
                Ok(FrameRead::Eof) => return Ok(None),
                Ok(FrameRead::Idle) => {
                    if self.stopped() {
                        return Ok(None);
                    }
                }
                Err(WireError::Protocol(_)) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }

    fn mirror_prefix_digest(&self, prefix: u64) -> Result<u64, WireError> {
        if prefix == 0 {
            return Ok(fnv1a_64(b""));
        }
        crate::repl::file_prefix_digest(&self.config.journal, prefix)
    }

    /// Applies every complete record past `committed`. A torn tail ends
    /// the pass cleanly (the stream's torn-tail discipline); replay
    /// divergence is fatal by design.
    fn apply_new_records(&mut self) -> Result<(), WireError> {
        if self.standby.is_none() {
            // Header (and possibly a snapshot block) may just have
            // become complete — try to seed.
            self.seed_from_mirror()?;
            if self.standby.is_none() {
                return Ok(());
            }
            return self.check_heartbeat();
        }
        let mut stream =
            JournalStream::resume_from(&self.config.journal, self.committed, self.next_epoch)
                .map_err(WireError::from_engine)?;
        let standby = self.standby.as_ref().expect("standby seeded above");
        for record in &mut stream {
            let record = record.map_err(WireError::from_engine)?;
            standby
                .apply_journal_record(&record)
                .map_err(WireError::from_engine)?;
        }
        self.committed = stream.valid_prefix();
        self.next_epoch = stream.next_epoch();
        self.check_heartbeat()
    }

    /// Cross-checks a pending heartbeat once the standby reaches its
    /// epoch. Divergence is a fatal [`code::REPLAY`] error — the loud
    /// refusal this subsystem owes its operator. The digest is rendered
    /// only for a beat that is due: it reads the whole canonical state,
    /// and analyzes whatever the records applied since the last beat left
    /// stale.
    fn check_heartbeat(&mut self) -> Result<(), WireError> {
        let Some((epoch, expected)) = self.pending_heartbeat.clone() else {
            return Ok(());
        };
        let Some(standby) = &self.standby else {
            return Ok(()); // no standby yet — keep the beat pending
        };
        let applied = standby.epoch();
        if applied < epoch {
            return Ok(()); // still pending
        }
        self.pending_heartbeat = None;
        if applied > epoch {
            return Ok(()); // stale beat from before our last chunk
        }
        standby.refresh().map_err(WireError::from_engine)?;
        let ours = standby.state_digest();
        if ours != expected {
            return Err(WireError::remote(
                code::REPLAY,
                format!(
                    "standby diverged from primary at epoch {epoch}: \
                     primary digest {expected}, standby digest {ours}"
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_admission::AdmissionRequest;
    use hsched_engine::EngineRequest;
    use hsched_numeric::rat;
    use hsched_platform::{Platform, PlatformSet};
    use hsched_transaction::{Task, Transaction};

    fn refreshes(follower: &Follower) -> u64 {
        let standby = follower.standby.as_ref().expect("standby seeded");
        standby.metrics().counter("engine.replay.refreshed_shards")
    }

    /// Streamed chunks that leave a heartbeat pending neither render the
    /// standby's state nor analyze what the chunks applied: only the chunk
    /// that reaches the beat's epoch does, once.
    #[test]
    fn a_pending_beat_renders_nothing_until_it_is_due() {
        let tmp = |tag: &str| {
            std::env::temp_dir().join(format!(
                "hsched-follower-test-{tag}-{}.journal",
                std::process::id()
            ))
        };
        let (journal, mirror) = (tmp("primary"), tmp("mirror"));
        let mut platforms = PlatformSet::new();
        let on = [
            platforms.add(Platform::dedicated("A")),
            platforms.add(Platform::dedicated("B")),
        ];
        let tx = |name: String, k: usize| {
            let task = Task::new(format!("{name}_t"), rat(1, 1), rat(1, 1), 1, on[k % 2]);
            Transaction::new(name, rat(20, 1), rat(20, 1), vec![task]).unwrap()
        };
        let set = TransactionSet::new(platforms, vec![tx("seed".into(), 0)]).unwrap();
        let (analysis, policy) = (AnalysisConfig::default(), AdmissionPolicy::default());
        let primary = SchedService::new(set.clone(), analysis.clone(), policy.clone())
            .unwrap()
            .with_journal(&journal)
            .unwrap();
        // Journal length after each of four admitted epochs.
        let mut ends = Vec::new();
        for k in 0..4 {
            let add = AdmissionRequest::AddTransaction(tx(format!("t{k}"), k));
            let response = primary.submit(&EngineRequest::batch(vec![add])).unwrap();
            assert!(response.outcome.verdict.admitted());
            ends.push(primary.durable_journal().unwrap().0 as usize);
        }
        let beat = primary.epoch_digest();
        let bytes = std::fs::read(&journal).unwrap();

        // The mirror holds epoch 1: the standby seeds from it.
        std::fs::write(&mirror, &bytes[..ends[0]]).unwrap();
        let config = FollowerConfig {
            journal: mirror.clone(),
            ..FollowerConfig::default()
        };
        let mut follower = Follower::new(set, analysis, policy, config);
        follower.seed_from_mirror().unwrap();
        let seeded = refreshes(&follower);
        follower.pending_heartbeat = Some(beat);
        let stream = |follower: &mut Follower, chunk: &[u8]| {
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&mirror)
                .unwrap();
            file.write_all(chunk).unwrap();
            follower.apply_new_records().unwrap();
        };
        for k in 1..3 {
            stream(&mut follower, &bytes[ends[k - 1]..ends[k]]);
            assert_eq!(follower.epoch(), k as u64 + 1);
            assert!(follower.pending_heartbeat.is_some(), "the beat is pending");
            assert_eq!(refreshes(&follower), seeded, "a pending beat analyzed");
        }
        // The last chunk makes the beat due: checked once, and it matches.
        stream(&mut follower, &bytes[ends[2]..ends[3]]);
        assert!(follower.pending_heartbeat.is_none(), "the beat was checked");
        assert!(refreshes(&follower) > seeded);
        assert_eq!(follower.state_digest(), Some(primary.state_digest()));
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(&mirror);
    }

    /// A streamed record marked admitted whose utilizations no exact
    /// fraction can sum — a batch the live engine's numeric precheck
    /// rejects — applies structurally, and is refused as soon as the state
    /// is read: its shard is never analyzed, the standby renders the
    /// refusal instead, and promotion refuses with the replay code.
    #[test]
    fn a_forged_overflow_record_is_refused_not_rendered() {
        let mirror = std::env::temp_dir().join(format!(
            "hsched-follower-test-forged-{}.journal",
            std::process::id()
        ));
        let mut platforms = PlatformSet::new();
        let a = platforms.add(Platform::dedicated("A"));
        let seed = Transaction::new(
            "seed",
            rat(20, 1),
            rat(20, 1),
            vec![Task::new("seed_t", rat(1, 1), rat(1, 1), 1, a)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![seed]).unwrap();
        let overflow: Vec<AdmissionRequest> = [
            1_000_000_000_039i128,
            1_000_000_000_061,
            1_000_000_000_063,
            1_000_000_000_091,
            999_999_999_989,
        ]
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let task = Task::new(format!("huge{i}_t"), rat(1, 1), rat(1, 1), 1, a);
            let tx = Transaction::new(format!("huge{i}"), rat(p, 1), rat(p, 1), vec![task]);
            AdmissionRequest::AddTransaction(tx.unwrap())
        })
        .collect();
        let (analysis, policy) = (AnalysisConfig::default(), AdmissionPolicy::default());
        let live = SchedService::new(set.clone(), analysis.clone(), policy.clone()).unwrap();
        let verdict = live
            .submit(&EngineRequest::batch(overflow.clone()))
            .unwrap();
        assert!(!verdict.outcome.verdict.admitted(), "live rejects it");

        // The mirror holds the header: the standby seeds at epoch 0, then
        // the forged record streams in.
        let mut writer = hsched_engine::JournalWriter::create(&mirror, 1).unwrap();
        let config = FollowerConfig {
            journal: mirror.clone(),
            ..FollowerConfig::default()
        };
        let mut follower = Follower::new(set, analysis, policy, config);
        follower.seed_from_mirror().unwrap();
        writer.append(1, &overflow, true).unwrap();
        follower.apply_new_records().unwrap();
        assert_eq!(follower.epoch(), 1);

        let standby = follower.standby.as_ref().expect("standby seeded");
        let refused = |result: Result<(), EngineError>| matches!(result, Err(EngineError::Replay(m)) if m.contains("unsummable"));
        let digest = follower.state_digest().expect("standby seeded");
        assert!(!standby.schedulable());
        assert!(standby.report().verdicts.is_empty());
        assert_ne!(
            digest,
            live.state_digest(),
            "no live engine renders a refusal"
        );
        assert!(refused(standby.refresh()), "the refusal is kept");
        let next = hsched_engine::JournalEpoch {
            epoch: 2,
            batch: Vec::new(),
            admitted: false,
        };
        assert!(refused(standby.apply_journal_record(&next)));
        let submitted = standby.submit(&EngineRequest::batch(Vec::new()));
        assert!(matches!(submitted, Err(EngineError::Replay(_))));
        match follower.promote() {
            Err(e) => assert_eq!(e.wire_code(), code::REPLAY, "{e}"),
            Ok(_) => panic!("promoted a refused standby"),
        }
        let _ = std::fs::remove_file(&mirror);
    }
}
