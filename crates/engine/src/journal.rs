//! The write-ahead journal: every committed epoch (admitted *and*
//! rejected) is appended as one plain-text record, so a crashed engine can
//! be rebuilt byte-identically by replaying the journal against the same
//! seed specification ([`crate::SchedService::replay`]).
//!
//! The normative wire-format spec — header lines, record framing,
//! request-line grammar, torn-tail repair rules, digest definition —
//! lives in `docs/JOURNAL_FORMAT.md`; this module is its implementation.
//!
//! # Format (schema v2)
//!
//! ```text
//! hsched-journal v2
//! platforms 20
//! epoch 1 2
//! add probe 60 120 0 1 probe.p 1 1/2 1 0 c
//! retune 2 0.3 1 1
//! verdict admitted
//! end
//! ```
//!
//! One line per request (`add`/`remove`/`retune`/`removeinstance`);
//! `addinstance` additionally embeds its component class as `.hsc` source
//! (rendered by `hsched-spec`'s printer, parsed back on replay) with a
//! declared line count. Names are percent-escaped so whitespace survives;
//! rationals use their exact display form (`1/3`, `2.5`), which round-trips
//! losslessly. Platforms are referenced by index — the replaying engine is
//! seeded from the same spec, so indices line up.
//!
//! A **compacted** journal ([`crate::SchedService::snapshot`]) carries a
//! snapshot block between the header and the first record; epoch numbers
//! then continue from the snapshot's epoch instead of 1 (see
//! [`crate::Snapshot`] and the `snapshot` module).
//!
//! # Crash tolerance
//!
//! A record only counts once its `end` line is on disk. Readers stop at the
//! first incomplete or malformed record and report the byte length of the
//! valid prefix; recovery truncates the file there before appending again —
//! the classic WAL tail-repair. The snapshot block, by contrast, is written
//! atomically (temp file + rename), so a torn snapshot is *corruption*, not
//! a crash artifact.
//!
//! # Streaming
//!
//! [`JournalStream`] reads records one at a time through a buffered reader,
//! so replaying a long-lived (pre-compaction) journal is O(1) in memory —
//! the whole file is never loaded. [`read_journal`] remains as the
//! collecting convenience wrapper.

use crate::envelope::EngineError;
use crate::snapshot::Snapshot;
use crate::sync::Arc;
use hsched_admission::AdmissionRequest;
use hsched_model::SystemBuilder;
use hsched_numeric::Rational;
use hsched_platform::{PlatformId, PlatformSet};
use hsched_transaction::{Task, TaskKind, Transaction};
use std::io::{BufRead as _, Write as _};
use std::path::{Path, PathBuf};

/// Header magic of journal schema v2 (optional snapshot block).
const MAGIC_V2: &str = "hsched-journal v2";

/// Percent-escapes a name so it survives whitespace-delimited parsing:
/// `%`, every ASCII control/space byte, and every non-ASCII byte are
/// written as `%XX`. Escaping all non-ASCII keeps the record free of *any*
/// Unicode whitespace (U+00A0, U+2028, …) that `split_whitespace` would
/// otherwise split on.
///
/// Public because the wire layer (`hsched-net`) reuses the journal's
/// request-line grammar verbatim for its submit frames.
pub fn esc(name: &str) -> String {
    if name.is_empty() {
        // A bare `%` marks the empty name — an empty token would shift
        // every later field of the record.
        return "%".to_string();
    }
    let mut out = String::with_capacity(name.len());
    for byte in name.bytes() {
        if byte == b'%' || byte <= b' ' || byte >= 0x7f {
            out.push_str(&format!("%{byte:02X}"));
        } else {
            out.push(byte as char);
        }
    }
    out
}

/// Inverse of [`esc`] (byte-level, so multi-byte UTF-8 round-trips).
pub fn unesc(token: &str) -> Result<String, String> {
    if token == "%" {
        return Ok(String::new());
    }
    let mut bytes = Vec::with_capacity(token.len());
    let mut iter = token.bytes();
    while let Some(byte) = iter.next() {
        if byte != b'%' {
            bytes.push(byte);
            continue;
        }
        let hi = iter.next().ok_or("truncated %-escape")?;
        let lo = iter.next().ok_or("truncated %-escape")?;
        let pair = [hi, lo];
        let hex = std::str::from_utf8(&pair).map_err(|_| "bad %-escape")?;
        bytes.push(u8::from_str_radix(hex, 16).map_err(|_| "bad %-escape")?);
    }
    String::from_utf8(bytes).map_err(|_| "escaped name is not UTF-8".to_string())
}

/// Renders one request as journal lines (one line, plus an embedded class
/// block for instance arrivals). The same grammar is the payload of the
/// wire protocol's submit frames (`docs/WIRE_PROTOCOL.md`), so remote
/// batches and journal records share one codec.
pub fn encode_request(request: &AdmissionRequest) -> Vec<String> {
    match request {
        AdmissionRequest::AddTransaction(tx) => {
            let mut line = format!(
                "add {} {} {} {} {}",
                esc(&tx.name),
                tx.period,
                tx.deadline,
                tx.release_jitter,
                tx.tasks().len()
            );
            for task in tx.tasks() {
                let kind = match task.kind {
                    TaskKind::Computation => "c",
                    TaskKind::Message => "m",
                };
                line.push_str(&format!(
                    " {} {} {} {} {} {kind}",
                    esc(&task.name),
                    task.wcet,
                    task.bcet,
                    task.priority,
                    task.platform.0
                ));
            }
            vec![line]
        }
        AdmissionRequest::RemoveTransaction { name } => vec![format!("remove {}", esc(name))],
        AdmissionRequest::Retune {
            platform,
            alpha,
            delta,
            beta,
        } => vec![format!("retune {} {alpha} {delta} {beta}", platform.0)],
        AdmissionRequest::AddInstance {
            name,
            class,
            platform,
            node,
        } => {
            let mut builder = SystemBuilder::new();
            builder.add_class(class.clone());
            let source = hsched_spec::to_source(&builder.build(), &PlatformSet::new());
            let class_lines: Vec<&str> = source.lines().collect();
            let mut lines = vec![format!(
                "addinstance {} {} {node} {}",
                esc(name),
                platform.0,
                class_lines.len()
            )];
            lines.extend(class_lines.iter().map(|l| l.to_string()));
            lines
        }
        AdmissionRequest::RemoveInstance { name } => {
            vec![format!("removeinstance {}", esc(name))]
        }
    }
}

/// Token-stream helpers for decoding.
pub(crate) fn next_token<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<&'a str, String> {
    tokens.next().ok_or_else(|| format!("missing {what}"))
}

pub(crate) fn next_rational<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<Rational, String> {
    let token = next_token(tokens, what)?;
    token.parse().map_err(|_| format!("bad {what} `{token}`"))
}

pub(crate) fn next_usize<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<usize, String> {
    let token = next_token(tokens, what)?;
    token.parse().map_err(|_| format!("bad {what} `{token}`"))
}

/// Decodes one request starting at `line`; instance arrivals consume
/// further class-source lines from `lines`. Inverse of
/// [`encode_request`]; shared with the wire layer's submit frames.
pub fn decode_request<'a>(
    line: &str,
    lines: &mut impl Iterator<Item = &'a str>,
) -> Result<AdmissionRequest, String> {
    let mut tokens = line.split_whitespace();
    match next_token(&mut tokens, "request keyword")? {
        "add" => {
            let name = unesc(next_token(&mut tokens, "transaction name")?)?;
            let period = next_rational(&mut tokens, "period")?;
            let deadline = next_rational(&mut tokens, "deadline")?;
            let jitter = next_rational(&mut tokens, "jitter")?;
            let n_tasks = next_usize(&mut tokens, "task count")?;
            let mut tasks = Vec::with_capacity(n_tasks);
            for _ in 0..n_tasks {
                let task_name = unesc(next_token(&mut tokens, "task name")?)?;
                let wcet = next_rational(&mut tokens, "wcet")?;
                let bcet = next_rational(&mut tokens, "bcet")?;
                let priority = next_usize(&mut tokens, "priority")? as u32;
                let platform = PlatformId(next_usize(&mut tokens, "platform index")?);
                let kind = next_token(&mut tokens, "task kind")?;
                tasks.push(match kind {
                    "c" => Task::new(task_name, wcet, bcet, priority, platform),
                    "m" => Task::message(task_name, wcet, bcet, priority, platform),
                    other => return Err(format!("bad task kind `{other}`")),
                });
            }
            let tx = Transaction::new(name, period, deadline, tasks)?;
            let tx = if jitter.is_positive() {
                tx.with_release_jitter(jitter)
            } else {
                tx
            };
            Ok(AdmissionRequest::AddTransaction(tx))
        }
        "remove" => Ok(AdmissionRequest::RemoveTransaction {
            name: unesc(next_token(&mut tokens, "transaction name")?)?,
        }),
        "retune" => Ok(AdmissionRequest::Retune {
            platform: PlatformId(next_usize(&mut tokens, "platform index")?),
            alpha: next_rational(&mut tokens, "alpha")?,
            delta: next_rational(&mut tokens, "delta")?,
            beta: next_rational(&mut tokens, "beta")?,
        }),
        "addinstance" => {
            let name = unesc(next_token(&mut tokens, "instance name")?)?;
            let platform = PlatformId(next_usize(&mut tokens, "platform index")?);
            let node = next_usize(&mut tokens, "node")?;
            let n_lines = next_usize(&mut tokens, "class line count")?;
            let mut source = String::new();
            for _ in 0..n_lines {
                let class_line = lines.next().ok_or("truncated class block")?;
                source.push_str(class_line);
                source.push('\n');
            }
            let (system, _) =
                hsched_spec::parse_str(&source).map_err(|e| format!("embedded class: {e}"))?;
            let class = system
                .classes
                .into_iter()
                .next()
                .ok_or("embedded class block defines no class")?;
            Ok(AdmissionRequest::AddInstance {
                name,
                class,
                platform,
                node,
            })
        }
        "removeinstance" => Ok(AdmissionRequest::RemoveInstance {
            name: unesc(next_token(&mut tokens, "instance name")?)?,
        }),
        other => Err(format!("unknown request keyword `{other}`")),
    }
}

/// One complete journal record.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEpoch {
    /// Engine epoch ticket (consecutive; starts after the snapshot's epoch
    /// in a compacted journal, else at 1).
    pub epoch: u64,
    /// The batch, in application order.
    pub batch: Vec<AdmissionRequest>,
    /// Recorded verdict: replay applies an admitted record without
    /// re-deciding it, and skips a rejected one (a verified replay
    /// re-derives the verdict and cross-checks it).
    pub admitted: bool,
}

/// Line-at-a-time reader that only yields *complete* lines (terminated by
/// `\n`) and tracks the byte offset of everything consumed — the WAL
/// tail-repair bookkeeping.
struct LineReader {
    reader: std::io::BufReader<std::fs::File>,
    offset: u64,
    /// One line of lookahead: the trimmed text plus its raw byte length
    /// (added to `offset` only when the line is consumed).
    peeked: Option<Option<(String, u64)>>,
}

impl LineReader {
    fn open(path: &Path) -> Result<LineReader, EngineError> {
        let file = std::fs::File::open(path)
            .map_err(|e| EngineError::Journal(format!("cannot read `{}`: {e}", path.display())))?;
        Ok(LineReader {
            reader: std::io::BufReader::new(file),
            offset: 0,
            peeked: None,
        })
    }

    /// Opens positioned at `offset` (which must sit on a record boundary —
    /// the caller's bookkeeping, verified downstream by the epoch-sequence
    /// check). The consumed-offset counter starts at `offset` so
    /// `valid_prefix` stays a real file position.
    fn open_at(path: &Path, offset: u64) -> Result<LineReader, EngineError> {
        let mut file = std::fs::File::open(path)
            .map_err(|e| EngineError::Journal(format!("cannot read `{}`: {e}", path.display())))?;
        use std::io::Seek as _;
        file.seek(std::io::SeekFrom::Start(offset))
            .map_err(|e| EngineError::Journal(format!("journal seek failed: {e}")))?;
        Ok(LineReader {
            reader: std::io::BufReader::new(file),
            offset,
            peeked: None,
        })
    }

    /// Reads one complete line (trailing `\r\n`/`\n` stripped) plus its raw
    /// byte length; `None` at EOF *or* at a final line without `\n` (torn
    /// by definition).
    fn read_one(&mut self) -> Result<Option<(String, u64)>, EngineError> {
        let mut raw = String::new();
        let n = self
            .reader
            .read_line(&mut raw)
            .map_err(|e| EngineError::Journal(format!("journal read failed: {e}")))?;
        if n == 0 || !raw.ends_with('\n') {
            return Ok(None);
        }
        Ok(Some((
            raw.trim_end_matches(['\n', '\r']).to_string(),
            n as u64,
        )))
    }

    /// The next complete line; its bytes count into the consumed offset.
    fn next_line(&mut self) -> Result<Option<String>, EngineError> {
        let entry = match self.peeked.take() {
            Some(entry) => entry,
            None => self.read_one()?,
        };
        Ok(entry.map(|(line, n)| {
            self.offset += n;
            line
        }))
    }

    /// One-line lookahead (used to detect the optional snapshot block);
    /// does not advance the consumed offset.
    fn peek_line(&mut self) -> Result<Option<&str>, EngineError> {
        if self.peeked.is_none() {
            let entry = self.read_one()?;
            self.peeked = Some(entry);
        }
        Ok(self
            .peeked
            .as_ref()
            .and_then(|entry| entry.as_ref().map(|(line, _)| line.as_str())))
    }
}

/// Streaming journal reader: parses the header (and any snapshot block)
/// eagerly, then yields one [`JournalEpoch`] per `next()` without ever
/// holding more than one record in memory. Iteration ends at the first
/// torn or out-of-order record; [`JournalStream::valid_prefix`] then holds
/// the byte length of the intact prefix for tail repair. Decode failures
/// *inside* a structurally complete record are corruption and surface as
/// `Some(Err(_))`.
pub struct JournalStream {
    lines: LineReader,
    platforms: usize,
    snapshot: Option<Snapshot>,
    next_epoch: u64,
    valid_prefix: u64,
    done: bool,
}

impl JournalStream {
    /// Opens a journal, reading the header and the optional snapshot
    /// block. A malformed *header* (or a torn snapshot block, which is
    /// written atomically) is an error: that is corruption, not a crash.
    /// A file that ends before its two header lines are complete is
    /// [`EngineError::JournalHeaderIncomplete`] — the one case a
    /// replication follower may treat as "not streamed yet".
    pub fn open(path: &Path) -> Result<JournalStream, EngineError> {
        let mut lines = LineReader::open(path)?;
        let magic = lines
            .next_line()?
            .ok_or(EngineError::JournalHeaderIncomplete)?;
        if magic != MAGIC_V2 {
            return Err(EngineError::Journal(format!(
                "bad journal header `{magic}` (expected `{MAGIC_V2}`)"
            )));
        }
        let platform_line = lines
            .next_line()?
            .ok_or(EngineError::JournalHeaderIncomplete)?;
        let platforms = platform_line
            .strip_prefix("platforms ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| EngineError::Journal(format!("bad platform line `{platform_line}`")))?;

        let snapshot = if lines
            .peek_line()?
            .is_some_and(|l| l.starts_with("snapshot begin"))
        {
            let header = lines.next_line()?.expect("peeked line present");
            Some(
                Snapshot::decode_block(&header, &mut || lines.next_line())
                    .map_err(|e| EngineError::Journal(format!("snapshot block: {e}")))?,
            )
        } else {
            None
        };

        let next_epoch = snapshot.as_ref().map(|s| s.epoch).unwrap_or(0) + 1;
        let valid_prefix = lines.offset;
        Ok(JournalStream {
            lines,
            platforms,
            snapshot,
            next_epoch,
            valid_prefix,
            done: false,
        })
    }

    /// Re-opens a journal mid-file for tail-following: reading starts at
    /// byte `offset` (which must be a record boundary — typically a prior
    /// stream's [`JournalStream::valid_prefix`]) and the first record is
    /// expected to carry epoch `next_epoch`. Skips the header entirely, so
    /// the caller owns the platform-count sanity check; `platforms()`
    /// reports 0 on a resumed stream.
    ///
    /// This is how a replication follower tails a growing journal: a
    /// `JournalStream` must not be held open across appends (a torn final
    /// line is consumed and discarded by the line reader), so the follower
    /// re-opens from its last durable offset after every received chunk —
    /// O(1) syscalls per chunk, no re-scan of the consumed prefix.
    pub fn resume_from(
        path: &Path,
        offset: u64,
        next_epoch: u64,
    ) -> Result<JournalStream, EngineError> {
        let lines = LineReader::open_at(path, offset)?;
        Ok(JournalStream {
            lines,
            platforms: 0,
            snapshot: None,
            next_epoch,
            valid_prefix: offset,
            done: false,
        })
    }

    /// Platform count recorded at creation (sanity-checked on replay).
    pub fn platforms(&self) -> usize {
        self.platforms
    }

    /// The embedded snapshot of a compacted journal, if any.
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.snapshot.as_ref()
    }

    /// Detaches the embedded snapshot (for rebuild without cloning).
    pub fn take_snapshot(&mut self) -> Option<Snapshot> {
        self.snapshot.take()
    }

    /// Byte offset just past the last complete record (or the snapshot
    /// block / header when no record survived) — the truncation point of
    /// WAL tail repair.
    pub fn valid_prefix(&self) -> u64 {
        self.valid_prefix
    }

    /// The epoch the next complete record must carry (records are
    /// consecutive); a resumed stream continues from the value passed to
    /// [`JournalStream::resume_from`].
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }
}

impl Iterator for JournalStream {
    type Item = Result<JournalEpoch, EngineError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        // Any incompleteness below ends the journal at the last complete
        // record (torn tail); decode failures in a complete record error.
        macro_rules! line_or_done {
            () => {
                match self.lines.next_line() {
                    Err(e) => {
                        self.done = true;
                        return Some(Err(e));
                    }
                    Ok(Some(line)) => line,
                    Ok(None) => {
                        self.done = true;
                        return None;
                    }
                }
            };
        }
        let header = line_or_done!();
        let mut tokens = header.split_whitespace();
        let (Some("epoch"), Some(epoch), Some(n_requests), None) = (
            tokens.next(),
            tokens.next().and_then(|t| t.parse::<u64>().ok()),
            tokens.next().and_then(|t| t.parse::<usize>().ok()),
            tokens.next(),
        ) else {
            self.done = true;
            return None;
        };
        if epoch != self.next_epoch {
            self.done = true;
            return None;
        }
        let mut record_lines: Vec<String> = Vec::new();
        let verdict = loop {
            let line = line_or_done!();
            match line.as_str() {
                "verdict admitted" => break true,
                "verdict rejected" => break false,
                _ => record_lines.push(line),
            }
        };
        let end = line_or_done!();
        if end != "end" {
            self.done = true;
            return None;
        }
        // The record is structurally complete; now decode the requests.
        let mut batch = Vec::with_capacity(n_requests);
        {
            let mut iter = record_lines.iter().map(String::as_str);
            for _ in 0..n_requests {
                let Some(line) = iter.next() else {
                    self.done = true;
                    return Some(Err(EngineError::Journal(format!(
                        "epoch {epoch}: {n_requests} requests declared, fewer recorded"
                    ))));
                };
                match decode_request(line, &mut iter) {
                    Ok(request) => batch.push(request),
                    Err(e) => {
                        self.done = true;
                        return Some(Err(EngineError::Journal(format!("epoch {epoch}: {e}"))));
                    }
                }
            }
            if iter.next().is_some() {
                self.done = true;
                return Some(Err(EngineError::Journal(format!(
                    "epoch {epoch}: trailing request lines"
                ))));
            }
        }
        self.valid_prefix = self.lines.offset;
        self.next_epoch += 1;
        Some(Ok(JournalEpoch {
            epoch,
            batch,
            admitted: verdict,
        }))
    }
}

/// Parsed journal: platform count, complete records, and the byte length
/// of the valid prefix (everything after it is a torn tail).
#[derive(Debug)]
pub struct JournalContents {
    /// Platform count recorded at creation (sanity-checked on replay).
    pub platforms: usize,
    /// The embedded snapshot of a compacted journal, if any.
    pub snapshot: Option<Snapshot>,
    /// The complete epoch records, in order.
    pub epochs: Vec<JournalEpoch>,
    /// Byte offset just past the last complete record.
    pub valid_prefix: u64,
}

/// Reads a whole journal into memory, tolerating a torn tail (see module
/// docs). Replay uses the streaming [`JournalStream`] instead — this
/// collecting wrapper exists for tooling and tests.
pub fn read_journal(path: &Path) -> Result<JournalContents, EngineError> {
    let mut stream = JournalStream::open(path)?;
    let mut epochs = Vec::new();
    for record in &mut stream {
        epochs.push(record?);
    }
    Ok(JournalContents {
        platforms: stream.platforms(),
        snapshot: stream.take_snapshot(),
        epochs,
        valid_prefix: stream.valid_prefix(),
    })
}

/// A durability notification: the journal's first `bytes` bytes — every
/// record of every epoch ≤ `epoch` — are known to be on disk. Published to
/// [`JournalWriter`] subscribers after each successful group-commit fsync
/// (and after a compaction, where `bytes` *shrinks* to the fresh
/// header-plus-snapshot length — a replication streamer that has shipped
/// past the new mark must reset its followers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableMark {
    /// Durable journal prefix in bytes.
    pub bytes: u64,
    /// Last epoch ticket covered by the durable prefix.
    pub epoch: u64,
}

/// A durable-append subscriber callback (see [`JournalWriter::subscribe`]).
pub type JournalSubscriber = Arc<dyn Fn(DurableMark) + Send + Sync>;

/// Subscriber list newtype (callbacks are opaque to `Debug`).
#[derive(Default)]
struct Subscribers(Vec<JournalSubscriber>);

impl std::fmt::Debug for Subscribers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Subscribers({})", self.0.len())
    }
}

/// Appending writer over a journal file.
///
/// [`JournalWriter::append`] syncs before returning (the single-writer
/// contract); the concurrent service instead uses the crate-internal
/// `append_nosync` plus a group-committed `sync_data` on
/// the shared file handle, which preserves the same
/// durability contract (a response is returned only after the epoch's
/// record is on disk) while letting one fsync cover several epochs.
#[derive(Debug)]
pub struct JournalWriter {
    file: Arc<std::fs::File>,
    path: PathBuf,
    /// Bytes this writer knows to be in the file (header/snapshot plus
    /// every appended record) — drives the service's size-triggered
    /// auto-compaction without a metadata syscall per epoch.
    bytes: u64,
    /// Durable-append subscribers, notified by the owning service after
    /// each successful group-commit fsync (never from inside a lock).
    subscribers: Subscribers,
    /// Set when an append failed partway: the file may hold a torn record,
    /// so in-memory epoch numbering has run ahead of the journal and any
    /// further append would violate replay's contiguity check. Every later
    /// append fails with this message until the journal is reopened
    /// through recovery (which truncates the tear).
    wedged: Option<String>,
}

impl JournalWriter {
    /// Creates (truncating) a fresh journal with a v2 header.
    pub fn create(path: &Path, platforms: usize) -> Result<JournalWriter, EngineError> {
        let mut file = std::fs::File::create(path).map_err(|e| {
            EngineError::Journal(format!("cannot create `{}`: {e}", path.display()))
        })?;
        let header = format!("{MAGIC_V2}\nplatforms {platforms}\n");
        file.write_all(header.as_bytes())
            .map_err(|e| EngineError::Journal(e.to_string()))?;
        file.sync_data()
            .map_err(|e| EngineError::Journal(e.to_string()))?;
        Ok(JournalWriter {
            file: Arc::new(file),
            path: path.to_path_buf(),
            bytes: header.len() as u64,
            subscribers: Subscribers::default(),
            wedged: None,
        })
    }

    /// Re-opens an existing journal for appending after truncating any torn
    /// tail at `valid_prefix` (WAL tail repair).
    pub fn recover(path: &Path, valid_prefix: u64) -> Result<JournalWriter, EngineError> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| EngineError::Journal(format!("cannot open `{}`: {e}", path.display())))?;
        file.set_len(valid_prefix)
            .map_err(|e| EngineError::Journal(e.to_string()))?;
        use std::io::Seek as _;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| EngineError::Journal(e.to_string()))?;
        Ok(JournalWriter {
            file: Arc::new(file),
            path: path.to_path_buf(),
            bytes: valid_prefix,
            subscribers: Subscribers::default(),
            wedged: None,
        })
    }

    /// Atomically replaces the journal at `path` with a fresh compacted one
    /// (header + snapshot block, no records): the new content is written to
    /// a temporary sibling, synced, and renamed over the original, so a
    /// crash at any point leaves either the old or the new journal intact —
    /// never a torn snapshot. Returns a writer appending after the block.
    pub fn rewrite_with_snapshot(
        path: &Path,
        platforms: usize,
        snapshot_block: &str,
    ) -> Result<JournalWriter, EngineError> {
        let tmp = path.with_extension("compact-tmp");
        let header = format!("{MAGIC_V2}\nplatforms {platforms}\n");
        {
            let mut file = std::fs::File::create(&tmp).map_err(|e| {
                EngineError::Journal(format!("cannot create `{}`: {e}", tmp.display()))
            })?;
            file.write_all(header.as_bytes())
                .and_then(|()| file.write_all(snapshot_block.as_bytes()))
                .and_then(|()| file.sync_all())
                .map_err(|e| EngineError::Journal(e.to_string()))?;
        }
        std::fs::rename(&tmp, path).map_err(|e| {
            EngineError::Journal(format!("cannot replace `{}`: {e}", path.display()))
        })?;
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| EngineError::Journal(format!("cannot open `{}`: {e}", path.display())))?;
        Ok(JournalWriter {
            file: Arc::new(file),
            path: path.to_path_buf(),
            bytes: (header.len() + snapshot_block.len()) as u64,
            subscribers: Subscribers::default(),
            wedged: None,
        })
    }

    /// Appends one epoch record and syncs it to disk before returning, so
    /// an OS crash after a commit's response tears at most the *next*
    /// record — the tail-repair contract readers assume.
    pub fn append(
        &mut self,
        epoch: u64,
        batch: &[AdmissionRequest],
        admitted: bool,
    ) -> Result<(), EngineError> {
        self.append_nosync(epoch, batch, admitted)?;
        self.file
            .sync_data()
            .map_err(|e| EngineError::Journal(e.to_string()))
    }

    /// Writes one epoch record without syncing. The caller owns durability:
    /// a `sync_data` on [`JournalWriter::sync_handle`] that *starts* after
    /// this returns covers the record (writes are appended in call order).
    pub(crate) fn append_nosync(
        &mut self,
        epoch: u64,
        batch: &[AdmissionRequest],
        admitted: bool,
    ) -> Result<(), EngineError> {
        if let Some(why) = &self.wedged {
            return Err(EngineError::Journal(format!("journal is wedged: {why}")));
        }
        let mut record = format!("epoch {epoch} {}\n", batch.len());
        for request in batch {
            for line in encode_request(request) {
                record.push_str(&line);
                record.push('\n');
            }
        }
        record.push_str(if admitted {
            "verdict admitted\n"
        } else {
            "verdict rejected\n"
        });
        record.push_str("end\n");
        if let Some(err) = self.injected_append_fault(&record) {
            self.wedged = Some(err.clone());
            return Err(EngineError::Journal(err));
        }
        (&*self.file)
            .write_all(record.as_bytes())
            .map_err(|e| EngineError::Journal(e.to_string()))?;
        self.bytes += record.len() as u64;
        Ok(())
    }

    /// Fires at most one armed journal append fault for this record and
    /// returns the error message to wedge on. `journal.torn` leaves half
    /// the record's bytes in the file (a tear replay must repair);
    /// `journal.short` reports a short write after rolling the file back
    /// to the record boundary; `journal.enospc` fails cleanly before any
    /// byte lands. `journal.delay` only stalls — it never fails the append.
    fn injected_append_fault(&mut self, record: &str) -> Option<String> {
        use hsched_faults::Site;
        if crate::sync::fault(Site::JournalDelay) {
            hsched_faults::stall();
        }
        if crate::sync::fault(Site::JournalEnospc) {
            return Some("injected fault: journal append (no space left)".to_string());
        }
        if crate::sync::fault(Site::JournalTorn) {
            let half = record.len() / 2;
            let torn = &record.as_bytes()[..half];
            if (&*self.file).write_all(torn).is_ok() {
                self.bytes += torn.len() as u64;
            }
            return Some(format!(
                "injected fault: torn journal append ({half} of {} bytes)",
                record.len()
            ));
        }
        if crate::sync::fault(Site::JournalShort) {
            let half = record.len() / 2;
            let _ = (&*self.file).write_all(&record.as_bytes()[..half]);
            // Roll the file back to the record boundary so the short write
            // is invisible on disk — the failure is still fatal to this
            // writer (memory has run ahead), but recovery sees no tear.
            let _ = self.file.set_len(self.bytes);
            return Some(format!(
                "injected fault: short journal write ({half} of {} bytes)",
                record.len()
            ));
        }
        None
    }

    /// A shared handle for syncing outside any engine lock (group commit).
    pub(crate) fn sync_handle(&self) -> Arc<std::fs::File> {
        Arc::clone(&self.file)
    }

    /// Registers a durable-append subscriber. The callback fires with a
    /// [`DurableMark`] after every successful group-commit fsync (and
    /// after a compaction rewrite, with the shrunken prefix length); it is
    /// invoked outside every engine lock, in watermark order, from
    /// whichever thread ran the fsync — it must not block for long, and
    /// must tolerate marks it has already seen. This is how a replication
    /// streamer learns of fresh durable bytes without polling the file.
    pub fn subscribe(&mut self, subscriber: JournalSubscriber) {
        self.subscribers.0.push(subscriber);
    }

    /// Clones the subscriber list (cheap `Arc` bumps) so the service can
    /// invoke callbacks after dropping its core lock.
    pub(crate) fn subscribers(&self) -> Vec<JournalSubscriber> {
        self.subscribers.0.clone()
    }

    /// Carries subscribers over from a predecessor writer (compaction
    /// replaces the `JournalWriter` wholesale; registrations survive).
    pub(crate) fn adopt_subscribers(&mut self, subscribers: Vec<JournalSubscriber>) {
        self.subscribers.0 = subscribers;
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes written to the journal so far (header + snapshot + records).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_model::{Action, ComponentClass, ProvidedMethod, ThreadSpec};
    use hsched_numeric::rat;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hsched-journal-test-{}-{name}", std::process::id()))
    }

    fn sample_batch() -> Vec<AdmissionRequest> {
        let tx = Transaction::new(
            "spaced name",
            rat(60, 1),
            rat(120, 1),
            vec![
                Task::new("t 0", rat(1, 3), rat(1, 6), 2, PlatformId(0)),
                Task::message("m", rat(1, 2), rat(1, 4), 1, PlatformId(1)),
            ],
        )
        .unwrap()
        .with_release_jitter(rat(5, 2));
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
        vec![
            AdmissionRequest::AddTransaction(tx),
            AdmissionRequest::Retune {
                platform: PlatformId(1),
                alpha: rat(1, 3),
                delta: rat(2, 1),
                beta: rat(0, 1),
            },
            AdmissionRequest::AddInstance {
                name: "logger1".into(),
                class,
                platform: PlatformId(0),
                node: 3,
            },
            AdmissionRequest::RemoveTransaction {
                name: "spaced name".into(),
            },
            AdmissionRequest::RemoveInstance {
                name: "logger1".into(),
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        let path = temp("roundtrip");
        let batch = sample_batch();
        let mut writer = JournalWriter::create(&path, 4).unwrap();
        writer.append(1, &batch, true).unwrap();
        writer.append(2, &batch[..1], false).unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.platforms, 4);
        assert!(contents.snapshot.is_none());
        assert_eq!(contents.epochs.len(), 2);
        assert_eq!(contents.epochs[0].batch, batch);
        assert!(contents.epochs[0].admitted);
        assert_eq!(contents.epochs[1].batch, &batch[..1]);
        assert!(!contents.epochs[1].admitted);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn streaming_reader_yields_records_lazily() {
        let path = temp("stream");
        let batch = sample_batch();
        let mut writer = JournalWriter::create(&path, 4).unwrap();
        for epoch in 1..=5 {
            writer.append(epoch, &batch[..1], epoch % 2 == 0).unwrap();
        }
        let mut stream = JournalStream::open(&path).unwrap();
        assert_eq!(stream.platforms(), 4);
        let mut seen = 0u64;
        for record in &mut stream {
            let record = record.unwrap();
            seen += 1;
            assert_eq!(record.epoch, seen);
            assert_eq!(record.batch, &batch[..1]);
        }
        assert_eq!(seen, 5);
        let bytes = std::fs::metadata(&path).unwrap().len();
        assert_eq!(stream.valid_prefix(), bytes);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_discarded_and_repaired() {
        let path = temp("torn");
        let batch = sample_batch();
        let mut writer = JournalWriter::create(&path, 4).unwrap();
        writer.append(1, &batch, true).unwrap();
        drop(writer);
        let full = read_journal(&path).unwrap();
        let intact = std::fs::read(&path).unwrap();

        // Tear the file at byte boundaries inside the record (but past the
        // header): the reader must fall back to zero complete epochs
        // without erroring.
        let header_len = format!("{MAGIC_V2}\nplatforms 4\n").len();
        for cut in [
            full.valid_prefix as usize - 1,
            intact.len() - 1,
            header_len + 5,
        ] {
            std::fs::write(&path, &intact[..cut]).unwrap();
            let torn = read_journal(&path).unwrap();
            assert_eq!(torn.epochs.len(), 0, "cut at {cut}");
            // Tail repair truncates, and appending works again.
            let mut writer = JournalWriter::recover(&path, torn.valid_prefix).unwrap();
            writer.append(1, &batch[..1], true).unwrap();
            let repaired = read_journal(&path).unwrap();
            assert_eq!(repaired.epochs.len(), 1);
            assert_eq!(repaired.epochs[0].batch, &batch[..1]);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn name_escaping_round_trips() {
        for name in [
            "plain",
            "two words",
            "pct%sign",
            "tab\there",
            "vtab\x0Bff\x0C",
            "nbsp\u{00A0}sep\u{2028}",
            "Γ-grüße",
            "",
        ] {
            let escaped = esc(name);
            assert!(
                escaped.split_whitespace().count() <= 1,
                "`{escaped}` must be one whitespace-delimited token"
            );
            assert_eq!(unesc(&escaped).unwrap(), name);
        }
        assert!(unesc("%2").is_err());
        assert!(unesc("%zz").is_err());
    }

    #[test]
    fn out_of_range_rational_token_is_a_decode_error() {
        // Shared by journal records and wire `submit` frames. The period's
        // decimal mantissa leaves i128 although its value does not: this
        // used to wrap to a negative period in release and panic in debug.
        let line = |period: &str| format!("add tx {period} 10 0 1 t 1 1 1 0 c");
        let mut no_lines = std::iter::empty();
        assert!(decode_request(&line("20"), &mut no_lines).is_ok());
        for period in [
            "200000000000.000000000000000000000000001",
            "1/-170141183460469231731687303715884105728",
        ] {
            assert_eq!(
                decode_request(&line(period), &mut no_lines),
                Err(format!("bad period `{period}`"))
            );
        }
    }

    #[test]
    fn bad_header_is_corruption_not_truncation() {
        let path = temp("badheader");
        // A complete first line that is not the current magic — garbage, or
        // the retired v1 header — is refused, never read as a journal.
        for header in ["not a journal", "hsched-journal v1"] {
            std::fs::write(&path, format!("{header}\nplatforms 4\n")).unwrap();
            assert!(
                matches!(read_journal(&path), Err(EngineError::Journal(_))),
                "`{header}` must be refused"
            );
        }
        // A file that ends inside the header has no header to judge yet.
        for cut in ["", "hsched-jour", "hsched-journal v2\nplat"] {
            std::fs::write(&path, cut).unwrap();
            assert!(
                matches!(
                    read_journal(&path),
                    Err(EngineError::JournalHeaderIncomplete)
                ),
                "`{cut}` is incomplete, not corrupt"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
