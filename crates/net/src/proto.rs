//! The frame grammar: encode/parse pairs for every frame of the service
//! and replication wires. The normative spec lives in
//! `docs/WIRE_PROTOCOL.md`; this module is its implementation, and the
//! round-trip property tests below pin the two together.
//!
//! Request batches travel in the **journal's request-line grammar**
//! ([`hsched_engine::encode_request`]) — the same codec that serializes
//! epochs to the WAL serializes them onto the wire, so there is exactly
//! one serialization of an admission request in the whole system.

use crate::error::{code, reason_code, WireError};
use hsched_admission::{AdmissionRequest, RejectReason, Verdict};
use hsched_engine::{decode_request, encode_request, esc, unesc, EngineResponse};
use hsched_telemetry::{HistogramSnapshot, MetricsSnapshot};

/// Greeting the service port sends on connect.
pub const SERVICE_GREETING: &str = "hsched-net v2";
/// Greeting the replication port sends on connect.
pub const REPL_GREETING: &str = "hsched-repl v2";

/// Durability mode of a submit frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitMode {
    /// Per-epoch durability: the response returns after the record is
    /// fsynced ([`hsched_engine::SchedService::submit`]).
    Sync,
    /// Pipelined: the response returns at settle; durability comes from a
    /// later `sync` frame ([`hsched_engine::SchedService::submit_async`]).
    Async,
}

impl SubmitMode {
    fn keyword(self) -> &'static str {
        match self {
            SubmitMode::Sync => "sync",
            SubmitMode::Async => "async",
        }
    }
}

/// A rejected epoch's reason as it crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteReason {
    /// Reason kind (`structural`/`overload`/`unschedulable`/`analysis`/
    /// `numeric` — the CLI's existing vocabulary).
    pub kind: String,
    /// Stable numeric code ([`crate::error::reason`]).
    pub code: u16,
    /// Human-readable detail (the reason's display form).
    pub detail: String,
}

/// One epoch response as it crosses the wire — the [`EngineResponse`]
/// fields a remote client can use (timings and minted handles stay
/// server-side; handles are meaningless across processes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteEpoch {
    /// Epoch ticket.
    pub epoch: u64,
    /// Verdict.
    pub admitted: bool,
    /// Requests in the batch.
    pub requests: usize,
    /// Transactions re-analyzed (the dirty cone).
    pub analyzed: usize,
    /// Live transactions after the epoch.
    pub total: usize,
    /// Independent interference cones analyzed.
    pub islands: usize,
    /// Whether any cone warm-started.
    pub warm: bool,
    /// Shards the batch routed to.
    pub shards_touched: usize,
    /// Live shards after the epoch.
    pub shards_live: usize,
    /// The routed slot ids, first-touch order.
    pub shards: Vec<usize>,
    /// Rejection reason (rejected epochs only).
    pub reason: Option<RemoteReason>,
}

impl std::fmt::Display for RemoteEpoch {
    /// Mirrors the engine's own outcome line byte-for-byte, so remote and
    /// local `hsched admit` render identically.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = match &self.reason {
            None if self.admitted => "admitted".to_string(),
            None => "rejected".to_string(),
            Some(reason) => format!("rejected ({})", reason.detail),
        };
        write!(
            f,
            "epoch {}: {verdict} ({} request(s), analyzed {}/{} transactions in {} island(s){})",
            self.epoch,
            self.requests,
            self.analyzed,
            self.total,
            self.islands,
            if self.warm { ", warm" } else { "" }
        )
    }
}

/// The CLI's rejection-kind vocabulary for a [`RejectReason`].
pub fn reason_kind(reason: &RejectReason) -> &'static str {
    match reason {
        RejectReason::Structural(_) => "structural",
        RejectReason::Overload { .. } => "overload",
        RejectReason::Unschedulable { .. } => "unschedulable",
        RejectReason::Analysis(_) => "analysis",
        RejectReason::Numeric(_) => "numeric",
    }
}

fn malformed(message: impl Into<String>) -> WireError {
    WireError::remote(code::MALFORMED, message)
}

fn take<'a>(tokens: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<&'a str, WireError> {
    tokens
        .next()
        .ok_or_else(|| malformed(format!("missing {what}")))
}

fn take_u64<'a>(tokens: &mut impl Iterator<Item = &'a str>, what: &str) -> Result<u64, WireError> {
    let token = take(tokens, what)?;
    token
        .parse()
        .map_err(|_| malformed(format!("bad {what} `{token}`")))
}

fn take_usize<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<usize, WireError> {
    let token = take(tokens, what)?;
    token
        .parse()
        .map_err(|_| malformed(format!("bad {what} `{token}`")))
}

fn take_name<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<String, WireError> {
    unesc(take(tokens, what)?).map_err(|e| malformed(format!("bad {what}: {e}")))
}

// ---------------------------------------------------------------- submit

/// Encodes a submit frame: header line plus one journal-grammar line per
/// request (instance arrivals span extra embedded-class lines).
pub fn encode_submit(mode: SubmitMode, version: u32, batch: &[AdmissionRequest]) -> String {
    encode_submit_ticketed(mode, version, batch, None)
}

/// Encodes a submit frame carrying an optional client-chosen idempotency
/// ticket (`ticket <esc(id)>` suffix on the header line). A retrying
/// client sends the *same* ticket with every attempt of one logical
/// batch; the server remembers the epoch reply it issued under that
/// ticket and replays it instead of committing the batch twice.
pub fn encode_submit_ticketed(
    mode: SubmitMode,
    version: u32,
    batch: &[AdmissionRequest],
    ticket: Option<&str>,
) -> String {
    let mut payload = format!("submit {} {version} {}", mode.keyword(), batch.len());
    if let Some(id) = ticket {
        payload.push_str(&format!(" ticket {}", esc(id)));
    }
    for request in batch {
        for line in encode_request(request) {
            payload.push('\n');
            payload.push_str(&line);
        }
    }
    payload
}

/// A parsed submit frame (see [`parse_submit`]).
pub type ParsedSubmit = (SubmitMode, u32, Vec<AdmissionRequest>, Option<String>);

/// Parses a submit frame (the payload *after* the keyword has been
/// identified; pass the full payload). The fourth element is the
/// idempotency ticket, when the client sent one.
pub fn parse_submit(payload: &str) -> Result<ParsedSubmit, WireError> {
    let mut lines = payload.lines();
    let header = lines.next().ok_or_else(|| malformed("empty frame"))?;
    let mut tokens = header.split_whitespace();
    match take(&mut tokens, "frame keyword")? {
        "submit" => {}
        other => return Err(malformed(format!("expected `submit`, got `{other}`"))),
    }
    let mode = match take(&mut tokens, "submit mode")? {
        "sync" => SubmitMode::Sync,
        "async" => SubmitMode::Async,
        other => return Err(malformed(format!("bad submit mode `{other}`"))),
    };
    let version = take_u64(&mut tokens, "schema version")? as u32;
    let count = take_usize(&mut tokens, "request count")?;
    let ticket = match tokens.next() {
        None => None,
        Some("ticket") => Some(take_name(&mut tokens, "submit ticket")?),
        Some(other) => {
            return Err(malformed(format!(
                "trailing tokens on submit header (`{other}`)"
            )))
        }
    };
    if tokens.next().is_some() {
        return Err(malformed("trailing tokens on submit header"));
    }
    let mut batch = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let line = lines
            .next()
            .ok_or_else(|| malformed("fewer request lines than declared"))?;
        batch.push(decode_request(line, &mut lines).map_err(malformed)?);
    }
    if lines.next().is_some() {
        return Err(malformed("trailing request lines"));
    }
    Ok((mode, version, batch, ticket))
}

// ---------------------------------------------------------------- epoch

/// Encodes an epoch response frame from the engine's response.
pub fn encode_epoch(response: &EngineResponse) -> String {
    let outcome = &response.outcome;
    let mut payload = format!(
        "epoch {} {} {} {} {} {} {} {} {}",
        response.epoch,
        if outcome.verdict.admitted() {
            "admitted"
        } else {
            "rejected"
        },
        outcome.requests,
        outcome.analyzed_transactions,
        outcome.total_transactions,
        outcome.islands,
        u8::from(outcome.warm_started),
        response.shards_touched,
        response.shards_live,
    );
    for slot in &response.shards {
        payload.push_str(&format!(" {slot}"));
    }
    if let Verdict::Rejected(reason) = &outcome.verdict {
        let kind = reason_kind(reason);
        payload.push_str(&format!(
            "\nreason {kind} {} {}",
            reason_code(kind),
            esc(&reason.to_string())
        ));
    }
    payload
}

/// Parses an epoch response frame.
pub fn parse_epoch(payload: &str) -> Result<RemoteEpoch, WireError> {
    let mut lines = payload.lines();
    let header = lines.next().ok_or_else(|| malformed("empty frame"))?;
    let mut tokens = header.split_whitespace();
    match take(&mut tokens, "frame keyword")? {
        "epoch" => {}
        other => return Err(malformed(format!("expected `epoch`, got `{other}`"))),
    }
    let epoch = take_u64(&mut tokens, "epoch")?;
    let admitted = match take(&mut tokens, "verdict")? {
        "admitted" => true,
        "rejected" => false,
        other => return Err(malformed(format!("bad verdict `{other}`"))),
    };
    let requests = take_usize(&mut tokens, "request count")?;
    let analyzed = take_usize(&mut tokens, "analyzed count")?;
    let total = take_usize(&mut tokens, "total count")?;
    let islands = take_usize(&mut tokens, "island count")?;
    let warm = take_u64(&mut tokens, "warm flag")? != 0;
    let shards_touched = take_usize(&mut tokens, "shards touched")?;
    let shards_live = take_usize(&mut tokens, "shards live")?;
    let shards: Vec<usize> = tokens
        .map(|t| {
            t.parse()
                .map_err(|_| malformed(format!("bad shard slot `{t}`")))
        })
        .collect::<Result<_, _>>()?;
    let reason = match lines.next() {
        None => None,
        Some(line) => {
            let mut tokens = line.split_whitespace();
            match take(&mut tokens, "reason keyword")? {
                "reason" => {}
                other => return Err(malformed(format!("expected `reason`, got `{other}`"))),
            }
            let kind = take(&mut tokens, "reason kind")?.to_string();
            let code = take_u64(&mut tokens, "reason code")? as u16;
            let detail = take_name(&mut tokens, "reason detail")?;
            Some(RemoteReason { kind, code, detail })
        }
    };
    if lines.next().is_some() {
        return Err(malformed("trailing lines on epoch frame"));
    }
    if !admitted && reason.is_none() {
        return Err(malformed("rejected epoch without a reason line"));
    }
    Ok(RemoteEpoch {
        epoch,
        admitted,
        requests,
        analyzed,
        total,
        islands,
        warm,
        shards_touched,
        shards_live,
        shards,
        reason,
    })
}

// ------------------------------------------------------------ sync/digest

/// Encodes a sync frame (`None` = everything settled, `u64::MAX`).
pub fn encode_sync(watermark: Option<u64>) -> String {
    match watermark {
        Some(epoch) => format!("sync {epoch}"),
        None => "sync all".to_string(),
    }
}

/// Parses a sync frame into its watermark.
pub fn parse_sync(payload: &str) -> Result<u64, WireError> {
    let mut tokens = payload.split_whitespace();
    match take(&mut tokens, "frame keyword")? {
        "sync" => {}
        other => return Err(malformed(format!("expected `sync`, got `{other}`"))),
    }
    let watermark = match take(&mut tokens, "watermark")? {
        "all" => u64::MAX,
        token => token
            .parse()
            .map_err(|_| malformed(format!("bad watermark `{token}`")))?,
    };
    if tokens.next().is_some() {
        return Err(malformed("trailing tokens on sync frame"));
    }
    Ok(watermark)
}

/// Encodes the `synced <epoch>` acknowledgement.
pub fn encode_synced(epoch: u64) -> String {
    format!("synced {epoch}")
}

/// Parses a `synced` acknowledgement.
pub fn parse_synced(payload: &str) -> Result<u64, WireError> {
    let mut tokens = payload.split_whitespace();
    match take(&mut tokens, "frame keyword")? {
        "synced" => {}
        other => return Err(malformed(format!("expected `synced`, got `{other}`"))),
    }
    take_u64(&mut tokens, "synced epoch")
}

/// Encodes a `digest <epoch> <hex16>` frame (also the heartbeat body).
pub fn encode_digest(epoch: u64, digest: &str) -> String {
    format!("digest {epoch} {digest}")
}

/// Parses a `digest` frame.
pub fn parse_digest(payload: &str) -> Result<(u64, String), WireError> {
    let mut tokens = payload.split_whitespace();
    match take(&mut tokens, "frame keyword")? {
        "digest" => {}
        other => return Err(malformed(format!("expected `digest`, got `{other}`"))),
    }
    let epoch = take_u64(&mut tokens, "epoch")?;
    let digest = take(&mut tokens, "digest")?.to_string();
    Ok((epoch, digest))
}

// ---------------------------------------------------------------- error

/// Encodes a typed error frame.
pub fn encode_error(error: &WireError) -> String {
    format!("error {} {}", error.wire_code(), esc(&error.to_string()))
}

/// Parses an error frame into a [`WireError::Remote`].
pub fn parse_error(payload: &str) -> Result<WireError, WireError> {
    let mut tokens = payload.split_whitespace();
    match take(&mut tokens, "frame keyword")? {
        "error" => {}
        other => return Err(malformed(format!("expected `error`, got `{other}`"))),
    }
    let code = take_u64(&mut tokens, "error code")? as u16;
    let message = take_name(&mut tokens, "error message")?;
    Ok(WireError::Remote { code, message })
}

// ---------------------------------------------------------------- stats

/// Encodes a metrics snapshot: header with section counts, one `c` line
/// per counter, one `h` line per histogram (sum, max, then the per-bucket
/// counts with trailing zeros trimmed).
pub fn encode_stats(snapshot: &MetricsSnapshot) -> String {
    let counters: Vec<_> = snapshot.counters().collect();
    let histograms: Vec<_> = snapshot.histograms().collect();
    let mut payload = format!("stats {} {}", counters.len(), histograms.len());
    for (name, value) in counters {
        payload.push_str(&format!("\nc {} {value}", esc(name)));
    }
    for (name, hist) in histograms {
        let mut buckets: Vec<u64> = (0..hsched_telemetry::BUCKETS)
            .map(|i| hist.bucket(i))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        payload.push_str(&format!(
            "\nh {} {} {} {}",
            esc(name),
            hist.sum(),
            hist.max(),
            buckets.len()
        ));
        for count in buckets {
            payload.push_str(&format!(" {count}"));
        }
    }
    payload
}

/// Parses a stats frame back into a [`MetricsSnapshot`] (histograms are
/// reconstructed bucket-exact, so remote quantiles equal local ones).
pub fn parse_stats(payload: &str) -> Result<MetricsSnapshot, WireError> {
    let mut lines = payload.lines();
    let header = lines.next().ok_or_else(|| malformed("empty frame"))?;
    let mut tokens = header.split_whitespace();
    match take(&mut tokens, "frame keyword")? {
        "stats" => {}
        other => return Err(malformed(format!("expected `stats`, got `{other}`"))),
    }
    let n_counters = take_usize(&mut tokens, "counter count")?;
    let n_hists = take_usize(&mut tokens, "histogram count")?;
    let mut snapshot = MetricsSnapshot::default();
    for _ in 0..n_counters {
        let line = lines.next().ok_or_else(|| malformed("missing `c` line"))?;
        let mut tokens = line.split_whitespace();
        match take(&mut tokens, "line keyword")? {
            "c" => {}
            other => return Err(malformed(format!("expected `c`, got `{other}`"))),
        }
        let name = take_name(&mut tokens, "counter name")?;
        let value = take_u64(&mut tokens, "counter value")?;
        snapshot.put_counter(&name, value);
    }
    for _ in 0..n_hists {
        let line = lines.next().ok_or_else(|| malformed("missing `h` line"))?;
        let mut tokens = line.split_whitespace();
        match take(&mut tokens, "line keyword")? {
            "h" => {}
            other => return Err(malformed(format!("expected `h`, got `{other}`"))),
        }
        let name = take_name(&mut tokens, "histogram name")?;
        let sum = take_u64(&mut tokens, "histogram sum")?;
        let max = take_u64(&mut tokens, "histogram max")?;
        let n_buckets = take_usize(&mut tokens, "bucket count")?;
        if n_buckets > hsched_telemetry::BUCKETS {
            return Err(malformed(format!("{n_buckets} buckets exceeds the schema")));
        }
        let mut counts = Vec::with_capacity(n_buckets);
        for _ in 0..n_buckets {
            counts.push(take_u64(&mut tokens, "bucket value")?);
        }
        if tokens.next().is_some() {
            return Err(malformed("trailing tokens on `h` line"));
        }
        snapshot.put_histogram(&name, HistogramSnapshot::from_parts(sum, max, &counts));
    }
    if lines.next().is_some() {
        return Err(malformed("trailing lines on stats frame"));
    }
    Ok(snapshot)
}

// ------------------------------------------------------------ replication

/// Encodes the follower's resume handshake: its local durable byte count
/// and the FNV-1a 64 digest (16 hex chars) of those bytes.
pub fn encode_follow(offset: u64, prefix_digest: u64) -> String {
    format!("follow {offset} {prefix_digest:016x}")
}

/// Parses a `follow` handshake.
pub fn parse_follow(payload: &str) -> Result<(u64, u64), WireError> {
    let mut tokens = payload.split_whitespace();
    match take(&mut tokens, "frame keyword")? {
        "follow" => {}
        other => return Err(malformed(format!("expected `follow`, got `{other}`"))),
    }
    let offset = take_u64(&mut tokens, "offset")?;
    let digest_token = take(&mut tokens, "prefix digest")?;
    let digest = u64::from_str_radix(digest_token, 16)
        .map_err(|_| malformed(format!("bad prefix digest `{digest_token}`")))?;
    Ok((offset, digest))
}

/// Encodes the primary's handshake acceptance.
pub fn encode_streaming(durable_bytes: u64, durable_epoch: u64) -> String {
    format!("streaming {durable_bytes} {durable_epoch}")
}

/// Parses a `streaming` acceptance.
pub fn parse_streaming(payload: &str) -> Result<(u64, u64), WireError> {
    let mut tokens = payload.split_whitespace();
    match take(&mut tokens, "frame keyword")? {
        "streaming" => {}
        other => return Err(malformed(format!("expected `streaming`, got `{other}`"))),
    }
    Ok((
        take_u64(&mut tokens, "durable bytes")?,
        take_u64(&mut tokens, "durable epoch")?,
    ))
}

/// Encodes one raw journal chunk starting at `offset`. The bytes are
/// journal text (ASCII by construction), appended verbatim after the
/// header line.
pub fn encode_jbytes(offset: u64, bytes: &str) -> String {
    format!("jbytes {offset} {}\n{bytes}", bytes.len())
}

/// Parses a `jbytes` frame into `(offset, raw_bytes)`.
pub fn parse_jbytes(payload: &str) -> Result<(u64, &str), WireError> {
    let (header, rest) = payload
        .split_once('\n')
        .ok_or_else(|| malformed("jbytes frame without a body"))?;
    let mut tokens = header.split_whitespace();
    match take(&mut tokens, "frame keyword")? {
        "jbytes" => {}
        other => return Err(malformed(format!("expected `jbytes`, got `{other}`"))),
    }
    let offset = take_u64(&mut tokens, "offset")?;
    let declared = take_usize(&mut tokens, "byte count")?;
    if declared != rest.len() {
        return Err(malformed(format!(
            "jbytes declares {declared} bytes, carries {}",
            rest.len()
        )));
    }
    Ok((offset, rest))
}

/// Encodes the follower's applied-epoch acknowledgement.
pub fn encode_ack(applied_epoch: u64) -> String {
    format!("ack {applied_epoch}")
}

/// Parses an `ack` frame.
pub fn parse_ack(payload: &str) -> Result<u64, WireError> {
    let mut tokens = payload.split_whitespace();
    match take(&mut tokens, "frame keyword")? {
        "ack" => {}
        other => return Err(malformed(format!("expected `ack`, got `{other}`"))),
    }
    take_u64(&mut tokens, "applied epoch")
}

/// Encodes a replication reset order (follower must discard its local
/// mirror and resync from byte 0).
pub fn encode_reset(why: &str) -> String {
    format!("reset {}", esc(why))
}

/// Parses a `reset` frame into its reason.
pub fn parse_reset(payload: &str) -> Result<String, WireError> {
    let mut tokens = payload.split_whitespace();
    match take(&mut tokens, "frame keyword")? {
        "reset" => {}
        other => return Err(malformed(format!("expected `reset`, got `{other}`"))),
    }
    take_name(&mut tokens, "reset reason")
}

/// The keyword of a frame payload (its first whitespace-delimited token).
pub fn keyword(payload: &str) -> &str {
    payload.split_whitespace().next().unwrap_or("")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_numeric::rat;
    use hsched_platform::PlatformId;
    use hsched_transaction::{Task, Transaction};

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
        vec![
            AdmissionRequest::AddTransaction(tx),
            AdmissionRequest::Retune {
                platform: PlatformId(1),
                alpha: rat(1, 3),
                delta: rat(2, 1),
                beta: rat(0, 1),
            },
            AdmissionRequest::RemoveTransaction {
                name: "spaced name".into(),
            },
        ]
    }

    #[test]
    fn submit_round_trips() {
        let batch = sample_batch();
        let payload = encode_submit(SubmitMode::Async, 2, &batch);
        let (mode, version, parsed, ticket) = parse_submit(&payload).unwrap();
        assert_eq!(mode, SubmitMode::Async);
        assert_eq!(version, 2);
        assert_eq!(parsed, batch);
        assert_eq!(ticket, None);
    }

    #[test]
    fn ticketed_submit_round_trips() {
        let batch = sample_batch();
        let payload = encode_submit_ticketed(SubmitMode::Sync, 2, &batch, Some("c1f3 7/2"));
        let (mode, version, parsed, ticket) = parse_submit(&payload).unwrap();
        assert_eq!(mode, SubmitMode::Sync);
        assert_eq!(version, 2);
        assert_eq!(parsed, batch);
        assert_eq!(ticket.as_deref(), Some("c1f3 7/2"));
        // Anything other than the `ticket` extension still trips the
        // trailing-token check.
        let bad = encode_submit(SubmitMode::Sync, 2, &batch).replacen(
            "submit sync 2 3",
            "submit sync 2 3 surprise",
            1,
        );
        assert!(matches!(
            parse_submit(&bad),
            Err(WireError::Remote { code: c, .. }) if c == code::MALFORMED
        ));
    }

    #[test]
    fn submit_with_wrong_count_is_malformed() {
        let batch = sample_batch();
        let payload = encode_submit(SubmitMode::Sync, 2, &batch);
        let lied = payload.replacen("submit sync 2 3", "submit sync 2 4", 1);
        assert!(matches!(
            parse_submit(&lied),
            Err(WireError::Remote { code: c, .. }) if c == code::MALFORMED
        ));
    }

    #[test]
    fn sync_digest_error_round_trip() {
        assert_eq!(parse_sync(&encode_sync(Some(41))).unwrap(), 41);
        assert_eq!(parse_sync(&encode_sync(None)).unwrap(), u64::MAX);
        assert_eq!(parse_synced(&encode_synced(7)).unwrap(), 7);
        let (epoch, digest) = parse_digest(&encode_digest(9, "00ff00ff00ff00ff")).unwrap();
        assert_eq!((epoch, digest.as_str()), (9, "00ff00ff00ff00ff"));
        let err = WireError::remote(code::JOURNAL, "disk gone (very bad)");
        let parsed = parse_error(&encode_error(&err)).unwrap();
        match parsed {
            WireError::Remote { code: c, message } => {
                assert_eq!(c, code::JOURNAL);
                assert!(message.contains("disk gone (very bad)"));
            }
            other => panic!("expected remote, got {other:?}"),
        }
    }

    #[test]
    fn stats_round_trips_bucket_exact() {
        let hist = hsched_telemetry::Histogram::new();
        for v in [1u64, 3, 3, 900, 70_000] {
            hist.record(v);
        }
        let mut snap = MetricsSnapshot::default();
        snap.put_counter("net.frames_in", 42);
        snap.put_counter("engine.epochs", 7);
        snap.put_histogram("net.repl.lag_records", hist.snapshot());
        let parsed = parse_stats(&encode_stats(&snap)).unwrap();
        assert_eq!(parsed, snap);
        let round = parsed.histogram("net.repl.lag_records").unwrap();
        assert_eq!(round.count(), 5);
        assert_eq!(round.max(), 70_000);
        assert_eq!(round.p50(), hist.snapshot().p50());
    }

    #[test]
    fn replication_frames_round_trip() {
        assert_eq!(
            parse_follow(&encode_follow(123, 0xdead_beef)).unwrap(),
            (123, 0xdead_beef)
        );
        assert_eq!(parse_streaming(&encode_streaming(9, 4)).unwrap(), (9, 4));
        let chunk = "epoch 1 1\nadd a 1 1 0 0\nverdict admitted\nend\n";
        let framed = encode_jbytes(55, chunk);
        let (offset, bytes) = parse_jbytes(&framed).unwrap();
        assert_eq!(offset, 55);
        assert_eq!(bytes, chunk);
        assert_eq!(parse_ack(&encode_ack(17)).unwrap(), 17);
        assert_eq!(
            parse_reset(&encode_reset("prefix digest mismatch")).unwrap(),
            "prefix digest mismatch"
        );
    }

    #[test]
    fn keyword_extraction() {
        assert_eq!(keyword("submit sync 2 0"), "submit");
        assert_eq!(keyword(""), "");
    }
}
