//! The engine's typed service vocabulary: stable transaction handles,
//! versioned request/response envelopes, and structured errors.
//!
//! The pre-engine admission API was stringly typed end to end: callers
//! addressed live transactions by name, malformed input surfaced as
//! `Result<_, String>`, and the CLI re-invented its own output shape per
//! command. The envelope fixes all three at once:
//!
//! * [`TxnId`] — a stable, never-reused handle minted for every admitted
//!   transaction; removal by handle cannot race a name reuse;
//! * [`EngineRequest`] / [`EngineResponse`] — one versioned wire shape
//!   ([`SCHEMA_VERSION`]) shared by the library API, the `hsched admit`
//!   CLI, and the `--json` serializer, so all surfaces evolve together;
//! * [`EngineError`] — the conditions that are caller/environment errors
//!   (not admission verdicts) as a typed enum. A *rejected batch* is not an
//!   error: it comes back as a regular [`EngineResponse`] whose outcome
//!   carries the [`hsched_admission::RejectReason`].

use hsched_admission::{AdmissionRequest, EpochOutcome};
use std::fmt;

/// Version of the engine's request/response/journal schema.
///
/// # Schema v2
///
/// v2 is the concurrent-service envelope: responses carry the epoch
/// *ticket* (the total order [`crate::SchedService`] assigns to concurrent
/// epochs — `epoch` is that ticket) and the *shard set* the batch routed to
/// ([`EngineResponse::shards`], slot ids, first-touch order), and the
/// journal header becomes `hsched-journal v2` with an optional embedded
/// snapshot block (journal compaction). Requests of any other version are
/// refused with [`EngineError::UnsupportedVersion`] instead of being
/// misinterpreted, and a journal with any other header is corruption.
pub const SCHEMA_VERSION: u32 = 2;

/// Stable handle of a live transaction, minted by the engine when the
/// transaction is admitted (or at seeding, in set order). Handles are
/// never reused, so a stale handle fails loudly instead of addressing a
/// later arrival that recycled the name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// One operation of an engine batch.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineOp {
    /// A name-addressed admission request (the CLI/script path; also how
    /// journaled batches replay).
    Admission(AdmissionRequest),
    /// Remove the transaction behind a stable handle (the typed library
    /// path). Unknown handles are an [`EngineError::UnknownTxn`], consuming
    /// no epoch.
    Remove(TxnId),
}

impl From<AdmissionRequest> for EngineOp {
    fn from(request: AdmissionRequest) -> EngineOp {
        EngineOp::Admission(request)
    }
}

/// A versioned batch of operations, committed atomically as one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRequest {
    /// Schema version; must equal [`SCHEMA_VERSION`].
    pub version: u32,
    /// The operations, applied in order.
    pub ops: Vec<EngineOp>,
}

impl EngineRequest {
    /// A current-version request from engine ops.
    pub fn new(ops: Vec<EngineOp>) -> EngineRequest {
        EngineRequest {
            version: SCHEMA_VERSION,
            ops,
        }
    }

    /// A current-version request from plain admission requests.
    pub fn batch(requests: Vec<AdmissionRequest>) -> EngineRequest {
        EngineRequest::new(requests.into_iter().map(EngineOp::Admission).collect())
    }
}

/// Per-phase wall time of one epoch's trip through the service, measured
/// on the submitting thread with monotonic clocks (nanoseconds).
///
/// The phases are disjoint by construction — `reserve_ns` is the reserve
/// phase *minus* its routing and checkout slices, so the five fields sum
/// to at most the epoch's end-to-end wall time (contended retries and
/// ticket-order waits are attributed to the phase that waited). The same
/// numbers feed the service-wide histograms behind
/// [`crate::SchedService::metrics`]; the response copy lets a caller
/// correlate one specific epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochTimings {
    /// Reserve phase excluding routing and checkout: lock and gate waits
    /// and any retried attempts.
    pub reserve_ns: u64,
    /// Routing the batch to its shard slots.
    pub route_ns: u64,
    /// Checking the routed shards out of their slots.
    pub checkout_ns: u64,
    /// The lock-free analysis phase (the epoch's one controller commit).
    pub analyze_ns: u64,
    /// The settle phase, including the ticket-order turn wait.
    pub settle_ns: u64,
}

impl EpochTimings {
    /// Sum of all phase slices — at most the epoch's wall time.
    pub fn total_ns(&self) -> u64 {
        self.reserve_ns
            .saturating_add(self.route_ns)
            .saturating_add(self.checkout_ns)
            .saturating_add(self.analyze_ns)
            .saturating_add(self.settle_ns)
    }
}

/// The engine's answer for one committed epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineResponse {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub version: u32,
    /// The epoch ticket (1-based, consecutive): the position of this epoch
    /// in the service's total order. Every submitted batch — concurrent or
    /// not — consumes exactly one ticket, and the write-ahead journal
    /// records epochs in ticket order, so a serial replay reproduces the
    /// same sequence.
    pub epoch: u64,
    /// Verdict + work accounting of the epoch's commit over the touched
    /// shards (same shape as the single-controller outcome).
    pub outcome: EpochOutcome,
    /// Handles minted for the arrivals of this batch (empty on rejection),
    /// in batch order; an instance arrival contributes one handle per
    /// flattened transaction.
    pub admitted: Vec<TxnId>,
    /// The shard set the batch routed to: slot ids in first-touch order
    /// (empty for an empty or structurally rejected batch). Slot ids are
    /// stable while a shard lives; merges and splits reassign them. A
    /// merge's absorbed slot is left out; a fresh shard's slot, assigned
    /// at settle, comes last.
    pub shards: Vec<usize>,
    /// Island shards the batch routed to (`shards.len()`; kept as its own
    /// field since schema v1).
    pub shards_touched: usize,
    /// Live shards after the epoch.
    pub shards_live: usize,
    /// Where this epoch's wall time went, phase by phase (always
    /// populated; zeros only for phases the epoch skipped).
    pub timings: EpochTimings,
}

/// The receipt of an asynchronously submitted epoch: the batch is
/// *committed* (analyzed, settled, appended to the journal buffer in
/// ticket order) but not yet *durable*. Call
/// [`crate::SchedService::sync`] with [`EpochTicket::epoch`] as the
/// watermark — or any later watermark — to force it to disk;
/// [`crate::SchedService::submit`] is exactly `submit_async` followed by
/// `sync(ticket.epoch)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochTicket {
    /// The epoch ticket (see [`EngineResponse::epoch`]); doubles as the
    /// durability watermark for [`crate::SchedService::sync`].
    pub epoch: u64,
    /// The full settled response for the epoch, identical to what
    /// [`crate::SchedService::submit`] would have returned.
    pub response: EngineResponse,
}

/// Caller or environment failures of the engine API — conditions that are
/// *not* admission verdicts (rejected batches come back as responses).
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The request's schema version is not supported by this engine.
    UnsupportedVersion {
        /// Version found in the request.
        found: u32,
        /// Version this engine speaks.
        supported: u32,
    },
    /// A [`EngineOp::Remove`] referenced a handle that was never minted or
    /// whose transaction already departed.
    UnknownTxn(TxnId),
    /// The seed analysis failed at construction time.
    Seed(String),
    /// The write-ahead journal could not be created, written, or parsed.
    Journal(String),
    /// The journal file ends inside its two header lines: there is no
    /// complete header to judge *yet* (an empty file, or a mirror whose
    /// bootstrap was cut short). A complete header that is wrong is
    /// [`EngineError::Journal`] corruption instead.
    JournalHeaderIncomplete,
    /// A journal replay diverged from the recorded verdicts — the journal
    /// is corrupt or was produced by an incompatible engine.
    Replay(String),
    /// An internal invariant was violated (a bug, not a caller error).
    Internal(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported request version {found} (engine speaks v{supported})"
                )
            }
            EngineError::UnknownTxn(id) => write!(f, "unknown transaction handle {id}"),
            EngineError::Seed(m) => write!(f, "seed analysis failed: {m}"),
            EngineError::Journal(m) => write!(f, "journal error: {m}"),
            EngineError::JournalHeaderIncomplete => {
                write!(f, "journal error: the file ends inside the journal header")
            }
            EngineError::Replay(m) => write!(f, "replay diverged: {m}"),
            EngineError::Internal(m) => write!(f, "internal engine error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}
