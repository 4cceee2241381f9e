//! The shared-reference admission service: many client threads submit
//! epochs through `&self`, disjoint-island batches commit truly
//! concurrently, and the write-ahead journal stays byte-identical to a
//! serial replay.
//!
//! # Why sharding is exact
//!
//! Interference cannot cross the connected components ("islands") of the
//! transaction–platform graph — a task is only delayed by tasks on its own
//! platform, and jitters only propagate within a transaction (the PR-2
//! dirty-tracking argument). A shard that owns a whole island group
//! therefore computes *exactly* the numbers a single global controller
//! would: the partition changes scheduling of work, never results.
//!
//! # The concurrency protocol
//!
//! Every epoch passes through three phases:
//!
//! 1. **Reserve** — route the batch to the shard slots and free platforms
//!    it touches (batch-local name simulation included), check for
//!    conflicts against in-flight epochs, and check the touched shard
//!    controllers out of their slots together with the epoch's **ticket**
//!    (a sequence number). Because a ticket is only issued once every
//!    touched shard was acquired, an earlier-ticketed epoch can never wait
//!    on a later-ticketed one — the classic two-phase total-order argument,
//!    so cross-shard batches stay atomic and deadlock-free. Reserve never
//!    allocates or vacates a slot.
//! 2. **Analyze** — no lock held: the checked-out shards are merged into
//!    one controller (an empty one when the batch touches only free
//!    platforms) and the whole batch is committed on it **once** — the
//!    paper's one transaction set, restricted to the islands the batch
//!    touches. The controller parallelizes across the batch's disjoint
//!    interference cones itself; across client threads, analyses on
//!    disjoint islands overlap fully.
//! 3. **Settle** — strictly in ticket order: the controller is split back
//!    into islands and each is placed in a slot (the one place
//!    shard topology changes; see [`World::place`]), routing tables and
//!    handle maps are updated, and the epoch's record is appended to the
//!    journal. Settling in ticket order makes the journal a
//!    *serialization* of the concurrent history: replaying it epoch by
//!    epoch through a single-threaded engine reproduces verdicts and state
//!    byte-identically (the linearizability property suite drives N client
//!    threads and asserts exactly this).
//!
//! ## The front door
//!
//! Reserve is one path behind one **routing lock**: the platform→shard
//! home map (a name is homed by its platform), the claim sets of in-flight
//! epochs and the slot table live together in [`Routing`], so [`route`] sees the exact
//! state and the lock is held from the routing decision to the ticket —
//! no settle can slip between the two. The concurrency that pays is in
//! analyze (island-local, no lock held), not here: on the declared
//! workloads reserve + route + checkout are ≈ 6 µs of an epoch that
//! analyzes for ≈ 500 µs (`docs/PERFORMANCE.md`).
//!
//! The lock order is total — routing → core → gate — and condition
//! variables wait on the gate alone (or on the core alone, for group
//! commit); `docs/ARCHITECTURE.md` has the deadlock-freedom argument.
//!
//! Journal `fsync`s are group-committed and *exposed*: the record is
//! written at settle (keeping ticket order) but `sync_data` happens in
//! [`SchedService::sync`], and one fsync covers every record written
//! before it started. [`SchedService::submit`] still returns only after
//! its own record is durable; [`SchedService::submit_async`] returns an
//! [`EpochTicket`] as soon as the epoch settles, letting batching clients
//! pipeline epochs and pay one fsync per watermark instead of one per
//! epoch.
//!
//! ## Conflicts and drains
//!
//! Two in-flight epochs conflict when they touch the same shard, claim the
//! same free platform, or *mention* the same transaction/instance name
//! (validation against a name whose liveness an in-flight epoch may change
//! must wait for that epoch's outcome — otherwise the journal would not
//! replay serially). Conflicting submissions simply wait; disjoint ones
//! run concurrently, merges, splits and fresh shards included: only
//! settle, which runs in ticket order, allocates or vacates a slot, so
//! slot choice is deterministic in ticket order (the state digest depends
//! on it) and `shards_live` is exact. Instance operations first **drain**
//! the pipeline (a fairness gate holds new reservations off while such a
//! writer waits): they flatten across names no footprint can be
//! precomputed for.
//!
//! # Recovery applies records, not analyses
//!
//! The holistic analysis is a function of the transaction set alone, and
//! the cached report equals a from-scratch analysis of the live set
//! (property-tested). So replay, a warm standby and promotion do not
//! re-run the analyses the journal records the outcome of: one streaming
//! applier ([`SchedService::apply_journal_record`]) settles each record
//! through the same route → checkout → merge → settle path as a live epoch,
//! with only the analyze step swapped ([`Seam`]):
//!
//! - a record marked rejected only advances the counters — every rejection
//!   leaves shard topology as it was;
//! - a record marked admitted has its batch applied without analysis
//!   ([`AdmissionController::apply_unanalyzed`]); its islands are placed
//!   **stale**, on the record's promise that they are schedulable.
//!
//! A stale shard is analyzed from scratch, once, when the state is next
//! read ([`World::refresh_slot`]): by an observer of analysis results, at
//! the end of a replay, by a standby before it compares a heartbeat
//! digest, and before a live epoch checks the shard out. That is also where
//! the promise is checked; `--verify` replay keeps the analyze step on.
//!
//! # Equivalence envelope
//!
//! The service matches the single-controller verdict — rejection reason
//! included — and post-state exactly on transaction-level traffic. Each
//! epoch is one controller commit over the touched islands, so the
//! controller's own stage order (structural, numeric, overload, deadline
//! misses, analysis aborts) decides the reason, and the controller judges
//! exactly the islands the batch touches — the islands the epoch checked
//! out. The contract: admitted ⇒ every island the batch touched is
//! schedulable, and a system seeded schedulable stays schedulable. The
//! engine only re-orders: an [`RejectReason::Unschedulable`] reason lists
//! the misses in **global set order** (handle-mint order — the order the
//! serial controller's live set holds them in — with this batch's unminted
//! arrivals after, in batch order).

use crate::digest::fnv1a_64;
use crate::envelope::{
    EngineError, EngineOp, EngineRequest, EngineResponse, EpochTicket, EpochTimings, TxnId,
    SCHEMA_VERSION,
};
use crate::journal::{DurableMark, JournalEpoch, JournalStream, JournalSubscriber, JournalWriter};
use crate::metrics::EngineMetrics;
use crate::routing::{route, shard_slots, Checkout, Footprint, Key, RouteOutcome, Routing};
use crate::snapshot::{self, Snapshot};
use crate::sync::{condvar, core_lock, gate_lock, routing_lock, Arc, Condvar, Mutex, MutexGuard};
use hsched_admission::{
    AdmissionController, AdmissionMetrics, AdmissionPolicy, AdmissionRequest, ControllerStats,
    EpochOutcome, RejectReason, Verdict,
};
use hsched_analysis::{AnalysisConfig, AnalysisMetrics, SchedulabilityReport};
use hsched_model::System;
use hsched_platform::PlatformSet;
use hsched_telemetry::{elapsed_ns, MetricsSnapshot};
use hsched_transaction::TransactionSet;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// One island shard: a full admission controller over the island's
/// transactions. `PlatformId`s are global: the controller holds a handle
/// on the service's one platform table (see [`World::put_idle`]).
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) core: AdmissionController,
    /// The shard was placed by a journal record applied without analysis
    /// ([`Seam::Apply`]): its controller holds the live set but no
    /// analysis of it until [`World::refresh_slot`] runs.
    pub(crate) stale: bool,
}

impl Shard {
    /// Points the shard's controller at `master`, in O(1).
    fn adopt(&mut self, master: &PlatformSet) {
        self.core
            .adopt_platforms(master.clone())
            .expect("the master platform table never shrinks");
    }

    /// Whether the shard's controller holds `master` itself, not a copy.
    pub(crate) fn holds(&self, master: &PlatformSet) -> bool {
        self.core.current_set().platforms().same_table(master)
    }
}

/// One shard slot of the service. `Busy` means an in-flight epoch has the
/// shard checked out — the lock-per-shard state, held from reserve to
/// settle.
///
/// The variant size skew is deliberate: the slot table is small (one entry
/// per island group) and keeping shards inline avoids a pointer chase on
/// every checkout.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub(crate) enum Slot {
    /// No shard lives here (reused first by allocation).
    Vacant,
    /// Shard at rest, available for checkout.
    Idle(Shard),
    /// Shard checked out by an in-flight epoch.
    Busy,
}

impl Slot {
    pub(crate) fn is_vacant(&self) -> bool {
        matches!(self, Slot::Vacant)
    }

    pub(crate) fn as_idle(&self) -> Option<&Shard> {
        match self {
            Slot::Idle(shard) => Some(shard),
            _ => None,
        }
    }
}

/// The non-routing heart of the service: handle maps, epoch accounting,
/// the master platform set and journal bookkeeping. Routing state
/// (name/platform homes, claim sets, the slot table) lives in [`Routing`]
/// behind its own lock. The core mutex is held briefly — handle resolution,
/// reserve and settle bookkeeping, journal sync arbitration — never across
/// analysis.
#[derive(Debug)]
pub(crate) struct Core {
    /// Live transaction name → stable handle.
    pub(crate) ids: HashMap<String, TxnId>,
    /// Stable handle → live transaction name.
    pub(crate) names: HashMap<TxnId, String>,
    pub(crate) next_id: u64,
    /// Last ticket fully settled (mirror of the gate's counter, updated at
    /// settle while the world is held — the value group commit trusts).
    pub(crate) settled: u64,
    pub(crate) admitted_epochs: u64,
    pub(crate) rejected_epochs: u64,
    /// Analysis counters of epoch controllers that ended with no
    /// transaction (nothing left to place) — kept so
    /// [`SchedService::stats`] stays cumulative like the single
    /// controller's.
    pub(crate) retired_stats: ControllerStats,
    /// The platform table: replaced (copy-on-write) when an admitted
    /// retune settles; every idle shard holds a handle on this very table.
    pub(crate) platforms: PlatformSet,
    pub(crate) config: AnalysisConfig,
    pub(crate) policy: AdmissionPolicy,
    pub(crate) journal: Option<JournalWriter>,
    /// Last ticket whose record is known durable (group commit).
    synced: u64,
    /// Byte length of the durable journal prefix — advanced by group
    /// commit, reset by attach/compaction. Paired with `synced`, this is
    /// the replication streamer's high-water mark: the first
    /// `durable_bytes` bytes of the journal file hold exactly the records
    /// of epochs ≤ `synced` (appends happen under the world lock, so the
    /// pair captured under the core lock is consistent).
    durable_bytes: u64,
    /// A thread is currently running `sync_data` outside the lock.
    syncing: bool,
    /// Sticky journal-sync failure: once a group-commit fsync fails, no
    /// later epoch may report durability (see [`SchedService::sync`]).
    sync_error: Option<String>,
    /// Sticky journal refusal: a refresh ([`World::refresh_slot`]) found
    /// that admitted records left a shard unanalyzable or unschedulable —
    /// a state no live engine reaches. From then on every fallible entry
    /// point returns it, and observers render it in place of any analysis.
    refusal: Option<String>,
    /// Snapshot auto-compaction thresholds (off by default).
    auto_compact: AutoCompactPolicy,
    /// Epoch the journal was last compacted at (0 = never).
    last_compact_epoch: u64,
    /// A thread is currently running an auto-compaction (guards pile-ups).
    compacting: bool,
    /// The service-wide admission telemetry sink; every controller —
    /// seeded, split, merged, or fresh for free platforms — records its
    /// cone geometry here (see [`AdmissionMetrics`]).
    pub(crate) admission_metrics: Arc<AdmissionMetrics>,
    /// Model-checking fault hook: when set, the next journal `sync_data`
    /// reports an injected I/O error instead of running, so the model
    /// suite can explore poison propagation to every group-commit waiter.
    #[cfg(hsched_model)]
    fail_next_sync: bool,
}

/// Admission-flow coordination, locked **last** in the total order so
/// reserve can consult it while holding the world. All condition
/// variables except group commit wait on this mutex alone.
#[derive(Debug)]
struct Gate {
    /// Last epoch ticket issued. Only advanced with the routing lock held
    /// as well (reserve tickets under both), so a world holder that reads
    /// `issued == settled` knows nothing can be ticketed under it.
    issued: u64,
    /// Last ticket fully settled: `settled == issued` ⟺ no epoch in
    /// flight ⟺ no `Busy` slot.
    settled: u64,
    /// Epochs waiting for the in-flight set to drain; while nonzero, new
    /// reservations hold off (fairness gate).
    writers_waiting: usize,
}

/// A granted reservation: the epoch's ticket plus everything checked out
/// at reserve time.
struct Reservation {
    ticket: u64,
    checkout: Checkout,
    /// Wall time the winning attempt spent routing (telemetry).
    route_ns: u64,
}

/// What an epoch's analyze phase does with its merged controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Seam {
    /// Commit the batch: analyze it and let the verdict decide. Every live
    /// epoch, and every record of a verified replay.
    Analyze,
    /// Apply a journal record whose verdict is admitted without analyzing
    /// it; settle places the epoch's shards stale.
    Apply,
}

/// What the analyze phase hands settle.
enum Analyzed {
    /// The epoch's one controller and its commit outcome.
    Committed(AdmissionController, EpochOutcome),
    /// A journaled admitted batch, applied without analysis.
    Applied(AdmissionController),
    /// The rejection reserve already decided.
    Rejected(RejectReason),
}

/// When the service folds its own journal into a snapshot without being
/// asked (see [`SchedService::with_auto_compact`]). Both thresholds are
/// off by default; either one firing triggers a compaction after the
/// triggering epoch's response is durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AutoCompactPolicy {
    /// Compact once this many epochs settled since the last snapshot.
    pub every_epochs: Option<u64>,
    /// Compact once the journal file exceeds this many bytes.
    pub max_journal_bytes: Option<u64>,
}

impl AutoCompactPolicy {
    /// `true` when neither threshold is set (the default: never compact
    /// automatically).
    pub fn is_off(&self) -> bool {
        self.every_epochs.is_none() && self.max_journal_bytes.is_none()
    }
}

/// What [`SchedService::replay`] found in the journal: how much history
/// was on disk, where the rebuild resumed, and how many torn-tail bytes
/// the recovery dropped. `hsched replay` prints these facts verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayStats {
    /// Complete tail records applied (excluding epochs folded into the
    /// snapshot block).
    pub tail_records: usize,
    /// Epoch of the embedded snapshot the rebuild resumed from, or `None`
    /// when the journal was never compacted (replay started from the
    /// specification seed).
    pub snapshot_epoch: Option<u64>,
    /// Valid journal bytes (header + snapshot block + complete records) —
    /// the file size after tail repair.
    pub journal_bytes: u64,
    /// Bytes of torn final record dropped by the tail repair (0 for a
    /// cleanly closed journal).
    pub repaired_bytes: u64,
}

/// What [`SchedService::snapshot`] did: the epoch the snapshot captured,
/// its state digest (also recorded in the block), and the journal size
/// after truncation.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotInfo {
    /// Epoch ticket the snapshot captured (records resume at `epoch + 1`).
    pub epoch: u64,
    /// State digest of the captured engine (replay re-verifies it).
    pub digest: String,
    /// Journal bytes after compaction (header + snapshot block).
    pub compacted_bytes: u64,
}

/// The concurrent admission service (see the module docs).
///
/// All methods take `&self`; the service is `Send + Sync` and is driven
/// from as many client threads as desired.
#[derive(Debug)]
pub struct SchedService {
    /// Home maps, claim sets and the shard slot table (rank 1).
    routing: Mutex<Routing>,
    /// Pipeline depth bound: at most this many epochs in flight. Keeps a
    /// small machine from timeslicing a pile of analyses (reserve applies
    /// backpressure instead) while still overlapping analysis with journal
    /// syncs; sized to the host's parallelism by default. Set by the
    /// builder before the service is shared, hence plain.
    max_inflight: u64,
    core: Mutex<Core>,
    gate: Mutex<Gate>,
    /// Settle-order, drain and quiesce waiters (on the gate; notified when
    /// `settled` advances).
    turn: Condvar,
    /// Reserve waiters blocked purely on the pipeline-depth bound (on the
    /// gate) — homogeneous, so each settle wakes exactly one (no
    /// thundering herd).
    capacity: Condvar,
    /// Reserve waiters blocked on a conflict (shared shard, claimed name
    /// or platform, writer fairness) — notified broadly on settle and
    /// writer exit (on the gate).
    conflict: Condvar,
    /// Group-commit waiters (on the core; notified when a journal sync
    /// completes).
    synced_cv: Condvar,
    /// Always-on engine telemetry (phase timers, contention counters,
    /// journal stats). Recording is relaxed-atomic; snapshotting never
    /// touches a lock.
    metrics: Arc<EngineMetrics>,
    /// The shared admission-layer sink (same `Arc` as
    /// [`Core::admission_metrics`], duplicated here so
    /// [`SchedService::metrics`] reads it without locking the core).
    admission_metrics: Arc<AdmissionMetrics>,
    /// The shared analysis-layer sink (every shard's `AnalysisConfig`
    /// carries it).
    analysis_metrics: Arc<AnalysisMetrics>,
}

/// Compile-time audit: the whole service must be shareable across client
/// threads (and each checked-out shard movable into one).
const _: () = {
    const fn assert_sync<T: Send + Sync>() {}
    assert_sync::<SchedService>();
};

/// Exclusive view over every piece of service state: the routing state
/// (slot table included) and the core. Reserve, settle, observation and
/// rebuild all run through one of these — with the world held no sibling
/// can route, ticket or settle, so the view is a consistent cut.
pub(crate) struct World<'a> {
    pub(crate) routing: MutexGuard<'a, Routing>,
    pub(crate) core: MutexGuard<'a, Core>,
    metrics: &'a EngineMetrics,
}

impl SchedService {
    /// Builds a service over an already-flattened transaction set: one full
    /// seed analysis (per island, via a temporary single controller), then
    /// the live set is split into island shards and every seeded
    /// transaction gets a stable [`TxnId`] in set order.
    ///
    /// Transaction names must be unique — they are the name-addressed half
    /// of the service API.
    pub fn new(
        set: TransactionSet,
        config: AnalysisConfig,
        policy: AdmissionPolicy,
    ) -> Result<SchedService, EngineError> {
        let mut seen = HashSet::new();
        for tx in set.transactions() {
            if !seen.insert(tx.name.as_str()) {
                return Err(EngineError::Seed(format!(
                    "duplicate transaction name `{}`",
                    tx.name
                )));
            }
        }
        let platforms = set.platforms().clone();
        // One sink per layer for the whole service: the analysis sink rides
        // inside the config (cloned into every island analysis), the
        // admission sink is pushed into every shard controller. Equality
        // checks ignore both, so shard merge/split semantics are unchanged.
        let analysis_metrics = Arc::new(AnalysisMetrics::default());
        let admission_metrics = Arc::new(AdmissionMetrics::new());
        let mut config = config;
        config.metrics = Some(analysis_metrics.clone());
        let mut seed = AdmissionController::new(set, config.clone(), policy.clone())
            .map_err(EngineError::Seed)?;
        seed.set_metrics_sink(admission_metrics.clone());

        let core = Core {
            ids: HashMap::new(),
            names: HashMap::new(),
            next_id: 0,
            settled: 0,
            admitted_epochs: 0,
            rejected_epochs: 0,
            retired_stats: ControllerStats::default(),
            platforms,
            config,
            policy,
            journal: None,
            synced: 0,
            durable_bytes: 0,
            syncing: false,
            sync_error: None,
            refusal: None,
            auto_compact: AutoCompactPolicy::default(),
            last_compact_epoch: 0,
            compacting: false,
            admission_metrics: admission_metrics.clone(),
            #[cfg(hsched_model)]
            fail_next_sync: false,
        };
        let service = SchedService {
            routing: routing_lock(Routing::default()),
            max_inflight: default_max_inflight(),
            core: core_lock(core),
            gate: gate_lock(Gate {
                issued: 0,
                settled: 0,
                writers_waiting: 0,
            }),
            turn: condvar("turn"),
            capacity: condvar("capacity"),
            conflict: condvar("conflict"),
            synced_cv: condvar("synced_cv"),
            metrics: Arc::new(EngineMetrics::new()),
            admission_metrics,
            analysis_metrics,
        };
        {
            let mut world = service.world();
            for tx in seed.current_set().transactions() {
                world.core.mint_id(&tx.name);
                let p = tx.tasks()[0].platform.0;
                world.routing.txn_home.insert(tx.name.clone(), p);
            }
            // Seeding is an epoch over no slots: every island is fresh.
            let islands = world.homed_islands(seed);
            world.place(&[], islands, |_| false);
        }
        Ok(service)
    }

    /// Overrides the pipeline-depth bound: at most `depth` epochs in
    /// flight (reserve applies backpressure beyond it). Defaults to the
    /// host's available parallelism; raise it to exercise deeper
    /// interleavings (tests) or when clients block on external work.
    pub fn with_max_inflight(mut self, depth: u64) -> SchedService {
        self.max_inflight = depth.max(1);
        self
    }

    /// Attaches a fresh write-ahead journal at `path` (truncating any
    /// existing file). Every subsequent epoch — admitted or rejected — is
    /// on disk before its [`SchedService::submit`] response is returned
    /// (pipelined [`SchedService::submit_async`] epochs become durable at
    /// the next [`SchedService::sync`]).
    pub fn with_journal(self, path: &Path) -> Result<SchedService, EngineError> {
        {
            let mut core = self.lock_core();
            let journal = JournalWriter::create(path, core.platforms.len())?;
            core.durable_bytes = journal.bytes_written();
            core.journal = Some(journal);
            core.synced = core.settled;
        }
        Ok(self)
    }

    /// Arms snapshot auto-compaction: after any epoch that crosses a
    /// threshold (epochs settled since the last snapshot, or journal
    /// bytes), the service folds its journal into a snapshot block exactly
    /// as [`SchedService::snapshot`] would — off the response path, after
    /// the triggering epoch's record is durable, and never concurrently
    /// with itself. Compaction is best-effort housekeeping: a failed
    /// attempt leaves the journal intact (the rewrite is atomic) and the
    /// next threshold crossing retries. No effect without an attached
    /// journal.
    pub fn with_auto_compact(self, policy: AutoCompactPolicy) -> SchedService {
        {
            let mut core = self.lock_core();
            core.auto_compact = policy;
            core.last_compact_epoch = core.settled;
        }
        self
    }

    /// Rebuilds a service after a restart: seeds from the journal's
    /// snapshot if it was compacted (verifying the recorded state digest),
    /// else from `set` (the same specification the crashed engine started
    /// from); then applies every complete tail record — streamed, O(1)
    /// memory — through [`SchedService::apply_journal_record`], analyzes
    /// what the records changed ([`SchedService::refresh`]), repairs any
    /// torn journal tail, and re-attaches the journal in append mode.
    /// Returns the service plus the journal facts the recovery established
    /// ([`ReplayStats`]: tail records replayed, snapshot resume point,
    /// valid and repaired byte counts).
    ///
    /// The rebuilt engine is byte-identical to the crashed one as of its
    /// last complete record: same epoch ticket, same live set and system
    /// mirror, same cached report, same [`TxnId`] assignments — the
    /// property suites assert this across random crash points, with and
    /// without compaction.
    ///
    /// What is checked: each record's epoch number, that every record
    /// marked admitted routes and applies, and that it leaves every shard
    /// it touched passing the numeric precheck and schedulable
    /// ([`SchedService::refresh`]). Each touched island is analyzed once,
    /// at the end, not once per record; rejected records
    /// are not re-run at all. That a record marked *rejected* would really
    /// have been rejected is what only [`SchedService::replay_verified`]
    /// checks.
    pub fn replay(
        set: TransactionSet,
        config: AnalysisConfig,
        policy: AdmissionPolicy,
        path: &Path,
    ) -> Result<(SchedService, ReplayStats), EngineError> {
        Self::replay_inner(set, config, policy, path, true, Seam::Apply)
    }

    /// [`SchedService::replay`] for a **warm standby**: rebuilds the same
    /// byte-identical state, with the same checks, but does *not* repair or
    /// re-attach the journal — the file stays read-only and untouched. A
    /// replication follower uses this to seed its standby from the locally
    /// mirrored journal while a separate thread keeps appending raw
    /// streamed bytes to the same file; attaching a writer here would
    /// double-write every record the standby later applies through
    /// [`SchedService::apply_journal_record`].
    pub fn replay_standby(
        set: TransactionSet,
        config: AnalysisConfig,
        policy: AdmissionPolicy,
        path: &Path,
    ) -> Result<(SchedService, ReplayStats), EngineError> {
        Self::replay_inner(set, config, policy, path, false, Seam::Apply)
    }

    /// [`SchedService::replay`] as an audit (`hsched replay --verify`):
    /// every record is committed and analyzed as the live engine did, and
    /// its verdict is cross-checked against the recorded one. The same
    /// applier with the analysis switched on, at the cost of re-running
    /// every epoch's fixpoint — rejected ones included. It is the only
    /// replay that notices a record marked rejected whose batch admits.
    pub fn replay_verified(
        set: TransactionSet,
        config: AnalysisConfig,
        policy: AdmissionPolicy,
        path: &Path,
    ) -> Result<(SchedService, ReplayStats), EngineError> {
        Self::replay_inner(set, config, policy, path, true, Seam::Analyze)
    }

    fn replay_inner(
        set: TransactionSet,
        config: AnalysisConfig,
        policy: AdmissionPolicy,
        path: &Path,
        attach: bool,
        seam: Seam,
    ) -> Result<(SchedService, ReplayStats), EngineError> {
        let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let mut stream = JournalStream::open(path)?;
        if stream.platforms() != set.platforms().len() {
            return Err(EngineError::Replay(format!(
                "journal was recorded against {} platforms, spec has {}",
                stream.platforms(),
                set.platforms().len()
            )));
        }
        let snapshot = stream.take_snapshot();
        let snapshot_epoch = snapshot.as_ref().map(|s| s.epoch);
        let service = match snapshot {
            Some(snap) => snapshot::rebuild(&set, snap, config, policy)?,
            None => SchedService::new(set, config, policy)?,
        };
        let mut replayed = 0usize;
        for record in &mut stream {
            service.apply_record(&record?, seam)?;
            replayed += 1;
        }
        service.refresh()?;
        let valid = stream.valid_prefix();
        service
            .metrics
            .replay_repaired_bytes
            .add(file_bytes.saturating_sub(valid));
        if attach {
            let mut core = service.lock_core();
            let journal = JournalWriter::recover(path, valid)?;
            core.durable_bytes = journal.bytes_written();
            core.journal = Some(journal);
            core.synced = core.settled;
        }
        Ok((
            service,
            ReplayStats {
                tail_records: replayed,
                snapshot_epoch,
                journal_bytes: valid,
                repaired_bytes: file_bytes.saturating_sub(valid),
            },
        ))
    }

    /// Applies one journal record to this engine as the next epoch, exactly
    /// as replay does: a record marked rejected only advances the epoch
    /// counters (every rejection leaves shard topology as it was); one
    /// marked admitted has its batch applied without analysis, and the
    /// shards it touched are analyzed — and must be schedulable — when the
    /// state is next read ([`SchedService::refresh`]). Divergence — a wrong
    /// epoch number, an admitted batch that does not apply or that reserve
    /// would reject — is an [`EngineError::Replay`] that changes nothing,
    /// the loud refusal a replication follower owes its operator. With no
    /// journal attached (the standby configuration) the record is applied
    /// in memory only.
    /// Once a refresh has refused the journal, every later record is
    /// refused with that refusal.
    pub fn apply_journal_record(&self, record: &JournalEpoch) -> Result<(), EngineError> {
        self.apply_record(record, Seam::Apply)
    }

    /// Analyzes every shard that journal records left stale, now rather
    /// than at the next observation that needs it. Refuses with
    /// [`EngineError::Replay`] a journal whose admitted records left a
    /// shard unschedulable or unanalyzable — admitted means every shard it
    /// touched is schedulable, and this is where structural replay checks
    /// it. Replay calls it at its end; a standby before it compares a
    /// heartbeat digest, and before promotion. A no-op on an engine no
    /// record was applied to.
    ///
    /// The refusal is sticky: from then on this, [`SchedService::submit`],
    /// [`SchedService::snapshot`] and [`SchedService::apply_journal_record`]
    /// return it, [`SchedService::schedulable`] is `false`, and
    /// [`SchedService::report`] and [`SchedService::state_digest`] render
    /// the refusal instead of an analysis.
    pub fn refresh(&self) -> Result<(), EngineError> {
        self.quiescent_world().refresh()
    }

    /// The streaming applier behind [`SchedService::replay`],
    /// [`SchedService::replay_standby`], [`SchedService::replay_verified`]
    /// and [`SchedService::apply_journal_record`]: settles one record as
    /// the next epoch through the live engine's route → checkout → merge →
    /// settle path, with `seam` at the analyze step. It runs on a quiescent
    /// world and tickets the epoch itself, so a refusal leaves nothing
    /// behind.
    fn apply_record(&self, record: &JournalEpoch, seam: Seam) -> Result<(), EngineError> {
        let mut world = self.quiescent_world();
        world.core.refused()?;
        let ticket = world.core.settled + 1;
        if record.epoch != ticket {
            return Err(EngineError::Replay(format!(
                "epoch numbering diverged: journal {}, engine {ticket}",
                record.epoch
            )));
        }
        let response = if seam == Seam::Apply && !record.admitted {
            // A rolled-back commit puts every island back in its own slot,
            // and a reserve rejection checks nothing out: a rejection
            // changes nothing but the counters.
            world.record(ticket, &record.batch, false)?;
            world.core.settled = ticket;
            None
        } else {
            let (footprint, analyzed) = world.take_record(record, seam)?;
            Some(world.settle(ticket, &record.batch, &footprint, analyzed))
        };
        {
            let mut gate = self.lock_gate();
            gate.issued = ticket;
            gate.settled = ticket;
        }
        drop(world);
        self.notify_settled();
        let Some(response) = response else {
            return Ok(());
        };
        let verdict = response?.outcome.verdict;
        if verdict.admitted() != record.admitted {
            return Err(EngineError::Replay(format!(
                "epoch {ticket}: journal records {}, replay produced {verdict}",
                if record.admitted {
                    "admitted"
                } else {
                    "rejected"
                },
            )));
        }
        Ok(())
    }

    /// Submits one versioned request batch as an atomic epoch and returns
    /// once its journal record is durable. Safe to call from any number of
    /// threads concurrently; epochs on disjoint islands commit in
    /// parallel, conflicting ones serialize in ticket order. Equivalent to
    /// [`SchedService::submit_async`] followed by a
    /// [`SchedService::sync`] at the epoch's own ticket.
    ///
    /// Rejections are *responses* (the verdict rides in the outcome);
    /// [`EngineError`]s are caller or environment failures that consume no
    /// epoch (bad version, unknown handle) or leave the engine unusable
    /// (journal I/O, a journal [`SchedService::refresh`] refused).
    pub fn submit(&self, request: &EngineRequest) -> Result<EngineResponse, EngineError> {
        let ticket = self.submit_async(request)?;
        self.sync(ticket.epoch)?;
        Ok(ticket.response)
    }

    /// Pipelined submission: commits the batch as an atomic epoch and
    /// returns as soon as it *settles* — the record is written to the
    /// journal in ticket order but **not yet fsynced**. Batching clients
    /// submit a run of epochs and then call [`SchedService::sync`] once at
    /// their high-water ticket, amortizing one `sync_data` over the whole
    /// run (group commit); `submit_async` itself never blocks on the disk.
    ///
    /// Crash semantics: an unsynced epoch may be lost on power failure —
    /// the journal's torn-tail repair drops any incomplete final record
    /// and replay stops at the last complete one. Epochs at or below a
    /// ticket a successful `sync` covered are never lost.
    pub fn submit_async(&self, request: &EngineRequest) -> Result<EpochTicket, EngineError> {
        if request.version != SCHEMA_VERSION {
            return Err(EngineError::UnsupportedVersion {
                found: request.version,
                supported: SCHEMA_VERSION,
            });
        }
        let mut batch = Vec::with_capacity(request.ops.len());
        {
            let core = self.lock_core();
            core.refused()?;
            for op in &request.ops {
                match op {
                    EngineOp::Admission(r) => batch.push(r.clone()),
                    EngineOp::Remove(id) => {
                        let name = core
                            .names
                            .get(id)
                            .ok_or(EngineError::UnknownTxn(*id))?
                            .clone();
                        batch.push(AdmissionRequest::RemoveTransaction { name });
                    }
                }
            }
        }
        let response = self.commit_named_async(batch)?;
        Ok(EpochTicket {
            epoch: response.epoch,
            response,
        })
    }

    /// Group-committed durability watermark: blocks until every epoch with
    /// ticket ≤ `watermark` (clamped to the last settled ticket) has its
    /// journal record on disk, and returns the ticket actually covered —
    /// at least the clamped watermark, often higher, since one `sync_data`
    /// covers every record written before it started. With no journal
    /// attached this is a no-op reporting the clamped watermark.
    ///
    /// A failed sync poisons the journal permanently: the durable
    /// watermark never advances past the failure, and *every* waiter — not
    /// just the thread that ran the syscall — gets the error instead of a
    /// result claiming durability.
    ///
    /// A successful sync is where auto-compaction fires (see
    /// [`SchedService::with_auto_compact`]), so pipelined clients that only
    /// ever `submit_async` and `sync` compact as lock-step ones do.
    pub fn sync(&self, watermark: u64) -> Result<u64, EngineError> {
        let covered = self.sync_journal(watermark)?;
        self.maybe_auto_compact();
        Ok(covered)
    }

    /// The group commit behind [`SchedService::sync`].
    fn sync_journal(&self, watermark: u64) -> Result<u64, EngineError> {
        let mut core = self.lock_core();
        loop {
            let target = watermark.min(core.settled);
            if core.journal.is_none() {
                return Ok(target);
            }
            if core.synced >= target {
                return Ok(core.synced);
            }
            if let Some(message) = &core.sync_error {
                return Err(EngineError::Journal(message.clone()));
            }
            if core.syncing {
                core = self.synced_cv.wait(core).expect("service core poisoned");
                continue;
            }
            core.syncing = true;
            // Every record with ticket ≤ settled is already written, so
            // this sync covers them all. The byte count is captured under
            // the same lock: appends happen while the world (hence the
            // core) is held, so `bytes_written` here covers exactly the
            // records of epochs ≤ `upto` — the consistent pair a
            // replication subscriber is promised.
            let upto = core.settled;
            let covered = upto.saturating_sub(core.synced);
            let journal = core.journal.as_ref().expect("checked above");
            let file = journal.sync_handle();
            let durable_bytes = journal.bytes_written();
            let subscribers = journal.subscribers();
            #[cfg(hsched_model)]
            let inject = std::mem::take(&mut core.fail_next_sync);
            drop(core);
            let fsync_started = Instant::now();
            #[cfg(hsched_model)]
            let outcome = if inject {
                Err(std::io::Error::other("injected sync failure"))
            } else {
                file.sync_data()
            };
            #[cfg(not(hsched_model))]
            let outcome = if crate::sync::fault(hsched_faults::Site::JournalFsync) {
                Err(hsched_faults::injected_io_error("journal fsync"))
            } else {
                file.sync_data()
            };
            self.metrics.fsync_ns.record(elapsed_ns(fsync_started));
            core = self.lock_core();
            core.syncing = false;
            match outcome {
                Ok(()) => {
                    core.synced = core.synced.max(upto);
                    core.durable_bytes = core.durable_bytes.max(durable_bytes);
                    self.metrics.sync_batch_epochs.record(covered);
                    self.synced_cv.notify_all();
                    if !subscribers.is_empty() {
                        // Callbacks run outside every engine lock; the
                        // `syncing` flag serialized the fsyncs, so marks
                        // are delivered in watermark order per sync (a
                        // subscriber may still observe an already-seen
                        // mark when a racing `sync` lost the flag — the
                        // contract says tolerate that).
                        drop(core);
                        let mark = DurableMark {
                            bytes: durable_bytes,
                            epoch: upto,
                        };
                        for subscriber in &subscribers {
                            subscriber(mark);
                        }
                        core = self.lock_core();
                    }
                }
                Err(e) => {
                    let message = format!("journal sync failed: {e}");
                    core.sync_error = Some(message.clone());
                    self.synced_cv.notify_all();
                    return Err(EngineError::Journal(message));
                }
            }
        }
    }

    /// Arms the model-checking fault hook: the next journal sync reports
    /// an injected I/O error instead of touching the file, poisoning the
    /// journal exactly like a real `fsync` failure.
    #[cfg(hsched_model)]
    pub fn fail_next_sync(&self) {
        self.lock_core().fail_next_sync = true;
    }

    /// The last epoch ticket known durable on disk (0 before any sync; the
    /// settled ticket itself when no journal is attached — nothing to
    /// lose).
    pub fn durable_epoch(&self) -> u64 {
        let core = self.lock_core();
        if core.journal.is_none() {
            core.settled
        } else {
            core.synced
        }
    }

    /// Epoch tickets issued but not yet durable (not yet settled when no
    /// journal is attached): the server's admission-backpressure signal. A
    /// front end sheds new submissions once this backlog crosses its
    /// configured cap instead of letting every connection block on the
    /// same fsync queue.
    pub fn pending_epochs(&self) -> u64 {
        let core = self.lock_core();
        let floor = if core.journal.is_none() {
            core.settled
        } else {
            core.synced
        };
        self.lock_gate().issued.saturating_sub(floor)
    }

    /// Records one shed (load-rejected) submission in the engine metrics
    /// (`engine.shed.rejected`). Called by front ends that turn work away
    /// at admission time; the engine itself never sheds.
    pub fn note_shed(&self) {
        self.metrics.shed_rejected.incr();
    }

    /// Runs one epoch through reserve → analyze → settle. The record is
    /// journaled (in ticket order) but not fsynced.
    fn commit_named_async(
        &self,
        batch: Vec<AdmissionRequest>,
    ) -> Result<EngineResponse, EngineError> {
        // Phase 1: reserve (wait out conflicts; writers drain in-flight).
        let reserve_started = Instant::now();
        let Reservation {
            ticket,
            checkout,
            route_ns,
        } = self.reserve(&batch)?;
        let reserve_total_ns = elapsed_ns(reserve_started);
        let checkout_ns = checkout.checkout_ns;

        // Phase 2: analyze — no lock held; overlaps across client threads.
        let analyze_started = Instant::now();
        let analyzed = commit_merged(checkout.cores, &batch);
        let analyze_ns = elapsed_ns(analyze_started);

        // Phase 3: settle strictly in ticket order — the linearization
        // point, and the journal's serialization order.
        let settle_started = Instant::now();
        let mut response = self.settle_epoch(ticket, &batch, &checkout.footprint, analyzed)?;

        // Attribute the epoch's wall time: route/checkout slices were
        // measured inside the winning reservation attempt, so the
        // remainder (lock and gate waits, retried attempts) is the reserve
        // slice and the five phases are disjoint.
        let timings = EpochTimings {
            reserve_ns: reserve_total_ns.saturating_sub(route_ns.saturating_add(checkout_ns)),
            route_ns,
            checkout_ns,
            analyze_ns,
            settle_ns: elapsed_ns(settle_started),
        };
        response.timings = timings;
        let m = &self.metrics;
        m.epochs_settled.incr();
        m.reserve_ns.record(timings.reserve_ns);
        m.route_ns.record(timings.route_ns);
        m.checkout_ns.record(timings.checkout_ns);
        m.analyze_ns.record(timings.analyze_ns);
        m.settle_ns.record(timings.settle_ns);
        Ok(response)
    }

    /// Phase 1, the one front door. Each attempt takes the world, routes
    /// against the exact state — claims *and* `Busy` slots — and then,
    /// under the gate, either parks or checks the shards out and tickets.
    /// The routing lock is held from the routing decision to the ticket,
    /// so the decisions are made against exactly the settled prefix the
    /// ticket position implies.
    ///
    /// An epoch that must find the pipeline drained (module docs:
    /// "Conflicts and drains") registers as a writer, which gates new
    /// reservations off; the mark is dropped, and sleepers woken, on every
    /// exit, success or error.
    fn reserve(&self, batch: &[AdmissionRequest]) -> Result<Reservation, EngineError> {
        let mut writer = false;
        let result = loop {
            if let Some(result) = self.reserve_attempt(batch, &mut writer).transpose() {
                break result;
            }
        };
        if writer {
            self.lock_gate().writers_waiting -= 1;
            self.conflict.notify_all();
        }
        result
    }

    /// One reservation attempt: `Ok(Some(_))` with the ticket issued, or
    /// `Ok(None)` after parking — the world has moved on, route again.
    ///
    /// Parking cannot miss its wakeup: the gate is taken while the world is
    /// still held and kept until the wait releases it, and everything that
    /// could unblock the attempt (a settle, a writer leaving) changes the
    /// gate before it notifies.
    fn reserve_attempt(
        &self,
        batch: &[AdmissionRequest],
        writer: &mut bool,
    ) -> Result<Option<Reservation>, EngineError> {
        let mut world = self.world();
        let route_started = Instant::now();
        let outcome = route(&world, batch);
        let route_ns = elapsed_ns(route_started);
        let drain = *writer
            || batch.iter().any(|r| {
                matches!(
                    r,
                    AdmissionRequest::AddInstance { .. } | AdmissionRequest::RemoveInstance { .. }
                )
            });

        let mut gate = self.lock_gate();
        let inflight = gate.issued - gate.settled;
        if drain && inflight > 0 {
            if !*writer {
                gate.writers_waiting += 1;
                *writer = true;
            }
            drop(world);
            while gate.issued != gate.settled {
                gate = self.turn.wait(gate).expect("gate poisoned");
            }
            return Ok(None);
        }
        let conflict = (matches!(outcome, RouteOutcome::Blocked) && inflight > 0)
            || (!*writer && gate.writers_waiting > 0);
        if conflict || inflight >= self.max_inflight {
            drop(world);
            self.metrics.fast_conflicts.incr();
            let parked = if conflict {
                // Pass the capacity baton: this thread may have consumed a
                // capacity wakeup it could not use.
                self.capacity.notify_one();
                self.conflict.wait(gate)
            } else {
                self.capacity.wait(gate)
            };
            drop(parked.expect("gate poisoned"));
            return Ok(None);
        }

        let checkout = world.check_out(outcome, Seam::Analyze)?;
        gate.issued += 1;
        if drain {
            self.metrics.exclusive_drains.incr();
        } else {
            self.metrics.fast_reservations.incr();
        }
        Ok(Some(Reservation {
            ticket: gate.issued,
            checkout,
            route_ns,
        }))
    }

    /// Phase 3: waits for this ticket's turn, locks the world, settles the
    /// epoch ([`World::settle`]), and publishes the new settled ticket.
    fn settle_epoch(
        &self,
        ticket: u64,
        batch: &[AdmissionRequest],
        footprint: &Footprint,
        analyzed: Analyzed,
    ) -> Result<EngineResponse, EngineError> {
        {
            let mut gate = self.lock_gate();
            while gate.settled + 1 != ticket {
                gate = self.turn.wait(gate).expect("gate poisoned");
            }
        }
        // This thread is now the unique settler; in-flight siblings are
        // analyzing (holding only their checked-out shards) or queued
        // behind us on the turn, so the world acquisition only ever waits
        // on reservation attempts — which never sleep holding the world.
        let mut world = self.world();
        let result = world.settle(ticket, batch, footprint, analyzed);
        drop(world);
        self.lock_gate().settled = ticket;
        self.notify_settled();
        result
    }

    /// Wakes everything a settled ticket may unblock.
    fn notify_settled(&self) {
        self.turn.notify_all();
        self.capacity.notify_one();
        self.conflict.notify_all();
    }

    /// Fires a snapshot compaction when the configured auto-compaction
    /// threshold is crossed (see [`SchedService::with_auto_compact`]).
    /// Runs after the triggering epoch's response is durable; the
    /// `compacting` flag keeps concurrent settles from piling snapshots
    /// up, and the last-compaction epoch advances even on a failed attempt
    /// so an unwritable journal does not turn every epoch into a retry.
    fn maybe_auto_compact(&self) {
        {
            let mut core = self.lock_core();
            if core.compacting || core.auto_compact.is_off() {
                return;
            }
            let Some(journal) = &core.journal else {
                return;
            };
            let due_epochs = core.auto_compact.every_epochs.is_some_and(|n| {
                n > 0 && core.settled.saturating_sub(core.last_compact_epoch) >= n
            });
            let due_bytes = core
                .auto_compact
                .max_journal_bytes
                .is_some_and(|b| journal.bytes_written() >= b);
            if !due_epochs && !due_bytes {
                return;
            }
            core.compacting = true;
        }
        let _ = self.snapshot();
        let mut core = self.lock_core();
        core.compacting = false;
        core.last_compact_epoch = core.settled;
    }

    fn lock_core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().expect("service core poisoned")
    }

    fn lock_gate(&self) -> MutexGuard<'_, Gate> {
        self.gate.lock().expect("gate poisoned")
    }

    /// Acquires the exclusive world view, in lock order: routing, core.
    fn world(&self) -> World<'_> {
        let routing = self.routing.lock().expect("routing state poisoned");
        let core = self.lock_core();
        World {
            routing,
            core,
            metrics: &self.metrics,
        }
    }

    /// Locks the service *quiescent*: waits until no epoch is in flight
    /// (so every slot is `Vacant` or `Idle`), then takes the world,
    /// re-verifying nothing ticketed in the window between the drain
    /// observation and the world acquisition.
    fn quiescent_world(&self) -> World<'_> {
        loop {
            {
                let mut gate = self.lock_gate();
                while gate.issued != gate.settled {
                    gate = self.turn.wait(gate).expect("gate poisoned");
                }
            }
            let world = self.world();
            let drained = {
                let gate = self.lock_gate();
                gate.issued == gate.settled
            };
            if drained {
                return world;
            }
            drop(world);
        }
    }

    /// [`SchedService::quiescent_world`] with every stale shard analyzed —
    /// the view of observers that read analysis results, so no stale
    /// outcome ever reaches them. A refusal needs no handling here: it is
    /// sticky ([`Core::refusal`]), and the world renders it in place of any
    /// analysis ([`World::report`], [`World::state_digest`]).
    fn analyzed_world(&self) -> World<'_> {
        let mut world = self.quiescent_world();
        let _ = world.refresh();
        world
    }

    /// World access for the snapshot rebuild path (single-threaded by
    /// construction — the service was just seeded).
    pub(crate) fn rebuild_world(&self) -> World<'_> {
        self.world()
    }

    /// Fast-forwards the epoch counters after a snapshot rebuild (the
    /// world's own `settled` mirror is set by the rebuild itself). Only
    /// sound while no epoch is in flight.
    pub(crate) fn force_epoch(&self, epoch: u64) {
        let mut gate = self.lock_gate();
        gate.issued = epoch;
        gate.settled = epoch;
    }

    // ------------------------------------------------------------------
    // Observation (each waits for in-flight epochs to settle, so the view
    // is a consistent cut at a ticket boundary)
    // ------------------------------------------------------------------

    /// Epoch tickets settled (admitted + rejected).
    pub fn epoch(&self) -> u64 {
        self.quiescent_world().core.settled
    }

    /// Live island-group shards.
    pub fn shard_count(&self) -> usize {
        self.quiescent_world().shard_count()
    }

    /// Live transactions across all shards.
    pub fn live_transactions(&self) -> usize {
        self.quiescent_world().live_transactions()
    }

    /// `true` when every shard's live set meets its deadlines — never on
    /// an engine that refused its journal ([`SchedService::refresh`]).
    pub fn schedulable(&self) -> bool {
        let world = self.analyzed_world();
        let mut shards = world.idle_shards();
        world.core.refusal.is_none() && shards.all(|s| s.core.schedulable())
    }

    /// Test hook: every idle shard holds the master platform table itself.
    #[doc(hidden)]
    pub fn idle_shards_hold_master(&self) -> bool {
        self.quiescent_world().idle_shards_hold_master()
    }

    /// The stable handle of a live transaction.
    pub fn resolve(&self, name: &str) -> Option<TxnId> {
        self.quiescent_world().core.ids.get(name).copied()
    }

    /// The live transaction behind a handle.
    pub fn name_of(&self, id: TxnId) -> Option<String> {
        self.quiescent_world().core.names.get(&id).cloned()
    }

    /// Assembles the live transaction set across shards (slot order —
    /// deterministic, and reproduced exactly by a journal replay).
    pub fn current_set(&self) -> TransactionSet {
        self.quiescent_world().current_set()
    }

    /// Assembles the component-system mirror across shards.
    pub fn system(&self) -> System {
        self.quiescent_world().system()
    }

    /// Assembles the cached per-transaction results into a global report
    /// (index-aligned with [`SchedService::current_set`]). Exact for the
    /// same reason sharding is: the cache is island-local. An engine that
    /// refused its journal ([`SchedService::refresh`]) has no analysis to
    /// report: its report is empty and not converged.
    pub fn report(&self) -> SchedulabilityReport {
        self.analyzed_world().report()
    }

    /// Service-level stats in the controller's shape: epoch counters are
    /// the service's, analysis counters sum over the shards.
    pub fn stats(&self) -> ControllerStats {
        let world = self.quiescent_world();
        let mut stats = ControllerStats {
            epochs: world.core.settled,
            admitted: world.core.admitted_epochs,
            rejected: world.core.rejected_epochs,
            transactions_analyzed: world.core.retired_stats.transactions_analyzed,
            analyses_avoided: world.core.retired_stats.analyses_avoided,
            warm_epochs: world.core.retired_stats.warm_epochs,
        };
        for shard in world.idle_shards() {
            let s = shard.core.stats();
            stats.transactions_analyzed += s.transactions_analyzed;
            stats.analyses_avoided += s.analyses_avoided;
            stats.warm_epochs += s.warm_epochs;
        }
        stats
    }

    /// Point-in-time telemetry snapshot across all three layers — engine
    /// phase timers and contention counters (`engine.*`), admission cone
    /// geometry (`admission.*`), and analysis cache/fixpoint statistics
    /// (`analysis.*`) — merged into one [`MetricsSnapshot`].
    ///
    /// Unlike the observers above this **never stalls the pipeline**: the
    /// three sinks are always-on relaxed atomics shared by every shard,
    /// so the read takes no lock and waits for nothing. The trade-off is
    /// per-cell (not cross-cell) consistency — an in-flight epoch may
    /// have some of its recordings in the snapshot and others not.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.merge(&self.admission_metrics.snapshot());
        snap.merge(&self.analysis_metrics.snapshot());
        snap
    }

    /// FNV-1a digest of the canonical engine state (epoch ticket, live
    /// set, system mirror, cached report, handle table). Two engines with
    /// equal digests are byte-identical in every observable; `hsched admit
    /// --journal`, `hsched replay` and `hsched compact` all print it so a
    /// recovery can be verified with a string compare. An engine that
    /// refused its journal ([`SchedService::refresh`]) digests the refusal
    /// in place of the report, which no live engine's digest matches.
    pub fn state_digest(&self) -> String {
        self.analyzed_world().state_digest()
    }

    /// The settled epoch and its state digest as one consistent pair
    /// (both read under a single quiescent world, so the digest is
    /// guaranteed to describe exactly that epoch — two separate
    /// [`SchedService::epoch`] / [`SchedService::state_digest`] calls can
    /// straddle a commit). Like every observer this drains the pipeline;
    /// a replication primary emits these as low-rate heartbeats, not per
    /// epoch.
    pub fn epoch_digest(&self) -> (u64, String) {
        let world = self.analyzed_world();
        (world.core.settled, world.state_digest())
    }

    /// The durable journal high-water mark as a consistent
    /// `(bytes, epoch)` pair: the journal's first `bytes` bytes hold
    /// exactly the records of epochs ≤ `epoch` and are known to be on
    /// disk. `None` without an attached journal. Lock-only (no drain) —
    /// safe at any rate.
    pub fn durable_journal(&self) -> Option<(u64, u64)> {
        let core = self.lock_core();
        core.journal.as_ref()?;
        Some((core.durable_bytes, core.synced))
    }

    /// Registers a durable-append subscriber on the attached journal (see
    /// [`crate::JournalWriter::subscribe`] for the callback contract).
    /// Registrations survive compaction. Errors without a journal.
    pub fn subscribe_durable(&self, subscriber: JournalSubscriber) -> Result<(), EngineError> {
        let mut core = self.lock_core();
        match core.journal.as_mut() {
            Some(journal) => {
                journal.subscribe(subscriber);
                Ok(())
            }
            None => Err(EngineError::Journal(
                "durable subscription requires an attached journal".to_string(),
            )),
        }
    }

    /// Serializes the live state into the journal as a snapshot block and
    /// truncates every record before it (journal compaction): the journal
    /// becomes `header + snapshot`, written atomically beside the old file
    /// and renamed over it, and subsequent epochs append after the block.
    /// [`SchedService::replay`] then resumes from snapshot + tail instead
    /// of re-running the whole history. The wire format of the block is
    /// specified in `docs/JOURNAL_FORMAT.md`.
    ///
    /// Errors when no journal is attached, and refuses (like
    /// [`SchedService::refresh`]) to capture a state its journal records
    /// claimed schedulable but is not.
    pub fn snapshot(&self) -> Result<SnapshotInfo, EngineError> {
        let mut world = self.quiescent_world();
        world.refresh()?;
        let Some(journal) = &world.core.journal else {
            return Err(EngineError::Journal(
                "snapshot requires an attached journal".to_string(),
            ));
        };
        let path = journal.path().to_path_buf();
        let digest = world.state_digest();
        let snap = world.capture_snapshot(&digest);
        let block = snap.encode_block();
        let mut writer =
            JournalWriter::rewrite_with_snapshot(&path, world.core.platforms.len(), &block)?;
        let compacted_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let core = &mut *world.core;
        // Compaction replaces the writer wholesale; durable-append
        // registrations survive, and subscribers are told the prefix
        // *shrank* (a streamer that shipped past the new mark must reset
        // its followers — the file's content changed under its offsets).
        let subscribers = core
            .journal
            .as_ref()
            .map(|j| j.subscribers())
            .unwrap_or_default();
        writer.adopt_subscribers(subscribers.clone());
        core.durable_bytes = writer.bytes_written();
        core.journal = Some(writer);
        core.synced = core.settled;
        core.last_compact_epoch = core.settled;
        self.metrics.compactions.incr();
        let info = SnapshotInfo {
            epoch: core.settled,
            digest,
            compacted_bytes,
        };
        // From here on the journal replays from the snapshot, whose rebuild
        // seeds a dense slot table: drop the vacancies here too, or the next
        // slot allocated lands in a different place on the two sides.
        world.renumber_slots();
        drop(world);
        if !subscribers.is_empty() {
            let mark = DurableMark {
                bytes: info.compacted_bytes,
                epoch: info.epoch,
            };
            for subscriber in &subscribers {
                subscriber(mark);
            }
        }
        Ok(info)
    }
}

/// Default pipeline depth: one in-flight epoch per hardware thread. The
/// journal sync of a settled epoch runs *outside* the in-flight window
/// (settle precedes sync), so even at depth 1 the next epoch's analysis
/// overlaps the previous epoch's fsync; more depth than hardware threads
/// would only timeslice analyses against each other.
fn default_max_inflight() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

impl World<'_> {
    /// The idle shards, in slot order.
    fn idle_shards(&self) -> impl Iterator<Item = &Shard> {
        self.routing.slots.iter().filter_map(Slot::as_idle)
    }

    /// Puts an island's controller at rest in `slot` — the one place a slot
    /// becomes `Idle`: its platforms are homed at `slot`, and it adopts the
    /// master platform table — the at-rest invariant
    /// (`docs/ARCHITECTURE.md`, "One platform table"). A `stale` controller
    /// — one a journal record left without analysis — goes to rest on the
    /// record's promise that it is schedulable.
    fn put_idle(&mut self, slot: usize, core: AdmissionController, stale: bool) {
        for tx in core.current_set().transactions() {
            for task in tx.tasks() {
                self.routing.home.insert(task.platform.0, slot);
            }
        }
        let mut shard = Shard { core, stale };
        shard.adopt(&self.core.platforms);
        self.routing.slots[slot] = Slot::Idle(shard);
    }

    /// Analyzes the stale shard in `slot` from scratch
    /// ([`AdmissionController::analyze_from_scratch`], exact by incremental
    /// == from-scratch); anything else is left alone. The journal record
    /// that left the shard stale promised that it passed admission: a
    /// shard whose utilization sum the numeric precheck cannot compute,
    /// that does not analyze, or that is not schedulable is refused with
    /// [`EngineError::Replay`], and the refusal is kept
    /// ([`Core::refusal`]). The precheck
    /// ([`AdmissionController::checked_overload`], over the whole shard) is
    /// exact here because the last admitted record touching the island
    /// checked all of its platforms, summing their tasks in the order the
    /// shard holds them.
    pub(crate) fn refresh_slot(&mut self, slot: usize) -> Result<(), EngineError> {
        let Slot::Idle(shard) = &mut self.routing.slots[slot] else {
            return Ok(());
        };
        if !shard.stale {
            return Ok(());
        }
        let unsummable = if self.core.policy.utilization_precheck {
            shard.core.checked_overload().err()
        } else {
            None
        };
        let analyzed = match unsummable {
            Some(error) => Err(format!("a platform's utilization unsummable: {error}")),
            None => shard
                .core
                .analyze_from_scratch()
                .map_err(|reason| format!("a shard that does not analyze: {reason}")),
        };
        let message = match analyzed {
            Err(why) => format!("journal refused: an admitted record left {why}"),
            Ok(()) => {
                self.metrics.refreshed_shards.incr();
                shard.stale = false;
                if shard.core.schedulable() {
                    return Ok(());
                }
                format!(
                    "journal refused: an admitted record left {} unschedulable",
                    shard.core.misses().join(", ")
                )
            }
        };
        self.core.refusal.get_or_insert_with(|| message.clone());
        Err(EngineError::Replay(message))
    }

    /// Refreshes every stale shard ([`World::refresh_slot`]), up to the
    /// first refusal — or returns the refusal an earlier refresh kept.
    fn refresh(&mut self) -> Result<(), EngineError> {
        self.core.refused()?;
        for slot in 0..self.routing.slots.len() {
            self.refresh_slot(slot)?;
        }
        Ok(())
    }

    /// The at-rest invariant of [`World::put_idle`], checked.
    fn idle_shards_hold_master(&self) -> bool {
        self.idle_shards().all(|s| s.holds(&self.core.platforms))
    }

    /// Splits an epoch's controller into islands, each with the pre-epoch
    /// home slots of its transactions (ascending; empty for an island of
    /// arrivals only). Reads the home maps, so it runs before the epoch is
    /// placed and indexed. An empty controller has nothing to place: its
    /// analysis counters are banked instead.
    fn homed_islands(
        &mut self,
        core: AdmissionController,
    ) -> Vec<(Vec<usize>, AdmissionController)> {
        if core.current_set().transactions().is_empty() {
            self.core.retire_stats(&core);
            return Vec::new();
        }
        core.split_islands()
            .into_iter()
            .map(|part| {
                let mut homes: Vec<usize> = part
                    .current_set()
                    .transactions()
                    .iter()
                    .filter_map(|tx| self.txn_slot(&tx.name))
                    .collect();
                homes.sort_unstable();
                homes.dedup();
                (homes, part)
            })
            .collect()
    }

    /// Settles shard topology, the one place it changes. The epoch touched
    /// `keys` (its checked-out slots and claimed free platforms); each of
    /// its `islands` is placed in turn:
    ///
    /// - in the lowest of its pre-epoch homes that no earlier island
    ///   claimed;
    /// - otherwise in the first vacancy.
    ///
    /// An epoch slot no island claims becomes `Vacant`. Only settle, which
    /// runs in ticket order, allocates or vacates, so slot choice is
    /// deterministic in ticket order. Seeding is the same placement with no
    /// keys. An island goes to rest stale ([`World::put_idle`]) when
    /// `stale` says so of its homes.
    ///
    /// Returns the epoch's shard set ([`EngineResponse::shards`]) in
    /// first-touch order: each touched slot unless a merge absorbed it into
    /// another island's slot, and the slot each touched free platform's
    /// island landed in.
    pub(crate) fn place(
        &mut self,
        keys: &[Key],
        islands: Vec<(Vec<usize>, AdmissionController)>,
        stale: impl Fn(&[usize]) -> bool,
    ) -> Vec<usize> {
        let slots = shard_slots(keys);
        let mut claimed: Vec<usize> = Vec::new();
        let claims: Vec<(Option<usize>, bool)> = islands
            .iter()
            .map(|(homes, _)| {
                let claim = homes.iter().copied().find(|h| !claimed.contains(h));
                claimed.extend(claim);
                (claim, stale(homes))
            })
            .collect();
        let absorbed: Vec<usize> = slots
            .iter()
            .copied()
            .filter(|s| !claimed.contains(s) && islands.iter().any(|(h, _)| h.contains(s)))
            .collect();

        self.routing.home.retain(|_, home| !slots.contains(home));
        for &slot in &slots {
            self.routing.slots[slot] = Slot::Vacant;
        }
        let mut unclaimed = Vec::new();
        for (part, (claim, stale)) in islands.into_iter().map(|(_, part)| part).zip(claims) {
            match claim {
                Some(slot) => self.put_idle(slot, part, stale),
                None => unclaimed.push((part, stale)),
            }
        }
        for (part, stale) in unclaimed {
            let slot = self.vacant_slot();
            self.put_idle(slot, part, stale);
        }

        let mut shards = Vec::new();
        for key in keys {
            let slot = match *key {
                Key::Shard(slot) => (!absorbed.contains(&slot)).then_some(slot),
                Key::Free(p) => self.routing.home.get(&p).copied(),
            };
            if let Some(slot) = slot.filter(|s| !shards.contains(s)) {
                shards.push(slot);
            }
        }
        shards
    }

    /// Closes the slot table's vacancies, keeping slot order — the table
    /// [`snapshot::rebuild`] seeds from a snapshot of this state, so the two
    /// allocate their next slot alike. Only sound at rest (no `Busy` slot,
    /// no claim), which compaction is.
    fn renumber_slots(&mut self) {
        let routing = &mut *self.routing;
        let mut next = 0;
        let renumbered: Vec<usize> = routing
            .slots
            .iter()
            .map(|slot| {
                let index = next;
                next += usize::from(!slot.is_vacant());
                index
            })
            .collect();
        if next == routing.slots.len() {
            return;
        }
        routing.slots.retain(|slot| !slot.is_vacant());
        for slot in routing.home.values_mut() {
            *slot = renumbered[*slot];
        }
    }

    /// The first vacant slot (a new one when none is).
    fn vacant_slot(&mut self) -> usize {
        let slots = &mut self.routing.slots;
        slots.iter().position(Slot::is_vacant).unwrap_or_else(|| {
            slots.push(Slot::Vacant);
            slots.len() - 1
        })
    }

    /// Re-indexes the names an admitted batch moved, in batch order — its
    /// arrivals enter the home maps at their platform, its departures leave
    /// them and their handles (O(batch), by name — never a map scan) — and
    /// mints handles for the surviving arrivals, returned in batch order.
    /// Runs after [`World::place`], which homes an arriving instance's
    /// platform.
    fn index_batch(
        &mut self,
        batch: &[AdmissionRequest],
        removed_instance_txns: &[Vec<String>],
    ) -> Vec<TxnId> {
        for (i, request) in batch.iter().enumerate() {
            match request {
                AdmissionRequest::AddTransaction(tx) => {
                    let p = tx.tasks()[0].platform.0;
                    self.routing.txn_home.insert(tx.name.clone(), p);
                }
                AdmissionRequest::RemoveTransaction { name } => self.unindex_txn(name),
                AdmissionRequest::AddInstance { name, platform, .. } => {
                    self.routing.instance_home.insert(name.clone(), platform.0);
                    for txn in self.instance_members(name) {
                        self.routing.txn_home.insert(txn, platform.0);
                    }
                }
                AdmissionRequest::RemoveInstance { name } => {
                    self.routing.instance_home.remove(name);
                    for txn in &removed_instance_txns[i] {
                        self.unindex_txn(txn);
                    }
                }
                AdmissionRequest::Retune { .. } => {}
            }
        }
        let mut minted = Vec::new();
        for request in batch {
            let arrivals = match request {
                AdmissionRequest::AddTransaction(tx) if self.txn_live(&tx.name) => {
                    vec![tx.name.clone()]
                }
                AdmissionRequest::AddInstance { name, .. } => self.instance_members(name),
                _ => Vec::new(),
            };
            for txn in arrivals {
                if !self.core.ids.contains_key(&txn) {
                    minted.push(self.core.mint_id(&txn));
                }
            }
        }
        minted
    }

    /// Drops a departed transaction's home and handle.
    fn unindex_txn(&mut self, name: &str) {
        self.routing.txn_home.remove(name);
        if let Some(id) = self.core.ids.remove(name) {
            self.core.names.remove(&id);
        }
    }

    /// Reserve and analyze for one journal record ([`SchedService::apply_record`]):
    /// checks out what the batch touches and runs `seam` on it. A record
    /// marked admitted that reserve would reject, or whose batch does not
    /// apply, is refused and leaves the world as it was.
    fn take_record(
        &mut self,
        record: &JournalEpoch,
        seam: Seam,
    ) -> Result<(Footprint, Analyzed), EngineError> {
        let batch = &record.batch;
        let refused = |why: String| {
            EngineError::Replay(format!(
                "epoch {}: the journal records it admitted, but {why}",
                record.epoch
            ))
        };
        let Checkout {
            footprint,
            cores,
            stale,
            ..
        } = self.check_out(route(self, batch), seam)?;
        let analyzed = match seam {
            Seam::Analyze => commit_merged(cores, batch),
            Seam::Apply => {
                let cores =
                    cores.map_err(|reason| refused(format!("the engine rejects it: {reason}")))?;
                let (core, applied) = apply_merged(cores, batch);
                if let Err(message) = applied {
                    // Undone: every island goes back to the slot it left,
                    // as stale as it left it.
                    let islands = self.homed_islands(core);
                    self.place(&footprint.keys, islands, |homes| {
                        homes.iter().any(|h| stale.contains(h))
                    });
                    self.release(&footprint);
                    return Err(refused(format!("it does not apply: {message}")));
                }
                Analyzed::Applied(core)
            }
        };
        Ok((footprint, analyzed))
    }

    /// Settles epoch `ticket`: [`World::settle_commit`] for a batch that
    /// reached the analyze phase, a bare rejection for one reserve turned
    /// away; then the epoch's claims are released and the settled mirror
    /// advances.
    fn settle(
        &mut self,
        ticket: u64,
        batch: &[AdmissionRequest],
        footprint: &Footprint,
        analyzed: Analyzed,
    ) -> Result<EngineResponse, EngineError> {
        let result = match analyzed {
            Analyzed::Committed(core, outcome) => {
                self.settle_commit(ticket, batch, footprint, core, Some(outcome))
            }
            Analyzed::Applied(core) => self.settle_commit(ticket, batch, footprint, core, None),
            Analyzed::Rejected(reason) => {
                let verdict = Verdict::Rejected(reason);
                self.finish(ticket, batch, verdict, None, Vec::new(), Vec::new())
            }
        };
        debug_assert!(
            self.idle_shards_hold_master(),
            "epoch {ticket} left an idle shard off the master platform table"
        );
        debug_assert!(
            self.homes_resolve(),
            "epoch {ticket} left a name or platform homed off its slot"
        );
        self.release(footprint);
        self.core.settled = ticket;
        result
    }

    /// Finalizes an epoch's controller: takes the commit's verdict, settles
    /// shard topology ([`World::place`]), maintains every map, and journals
    /// the record ([`World::finish`]). `outcome` is the commit's; `None` for
    /// a journaled admitted batch applied without analysis, whose verdict
    /// the journal already gave.
    fn settle_commit(
        &mut self,
        ticket: u64,
        batch: &[AdmissionRequest],
        footprint: &Footprint,
        core: AdmissionController,
        outcome: Option<EpochOutcome>,
    ) -> Result<EngineResponse, EngineError> {
        let stale = outcome.is_none();
        let verdict = match outcome.as_ref().map(|o| o.verdict.clone()) {
            None => Verdict::Admitted,
            // The merged controller holds its shards in slot order.
            Some(Verdict::Rejected(RejectReason::Unschedulable { misses })) => {
                Verdict::Rejected(RejectReason::Unschedulable {
                    misses: self.core.order_misses(misses, batch),
                })
            }
            Some(verdict) => verdict,
        };

        let admitted = verdict.admitted();
        let mut retuned = false;
        if admitted {
            // Retunes reach the master table from the controller that
            // committed them.
            for request in batch {
                if let AdmissionRequest::Retune { platform, .. } = request {
                    let value = core.current_set().platforms()[*platform].clone();
                    self.core.platforms.replace(*platform, value);
                    retuned = true;
                }
            }
        }
        let islands = self.homed_islands(core);
        let shards = self.place(&footprint.keys, islands, |_| stale);
        if retuned {
            // The master is a new table: hand it to every shard at rest.
            // A `Busy` shard takes it when its own epoch puts it back.
            for slot in self.routing.slots.iter_mut() {
                if let Slot::Idle(shard) = slot {
                    shard.adopt(&self.core.platforms);
                }
            }
        }
        let minted = if admitted {
            self.index_batch(batch, &footprint.removed_instance_txns)
        } else {
            Vec::new()
        };
        self.finish(ticket, batch, verdict, outcome.as_ref(), shards, minted)
    }

    /// Journals and counts a settled epoch: the record is written, not
    /// synced (durability is the group commit in [`SchedService::sync`]).
    fn record(
        &mut self,
        ticket: u64,
        batch: &[AdmissionRequest],
        admitted: bool,
    ) -> Result<(), EngineError> {
        if let Some(journal) = &mut self.core.journal {
            let before = journal.bytes_written();
            if let Err(e) = journal.append_nosync(ticket, batch, admitted) {
                // Memory has already applied this epoch; the journal has
                // not. Poison durability so no later sync can claim a
                // watermark covering an epoch the journal never recorded.
                let message = format!("journal append failed: {e}");
                self.core.sync_error = Some(message.clone());
                return Err(EngineError::Journal(message));
            }
            self.metrics
                .journal_bytes
                .add(journal.bytes_written().saturating_sub(before));
            self.metrics.journal_records.incr();
        }
        if admitted {
            self.core.admitted_epochs += 1;
        } else {
            self.core.rejected_epochs += 1;
        }
        Ok(())
    }

    /// Records a settled epoch ([`World::record`]) and builds its response.
    /// `work` is the commit's outcome (`None` when nothing was analyzed).
    fn finish(
        &mut self,
        ticket: u64,
        batch: &[AdmissionRequest],
        verdict: Verdict,
        work: Option<&EpochOutcome>,
        shards: Vec<usize>,
        admitted: Vec<TxnId>,
    ) -> Result<EngineResponse, EngineError> {
        self.record(ticket, batch, verdict.admitted())?;
        Ok(EngineResponse {
            version: SCHEMA_VERSION,
            epoch: ticket,
            outcome: EpochOutcome {
                epoch: ticket,
                verdict,
                requests: batch.len(),
                analyzed_transactions: work.map_or(0, |o| o.analyzed_transactions),
                total_transactions: self.live_transactions(),
                islands: work.map_or(0, |o| o.islands),
                warm_started: work.is_some_and(|o| o.warm_started),
            },
            admitted,
            shards_touched: shards.len(),
            shards,
            shards_live: self.shard_count(),
            timings: EpochTimings::default(),
        })
    }

    // ------------------------------------------------------------------
    // Observation helpers
    // ------------------------------------------------------------------

    /// Live shards, `Busy` ones included. Exact under overlap: only settle
    /// allocates or vacates a slot, and a `Busy` slot holds a later
    /// epoch's shard, live at this point of the ticket order.
    pub(crate) fn shard_count(&self) -> usize {
        let slots = self.routing.slots.iter();
        slots.filter(|slot| !slot.is_vacant()).count()
    }

    /// Live transactions as of the settled prefix. Only settle edits the
    /// home map, so the count is exact while later tickets still hold
    /// their shards `Busy` (a scan of the idle ones would miss those).
    pub(crate) fn live_transactions(&self) -> usize {
        self.routing.txn_home.len()
    }

    pub(crate) fn current_set(&self) -> TransactionSet {
        let transactions = self
            .idle_shards()
            .flat_map(|s| s.core.current_set().transactions().iter().cloned())
            .collect();
        TransactionSet::new(self.core.platforms.clone(), transactions)
            .expect("shard transactions reference the master platforms")
    }

    pub(crate) fn system(&self) -> System {
        let mut system = System::default();
        for shard in self.idle_shards() {
            let part = shard.core.system();
            for instance in &part.instances {
                let class = part.classes[instance.class].clone();
                system.adopt_instance(class, instance.clone());
            }
        }
        system
    }

    /// The shards' reports in slot order; empty and not converged after a
    /// refusal, whose stale shards have no analysis.
    pub(crate) fn report(&self) -> SchedulabilityReport {
        if self.core.refusal.is_some() {
            return SchedulabilityReport {
                tasks: Vec::new(),
                verdicts: Vec::new(),
                trace: Vec::new(),
                converged: false,
                diverged: false,
            };
        }
        let parts: Vec<SchedulabilityReport> =
            self.idle_shards().map(|s| s.core.report()).collect();
        SchedulabilityReport::concat(parts.iter())
    }

    pub(crate) fn state_digest(&self) -> String {
        format!("{:016x}", fnv1a_64(self.canonical_state().as_bytes()))
    }

    /// Deterministic rendering of every observable of the engine.
    fn canonical_state(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "epoch={} admitted={} rejected={} next_id={}",
            self.core.settled,
            self.core.admitted_epochs,
            self.core.rejected_epochs,
            self.core.next_id
        );
        for (id, platform) in self.core.platforms.iter() {
            let _ = writeln!(out, "platform {id} {platform}");
        }
        if let Some(why) = &self.core.refusal {
            let _ = writeln!(out, "refused {why}");
            return out;
        }
        let set = self.current_set();
        let report = self.report();
        for (i, tx) in set.transactions().iter().enumerate() {
            let id = self
                .core
                .ids
                .get(&tx.name)
                .map(|id| id.to_string())
                .unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "txn {}|{}|{}|{}|{id}",
                tx.name, tx.period, tx.deadline, tx.release_jitter
            );
            for (j, task) in tx.tasks().iter().enumerate() {
                let r = &report.tasks[i][j];
                let _ = writeln!(
                    out,
                    "  task {}|{}|{}|{}|{}|{:?} -> R={} Rb={} phi={} J={}",
                    task.name,
                    task.wcet,
                    task.bcet,
                    task.priority,
                    task.platform,
                    task.kind,
                    r.response,
                    r.best_response,
                    r.phi,
                    r.jitter
                );
            }
            let v = &report.verdicts[i];
            let _ = writeln!(
                out,
                "  verdict {}|{}|{}",
                v.end_to_end, v.deadline, v.schedulable
            );
        }
        let system = self.system();
        for instance in &system.instances {
            let _ = writeln!(
                out,
                "instance {}|{}|{}|{}",
                instance.name,
                system.classes[instance.class].name,
                instance.platform,
                instance.node.0
            );
        }
        let _ = writeln!(
            out,
            "converged={} diverged={}",
            report.converged, report.diverged
        );
        out
    }

    /// Captures the full live state as a [`Snapshot`] (journal
    /// compaction; block format in `docs/JOURNAL_FORMAT.md`).
    pub(crate) fn capture_snapshot(&self, digest: &str) -> Snapshot {
        // Per-transaction origin instance, assembled from each shard's
        // instance bookkeeping.
        let mut origin: HashMap<String, String> = HashMap::new();
        let mut instances = Vec::new();
        let mut txns = Vec::new();
        for shard in self.idle_shards() {
            let part = shard.core.system();
            for instance in &part.instances {
                for txn in shard.core.transactions_of_instance(&instance.name) {
                    origin.insert(txn, instance.name.clone());
                }
                instances.push(snapshot::SnapshotInstance {
                    name: instance.name.clone(),
                    platform: instance.platform,
                    node: instance.node.0,
                    class: part.classes[instance.class].clone(),
                });
            }
        }
        for shard in self.idle_shards() {
            for tx in shard.core.current_set().transactions() {
                txns.push(snapshot::SnapshotTxn {
                    origin: origin.get(&tx.name).cloned(),
                    id: self.core.ids.get(&tx.name).map(|id| id.0),
                    tx: tx.clone(),
                });
            }
        }
        Snapshot {
            epoch: self.core.settled,
            admitted: self.core.admitted_epochs,
            rejected: self.core.rejected_epochs,
            next_id: self.core.next_id,
            digest: digest.to_string(),
            platforms: self
                .core
                .platforms
                .iter()
                .filter(|(_, p)| matches!(p.model(), hsched_platform::ServiceModel::Linear(_)))
                .map(|(id, p)| snapshot::SnapshotPlatform {
                    index: id.0,
                    alpha: p.alpha(),
                    delta: p.delta(),
                    beta: p.beta(),
                })
                .collect(),
            instances,
            txns,
        }
    }
}

impl Core {
    /// Mints the next stable handle for a live transaction name.
    pub(crate) fn mint_id(&mut self, name: &str) -> TxnId {
        self.next_id += 1;
        let id = TxnId(self.next_id);
        self.ids.insert(name.to_string(), id);
        self.names.insert(id, name.to_string());
        id
    }

    /// The kept journal refusal ([`Core::refusal`]), as the error every
    /// fallible entry point returns once there is one.
    fn refused(&self) -> Result<(), EngineError> {
        match &self.refusal {
            Some(why) => Err(EngineError::Replay(why.clone())),
            None => Ok(()),
        }
    }

    /// Banks a retiring shard's analysis counters into the service totals.
    fn retire_stats(&mut self, core: &AdmissionController) {
        let s = core.stats();
        self.retired_stats.transactions_analyzed += s.transactions_analyzed;
        self.retired_stats.analyses_avoided += s.analyses_avoided;
        self.retired_stats.warm_epochs += s.warm_epochs;
    }

    /// The rank of a transaction name in the *global set order* — the
    /// order a single controller's live set would hold it in: seeded and
    /// admitted transactions in handle-mint order (appends preserve
    /// relative order across removals), then this batch's not-yet-minted
    /// arrivals in batch order, then (deterministic fallback) anything
    /// else — e.g. a flattened member of an instance arriving in the
    /// rejected batch itself — by name.
    fn set_rank(&self, name: &str, batch: &[AdmissionRequest]) -> (u8, u64, usize) {
        if let Some(id) = self.ids.get(name) {
            return (0, id.0, 0);
        }
        match batch
            .iter()
            .position(|r| matches!(r, AdmissionRequest::AddTransaction(tx) if tx.name == name))
        {
            Some(k) => (1, 0, k),
            None => (2, 0, 0),
        }
    }

    /// Sorts a miss list into global set order (see [`Core::set_rank`]).
    fn order_misses(&self, mut misses: Vec<String>, batch: &[AdmissionRequest]) -> Vec<String> {
        misses.sort_by(|a, b| {
            self.set_rank(a, batch)
                .cmp(&self.set_rank(b, batch))
                .then_with(|| a.cmp(b))
        });
        misses
    }
}

/// The checked-out controllers (ascending slot order) merged into one.
fn merge(cores: Vec<AdmissionController>) -> AdmissionController {
    let mut cores = cores.into_iter();
    let mut core = cores
        .next()
        .expect("checkout yields at least one controller");
    for other in cores {
        core.merge_from(other)
            .expect("shards of one service merge (all hold the master table)");
    }
    core
}

/// Phase 2 of an epoch ([`Seam::Analyze`]): merges the checked-out
/// controllers and commits the whole batch on them once, or passes the
/// rejection reserve decided through. The controller analyzes the batch's
/// disjoint interference cones one after another, on this thread.
fn commit_merged(
    cores: Result<Vec<AdmissionController>, RejectReason>,
    batch: &[AdmissionRequest],
) -> Analyzed {
    match cores {
        Ok(cores) => {
            let mut core = merge(cores);
            let outcome = core.commit(batch);
            Analyzed::Committed(core, outcome)
        }
        Err(reason) => Analyzed::Rejected(reason),
    }
}

/// Phase 2 of a journaled admitted record ([`Seam::Apply`]): merges the
/// checked-out controllers and applies the batch without analysis. A batch
/// that does not apply is undone, and its error returned beside the merged
/// controller.
fn apply_merged(
    cores: Vec<AdmissionController>,
    batch: &[AdmissionRequest],
) -> (AdmissionController, Result<(), String>) {
    let mut core = merge(cores);
    let applied = core.apply_unanalyzed(batch);
    (core, applied)
}
