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
//! 1. **Reserve** — route the batch to its shard slots (batch-local name
//!    simulation included), check for conflicts against in-flight epochs,
//!    and check the touched shard controllers out of their slots together
//!    with the epoch's **ticket** (a sequence number). Because a ticket
//!    is only issued once every touched shard was acquired, an
//!    earlier-ticketed epoch can never wait on a later-ticketed one — the
//!    classic two-phase total-order argument, so cross-shard batches stay
//!    atomic and deadlock-free.
//! 2. **Analyze** — no lock held: the checked-out shards commit their
//!    sub-batches (concurrently across client threads *and* across the
//!    groups of one batch). This is where the analysis time goes, and it
//!    fully overlaps between clients on disjoint islands.
//! 3. **Settle** — strictly in ticket order: the cross-shard admission
//!    rule is evaluated against the service-wide state, routing tables and
//!    handle maps are updated, shards are returned (split back per island
//!    when departures drifted them apart), and the epoch's record is
//!    appended to the journal. Settling in ticket order makes the journal
//!    a *serialization* of the concurrent history: replaying it epoch by
//!    epoch through a single-threaded engine reproduces verdicts and state
//!    byte-identically (the linearizability property suite drives N client
//!    threads and asserts exactly this).
//!
//! ## The front door
//!
//! Reserve is one path behind one **routing lock**: the name→shard and
//! platform→shard home maps, the claim sets of in-flight epochs and the
//! slot table live together in [`Routing`], so [`route`] sees the exact
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
//! run concurrently. Three kinds of epoch first **drain** the pipeline
//! (a fairness gate holds new reservations off while such a writer
//! waits): instance operations (they flatten across names no footprint
//! can be precomputed for), epochs that must *change topology* at routing
//! time — merging shards bridged by an arrival, or creating a shard on
//! free platforms — which keeps slot assignment deterministic in ticket
//! order (the state digest depends on it), and every epoch while the
//! utilization-poison map is non-empty (the parity scan must see every
//! platform at rest). Splits after departures happen at settle time,
//! which is already serialized.
//!
//! # Equivalence envelope
//!
//! The service matches the single-controller verdict and post-state
//! exactly on transaction-level traffic, including the cross-island
//! numeric parity: a service-wide utilization poison map reproduces the
//! single controller's global checked utilization scan (whose exact
//! arithmetic can overflow on islands the batch never touches), so
//! overflow-boundary scenarios reject identically. Rejection *reasons*
//! are emitted deterministically in single-controller stage order:
//! structural failures first (earliest request), then numeric errors (the
//! global scan overflows before it collects overloads), then overloads
//! (platform lists merged, sorted by platform index like the global
//! scan), then deadline misses merged and sorted in **global set order**
//! (handle-mint order — the order the serial controller's live set holds
//! them in — with this batch's unminted arrivals after, in batch order),
//! closing the shard-slot-order relaxation PR 4 documented.

use crate::digest::fnv1a_64;
use crate::envelope::{
    EngineError, EngineOp, EngineRequest, EngineResponse, EpochTicket, EpochTimings, TxnId,
    SCHEMA_VERSION,
};
use crate::journal::{DurableMark, JournalEpoch, JournalStream, JournalSubscriber, JournalWriter};
use crate::metrics::EngineMetrics;
use crate::routing::{plan_groups, route, Group, RouteOutcome, Routing};
use crate::snapshot::{self, Snapshot};
use crate::sync::{
    condvar, core_lock, gate_lock, routing_lock, scratch_lock, Arc, Condvar, Mutex, MutexGuard,
};
use hsched_admission::{
    AdmissionController, AdmissionMetrics, AdmissionPolicy, AdmissionRequest, ControllerStats,
    EpochOutcome, RejectReason, Verdict,
};
use hsched_analysis::{parallel_map, AnalysisConfig, AnalysisMetrics, SchedulabilityReport};
use hsched_model::System;
use hsched_numeric::Rational;
use hsched_platform::PlatformSet;
use hsched_telemetry::{elapsed_ns, MetricsSnapshot};
use hsched_transaction::TransactionSet;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// One island-group shard: a full admission controller over the shard's
/// transactions plus its cached schedulability flag. `PlatformId`s are
/// global: the controller holds a handle on the service's one platform
/// table (see [`World::put_idle`]).
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) core: AdmissionController,
    pub(crate) schedulable: bool,
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
/// the master platform set, journal bookkeeping, and the cross-island
/// parity state. Routing state (name/platform homes, claim sets, the slot
/// table) lives in [`Routing`] behind its own lock. The core mutex is held
/// briefly — handle resolution, reserve and settle bookkeeping, journal
/// sync arbitration — never across analysis.
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
    /// Analysis counters of shards that have since been retired (island
    /// emptied, slot vacated) — kept so [`SchedService::stats`] stays
    /// cumulative like the single controller's.
    pub(crate) retired_stats: ControllerStats,
    /// The platform table: replaced (copy-on-write) when an admitted
    /// retune settles; every idle shard holds a handle on this very table.
    pub(crate) platforms: PlatformSet,
    pub(crate) config: AnalysisConfig,
    pub(crate) policy: AdmissionPolicy,
    /// Shard-internal policy: shards parallelize across the disjoint
    /// interference cones of their sub-batch (the grain below islands).
    pub(crate) shard_policy: AdmissionPolicy,
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
    /// Snapshot auto-compaction thresholds (off by default).
    auto_compact: AutoCompactPolicy,
    /// Epoch the journal was last compacted at (0 = never).
    last_compact_epoch: u64,
    /// A thread is currently running an auto-compaction (guards pile-ups).
    compacting: bool,
    /// At-rest unschedulable shards: slot → cached miss list. Maintained
    /// at settle (and seed/merge) so the cross-shard admission rule can be
    /// evaluated without touching foreign shards.
    pub(crate) unsched: BTreeMap<usize, Vec<String>>,
    /// Cross-island numeric parity (see module docs): platform index →
    /// error message of the global utilization sum. Non-empty entries on
    /// platforms a batch does not touch reject the epoch with
    /// [`RejectReason::Numeric`], exactly as the single controller's
    /// global scan would. Only seeded at construction/rebuild and only
    /// ever *cleared* afterwards.
    pub(crate) util_poison: BTreeMap<usize, String>,
    /// The service-wide admission telemetry sink; every shard controller —
    /// seeded, split, merged, or minted fresh by routing — records its
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
    /// One per routed group: target slot + request indices (batch order).
    groups: Vec<Group>,
    /// Checked-out shards, aligned with `groups`.
    shards: Vec<Shard>,
    /// Per request: flattened transaction names of a removed instance.
    removed_instance_txns: Vec<Vec<String>>,
    claimed_names: Vec<String>,
    claimed_free: Vec<usize>,
    /// Platforms of every touched island (poison accounting; empty
    /// whenever the poison map was empty at reserve).
    touched_platforms: Vec<usize>,
    /// Rejection decided at reserve time (structural / numeric parity):
    /// the epoch skips analysis and settles straight to a rejection.
    early: Option<RejectReason>,
    /// Wall time the winning attempt spent routing (telemetry).
    route_ns: u64,
    /// Wall time the winning attempt spent checking shards out (telemetry).
    checkout_ns: u64,
}

/// Epoch outcome handed from the analyze phase to settle.
struct Analyzed {
    outcomes: Vec<EpochOutcome>,
    shards: Vec<Shard>,
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
    /// Complete tail records re-committed (excluding epochs folded into
    /// the snapshot block).
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
    /// Worker threads per epoch's group commits (from the policy).
    island_threads: usize,
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
}

impl SchedService {
    /// Builds a service over an already-flattened transaction set: one full
    /// seed analysis (per island, via a temporary single controller), then
    /// the live set is split into island-group shards and every seeded
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
        // Shards inherit the island-thread budget: since PR 5 a shard's
        // dirty set is the batch's interference *cones*, and one island can
        // hold several disjoint cones — letting the shard parallelize them
        // means cones inside one island no longer serialize analysis work.
        let shard_policy = policy.clone();
        let platforms = set.platforms().clone();
        let util_poison = util_poison_scan(&set);
        let seed_names: Vec<String> = set.transactions().iter().map(|t| t.name.clone()).collect();
        // One sink per layer for the whole service: the analysis sink rides
        // inside the config (cloned into every island analysis), the
        // admission sink is pushed into every shard controller. Equality
        // checks ignore both, so shard merge/split semantics are unchanged.
        let analysis_metrics = Arc::new(AnalysisMetrics::default());
        let admission_metrics = Arc::new(AdmissionMetrics::new());
        let mut config = config;
        config.metrics = Some(analysis_metrics.clone());
        let mut seed = AdmissionController::new(set, config.clone(), shard_policy.clone())
            .map_err(EngineError::Seed)?;
        seed.set_metrics_sink(admission_metrics.clone());

        let island_threads = policy.island_threads;
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
            shard_policy,
            journal: None,
            synced: 0,
            durable_bytes: 0,
            syncing: false,
            sync_error: None,
            auto_compact: AutoCompactPolicy::default(),
            last_compact_epoch: 0,
            compacting: false,
            unsched: BTreeMap::new(),
            util_poison,
            admission_metrics: admission_metrics.clone(),
            #[cfg(hsched_model)]
            fail_next_sync: false,
        };
        let service = SchedService {
            routing: routing_lock(Routing::default()),
            max_inflight: default_max_inflight(),
            island_threads,
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
            for name in seed_names {
                world.core.mint_id(&name);
            }
            for part in seed.split_islands() {
                let slot = world.vacant_slot();
                world.index_shard(slot, &part);
                let shard = Shard {
                    schedulable: part.schedulable(),
                    core: part,
                };
                if !shard.schedulable {
                    world.core.unsched.insert(slot, shard.core.misses());
                }
                world.put_idle(slot, shard);
            }
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
    /// from); then re-commits every complete tail record — streamed, O(1)
    /// memory — cross-checking each replayed verdict against the recorded
    /// one, repairs any torn journal tail, and re-attaches the journal in
    /// append mode. Returns the service plus the journal facts the
    /// recovery established ([`ReplayStats`]: tail records replayed,
    /// snapshot resume point, valid and repaired byte counts).
    ///
    /// The rebuilt engine is byte-identical to the crashed one as of its
    /// last complete record: same epoch ticket, same live set and system
    /// mirror, same cached report, same [`TxnId`] assignments — the
    /// property suites assert this across random crash points, with and
    /// without compaction.
    pub fn replay(
        set: TransactionSet,
        config: AnalysisConfig,
        policy: AdmissionPolicy,
        path: &Path,
    ) -> Result<(SchedService, ReplayStats), EngineError> {
        Self::replay_inner(set, config, policy, path, true)
    }

    /// [`SchedService::replay`] for a **warm standby**: rebuilds the same
    /// byte-identical state but does *not* repair or re-attach the journal
    /// — the file stays read-only and untouched. A replication follower
    /// uses this to seed its standby from the locally mirrored journal
    /// while a separate thread keeps appending raw streamed bytes to the
    /// same file; attaching a writer here would double-write every record
    /// the standby later applies through
    /// [`SchedService::apply_journal_record`].
    pub fn replay_standby(
        set: TransactionSet,
        config: AnalysisConfig,
        policy: AdmissionPolicy,
        path: &Path,
    ) -> Result<(SchedService, ReplayStats), EngineError> {
        Self::replay_inner(set, config, policy, path, false)
    }

    fn replay_inner(
        set: TransactionSet,
        config: AnalysisConfig,
        policy: AdmissionPolicy,
        path: &Path,
        attach: bool,
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
            service.apply_journal_record(&record?)?;
            replayed += 1;
        }
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

    /// Applies one journal record to this engine exactly as replay would:
    /// the batch commits as the next epoch, and both the epoch number and
    /// the verdict are cross-checked against what the record claims —
    /// divergence is an [`EngineError::Replay`], the loud refusal a
    /// replication follower owes its operator. With no journal attached
    /// (the standby configuration) the record is applied in memory only.
    pub fn apply_journal_record(&self, record: &JournalEpoch) -> Result<(), EngineError> {
        let response = self.commit_named(record.batch.clone())?;
        if response.epoch != record.epoch {
            return Err(EngineError::Replay(format!(
                "epoch numbering diverged: journal {}, engine {}",
                record.epoch, response.epoch
            )));
        }
        if response.outcome.verdict.admitted() != record.admitted {
            return Err(EngineError::Replay(format!(
                "epoch {}: journal records {}, replay produced {}",
                record.epoch,
                if record.admitted {
                    "admitted"
                } else {
                    "rejected"
                },
                response.outcome.verdict,
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
    /// (journal I/O).
    pub fn submit(&self, request: &EngineRequest) -> Result<EngineResponse, EngineError> {
        let ticket = self.submit_async(request)?;
        self.sync(ticket.epoch)?;
        self.maybe_auto_compact();
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
    pub fn sync(&self, watermark: u64) -> Result<u64, EngineError> {
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

    /// The name-addressed commit path (also the replay path): settle plus
    /// per-epoch durability, like [`SchedService::submit`].
    pub(crate) fn commit_named(
        &self,
        batch: Vec<AdmissionRequest>,
    ) -> Result<EngineResponse, EngineError> {
        let response = self.commit_named_async(batch)?;
        self.sync(response.epoch)?;
        self.maybe_auto_compact();
        Ok(response)
    }

    /// Runs one epoch through reserve → analyze → settle. The record is
    /// journaled (in ticket order) but not fsynced.
    fn commit_named_async(
        &self,
        batch: Vec<AdmissionRequest>,
    ) -> Result<EngineResponse, EngineError> {
        // Phase 1: reserve (wait out conflicts; writers drain in-flight).
        let reserve_started = Instant::now();
        let resv = self.reserve(&batch)?;
        let reserve_total_ns = elapsed_ns(reserve_started);
        let Reservation {
            ticket,
            groups,
            shards,
            removed_instance_txns,
            claimed_names,
            claimed_free,
            touched_platforms,
            early,
            route_ns,
            checkout_ns,
        } = resv;

        // Phase 2: analyze — no lock held; overlaps across client threads.
        let analyze_started = Instant::now();
        let analyzed = if early.is_none() && !groups.is_empty() {
            run_groups(&groups, shards, &batch, self.island_threads)
        } else {
            Analyzed {
                outcomes: Vec::new(),
                shards,
            }
        };
        let analyze_ns = elapsed_ns(analyze_started);

        // Phase 3: settle strictly in ticket order — the linearization
        // point, and the journal's serialization order.
        let settle_started = Instant::now();
        let mut response = self.settle_epoch(
            ticket,
            &batch,
            groups,
            analyzed,
            removed_instance_txns,
            touched_platforms,
            early,
            claimed_names,
            claimed_free,
        )?;

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
        let drafts = match &outcome {
            RouteOutcome::Routed(routed) => plan_groups(
                &routed.keys,
                world.routing.slots.len(),
                world.core.platforms.len(),
            ),
            _ => Vec::new(),
        };
        let poisoned = !world.core.util_poison.is_empty();
        let drain = *writer
            || poisoned
            || drafts.iter().any(|d| d.changes_topology())
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

        let ticket = gate.issued + 1;
        let early = |reason| Reservation {
            ticket,
            groups: Vec::new(),
            shards: Vec::new(),
            removed_instance_txns: Vec::new(),
            claimed_names: Vec::new(),
            claimed_free: Vec::new(),
            touched_platforms: Vec::new(),
            early: Some(reason),
            route_ns,
            checkout_ns: 0,
        };
        let resv = match outcome {
            // Nothing is in flight, so nothing can hold a claim or a shard.
            RouteOutcome::Blocked => {
                return Err(EngineError::Internal(
                    "conflict on a drained pipeline".to_string(),
                ))
            }
            RouteOutcome::Structural(message) => early(RejectReason::Structural(message)),
            RouteOutcome::Routed(routed) => {
                // Cross-island numeric parity: a poisoned platform the
                // batch does not touch rejects exactly like the single
                // controller's global utilization scan (touched islands
                // re-run their own checked scan inside the shard commit
                // and heal or re-reject there). The O(platforms) scope scan
                // only runs while there is poison to clear.
                let touched = if poisoned {
                    world.touched_platform_set(&routed.keys)
                } else {
                    HashSet::new()
                };
                let poison = world
                    .core
                    .util_poison
                    .iter()
                    .find(|(p, _)| !touched.contains(*p))
                    .map(|(_, message)| message.clone());
                match poison {
                    Some(message) => early(RejectReason::Numeric(message)),
                    None => {
                        let checkout_started = Instant::now();
                        let (groups, shards) = world.checkout(drafts)?;
                        let checkout_ns = elapsed_ns(checkout_started);
                        let routing = &mut world.routing;
                        routing.pending.extend(routed.mentioned.iter().cloned());
                        routing.pending_free.extend(&routed.free_platforms);
                        Reservation {
                            ticket,
                            groups,
                            shards,
                            removed_instance_txns: routed.removed_instance_txns,
                            claimed_names: routed.mentioned,
                            claimed_free: routed.free_platforms,
                            touched_platforms: touched.into_iter().collect(),
                            early: None,
                            route_ns,
                            checkout_ns,
                        }
                    }
                }
            }
        };
        gate.issued = ticket;
        if drain {
            self.metrics.exclusive_drains.incr();
        } else {
            self.metrics.fast_reservations.incr();
        }
        Ok(Some(resv))
    }

    /// Phase 3: waits for this ticket's turn, locks the world, settles the
    /// epoch, releases the claims, and publishes the new settled ticket.
    #[allow(clippy::too_many_arguments)]
    fn settle_epoch(
        &self,
        ticket: u64,
        batch: &[AdmissionRequest],
        groups: Vec<Group>,
        analyzed: Analyzed,
        removed_instance_txns: Vec<Vec<String>>,
        touched_platforms: Vec<usize>,
        early: Option<RejectReason>,
        claimed_names: Vec<String>,
        claimed_free: Vec<usize>,
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
        let journal_before = world
            .core
            .journal
            .as_ref()
            .map(JournalWriter::bytes_written);
        let result = world.settle(
            ticket,
            batch,
            groups,
            analyzed,
            removed_instance_txns,
            touched_platforms,
            early,
        );
        debug_assert!(
            world.idle_shards_hold_master(),
            "epoch {ticket} left an idle shard off the master platform table"
        );
        if let (Some(before), Some(journal)) = (journal_before, world.core.journal.as_ref()) {
            // Bytes the settle appended for this epoch's record (the
            // journal only ever grows between here and the pre-settle
            // read — compaction rewrites drain the pipeline first).
            let appended = journal.bytes_written().saturating_sub(before);
            if appended > 0 {
                self.metrics.journal_bytes.add(appended);
                self.metrics.journal_records.incr();
            }
        }
        for name in &claimed_names {
            world.routing.pending.remove(name);
        }
        for p in &claimed_free {
            world.routing.pending_free.remove(p);
        }
        world.core.settled = ticket;
        drop(world);
        self.lock_gate().settled = ticket;
        self.turn.notify_all();
        self.capacity.notify_one();
        self.conflict.notify_all();
        result
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
        World { routing, core }
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

    /// `true` when every shard's live set meets its deadlines.
    pub fn schedulable(&self) -> bool {
        let world = self.quiescent_world();
        let mut shards = world.idle_shards();
        shards.all(|s| s.schedulable)
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
    /// same reason sharding is: the cache is island-local.
    pub fn report(&self) -> SchedulabilityReport {
        self.quiescent_world().report()
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
    /// recovery can be verified with a string compare.
    pub fn state_digest(&self) -> String {
        self.quiescent_world().state_digest()
    }

    /// The settled epoch and its state digest as one consistent pair
    /// (both read under a single quiescent world, so the digest is
    /// guaranteed to describe exactly that epoch — two separate
    /// [`SchedService::epoch`] / [`SchedService::state_digest`] calls can
    /// straddle a commit). Like every observer this drains the pipeline;
    /// a replication primary emits these as low-rate heartbeats, not per
    /// epoch.
    pub fn epoch_digest(&self) -> (u64, String) {
        let world = self.quiescent_world();
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
    /// Errors when no journal is attached.
    pub fn snapshot(&self) -> Result<SnapshotInfo, EngineError> {
        let mut world = self.quiescent_world();
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

    /// Puts a shard at rest in `slot` — the one place a slot becomes
    /// `Idle`, so the one place the at-rest invariant is established: an
    /// idle shard holds the master platform table (`docs/ARCHITECTURE.md`,
    /// "One platform table").
    pub(crate) fn put_idle(&mut self, slot: usize, mut shard: Shard) {
        shard.adopt(&self.core.platforms);
        self.routing.slots[slot] = Slot::Idle(shard);
    }

    /// The at-rest invariant of [`World::put_idle`], checked.
    fn idle_shards_hold_master(&self) -> bool {
        self.idle_shards().all(|s| s.holds(&self.core.platforms))
    }

    /// The first vacant slot (a new one when none is). Slot choice must be
    /// deterministic in ticket order: reserve only allocates on a drained
    /// pipeline, settle runs in ticket order.
    pub(crate) fn vacant_slot(&mut self) -> usize {
        let slots = &mut self.routing.slots;
        slots.iter().position(Slot::is_vacant).unwrap_or_else(|| {
            slots.push(Slot::Vacant);
            slots.len() - 1
        })
    }

    /// Registers a shard's members in the home maps.
    pub(crate) fn index_shard(&mut self, slot: usize, core: &AdmissionController) {
        let routing = &mut *self.routing;
        for tx in core.current_set().transactions() {
            routing.txn_home.insert(tx.name.clone(), slot);
            for task in tx.tasks() {
                routing.home.insert(task.platform.0, slot);
            }
        }
        for (_, instance) in core.system().instances() {
            routing.instance_home.insert(instance.name.clone(), slot);
        }
    }

    /// Points every home-map entry of `from` at `to` (after a merge).
    pub(crate) fn reassign_home(&mut self, from: usize, to: usize) {
        let routing = &mut *self.routing;
        let homes = routing
            .home
            .values_mut()
            .chain(routing.txn_home.values_mut())
            .chain(routing.instance_home.values_mut());
        for home in homes {
            if *home == from {
                *home = to;
            }
        }
    }

    /// Vacates touched slots whose shard ended the epoch with no live
    /// transactions.
    fn drop_empty_shards(&mut self, slots: impl Iterator<Item = usize>) {
        for slot in slots {
            let cell = &mut self.routing.slots[slot];
            let empty = cell
                .as_idle()
                .is_some_and(|s| s.core.current_set().transactions().is_empty());
            if empty {
                let Slot::Idle(retired) = std::mem::replace(cell, Slot::Vacant) else {
                    unreachable!("checked idle above");
                };
                self.core.retire_stats(&retired.core);
                self.core.unsched.remove(&slot);
                self.routing.home.retain(|_, home| *home != slot);
            }
        }
    }

    /// Splits every touched shard back into island-group shards and
    /// rebuilds the home maps for the affected slots. Settles run in
    /// ticket order, so the vacant-slot choices here are deterministic.
    fn repartition(&mut self, touched: &[usize]) {
        let affected: HashSet<usize> = touched.iter().copied().collect();
        self.routing.home.retain(|_, home| !affected.contains(home));
        let mut slots: Vec<usize> = touched.to_vec();
        slots.sort_unstable();
        slots.dedup();
        for slot in slots {
            let cell = &mut self.routing.slots[slot];
            let Slot::Idle(shard) = std::mem::replace(cell, Slot::Vacant) else {
                continue;
            };
            if shard.core.current_set().transactions().is_empty() {
                self.core.retire_stats(&shard.core);
                continue; // slot stays vacant
            }
            for (k, part) in shard.core.split_islands().into_iter().enumerate() {
                // The first part stays put, the rest fill vacancies.
                let part_slot = if k == 0 { slot } else { self.vacant_slot() };
                self.index_shard(part_slot, &part);
                let shard = Shard {
                    schedulable: part.schedulable(),
                    core: part,
                };
                self.put_idle(part_slot, shard);
            }
        }
    }

    /// Drops the home/handle entries of everything the admitted batch
    /// removed (O(batch), by name — never a map scan).
    fn unindex_departures(
        &mut self,
        batch: &[AdmissionRequest],
        removed_instance_txns: &[Vec<String>],
    ) {
        for (i, request) in batch.iter().enumerate() {
            match request {
                AdmissionRequest::RemoveTransaction { name } => {
                    self.routing.txn_home.remove(name);
                    if let Some(id) = self.core.ids.remove(name) {
                        self.core.names.remove(&id);
                    }
                }
                AdmissionRequest::RemoveInstance { name } => {
                    self.routing.instance_home.remove(name);
                    for txn in &removed_instance_txns[i] {
                        self.routing.txn_home.remove(txn);
                        if let Some(id) = self.core.ids.remove(txn) {
                            self.core.names.remove(&id);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Mints handles for the batch's surviving arrivals (after the home
    /// maps settled) and returns them in batch order.
    fn mint_arrival_ids(&mut self, batch: &[AdmissionRequest]) -> Vec<TxnId> {
        let mut minted = Vec::new();
        for request in batch {
            match request {
                AdmissionRequest::AddTransaction(tx) => {
                    let live = self.routing.txn_home.contains_key(&tx.name);
                    if live && !self.core.ids.contains_key(&tx.name) {
                        minted.push(self.core.mint_id(&tx.name));
                    }
                }
                AdmissionRequest::AddInstance { name, .. } => {
                    if let Some(&slot) = self.routing.instance_home.get(name) {
                        let txns = self.routing.slots[slot]
                            .as_idle()
                            .expect("instance home live")
                            .core
                            .transactions_of_instance(name);
                        for txn in txns {
                            if !self.core.ids.contains_key(&txn) {
                                minted.push(self.core.mint_id(&txn));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        minted
    }

    /// Finalizes one epoch: evaluates the cross-shard admission rule,
    /// returns/repartitions the checked-out shards, maintains every map,
    /// appends the journal record (write only; durability is the group
    /// commit in [`SchedService::sync`]), and builds the response.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        &mut self,
        ticket: u64,
        batch: &[AdmissionRequest],
        groups: Vec<Group>,
        analyzed: Analyzed,
        removed_instance_txns: Vec<Vec<String>>,
        touched_platforms: Vec<usize>,
        early: Option<RejectReason>,
    ) -> Result<EngineResponse, EngineError> {
        if let Some(reason) = early {
            return self.finish_rejected(ticket, batch, reason, Vec::new());
        }
        let Analyzed { outcomes, shards } = analyzed;
        let slots: Vec<usize> = groups.iter().map(|g| g.slot).collect();

        let all_admitted = outcomes.iter().all(|o| o.verdict.admitted());
        let analyzed_txns: usize = outcomes.iter().map(|o| o.analyzed_transactions).sum();
        let islands: usize = outcomes.iter().map(|o| o.islands).sum();
        let warm = outcomes.iter().any(|o| o.warm_started);

        // Cross-shard admission rule: every shard everywhere must be
        // schedulable (a single controller scans its whole entry table).
        // Foreign shards are read from the at-rest `unsched` map — their
        // state cannot change before this epoch in the ticket order.
        let global_misses: Vec<String> = if all_admitted {
            let mut by_slot: BTreeMap<usize, Vec<String>> = self
                .core
                .unsched
                .iter()
                .filter(|(slot, _)| !slots.contains(slot))
                .map(|(slot, misses)| (*slot, misses.clone()))
                .collect();
            for (group, shard) in groups.iter().zip(&shards) {
                if !shard.schedulable {
                    by_slot.insert(group.slot, shard.core.misses());
                }
            }
            self.core
                .order_misses(by_slot.into_values().flatten().collect(), batch)
        } else {
            Vec::new()
        };

        if !all_admitted || !global_misses.is_empty() {
            // Revert shards that admitted their sub-batch; the epoch is
            // atomic across shards.
            let mut shards = shards;
            for (shard, outcome) in shards.iter_mut().zip(&outcomes) {
                if outcome.verdict.admitted() {
                    shard.core.rollback_last();
                    shard.schedulable = shard.core.schedulable();
                }
            }
            let reason = if !all_admitted {
                self.core.aggregate_reason(batch, &groups, &outcomes)
            } else {
                RejectReason::Unschedulable {
                    misses: global_misses,
                }
            };
            // Return the shards and refresh their at-rest bookkeeping.
            for (group, shard) in groups.iter().zip(shards) {
                if shard.schedulable {
                    self.core.unsched.remove(&group.slot);
                } else {
                    self.core.unsched.insert(group.slot, shard.core.misses());
                }
                self.put_idle(group.slot, shard);
            }
            self.drop_empty_shards(slots.iter().copied());
            let mut response = self.finish_rejected(ticket, batch, reason, slots)?;
            response.outcome.analyzed_transactions = analyzed_txns;
            response.outcome.islands = islands;
            response.outcome.warm_started = warm;
            return Ok(response);
        }

        // --- Admitted: apply retunes to the master table, re-partition
        // touched shards, settle the handle maps, journal, respond. Map
        // maintenance is O(batch + touched-shard members), never O(live
        // set).
        let mut retuned = false;
        for (group, shard) in groups.iter().zip(&shards) {
            for &i in &group.requests {
                if let AdmissionRequest::Retune { platform, .. } = &batch[i] {
                    // The post-commit value, from the shard that owns it.
                    let value = shard.core.current_set().platforms()[*platform].clone();
                    self.core.platforms.replace(*platform, value);
                    retuned = true;
                }
            }
        }
        for (group, shard) in groups.iter().zip(shards) {
            self.put_idle(group.slot, shard);
        }
        // Admission required *every* shard schedulable, so the at-rest
        // unschedulable map and the touched platforms' poison entries are
        // both clear now.
        self.core.unsched.clear();
        for p in &touched_platforms {
            self.core.util_poison.remove(p);
        }
        self.unindex_departures(batch, &removed_instance_txns);
        self.repartition(&slots);
        if retuned {
            // The master is a new table: hand it to every shard at rest.
            // A `Busy` shard takes it when its own epoch puts it back.
            for slot in self.routing.slots.iter_mut() {
                if let Slot::Idle(shard) = slot {
                    shard.adopt(&self.core.platforms);
                }
            }
        }
        let admitted_ids = self.mint_arrival_ids(batch);

        if let Some(journal) = &mut self.core.journal {
            if let Err(e) = journal.append_nosync(ticket, batch, true) {
                // Memory has already applied this epoch; the journal has
                // not. Poison durability so no later sync can claim a
                // watermark covering an epoch the journal never recorded.
                let message = format!("journal append failed: {e}");
                self.core.sync_error = Some(message.clone());
                return Err(EngineError::Journal(message));
            }
        }
        self.core.admitted_epochs += 1;
        Ok(EngineResponse {
            version: SCHEMA_VERSION,
            epoch: ticket,
            outcome: EpochOutcome {
                epoch: ticket,
                verdict: Verdict::Admitted,
                requests: batch.len(),
                analyzed_transactions: analyzed_txns,
                total_transactions: self.live_transactions(),
                islands,
                warm_started: warm,
            },
            admitted: admitted_ids,
            shards_touched: slots.len(),
            shards: slots,
            shards_live: self.shard_count(),
            timings: EpochTimings::default(),
        })
    }

    /// Journals and accounts a rejected epoch, building the response.
    fn finish_rejected(
        &mut self,
        ticket: u64,
        batch: &[AdmissionRequest],
        reason: RejectReason,
        slots: Vec<usize>,
    ) -> Result<EngineResponse, EngineError> {
        if let Some(journal) = &mut self.core.journal {
            if let Err(e) = journal.append_nosync(ticket, batch, false) {
                // Same sticky poison as the admitted path: the epoch
                // counter has advanced past a record the journal lacks.
                let message = format!("journal append failed: {e}");
                self.core.sync_error = Some(message.clone());
                return Err(EngineError::Journal(message));
            }
        }
        self.core.rejected_epochs += 1;
        Ok(EngineResponse {
            version: SCHEMA_VERSION,
            epoch: ticket,
            outcome: EpochOutcome {
                epoch: ticket,
                verdict: Verdict::Rejected(reason),
                requests: batch.len(),
                analyzed_transactions: 0,
                total_transactions: self.live_transactions(),
                islands: 0,
                warm_started: false,
            },
            admitted: Vec::new(),
            shards_touched: slots.len(),
            shards: slots,
            shards_live: self.shard_count(),
            timings: EpochTimings::default(),
        })
    }

    // ------------------------------------------------------------------
    // Observation helpers
    // ------------------------------------------------------------------

    /// Live shards, `Busy` ones included. Exact under overlap: a reserve
    /// that merges or mints shards drains the pipeline first.
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

    pub(crate) fn report(&self) -> SchedulabilityReport {
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
        misses.dedup();
        misses
    }

    /// Aggregates the rejection reason of a multi-shard epoch, mirroring
    /// the single controller's stage order: structural failures surface
    /// during request application (earliest request wins); then numeric
    /// errors — the global utilization scan propagates its first overflow
    /// *before* it ever collects overloads, so `Numeric` outranks
    /// `Overload`; then overloads (platform lists merged and sorted by
    /// platform index, like the global scan); then deadline misses (merged
    /// and sorted in global set order); then analysis aborts.
    fn aggregate_reason(
        &self,
        batch: &[AdmissionRequest],
        groups: &[Group],
        outcomes: &[EpochOutcome],
    ) -> RejectReason {
        let rejecting: Vec<(usize, &RejectReason)> = groups
            .iter()
            .zip(outcomes)
            .filter_map(|(g, o)| match &o.verdict {
                Verdict::Rejected(reason) => Some((g.requests[0], reason)),
                Verdict::Admitted => None,
            })
            .collect();
        debug_assert!(!rejecting.is_empty());
        if let Some((_, reason)) = rejecting
            .iter()
            .filter(|(_, r)| matches!(r, RejectReason::Structural(_)))
            .min_by_key(|(first_request, _)| *first_request)
        {
            return (*reason).clone();
        }
        if let Some((_, reason)) = rejecting
            .iter()
            .filter(|(_, r)| matches!(r, RejectReason::Numeric(_)))
            .min_by_key(|(first_request, _)| *first_request)
        {
            return (*reason).clone();
        }
        let overloaded: Vec<String> = rejecting
            .iter()
            .filter_map(|(_, r)| match r {
                RejectReason::Overload { platforms } => Some(platforms.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        if !overloaded.is_empty() {
            let mut named: Vec<(usize, String)> = overloaded
                .into_iter()
                .map(|name| {
                    let index = self
                        .platforms
                        .by_name(&name)
                        .map(|(id, _)| id.0)
                        .unwrap_or(usize::MAX);
                    (index, name)
                })
                .collect();
            named.sort();
            named.dedup();
            return RejectReason::Overload {
                platforms: named.into_iter().map(|(_, name)| name).collect(),
            };
        }
        let misses: Vec<String> = rejecting
            .iter()
            .filter_map(|(_, r)| match r {
                RejectReason::Unschedulable { misses } => Some(misses.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        if !misses.is_empty() {
            return RejectReason::Unschedulable {
                misses: self.order_misses(misses, batch),
            };
        }
        rejecting
            .into_iter()
            .min_by_key(|(first_request, _)| *first_request)
            .map(|(_, reason)| reason.clone())
            .expect("at least one rejecting shard")
    }
}

/// Scans a transaction set's per-platform utilization with the single
/// controller's fallible arithmetic, recording the first error per
/// platform — the poison map of the cross-island numeric parity check.
pub(crate) fn util_poison_scan(set: &TransactionSet) -> BTreeMap<usize, String> {
    let mut acc = vec![Rational::ZERO; set.platforms().len()];
    let mut poison = BTreeMap::new();
    for tx in set.transactions() {
        for task in tx.tasks() {
            let p = task.platform.0;
            if poison.contains_key(&p) {
                continue;
            }
            match task.wcet.try_div(tx.period).and_then(|u| acc[p].try_add(u)) {
                Ok(sum) => acc[p] = sum,
                Err(e) => {
                    poison.insert(p, e.to_string());
                }
            }
        }
    }
    poison
}

/// Phase 2 of an epoch: commits each group's sub-batch on its checked-out
/// shard, concurrently across groups.
fn run_groups(
    groups: &[Group],
    shards: Vec<Shard>,
    batch: &[AdmissionRequest],
    threads: usize,
) -> Analyzed {
    let jobs: Vec<(Mutex<Option<Shard>>, Vec<AdmissionRequest>)> = groups
        .iter()
        .zip(shards)
        .map(|(group, shard)| {
            let sub: Vec<AdmissionRequest> =
                group.requests.iter().map(|&i| batch[i].clone()).collect();
            (scratch_lock(Some(shard)), sub)
        })
        .collect();
    let outcomes: Vec<EpochOutcome> = parallel_map(&jobs, threads, |(cell, sub)| {
        let mut guard = cell.lock().expect("shard cell poisoned");
        let shard = guard.as_mut().expect("shard present for this job");
        let outcome = shard.core.commit(sub);
        shard.schedulable = shard.core.schedulable();
        outcome
    });
    let shards = jobs
        .into_iter()
        .map(|(cell, _)| {
            cell.into_inner()
                .expect("shard cell poisoned")
                .expect("shard present after job")
        })
        .collect();
    Analyzed { outcomes, shards }
}
