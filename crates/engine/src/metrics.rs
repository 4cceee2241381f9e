//! Engine-layer telemetry: per-phase epoch timers, front-door contention
//! counters, and journal/group-commit statistics.
//!
//! One [`EngineMetrics`] lives on the [`crate::SchedService`] and is
//! always on: every recording is a relaxed atomic add on pre-allocated
//! cells, and every clock read happens *outside* lock-hold paths (phase
//! boundaries are captured in the submitting thread's own frame). A
//! [`crate::SchedService::metrics`] snapshot is therefore a pure read —
//! it never drains the pipeline, unlike the quiescent observers.

use hsched_telemetry::{Counter, Histogram, MetricsSnapshot};

/// The service-wide engine metric set. Field docs say what is measured;
/// the snapshot names (below) are the stable external vocabulary.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Epochs fully settled (admitted + rejected).
    pub epochs_settled: Counter,
    /// Reservations ticketed without requiring a drained pipeline. The
    /// three reserve counters keep the names the two-path front door gave
    /// them (`benchmark/` reads the snapshot names by string); a rename
    /// waits for the next benchmark change.
    pub fast_reservations: Counter,
    /// Reservation attempts that had to wait and route again (blocked
    /// route — busy shard, claimed name/platform —, writer fairness,
    /// pipeline depth).
    pub fast_conflicts: Counter,
    /// Reservations that required the pipeline drained first (instance
    /// ops). With `fast_reservations` this accounts for every ticket.
    pub exclusive_drains: Counter,
    /// Journal bytes appended (records only; snapshot rewrites excluded).
    pub journal_bytes: Counter,
    /// Journal records appended.
    pub journal_records: Counter,
    /// Snapshot compactions that completed (manual and automatic).
    pub compactions: Counter,
    /// Submissions turned away by a front end's admission backpressure
    /// (the engine never sheds on its own — see
    /// [`crate::SchedService::note_shed`]).
    pub shed_rejected: Counter,
    /// Torn-tail bytes truncated by replay/recovery (WAL tail repair).
    pub replay_repaired_bytes: Counter,
    /// Shards analyzed from scratch because journal records left them
    /// stale (replay, standby, promotion).
    pub refreshed_shards: Counter,

    /// Reserve-phase time per epoch, *excluding* the route and checkout
    /// slices below (lock and gate waits, retried attempts).
    pub reserve_ns: Histogram,
    /// Routing time per epoch (batch → shard decision, winning attempt).
    pub route_ns: Histogram,
    /// Shard checkout time per epoch (marking the touched slots `Busy`).
    pub checkout_ns: Histogram,
    /// Analysis time per epoch (the lock-free phase 2).
    pub analyze_ns: Histogram,
    /// Settle time per epoch, including the ticket-order turn wait.
    pub settle_ns: Histogram,
    /// Wall time of each `sync_data` call (group-commit fsync latency).
    pub fsync_ns: Histogram,
    /// Epoch records covered per completed fsync (group-commit batch
    /// size; >1 means the pipelining amortized the disk wait).
    pub sync_batch_epochs: Histogram,
}

impl EngineMetrics {
    /// A fresh metric set with everything at zero.
    pub fn new() -> EngineMetrics {
        EngineMetrics::default()
    }

    /// Point-in-time snapshot under `engine.*` names.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.put_counter("engine.epochs_settled", self.epochs_settled.get());
        snap.put_counter("engine.reserve.fast", self.fast_reservations.get());
        snap.put_counter("engine.reserve.fast_conflicts", self.fast_conflicts.get());
        snap.put_counter(
            "engine.reserve.exclusive_drains",
            self.exclusive_drains.get(),
        );
        snap.put_counter("engine.journal.bytes", self.journal_bytes.get());
        snap.put_counter("engine.journal.records", self.journal_records.get());
        snap.put_counter("engine.journal.compactions", self.compactions.get());
        snap.put_counter("engine.shed.rejected", self.shed_rejected.get());
        snap.put_counter(
            "engine.replay.repaired_bytes",
            self.replay_repaired_bytes.get(),
        );
        snap.put_counter(
            "engine.replay.refreshed_shards",
            self.refreshed_shards.get(),
        );
        snap.put_histogram("engine.phase.reserve_ns", self.reserve_ns.snapshot());
        snap.put_histogram("engine.phase.route_ns", self.route_ns.snapshot());
        snap.put_histogram("engine.phase.checkout_ns", self.checkout_ns.snapshot());
        snap.put_histogram("engine.phase.analyze_ns", self.analyze_ns.snapshot());
        snap.put_histogram("engine.phase.settle_ns", self.settle_ns.snapshot());
        snap.put_histogram("engine.phase.fsync_ns", self.fsync_ns.snapshot());
        snap.put_histogram(
            "engine.sync.batch_epochs",
            self.sync_batch_epochs.snapshot(),
        );
        snap
    }
}
