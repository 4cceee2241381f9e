//! The admission request vocabulary: what can arrive, depart, or change
//! between two analysis epochs, and how the controller answers.

use hsched_model::ComponentClass;
use hsched_numeric::{Rational, Time};
use hsched_platform::PlatformId;
use hsched_transaction::Transaction;
use std::fmt;

/// One requested change to the running system. Requests are applied in
/// batch order within an epoch; the whole batch is admitted or rejected
/// atomically.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionRequest {
    /// A new transaction arrives (already flattened: an event stream with a
    /// task chain mapped onto existing platforms). Rejected structurally if
    /// a transaction of the same name is already live.
    AddTransaction(Transaction),
    /// The named transaction departs.
    RemoveTransaction {
        /// Name of the live transaction to retire.
        name: String,
    },
    /// Re-dimension a platform's linear service parameters `(α, Δ, β)` in
    /// place — e.g. a reservation renegotiated at runtime. Tasks reference
    /// platforms by id, so nothing else moves.
    Retune {
        /// The platform to retune.
        platform: PlatformId,
        /// New rate α (0 < α ≤ 1).
        alpha: Rational,
        /// New worst-case service delay Δ ≥ 0.
        delta: Time,
        /// New burstiness β ≥ 0.
        beta: Time,
    },
    /// A whole component instance arrives: the class's periodic threads
    /// (and, per policy, its unbound provided methods) flatten into
    /// transactions tagged with the instance, so the instance can later
    /// depart as a unit. The class must be self-contained (no required
    /// methods) — cross-component bindings cannot be admitted atomically
    /// with a single instance — and must flatten to at least one
    /// transaction: an instance reaches the analysis only through its
    /// transactions, so one with none is rejected as structural.
    AddInstance {
        /// Unique instance name.
        name: String,
        /// The component class to instantiate.
        class: ComponentClass,
        /// Platform hosting the instance's threads.
        platform: PlatformId,
        /// Physical node (RPC locality).
        node: usize,
    },
    /// The named component instance departs with all its transactions.
    RemoveInstance {
        /// Name given at [`AdmissionRequest::AddInstance`] time.
        name: String,
    },
}

impl AdmissionRequest {
    /// `true` for requests that can only *add* interference (arrivals).
    /// A batch of purely additive requests allows the controller to
    /// warm-start the holistic fixpoint from the previous epoch's converged
    /// jitters (see `hsched_analysis::WarmStart` for why that is exact).
    pub fn is_additive(&self) -> bool {
        matches!(
            self,
            AdmissionRequest::AddTransaction(_) | AdmissionRequest::AddInstance { .. }
        )
    }
}

impl fmt::Display for AdmissionRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionRequest::AddTransaction(tx) => write!(f, "add transaction `{}`", tx.name),
            AdmissionRequest::RemoveTransaction { name } => {
                write!(f, "remove transaction `{name}`")
            }
            AdmissionRequest::Retune {
                platform,
                alpha,
                delta,
                beta,
            } => write!(f, "retune {platform} to (α={alpha}, Δ={delta}, β={beta})"),
            AdmissionRequest::AddInstance {
                name,
                class,
                platform,
                ..
            } => write!(f, "add instance `{name}` : {} on {platform}", class.name),
            AdmissionRequest::RemoveInstance { name } => write!(f, "remove instance `{name}`"),
        }
    }
}

/// Why a batch was turned away. The controller's state after any rejection
/// is byte-identical to its state before the batch.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// A request referenced something that does not exist, collided with a
    /// live name, or violated a model invariant.
    Structural(String),
    /// The necessary utilization condition `U_k ≤ α_k` failed — rejected
    /// before running any fixpoint.
    Overload {
        /// Names of the overloaded platforms.
        platforms: Vec<String>,
    },
    /// An island the batch touches misses deadlines after the change (or
    /// its fixpoint diverged).
    Unschedulable {
        /// Names of the transactions that would miss their deadline.
        misses: Vec<String>,
    },
    /// The analysis aborted (scenario cap, iteration cap).
    Analysis(String),
    /// The batch's numbers leave exact 128-bit arithmetic: the utilization
    /// precheck's sum overflowed, or the analysis refused a group whose
    /// integer grid could leave `i128` (`AnalysisError::Numeric`).
    Numeric(String),
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::Structural(m) => write!(f, "structural: {m}"),
            RejectReason::Overload { platforms } => {
                write!(f, "overload on {}", platforms.join(", "))
            }
            RejectReason::Unschedulable { misses } => {
                write!(f, "unschedulable: {}", misses.join(", "))
            }
            RejectReason::Analysis(m) => write!(f, "analysis error: {m}"),
            RejectReason::Numeric(m) => write!(f, "numeric overflow: {m}"),
        }
    }
}

/// The controller's answer for one epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The batch is live; the controller's state includes it.
    Admitted,
    /// The batch was rolled back.
    Rejected(RejectReason),
}

impl Verdict {
    /// `true` when the batch was admitted.
    pub fn admitted(&self) -> bool {
        matches!(self, Verdict::Admitted)
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Admitted => write!(f, "admitted"),
            Verdict::Rejected(reason) => write!(f, "rejected ({reason})"),
        }
    }
}

/// What one call to [`crate::AdmissionController::commit`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochOutcome {
    /// Epoch sequence number (1-based; every commit, admitted or not,
    /// consumes an epoch).
    pub epoch: u64,
    /// Admitted or rejected-with-reason.
    pub verdict: Verdict,
    /// Number of requests in the batch.
    pub requests: usize,
    /// Transactions actually re-analyzed (the dirty cone).
    pub analyzed_transactions: usize,
    /// Transactions live after request application (dirty + clean).
    pub total_transactions: usize,
    /// Independent interference cones the dirty set split into (analyzed
    /// one after another; at most one per platform-sharing island, usually
    /// finer).
    pub islands: usize,
    /// Whether any cone's members were warm-seeded from the previous
    /// epoch's fixpoint (purely additive batches; pinning *outside* the
    /// cone happens on every dirty-tracked epoch and is not flagged here).
    pub warm_started: bool,
}

impl fmt::Display for EpochOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {}: {} ({} request(s), analyzed {}/{} transactions in {} island(s){})",
            self.epoch,
            self.verdict,
            self.requests,
            self.analyzed_transactions,
            self.total_transactions,
            self.islands,
            if self.warm_started { ", warm" } else { "" }
        )
    }
}
