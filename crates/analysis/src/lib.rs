//! Schedulability analysis on abstract computing platforms (§3 of the
//! paper): a generalization of holistic / offset-based response-time
//! analysis (Tindell & Clark; Palencia & González Harbour) to tasks served
//! by `(α, Δ, β)` platforms.
//!
//! # Structure
//!
//! * `state` — per-task analysis state: offsets φ (from best-case response
//!   times, Eq. 18) and jitters J;
//! * `interference` — the worst-case contribution `W^k_i` of a transaction
//!   to a busy period (Eqs. 8–11) and the reduced upper bound `W*_i`
//!   (Eq. 15), tabulated as the step function of the busy-window length
//!   it is;
//! * `rta` — the per-task static-offset analysis: exact scenario
//!   enumeration (§3.1.1, Eqs. 12–14) and the reduced-scenario
//!   approximation (§3.1.2, Eq. 16). One fixpoint's analyses share one
//!   step table per foreign transaction and hp set, rebuilt when the
//!   states of its members move, and stop an inner fixpoint once its next
//!   iterate falls inside the current step. The fixpoint owns the hp sets,
//!   the tables and the scenario scratch in a few pools, so a task
//!   analysis allocates nothing but the pools' growth;
//! * `holistic` — the outer dynamic-offset (holistic) fixpoint of §3.2:
//!   jitter propagation `J_{i,j} = R_{i,j−1} − Rbest_{i,j−1}` iterated to
//!   convergence, sweep by sweep (Jacobi) or in dependency order
//!   (Gauss-Seidel), on one thread;
//! * `grid` — the integer grid a fixpoint computes on: its transactions'
//!   and tasks' times and cycles, and the models of the platforms they
//!   use, scaled by the lcm of their denominators, so that the exact
//!   arithmetic of the iteration runs on integers and the report, scaled
//!   back, is exactly the unscaled one; under `LinearBounds`, a set whose
//!   grid could leave `i128` is refused with [`AnalysisError::Numeric`];
//! * `hpgraph` — who reads whom: the interference cone of a change, the
//!   islands a change touches and their parts, every task's hp sets, and
//!   the Gauss-Seidel sweep order;
//! * `report` — the [`SchedulabilityReport`] with the full iteration
//!   trace (reproducing Table 3) and per-transaction verdicts;
//! * [`classic`] — an independent, textbook single-processor
//!   response-time analysis used as a cross-check oracle for the
//!   degenerate `(1, 0, 0)` platform.
//!
//! # Modes
//!
//! The completion-time recurrences of the paper have the shape
//! `w = Δ + demand/α` (Eq. 13): the platform's minimum supply inverted at
//! the accumulated demand. [`ServiceTimeMode::LinearBounds`] reproduces the
//! paper exactly; [`ServiceTimeMode::ExactCurve`] instead inverts the
//! platform's real supply staircase (periodic server, TDMA, …), quantifying
//! the pessimism the paper's §2.3 closing remark concedes — the ablation
//! benchmark `ablation_linear_vs_exact` measures the difference.
//!
//! # Example: the paper's §4 analysis
//!
//! ```
//! use hsched_analysis::analyze;
//! use hsched_transaction::paper_example;
//! use hsched_numeric::rat;
//!
//! let system = paper_example::transactions();
//! let report = analyze(&system);
//! assert!(report.schedulable());
//! // Γ1's end-to-end response: the paper's equations converge to 31
//! // (Table 3 prints 39 for the last iterate; see EXPERIMENTS.md).
//! assert_eq!(report.response(0, 3), rat(31, 1));
//! ```

#![warn(missing_docs)]

pub mod classic;
mod grid;
mod holistic;
mod hpgraph;
mod interference;
mod metrics;
mod report;
mod rta;
mod state;

pub use holistic::{analyze, analyze_resumed, analyze_with, AnalysisError, FrozenSeed, WarmStart};
pub use hpgraph::{DirtyClosure, DirtySeed, HpGraph};
pub use metrics::AnalysisMetrics;
pub use report::{IterationRecord, SchedulabilityReport, TaskResult, TransactionVerdict};
pub use state::{best_case_offsets, TaskState};

use hsched_numeric::{Cycles, Time};
use hsched_platform::Platform;
use hsched_supply::SupplyCurve;

/// How the platform's service is inverted in the completion-time
/// recurrences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceTimeMode {
    /// The paper's linear model: worst case `Δ + demand/α`, best case
    /// `max(0, demand/α − β)`.
    #[default]
    LinearBounds,
    /// Invert the platform's exact supply curves (`Zmin`/`Zmax` of the
    /// underlying mechanism). Less pessimistic for platforms constructed
    /// from a concrete mechanism; identical to `LinearBounds` for platforms
    /// specified directly as `(α, Δ, β)`.
    ExactCurve,
}

/// Scenario treatment for the per-task analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScenarioMode {
    /// §3.1.2: upper-bound every other transaction's contribution by
    /// `W*_i` (Eq. 15) and enumerate only the scenarios of the task's own
    /// transaction. Polynomial, slightly pessimistic. The default.
    #[default]
    Approximate,
    /// §3.1.1: enumerate the full cartesian scenario space of Eq. (12).
    /// Exponential; fails if the scenario count exceeds the given cap.
    Exact {
        /// Upper bound on the number of scenarios per task (Eq. 12) before
        /// the analysis refuses to run.
        max_scenarios: u64,
    },
}

/// Order in which the holistic iteration consumes freshly computed
/// response times.
///
/// Standalone analysis ([`analyze_with`], `hsched analyze`) honours the
/// configured order. Admission (`hsched-admission`) always iterates
/// Gauss-Seidel on one thread per island: it keeps only fixpoint values,
/// never a trace, and the holistic map is monotone, so any fair chaotic
/// order reaches the same least fixpoint from the same start (Cousot &
/// Cousot 1977). Only Table 3's per-sweep trace needs Jacobi.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateOrder {
    /// All tasks analyzed against the previous iteration's jitters, then all
    /// jitters updated together. Reproduces the paper's Table 3 column by
    /// column.
    #[default]
    Jacobi,
    /// One sweep in dependency order that skips tasks whose reads did not
    /// change. A task's analysis reads its own jitter and those of its hp
    /// set; its fresh response sets its successor's jitter at once
    /// (Eq. 18). The sweep visits the strongly connected components of this
    /// read graph in topological order (see [`HpGraph`]) and passes over
    /// each, in set order, until none of its tasks is dirty — reached by a
    /// moved jitter since its last analysis. The result is the same least
    /// fixpoint: re-analyzing a task whose reads did not move reproduces its
    /// result, so skipping it keeps the iteration fair, and a component is
    /// entered only once everything upstream of it has settled (Bourdoncle
    /// 1993), so no task is analyzed against inputs that will still move
    /// from outside its component. Reports one iteration when it converges;
    /// runs sequentially.
    GaussSeidel,
}

/// Analysis configuration.
///
/// Equality compares every *behavioral* knob and ignores
/// [`AnalysisConfig::metrics`]: the sink observes an analysis without
/// affecting any of its results, so two configs that differ only in where
/// they report telemetry are interchangeable (controller merge checks rely
/// on this).
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Linear `(α, Δ, β)` bounds (the paper) or exact supply inversion.
    pub service_mode: ServiceTimeMode,
    /// Approximate (reduced scenarios) or exact analysis.
    pub scenario_mode: ScenarioMode,
    /// Jacobi (paper-faithful trace) or Gauss-Seidel (a dependency-ordered
    /// sweep that skips unchanged tasks); admission overrides it with
    /// Gauss-Seidel (see [`UpdateOrder`]).
    pub update_order: UpdateOrder,
    /// Cap on outer holistic iterations before declaring divergence:
    /// Jacobi sweeps, or Gauss-Seidel passes over one component.
    pub max_outer_iterations: usize,
    /// Cap on inner fixpoint iterations (busy period / completion time).
    pub max_inner_iterations: usize,
    /// Declare a task unschedulable (and stop iterating its growth) once its
    /// response exceeds `divergence_factor ×` its transaction deadline.
    pub divergence_factor: u32,
    /// Per-task blocking terms `B_{a,b}` (time units), indexed like the
    /// transaction set; empty means all zero. The paper carries `B` through
    /// Eq. (13)/(16) without prescribing a protocol; this hook lets callers
    /// plug in blocking from e.g. SRP on each platform.
    pub blocking: Vec<Vec<Time>>,
    /// Optional telemetry sink: per-task analyses, interference
    /// evaluations, step tables built and fixpoint iteration
    /// distributions are recorded here when present (see
    /// [`AnalysisMetrics`]). The config clone handed to every island
    /// analysis shares the sink, so one `Arc` observes a whole
    /// controller's — or service's — analysis traffic. `None` (the
    /// default) records nothing.
    pub metrics: Option<std::sync::Arc<AnalysisMetrics>>,
}

impl PartialEq for AnalysisConfig {
    fn eq(&self, other: &AnalysisConfig) -> bool {
        // `metrics` deliberately excluded — see the type docs.
        self.service_mode == other.service_mode
            && self.scenario_mode == other.scenario_mode
            && self.update_order == other.update_order
            && self.max_outer_iterations == other.max_outer_iterations
            && self.max_inner_iterations == other.max_inner_iterations
            && self.divergence_factor == other.divergence_factor
            && self.blocking == other.blocking
    }
}

impl Default for AnalysisConfig {
    fn default() -> AnalysisConfig {
        AnalysisConfig {
            service_mode: ServiceTimeMode::LinearBounds,
            scenario_mode: ScenarioMode::Approximate,
            update_order: UpdateOrder::Jacobi,
            max_outer_iterations: 256,
            max_inner_iterations: 100_000,
            divergence_factor: 64,
            blocking: Vec::new(),
            metrics: None,
        }
    }
}

impl AnalysisConfig {
    /// Exact scenario enumeration with the given cap.
    pub fn exact(max_scenarios: u64) -> AnalysisConfig {
        AnalysisConfig {
            scenario_mode: ScenarioMode::Exact { max_scenarios },
            ..AnalysisConfig::default()
        }
    }

    /// Blocking term for task `(tx, idx)`; zero when not configured.
    pub(crate) fn blocking_of(&self, tx: usize, idx: usize) -> Time {
        self.blocking
            .get(tx)
            .and_then(|row| row.get(idx))
            .copied()
            .unwrap_or(Time::ZERO)
    }
}

/// Best-case time for `platform` to serve `demand` cycles (pseudo-inverse of
/// Zmax), under the chosen mode.
pub(crate) fn best_service_time(
    platform: &Platform,
    demand: Cycles,
    mode: ServiceTimeMode,
) -> Time {
    match mode {
        ServiceTimeMode::LinearBounds => platform.linear_model().best_case_service(demand),
        ServiceTimeMode::ExactCurve => platform.time_to_supply_max(demand),
    }
}
