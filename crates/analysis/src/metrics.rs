//! Analysis-layer telemetry: per-task analyses, interference evaluations,
//! step tables built and fixpoint iteration counts, recorded into
//! always-on relaxed atomics.
//!
//! A sink is attached through [`crate::AnalysisConfig::metrics`]; since
//! the config is cloned into every island/cone analysis, one shared
//! [`AnalysisMetrics`] (behind an `Arc`) observes every fixpoint a
//! controller — or a whole sharded service — runs, without any
//! coordination beyond the atomics themselves.

use hsched_telemetry::{Counter, Histogram, MetricsSnapshot};

/// Shared counters and distributions for the analysis hot path. All
/// recording is relaxed-atomic; reading ([`AnalysisMetrics::snapshot`])
/// never blocks an analysis in flight.
#[derive(Debug, Default)]
pub struct AnalysisMetrics {
    /// Per-task analyses the holistic fixpoints ran (calls of the
    /// per-task response-time analysis): deterministic work, which a
    /// Gauss-Seidel sweep cuts by skipping tasks whose reads did not change.
    pub fixpoint_task_analyses: Counter,
    /// Interference evaluations of the inner (busy-period and
    /// completion-time) fixpoints: each sums Eq. (16)'s demand at one
    /// busy-window length.
    pub interference_evaluations: Counter,
    /// Step tables of foreign interference built (`W*_i` of Eq. 15, one
    /// per foreign transaction and hp set, rebuilt when the states of its
    /// members move).
    pub interference_tables: Counter,
    /// Outer holistic sweeps per warm-started fixpoint (resumed from a
    /// previous converged state). Gauss-Seidel runs one dependency-ordered
    /// sweep that repeats each component until it settles, so its
    /// fixpoints record 1 and their work shows in
    /// [`Self::fixpoint_task_analyses`].
    pub fixpoint_iterations_warm: Histogram,
    /// Outer holistic sweeps per cold fixpoint, counted as for
    /// [`Self::fixpoint_iterations_warm`].
    pub fixpoint_iterations_cold: Histogram,
}

impl AnalysisMetrics {
    /// A fresh sink with all metrics at zero.
    pub fn new() -> AnalysisMetrics {
        AnalysisMetrics::default()
    }

    /// Point-in-time snapshot under `analysis.*` names.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.put_counter(
            "analysis.fixpoint.task_analyses",
            self.fixpoint_task_analyses.get(),
        );
        snap.put_counter(
            "analysis.interference.evaluations",
            self.interference_evaluations.get(),
        );
        snap.put_counter(
            "analysis.interference.tables",
            self.interference_tables.get(),
        );
        snap.put_histogram(
            "analysis.fixpoint.iterations_warm",
            self.fixpoint_iterations_warm.snapshot(),
        );
        snap.put_histogram(
            "analysis.fixpoint.iterations_cold",
            self.fixpoint_iterations_cold.snapshot(),
        );
        snap
    }
}
