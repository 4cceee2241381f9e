//! Analysis-layer telemetry: RTA memo effectiveness, per-task analyses
//! and fixpoint iteration counts, recorded into always-on relaxed atomics.
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
    /// Hits on the per-task foreign-interference memo (`W*` totals per
    /// busy-window length).
    pub rta_foreign_hits: Counter,
    /// Misses on the per-task foreign-interference memo.
    pub rta_foreign_misses: Counter,
    /// Per-task analyses the holistic fixpoints ran (calls of the
    /// per-task response-time analysis): deterministic work, which a
    /// Gauss-Seidel sweep cuts by skipping tasks whose reads did not change.
    pub fixpoint_task_analyses: Counter,
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
            "analysis.rta_cache.foreign_hits",
            self.rta_foreign_hits.get(),
        );
        snap.put_counter(
            "analysis.rta_cache.foreign_misses",
            self.rta_foreign_misses.get(),
        );
        snap.put_counter(
            "analysis.fixpoint.task_analyses",
            self.fixpoint_task_analyses.get(),
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
