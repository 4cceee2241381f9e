//! Exact order statistics over client-side samples, and the window
//! discipline every timing metric goes through: the measured phase is
//! cut into [`WINDOWS`] equal windows, a value is computed per window,
//! and the *median of the window values* is what gets reported — one
//! stalled window (a noisy neighbour, a slow flush) cannot move it.

/// Windows per measured phase.
pub const WINDOWS: usize = 5;
/// The tail percentile every workload reports. Not p99: with one
/// operation in a hundred hitting a slow journal flush, p99 of the
/// lock-step workload sits on the boundary between the fast and the slow
/// mode and moves by 40% between identical runs; p95 is inside the fast
/// mode on every workload.
pub const TAIL: f64 = 0.95;

/// One completed operation as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it completed, nanoseconds since the start of the phase.
    pub at_ns: u64,
    /// Submit → durable reply.
    pub latency_ns: u64,
}

/// Median and quartiles of a handful of window values.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} [q1 {:.4}, q3 {:.4}, n {}]",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// Nearest-rank quantile of an ascending slice (exact: always one of the
/// samples, never an interpolation or a bucket ceiling).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        n: sorted.len(),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Samples a window needs for its own p95: ten beyond the percentile.
const WINDOW_TAIL_SAMPLES: usize = 200;

/// What one measured phase reports.
#[derive(Debug, Clone)]
pub struct PhaseStats {
    /// Operations inside the phase, in total and per window:
    /// [`WINDOWS`] windows, or one when the phase had to be pooled.
    pub ops: usize,
    pub window_ops: Vec<usize>,
    pub throughput_ops_s: Summary,
    pub p50_ms: Summary,
    pub tail_ms: Summary,
    /// `true` when `tail_ms` is the median of per-window p95 values,
    /// `false` when a window held fewer than 200 samples (under ten beyond
    /// its p95) and the p95 of the whole phase was taken instead.
    pub tail_windowed: bool,
}

/// Cuts `samples` into [`WINDOWS`] windows by completion time and
/// summarizes. Samples at or after `phase_ns` are ignored (closed-loop
/// generators stop *issuing* at the deadline, so a few complete late).
///
/// A window in which nothing completed (a stall; a `--quick` phase on a
/// slow disk) has no latency to report: the phase is then summarized as
/// one window. `None` when nothing completed in the whole phase.
pub fn phase_stats(samples: &[Sample], phase_ns: u64) -> Option<PhaseStats> {
    let cut = |count: usize| {
        let mut windows: Vec<Vec<f64>> = vec![Vec::new(); count];
        for s in samples.iter().filter(|s| s.at_ns < phase_ns) {
            let w = (s.at_ns as u128 * count as u128 / phase_ns as u128) as usize;
            windows[w].push(s.latency_ns as f64 / 1e6);
        }
        for w in &mut windows {
            w.sort_by(f64::total_cmp);
        }
        windows
    };
    let mut windows = cut(WINDOWS);
    if windows.iter().any(Vec::is_empty) {
        windows = cut(1);
    }
    let smallest = windows.iter().map(Vec::len).min().unwrap_or(0);
    if smallest == 0 {
        return None;
    }
    let window_s = phase_ns as f64 / 1e9 / windows.len() as f64;
    let tail_windowed = smallest >= WINDOW_TAIL_SAMPLES;
    let per_window = |f: &dyn Fn(&[f64]) -> f64| -> Summary {
        summarize(&windows.iter().map(|w| f(w)).collect::<Vec<_>>())
    };
    Some(PhaseStats {
        ops: windows.iter().map(Vec::len).sum(),
        window_ops: windows.iter().map(Vec::len).collect(),
        throughput_ops_s: per_window(&|w| w.len() as f64 / window_s),
        p50_ms: per_window(&|w| quantile(w, 0.5)),
        tail_ms: if tail_windowed {
            per_window(&|w| quantile(w, TAIL))
        } else {
            let mut all: Vec<f64> = windows.iter().flatten().copied().collect();
            all.sort_by(f64::total_cmp);
            summarize(&[quantile(&all, TAIL)])
        },
        tail_windowed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn windows_split_by_completion_time() {
        let samples: Vec<Sample> = (0..50)
            .map(|i| Sample {
                at_ns: i * 100 + 1,
                latency_ns: 1_000_000 * (1 + i / 10),
            })
            .collect();
        let stats = phase_stats(&samples, 5000).expect("samples in the phase");
        assert_eq!(stats.ops, 50);
        assert_eq!(stats.p50_ms.median, 3.0);
        assert_eq!(stats.p50_ms.n, WINDOWS);
        // Ten samples per window cannot carry a p95 each: the phase is
        // pooled, and the 48th of 50 sorted samples is its p95.
        assert!(!stats.tail_windowed);
        assert_eq!(stats.tail_ms.median, 5.0);
    }

    #[test]
    fn an_empty_window_pools_the_phase() {
        // Nothing completes in the last fifth of the phase.
        let samples: Vec<Sample> = (0..40)
            .map(|i| Sample {
                at_ns: i * 100 + 1,
                latency_ns: 1_000_000 * (1 + i / 10),
            })
            .collect();
        let stats = phase_stats(&samples, 5000).expect("samples in the phase");
        assert_eq!(stats.window_ops, vec![40]);
        assert_eq!(stats.p50_ms.median, 2.0);
        assert_eq!(stats.throughput_ops_s.median, 40.0 / 5e-6);
        assert!(
            phase_stats(&samples, 1).is_none(),
            "nothing inside the phase"
        );
    }
}
