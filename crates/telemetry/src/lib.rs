//! Always-on telemetry primitives for the hsched stack.
//!
//! Every layer of the service — engine phase timers, front-door contention
//! counters, journal accounting, RTA cache hit rates — records into these
//! types on its hot paths, so the design goals are fixed by that use:
//!
//! * **Never a lock, never a syscall.** [`Counter`] and [`Histogram`] are
//!   plain relaxed atomics. Recording is a handful of `fetch_add`s; reading
//!   ([`Histogram::snapshot`]) is a racy-but-consistent-enough sweep that
//!   never blocks a writer. The per-record cost is tens of nanoseconds,
//!   which is what lets the service keep telemetry on unconditionally.
//! * **Bounded memory.** A histogram is 67 atomics regardless of how many
//!   values it absorbs: values land in log₂ buckets (bucket *k* covers
//!   `[2^(k-1), 2^k)`), which is plenty of resolution for latency
//!   distributions spanning nanoseconds to seconds.
//! * **Mergeable.** [`MetricsSnapshot`] is a named bag of counter values
//!   and [`HistogramSnapshot`]s with a commutative [`MetricsSnapshot::merge`],
//!   so per-shard or per-layer snapshots fold into one service-wide view
//!   without coordination.
//!
//! Quantiles ([`HistogramSnapshot::quantile`]) are upper-bound estimates:
//! the reported value is the ceiling of the bucket holding the requested
//! rank, clamped to the exact observed maximum. For a single recorded
//! value every quantile is exact.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of histogram buckets: one for zero, one per power of two up to
/// `2^63`, and a final bucket for everything at or above `2^63`.
pub const BUCKETS: usize = 65;

/// The bucket a value lands in: `0` for zero, otherwise
/// `floor(log2(value)) + 1`, so bucket `k ≥ 1` covers `[2^(k-1), 2^k)`
/// (the last bucket, 64, covers `[2^63, u64::MAX]`).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The largest value bucket `index` can hold (`0` for bucket 0,
/// `2^index - 1` in general, [`u64::MAX`] for the last bucket).
pub fn bucket_ceiling(index: usize) -> u64 {
    match index {
        0 => 0,
        64.. => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

/// A monotone event counter: relaxed atomic increments, safe to share
/// across any number of recording threads.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A log₂-bucketed value distribution (typically latencies in
/// nanoseconds): lock-free recording into [`BUCKETS`] relaxed atomics plus
/// an exact running sum and maximum.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records the time elapsed since `start`, in nanoseconds (saturating
    /// at [`u64::MAX`] — ~584 years).
    pub fn record_since(&self, start: Instant) {
        self.record(elapsed_ns(start));
    }

    /// A point-in-time copy of the distribution. Concurrent recorders may
    /// land between the field reads — each bucket is exact, the total is
    /// within a few in-flight records of the truth, which is all a
    /// monitoring read needs.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut count = 0u64;
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
            count += *slot;
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot();
        write!(f, "Histogram(count={}, max={})", snap.count, snap.max)
    }
}

/// Nanoseconds since `start`, saturating at [`u64::MAX`].
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An immutable copy of a [`Histogram`]: bucket counts, exact sum and
/// maximum, and quantile summaries. Snapshots merge commutatively.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// A snapshot of nothing.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Reassembles a snapshot from its parts — the inverse of reading
    /// `sum()`/`max()`/`bucket(i)`, used to reconstruct histograms shipped
    /// over a wire (`hsched stats --remote`). `counts` holds the per-bucket
    /// counts starting at bucket 0; missing trailing buckets read as zero,
    /// extras beyond [`BUCKETS`] are ignored. The total count is the bucket
    /// sum, exactly as recording would have left it.
    pub fn from_parts(sum: u64, max: u64, counts: &[u64]) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::empty();
        for (bucket, &n) in snap.buckets.iter_mut().zip(counts.iter()) {
            *bucket = n;
            snap.count += n;
        }
        snap.sum = sum;
        snap.max = max;
        snap
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (wrapping on `u64` overflow — far
    /// beyond any realistic latency total).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Count in bucket `index` (see [`bucket_index`]).
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Upper-bound estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// ceiling of the bucket holding the value of that rank, clamped to
    /// the exact observed maximum. Returns 0 for an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_ceiling(index).min(self.max);
            }
        }
        self.max
    }

    /// Median upper bound (see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile upper bound.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other` into this snapshot (bucket-wise sum; max of maxima).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }
}

impl fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p95", &self.p95())
            .field("p99", &self.p99())
            .field("max", &self.max)
            .finish()
    }
}

/// A point-in-time, mergeable view over a set of named metrics: counter
/// values and histogram snapshots keyed by dotted names (e.g.
/// `engine.phase.reserve_ns`). Layers produce their own snapshots and the
/// service [`MetricsSnapshot::merge`]s them into one report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Records a counter value under `name` (added to any existing value,
    /// so repeated inserts behave like a merge).
    pub fn put_counter(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    /// Records a histogram snapshot under `name` (merged into any existing
    /// snapshot).
    pub fn put_histogram(&mut self, name: &str, snapshot: HistogramSnapshot) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(HistogramSnapshot::empty)
            .merge(&snapshot);
    }

    /// The counter under `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram under `name`, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// All counters, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// All histograms, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds `other` into this snapshot: counters add, histograms merge.
    /// Commutative and associative, so any merge order yields the same
    /// totals.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, snapshot) in &other.histograms {
            self.histograms
                .entry(name.clone())
                .or_insert_with(HistogramSnapshot::empty)
                .merge(snapshot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_zero_one_and_max() {
        // The three edges: zero has its own bucket, one starts bucket 1,
        // u64::MAX lands in the final catch-all bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_ceiling(0), 0);
        assert_eq!(bucket_ceiling(1), 1);
        assert_eq!(bucket_ceiling(64), u64::MAX);

        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.bucket(0), 1);
        assert_eq!(s.bucket(1), 1);
        assert_eq!(s.bucket(64), 1);
        assert_eq!(s.count(), 3);
        assert_eq!(s.max(), u64::MAX);
        // The running sum is a wrapping fetch_add: 0 + 1 + u64::MAX wraps to 0.
        assert_eq!(s.sum(), 0u64.wrapping_add(1).wrapping_add(u64::MAX));
    }

    #[test]
    fn bucket_boundaries_exact_powers_of_two() {
        // 2^k opens bucket k+1; 2^k - 1 closes bucket k.
        for k in 0..63u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k as usize + 1, "2^{k}");
            if v > 1 {
                assert_eq!(bucket_index(v - 1), k as usize, "2^{k} - 1");
            }
            assert_eq!(bucket_ceiling(k as usize + 1), {
                if k as usize + 1 >= 64 {
                    u64::MAX
                } else {
                    (1u64 << (k + 1)) - 1
                }
            });
        }
        assert_eq!(bucket_index(1u64 << 63), 64);
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        for v in [0u64, 1, 2, 1023, 1024, u64::MAX] {
            let h = Histogram::new();
            h.record(v);
            let s = h.snapshot();
            assert_eq!(s.p50(), v, "p50 of single {v}");
            assert_eq!(s.p95(), v, "p95 of single {v}");
            assert_eq!(s.p99(), v, "p99 of single {v}");
            assert_eq!(s.max(), v);
            assert_eq!(s.mean(), v);
        }
    }

    #[test]
    fn quantiles_walk_buckets_in_order() {
        let h = Histogram::new();
        // 90 small values, 10 large: p50 must sit in the small bucket,
        // p99 in the large one.
        for _ in 0..90 {
            h.record(100); // bucket 7, ceiling 127
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket 20
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50(), 127);
        assert_eq!(s.p99(), 1_000_000); // clamped to the exact max
        assert_eq!(s.max(), 1_000_000);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = Histogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn multithreaded_counters_lose_no_updates() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 100_000;
        let counter = Counter::new();
        let histogram = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let counter = &counter;
                let histogram = &histogram;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        counter.incr();
                        histogram.record((t as u64) * PER_THREAD + i % 1024);
                    }
                });
            }
        });
        assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
        assert_eq!(histogram.snapshot().count(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn snapshot_merge_preserves_totals() {
        let a = Histogram::new();
        let b = Histogram::new();
        for i in 0..1000u64 {
            a.record(i);
            b.record(i * 1000);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 2000);
        assert_eq!(merged.sum(), a.snapshot().sum() + b.snapshot().sum());
        assert_eq!(merged.max(), 999_000);

        let mut left = MetricsSnapshot::new();
        left.put_counter("x", 3);
        left.put_histogram("h", a.snapshot());
        let mut right = MetricsSnapshot::new();
        right.put_counter("x", 4);
        right.put_counter("y", 1);
        right.put_histogram("h", b.snapshot());
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr, rl, "merge is commutative");
        assert_eq!(lr.counter("x"), 7);
        assert_eq!(lr.counter("y"), 1);
        assert_eq!(lr.histogram("h").unwrap().count(), 2000);
    }
}
