//! The analysis allocates per fixpoint, not per task analysis: a holistic
//! fixpoint owns its hp sets, step tables and scenario scratch in a few
//! pools, filled on first use and kept by every later sweep. So a Jacobi
//! sweep allocates the trace row it records, whatever the number of task
//! analyses in it, and a table it rebuilds only appends to two pools.
//!
//! Its own test binary: the counting allocator below is global, and the
//! binary runs this one test.

use hsched_analysis::{analyze_with, AnalysisConfig};
use hsched_transaction::paper_example;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation while
/// `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its pointer and layout unchanged to the
// system allocator, which upholds `GlobalAlloc`'s contract; counting
// touches only an atomic and allocates nothing.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of a Jacobi analysis of `set` capped at `sweeps` sweeps,
/// and the sweeps it ran. The least of three runs: the count is
/// deterministic, and only another thread of the harness could add to it.
fn jacobi_capped(set: &hsched_transaction::TransactionSet, sweeps: usize) -> (u64, usize) {
    let config = AnalysisConfig {
        max_outer_iterations: sweeps,
        ..AnalysisConfig::default()
    };
    let mut least = u64::MAX;
    let mut ran = 0;
    for _ in 0..3 {
        ALLOCATIONS.store(0, Ordering::Relaxed);
        COUNTING.store(true, Ordering::Relaxed);
        let report = analyze_with(set, &config);
        COUNTING.store(false, Ordering::Relaxed);
        least = least.min(ALLOCATIONS.load(Ordering::Relaxed));
        ran = report.expect("the paper system analyzes").iterations();
    }
    (least, ran)
}

/// Allocations the extra sweeps may add beyond their trace rows, all of
/// them together: every table rebuild appends to the phase and value
/// pools, and each of the two outgrows its capacity once (they double).
const SLACK: u64 = 2;

#[test]
fn a_jacobi_sweep_allocates_its_trace_row_and_no_more() {
    // Table 3's system converges in four sweeps; capped at two, and then
    // at four, it runs every sweep it is allowed.
    let set = paper_example::transactions();
    let k = 2;
    let (short, ran_short) = jacobi_capped(&set, k);
    let (long, ran_long) = jacobi_capped(&set, 2 * k);
    assert_eq!((ran_short, ran_long), (k, 2 * k));
    // A trace row is one vector of jitters and one of responses, each an
    // outer vector and a row per transaction. The seven task analyses of a
    // sweep add nothing, and the step table rebuilt in it only grows pools.
    let row = 2 * (set.transactions().len() as u64 + 1);
    assert!(
        long - short <= k as u64 * row + SLACK,
        "{} allocations in {k} more sweeps ({short} at {k}, {long} at {}), \
         budget {k} × {row} + {SLACK}",
        long - short,
        2 * k
    );
}
