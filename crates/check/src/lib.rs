//! `hsched-check` — a dependency-free, loom-style concurrency model
//! checker for the service front door.
//!
//! The engine's concurrent protocol (one-lock routing, shard checkout,
//! ticketed settle, group-committed fsync) is verified here by
//! *exhaustive bounded exploration* instead of stress sampling:
//!
//! * **Deterministic cooperative scheduler** ([`explore`]): model
//!   threads are real OS threads, but exactly one runs at a time; every
//!   instrumented operation is a yield point. A DFS over the resulting
//!   decision tree enumerates distinct interleavings, bounded by a
//!   preemption budget ([`Config::preemption_bound`]). Failing
//!   executions print a schedule string that [`replay`] reproduces
//!   bit-for-bit.
//! * **Lock-order validation** ([`LockClass`]): every acquisition is
//!   checked against the documented partial order (for the engine:
//!   routing → core → gate); violations report the offending cycle with
//!   both lock classes named. Condvar waits are additionally checked to
//!   hold nothing but the mutex they sleep on.
//! * **Vector-clock race detection** over the atomic shims: execution is
//!   sequentially consistent, and every load is checked to observe its
//!   store through a happens-before edge or a release/acquire pair — so
//!   an ordering weakened below a documented contract is flagged even
//!   though the interleaving itself still "worked". (The engine's front
//!   door now keeps all of its state under locks, so only this crate's
//!   self-tests exercise the atomic shims.)
//! * **Deadlock / lost-wakeup detection**: a state where no thread is
//!   runnable but some are blocked aborts the execution with a report
//!   naming what each thread is blocked on. `notify_one` against an
//!   empty wait queue is lost, exactly like the real primitive, so
//!   missed-wakeup windows surface as deadlocks.
//!
//! The engine compiles against these shims only under
//! `--cfg hsched_model` (see `crates/engine/src/sync.rs`); this crate
//! itself is an ordinary dependency-free library, fully exercised by its
//! own tier-1 test suite.
//!
//! ```
//! use hsched_check::{explore, sync::Mutex, thread, Config};
//!
//! let stats = explore(&Config::default(), || {
//!     let cell = Mutex::new(0u32);
//!     thread::scope(|s| {
//!         s.spawn(|| *cell.lock().unwrap() += 1);
//!         *cell.lock().unwrap() += 1;
//!     });
//!     assert_eq!(*cell.lock().unwrap(), 2);
//! });
//! assert!(stats.exhausted && stats.reports.is_empty());
//! ```

#![warn(missing_docs)]

mod clock;
pub mod order;
pub mod report;
mod sched;
pub mod sync;
pub mod thread;

pub use order::LockClass;
pub use report::Report;
pub use sched::{explore, replay, Config, Stats};
