//! Drop-in instrumented replacements for the `std::sync` primitives the
//! engine's front door uses.
//!
//! Outside an exploration every shim is a thin passthrough to the real
//! primitive (so code compiled against the shims still runs normally —
//! e.g. the non-model tests of a `--cfg hsched_model` build). Inside an
//! exploration every operation is a scheduler yield point: the model
//! serializes all threads, so the *inner* std primitives never contend;
//! they exist to hold the data and keep guard lifetimes honest.
//!
//! Lock APIs return [`LockResult`] like std, but never a poisoned `Err`
//! — the checker records panics as reports instead of propagating
//! poison.

use crate::order::LockClass;
use crate::sched::current;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool as StdAtomicBool, AtomicU64 as StdAtomicU64, Ordering};
use std::sync::{Condvar as StdCondvar, LockResult, PoisonError};
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard};

fn acquires(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn releases(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn ord_name(ord: Ordering) -> &'static str {
    match ord {
        Ordering::SeqCst => "SeqCst",
        Ordering::AcqRel => "AcqRel",
        Ordering::Acquire => "Acquire",
        Ordering::Release => "Release",
        _ => "Relaxed",
    }
}

// ---- Mutex ------------------------------------------------------------

/// A mutex whose acquisitions become scheduler yield points and are
/// validated against its [`LockClass`] when run under [`crate::explore`].
pub struct Mutex<T> {
    class: LockClass,
    slot: StdAtomicU64,
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// An order-unranked mutex (still race- and deadlock-checked).
    pub fn new(value: T) -> Mutex<T> {
        Mutex::with_class(LockClass::unranked("mutex"), value)
    }

    /// A mutex at a documented position in the acquisition order.
    pub fn with_class(class: LockClass, value: T) -> Mutex<T> {
        Mutex {
            class,
            slot: StdAtomicU64::new(0),
            inner: StdMutex::new(value),
        }
    }

    /// Acquires the mutex. Always `Ok`; see the module docs on poisoning.
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let model = current();
        if let Some((exec, me)) = &model {
            exec.mutex_lock(*me, &self.slot, &self.class);
        }
        let std = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(MutexGuard {
            lock: self,
            std: Some(std),
            model,
        })
    }

    /// Direct access through an exclusive borrow — no locking, no model
    /// traffic (mirrors `std::sync::Mutex::get_mut`).
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        Ok(self.inner.get_mut().unwrap_or_else(PoisonError::into_inner))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        Ok(self
            .inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner))
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex")
            .field("class", &self.class.name)
            .finish_non_exhaustive()
    }
}

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    std: Option<StdMutexGuard<'a, T>>,
    model: Option<(std::sync::Arc<crate::sched::Execution>, usize)>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard taken")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_mut().expect("guard taken")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Model release first, real unlock second: the token is held
        // through both, so no other model thread can race the window.
        if let Some((exec, me)) = self.model.take() {
            exec.unlock(me, &self.lock.slot);
        }
        self.std = None;
    }
}

// ---- Condvar ----------------------------------------------------------

/// A condition variable with FIFO wakeups under the model (a
/// `notify_one` with no waiter is lost, like the real primitive).
pub struct Condvar {
    name: &'static str,
    slot: StdAtomicU64,
    inner: StdCondvar,
}

impl Condvar {
    /// An anonymous condvar.
    pub fn new() -> Condvar {
        Condvar::named("condvar")
    }

    /// A condvar with a name used in deadlock reports.
    pub fn named(name: &'static str) -> Condvar {
        Condvar {
            name,
            slot: StdAtomicU64::new(0),
            inner: StdCondvar::new(),
        }
    }

    /// Releases the guard's mutex, sleeps until notified, re-acquires.
    /// The checker validates that no *other* lock is held across the
    /// sleep.
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match guard.model.take() {
            None => {
                let std = guard.std.take().expect("guard taken");
                let lock = guard.lock;
                drop(guard);
                let std = self.inner.wait(std).unwrap_or_else(PoisonError::into_inner);
                Ok(MutexGuard {
                    lock,
                    std: Some(std),
                    model: None,
                })
            }
            Some((exec, me)) => {
                let lock = guard.lock;
                exec.cv_wait_release(me, &self.slot, self.name, &lock.slot);
                guard.std = None; // real unlock, still holding the token
                drop(guard);
                exec.cv_wait_block(me);
                lock.lock()
            }
        }
    }

    /// Wakes one waiter (FIFO under the model).
    pub fn notify_one(&self) {
        match current() {
            None => self.inner.notify_one(),
            Some((exec, me)) => exec.cv_notify(me, &self.slot, self.name, false),
        }
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        match current() {
            None => self.inner.notify_all(),
            Some((exec, me)) => exec.cv_notify(me, &self.slot, self.name, true),
        }
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

// ---- atomics ----------------------------------------------------------

/// An `AtomicU64` whose accesses are yield points with vector-clock
/// happens-before validation under the model. Execution is sequentially
/// consistent; the validator flags loads that *observe* a store without
/// an HB edge or a release/acquire pair — i.e. any ordering weakened
/// below the documented contract.
pub struct AtomicU64 {
    name: &'static str,
    slot: StdAtomicU64,
    inner: StdAtomicU64,
}

impl AtomicU64 {
    /// An anonymous cell.
    pub const fn new(value: u64) -> AtomicU64 {
        AtomicU64::named("atomic_u64", value)
    }

    /// A cell named for race reports.
    pub const fn named(name: &'static str, value: u64) -> AtomicU64 {
        AtomicU64 {
            name,
            slot: StdAtomicU64::new(0),
            inner: StdAtomicU64::new(value),
        }
    }

    /// Loads the value.
    pub fn load(&self, ord: Ordering) -> u64 {
        if let Some((exec, me)) = current() {
            exec.atomic_load(me, &self.slot, self.name, acquires(ord), ord_name(ord));
            self.inner.load(Ordering::SeqCst)
        } else {
            self.inner.load(ord)
        }
    }

    /// Stores a value.
    pub fn store(&self, value: u64, ord: Ordering) {
        if let Some((exec, me)) = current() {
            exec.atomic_store(me, &self.slot, self.name, releases(ord), ord_name(ord));
            self.inner.store(value, Ordering::SeqCst);
        } else {
            self.inner.store(value, ord);
        }
    }

    /// Adds to the value, returning the previous value.
    pub fn fetch_add(&self, value: u64, ord: Ordering) -> u64 {
        if let Some((exec, me)) = current() {
            exec.atomic_rmw(
                me,
                &self.slot,
                self.name,
                acquires(ord),
                releases(ord),
                ord_name(ord),
            );
            self.inner.fetch_add(value, Ordering::SeqCst)
        } else {
            self.inner.fetch_add(value, ord)
        }
    }
}

impl fmt::Debug for AtomicU64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicU64")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// An `AtomicBool` under the same instrumentation as [`AtomicU64`].
pub struct AtomicBool {
    name: &'static str,
    slot: StdAtomicU64,
    inner: StdAtomicBool,
}

impl AtomicBool {
    /// An anonymous cell.
    pub const fn new(value: bool) -> AtomicBool {
        AtomicBool::named("atomic_bool", value)
    }

    /// A cell named for race reports.
    pub const fn named(name: &'static str, value: bool) -> AtomicBool {
        AtomicBool {
            name,
            slot: StdAtomicU64::new(0),
            inner: StdAtomicBool::new(value),
        }
    }

    /// Loads the value.
    pub fn load(&self, ord: Ordering) -> bool {
        if let Some((exec, me)) = current() {
            exec.atomic_load(me, &self.slot, self.name, acquires(ord), ord_name(ord));
            self.inner.load(Ordering::SeqCst)
        } else {
            self.inner.load(ord)
        }
    }

    /// Stores a value.
    pub fn store(&self, value: bool, ord: Ordering) {
        if let Some((exec, me)) = current() {
            exec.atomic_store(me, &self.slot, self.name, releases(ord), ord_name(ord));
            self.inner.store(value, Ordering::SeqCst);
        } else {
            self.inner.store(value, ord);
        }
    }

    /// Swaps in a new value, returning the previous one.
    pub fn swap(&self, value: bool, ord: Ordering) -> bool {
        if let Some((exec, me)) = current() {
            exec.atomic_rmw(
                me,
                &self.slot,
                self.name,
                acquires(ord),
                releases(ord),
                ord_name(ord),
            );
            self.inner.swap(value, Ordering::SeqCst)
        } else {
            self.inner.swap(value, ord)
        }
    }
}

impl fmt::Debug for AtomicBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicBool")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}
