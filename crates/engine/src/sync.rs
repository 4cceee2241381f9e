//! The engine's sync facade: the single place the engine names its
//! concurrency primitives.
//!
//! In a normal build this module re-exports `std::sync` unchanged. Under
//! `RUSTFLAGS="--cfg hsched_model"` it swaps in the instrumented shims
//! from `hsched-check`, so the whole front door (routing, core, gate and
//! their condvars) runs inside the model checker's deterministic
//! scheduler with lock-order and deadlock validation. Engine code must
//! construct primitives through the classed helpers below — they carry
//! the documented lock order (routing → core → gate) into the checker;
//! the std build ignores the class arguments entirely.
//!
//! `scripts/lint_concurrency.sh` enforces that no other engine source
//! file names `std::sync` directly.

pub(crate) use std::sync::Arc;

/// The engine's single fault-injection tap (the `hsched-faults` shim
/// rides through this facade like every other concurrency-adjacent
/// primitive). In a normal build it defers to the process-wide fault
/// plan; under `--cfg hsched_model` it is a hard no-op, because the model
/// checker's schedules must stay deterministic — model builds keep their
/// own explicit hook ([`crate::SchedService::fail_next_sync`]) instead.
pub(crate) fn fault(site: hsched_faults::Site) -> bool {
    #[cfg(hsched_model)]
    {
        let _ = site;
        false
    }
    #[cfg(not(hsched_model))]
    {
        hsched_faults::hit(site)
    }
}

#[cfg(not(hsched_model))]
mod imp {
    pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};

    /// The routing state: home maps, claim sets, slot table (rank 1).
    pub(crate) fn routing_lock<T>(value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    /// The service core (rank 2).
    pub(crate) fn core_lock<T>(value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    /// The settle gate (rank 3, the bottom of the order).
    pub(crate) fn gate_lock<T>(value: T) -> Mutex<T> {
        Mutex::new(value)
    }

    /// A named condvar.
    pub(crate) fn condvar(_name: &'static str) -> Condvar {
        Condvar::new()
    }
}

#[cfg(hsched_model)]
mod imp {
    pub(crate) use hsched_check::sync::{Condvar, Mutex, MutexGuard};
    use hsched_check::LockClass;

    pub(crate) fn routing_lock<T>(value: T) -> Mutex<T> {
        Mutex::with_class(LockClass::ranked("routing", 1, 0), value)
    }

    pub(crate) fn core_lock<T>(value: T) -> Mutex<T> {
        Mutex::with_class(LockClass::ranked("core", 2, 0), value)
    }

    pub(crate) fn gate_lock<T>(value: T) -> Mutex<T> {
        Mutex::with_class(LockClass::ranked("gate", 3, 0), value)
    }

    pub(crate) fn condvar(name: &'static str) -> Condvar {
        Condvar::named(name)
    }
}

pub(crate) use imp::*;
