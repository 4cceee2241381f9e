//! Self-tests for the model checker: each validator is exercised with a
//! known-good and a known-bad scenario, so the engine's model suite can
//! trust a clean report.

use hsched_check::sync::{AtomicBool, AtomicU64, Condvar, Mutex};
use hsched_check::{explore, thread, Config, LockClass, Report};
use std::sync::atomic::Ordering;

fn quick() -> Config {
    Config {
        max_interleavings: 50_000,
        max_seconds: 60,
        ..Config::default()
    }
}

#[test]
fn mutex_provides_mutual_exclusion_in_every_interleaving() {
    let stats = explore(&quick(), || {
        let cell = Mutex::new((0u32, false));
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut g = cell.lock().unwrap();
                    assert!(!g.1, "two threads inside the critical section");
                    g.1 = true;
                    g.0 += 1;
                    g.1 = false;
                });
            }
        });
        assert_eq!(cell.lock().unwrap().0, 2);
    });
    assert!(stats.reports.is_empty(), "reports: {:?}", stats.reports);
    assert!(stats.exhausted, "tiny space must exhaust: {stats:?}");
    assert!(
        stats.interleavings > 1,
        "exploration found only one interleaving"
    );
}

#[test]
fn misordered_acquisition_reports_cycle_naming_both_classes() {
    let outer = LockClass::ranked("outer", 1, 0);
    let inner = LockClass::ranked("inner", 2, 0);
    let stats = explore(&quick(), move || {
        let a = Mutex::with_class(outer.clone(), ());
        let b = Mutex::with_class(inner.clone(), ());
        thread::scope(|s| {
            s.spawn(|| {
                let _a = a.lock().unwrap();
                let _b = b.lock().unwrap();
            });
            // Inverted order: acquires `outer` while holding `inner`.
            let _b = b.lock().unwrap();
            let _a = a.lock().unwrap();
        });
    });
    let cycle = stats
        .reports
        .iter()
        .find_map(|r| match r {
            Report::LockOrder { acquired, held, .. } => Some((acquired.clone(), held.clone())),
            _ => None,
        })
        .expect("inverted acquisition must produce a lock-order report");
    assert!(
        cycle.0.contains("outer") && cycle.1.contains("inner"),
        "cycle must name both lock classes, got {cycle:?}"
    );
    assert!(stats.failing_schedule.is_some());
}

#[test]
fn release_acquire_pair_is_race_free() {
    let stats = explore(&quick(), || {
        let flag = AtomicBool::named("flag", false);
        let data = AtomicU64::named("data", 0);
        thread::scope(|s| {
            s.spawn(|| {
                data.store(42, Ordering::Release);
                flag.store(true, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) {
                // The acquire load synchronized with the release store.
                let _ = data.load(Ordering::Acquire);
            }
        });
    });
    assert!(stats.reports.is_empty(), "reports: {:?}", stats.reports);
    assert!(stats.exhausted);
}

#[test]
fn relaxed_publication_is_reported_as_race() {
    // Same shape as above, but the writer publishes with a non-release
    // store: the reader's load can observe it with no happens-before
    // edge, which is exactly the regression the checker must flag.
    let stats = explore(&quick(), || {
        let cell = AtomicU64::named("issued_weak", 0);
        thread::scope(|s| {
            s.spawn(|| {
                cell.store(1, Ordering::Relaxed);
            });
            let _ = cell.load(Ordering::Acquire);
        });
    });
    let race = stats
        .reports
        .iter()
        .find(|r| matches!(r, Report::Race { .. }));
    let Some(Report::Race {
        cell, writer_ord, ..
    }) = race
    else {
        panic!("relaxed publication must race, got {:?}", stats.reports);
    };
    assert_eq!(cell, "issued_weak");
    assert_eq!(writer_ord, "Relaxed");
}

#[test]
fn fetch_add_acqrel_tickets_are_race_free_and_dense() {
    let stats = explore(&quick(), || {
        let counter = AtomicU64::named("tickets", 0);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _t = counter.fetch_add(1, Ordering::AcqRel) + 1;
                });
            }
        });
        assert_eq!(counter.load(Ordering::Acquire), 2);
    });
    assert!(stats.reports.is_empty(), "reports: {:?}", stats.reports);
    assert!(stats.exhausted);
}

#[test]
fn missed_wakeup_is_detected_as_deadlock() {
    // The classic lost-wakeup bug: the waiter parks without a predicate
    // to re-check, so if the notifier signals *before* the wait starts,
    // the signal lands in an empty queue and the waiter sleeps forever.
    // Some interleaving must deadlock, and the checker must name the
    // parked thread and its condvar.
    let stats = explore(&quick(), || {
        let state = Mutex::with_class(LockClass::ranked("state", 1, 0), ());
        let cv = Condvar::named("state_changed");
        thread::scope(|s| {
            s.spawn(|| {
                let g = state.lock().unwrap();
                // BUG under test: unconditional wait — an early notify
                // is lost and nothing will ever signal again.
                let _g = cv.wait(g).unwrap();
            });
            cv.notify_one();
        });
    });
    let deadlock = stats
        .reports
        .iter()
        .find(|r| matches!(r, Report::Deadlock { .. }));
    let Some(Report::Deadlock { blocked, .. }) = deadlock else {
        panic!("lost wakeup must deadlock some interleaving: {stats:?}");
    };
    assert!(
        blocked.iter().any(|b| b.contains("state_changed")),
        "deadlock report must name the condvar: {blocked:?}"
    );
}

#[test]
fn condvar_wait_holding_second_lock_is_reported() {
    let stats = explore(&quick(), || {
        let extra = Mutex::with_class(LockClass::ranked("extra", 1, 0), ());
        let state = Mutex::with_class(LockClass::ranked("state", 2, 0), false);
        let cv = Condvar::named("state_changed");
        thread::scope(|s| {
            s.spawn(|| {
                let _extra = extra.lock().unwrap();
                let g = state.lock().unwrap();
                if !*g {
                    // Sleeping while still holding `extra`.
                    let _g = cv.wait(g).unwrap();
                }
            });
            {
                let mut g = state.lock().unwrap();
                *g = true;
            }
            cv.notify_all();
        });
    });
    let hold = stats
        .reports
        .iter()
        .find(|r| matches!(r, Report::CondvarHold { .. }));
    let Some(Report::CondvarHold { also_held, .. }) = hold else {
        panic!("waiting with a second lock held must be reported: {stats:?}");
    };
    assert!(also_held.iter().any(|h| h.contains("extra")));
}

#[test]
fn thread_panic_is_reported_not_hung() {
    let stats = explore(&quick(), || {
        let cell = Mutex::new(0u32);
        thread::scope(|s| {
            s.spawn(|| {
                let _g = cell.lock().unwrap();
                if true {
                    panic!("injected failure");
                }
            });
        });
        // The poisoning panic must not leak into later acquisitions:
        // shim locks never return Err.
        let _g = cell.lock().unwrap();
    });
    assert!(
        stats
            .reports
            .iter()
            .any(|r| matches!(r, Report::Panic { message, .. } if message.contains("injected"))),
        "panics inside model threads must be reported: {stats:?}"
    );
}

#[test]
fn shims_pass_through_outside_explorations() {
    // No execution active: the shims must behave as the real primitives.
    let cell = Mutex::new(5u32);
    *cell.lock().unwrap() += 1;
    let counter = AtomicU64::new(0);
    counter.fetch_add(3, Ordering::AcqRel);
    assert_eq!(counter.load(Ordering::Acquire), 3);
    let flag = AtomicBool::new(false);
    assert!(!flag.swap(true, Ordering::AcqRel));
    std::thread::scope(|s| {
        s.spawn(|| {
            *cell.lock().unwrap() += 1;
        });
    });
    assert_eq!(*cell.lock().unwrap(), 7);
}
