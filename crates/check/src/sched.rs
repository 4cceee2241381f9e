//! The deterministic cooperative scheduler and its DFS explorer.
//!
//! Model threads are real OS threads, but exactly one — the token holder
//! — runs at a time. Every instrumented operation (lock, atomic access,
//! condvar wait, spawn) is a *yield point*: the running thread applies
//! the operation's semantics under the execution's state lock, asks the
//! scheduler which thread runs next, and passes the token. When more
//! than one thread could run, the choice is a *decision point*; the DFS
//! explorer enumerates the alternatives across executions, bounded by a
//! preemption budget (picking a thread other than the current runnable
//! one costs one preemption). The sequence of decision indices is the
//! *schedule*: printable, and replayable bit-for-bit via [`replay`].

use crate::clock::VClock;
use crate::order::{LockClass, UNRANKED};
use crate::report::Report;
use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as AtomOrd};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};
use std::sync::{Once, PoisonError};
use std::time::Instant;

/// Exploration limits for [`explore`].
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum number of preemptions (scheduling a runnable thread other
    /// than the current one) per execution; `None` = unbounded, i.e. full
    /// DFS over every interleaving.
    pub preemption_bound: Option<u32>,
    /// Stop after this many executions even if the schedule space is not
    /// exhausted.
    pub max_interleavings: u64,
    /// Wall-clock cap on the whole exploration, in seconds.
    pub max_seconds: u64,
    /// Return as soon as one execution produces reports (its schedule is
    /// then [`Stats::failing_schedule`]).
    pub stop_on_report: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            preemption_bound: Some(2),
            max_interleavings: 100_000,
            max_seconds: 60,
            stop_on_report: true,
        }
    }
}

impl Config {
    /// [`Config::default`] overridden by the `HSCHED_MODEL_MAX_INTERLEAVINGS`,
    /// `HSCHED_MODEL_MAX_SECONDS`, and `HSCHED_MODEL_PREEMPTION_BOUND`
    /// environment variables when set — how CI keeps the model-check job
    /// inside its wall-clock budget.
    pub fn from_env() -> Config {
        let mut cfg = Config::default();
        if let Some(n) = env_u64("HSCHED_MODEL_MAX_INTERLEAVINGS") {
            cfg.max_interleavings = n;
        }
        if let Some(n) = env_u64("HSCHED_MODEL_MAX_SECONDS") {
            cfg.max_seconds = n;
        }
        if let Some(n) = env_u64("HSCHED_MODEL_PREEMPTION_BOUND") {
            cfg.preemption_bound = Some(n as u32);
        }
        cfg
    }
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|v| v.parse().ok())
}

/// What an exploration (or replay) found.
#[derive(Clone, Debug)]
pub struct Stats {
    /// Distinct executions (interleavings) run.
    pub interleavings: u64,
    /// The bounded schedule space was fully enumerated (nothing left to
    /// try under the configured preemption bound).
    pub exhausted: bool,
    /// Every validator finding, in discovery order.
    pub reports: Vec<Report>,
    /// Schedule string of the first failing execution, if any — feed it
    /// to [`replay`] to reproduce deterministically.
    pub failing_schedule: Option<String>,
}

/// Panic payload used internally to unwind every model thread out of an
/// aborted execution (deadlock detected). Never escapes [`explore`].
pub(crate) struct Abort;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// The execution handle and thread id of the calling model thread, if it
/// is running inside an exploration.
pub(crate) fn current() -> Option<(Arc<Execution>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn set_current(v: Option<(Arc<Execution>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

/// Installs (once, process-wide) a panic hook that silences the
/// checker's internal [`Abort`] unwinds while delegating everything else
/// to the previous hook.
fn install_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<Abort>().is_none() {
                prev(info);
            }
        }));
    });
}

pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum BlockedOn {
    Lock(usize),
    Cv(usize),
    Join(usize),
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    Blocked(BlockedOn),
    Finished,
}

#[derive(Clone, Debug)]
pub(crate) struct Held {
    pub lock: usize,
    pub class: LockClass,
}

pub(crate) struct ModelThread {
    pub status: Status,
    pub clock: VClock,
    pub held: Vec<Held>,
}

impl ModelThread {
    fn new(id: usize) -> ModelThread {
        let mut clock = VClock::default();
        clock.tick(id);
        ModelThread {
            status: Status::Runnable,
            clock,
            held: Vec::new(),
        }
    }
}

pub(crate) struct LockState {
    pub class: LockClass,
    pub holder: Option<usize>,
    pub clock: VClock,
}

pub(crate) struct CvState {
    pub name: &'static str,
    /// FIFO wait queue. A `notify_one` against an empty queue is lost,
    /// exactly like the real primitive — that is the missed-wakeup
    /// hazard the gate generation counter exists to close.
    pub waiters: Vec<usize>,
}

pub(crate) struct LastStore {
    pub thread: usize,
    pub clock: VClock,
    pub release: bool,
    pub ord: &'static str,
}

pub(crate) struct AtomicMeta {
    pub name: &'static str,
    pub last_store: Option<LastStore>,
    /// Join of the clocks of every release-store so far; acquire-loads
    /// join it into their thread clock (the synchronizes-with edge).
    pub cell_clock: VClock,
}

#[derive(Clone, Debug)]
struct DecisionPoint {
    options: Vec<usize>,
    chosen: usize,
}

pub(crate) struct ExecState {
    pub threads: Vec<ModelThread>,
    pub active: usize,
    pub locks: Vec<LockState>,
    pub cvs: Vec<CvState>,
    pub atomics: Vec<AtomicMeta>,
    pub reports: Vec<Report>,
    pub aborted: bool,
    pub generation: u64,
    bound: Option<u32>,
    preemptions: u32,
    script: Vec<usize>,
    cursor: usize,
    trace: Vec<DecisionPoint>,
}

/// One exploration's shared state: the big lock every yield point runs
/// under, and the condvar parked threads sleep on while another thread
/// holds the token.
pub(crate) struct Execution {
    state: StdMutex<ExecState>,
    wake: StdCondvar,
}

type Guard<'a> = StdMutexGuard<'a, ExecState>;

impl Execution {
    fn new(bound: Option<u32>) -> Execution {
        Execution {
            state: StdMutex::new(ExecState {
                threads: Vec::new(),
                active: 0,
                locks: Vec::new(),
                cvs: Vec::new(),
                atomics: Vec::new(),
                reports: Vec::new(),
                aborted: false,
                generation: 0,
                bound,
                preemptions: 0,
                script: Vec::new(),
                cursor: 0,
                trace: Vec::new(),
            }),
            wake: StdCondvar::new(),
        }
    }

    pub(crate) fn lock_state(&self) -> Guard<'_> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers (or re-finds) an object slot for this execution
    /// generation. `slot` packs `(generation + 1) << 32 | (id + 1)` so a
    /// shim object surviving from an earlier execution re-registers
    /// cleanly.
    fn slot_id(
        g: &mut ExecState,
        slot: &AtomicU64,
        alloc: impl FnOnce(&mut ExecState) -> usize,
    ) -> usize {
        let packed = slot.load(AtomOrd::SeqCst);
        let gen = packed >> 32;
        if gen == g.generation + 1 {
            return ((packed & 0xffff_ffff) - 1) as usize;
        }
        let id = alloc(g);
        slot.store((g.generation + 1) << 32 | (id as u64 + 1), AtomOrd::SeqCst);
        id
    }

    fn lock_id(&self, g: &mut ExecState, slot: &AtomicU64, class: &LockClass) -> usize {
        Self::slot_id(g, slot, |g| {
            g.locks.push(LockState {
                class: class.clone(),
                holder: None,
                clock: VClock::default(),
            });
            g.locks.len() - 1
        })
    }

    fn cv_id(&self, g: &mut ExecState, slot: &AtomicU64, name: &'static str) -> usize {
        Self::slot_id(g, slot, |g| {
            g.cvs.push(CvState {
                name,
                waiters: Vec::new(),
            });
            g.cvs.len() - 1
        })
    }

    fn atomic_id(&self, g: &mut ExecState, slot: &AtomicU64, name: &'static str) -> usize {
        Self::slot_id(g, slot, |g| {
            g.atomics.push(AtomicMeta {
                name,
                last_store: None,
                cell_clock: VClock::default(),
            });
            g.atomics.len() - 1
        })
    }

    fn schedule_string(g: &ExecState) -> String {
        schedule_string_parts(g.bound, &g.trace)
    }

    /// The scheduling decision at a yield point: picks the next thread,
    /// records a decision point when there was a real choice, publishes
    /// `active`, and wakes the chosen thread. Does *not* wait — callers
    /// that must regain the token follow up with [`Execution::wait_for_token`].
    fn pick_next(&self, g: &mut Guard<'_>, me: usize) -> usize {
        let runnable: Vec<usize> = g
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect();
        if runnable.is_empty() {
            if g.threads
                .iter()
                .any(|t| matches!(t.status, Status::Blocked(_)))
            {
                self.deadlock(g);
            }
            // Everyone finished: keep the token, nothing to schedule.
            return me;
        }
        let me_runnable = g.threads[me].status == Status::Runnable;
        let default = if me_runnable { me } else { runnable[0] };
        let mut options = vec![default];
        let may_preempt = match g.bound {
            Some(bound) => g.preemptions < bound,
            None => true,
        };
        if !me_runnable || may_preempt {
            options.extend(runnable.iter().copied().filter(|&t| t != default));
        }
        let chosen = if options.len() == 1 {
            default
        } else {
            let idx = if g.cursor < g.script.len() {
                g.script[g.cursor].min(options.len() - 1)
            } else {
                0
            };
            g.cursor += 1;
            g.trace.push(DecisionPoint {
                options: options.clone(),
                chosen: idx,
            });
            options[idx]
        };
        if me_runnable && chosen != me {
            g.preemptions += 1;
        }
        g.active = chosen;
        if chosen != me {
            self.wake.notify_all();
        }
        chosen
    }

    /// Parks the calling thread until the scheduler hands it the token
    /// (or the execution aborts).
    fn wait_for_token<'a>(&'a self, mut g: Guard<'a>, me: usize) -> Guard<'a> {
        loop {
            if g.aborted {
                drop(g);
                panic::panic_any(Abort);
            }
            if g.active == me {
                return g;
            }
            g = self.wake.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A full yield point: schedule, then (if the token moved) park until
    /// it comes back.
    fn reschedule<'a>(&'a self, mut g: Guard<'a>, me: usize) -> Guard<'a> {
        if g.aborted {
            drop(g);
            panic::panic_any(Abort);
        }
        let chosen = self.pick_next(&mut g, me);
        if chosen != me {
            g = self.wait_for_token(g, me);
        }
        g
    }

    /// Records a deadlock (or lost wakeup) report and aborts the
    /// execution: every parked thread unwinds with [`Abort`].
    fn deadlock(&self, g: &mut Guard<'_>) -> ! {
        let schedule = Self::schedule_string(g);
        let blocked = g
            .threads
            .iter()
            .enumerate()
            .filter_map(|(i, t)| match &t.status {
                Status::Blocked(on) => Some(format!("thread {i} blocked on {}", describe(g, on))),
                _ => None,
            })
            .collect();
        g.reports.push(Report::Deadlock { blocked, schedule });
        g.aborted = true;
        self.wake.notify_all();
        panic::panic_any(Abort)
    }

    // ---- lock-order + condvar-hold validation ------------------------

    /// Validates an acquisition of `id` against the documented order,
    /// recording a [`Report::LockOrder`] for every held lock that
    /// outranks it. Runs *before* the acquisition blocks, so the
    /// violation is reported even on interleavings where no deadlock
    /// manifests.
    fn check_acquire(&self, g: &mut ExecState, me: usize, id: usize) {
        let class = g.locks[id].class.clone();
        if class.major == UNRANKED {
            return;
        }
        let schedule = Self::schedule_string(g);
        let mut found: Vec<Report> = Vec::new();
        for h in &g.threads[me].held {
            if h.class.major == UNRANKED {
                continue;
            }
            let violation = h.lock == id
                || h.class.major > class.major
                || (h.class.major == class.major && class.minor <= h.class.minor);
            if violation {
                found.push(Report::LockOrder {
                    thread: me,
                    acquired: class.display(),
                    held: h.class.display(),
                    schedule: schedule.clone(),
                });
            }
        }
        g.reports.extend(found);
    }

    // ---- mutex ops ---------------------------------------------------

    pub(crate) fn mutex_lock(&self, me: usize, slot: &AtomicU64, class: &LockClass) {
        let mut g = self.lock_state();
        let id = self.lock_id(&mut g, slot, class);
        g.threads[me].clock.tick(me);
        self.check_acquire(&mut g, me, id);
        loop {
            g = self.reschedule(g, me);
            if g.locks[id].holder.is_none() {
                g.locks[id].holder = Some(me);
                let lc = g.locks[id].clock.clone();
                let class = g.locks[id].class.clone();
                g.threads[me].clock.join(&lc);
                g.threads[me].held.push(Held { lock: id, class });
                return;
            }
            g.threads[me].status = Status::Blocked(BlockedOn::Lock(id));
        }
    }

    /// Release bookkeeping of a mutex guard drop. Not a yield point, and
    /// deliberately panic-free: it runs from guard `Drop` impls, possibly
    /// mid-unwind.
    pub(crate) fn unlock(&self, me: usize, slot: &AtomicU64) {
        let mut g = self.lock_state();
        let packed = slot.load(AtomOrd::SeqCst);
        if packed >> 32 != g.generation + 1 {
            return; // guard outlived its execution; nothing to track
        }
        let id = ((packed & 0xffff_ffff) - 1) as usize;
        g.threads[me].clock.tick(me);
        let tc = g.threads[me].clock.clone();
        g.locks[id].clock.join(&tc);
        if g.locks[id].holder == Some(me) {
            g.locks[id].holder = None;
        }
        g.threads[me].held.retain(|h| h.lock != id);
        if g.locks[id].holder.is_none() {
            for t in g.threads.iter_mut() {
                if t.status == Status::Blocked(BlockedOn::Lock(id)) {
                    t.status = Status::Runnable;
                }
            }
        }
    }

    // ---- condvar ops --------------------------------------------------

    /// First half of a condvar wait, run while the caller still holds the
    /// real mutex guard: validates nothing else is held, releases the
    /// mutex in the model, and enqueues the waiter. The caller then drops
    /// the real guard and calls [`Execution::cv_wait_block`] — the token
    /// is kept throughout, so no other thread can observe the
    /// intermediate state.
    pub(crate) fn cv_wait_release(
        &self,
        me: usize,
        cv_slot: &AtomicU64,
        cv_name: &'static str,
        lock_slot: &AtomicU64,
    ) {
        let mut g = self.lock_state();
        let cv = self.cv_id(&mut g, cv_slot, cv_name);
        let packed = lock_slot.load(AtomOrd::SeqCst);
        debug_assert_eq!(packed >> 32, g.generation + 1);
        let lock_id = ((packed & 0xffff_ffff) - 1) as usize;
        g.threads[me].clock.tick(me);
        let also_held: Vec<String> = g.threads[me]
            .held
            .iter()
            .filter(|h| h.lock != lock_id)
            .map(|h| h.class.display())
            .collect();
        if !also_held.is_empty() {
            let schedule = Self::schedule_string(&g);
            let waited = g.locks[lock_id].class.display();
            g.reports.push(Report::CondvarHold {
                thread: me,
                waited,
                also_held,
                schedule,
            });
        }
        // Model-release the mutex (same bookkeeping as unlock).
        let tc = g.threads[me].clock.clone();
        g.locks[lock_id].clock.join(&tc);
        g.locks[lock_id].holder = None;
        g.threads[me].held.retain(|h| h.lock != lock_id);
        for t in g.threads.iter_mut() {
            if t.status == Status::Blocked(BlockedOn::Lock(lock_id)) {
                t.status = Status::Runnable;
            }
        }
        g.threads[me].status = Status::Blocked(BlockedOn::Cv(cv));
        g.cvs[cv].waiters.push(me);
    }

    /// Second half of a condvar wait: hand the token over and park until
    /// a notification makes this thread runnable again.
    pub(crate) fn cv_wait_block(&self, me: usize) {
        let g = self.lock_state();
        let _g = self.reschedule(g, me);
    }

    /// `notify_one` / `notify_all`. Not a yield point. Notifying an empty
    /// queue is a no-op — the signal is lost, as with the real primitive.
    pub(crate) fn cv_notify(&self, me: usize, slot: &AtomicU64, name: &'static str, all: bool) {
        let mut g = self.lock_state();
        let cv = self.cv_id(&mut g, slot, name);
        g.threads[me].clock.tick(me);
        let n = if all {
            g.cvs[cv].waiters.len()
        } else {
            g.cvs[cv].waiters.len().min(1)
        };
        for _ in 0..n {
            let t = g.cvs[cv].waiters.remove(0);
            g.threads[t].status = Status::Runnable;
        }
    }

    // ---- atomic ops ---------------------------------------------------

    /// Checks the happens-before side of a load (or the load half of an
    /// RMW): a read observing the latest store must either be ordered
    /// after it by existing HB edges or synchronize with it via a
    /// release-store/acquire-load pair.
    fn check_read(
        &self,
        g: &mut ExecState,
        me: usize,
        id: usize,
        acquire: bool,
        ord: &'static str,
    ) {
        let meta = &g.atomics[id];
        if let Some(ls) = &meta.last_store {
            if ls.thread != me && !ls.clock.le(&g.threads[me].clock) && !(ls.release && acquire) {
                let report = Report::Race {
                    cell: meta.name.to_string(),
                    writer: ls.thread,
                    writer_ord: ls.ord.to_string(),
                    reader: me,
                    reader_ord: ord.to_string(),
                    schedule: Self::schedule_string(g),
                };
                g.reports.push(report);
            }
        }
        if acquire {
            let cc = g.atomics[id].cell_clock.clone();
            g.threads[me].clock.join(&cc);
        }
    }

    fn record_store(
        &self,
        g: &mut ExecState,
        me: usize,
        id: usize,
        release: bool,
        ord: &'static str,
    ) {
        if release {
            let tc = g.threads[me].clock.clone();
            g.atomics[id].cell_clock.join(&tc);
        }
        g.atomics[id].last_store = Some(LastStore {
            thread: me,
            clock: g.threads[me].clock.clone(),
            release,
            ord,
        });
    }

    pub(crate) fn atomic_load(
        &self,
        me: usize,
        slot: &AtomicU64,
        name: &'static str,
        acquire: bool,
        ord: &'static str,
    ) {
        let mut g = self.lock_state();
        let id = self.atomic_id(&mut g, slot, name);
        g.threads[me].clock.tick(me);
        g = self.reschedule(g, me);
        self.check_read(&mut g, me, id, acquire, ord);
    }

    pub(crate) fn atomic_store(
        &self,
        me: usize,
        slot: &AtomicU64,
        name: &'static str,
        release: bool,
        ord: &'static str,
    ) {
        let mut g = self.lock_state();
        let id = self.atomic_id(&mut g, slot, name);
        g.threads[me].clock.tick(me);
        g = self.reschedule(g, me);
        self.record_store(&mut g, me, id, release, ord);
    }

    pub(crate) fn atomic_rmw(
        &self,
        me: usize,
        slot: &AtomicU64,
        name: &'static str,
        acquire: bool,
        release: bool,
        ord: &'static str,
    ) {
        let mut g = self.lock_state();
        let id = self.atomic_id(&mut g, slot, name);
        g.threads[me].clock.tick(me);
        g = self.reschedule(g, me);
        self.check_read(&mut g, me, id, acquire, ord);
        self.record_store(&mut g, me, id, release, ord);
    }

    // ---- thread lifecycle ---------------------------------------------

    /// Registers a child thread (runnable, clock joined from the parent)
    /// *without* yielding: the caller must spawn the OS thread first and
    /// then call [`Execution::yield_now`] — yielding before the OS
    /// thread exists would hand it a token nobody can accept.
    pub(crate) fn register_thread(&self, parent: usize) -> usize {
        let mut g = self.lock_state();
        g.threads[parent].clock.tick(parent);
        let id = g.threads.len();
        let mut t = ModelThread::new(id);
        let pc = g.threads[parent].clock.clone();
        t.clock.join(&pc);
        g.threads.push(t);
        id
    }

    /// A bare yield point (the post-spawn decision: child first or
    /// parent continues).
    pub(crate) fn yield_now(&self, me: usize) {
        let g = self.lock_state();
        let _g = self.reschedule(g, me);
    }

    /// A freshly spawned OS thread parks here until its first turn.
    pub(crate) fn thread_started(&self, me: usize) {
        let g = self.lock_state();
        let _g = self.wait_for_token(g, me);
    }

    /// Marks a thread finished, wakes its joiners, and hands the token
    /// off without waiting for it back.
    pub(crate) fn thread_finished(&self, me: usize) {
        let mut g = self.lock_state();
        if g.aborted {
            return;
        }
        g.threads[me].clock.tick(me);
        g.threads[me].status = Status::Finished;
        for t in g.threads.iter_mut() {
            if t.status == Status::Blocked(BlockedOn::Join(me)) {
                t.status = Status::Runnable;
            }
        }
        self.pick_next(&mut g, me);
    }

    /// Aborts the current execution (used when the scope body panics
    /// while model children are still parked): every waiting thread
    /// unwinds with [`Abort`] instead of hanging the OS-level join.
    pub(crate) fn abort_execution(&self) {
        let mut g = self.lock_state();
        g.aborted = true;
        self.wake.notify_all();
    }

    pub(crate) fn record_thread_panic(&self, me: usize, message: String) {
        let mut g = self.lock_state();
        let schedule = Self::schedule_string(&g);
        g.reports.push(Report::Panic {
            thread: me,
            message,
            schedule,
        });
    }

    /// Blocks `me` until `child` has finished, then joins its clock (the
    /// join happens-before edge).
    pub(crate) fn join_thread(&self, me: usize, child: usize) {
        let mut g = self.lock_state();
        g.threads[me].clock.tick(me);
        loop {
            if g.threads[child].status == Status::Finished {
                let cc = g.threads[child].clock.clone();
                g.threads[me].clock.join(&cc);
                return;
            }
            g.threads[me].status = Status::Blocked(BlockedOn::Join(child));
            g = self.reschedule(g, me);
        }
    }

    // ---- one execution ------------------------------------------------

    fn run_once(
        self: &Arc<Execution>,
        script: &[usize],
        f: &impl Fn(),
    ) -> (Vec<Report>, Vec<DecisionPoint>) {
        {
            let mut g = self.lock_state();
            g.generation += 1;
            g.threads.clear();
            g.threads.push(ModelThread::new(0));
            g.active = 0;
            g.locks.clear();
            g.cvs.clear();
            g.atomics.clear();
            g.reports.clear();
            g.aborted = false;
            g.preemptions = 0;
            g.script = script.to_vec();
            g.cursor = 0;
            g.trace.clear();
        }
        set_current(Some((self.clone(), 0)));
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        set_current(None);
        let mut g = self.lock_state();
        if let Err(payload) = result {
            if payload.downcast_ref::<Abort>().is_none() {
                let schedule = Self::schedule_string(&g);
                let message = payload_message(payload.as_ref());
                g.reports.push(Report::Panic {
                    thread: 0,
                    message,
                    schedule,
                });
            }
        }
        (std::mem::take(&mut g.reports), std::mem::take(&mut g.trace))
    }
}

fn describe(g: &ExecState, on: &BlockedOn) -> String {
    match on {
        BlockedOn::Lock(id) => format!("lock {}", g.locks[*id].class.display()),
        BlockedOn::Cv(cv) => format!("condvar `{}`", g.cvs[*cv].name),
        BlockedOn::Join(t) => format!("join of thread {t}"),
    }
}

fn schedule_string_parts(bound: Option<u32>, trace: &[DecisionPoint]) -> String {
    let prefix = match bound {
        Some(b) => format!("b{b}"),
        None => "b-".to_string(),
    };
    if trace.is_empty() {
        return format!("{prefix}:-");
    }
    let body: Vec<String> = trace.iter().map(|d| d.chosen.to_string()).collect();
    format!("{prefix}:{}", body.join("."))
}

fn parse_schedule(s: &str) -> Option<(Option<u32>, Vec<usize>)> {
    let (prefix, body) = s.split_once(':')?;
    let bound = match prefix.strip_prefix('b')? {
        "-" => None,
        n => Some(n.parse().ok()?),
    };
    let script = if body == "-" {
        Vec::new()
    } else {
        body.split('.')
            .map(|p| p.parse().ok())
            .collect::<Option<Vec<usize>>>()?
    };
    Some((bound, script))
}

/// The deepest decision point with an untried sibling, turned into the
/// next DFS script; `None` when the bounded space is exhausted.
fn next_script(trace: &[DecisionPoint]) -> Option<Vec<usize>> {
    for i in (0..trace.len()).rev() {
        if trace[i].chosen + 1 < trace[i].options.len() {
            let mut script: Vec<usize> = trace[..i].iter().map(|d| d.chosen).collect();
            script.push(trace[i].chosen + 1);
            return Some(script);
        }
    }
    None
}

/// Explores the interleavings of `f` by preemption-bounded DFS.
///
/// `f` is run once per schedule on the calling thread (model thread 0);
/// concurrency inside it must go through [`crate::thread::scope`] and
/// the [`crate::sync`] shims. Returns aggregate [`Stats`]; when
/// [`Config::stop_on_report`] is set (the default) exploration stops at
/// the first failing execution, whose schedule is
/// [`Stats::failing_schedule`].
pub fn explore(cfg: &Config, f: impl Fn()) -> Stats {
    install_hook();
    assert!(
        current().is_none(),
        "nested explore()/replay() is not supported"
    );
    let exec = Arc::new(Execution::new(cfg.preemption_bound));
    let started = Instant::now();
    let mut stats = Stats {
        interleavings: 0,
        exhausted: false,
        reports: Vec::new(),
        failing_schedule: None,
    };
    let mut script: Vec<usize> = Vec::new();
    loop {
        let (reports, trace) = exec.run_once(&script, &f);
        stats.interleavings += 1;
        if !reports.is_empty() {
            if stats.failing_schedule.is_none() {
                stats.failing_schedule = Some(schedule_string_parts(cfg.preemption_bound, &trace));
            }
            stats.reports.extend(reports);
            if cfg.stop_on_report {
                return stats;
            }
        }
        match next_script(&trace) {
            None => {
                stats.exhausted = true;
                return stats;
            }
            Some(next) => script = next,
        }
        if stats.interleavings >= cfg.max_interleavings
            || started.elapsed().as_secs() >= cfg.max_seconds
        {
            return stats;
        }
    }
}

/// Replays one recorded schedule (a [`Stats::failing_schedule`] or
/// [`Report::schedule`] string) against `f`, deterministically
/// reproducing the interleaving and any reports it yields.
///
/// Panics if `schedule` is not a valid schedule string.
pub fn replay(schedule: &str, f: impl Fn()) -> Stats {
    install_hook();
    assert!(
        current().is_none(),
        "nested explore()/replay() is not supported"
    );
    let (bound, script) = parse_schedule(schedule)
        .unwrap_or_else(|| panic!("malformed schedule string `{schedule}`"));
    let exec = Arc::new(Execution::new(bound));
    let (reports, trace) = exec.run_once(&script, &f);
    let replayed = schedule_string_parts(bound, &trace);
    Stats {
        interleavings: 1,
        exhausted: false,
        failing_schedule: if reports.is_empty() {
            None
        } else {
            Some(replayed)
        },
        reports,
    }
}
