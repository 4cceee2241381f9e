//! One end-to-end run of one workload: set up (several times, for a
//! steady `setup_s`), a measured phase of `--seconds`, then recovery and
//! the output checks.

use crate::checks::{take_probe, verify_final_state, verify_probe, Checks, Probe};
use crate::host;
use crate::inputs::{generate, Inputs, Rng, Workload};
use crate::load::{closed_loop, Discipline, Lane, Outcome, PhaseCtx, Until};
use crate::metrics::{assemble, Metric, END_TO_END};
use crate::stack::{Layers, Stack, TmpDir};
use crate::stats::{self, phase_stats, WINDOWS};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// How long the standby may take to drain after the last reply.
pub const DRAIN_LIMIT: Duration = Duration::from_secs(20);

#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Where journals go: a directory on a real filesystem.
    pub tmp_root: PathBuf,
}

impl Settings {
    /// `--quick` runs on systems a quarter the size.
    pub fn system_div(&self) -> usize {
        if self.quick {
            4
        } else {
            1
        }
    }

    pub fn setup_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            SETUP_REPS
        }
    }
}

/// What a run prints: the contract's four keys plus notes for people.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Dispersion, sample counts and context, one line each.
    pub notes: Vec<String>,
    pub failures: Vec<String>,
}

pub fn layers(workload: Workload) -> Layers {
    Layers {
        journal: true,
        wire: workload.over_wire(),
        standby: workload.over_wire(),
    }
}

pub fn discipline(workload: Workload) -> Discipline {
    match workload {
        Workload::WireSync => Discipline::WireSync,
        Workload::WirePipelined => Discipline::WirePipelined,
        Workload::DeepCone => Discipline::InProcess,
    }
}

/// A stack with its load generators connected and warmed up.
pub struct Live<'a> {
    pub stack: Stack,
    pub lanes: Vec<Lane<'a>>,
    pub acked: AtomicU64,
    pub warm: Outcome,
}

/// The part of a run `setup_s` times: seed analysis, journal, server and
/// standby start, connect, and a warm-up of one pass per lane with the
/// standby caught up — caches and lazy set-up filled before anything is
/// timed.
pub fn set_up<'a>(inputs: &'a Inputs, dir: &TmpDir) -> Live<'a> {
    let layers = layers(inputs.workload);
    let stack = Stack::start(&inputs.set, layers, dir);
    let mut lanes: Vec<Lane<'a>> = inputs
        .lanes
        .iter()
        .enumerate()
        .map(|(i, ops)| Lane::new(i, ops, layers.wire.then(|| stack.connect())))
        .collect();
    let acked = AtomicU64::new(0);
    let ctx = PhaseCtx {
        origin: Instant::now(),
        traced: false,
        acked: &acked,
        engine: &stack.engine,
    };
    let (warm, ()) = closed_loop(
        &mut lanes,
        discipline(inputs.workload),
        Until::Ops(inputs.lanes[0].len()),
        &ctx,
        || (),
    );
    if stack.has_standby() {
        stack
            .wait_standby(DRAIN_LIMIT)
            .expect("standby catches up with the warm-up");
    }
    Live {
        stack,
        lanes,
        acked,
        warm,
    }
}

impl Live<'_> {
    pub fn disconnect(&mut self) {
        self.lanes.drain(..).for_each(Lane::quit);
    }
}

/// One timed set-up.
fn timed_set_up<'a>(inputs: &'a Inputs, dir: &TmpDir) -> (Live<'a>, f64) {
    let started = Instant::now();
    let live = set_up(inputs, dir);
    (live, started.elapsed().as_secs_f64())
}

/// What the calling thread gathers while the load threads run.
pub struct Sidecar {
    /// Process CPU seconds at each window boundary (`WINDOWS + 1` reads).
    pub cpu_at: Vec<f64>,
    pub probe: Option<Probe>,
}

/// Reads process CPU time at every window boundary of the phase and, at
/// `probe_at` (a fraction of the phase), takes the durability probe.
pub fn sidecar(
    stack: &Stack,
    acked: &AtomicU64,
    dir: &TmpDir,
    origin: Instant,
    seconds: f64,
    probe_at: Option<f64>,
) -> Sidecar {
    let sleep_until =
        |at: Instant| std::thread::sleep(at.saturating_duration_since(Instant::now()));
    let mut cpu_at = vec![host::cpu_seconds()];
    let mut probe = None;
    let mut probe_at = probe_at.map(|f| origin + Duration::from_secs_f64(seconds * f));
    for w in 1..=WINDOWS {
        let boundary = origin + Duration::from_secs_f64(seconds * w as f64 / WINDOWS as f64);
        if let Some(at) = probe_at.filter(|&at| at <= boundary) {
            sleep_until(at);
            let journal = stack
                .journal
                .as_ref()
                .expect("probed stacks have a journal");
            probe = take_probe(&stack.engine, journal, acked, dir);
            probe_at = None;
        }
        sleep_until(boundary);
        cpu_at.push(host::cpu_seconds());
    }
    Sidecar { cpu_at, probe }
}

/// One loaded phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub seconds: f64,
    pub traced: bool,
    /// When to take the durability probe, as a fraction of the phase.
    pub probe_at: Option<f64>,
}

/// A loaded phase of a live stack: the workload's load shape for
/// `phase.seconds`. Returns the outcome and the sidecar's readings.
pub fn measured_phase(
    live: &mut Live<'_>,
    workload: Workload,
    dir: &TmpDir,
    phase: Phase,
) -> (Outcome, Sidecar) {
    let Live {
        stack,
        lanes,
        acked,
        ..
    } = live;
    let origin = Instant::now();
    let ctx = PhaseCtx {
        origin,
        traced: phase.traced,
        acked,
        engine: &stack.engine,
    };
    closed_loop(
        lanes,
        discipline(workload),
        Until::Deadline(origin + Duration::from_secs_f64(phase.seconds)),
        &ctx,
        || sidecar(stack, acked, dir, origin, phase.seconds, phase.probe_at),
    )
}

pub fn end_to_end(workload: Workload, settings: &Settings) -> Report {
    let dir = TmpDir::create(&settings.tmp_root).expect("scratch directory is writable");
    host::progress("generating inputs");
    let inputs = generate(workload, settings.seed, settings.system_div());
    host::progress("setting up");
    let (mut live, first_setup) = timed_set_up(&inputs, &dir);
    let mut setup_times = vec![first_setup];

    // The seed also picks when, in the middle three fifths of the phase,
    // the durability probe cuts the journal.
    let probe_at = 0.2 + 0.6 * (Rng::new(settings.seed).below(1000) as f64 / 1000.0);
    host::progress("measuring");
    let before = live.stack.engine.metrics();
    let (outcome, side) = measured_phase(
        &mut live,
        workload,
        &dir,
        Phase {
            seconds: settings.seconds,
            traced: false,
            probe_at: Some(probe_at),
        },
    );
    let after = live.stack.engine.metrics();

    host::progress("draining and stopping");
    // Let the standby drain, then stop everything before checking.
    let mut checks = Checks::default();
    if live.stack.has_standby() {
        if let Err(why) = live.stack.wait_standby(DRAIN_LIMIT) {
            checks.failures.push(why);
        }
    }
    // Peak memory of serving: recovery and the repeated set-ups below
    // run after this reading.
    let peak_rss_mib = host::peak_rss_mib();
    let standby = live.stack.stop_standby();
    live.disconnect();
    live.stack.stop();

    host::progress("recovering and checking");
    let attempted = live.warm.attempted + outcome.attempted;
    let failed = live.warm.failed + outcome.failed;
    checks.require(failed == 0, || {
        format!("{failed} of {attempted} operations failed")
    });
    let recovery = verify_final_state(
        &mut checks,
        &live.stack.engine,
        live.stack.journal.as_deref(),
        standby.as_ref(),
        &inputs.set,
        attempted,
        workload == Workload::DeepCone,
    );
    verify_probe(&mut checks, side.probe, &inputs.set);
    let (recovery_time, recovered_epochs) =
        recovery.expect("every workload runs with a journal attached");

    let Some(phase) = phase_stats(&outcome.samples, (settings.seconds * 1e9) as u64) else {
        checks
            .failures
            .push("no operation completed inside the measured phase".to_string());
        return Report {
            correct: false,
            attempted,
            failed,
            metrics: Vec::new(),
            notes: Vec::new(),
            failures: checks.failures,
        };
    };
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    // Process CPU per operation, window by window (the sidecar read the
    // clock at every fifth of the phase; a pooled phase is one window).
    let windows = phase.window_ops.len();
    let cpu_ms_per_op: Vec<f64> = (0..windows)
        .map(|w| {
            let (from, to) = (w * WINDOWS / windows, (w + 1) * WINDOWS / windows);
            (side.cpu_at[to] - side.cpu_at[from]) * 1e3 / phase.window_ops[w] as f64
        })
        .collect();
    drop(live);
    host::progress("setting up again");
    while setup_times.len() < settings.setup_reps() {
        let (mut again, took) = timed_set_up(&inputs, &dir);
        setup_times.push(took);
        again.disconnect();
        again.stack.stop();
    }
    let setup = stats::summarize(&setup_times);

    let notes = vec![
        format!(
            "host: nproc {}, journal filesystem {}",
            host::nproc(),
            host::fs_type(dir.path())
        ),
        format!(
            "system: {} transactions on {} platforms; {} operations attempted, {} in the measured phase",
            inputs.set.transactions().len(),
            inputs.set.platforms().len(),
            attempted,
            outcome.attempted
        ),
        format!("setup_s over {} set-ups: {setup}", setup.n),
        format!(
            "throughput_ops_s over {windows} windows: {}",
            phase.throughput_ops_s
        ),
        format!("latency_p50_ms over {windows} windows: {}", phase.p50_ms),
        format!(
            "latency_p95_ms ({} samples in all; {}): {}",
            phase.ops,
            if phase.tail_windowed {
                "median of the per-window p95"
            } else {
                "p95 of the whole phase: a window holds fewer than 200 samples"
            },
            phase.tail_ms
        ),
        format!(
            "recovery: {recovered_epochs} epochs in {:.3} s",
            recovery_time.as_secs_f64()
        ),
    ];
    let metrics = assemble(
        &END_TO_END,
        &[
            ("setup_s", setup.median),
            ("throughput_ops_s", phase.throughput_ops_s.median),
            ("latency_p50_ms", phase.p50_ms.median),
            ("latency_p95_ms", phase.tail_ms.median),
            (
                "recovery_ops_s",
                recovered_epochs as f64 / recovery_time.as_secs_f64(),
            ),
            ("cpu_ms_per_op", stats::median(&cpu_ms_per_op)),
            (
                "journal_bytes_per_op",
                delta("engine.journal.bytes") / delta("engine.journal.records"),
            ),
            ("peak_rss_mib", peak_rss_mib),
        ],
    );
    Report {
        correct: checks.correct(),
        attempted,
        failed,
        metrics,
        notes,
        failures: checks.failures,
    }
}
