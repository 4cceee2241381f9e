//! The layer ladder: the workload's own operation stream replayed
//! *serially by one client* through successively deeper public entry
//! points, each rung removing one layer:
//!
//! ```text
//! wire_repl       Client → Server → engine → journal → Follower
//! wire            Client → Server → engine → journal
//! engine_journal  SchedService::submit, journal attached
//! engine          SchedService::submit, no journal
//! admission       AdmissionController::commit          (deep_cone only)
//! analysis        analyze_with on the touched island   (deep_cone only)
//! ```
//!
//! A layer's self time is its rung minus the next, so the rows telescope
//! to the serial end-to-end latency by construction; *wait* is what the
//! loaded run adds on top of the serial rung. Every rung starts from a
//! fresh stack, warmed up the same way, and replays the same operations.

use crate::inputs::{Inputs, Op, Workload};
use crate::load::{closed_loop, Discipline, Lane, PhaseCtx, Until};
use crate::stack::{admission_policy, analysis_config, Layers, Stack, TmpDir};
use crate::stats;
use crate::trace::Span;
use hsched_admission::{AdmissionController, AdmissionRequest};
use hsched_analysis::analyze_with;
use hsched_telemetry::MetricsSnapshot;
use hsched_transaction::TransactionSet;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// Telemetry over an interval: snapshots of the same stack before and
/// after. Reading a server's telemetry is itself traffic (a connection,
/// a `stats` frame, a reply of a few KiB), so a third snapshot taken
/// right before `before` measures what one reading costs, and counters
/// are corrected by it.
#[derive(Debug, Clone)]
pub struct Delta {
    baseline: MetricsSnapshot,
    before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl Delta {
    /// Opens the interval: call right before the work, and
    /// [`DeltaStart::finish`] right after it.
    pub fn start(stack: &Stack) -> DeltaStart {
        DeltaStart {
            baseline: stack.metrics(),
            before: stack.metrics(),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        let at = |snap: &MetricsSnapshot| snap.counter(name) as f64;
        (at(&self.after) - at(&self.before)) - (at(&self.before) - at(&self.baseline))
    }

    fn histogram(&self, name: &str) -> (f64, f64) {
        let read = |snap: &MetricsSnapshot| {
            snap.histogram(name)
                .map_or((0.0, 0.0), |h| (h.sum() as f64, h.count() as f64))
        };
        let (before, after) = (read(&self.before), read(&self.after));
        (after.0 - before.0, after.1 - before.1)
    }

    /// Recordings of a histogram inside the interval.
    pub fn count(&self, name: &str) -> f64 {
        self.histogram(name).1
    }

    /// Mean of a histogram's recordings inside the interval (exact: sums
    /// and counts, not bucket ceilings); 0 without recordings.
    pub fn mean(&self, name: &str) -> f64 {
        let (sum, count) = self.histogram(name);
        if count > 0.0 {
            sum / count
        } else {
            0.0
        }
    }

    /// Sum of the six engine phase means, nanoseconds.
    pub fn phase_sum_ns(&self) -> f64 {
        ["reserve", "route", "checkout", "analyze", "settle", "fsync"]
            .iter()
            .map(|phase| self.mean(&format!("engine.phase.{phase}_ns")))
            .sum()
    }
}

/// An open [`Delta`] interval.
#[derive(Debug)]
pub struct DeltaStart {
    baseline: MetricsSnapshot,
    before: MetricsSnapshot,
}

impl DeltaStart {
    pub fn finish(self, stack: &Stack) -> Delta {
        Delta {
            baseline: self.baseline,
            before: self.before,
            after: stack.metrics(),
        }
    }
}

/// One rung's result.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Mean serial latency per operation, milliseconds.
    pub mean_ms: f64,
    pub ops: usize,
    /// The stack's telemetry over the rung (empty for the rungs below
    /// the engine).
    pub delta: Option<Delta>,
}

#[derive(Debug, Default)]
pub struct Ladder {
    pub wire_repl: Option<Rung>,
    pub wire: Option<Rung>,
    pub engine_journal: Option<Rung>,
    pub engine: Option<Rung>,
    pub admission: Option<Rung>,
    pub analysis: Option<Rung>,
    pub spans: Vec<Span>,
    pub failed: u64,
    pub attempted: u64,
}

impl Ladder {
    pub fn ms(rung: &Option<Rung>) -> f64 {
        rung.as_ref().map_or(0.0, |r| r.mean_ms)
    }

    /// The topmost rung the workload has: its serial end-to-end latency.
    pub fn top(&self) -> &Rung {
        self.wire_repl
            .as_ref()
            .or(self.engine_journal.as_ref())
            .expect("every workload has the engine_journal rung")
    }
}

/// The warm-up and the measured operations every rung replays.
struct Stream {
    warm: Vec<Op>,
    ops: Vec<Op>,
}

fn stream(inputs: &Inputs, target_ops: usize) -> Stream {
    let cloned = |ops: Vec<&Op>| ops.into_iter().cloned().collect();
    let pass = inputs.lanes.iter().map(Vec::len).sum::<usize>();
    Stream {
        warm: cloned(inputs.serial_stream(1)),
        ops: cloned(inputs.serial_stream((target_ops / pass).max(1))),
    }
}

/// One engine-or-above rung on a fresh stack.
fn stack_rung(
    ladder: &mut Ladder,
    inputs: &Inputs,
    stream: &Stream,
    layers: Layers,
    dir: &TmpDir,
    origin: Instant,
    thread: usize,
) -> Rung {
    let mut stack = Stack::start(&inputs.set, layers, dir);
    let discipline = if layers.wire {
        Discipline::WireSync
    } else {
        Discipline::InProcess
    };
    let acked = AtomicU64::new(0);
    let run = |ops: &[Op], traced: bool| {
        let client = layers.wire.then(|| stack.connect());
        let mut lanes = [Lane::new(thread, ops, client)];
        let ctx = PhaseCtx {
            origin,
            traced,
            acked: &acked,
            engine: &stack.engine,
        };
        let (outcome, ()) = closed_loop(&mut lanes, discipline, Until::Ops(ops.len()), &ctx, || ());
        // The connection just closes: a `quit` frame would race the
        // telemetry reading that follows.
        outcome
    };
    let warm = run(&stream.warm, false);
    if layers.standby {
        stack
            .wait_standby(crate::run::DRAIN_LIMIT)
            .expect("standby catches up with the warm-up");
    }
    let interval = Delta::start(&stack);
    let outcome = run(&stream.ops, true);
    let delta = interval.finish(&stack);
    ladder.attempted += warm.attempted + outcome.attempted;
    ladder.failed += warm.failed + outcome.failed;
    ladder.spans.extend(outcome.spans);
    stack.stop();
    let latencies: Vec<f64> = outcome
        .samples
        .iter()
        .map(|s| s.latency_ns as f64 / 1e6)
        .collect();
    Rung {
        mean_ms: stats::mean(&latencies),
        ops: latencies.len(),
        delta: Some(delta),
    }
}

/// The island a `deep_cone` batch touches: every live transaction that
/// shares a platform, transitively, with the batch — as its own set.
fn touched_island(
    live: &TransactionSet,
    batch: &[AdmissionRequest],
    before: &TransactionSet,
) -> TransactionSet {
    let mut platforms: Vec<usize> = batch
        .iter()
        .flat_map(|request| match request {
            AdmissionRequest::AddTransaction(tx) => {
                tx.tasks().iter().map(|t| t.platform.0).collect::<Vec<_>>()
            }
            AdmissionRequest::RemoveTransaction { name } => before
                .transaction_index(name)
                .map(|i| &before.transactions()[i])
                .map_or(Vec::new(), |tx| {
                    tx.tasks().iter().map(|t| t.platform.0).collect()
                }),
            AdmissionRequest::Retune { platform, .. } => vec![platform.0],
            _ => Vec::new(),
        })
        .collect();
    // Grow to the platform-sharing closure.
    loop {
        let grown = platforms.len();
        for tx in live.transactions() {
            let on: Vec<usize> = tx.tasks().iter().map(|t| t.platform.0).collect();
            if on.iter().any(|p| platforms.contains(p)) {
                platforms.extend(
                    on.into_iter()
                        .filter(|p| !platforms.contains(p))
                        .collect::<Vec<_>>(),
                );
            }
        }
        if platforms.len() == grown {
            break;
        }
    }
    let members = live
        .transactions()
        .iter()
        .filter(|tx| tx.tasks().iter().any(|t| platforms.contains(&t.platform.0)))
        .cloned()
        .collect();
    TransactionSet::new(live.platforms().clone(), members).expect("a subset of a valid set")
}

/// The two rungs below the engine: `AdmissionController::commit` on the
/// stream, and a cold `analyze_with` of the island each batch touched.
fn controller_rungs(ladder: &mut Ladder, inputs: &Inputs, stream: &Stream, origin: Instant) {
    let mut controller =
        AdmissionController::new(inputs.set.clone(), analysis_config(), admission_policy())
            .expect("seed system analyzes");
    for op in &stream.warm {
        controller.commit(&op.batch);
    }
    let mut rec = crate::trace::Recorder::new(origin, true, 8);
    let mut commit_ms = Vec::with_capacity(stream.ops.len());
    let mut analyze_ms = Vec::with_capacity(stream.ops.len());
    for (i, op) in stream.ops.iter().enumerate() {
        let before = controller.current_set().clone();
        let started = Instant::now();
        let outcome = controller.commit(&op.batch);
        let committed = Instant::now();
        rec.span(0, i as u64, "admission.commit", started, committed);
        commit_ms.push(committed.duration_since(started).as_secs_f64() * 1e3);
        ladder.attempted += 1;
        if outcome.verdict.admitted() != op.admit {
            ladder.failed += 1;
        }
        let island = touched_island(controller.current_set(), &op.batch, &before);
        let started = Instant::now();
        let report = analyze_with(&island, &analysis_config());
        let analyzed = Instant::now();
        rec.span(0, i as u64, "analysis.analyze_with", started, analyzed);
        std::hint::black_box(&report);
        analyze_ms.push(analyzed.duration_since(started).as_secs_f64() * 1e3);
    }
    ladder.spans.extend(rec.spans);
    let rung = |values: &[f64]| Rung {
        mean_ms: stats::mean(values),
        ops: values.len(),
        delta: None,
    };
    ladder.admission = Some(rung(&commit_ms));
    ladder.analysis = Some(rung(&analyze_ms));
}

/// Runs every rung the workload has. `target_ops` sizes a rung (whole
/// passes of a cyclic stream).
pub fn climb(inputs: &Inputs, dir: &TmpDir, target_ops: usize, origin: Instant) -> Ladder {
    let stream = stream(inputs, target_ops);
    let mut ladder = Ladder::default();
    let full = crate::run::layers(inputs.workload);
    let mut thread = 4;
    let mut rung = |ladder: &mut Ladder, layers: Layers| {
        thread += 1;
        stack_rung(ladder, inputs, &stream, layers, dir, origin, thread)
    };
    if inputs.workload.over_wire() {
        ladder.wire_repl = Some(rung(&mut ladder, full));
        ladder.wire = Some(rung(
            &mut ladder,
            Layers {
                standby: false,
                ..full
            },
        ));
    }
    let in_process = Layers {
        wire: false,
        standby: false,
        ..full
    };
    ladder.engine_journal = Some(rung(&mut ladder, in_process));
    ladder.engine = Some(rung(
        &mut ladder,
        Layers {
            journal: false,
            ..in_process
        },
    ));
    if inputs.workload == Workload::DeepCone {
        controller_rungs(&mut ladder, inputs, &stream, origin);
    }
    ladder
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::generate;

    /// On the one-client serial rung nothing races, so the counts a
    /// change may be judged by repeat exactly from run to run.
    #[test]
    fn serial_rung_counts_repeat_exactly() {
        let root = std::env::temp_dir().join("hsched-benchmark-test");
        std::fs::create_dir_all(&root).unwrap();
        let dir = TmpDir::create(&root).unwrap();
        let inputs = generate(Workload::WireSync, 11, 4);
        let stream = stream(&inputs, 128);
        let layers = Layers {
            journal: true,
            wire: true,
            ..Layers::default()
        };
        let counts = || {
            let mut ladder = Ladder::default();
            let rung = stack_rung(
                &mut ladder,
                &inputs,
                &stream,
                layers,
                &dir,
                Instant::now(),
                0,
            );
            assert_eq!(ladder.failed, 0);
            let delta = rung.delta.expect("stack rungs carry telemetry");
            (
                rung.ops,
                delta.counter("engine.journal.bytes"),
                delta.counter("net.frames_in") + delta.counter("net.frames_out"),
                delta.count("engine.phase.fsync_ns"),
            )
        };
        let first = counts();
        assert_eq!(first, counts());
        let (ops, _, frames, fsyncs) = first;
        assert_eq!(ops, 128);
        // One flush per operation; one frame each way per operation, plus
        // the greeting of the lane's connection.
        assert_eq!(fsyncs, ops as f64);
        assert_eq!(frames, 2.0 * ops as f64 + 1.0);
    }
}
