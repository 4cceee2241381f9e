//! The traced run of one workload: the per-layer metrics.
//!
//! Three sources, all in the benchmark's own files: spans the harness
//! records around its calls into public functions; deltas of the public
//! telemetry snapshots (means from sums and counts, never bucket
//! ceilings); and the layer ladder. End-to-end metrics never come from
//! here — they are measured with tracing off, in [`crate::run`].

use crate::checks::{verify_final_state, Checks};
use crate::host;
use crate::inputs::{generate, Workload};
use crate::ladder::{climb, Delta, Ladder};
use crate::load::Outcome;
use crate::metrics::{assemble, PER_LAYER};
use crate::probes;
use crate::run::{measured_phase, set_up, Live, Phase, Report, Settings, DRAIN_LIMIT};
use crate::stack::{admission_policy, analysis_config, TmpDir};
use crate::stats;
use crate::trace::{self_times, write_jsonl};
use hsched_engine::SchedService;
use std::time::Instant;

/// Operations per ladder rung, per measured second.
const RUNG_OPS_PER_SECOND: f64 = 40.0;
/// Operations the single-function probes run over.
const PROBE_OPS: usize = 256;

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

pub fn per_layer(workload: Workload, settings: &Settings) -> Report {
    let dir = TmpDir::create(&settings.tmp_root).expect("scratch directory is writable");
    let origin = Instant::now();
    host::progress("generating inputs");
    let inputs = generate(workload, settings.seed, settings.system_div());
    let mut checks = Checks::default();

    // --- The loaded run: an untraced phase, then the same again traced.
    host::progress("loaded phases");
    let phase_seconds = settings.seconds / 4.0;
    let mut live = set_up(&inputs, &dir);
    let loaded = |live: &mut Live<'_>, traced: bool| {
        measured_phase(
            live,
            workload,
            &dir,
            Phase {
                seconds: phase_seconds,
                traced,
                probe_at: None,
            },
        )
        .0
    };
    let untraced = loaded(&mut live, false);
    let rejected_before = live.stack.engine.stats().rejected;
    let interval = Delta::start(&live.stack);
    let traced = loaded(&mut live, true);
    let delta = interval.finish(&live.stack);
    let last_reply = Instant::now();
    let mut drain_ms = 0.0;
    if live.stack.has_standby() {
        match live.stack.wait_standby(DRAIN_LIMIT) {
            Ok(_) => drain_ms = last_reply.elapsed().as_secs_f64() * 1e3,
            Err(why) => checks.failures.push(why),
        }
    }
    let rejected = (live.stack.engine.stats().rejected - rejected_before) as f64;

    // A second standby, from an empty mirror to the durable epoch.
    let mut bootstrap_s = 0.0;
    if live.stack.has_standby() {
        host::progress("bootstrapping a standby");
        let epoch = live.stack.engine.durable_epoch();
        let (took, reached) = live.stack.bootstrap_standby(&dir, epoch);
        bootstrap_s = took.as_secs_f64();
        let digest = live.stack.engine.state_digest();
        checks.require(
            reached.error.is_none()
                && reached.epoch == epoch
                && reached.digest.as_deref() == Some(digest.as_str()),
            || {
                format!(
                    "bootstrapped standby reached epoch {} digest {:?} (error {:?}), primary is at {epoch} {digest}",
                    reached.epoch, reached.digest, reached.error
                )
            },
        );
    }
    let standby = live.stack.stop_standby();
    live.disconnect();
    live.stack.stop();

    host::progress("recovering and checking");
    let mut attempted = live.warm.attempted + untraced.attempted + traced.attempted;
    let mut failed = live.warm.failed + untraced.failed + traced.failed;
    let recovery = verify_final_state(
        &mut checks,
        &live.stack.engine,
        live.stack.journal.as_deref(),
        standby.as_ref(),
        &inputs.set,
        attempted,
        workload == Workload::DeepCone,
    );
    let seed_started = Instant::now();
    let fresh = SchedService::new(inputs.set.clone(), analysis_config(), admission_policy());
    let seed_s = seed_started.elapsed().as_secs_f64();
    drop(fresh);
    let (replay_time, replayed_epochs) = recovery.expect("loaded stacks have a journal");
    let replay_us_per_record =
        (replay_time.as_secs_f64() - seed_s).max(0.0) * 1e6 / replayed_epochs.max(1) as f64;

    // --- Probes on the loaded engine's state.
    host::progress("probing single functions");
    let probe_ops = &inputs.lanes[0][..PROBE_OPS.min(inputs.lanes[0].len())];
    let deck = probes::operand_deck(&live.stack.engine.current_set(), &live.stack.engine);
    let snapshot_ms = probes::snapshot_call_ms(&live.stack.engine);

    // --- The ladder.
    host::progress("climbing the ladder");
    let target_ops = (settings.seconds * RUNG_OPS_PER_SECOND).round().max(8.0) as usize;
    let ladder = climb(&inputs, &dir, target_ops, origin);
    attempted += ladder.attempted;
    failed += ladder.failed;
    checks.require(failed == 0, || {
        format!("{failed} of {attempted} operations failed")
    });

    // --- Assemble.
    let ops = delta.counter("engine.epochs_settled");
    let loaded_latency_ms = stats::mean(
        &traced
            .samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let phase_us = |phase: &str| delta.mean(&format!("engine.phase.{phase}_ns")) / 1e3;
    let top = ladder
        .top()
        .delta
        .as_ref()
        .expect("stack rungs carry telemetry");
    let serial_us = |phase: &str| top.mean(&format!("engine.phase.{phase}_ns")) / 1e3;
    let engine_rung = ladder
        .engine
        .as_ref()
        .expect("every workload has the engine rung");
    let engine_analyze_ms = engine_rung
        .delta
        .as_ref()
        .expect("stack rungs carry telemetry")
        .mean("engine.phase.analyze_ns")
        / 1e6;
    let (l0, l1, l2, l3, l4, l5) = (
        Ladder::ms(&ladder.wire_repl),
        Ladder::ms(&ladder.wire),
        Ladder::ms(&ladder.engine_journal),
        Ladder::ms(&ladder.engine),
        Ladder::ms(&ladder.admission),
        Ladder::ms(&ladder.analysis),
    );
    let over_wire = workload.over_wire();
    let wire_self_ms = if over_wire { l1 - l2 } else { 0.0 };
    let repl_self_ms = if over_wire { l0 - l1 } else { 0.0 };
    // Coverage: the layers above the engine by rung difference, the
    // engine by its own six phase timers (as the serial engine_journal
    // rung recorded them), over the serial end-to-end latency.
    let engine_phases_ms = ladder
        .engine_journal
        .as_ref()
        .and_then(|r| r.delta.as_ref())
        .map_or(0.0, |d| d.phase_sum_ns() / 1e6);
    let coverage = (repl_self_ms + wire_self_ms + engine_phases_ms) / ladder.top().mean_ms;
    checks.require(coverage >= 0.90, || {
        format!("the layer rows cover only {coverage:.3} of the serial latency")
    });
    let span_us = {
        let times = self_times(&ladder.spans);
        move |name: &str| times.get(name).map_or(0.0, |&(ns, _)| ns / 1e3)
    };

    let throughput = |outcome: &Outcome| outcome.samples.len() as f64 / phase_seconds;
    let trace_overhead_pct = (1.0 - ratio(throughput(&traced), throughput(&untraced))) * 100.0;

    let net = |name: &str| if over_wire { delta.counter(name) } else { 0.0 };
    let frames = net("net.frames_in") + net("net.frames_out");
    let sheds = net("net.shed.replies");
    let hit_frac = |kind: &str| {
        let hits = delta.counter(&format!("analysis.rta_cache.{kind}_hits"));
        ratio(
            hits,
            hits + delta.counter(&format!("analysis.rta_cache.{kind}_misses")),
        )
    };
    let values: Vec<(&str, f64)> = vec![
        ("ladder.wire_repl_ms", l0),
        ("ladder.wire_ms", l1),
        ("ladder.engine_journal_ms", l2),
        ("ladder.engine_ms", l3),
        ("ladder.admission_ms", l4),
        ("ladder.analysis_ms", l5),
        ("net.wire.self_ms", wire_self_ms),
        ("net.client.send_us", span_us("net.client.send")),
        ("net.client.recv_wait_us", span_us("net.client.recv_wait")),
        ("net.frame.codec_ns", probes::frame_codec_ns(probe_ops)),
        ("net.frames_per_op", ratio(frames, ops)),
        ("net.bytes_in_per_op", ratio(net("net.bytes_in"), ops)),
        ("net.bytes_out_per_op", ratio(net("net.bytes_out"), ops)),
        ("net.repl.self_ms", repl_self_ms),
        (
            "net.repl.lag_records_p95",
            delta
                .after
                .histogram("net.repl.lag_records")
                .map_or(0.0, |h| h.p95() as f64),
        ),
        (
            "net.repl.bytes_streamed_per_op",
            ratio(net("net.repl.bytes_streamed"), ops),
        ),
        ("net.repl.drain_ms", drain_ms),
        ("net.repl.bootstrap_s", bootstrap_s),
        ("net.shed_frac", ratio(sheds, ops + sheds)),
        (
            "net.client.retries_per_op",
            ratio(net("net.client.retries"), ops),
        ),
        ("engine.frontdoor.self_us", (l3 - engine_analyze_ms) * 1e3),
        ("engine.phase.reserve_us", phase_us("reserve")),
        ("engine.phase.route_us", phase_us("route")),
        ("engine.phase.checkout_us", phase_us("checkout")),
        ("engine.phase.analyze_us", phase_us("analyze")),
        ("engine.phase.settle_us", phase_us("settle")),
        (
            "engine.reserve.wait_us",
            phase_us("reserve") - serial_us("reserve"),
        ),
        (
            "engine.settle.wait_us",
            phase_us("settle") - serial_us("settle"),
        ),
        (
            "engine.fast_path_frac",
            ratio(delta.counter("engine.reserve.fast"), ops),
        ),
        (
            "engine.fast_conflicts_per_op",
            ratio(delta.counter("engine.reserve.fast_conflicts"), ops),
        ),
        (
            "engine.fast_fallbacks_per_op",
            ratio(delta.counter("engine.reserve.fast_fallbacks"), ops),
        ),
        (
            "engine.exclusive_drains_per_op",
            ratio(delta.counter("engine.reserve.exclusive_drains"), ops),
        ),
        ("engine.journal.self_ms", l2 - l3),
        ("engine.journal.fsync_ms", phase_us("fsync") / 1e3),
        (
            "engine.journal.fsyncs_per_op",
            ratio(delta.count("engine.phase.fsync_ns"), ops),
        ),
        (
            "engine.sync.batch_epochs_mean",
            delta.mean("engine.sync.batch_epochs"),
        ),
        (
            "engine.journal.append_us",
            probes::journal_append_us(probe_ops, inputs.set.platforms().len(), &dir),
        ),
        ("engine.snapshot.call_ms", snapshot_ms),
        ("engine.replay.self_us_per_record", replay_us_per_record),
        ("admission.commit.self_us", (l4 - l5) * 1e3),
        (
            "admission.cone.transactions_mean",
            delta.mean("admission.cone.transactions"),
        ),
        (
            "admission.dirty_fraction_pct_mean",
            delta.mean("admission.cone.dirty_fraction_pct"),
        ),
        (
            "admission.cone.islands_mean",
            delta.mean("admission.cone.islands"),
        ),
        (
            "admission.warm_commit_frac",
            ratio(
                delta.counter("admission.commits_warm"),
                delta.counter("admission.commits_analyzed"),
            ),
        ),
        ("admission.reject_frac", ratio(rejected, ops)),
        (
            "analysis.share_of_latency",
            ratio(phase_us("analyze") / 1e3, loaded_latency_ms),
        ),
        ("analysis.cold_island_ms", l5),
        (
            "analysis.fixpoint.iterations_cold_mean",
            delta.mean("analysis.fixpoint.iterations_cold"),
        ),
        (
            "analysis.fixpoint.iterations_warm_mean",
            delta.mean("analysis.fixpoint.iterations_warm"),
        ),
        ("analysis.rta_cache.foreign_hit_frac", hit_frac("foreign")),
        (
            "analysis.rta_cache.completion_hit_frac",
            hit_frac("completion"),
        ),
        (
            "numeric.rational.op_ns",
            probes::rational_op_ns(&deck, settings.seed),
        ),
        (
            "numeric.small_operand_frac",
            probes::small_operand_frac(&deck),
        ),
        ("supply.inverse_ns", probes::supply_inverse_ns(&inputs.set)),
        ("loadgen.ladder_coverage", coverage),
        ("loadgen.trace_overhead_pct", trace_overhead_pct),
        ("loadgen.loaded_throughput_ops_s", throughput(&traced)),
    ];

    // Spans of the loaded phase and of the ladder, one file per workload.
    let trace_path = settings
        .tmp_root
        .parent()
        .unwrap_or(&settings.tmp_root)
        .join(format!("trace-{}.jsonl", workload.name()));
    let rung_ops = ladder.top().ops;
    let mut spans = traced.spans;
    spans.extend(ladder.spans);
    if let Err(e) = write_jsonl(&trace_path, &spans) {
        checks
            .failures
            .push(format!("cannot write {}: {e}", trace_path.display()));
    }

    let notes = vec![
        format!(
            "host: nproc {}, journal filesystem {}",
            host::nproc(),
            host::fs_type(dir.path())
        ),
        format!(
            "loaded phases of {phase_seconds:.2} s; {ops} operations in the traced one; ladder rungs of {rung_ops} operations"
        ),
        format!("{} spans written to {}", spans.len(), trace_path.display()),
        "a layer this workload bypasses reports 0".to_string(),
    ];
    Report {
        correct: checks.correct(),
        attempted,
        failed,
        metrics: assemble(&PER_LAYER, &values),
        notes,
        failures: checks.failures,
    }
}
