//! The load shapes. One benchmark process generates all load, with at
//! most [`CONNECTIONS`] load-generating threads; concurrency beyond that
//! comes from pipelining windows on a connection, not from more clients.
//! Every operation is one submitted batch = one epoch, timed on the
//! client side from submit to the reply that makes it durable.

use crate::inputs::{Op, CONNECTIONS, WINDOW};
use crate::stats::Sample;
use crate::trace::{Recorder, Span};
use hsched_engine::{EngineRequest, SchedService, SCHEMA_VERSION};
use hsched_net::{Client, SubmitMode};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How a closed-loop lane submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Lock-step `submit sync` frames: every operation pays a round trip
    /// and waits for its own group commit.
    WireSync,
    /// [`WINDOW`] `submit async` frames, their replies, then one `sync`
    /// at the window's highest epoch.
    WirePipelined,
    /// `SchedService::submit` on the calling thread: no wire.
    InProcess,
}

/// One load-generating thread's state, kept across phases (warm-up,
/// measured, traced) so a cyclic lane continues where it stopped.
pub struct Lane<'a> {
    ops: &'a [Op],
    /// Pre-built requests for [`Discipline::InProcess`], so no clone sits
    /// inside the timed call.
    requests: Vec<EngineRequest>,
    client: Option<Client>,
    cursor: usize,
    index: usize,
}

impl<'a> Lane<'a> {
    pub fn new(index: usize, ops: &'a [Op], client: Option<Client>) -> Lane<'a> {
        let requests = if client.is_none() {
            ops.iter()
                .map(|op| EngineRequest::batch(op.batch.clone()))
                .collect()
        } else {
            Vec::new()
        };
        Lane {
            ops,
            requests,
            client,
            cursor: 0,
            index,
        }
    }

    pub fn quit(self) {
        if let Some(client) = self.client {
            let _ = client.quit();
        }
    }
}

/// When a phase ends: after a fixed number of operations per lane
/// (warm-up, ladder rungs) or at a deadline (measured phases).
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Ops(usize),
    Deadline(Instant),
}

/// What one phase produced, all lanes merged.
#[derive(Debug, Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Operations that errored or whose verdict was not the expected one.
    pub failed: u64,
    pub spans: Vec<Span>,
}

impl Outcome {
    fn merge(&mut self, other: Outcome) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.spans.extend(other.spans);
    }
}

/// What the lanes of a phase share.
pub struct PhaseCtx<'a> {
    /// Time zero of sample and span timestamps.
    pub origin: Instant,
    pub traced: bool,
    /// Highest epoch a durable reply has acknowledged so far.
    pub acked: &'a AtomicU64,
    pub engine: &'a SchedService,
}

fn run_lane(
    lane: &mut Lane<'_>,
    discipline: Discipline,
    until: Until,
    ctx: &PhaseCtx<'_>,
) -> Outcome {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(ctx.origin, ctx.traced, lane.index);
    let mut done = 0usize;
    let step = if discipline == Discipline::WirePipelined {
        WINDOW
    } else {
        1
    };
    loop {
        match until {
            Until::Ops(n) if done >= n => break,
            Until::Deadline(at) if Instant::now() >= at => break,
            _ => {}
        }
        let first = lane.cursor;
        // Lanes own their islands, so the serial oracle's verdicts hold
        // under concurrency.
        let verdict_ok = |admitted: bool, op: &Op| admitted == op.admit;
        match discipline {
            Discipline::WireSync => {
                let op = &lane.ops[first % lane.ops.len()];
                let client = lane.client.as_mut().expect("wire lane has a client");
                let root = rec.open();
                let sent = Instant::now();
                let queued = client
                    .send_submit(SubmitMode::Sync, SCHEMA_VERSION, &op.batch)
                    .map(|()| Instant::now());
                let reply = queued.and_then(|queued| {
                    rec.span(root, first as u64, "net.client.send", sent, queued);
                    client.recv_epoch().map(|epoch| (queued, epoch))
                });
                let end = Instant::now();
                out.attempted += 1;
                match reply {
                    Ok((queued, epoch)) => {
                        rec.span(root, first as u64, "net.client.recv_wait", queued, end);
                        rec.close(root, first as u64, "op", sent, end);
                        ctx.acked.fetch_max(epoch.epoch, Ordering::Relaxed);
                        if !verdict_ok(epoch.admitted, op) {
                            out.failed += 1;
                        }
                        out.samples.push(sample(ctx, sent, end));
                    }
                    Err(_) => out.failed += 1,
                }
            }
            Discipline::WirePipelined => {
                let client = lane.client.as_mut().expect("wire lane has a client");
                let root = rec.open();
                let mut sent = [ctx.origin; WINDOW];
                let mut failed = 0u64;
                let mut high_water = 0u64;
                for (k, at) in sent.iter_mut().enumerate() {
                    let op = &lane.ops[(first + k) % lane.ops.len()];
                    *at = Instant::now();
                    if client
                        .send_submit(SubmitMode::Async, SCHEMA_VERSION, &op.batch)
                        .is_err()
                    {
                        failed += 1;
                    }
                }
                let queued = Instant::now();
                rec.span(root, first as u64, "net.client.send", sent[0], queued);
                for k in 0..WINDOW {
                    let op = &lane.ops[(first + k) % lane.ops.len()];
                    match client.recv_epoch() {
                        Ok(epoch) => {
                            high_water = high_water.max(epoch.epoch);
                            if !verdict_ok(epoch.admitted, op) {
                                failed += 1;
                            }
                        }
                        Err(_) => failed += 1,
                    }
                }
                let replied = Instant::now();
                rec.span(root, first as u64, "net.client.recv_wait", queued, replied);
                let synced = client.sync(Some(high_water));
                let end = Instant::now();
                rec.span(root, first as u64, "net.client.sync_wait", replied, end);
                rec.close(root, first as u64, "window", sent[0], end);
                out.attempted += WINDOW as u64;
                match synced {
                    Ok(covered) if covered >= high_water && failed == 0 => {
                        ctx.acked.fetch_max(high_water, Ordering::Relaxed);
                        out.samples
                            .extend(sent.iter().map(|&at| sample(ctx, at, end)));
                    }
                    // Without the covering sync no operation of the
                    // window is known durable.
                    _ => out.failed += WINDOW as u64,
                }
            }
            Discipline::InProcess => {
                let at = first % lane.ops.len();
                let sent = Instant::now();
                let response = ctx.engine.submit(&lane.requests[at]);
                let end = Instant::now();
                rec.span(0, first as u64, "engine.submit", sent, end);
                out.attempted += 1;
                match response {
                    Ok(response) => {
                        ctx.acked.fetch_max(response.epoch, Ordering::Relaxed);
                        if !verdict_ok(response.outcome.verdict.admitted(), &lane.ops[at]) {
                            out.failed += 1;
                        }
                        out.samples.push(sample(ctx, sent, end));
                    }
                    Err(_) => out.failed += 1,
                }
            }
        }
        lane.cursor += step;
        done += step;
    }
    out.spans = rec.spans;
    out
}

fn sample(ctx: &PhaseCtx<'_>, sent: Instant, end: Instant) -> Sample {
    Sample {
        at_ns: end.duration_since(ctx.origin).as_nanos() as u64,
        latency_ns: end.duration_since(sent).as_nanos() as u64,
    }
}

/// Runs every lane on its own thread until `until`; `meanwhile` runs on
/// the calling thread while they work (CPU sampling, the durability
/// probe).
pub fn closed_loop<T>(
    lanes: &mut [Lane<'_>],
    discipline: Discipline,
    until: Until,
    ctx: &PhaseCtx<'_>,
    meanwhile: impl FnOnce() -> T,
) -> (Outcome, T) {
    assert!(lanes.len() <= CONNECTIONS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| scope.spawn(move || run_lane(lane, discipline, until, ctx)))
            .collect();
        let side = meanwhile();
        let mut merged = Outcome::default();
        for handle in handles {
            merged.merge(handle.join().expect("load thread ok"));
        }
        (merged, side)
    })
}
