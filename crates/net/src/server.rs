//! The serving primary: a TCP front end over one [`SchedService`].
//!
//! Two listeners, both thread-per-connection over the framing in
//! [`crate::frame`]:
//!
//! * the **service port** speaks the request/response grammar
//!   ([`crate::proto`]) — submits pipeline through
//!   [`SchedService::submit_async`] and group-commit through
//!   [`SchedService::sync`], so N connections submitting concurrently get
//!   the same amortized-fsync behaviour local threads do;
//! * the **replication port** ([`crate::repl`]) streams raw journal bytes
//!   to warm standbys.
//!
//! Shutdown is graceful by construction: every accept loop and every
//! connection loop polls one shared stop flag between frames, `join`
//! drains them all and then issues a final `sync(u64::MAX)` so nothing a
//! client saw settled is lost.

use crate::error::{code, WireError};
use crate::frame::{queue_frame, read_frame, write_frame, FrameRead};
use crate::metrics::NetMetrics;
use crate::proto;
use crate::repl;
use hsched_engine::{EngineOp, EngineRequest, SchedService};
use std::collections::{HashMap, VecDeque};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a blocked accept/read sleeps before re-checking the stop
/// flag. Short enough that shutdown feels immediate, long enough to stay
/// invisible in profiles.
pub const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Admission backpressure: how many issued-but-not-yet-durable epochs the
/// server tolerates before it *sheds* new submits with a retryable
/// [`code::OVERLOADED`] error instead of letting every connection pile up
/// behind the same fsync queue. Shedding keeps the server responsive
/// (sync/stats/digest still answer) and pushes the waiting to clients,
/// who hold the `retry-after-ms` hint.
#[derive(Debug, Clone)]
pub struct ShedPolicy {
    /// Pending-epoch cap ([`SchedService::pending_epochs`] at or above
    /// this sheds).
    pub max_pending: u64,
    /// The advisory `retry-after-ms=` hint shed replies carry.
    pub retry_after_ms: u64,
}

impl Default for ShedPolicy {
    fn default() -> ShedPolicy {
        ShedPolicy {
            max_pending: 512,
            retry_after_ms: 50,
        }
    }
}

/// Remembered epoch replies keyed by client idempotency ticket, so a
/// retried-but-already-committed submit is recognized and answered with
/// its original reply instead of committing twice. Bounded FIFO: the
/// oldest entry falls out past `cap` — a retry arriving *that* late gets
/// recommitted, which the protocol accepts (tickets protect the retry
/// window, not forever).
pub struct DedupTable {
    cap: usize,
    inner: Mutex<(HashMap<String, String>, VecDeque<String>)>,
}

impl DedupTable {
    /// A table remembering up to `cap` replies.
    pub fn new(cap: usize) -> DedupTable {
        DedupTable {
            cap,
            inner: Mutex::new((HashMap::new(), VecDeque::new())),
        }
    }

    /// The stored reply for `ticket`, if still remembered.
    pub fn lookup(&self, ticket: &str) -> Option<String> {
        self.inner
            .lock()
            .expect("dedup table poisoned")
            .0
            .get(ticket)
            .cloned()
    }

    /// Remembers `reply` under `ticket`, evicting the oldest entry past
    /// the cap.
    pub fn record(&self, ticket: &str, reply: &str) {
        let mut inner = self.inner.lock().expect("dedup table poisoned");
        let (map, order) = &mut *inner;
        if map.insert(ticket.to_string(), reply.to_string()).is_none() {
            order.push_back(ticket.to_string());
            while order.len() > self.cap {
                if let Some(evicted) = order.pop_front() {
                    map.remove(&evicted);
                }
            }
        }
    }
}

impl std::fmt::Debug for DedupTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("dedup table poisoned");
        write!(f, "DedupTable({}/{})", inner.0.len(), self.cap)
    }
}

/// Everything a connection handler can reach: the engine, the wire
/// telemetry sink, and the server's stop flag.
pub struct ConnCtx {
    /// The engine this server fronts.
    pub engine: Arc<SchedService>,
    /// Wire-layer telemetry (shared by every connection).
    pub metrics: Arc<NetMetrics>,
    /// Set when the server is draining; handlers finish the in-flight
    /// frame and close.
    pub stop: Arc<AtomicBool>,
    /// Admission backpressure policy for submit frames.
    pub shed: ShedPolicy,
    /// Ticket → stored-reply dedup for retried submits.
    pub dedup: Arc<DedupTable>,
}

/// Server configuration. `service_addr` is required; replication needs
/// both `repl_addr` and `journal_path` (the streamer reads raw bytes
/// straight from the journal file).
#[derive(Debug)]
pub struct ServerConfig {
    /// Bind address of the service port (use port 0 to let the OS pick).
    pub service_addr: String,
    /// Bind address of the replication port, if this primary feeds
    /// standbys.
    pub repl_addr: Option<String>,
    /// Path of the engine's attached journal (required with `repl_addr`).
    pub journal_path: Option<PathBuf>,
    /// Heartbeat cadence: how often the server drains for a consistent
    /// `(epoch, digest)` pair and offers it to followers. Heartbeats
    /// quiesce the pipeline — keep this well above the epoch rate.
    pub heartbeat_interval: Duration,
    /// Admission backpressure (see [`ShedPolicy`]).
    pub shed: ShedPolicy,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            service_addr: "127.0.0.1:0".to_string(),
            repl_addr: None,
            journal_path: None,
            heartbeat_interval: Duration::from_millis(500),
            shed: ShedPolicy::default(),
        }
    }
}

struct Shared {
    ctx: ConnCtx,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// A running server. Dropping the handle does *not* stop the server —
/// call [`ServerHandle::stop`] then [`ServerHandle::join`].
pub struct ServerHandle {
    service_addr: SocketAddr,
    repl_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accepts: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound service address.
    pub fn service_addr(&self) -> SocketAddr {
        self.service_addr
    }

    /// The bound replication address, if replication is on.
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl_addr
    }

    /// The server's stop flag (shared with every connection thread).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        self.shared.ctx.stop.clone()
    }

    /// Requests a drain: accept loops stop accepting, connection loops
    /// close after their in-flight frame. Idempotent.
    pub fn stop(&self) {
        self.shared.ctx.stop.store(true, Ordering::SeqCst);
    }

    /// Drains the server: joins the accept loops, then every connection
    /// thread, then issues the final group commit so every settled epoch
    /// is durable before the process exits. Returns the last synced
    /// epoch.
    pub fn join(self) -> Result<u64, WireError> {
        self.stop();
        for accept in self.accepts {
            let _ = accept.join();
        }
        let conns = {
            let mut held = self.shared.conns.lock().expect("conn registry poisoned");
            std::mem::take(&mut *held)
        };
        for conn in conns {
            let _ = conn.join();
        }
        self.shared
            .ctx
            .engine
            .sync(u64::MAX)
            .map_err(WireError::from_engine)
    }
}

/// The server front door: binds the listener(s), spawns the accept
/// loops (and, with replication configured, the heartbeat thread and the
/// durable-mark subscription), and returns a handle.
pub struct Server;

impl Server {
    /// Starts serving `engine` per `config`.
    pub fn start(
        engine: Arc<SchedService>,
        config: ServerConfig,
    ) -> Result<ServerHandle, WireError> {
        let metrics = Arc::new(NetMetrics::new());
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            ctx: ConnCtx {
                engine: engine.clone(),
                metrics: metrics.clone(),
                stop: stop.clone(),
                shed: config.shed.clone(),
                dedup: Arc::new(DedupTable::new(1024)),
            },
            conns: Mutex::new(Vec::new()),
        });
        let listener = TcpListener::bind(&config.service_addr)?;
        let service_addr = listener.local_addr()?;
        let mut accepts = Vec::new();
        {
            let shared = shared.clone();
            accepts.push(std::thread::spawn(move || {
                accept_loop(listener, shared, handle_service_conn);
            }));
        }

        let mut repl_addr = None;
        if let Some(addr) = &config.repl_addr {
            let journal_path = config.journal_path.clone().ok_or_else(|| {
                WireError::Protocol("replication requires the journal path".to_string())
            })?;
            let repl = Arc::new(repl::ReplShared::install(
                &engine,
                journal_path,
                config.heartbeat_interval,
                stop.clone(),
            )?);
            let listener = TcpListener::bind(addr)?;
            repl_addr = Some(listener.local_addr()?);
            let shared2 = shared.clone();
            accepts.push(std::thread::spawn(move || {
                accept_loop(listener, shared2, move |stream, ctx| {
                    repl::handle_follower_conn(stream, ctx, &repl)
                });
            }));
        }

        Ok(ServerHandle {
            service_addr,
            repl_addr,
            shared,
            accepts,
        })
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    handle: impl Fn(TcpStream, &ConnCtx) + Send + Sync + 'static,
) {
    let handle = Arc::new(handle);
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shared.ctx.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if hsched_faults::hit(hsched_faults::Site::ConnAccept) {
                    // Injected accept failure: the connection is dropped
                    // before the greeting, as if the listener backlog
                    // overflowed — the client sees an immediate EOF.
                    drop(stream);
                    continue;
                }
                // The accepted socket inherits nonblocking on some
                // platforms; connection loops want timeout-based reads.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                shared.ctx.metrics.connections.incr();
                let shared2 = shared.clone();
                let handle2 = handle.clone();
                let conn = std::thread::spawn(move || {
                    handle2(stream, &shared2.ctx);
                });
                shared
                    .conns
                    .lock()
                    .expect("conn registry poisoned")
                    .push(conn);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// What a dispatched frame asks the connection loop to do next.
enum Flow {
    /// Send this payload and keep the connection.
    Reply(String),
    /// Close the connection cleanly (the `quit` frame).
    Quit,
}

/// One service-port connection: greet, then a frame loop.
/// Engine errors become typed `error` frames and the connection
/// survives; grammar violations become one `error` frame and drop
/// **only this connection** — the accept loop and every sibling keep
/// running.
///
/// Both halves are buffered: a pipelining client's burst of frames comes
/// up in a handful of reads, and the matching replies queue in the write
/// buffer until the inbound buffer drains — the flush happens exactly
/// when the loop is about to block on the socket, so lockstep clients
/// still get every reply immediately and a burst pays one flush, not one
/// per frame.
fn handle_service_conn(stream: TcpStream, ctx: &ConnCtx) {
    if stream.set_read_timeout(Some(POLL_INTERVAL * 4)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = std::io::BufReader::new(read_half);
    let mut writer = std::io::BufWriter::new(stream);
    match write_frame(&mut writer, proto::SERVICE_GREETING) {
        Ok(n) => {
            ctx.metrics.frames_out.incr();
            ctx.metrics.bytes_out.add(n);
        }
        Err(_) => return,
    }
    loop {
        // About to touch the socket: release every queued reply first.
        if reader.buffer().is_empty() && writer.flush().is_err() {
            return;
        }
        let payload = match read_frame(&mut reader, Some(&ctx.stop)) {
            Ok(FrameRead::Frame(payload)) => payload,
            Ok(FrameRead::Idle) => {
                if ctx.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Ok(FrameRead::Eof) => return,
            Err(e) => {
                ctx.metrics.malformed_rejects.incr();
                let _ = write_frame(&mut writer, &proto::encode_error(&e));
                return;
            }
        };
        ctx.metrics.frames_in.incr();
        ctx.metrics.bytes_in.add(4 + payload.len() as u64);
        match dispatch(ctx, &payload) {
            Ok(Flow::Reply(reply)) => match queue_frame(&mut writer, &reply) {
                Ok(n) => {
                    ctx.metrics.frames_out.incr();
                    ctx.metrics.bytes_out.add(n);
                }
                Err(_) => return,
            },
            Ok(Flow::Quit) => {
                let _ = writer.flush();
                return;
            }
            Err(e) => {
                // Grammar violation: report it, drop this connection.
                ctx.metrics.malformed_rejects.incr();
                let _ = write_frame(&mut writer, &proto::encode_error(&e));
                return;
            }
        }
    }
}

fn dispatch(ctx: &ConnCtx, payload: &str) -> Result<Flow, WireError> {
    match proto::keyword(payload) {
        "submit" => {
            let (mode, version, batch, ticket) = proto::parse_submit(payload)?;
            // A retried ticket whose reply we remember: replay the stored
            // reply; the batch must NOT commit a second time.
            if let Some(id) = &ticket {
                if let Some(stored) = ctx.dedup.lookup(id) {
                    ctx.metrics.dedup_hits.incr();
                    return Ok(Flow::Reply(stored));
                }
            }
            // Admission backpressure: shed rather than queue behind the
            // fsync backlog. Checked *after* dedup — replaying a stored
            // reply adds no load.
            let pending = ctx.engine.pending_epochs();
            if pending >= ctx.shed.max_pending {
                ctx.engine.note_shed();
                ctx.metrics.shed_replies.incr();
                return Ok(Flow::Reply(proto::encode_error(&WireError::remote(
                    code::OVERLOADED,
                    format!(
                        "server overloaded: {pending} epochs pending (cap {}); retry-after-ms={}",
                        ctx.shed.max_pending, ctx.shed.retry_after_ms
                    ),
                ))));
            }
            let request = EngineRequest {
                version,
                ops: batch.into_iter().map(EngineOp::Admission).collect(),
            };
            let outcome = match mode {
                proto::SubmitMode::Sync => ctx.engine.submit(&request),
                proto::SubmitMode::Async => ctx
                    .engine
                    .submit_async(&request)
                    .map(|ticket| ticket.response),
            };
            Ok(Flow::Reply(match outcome {
                Ok(response) => {
                    let reply = proto::encode_epoch(&response);
                    // Only committed epochs are remembered: an engine
                    // error consumes no epoch, so retrying it is safe
                    // without dedup.
                    if let Some(id) = &ticket {
                        ctx.dedup.record(id, &reply);
                    }
                    reply
                }
                // Engine errors are request-scoped: typed frame, keep the
                // connection.
                Err(e) => proto::encode_error(&WireError::from_engine(e)),
            }))
        }
        "sync" => {
            let watermark = proto::parse_sync(payload)?;
            Ok(Flow::Reply(match ctx.engine.sync(watermark) {
                Ok(covered) => proto::encode_synced(covered),
                Err(e) => proto::encode_error(&WireError::from_engine(e)),
            }))
        }
        "stats" => {
            let mut snap = ctx.engine.metrics();
            snap.merge(&ctx.metrics.snapshot());
            Ok(Flow::Reply(proto::encode_stats(&snap)))
        }
        "digest" => {
            let (epoch, digest) = ctx.engine.epoch_digest();
            Ok(Flow::Reply(proto::encode_digest(epoch, &digest)))
        }
        "quit" => Ok(Flow::Quit),
        other => Err(WireError::remote(
            code::MALFORMED,
            format!("unknown frame keyword `{other}`"),
        )),
    }
}
