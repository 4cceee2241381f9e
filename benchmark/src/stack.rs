//! The system under test, assembled in-process behind the public
//! constructors only: `SchedService::new/with_journal`, `Server::start`,
//! `Follower::new/run`. Which layers a stack has is what distinguishes
//! the workloads and the ladder rungs.

use hsched_admission::AdmissionPolicy;
use hsched_analysis::AnalysisConfig;
use hsched_engine::SchedService;
use hsched_net::{Client, Follower, FollowerConfig, Server, ServerConfig, ServerHandle};
use hsched_telemetry::MetricsSnapshot;
use hsched_transaction::TransactionSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A scratch directory for journals and mirrors, removed on drop — also
/// when a check fails or the run panics.
#[derive(Debug)]
pub struct TmpDir(PathBuf);

impl TmpDir {
    /// Creates `<root>/run-<pid>`. `root` must be on a real filesystem:
    /// on tmpfs `sync_data` is free and the fsync wall disappears.
    pub fn create(root: &Path) -> std::io::Result<TmpDir> {
        // A killed run cannot clean up after itself; the next one does.
        for entry in std::fs::read_dir(root).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let stale = name
                .to_str()
                .and_then(|n| n.strip_prefix("run-"))
                .is_some_and(|pid| !Path::new("/proc").join(pid).exists());
            if stale {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let dir = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TmpDir(dir))
    }

    /// A fresh file path (nothing is created).
    pub fn file(&self, tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        self.0
            .join(format!("{tag}-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Which layers a stack has.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    pub journal: bool,
    /// A `Server` on loopback in front of the engine.
    pub wire: bool,
    /// A live `Follower` tailing the journal stream (needs `wire`).
    pub standby: bool,
}

struct Standby {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<StandbyState>,
}

/// What a stopped standby had reached.
#[derive(Debug, Clone)]
pub struct StandbyState {
    pub epoch: u64,
    pub digest: Option<String>,
    /// Why the follower gave up, if it did (divergence above all).
    pub error: Option<String>,
}

fn run_follower(mut follower: Follower) -> StandbyState {
    let error = follower.run().err().map(|e| e.to_string());
    StandbyState {
        epoch: follower.epoch(),
        digest: follower.state_digest(),
        error,
    }
}

pub struct Stack {
    pub engine: Arc<SchedService>,
    pub journal: Option<PathBuf>,
    mirror: Option<PathBuf>,
    set: TransactionSet,
    server: Option<ServerHandle>,
    standby: Option<Standby>,
}

pub fn analysis_config() -> AnalysisConfig {
    AnalysisConfig::default()
}

pub fn admission_policy() -> AdmissionPolicy {
    AdmissionPolicy::default()
}

impl Stack {
    /// Seed analysis, journal, server and standby, in that order.
    pub fn start(set: &TransactionSet, layers: Layers, dir: &TmpDir) -> Stack {
        let mut engine = SchedService::new(set.clone(), analysis_config(), admission_policy())
            .expect("seed analysis succeeds");
        let journal = layers.journal.then(|| dir.file("journal"));
        if let Some(path) = &journal {
            engine = engine.with_journal(path).expect("journal attaches");
        }
        let engine = Arc::new(engine);
        let mut stack = Stack {
            engine,
            journal,
            mirror: None,
            set: set.clone(),
            server: None,
            standby: None,
        };
        if layers.wire {
            let server = Server::start(
                stack.engine.clone(),
                ServerConfig {
                    repl_addr: layers.standby.then(|| "127.0.0.1:0".to_string()),
                    journal_path: stack.journal.clone(),
                    ..ServerConfig::default()
                },
            )
            .expect("server starts on loopback");
            stack.server = Some(server);
        }
        if layers.standby {
            stack.start_standby(dir, None);
        }
        stack
    }

    fn repl_addr(&self) -> String {
        self.server
            .as_ref()
            .and_then(ServerHandle::repl_addr)
            .expect("stack has a replication port")
            .to_string()
    }

    fn follower(
        &self,
        mirror: PathBuf,
        stop: Arc<AtomicBool>,
        catch_up_to: Option<u64>,
    ) -> Follower {
        Follower::new(
            self.set.clone(),
            analysis_config(),
            admission_policy(),
            FollowerConfig {
                primary: self.repl_addr(),
                journal: mirror,
                stop: Some(stop),
                catch_up_to,
                reconnect_delay: Duration::from_millis(20),
                ..FollowerConfig::default()
            },
        )
    }

    fn start_standby(&mut self, dir: &TmpDir, catch_up_to: Option<u64>) {
        let mirror = dir.file("mirror");
        let stop = Arc::new(AtomicBool::new(false));
        let follower = self.follower(mirror.clone(), stop.clone(), catch_up_to);
        let thread = std::thread::spawn(move || run_follower(follower));
        self.mirror = Some(mirror);
        self.standby = Some(Standby { stop, thread });
    }

    /// Bootstraps a second standby from an empty mirror up to `epoch`,
    /// on the calling thread; returns how long that took and what it
    /// reached.
    pub fn bootstrap_standby(&self, dir: &TmpDir, epoch: u64) -> (Duration, StandbyState) {
        let started = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let state = run_follower(self.follower(dir.file("bootstrap"), stop, Some(epoch)));
        (started.elapsed(), state)
    }

    pub fn connect(&self) -> Client {
        let addr = self
            .server
            .as_ref()
            .expect("stack has a server")
            .service_addr()
            .to_string();
        Client::connect(&addr).expect("client connects")
    }

    pub fn has_standby(&self) -> bool {
        self.standby.is_some()
    }

    /// Engine, admission and analysis telemetry — merged with the wire
    /// counters through a remote `stats` when there is a server.
    pub fn metrics(&self) -> MetricsSnapshot {
        if self.server.is_some() {
            // No `quit` frame: the server would count it whenever its
            // thread gets to it, and the next reading could not tell.
            self.connect().stats().expect("stats over the wire")
        } else {
            self.engine.metrics()
        }
    }

    /// Blocks until the standby's mirror holds exactly the primary's
    /// durable journal prefix and returns the wait; an error if the
    /// standby gave up or `limit` passed first.
    pub fn wait_standby(&self, limit: Duration) -> Result<Duration, String> {
        let started = Instant::now();
        let mirror = self.mirror.as_ref().expect("stack has a standby");
        let standby = self.standby.as_ref().expect("stack has a standby");
        loop {
            let durable = self.engine.durable_journal().expect("journal attached").0;
            let mirrored = std::fs::metadata(mirror).map(|m| m.len()).unwrap_or(0);
            if mirrored == durable {
                return Ok(started.elapsed());
            }
            if standby.thread.is_finished() {
                return Err("the standby stopped tailing".to_string());
            }
            if started.elapsed() >= limit {
                return Err(format!(
                    "standby did not catch up within {limit:?}: mirror holds {mirrored} of {durable} bytes"
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stops the live standby and reports where it was.
    pub fn stop_standby(&mut self) -> Option<StandbyState> {
        let standby = self.standby.take()?;
        standby.stop.store(true, Ordering::SeqCst);
        // Never panics: this also runs while a failed run unwinds.
        Some(standby.thread.join().unwrap_or(StandbyState {
            epoch: 0,
            digest: None,
            error: Some("the standby thread panicked".to_string()),
        }))
    }

    /// Stops standby and server and waits for their threads. The engine
    /// (and its journal file) stay usable through `self.engine`.
    pub fn stop(&mut self) {
        self.stop_standby();
        if let Some(server) = self.server.take() {
            server.stop();
            // A failed final sync would already have failed the run's
            // own durable-epoch check; `stop` also runs on drop.
            let _ = server.join();
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.stop();
    }
}
