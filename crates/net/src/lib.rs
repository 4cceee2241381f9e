//! hsched-net: the socket front end and journal-streaming replication.
//!
//! Everything here is dependency-free networking over `std::net` and
//! threads — the engine's admission pipeline already scales across
//! threads behind `&self`, so a thread-per-connection server is the
//! whole story: each connection pipelines through
//! [`hsched_engine::SchedService::submit_async`] and group-commits with
//! [`hsched_engine::SchedService::sync`], exactly like a local thread.
//!
//! Three roles, all speaking the length-prefixed frame protocol of
//! `docs/WIRE_PROTOCOL.md`:
//!
//! * **Primary** ([`Server`]): `hsched serve` — a service port for
//!   remote admission, and optionally a replication port that streams
//!   raw journal bytes to warm standbys.
//! * **Follower** ([`Follower`]): `hsched follow` — mirrors the journal
//!   byte-for-byte, applies records through streaming replay as they
//!   arrive, cross-checks the primary's digest heartbeats, resumes from
//!   its last durable offset after a disconnect, and refuses divergence
//!   loudly.
//! * **Client** ([`Client`]): `hsched admit --remote` / `hsched stats
//!   --remote` — request scripts over the wire, with typed error codes.

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod follower;
pub mod frame;
pub mod metrics;
pub mod proto;
pub mod repl;
pub mod server;
pub mod signal;

pub use client::{Client, RetryClient, RetryPolicy};
pub use error::{code, engine_code, reason, reason_code, retry_after_hint, retryable, WireError};
pub use follower::{Follower, FollowerConfig, FollowerExit};
pub use frame::{queue_frame, read_frame, write_frame, FrameRead, MAX_FRAME_BYTES};
pub use metrics::NetMetrics;
pub use proto::{reason_kind, RemoteEpoch, RemoteReason, SubmitMode};
pub use server::{Server, ServerConfig, ServerHandle, ShedPolicy};
