//! Journal compaction: a snapshot block serializes the full live state of
//! a [`crate::SchedService`] — counters, retuned platforms, live
//! transactions (with their stable handles and instance origins), and
//! component instances — so a long-lived engine's journal can be truncated
//! to `header + snapshot` and [`crate::SchedService::replay`] resumes from
//! snapshot + tail instead of the whole history. The normative block
//! grammar (and the journal wire format around it) is specified in
//! `docs/JOURNAL_FORMAT.md`.
//!
//! # Block format (inside a v2 journal, between header and first record)
//!
//! ```text
//! snapshot begin <epoch> <admitted> <rejected> <next_id> <digest>
//! plat <index> <alpha> <delta> <beta>
//! addinstance <name> <platform> <node> <class-lines>
//! <class source…>
//! txn <origin|-> <id|->
//! add <transaction payload…>
//! snapshot end
//! ```
//!
//! `plat` lines record every platform currently carrying a linear `(α, Δ,
//! β)` model — the only mutation a retune can produce — applied over the
//! seed specification's platforms (name and kind survive). Instance blocks
//! reuse the journal's `addinstance` encoding verbatim; transaction
//! payloads reuse the `add` encoding, listed in the engine's canonical
//! (slot-order) sequence with each transaction's origin instance (`-` for
//! bare arrivals) and [`crate::TxnId`] (`-` if never minted).
//!
//! # Why rebuild is exact
//!
//! Seeding a fresh service from the snapshot's transaction sequence
//! reproduces the crashed engine's shard layout (islands are discovered in
//! first-occurrence order, which *is* slot order for an at-rest engine)
//! and — because incremental analysis is exact — the same cached report.
//! Handles and counters are restored explicitly. Each instance re-attaches
//! to the shard homing its platform: a live instance owns at least one
//! transaction on its own platform, so its members are in that shard, and
//! the shard refuses one whose members are not. The recorded digest is then
//! re-verified, so a snapshot that would not rebuild byte-identically
//! refuses to load instead of silently diverging.

use crate::envelope::{EngineError, TxnId};
use crate::journal::{
    decode_request, encode_request, esc, next_rational, next_token, next_usize, unesc,
};
use crate::service::{SchedService, Slot};
use hsched_admission::{AdmissionPolicy, AdmissionRequest};
use hsched_analysis::AnalysisConfig;
use hsched_model::{ComponentClass, ComponentInstance, NodeId};
use hsched_numeric::Rational;
use hsched_platform::{Platform, PlatformId, ServiceModel};
use hsched_supply::BoundedDelay;
use hsched_transaction::{Transaction, TransactionSet};

/// One retuned (linear) platform of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotPlatform {
    /// Platform index in the seed specification.
    pub index: usize,
    /// Linear supply-bound parameters at snapshot time.
    pub alpha: Rational,
    /// See [`SnapshotPlatform::alpha`].
    pub delta: Rational,
    /// See [`SnapshotPlatform::alpha`].
    pub beta: Rational,
}

/// One live component instance of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotInstance {
    /// Instance name.
    pub name: String,
    /// Hosting platform.
    pub platform: PlatformId,
    /// Hosting node.
    pub node: usize,
    /// The component class (embedded as `.hsc` source in the block).
    pub class: ComponentClass,
}

/// One live transaction of a snapshot, in canonical engine order.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotTxn {
    /// Owning instance name (`None` for bare transaction arrivals).
    pub origin: Option<String>,
    /// Stable handle number, if one was minted.
    pub id: Option<u64>,
    /// The transaction itself.
    pub tx: Transaction,
}

/// A parsed (or captured) snapshot block — the full live state of an
/// engine as of `epoch`.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Epoch ticket the snapshot captured; tail records resume at
    /// `epoch + 1`.
    pub epoch: u64,
    /// Admitted-epoch counter at capture.
    pub admitted: u64,
    /// Rejected-epoch counter at capture.
    pub rejected: u64,
    /// Handle counter at capture (handles are never reused).
    pub next_id: u64,
    /// State digest of the captured engine; rebuild re-verifies it.
    pub digest: String,
    /// Platforms carrying a linear model at capture (see module docs).
    pub platforms: Vec<SnapshotPlatform>,
    /// Live component instances, in canonical engine order.
    pub instances: Vec<SnapshotInstance>,
    /// Live transactions, in canonical engine order.
    pub txns: Vec<SnapshotTxn>,
}

impl Snapshot {
    /// Renders the block (`snapshot begin` … `snapshot end`, one trailing
    /// newline per line).
    pub(crate) fn encode_block(&self) -> String {
        let mut out = format!(
            "snapshot begin {} {} {} {} {}\n",
            self.epoch, self.admitted, self.rejected, self.next_id, self.digest
        );
        for p in &self.platforms {
            out.push_str(&format!(
                "plat {} {} {} {}\n",
                p.index, p.alpha, p.delta, p.beta
            ));
        }
        for instance in &self.instances {
            let request = AdmissionRequest::AddInstance {
                name: instance.name.clone(),
                class: instance.class.clone(),
                platform: instance.platform,
                node: instance.node,
            };
            for line in encode_request(&request) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        for txn in &self.txns {
            let origin = txn.origin.as_deref().map(esc).unwrap_or_else(|| "-".into());
            let id = txn
                .id
                .map(|id| id.to_string())
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!("txn {origin} {id}\n"));
            for line in encode_request(&AdmissionRequest::AddTransaction(txn.tx.clone())) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out.push_str("snapshot end\n");
        out
    }

    /// Parses a block whose `snapshot begin` header line was already read;
    /// `next` yields further complete lines (a torn block is corruption —
    /// blocks are written atomically).
    pub(crate) fn decode_block(
        header: &str,
        next: &mut impl FnMut() -> Result<Option<String>, EngineError>,
    ) -> Result<Snapshot, EngineError> {
        let fail = |m: String| EngineError::Journal(format!("snapshot block: {m}"));
        let mut tokens = header.split_whitespace();
        if (tokens.next(), tokens.next()) != (Some("snapshot"), Some("begin")) {
            return Err(fail(format!("bad header `{header}`")));
        }
        let parse_u64 = |t: Option<&str>, what: &str| {
            t.and_then(|t| t.parse::<u64>().ok())
                .ok_or_else(|| fail(format!("bad {what}")))
        };
        let epoch = parse_u64(tokens.next(), "epoch")?;
        let admitted = parse_u64(tokens.next(), "admitted counter")?;
        let rejected = parse_u64(tokens.next(), "rejected counter")?;
        let next_id = parse_u64(tokens.next(), "handle counter")?;
        let digest = tokens
            .next()
            .ok_or_else(|| fail("missing digest".into()))?
            .to_string();

        let mut platforms = Vec::new();
        let mut instances = Vec::new();
        let mut txns: Vec<SnapshotTxn> = Vec::new();
        loop {
            let line = next()?
                .ok_or_else(|| fail("truncated block (written atomically — corruption)".into()))?;
            if line == "snapshot end" {
                break;
            }
            let mut tokens = line.split_whitespace();
            match next_token(&mut tokens, "snapshot line").map_err(&fail)? {
                "plat" => {
                    platforms.push(SnapshotPlatform {
                        index: next_usize(&mut tokens, "platform index").map_err(&fail)?,
                        alpha: next_rational(&mut tokens, "alpha").map_err(&fail)?,
                        delta: next_rational(&mut tokens, "delta").map_err(&fail)?,
                        beta: next_rational(&mut tokens, "beta").map_err(&fail)?,
                    });
                }
                "addinstance" => {
                    // Reuse the journal request decoder: pull the class
                    // lines it needs through `next`.
                    let declared = line
                        .split_whitespace()
                        .nth(4)
                        .and_then(|n| n.parse::<usize>().ok())
                        .ok_or_else(|| fail(format!("bad instance line `{line}`")))?;
                    let mut class_lines = Vec::with_capacity(declared);
                    for _ in 0..declared {
                        class_lines.push(next()?.ok_or_else(|| fail("truncated class".into()))?);
                    }
                    let mut iter = class_lines.iter().map(String::as_str);
                    let request = decode_request(&line, &mut iter).map_err(&fail)?;
                    let AdmissionRequest::AddInstance {
                        name,
                        class,
                        platform,
                        node,
                    } = request
                    else {
                        return Err(fail("instance line decoded to non-instance".into()));
                    };
                    instances.push(SnapshotInstance {
                        name,
                        platform,
                        node,
                        class,
                    });
                }
                "txn" => {
                    let origin_token = next_token(&mut tokens, "origin").map_err(&fail)?;
                    let origin = if origin_token == "-" {
                        None
                    } else {
                        Some(unesc(origin_token).map_err(&fail)?)
                    };
                    let id_token = next_token(&mut tokens, "handle").map_err(&fail)?;
                    let id = if id_token == "-" {
                        None
                    } else {
                        Some(
                            id_token
                                .parse::<u64>()
                                .map_err(|_| fail(format!("bad handle `{id_token}`")))?,
                        )
                    };
                    let payload = next()?.ok_or_else(|| fail("truncated transaction".into()))?;
                    let mut empty = std::iter::empty();
                    let request = decode_request(&payload, &mut empty).map_err(&fail)?;
                    let AdmissionRequest::AddTransaction(tx) = request else {
                        return Err(fail("transaction payload decoded to non-add".into()));
                    };
                    txns.push(SnapshotTxn { origin, id, tx });
                }
                other => return Err(fail(format!("unknown snapshot line `{other}`"))),
            }
        }
        Ok(Snapshot {
            epoch,
            admitted,
            rejected,
            next_id,
            digest,
            platforms,
            instances,
            txns,
        })
    }
}

/// Rebuilds a service from a snapshot: seed-spec platforms with the
/// recorded linear overrides applied, the recorded transaction sequence
/// seeded fresh (exact — see module docs), then handles, counters and
/// instance bookkeeping restored and the digest re-verified.
pub(crate) fn rebuild(
    seed: &TransactionSet,
    snap: Snapshot,
    config: AnalysisConfig,
    policy: AdmissionPolicy,
) -> Result<SchedService, EngineError> {
    let fail = |m: String| EngineError::Replay(format!("snapshot rebuild: {m}"));
    let mut platforms = seed.platforms().clone();
    for p in &snap.platforms {
        let id = PlatformId(p.index);
        let Some(current) = platforms.get(id) else {
            return Err(fail(format!("platform index {} out of range", p.index)));
        };
        let model = BoundedDelay::new(p.alpha, p.delta, p.beta).map_err(&fail)?;
        let restored = Platform::new(
            current.name().to_string(),
            current.kind(),
            ServiceModel::Linear(model),
        );
        platforms.replace(id, restored);
    }
    let transactions: Vec<Transaction> = snap.txns.iter().map(|t| t.tx.clone()).collect();
    let set = TransactionSet::new(platforms, transactions).map_err(&fail)?;
    let service = SchedService::new(set, config, policy)?;
    {
        let mut world = service.rebuild_world();
        // Handles: replace the seed-order minting with the recorded table.
        world.core.ids.clear();
        world.core.names.clear();
        for txn in &snap.txns {
            if let Some(id) = txn.id {
                world.core.ids.insert(txn.tx.name.clone(), TxnId(id));
                world.core.names.insert(TxnId(id), txn.tx.name.clone());
            }
        }
        world.core.next_id = snap.next_id;
        world.core.settled = snap.epoch;
        world.core.admitted_epochs = snap.admitted;
        world.core.rejected_epochs = snap.rejected;

        // Instances: re-attach each to its platform's shard with its members.
        for instance in &snap.instances {
            let members: Vec<String> = snap
                .txns
                .iter()
                .filter(|t| t.origin.as_deref() == Some(instance.name.as_str()))
                .map(|t| t.tx.name.clone())
                .collect();
            let platform = instance.platform.0;
            let slot = world.routing.home.get(&platform).copied();
            let Some(Slot::Idle(shard)) = slot.map(|slot| &mut world.routing.slots[slot]) else {
                return Err(fail(format!(
                    "instance `{}` has no shard on its platform",
                    instance.name
                )));
            };
            shard
                .core
                .restore_instance(
                    instance.class.clone(),
                    ComponentInstance {
                        name: instance.name.clone(),
                        class: 0, // rewritten by adopt_instance
                        platform: instance.platform,
                        node: NodeId(instance.node),
                    },
                    &members,
                )
                .map_err(&fail)?;
            world
                .routing
                .instance_home
                .insert(instance.name.clone(), platform);
        }

        let digest = world.state_digest();
        if digest != snap.digest {
            return Err(EngineError::Replay(format!(
                "snapshot digest mismatch: recorded {}, rebuilt {digest}",
                snap.digest
            )));
        }
    }
    service.force_epoch(snap.epoch);
    Ok(service)
}
