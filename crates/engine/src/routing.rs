//! The routing front end of [`crate::SchedService`]: resolves a batch to
//! the island shards and free platforms it touches (with batch-local name
//! simulation, so `[remove X, add X]` resolves like sequential
//! application), detects conflicts with in-flight epochs, and checks the
//! touched shards out. Routing never changes shard topology: the epoch
//! commits once on the merged checked-out shards, and settle re-partitions
//! the result into islands (see the service module docs).
//!
//! Routing is deliberately **island**-granular — shard ownership, conflict
//! detection, and the journal's replay determinism all key off the
//! platform-sharing partition, which is stable under priority changes.
//! The finer **cone** granularity of PR 5 lives one layer down: the
//! epoch's commit re-analyzes only the hp-graph interference cones of its
//! batch (pinning the rest of the touched islands) and parallelizes across
//! disjoint cones, so cones inside one island no longer serialize analysis
//! work while the routed epoch structure — and therefore byte-identical
//! replay — is unchanged.
//!
//! All of it runs under the one routing lock ([`Routing`], held inside a
//! [`World`]), so [`route`] sees the exact state — claims *and* checked-out
//! slots. The conflict rules and the drain conditions are documented in the
//! service module docs and `docs/ARCHITECTURE.md`. Journal replay takes
//! the same path ([`World::check_out`]) for every record it applies.

use crate::envelope::EngineError;
use crate::service::{Seam, Slot, World};
use hsched_admission::{AdmissionController, AdmissionRequest, RejectReason};
use hsched_model::{ComponentClass, SystemBuilder};
use hsched_platform::PlatformId;
use hsched_telemetry::elapsed_ns;
use hsched_transaction::{flatten_annotated, FlattenOptions, TransactionSet};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Everything reserve routes against, behind the routing lock: the at-rest
/// home maps, the claim sets of in-flight epochs, and the shard slot table.
///
/// Islands partition the platforms, so a name is homed by a platform it
/// lives on and only `home` names a slot: renumbering or re-placing a shard
/// rewrites `home` alone.
#[derive(Debug, Default)]
pub(crate) struct Routing {
    /// Live transaction name → a platform its tasks run on (its first
    /// task's). Fixed while the transaction is live.
    pub(crate) txn_home: HashMap<String, usize>,
    /// Live component-instance name → its platform, which one of its
    /// transactions at least runs on. Fixed while the instance is live.
    pub(crate) instance_home: HashMap<String, usize>,
    /// Names (transactions + instances, including flattened members)
    /// mentioned by in-flight epochs — the name-conflict set.
    pub(crate) pending: HashSet<String>,
    /// Platform index → owning shard slot (absent = no shard uses it).
    pub(crate) home: HashMap<usize, usize>,
    /// Free platforms claimed by in-flight epochs (their shard membership
    /// is only indexed at settle).
    pub(crate) pending_free: HashSet<usize>,
    /// One entry per island group.
    pub(crate) slots: Vec<Slot>,
}

/// What a batch touches: an existing shard, or a platform no shard uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Key {
    Shard(usize),
    Free(usize),
}

/// The shard slots among `keys`, in their order.
pub(crate) fn shard_slots(keys: &[Key]) -> Vec<usize> {
    keys.iter()
        .filter_map(|key| match *key {
            Key::Shard(slot) => Some(slot),
            Key::Free(_) => None,
        })
        .collect()
}

/// The free platforms among `keys`, in their order.
fn free_platforms(keys: &[Key]) -> impl Iterator<Item = usize> + '_ {
    keys.iter().filter_map(|key| match *key {
        Key::Free(p) => Some(p),
        Key::Shard(_) => None,
    })
}

/// What routing decided.
pub(crate) enum RouteOutcome {
    /// The batch routes cleanly; shards can be checked out.
    Routed(Footprint),
    /// The batch conflicts with an in-flight epoch (shared shard, claimed
    /// free platform, or mentioned name) — wait and retry.
    Blocked,
    /// The batch is structurally invalid against the current state — the
    /// epoch is consumed as a structural rejection.
    Structural(String),
}

/// What an epoch touches and claims — routed at reserve, held to settle
/// (empty for an epoch reserve rejected).
#[derive(Debug, Default)]
pub(crate) struct Footprint {
    /// The shards (checked out) and free platforms (claimed) the batch
    /// touches, each once, in first-touch order.
    pub(crate) keys: Vec<Key>,
    /// Per request: the flattened transaction names of a removed instance
    /// (needed for handle cleanup after commit).
    pub(crate) removed_instance_txns: Vec<Vec<String>>,
    /// Every transaction/instance name the batch mentions (validates or
    /// mutates) — the epoch's name-conflict claim set.
    pub(crate) claimed_names: Vec<String>,
}

/// What reserve checked out for one epoch ([`World::check_out`]).
pub(crate) struct Checkout {
    pub(crate) footprint: Footprint,
    /// The checked-out controllers in ascending slot order (one empty
    /// controller when the batch touches only free platforms) — or the
    /// structural rejection routing decided, with which the epoch skips
    /// analysis and settles straight to a rejection.
    pub(crate) cores: Result<Vec<AdmissionController>, RejectReason>,
    /// The checked-out slots whose shards were stale. Always empty for a
    /// commit that analyzes ([`Seam::Analyze`]): it refreshes them first.
    pub(crate) stale: Vec<usize>,
    /// Wall time spent checking the shards out (telemetry).
    pub(crate) checkout_ns: u64,
}

/// Batch-local liveness override of one name.
enum NameState {
    Absent,
    Pending,
}

/// Resolves the batch to the shard slots and free platforms it touches,
/// simulating batch-local name liveness, and collects the conflict claim
/// sets.
pub(crate) fn route(view: &World<'_>, batch: &[AdmissionRequest]) -> RouteOutcome {
    let mut tx_state: HashMap<String, NameState> = HashMap::new();
    let mut instance_state: HashMap<String, NameState> = HashMap::new();
    let mut keys: Vec<Key> = Vec::new();
    let mut removed_instance_txns: Vec<Vec<String>> = vec![Vec::new(); batch.len()];
    let mut mentioned: Vec<String> = Vec::new();

    // A name an in-flight epoch mentions may change liveness when that
    // epoch settles; validating against it now would not replay
    // serially — wait instead.
    macro_rules! claim_name {
        ($name:expr) => {{
            let name: &str = $name;
            if view.pending_name(name) {
                return RouteOutcome::Blocked;
            }
            mentioned.push(name.to_string());
        }};
    }
    // A shard or free platform an in-flight epoch holds: wait as well.
    macro_rules! touch {
        ($key:expr) => {{
            let key: Key = $key;
            let held = match key {
                Key::Shard(slot) => view.slot_busy(slot),
                Key::Free(p) => view.pending_free(p),
            };
            if held {
                return RouteOutcome::Blocked;
            }
            if !keys.contains(&key) {
                keys.push(key);
            }
        }};
    }

    for (i, request) in batch.iter().enumerate() {
        match request {
            AdmissionRequest::AddTransaction(tx) => {
                claim_name!(&tx.name);
                for task in tx.tasks() {
                    if task.platform.0 >= view.platform_count() {
                        return RouteOutcome::Structural(format!(
                            "task `{}` maps to unknown platform {}",
                            task.name, task.platform
                        ));
                    }
                }
                let live = match tx_state.get(&tx.name) {
                    Some(NameState::Absent) => false,
                    Some(NameState::Pending) => true,
                    None => view.txn_live(&tx.name),
                };
                if live {
                    return RouteOutcome::Structural(format!(
                        "transaction `{}` already live",
                        tx.name
                    ));
                }
                tx_state.insert(tx.name.clone(), NameState::Pending);
                for task in tx.tasks() {
                    touch!(view.platform_key(task.platform.0));
                }
            }
            AdmissionRequest::RemoveTransaction { name } => {
                claim_name!(name);
                match tx_state.get(name) {
                    // A batch-local arrival departs from where it landed.
                    Some(NameState::Pending) => {}
                    Some(NameState::Absent) => {
                        return RouteOutcome::Structural(format!("no transaction named `{name}`"));
                    }
                    None => match view.txn_slot(name) {
                        Some(slot) => touch!(Key::Shard(slot)),
                        None => {
                            return RouteOutcome::Structural(format!(
                                "no transaction named `{name}`"
                            ));
                        }
                    },
                }
                tx_state.insert(name.clone(), NameState::Absent);
            }
            AdmissionRequest::Retune { platform, .. } => {
                if platform.0 >= view.platform_count() {
                    return RouteOutcome::Structural(format!("platform {platform} out of range"));
                }
                touch!(view.platform_key(platform.0));
            }
            AdmissionRequest::AddInstance {
                name,
                class,
                platform,
                node,
            } => {
                claim_name!(name);
                if platform.0 >= view.platform_count() {
                    return RouteOutcome::Structural(format!("platform {platform} out of range"));
                }
                let live = match instance_state.get(name) {
                    Some(NameState::Absent) => false,
                    Some(NameState::Pending) => true,
                    None => view.instance_live(name),
                };
                if live {
                    return RouteOutcome::Structural(format!("instance `{name}` already live"));
                }
                // Pre-flatten to catch cross-shard name collisions the
                // owning shard cannot see (it only knows its own set).
                let members = view.preflatten(name, class, *platform, *node);
                for member in &members {
                    claim_name!(member);
                    let live = match tx_state.get(member) {
                        Some(NameState::Absent) => false,
                        Some(NameState::Pending) => true,
                        None => view.txn_live(member),
                    };
                    if live {
                        return RouteOutcome::Structural(format!(
                            "transaction `{member}` already live"
                        ));
                    }
                }
                for member in members {
                    tx_state.insert(member, NameState::Pending);
                }
                instance_state.insert(name.clone(), NameState::Pending);
                touch!(view.platform_key(platform.0));
            }
            AdmissionRequest::RemoveInstance { name } => {
                claim_name!(name);
                match instance_state.get(name) {
                    Some(NameState::Pending) => {}
                    Some(NameState::Absent) => {
                        return RouteOutcome::Structural(format!("no instance named `{name}`"));
                    }
                    None => match view.instance_slot(name) {
                        Some(slot) => {
                            touch!(Key::Shard(slot));
                            let members = view.instance_members(name);
                            for txn in &members {
                                claim_name!(txn);
                                // The instance's flattened transactions
                                // depart with it: batch-locally absent.
                                tx_state.insert(txn.clone(), NameState::Absent);
                            }
                            removed_instance_txns[i] = members;
                        }
                        None => {
                            return RouteOutcome::Structural(format!("no instance named `{name}`"));
                        }
                    },
                }
                instance_state.insert(name.clone(), NameState::Absent);
            }
        }
    }
    mentioned.sort_unstable();
    mentioned.dedup();
    RouteOutcome::Routed(Footprint {
        keys,
        removed_instance_txns,
        claimed_names: mentioned,
    })
}

impl World<'_> {
    /// Size of the (immutable) platform table.
    fn platform_count(&self) -> usize {
        self.core.platforms.len()
    }

    /// Whether an in-flight epoch has claimed this name.
    fn pending_name(&self, name: &str) -> bool {
        self.routing.pending.contains(name)
    }

    /// Whether a live transaction carries this name.
    pub(crate) fn txn_live(&self, name: &str) -> bool {
        self.routing.txn_home.contains_key(name)
    }

    /// Home slot of a live transaction.
    pub(crate) fn txn_slot(&self, name: &str) -> Option<usize> {
        let p = self.routing.txn_home.get(name)?;
        self.routing.home.get(p).copied()
    }

    /// Whether an in-flight epoch has the slot's shard checked out.
    fn slot_busy(&self, slot: usize) -> bool {
        matches!(self.routing.slots[slot], Slot::Busy)
    }

    /// The key of a platform: its owning shard, or itself when free.
    fn platform_key(&self, p: usize) -> Key {
        match self.routing.home.get(&p) {
            Some(&slot) => Key::Shard(slot),
            None => Key::Free(p),
        }
    }

    /// Whether an in-flight epoch has claimed this free platform.
    fn pending_free(&self, p: usize) -> bool {
        self.routing.pending_free.contains(&p)
    }

    /// Whether a live instance carries this name.
    fn instance_live(&self, name: &str) -> bool {
        self.routing.instance_home.contains_key(name)
    }

    /// Home slot of a live instance.
    pub(crate) fn instance_slot(&self, name: &str) -> Option<usize> {
        let p = self.routing.instance_home.get(name)?;
        self.routing.home.get(p).copied()
    }

    /// Flattened member transactions of the live instance `name` (empty
    /// when it is not live at rest).
    pub(crate) fn instance_members(&self, name: &str) -> Vec<String> {
        let shard = self
            .instance_slot(name)
            .and_then(|slot| self.routing.slots[slot].as_idle());
        shard.map_or_else(Vec::new, |s| s.core.transactions_of_instance(name))
    }

    /// The homing invariant, checked: every name an idle shard holds, and
    /// every platform it uses, resolves through `home` to its slot; every
    /// `home` entry leads to a slot that uses the platform or is `Busy`.
    pub(crate) fn homes_resolve(&self) -> bool {
        let mut used = HashSet::new();
        for (slot, entry) in self.routing.slots.iter().enumerate() {
            let Slot::Idle(shard) = entry else { continue };
            let set = shard.core.current_set();
            let txns = set.transactions().iter().map(|t| self.txn_slot(&t.name));
            let instances = shard.core.system().instances.iter();
            if !txns
                .chain(instances.map(|i| self.instance_slot(&i.name)))
                .all(|home| home == Some(slot))
            {
                return false;
            }
            used.extend(set.task_refs().map(|r| (set.task(r).platform.0, slot)));
        }
        let home = &self.routing.home;
        used.iter().all(|(p, slot)| home.get(p) == Some(slot))
            && home.iter().all(|(&p, &slot)| {
                matches!(self.routing.slots[slot], Slot::Busy) || used.contains(&(p, slot))
            })
    }

    /// Member transaction names an arriving instance would flatten into
    /// (empty when the class has required interfaces or flattening fails —
    /// the owning shard re-validates during commit).
    fn preflatten(
        &self,
        name: &str,
        class: &ComponentClass,
        platform: PlatformId,
        node: usize,
    ) -> Vec<String> {
        if !class.required.is_empty() {
            return Vec::new();
        }
        let mut builder = SystemBuilder::new();
        let class_idx = builder.add_class(class.clone());
        builder.instantiate(name.to_string(), class_idx, platform, node);
        let options = FlattenOptions {
            external_stimuli: self.core.policy.external_stimuli,
        };
        match flatten_annotated(&builder.build(), &self.core.platforms, options) {
            Ok((subset, _)) => subset
                .transactions()
                .iter()
                .map(|t| t.name.clone())
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Everything reserve does after the conflict check, for both seams:
    /// a batch that routing rejects checks nothing out; otherwise its
    /// shards are checked out and its names and free platforms claimed
    /// until settle releases them.
    pub(crate) fn check_out(
        &mut self,
        outcome: RouteOutcome,
        seam: Seam,
    ) -> Result<Checkout, EngineError> {
        let footprint = match outcome {
            // Nothing is in flight, so nothing can hold a claim or a shard.
            RouteOutcome::Blocked => {
                return Err(EngineError::Internal(
                    "conflict on a drained pipeline".to_string(),
                ))
            }
            RouteOutcome::Structural(message) => {
                return Ok(Checkout {
                    footprint: Footprint::default(),
                    cores: Err(RejectReason::Structural(message)),
                    stale: Vec::new(),
                    checkout_ns: 0,
                })
            }
            RouteOutcome::Routed(footprint) => footprint,
        };
        let started = Instant::now();
        let (cores, stale) = self.checkout(&shard_slots(&footprint.keys), seam)?;
        let checkout_ns = elapsed_ns(started);
        self.routing
            .pending
            .extend(footprint.claimed_names.iter().cloned());
        self.routing
            .pending_free
            .extend(free_platforms(&footprint.keys));
        Ok(Checkout {
            footprint,
            cores: Ok(cores),
            stale,
            checkout_ns,
        })
    }

    /// Releases the name and free-platform claims [`World::check_out`]
    /// took for an epoch.
    pub(crate) fn release(&mut self, footprint: &Footprint) {
        for name in &footprint.claimed_names {
            self.routing.pending.remove(name);
        }
        for p in free_platforms(&footprint.keys) {
            self.routing.pending_free.remove(&p);
        }
    }

    /// Checks the shards in `slots` out, leaving each slot `Busy`, and
    /// returns their controllers in ascending slot order — the order the
    /// analyze phase merges them in — with the slots whose shards were
    /// stale. A batch that touches only free platforms gets one empty
    /// controller instead. No slot is allocated or vacated: shard topology
    /// changes only at settle. For a commit that analyzes
    /// ([`Seam::Analyze`]), stale shards are refreshed first.
    ///
    /// A failed reserve must not change the world: every slot is verified
    /// before the first one moves, so an `Err` leaves slots, home maps and
    /// digest exactly as they were (a refresh only fills in the analysis
    /// of what is already there).
    fn checkout(
        &mut self,
        slots: &[usize],
        seam: Seam,
    ) -> Result<(Vec<AdmissionController>, Vec<usize>), EngineError> {
        if slots.is_empty() {
            let empty = TransactionSet::new(self.core.platforms.clone(), Vec::new())
                .map_err(EngineError::Internal)?;
            let mut core =
                AdmissionController::new(empty, self.core.config.clone(), self.core.policy.clone())
                    .map_err(EngineError::Internal)?;
            core.set_metrics_sink(self.core.admission_metrics.clone());
            return Ok((vec![core], Vec::new()));
        }
        let mut stale = Vec::new();
        for &slot in slots {
            if seam == Seam::Analyze {
                self.refresh_slot(slot)?;
            }
            let Slot::Idle(shard) = &self.routing.slots[slot] else {
                return Err(EngineError::Internal(
                    "checkout of a non-idle slot".to_string(),
                ));
            };
            // The at-rest invariant (`World::put_idle`), checked before the
            // point of no return: shards on different tables would fail
            // their merge in the analyze phase.
            if !shard.holds(&self.core.platforms) {
                return Err(EngineError::Internal(format!(
                    "idle shard in slot {slot} does not hold the master platform table"
                )));
            }
            if shard.stale {
                stale.push(slot);
            }
        }
        let mut sorted = slots.to_vec();
        sorted.sort_unstable();
        let cores = sorted
            .into_iter()
            .map(
                |slot| match std::mem::replace(&mut self.routing.slots[slot], Slot::Busy) {
                    Slot::Idle(shard) => shard.core,
                    _ => unreachable!("verified idle above"),
                },
            )
            .collect();
        Ok((cores, stale))
    }
}
