//! The routing front end of [`crate::SchedService`]: resolves each request
//! of a batch to the island shards it touches (with batch-local name
//! simulation, so `[remove X, add X]` resolves like sequential
//! application), detects conflicts with in-flight epochs, and plans/applies
//! the group structure (merging shards bridged within a batch, allocating
//! fresh shards for all-free groups).
//!
//! Routing is deliberately **island**-granular — shard ownership, conflict
//! detection, and the journal's replay determinism all key off the
//! platform-sharing partition, which is stable under priority changes.
//! The finer **cone** granularity of PR 5 lives one layer down: each
//! checked-out shard's commit re-analyzes only the hp-graph interference
//! cones of its sub-batch (pinning the rest of the island) and
//! parallelizes across disjoint cones, so cones inside one island no
//! longer serialize analysis work while the routed epoch structure — and
//! therefore byte-identical replay — is unchanged.
//!
//! All of it runs under the one routing lock ([`Routing`], held inside a
//! [`World`]), so [`route`] sees the exact state — claims *and* checked-out
//! slots. The conflict rules and the drain conditions are documented in the
//! service module docs and `docs/ARCHITECTURE.md`.

use crate::envelope::EngineError;
use crate::service::{Shard, Slot, World};
use hsched_admission::{AdmissionController, AdmissionRequest, UnionFind};
use hsched_model::{ComponentClass, SystemBuilder};
use hsched_platform::PlatformId;
use hsched_transaction::{flatten_annotated, FlattenOptions, TransactionSet};
use std::collections::{HashMap, HashSet};

/// Everything reserve routes against, behind the routing lock: the at-rest
/// home maps, the claim sets of in-flight epochs, and the shard slot table.
#[derive(Debug, Default)]
pub(crate) struct Routing {
    /// Live transaction name → shard slot.
    pub(crate) txn_home: HashMap<String, usize>,
    /// Live component-instance name → shard slot.
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

/// A routing key of one request: either an existing shard or a platform no
/// shard currently uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Key {
    Shard(usize),
    Free(usize),
}

/// One routed group: the target shard slot and the batch indices of its
/// sub-batch (in batch order).
#[derive(Debug)]
pub(crate) struct Group {
    pub(crate) slot: usize,
    pub(crate) requests: Vec<usize>,
}

/// Routing result of one batch.
pub(crate) struct Routed {
    /// Per-request routing keys.
    pub(crate) keys: Vec<Vec<Key>>,
    /// Per request: the flattened transaction names of a removed instance
    /// (needed for handle cleanup after commit).
    pub(crate) removed_instance_txns: Vec<Vec<String>>,
    /// Every transaction/instance name the batch mentions (validates or
    /// mutates) — the epoch's name-conflict claim set.
    pub(crate) mentioned: Vec<String>,
    /// Free platforms the batch claims (no shard owns them yet).
    pub(crate) free_platforms: Vec<usize>,
}

/// What routing decided.
pub(crate) enum RouteOutcome {
    /// The batch routes cleanly; shards can be checked out.
    Routed(Routed),
    /// The batch conflicts with an in-flight epoch (shared shard, claimed
    /// free platform, or mentioned name) — wait and retry.
    Blocked,
    /// The batch is structurally invalid against the current state — the
    /// epoch is consumed as a structural rejection.
    Structural(String),
}

/// Batch-local liveness override of one name.
enum NameState {
    Absent,
    Pending(usize),
}

/// A planned routing group before any topology mutation: the member shard
/// slots (first-reference order) and the request indices. No member slots
/// means the group lands entirely on free platforms (a fresh shard).
#[derive(Debug)]
pub(crate) struct GroupDraft {
    pub(crate) requests: Vec<usize>,
    pub(crate) member_slots: Vec<usize>,
}

impl GroupDraft {
    /// Whether realizing this draft changes shard topology (merge or fresh
    /// shard) — the write path.
    pub(crate) fn changes_topology(&self) -> bool {
        self.member_slots.len() != 1
    }
}

/// Resolves each request of the batch to routing keys, simulating
/// batch-local name liveness, and collecting the conflict claim sets.
pub(crate) fn route(view: &World<'_>, batch: &[AdmissionRequest]) -> RouteOutcome {
    let mut tx_state: HashMap<String, NameState> = HashMap::new();
    let mut instance_state: HashMap<String, NameState> = HashMap::new();
    let mut keys: Vec<Vec<Key>> = Vec::with_capacity(batch.len());
    let mut removed_instance_txns: Vec<Vec<String>> = vec![Vec::new(); batch.len()];
    let mut mentioned: Vec<String> = Vec::new();
    let mut free_platforms: Vec<usize> = Vec::new();

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

    for (i, request) in batch.iter().enumerate() {
        let request_keys = match request {
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
                    Some(NameState::Pending(_)) => true,
                    None => view.txn_live(&tx.name),
                };
                if live {
                    return RouteOutcome::Structural(format!(
                        "transaction `{}` already live",
                        tx.name
                    ));
                }
                tx_state.insert(tx.name.clone(), NameState::Pending(i));
                match platform_keys(view, tx.tasks().iter().map(|t| t.platform.0)) {
                    Some(keys) => keys,
                    None => return RouteOutcome::Blocked,
                }
            }
            AdmissionRequest::RemoveTransaction { name } => {
                claim_name!(name);
                match tx_state.get(name) {
                    Some(NameState::Pending(add)) => {
                        let cloned = keys[*add].clone();
                        tx_state.insert(name.clone(), NameState::Absent);
                        cloned
                    }
                    Some(NameState::Absent) => {
                        return RouteOutcome::Structural(format!("no transaction named `{name}`"));
                    }
                    None => match view.txn_slot(name) {
                        Some(slot) => {
                            if view.slot_busy(slot) {
                                return RouteOutcome::Blocked;
                            }
                            tx_state.insert(name.clone(), NameState::Absent);
                            vec![Key::Shard(slot)]
                        }
                        None => {
                            return RouteOutcome::Structural(format!(
                                "no transaction named `{name}`"
                            ));
                        }
                    },
                }
            }
            AdmissionRequest::Retune { platform, .. } => {
                if platform.0 >= view.platform_count() {
                    return RouteOutcome::Structural(format!("platform {platform} out of range"));
                }
                match platform_keys(view, std::iter::once(platform.0)) {
                    Some(keys) => keys,
                    None => return RouteOutcome::Blocked,
                }
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
                    Some(NameState::Pending(_)) => true,
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
                        Some(NameState::Pending(_)) => true,
                        None => view.txn_live(member),
                    };
                    if live {
                        return RouteOutcome::Structural(format!(
                            "transaction `{member}` already live"
                        ));
                    }
                }
                for member in members {
                    tx_state.insert(member, NameState::Pending(i));
                }
                instance_state.insert(name.clone(), NameState::Pending(i));
                match platform_keys(view, std::iter::once(platform.0)) {
                    Some(keys) => keys,
                    None => return RouteOutcome::Blocked,
                }
            }
            AdmissionRequest::RemoveInstance { name } => {
                claim_name!(name);
                match instance_state.get(name) {
                    Some(NameState::Pending(add)) => {
                        let cloned = keys[*add].clone();
                        instance_state.insert(name.clone(), NameState::Absent);
                        cloned
                    }
                    Some(NameState::Absent) => {
                        return RouteOutcome::Structural(format!("no instance named `{name}`"));
                    }
                    None => match view.instance_slot(name) {
                        Some(slot) => {
                            let Some(members) = view.instance_txns(slot, name) else {
                                return RouteOutcome::Blocked;
                            };
                            instance_state.insert(name.clone(), NameState::Absent);
                            for txn in &members {
                                claim_name!(txn);
                                // The instance's flattened transactions
                                // depart with it: batch-locally absent.
                                tx_state.insert(txn.clone(), NameState::Absent);
                            }
                            removed_instance_txns[i] = members;
                            vec![Key::Shard(slot)]
                        }
                        None => {
                            return RouteOutcome::Structural(format!("no instance named `{name}`"));
                        }
                    },
                }
            }
        };
        for key in &request_keys {
            if let Key::Free(p) = key {
                if !free_platforms.contains(p) {
                    free_platforms.push(*p);
                }
            }
        }
        keys.push(request_keys);
    }
    mentioned.sort_unstable();
    mentioned.dedup();
    RouteOutcome::Routed(Routed {
        keys,
        removed_instance_txns,
        mentioned,
        free_platforms,
    })
}

/// Deduplicated routing keys of a platform list; `None` when a key
/// conflicts with an in-flight epoch (busy shard / claimed platform).
fn platform_keys(view: &World<'_>, platforms: impl Iterator<Item = usize>) -> Option<Vec<Key>> {
    let mut out: Vec<Key> = Vec::new();
    for p in platforms {
        let key = match view.platform_home(p) {
            Some(slot) => {
                if view.slot_busy(slot) {
                    return None;
                }
                Key::Shard(slot)
            }
            None => {
                if view.pending_free(p) {
                    return None;
                }
                Key::Free(p)
            }
        };
        if !out.contains(&key) {
            out.push(key);
        }
    }
    Some(out)
}

/// Unions the routing keys into connected groups (pure — no topology
/// mutation). Returns one draft per group, in first-touch order.
pub(crate) fn plan_groups(
    keys: &[Vec<Key>],
    slots_len: usize,
    platform_count: usize,
) -> Vec<GroupDraft> {
    let node = |key: &Key| match *key {
        Key::Shard(s) => s,
        Key::Free(p) => slots_len + p,
    };
    let mut uf = UnionFind::new(slots_len + platform_count);
    for request_keys in keys {
        for key in &request_keys[1..] {
            uf.union(node(&request_keys[0]), node(key));
        }
    }

    struct Draft {
        root: usize,
        requests: Vec<usize>,
    }
    let mut drafts: Vec<Draft> = Vec::new();
    for (i, request_keys) in keys.iter().enumerate() {
        debug_assert!(!request_keys.is_empty(), "every request routes somewhere");
        let root = uf.find(node(&request_keys[0]));
        match drafts.iter_mut().find(|d| d.root == root) {
            Some(draft) => draft.requests.push(i),
            None => drafts.push(Draft {
                root,
                requests: vec![i],
            }),
        }
    }
    let mut referenced: Vec<usize> = keys
        .iter()
        .flatten()
        .filter_map(|k| match k {
            Key::Shard(s) => Some(*s),
            Key::Free(_) => None,
        })
        .collect();
    referenced.sort_unstable();
    referenced.dedup();
    let mut out: Vec<GroupDraft> = drafts
        .iter()
        .map(|d| GroupDraft {
            requests: d.requests.clone(),
            member_slots: Vec::new(),
        })
        .collect();
    for slot in referenced {
        let root = uf.find(slot);
        if let Some(at) = drafts.iter().position(|d| d.root == root) {
            out[at].member_slots.push(slot);
        }
    }
    out
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
    fn txn_live(&self, name: &str) -> bool {
        self.routing.txn_home.contains_key(name)
    }

    /// Home slot of a live transaction.
    fn txn_slot(&self, name: &str) -> Option<usize> {
        self.routing.txn_home.get(name).copied()
    }

    /// Whether an in-flight epoch has the slot's shard checked out.
    fn slot_busy(&self, slot: usize) -> bool {
        matches!(self.routing.slots[slot], Slot::Busy)
    }

    /// Owning shard slot of a platform (`None` = free).
    fn platform_home(&self, p: usize) -> Option<usize> {
        self.routing.home.get(&p).copied()
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
    fn instance_slot(&self, name: &str) -> Option<usize> {
        self.routing.instance_home.get(name).copied()
    }

    /// Flattened member transactions of the live instance `name` homed at
    /// `slot`; `None` when the owning shard is checked out.
    fn instance_txns(&self, slot: usize, name: &str) -> Option<Vec<String>> {
        self.routing.slots[slot]
            .as_idle()
            .map(|s| s.core.transactions_of_instance(name))
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

    /// The platforms of every island the routed batch touches (its touched
    /// shards' platform homes plus the claimed free platforms) — the
    /// clearing scope of the numeric-parity poison map. O(platforms): only
    /// called while that map is non-empty.
    pub(crate) fn touched_platform_set(&self, keys: &[Vec<Key>]) -> HashSet<usize> {
        let mut slots: HashSet<usize> = HashSet::new();
        let mut touched: HashSet<usize> = HashSet::new();
        for key in keys.iter().flatten() {
            match key {
                Key::Shard(slot) => {
                    slots.insert(*slot);
                }
                Key::Free(p) => {
                    touched.insert(*p);
                }
            }
        }
        for (p, home) in &self.routing.home {
            if slots.contains(home) {
                touched.insert(*p);
            }
        }
        touched
    }

    /// Realizes the planned groups and checks their shards out: merges
    /// shards bridged within a group (cache-preserving concatenation — the
    /// merged island is re-analyzed by the commit anyway, exactly as the
    /// single controller would), mints fresh shards for all-free groups,
    /// and leaves every target slot `Busy`. Topology-changing drafts only
    /// get here on a drained pipeline, so slot choices stay deterministic
    /// in ticket order.
    ///
    /// A failed reserve must not change the world: every fallible step
    /// runs first, while each shard still sits idle in its slot, and an
    /// `Err` leaves slots, home maps and digest exactly as they were. The
    /// second half cannot fail.
    pub(crate) fn checkout(
        &mut self,
        drafts: Vec<GroupDraft>,
    ) -> Result<(Vec<Group>, Vec<Shard>), EngineError> {
        let mut fresh = Vec::new();
        for draft in &drafts {
            for &slot in &draft.member_slots {
                let Slot::Idle(shard) = &self.routing.slots[slot] else {
                    return Err(EngineError::Internal(
                        "checkout of a non-idle slot".to_string(),
                    ));
                };
                // The at-rest invariant (`World::put_idle`), checked before
                // the point of no return: shards on different tables would
                // fail their merge below.
                if !shard.holds(&self.core.platforms) {
                    return Err(EngineError::Internal(format!(
                        "idle shard in slot {slot} does not hold the master platform table"
                    )));
                }
            }
            if draft.member_slots.is_empty() {
                let empty = TransactionSet::new(self.core.platforms.clone(), Vec::new())
                    .map_err(EngineError::Internal)?;
                let mut core = AdmissionController::new(
                    empty,
                    self.core.config.clone(),
                    self.core.shard_policy.clone(),
                )
                .map_err(EngineError::Internal)?;
                core.set_metrics_sink(self.core.admission_metrics.clone());
                fresh.push(core);
            }
        }

        let mut fresh = fresh.into_iter();
        let mut groups = Vec::with_capacity(drafts.len());
        let mut shards = Vec::with_capacity(drafts.len());
        for draft in drafts {
            let (slot, shard) = match draft.member_slots.split_first() {
                Some((&target, losers)) => {
                    let mut merged = self.take_idle(target, Slot::Busy);
                    for &loser in losers {
                        let eaten = self.take_idle(loser, Slot::Vacant);
                        merged
                            .core
                            .merge_from(eaten.core)
                            .expect("shards of one service merge (both hold the master table)");
                        self.reassign_home(loser, target);
                        self.core.unsched.remove(&loser);
                    }
                    if !losers.is_empty() {
                        merged.schedulable = merged.core.schedulable();
                    }
                    (target, merged)
                }
                None => {
                    let shard = Shard {
                        core: fresh.next().expect("one fresh controller per free group"),
                        schedulable: true,
                    };
                    let slot = self.vacant_slot();
                    self.routing.slots[slot] = Slot::Busy;
                    (slot, shard)
                }
            };
            groups.push(Group {
                slot,
                requests: draft.requests,
            });
            shards.push(shard);
        }
        Ok((groups, shards))
    }

    /// Moves the idle shard out of `slot`, leaving `marker` behind.
    fn take_idle(&mut self, slot: usize, marker: Slot) -> Shard {
        match std::mem::replace(&mut self.routing.slots[slot], marker) {
            Slot::Idle(shard) => shard,
            _ => unreachable!("checkout verified every member slot idle"),
        }
    }
}
