//! The long-lived admission engine: batched request application,
//! cone-restricted re-analysis, warm-started fixpoints, transactional
//! rollback.

use crate::request::{AdmissionRequest, EpochOutcome, RejectReason, Verdict};
use hsched_analysis::{
    analyze_resumed, AnalysisConfig, AnalysisError, DirtySeed, FrozenSeed, HpGraph,
    SchedulabilityReport, ServiceTimeMode, TaskResult, TransactionVerdict, UpdateOrder, WarmStart,
};
use hsched_model::{ComponentInstance, NodeId, System, SystemBuilder};
use hsched_numeric::{Rational, Time};
use hsched_platform::{Platform, PlatformId, PlatformSet, ServiceModel};
use hsched_supply::BoundedDelay;
use hsched_transaction::{flatten_annotated, FlattenOptions, TaskRef, TransactionSet};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Tuning knobs of the controller. The defaults enable every optimization;
/// benchmarks and the equivalence tests switch individual layers off to
/// measure and validate them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Re-analyze only the batch's interference cones — the hp-graph
    /// closure of what it adds, removes, or retunes — pinning everything
    /// outside them at the cached fixpoint. Off = every commit re-analyzes
    /// the full system island by island (the from-scratch baseline, as
    /// [`AdmissionController::analyze_from_scratch`] runs it).
    pub dirty_tracking: bool,
    /// Resume the holistic fixpoint of cone members from the previous
    /// epoch's converged jitters when the batch is purely additive (exact;
    /// see [`WarmStart`]). Non-additive batches restart cone members cold
    /// (the downward-restart bound) — still exact, and everything outside
    /// the cone stays pinned either way.
    pub warm_start: bool,
    /// Reject on the necessary condition `U_k ≤ α_k` before running any
    /// fixpoint (uses checked arithmetic, so hostile magnitudes reject
    /// instead of panicking). Checked on the platforms of the islands the
    /// batch touches — those that, once it is applied, hold a platform of an
    /// arrival, a departure or a retune — whether or not `dirty_tracking`
    /// is on: an overloaded or unsummable island the batch never touches
    /// does not reject it here.
    pub utilization_precheck: bool,
    /// When flattening an [`AdmissionRequest::AddInstance`], also generate
    /// sporadic transactions for unbound provided methods (the external
    /// service surface), mirroring `FlattenOptions::external_stimuli`.
    pub external_stimuli: bool,
}

impl Default for AdmissionPolicy {
    fn default() -> AdmissionPolicy {
        AdmissionPolicy {
            dirty_tracking: true,
            warm_start: true,
            utilization_precheck: true,
            external_stimuli: true,
        }
    }
}

/// Counters accumulated over the controller's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// Commits processed (admitted + rejected).
    pub epochs: u64,
    /// Batches admitted.
    pub admitted: u64,
    /// Batches rejected.
    pub rejected: u64,
    /// Transactions re-analyzed across all epochs.
    pub transactions_analyzed: u64,
    /// Transactions whose cached results were reused (the incremental win).
    pub analyses_avoided: u64,
    /// Epochs in which at least one island warm-started.
    pub warm_epochs: u64,
}

/// Cached per-transaction analysis outcome, index-aligned with the set.
#[derive(Debug, Clone, PartialEq)]
struct TxOutcome {
    tasks: Vec<TaskResult>,
    verdict: TransactionVerdict,
    converged: bool,
    bounded: bool,
}

/// One inverse operation of the per-epoch undo log. A batch's forward
/// application records these as it goes; playing them back in reverse
/// restores the controller byte-identically in O(batch + dirty) instead of
/// the former O(live set) full-state snapshot clone.
#[derive(Debug)]
enum UndoOp {
    /// Undo a push: pop the last transaction + entry.
    PopTransaction,
    /// Undo a removal: re-insert the transaction + entry at the index it
    /// held when removed.
    InsertTransaction {
        index: usize,
        tx: hsched_transaction::Transaction,
        entry: Entry,
    },
    /// Undo a retune: restore the previous platform.
    RestorePlatform { id: PlatformId, platform: Platform },
    /// Undo a component-system mutation: restore the pre-mutation mirror
    /// (instances/classes/bindings are tiny next to the transaction set).
    RestoreSystem { system: System },
    /// Undo an `absorb`: restore a cached per-transaction outcome.
    RestoreOutcome {
        index: usize,
        outcome: Option<TxOutcome>,
    },
}

/// The inverse-request log of one epoch (see [`UndoOp`]): played back when
/// the epoch is rejected, dropped when it is admitted.
#[derive(Debug, Default)]
struct UndoLog {
    ops: Vec<UndoOp>,
}

/// Book-keeping carried alongside each live transaction.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    /// The component instance that spawned this transaction (instance-level
    /// requests), or `None` for bare transaction-level arrivals.
    origin: Option<String>,
    /// Analysis outcome; always `Some` between commits.
    outcome: Option<TxOutcome>,
}

/// A long-lived, stateful online admission engine.
///
/// The controller owns the live [`hsched_transaction::TransactionSet`] (and a component-level
/// [`System`] mirror for instance requests). Each [`commit`] applies a batch
/// of [`AdmissionRequest`]s, re-analyzes exactly the interference islands
/// the batch touches (warm-starting purely additive batches from the
/// previous fixpoint), and either admits the batch or rolls the state back
/// byte-identically.
///
/// See the crate docs for the full lifecycle.
///
/// [`commit`]: AdmissionController::commit
#[derive(Debug, Clone)]
pub struct AdmissionController {
    set: TransactionSet,
    system: System,
    config: AnalysisConfig,
    policy: AdmissionPolicy,
    entries: Vec<Entry>,
    epoch: u64,
    stats: ControllerStats,
    /// Always-on cone-geometry telemetry, recorded on every commit. Fresh
    /// per controller by default; a sharded engine swaps in one shared sink
    /// ([`AdmissionController::set_metrics_sink`]) so split/merge/new-shard
    /// churn keeps aggregating into the same place.
    metrics: std::sync::Arc<crate::AdmissionMetrics>,
}

impl AdmissionController {
    /// Starts a controller over an already-flattened transaction set,
    /// running one full analysis to seed the cache. The initial system may
    /// be unschedulable — the controller reports it faithfully, and a batch
    /// is admitted when the islands it touches are schedulable after it
    /// (see [`AdmissionController::commit`]). Islands iterate Gauss-Seidel
    /// on the caller's thread whatever `config` says (exact; see
    /// [`UpdateOrder`]). A `config` whose service mode is not
    /// [`ServiceTimeMode::LinearBounds`] is refused: only that mode has the
    /// analysis's overflow contract, under which an overflow is a
    /// [`RejectReason::Numeric`] verdict.
    pub fn new(
        set: TransactionSet,
        config: AnalysisConfig,
        policy: AdmissionPolicy,
    ) -> Result<AdmissionController, String> {
        if config.service_mode != ServiceTimeMode::LinearBounds {
            return Err(format!(
                "admission analyzes under LinearBounds only, not {:?}",
                config.service_mode
            ));
        }
        let mut controller = AdmissionController {
            entries: set
                .transactions()
                .iter()
                .map(|_| Entry {
                    origin: None,
                    outcome: None,
                })
                .collect(),
            set,
            system: System::default(),
            config,
            policy,
            epoch: 0,
            stats: ControllerStats::default(),
            metrics: std::sync::Arc::new(crate::AdmissionMetrics::new()),
        };
        controller
            .analyze_from_scratch()
            .map_err(|r| format!("initial analysis failed: {r}"))?;
        Ok(controller)
    }

    /// Analyzes the whole live set from scratch and caches the results: the
    /// seed analysis of [`AdmissionController::new`], and how a controller
    /// whose batches were applied by
    /// [`AdmissionController::apply_unanalyzed`] gets its cache back. Exact
    /// wherever incremental analysis is: the cached report of a schedulable
    /// live set equals its from-scratch analysis. On an error no cached
    /// result changes.
    pub fn analyze_from_scratch(&mut self) -> Result<(), RejectReason> {
        // Per island, not as one big group: `absorb` stores the report's
        // converged/diverged flags into every member entry, so a
        // whole-system analysis would poison clean islands with another
        // island's divergence (wedging later commits that heal it). With
        // every transaction dirty, the components are the islands.
        let all_dirty = vec![true; self.set.transactions().len()];
        let (order, bounds) = HpGraph::of(&self.set).islands(&all_dirty);
        let inputs: Vec<GroupInput> = bounds
            .windows(2)
            .map(|w| group_input(&self.set, &self.entries, &order[w[0]..w[1]], &[], false))
            .collect();
        let reports = inputs
            .iter()
            .map(|input| self.analyze_group(input))
            .collect::<Result<Vec<_>, _>>()?;
        let mut scratch = UndoLog::default();
        for (input, report) in inputs.iter().zip(reports) {
            absorb(&mut self.entries, input, report, &mut scratch);
        }
        Ok(())
    }

    /// The live transaction set.
    pub fn current_set(&self) -> &TransactionSet {
        &self.set
    }

    /// The component-level mirror (instances added/removed via requests).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Epochs committed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// The telemetry sink this controller records into.
    pub fn metrics_sink(&self) -> &std::sync::Arc<crate::AdmissionMetrics> {
        &self.metrics
    }

    /// Replaces the telemetry sink, so that several controllers (e.g. the
    /// shards of one service) aggregate into one place. Also shares the
    /// sink with the analysis layer: the controller's `AnalysisConfig`
    /// keeps its own [`hsched_analysis::AnalysisMetrics`] sink untouched.
    /// Clones and [`AdmissionController::split_islands`] parts inherit the
    /// replacement; [`AdmissionController::merge_from`] keeps `self`'s.
    pub fn set_metrics_sink(&mut self, sink: std::sync::Arc<crate::AdmissionMetrics>) {
        self.metrics = sink;
    }

    /// `true` when every live transaction meets its deadline under the
    /// cached converged analysis.
    pub fn schedulable(&self) -> bool {
        self.entries.iter().all(|e| {
            e.outcome
                .as_ref()
                .is_some_and(|o| o.verdict.schedulable && o.converged && o.bounded)
        })
    }

    /// Assembles the current cached state into a full
    /// [`SchedulabilityReport`]. The report's iteration trace is empty (the
    /// numbers come from per-island analyses at different epochs).
    ///
    /// Whenever the live state is schedulable — as every admitted epoch
    /// keeps a schedulable seed — the per-task responses, jitters and
    /// verdicts are exactly those a from-scratch
    /// [`hsched_analysis::analyze_with`] of
    /// [`Self::current_set`] would produce (the property tests enforce
    /// this). If the controller was *seeded* with a system containing a
    /// divergent island, verdicts stay island-local and therefore finer
    /// than the offline analysis, whose global iteration bails out at the
    /// first divergence and marks even unaffected transactions
    /// unschedulable; the report-level `converged`/`diverged` flags agree
    /// in both views.
    pub fn report(&self) -> SchedulabilityReport {
        let mut tasks = Vec::with_capacity(self.entries.len());
        let mut verdicts = Vec::with_capacity(self.entries.len());
        let mut converged = true;
        let mut diverged = false;
        for entry in &self.entries {
            let outcome = entry.outcome.as_ref().expect("outcome cached at rest");
            tasks.push(outcome.tasks.clone());
            verdicts.push(outcome.verdict.clone());
            converged &= outcome.converged;
            diverged |= !outcome.bounded;
        }
        SchedulabilityReport {
            tasks,
            verdicts,
            trace: Vec::new(),
            converged,
            diverged,
        }
    }

    /// Submits a single request as its own epoch.
    pub fn admit(&mut self, request: AdmissionRequest) -> EpochOutcome {
        self.commit(std::slice::from_ref(&request))
    }

    /// Applies a batch of requests as one epoch: all requests are applied,
    /// the affected interference islands are re-analyzed (one by one, warm
    /// where exact), and the batch is admitted iff every island it touches
    /// — one that, once it is applied, holds a platform of an arrival, a
    /// departure or a retune — is schedulable. Interference never crosses
    /// an island (Eq. 17), so no other island's verdict can move: admitted
    /// ⇒ every touched island is schedulable, and a controller seeded
    /// schedulable stays schedulable. On any rejection the controller's
    /// state is restored byte-identically by playing back an undo log of
    /// inverse requests (O(batch + dirty), not O(live set) — there is no
    /// snapshot clone).
    pub fn commit(&mut self, batch: &[AdmissionRequest]) -> EpochOutcome {
        self.epoch += 1;
        self.stats.epochs += 1;
        let mut undo = UndoLog::default();
        let additive = batch.iter().all(AdmissionRequest::is_additive);

        let mut seeds: Vec<DirtySeed> = Vec::new();
        let mut arrivals: Vec<String> = Vec::new();
        for request in batch {
            if let Err(message) = self.apply(request, &mut seeds, &mut arrivals, &mut undo) {
                return self.reject(undo, batch, RejectReason::Structural(message));
            }
        }
        // Arrivals seed their own (now live) tasks; `apply` seeded the
        // departures' interference footprints and the retuned platforms.
        for name in &arrivals {
            if let Some(i) = self.set.transaction_index(name) {
                for idx in 0..self.set.transactions()[i].len() {
                    seeds.push(DirtySeed::Task(TaskRef { tx: i, idx }));
                }
            }
        }
        // The islands holding a platform a seed names are all the batch can
        // move (interference never crosses an island, Eq. 17).
        let graph = HpGraph::of(&self.set);
        let touched = graph.islands_of(seeds.iter().map(|seed| match *seed {
            DirtySeed::Task(r) => self.set.task(r).platform,
            DirtySeed::Footprint { platform, .. } | DirtySeed::Platform(platform) => platform,
        }));

        if self.policy.utilization_precheck {
            match self.overload_in(touched.iter().copied()) {
                Ok(overloaded) if !overloaded.is_empty() => {
                    return self.reject(
                        undo,
                        batch,
                        RejectReason::Overload {
                            platforms: overloaded,
                        },
                    );
                }
                Err(message) => {
                    return self.reject(undo, batch, RejectReason::Numeric(message));
                }
                Ok(_) => {}
            }
        }

        // The dirty set is the hp-graph closure of the batch's seeds — or,
        // with dirty tracking off, every transaction, whose parts are the
        // islands (as in `analyze_from_scratch`).
        let dirty = if self.policy.dirty_tracking {
            self.seed_stale_islands(&touched, &mut seeds);
            graph.closure(&seeds).transactions
        } else {
            vec![true; self.set.transactions().len()]
        };
        let warm = additive && self.policy.warm_start;
        let (order, bounds) = graph.islands(&dirty);
        let inputs: Vec<GroupInput> = bounds
            .windows(2)
            .map(|w| {
                let members = &order[w[0]..w[1]];
                let context = graph.context(members, &dirty);
                group_input(&self.set, &self.entries, members, &context, warm)
            })
            .collect();
        // Transactions actually re-analyzed: the groups' active members.
        let analyzed = inputs
            .iter()
            .flat_map(|input| &input.active)
            .filter(|&&a| a)
            .count();
        let total = self.set.transactions().len();
        let islands = inputs.len();

        let warm_started = inputs.iter().any(|input| input.warm_seeded);
        self.metrics
            .record_commit(analyzed, total, islands, warm_started);
        for input in &inputs {
            match self.analyze_group(input) {
                Ok(report) => absorb(&mut self.entries, input, report, &mut undo),
                Err(reason) => return self.reject(undo, batch, reason),
            }
        }

        self.stats.transactions_analyzed += analyzed as u64;
        self.stats.analyses_avoided += (total - analyzed) as u64;
        if warm_started {
            self.stats.warm_epochs += 1;
        }

        let misses = self.misses_in(touched);
        if !misses.is_empty() {
            let mut outcome = self.reject(undo, batch, RejectReason::Unschedulable { misses });
            // The fixpoints did run before the verdict turned the batch away;
            // report the work (and the post-application population it ran
            // over) even though the state was rolled back.
            outcome.analyzed_transactions = analyzed;
            outcome.total_transactions = total;
            outcome.islands = islands;
            outcome.warm_started = warm_started;
            return outcome;
        }

        self.stats.admitted += 1;
        EpochOutcome {
            epoch: self.epoch,
            verdict: Verdict::Admitted,
            requests: batch.len(),
            analyzed_transactions: analyzed,
            total_transactions: total,
            islands,
            warm_started,
        }
    }

    /// Applies a batch whose verdict is already known to be *admitted* —
    /// a journal record being replayed — as one epoch, without analyzing
    /// it: the same request application as [`AdmissionController::commit`]
    /// and nothing after it (no precheck, cone or fixpoint). A batch that
    /// fails structurally is undone and its error returned.
    ///
    /// On success every cached result is dropped: until
    /// [`AdmissionController::analyze_from_scratch`] runs, the controller
    /// holds a live set but no analysis of it, and [`Self::report`],
    /// [`Self::misses`] and [`Self::commit`] must not be called.
    pub fn apply_unanalyzed(&mut self, batch: &[AdmissionRequest]) -> Result<(), String> {
        self.epoch += 1;
        self.stats.epochs += 1;
        let mut undo = UndoLog::default();
        let (mut seeds, mut arrivals) = (Vec::new(), Vec::new());
        for request in batch {
            if let Err(message) = self.apply(request, &mut seeds, &mut arrivals, &mut undo) {
                self.playback(undo);
                self.stats.rejected += 1;
                return Err(message);
            }
        }
        for entry in &mut self.entries {
            entry.outcome = None;
        }
        self.stats.admitted += 1;
        Ok(())
    }

    /// Names of live transactions whose cached verdict is not a converged,
    /// bounded deadline pass, in set order. Empty iff
    /// [`AdmissionController::schedulable`]. A commit is rejected for those
    /// of the islands its batch touches.
    pub fn misses(&self) -> Vec<String> {
        self.misses_in(0..self.entries.len())
    }

    /// [`AdmissionController::misses`] among the given live transactions.
    fn misses_in(&self, members: impl IntoIterator<Item = usize>) -> Vec<String> {
        members
            .into_iter()
            .filter_map(|i| {
                let o = self.entries[i].outcome.as_ref().expect("outcome cached");
                (!(o.verdict.schedulable && o.converged && o.bounded))
                    .then(|| o.verdict.name.clone())
            })
            .collect()
    }

    /// Plays an undo log back (reverse order), restoring pre-batch state.
    fn playback(&mut self, undo: UndoLog) {
        for op in undo.ops.into_iter().rev() {
            match op {
                UndoOp::PopTransaction => {
                    let last = self.set.transactions().len() - 1;
                    self.set
                        .remove_transaction(last)
                        .expect("undo pops the transaction it pushed");
                    self.entries.pop();
                }
                UndoOp::InsertTransaction { index, tx, entry } => {
                    self.set
                        .insert_transaction(index, tx)
                        .expect("undo re-inserts a transaction that was live");
                    self.entries.insert(index, entry);
                }
                UndoOp::RestorePlatform { id, platform } => {
                    self.set
                        .replace_platform(id, platform)
                        .expect("undo restores a platform that exists");
                }
                UndoOp::RestoreSystem { system } => self.system = system,
                UndoOp::RestoreOutcome { index, outcome } => {
                    self.entries[index].outcome = outcome;
                }
            }
        }
    }

    /// Absorbs another controller's live state into this one without any
    /// re-analysis: transactions, cached outcomes, and component instances
    /// are concatenated. Exact when the two controllers' transactions occupy
    /// disjoint interference islands (the cached fixpoints are island-local,
    /// so the union's analysis is the union of the analyses) — the situation
    /// the sharded engine is in when one epoch touches several shards.
    ///
    /// Both controllers must share the same platform set, analysis config,
    /// and policy. The merged controller keeps the larger epoch and sums the
    /// stats.
    pub fn merge_from(&mut self, other: AdmissionController) -> Result<(), String> {
        if self.set.platforms() != other.set.platforms() {
            return Err("cannot merge controllers with different platform sets".into());
        }
        if self.config != other.config {
            return Err("cannot merge controllers with different analysis configs".into());
        }
        if self.policy != other.policy {
            return Err("cannot merge controllers with different policies".into());
        }
        for tx in other.set.transactions() {
            self.set.push_transaction(tx.clone())?;
        }
        for instance in &other.system.instances {
            let class = other.system.classes[instance.class].clone();
            self.system.adopt_instance(class, instance.clone());
        }
        self.entries.extend(other.entries);
        self.epoch = self.epoch.max(other.epoch);
        self.stats.epochs += other.stats.epochs;
        self.stats.admitted += other.stats.admitted;
        self.stats.rejected += other.stats.rejected;
        self.stats.transactions_analyzed += other.stats.transactions_analyzed;
        self.stats.analyses_avoided += other.stats.analyses_avoided;
        self.stats.warm_epochs += other.stats.warm_epochs;
        Ok(())
    }

    /// Partitions this controller into one controller per interference
    /// island group, carrying the cached analysis over — no re-analysis
    /// happens (the cache is island-local, so each part's state equals what
    /// a fresh seed of just that island would compute). Every part shares
    /// this controller's platform table, so task `PlatformId`s stay valid.
    ///
    /// Returns `vec![self]` unchanged when there is a single island or no
    /// transaction at all. The first part inherits the stats; later parts
    /// start from zero. Instances follow their transactions: the system
    /// never carries bindings (only self-contained instances are admitted),
    /// so instances interfere only through the transactions they own.
    pub fn split_islands(self) -> Vec<AdmissionController> {
        if self.set.transactions().is_empty() {
            return vec![self];
        }
        let (order, bounds) =
            HpGraph::of(&self.set).islands(&vec![true; self.set.transactions().len()]);
        if bounds.len() == 2 {
            return vec![self];
        }
        bounds
            .windows(2)
            .map(|w| &order[w[0]..w[1]])
            .enumerate()
            .map(|(part, members)| {
                let transactions: Vec<_> = members
                    .iter()
                    .map(|&i| self.set.transactions()[i].clone())
                    .collect();
                let entries: Vec<Entry> =
                    members.iter().map(|&i| self.entries[i].clone()).collect();
                let mut system = System::default();
                for instance in &self.system.instances {
                    if entries
                        .iter()
                        .any(|e| e.origin.as_deref() == Some(instance.name.as_str()))
                    {
                        let class = self.system.classes[instance.class].clone();
                        system.adopt_instance(class, instance.clone());
                    }
                }
                AdmissionController {
                    set: TransactionSet::new(self.set.platforms().clone(), transactions)
                        .expect("island members reference live platforms"),
                    system,
                    config: self.config.clone(),
                    policy: self.policy.clone(),
                    entries,
                    epoch: self.epoch,
                    stats: if part == 0 {
                        self.stats
                    } else {
                        ControllerStats::default()
                    },
                    metrics: self.metrics.clone(),
                }
            })
            .collect()
    }

    /// Re-attaches a component instance to this controller *without* any
    /// re-analysis: the instance (with its class) is adopted into the
    /// system mirror and the named live transactions are marked as its
    /// flattened members, so a later [`AdmissionRequest::RemoveInstance`]
    /// departs exactly that set. This is the snapshot-restore half of the
    /// engine's journal compaction: a compacted journal records the live
    /// transactions directly (already flattened), so the restoring
    /// controller is seeded from them and the instance bookkeeping is
    /// replayed onto it with this call instead of re-flattening.
    ///
    /// There must be a member, and every member must name a live
    /// transaction that is not already owned by an instance.
    pub fn restore_instance(
        &mut self,
        class: hsched_model::ComponentClass,
        instance: ComponentInstance,
        members: &[String],
    ) -> Result<(), String> {
        if self.system.instance_by_name(&instance.name).is_some() {
            return Err(format!("instance `{}` already live", instance.name));
        }
        if members.is_empty() {
            return Err(format!("instance `{}` owns no transaction", instance.name));
        }
        let mut indices = Vec::with_capacity(members.len());
        for member in members {
            let index = self
                .set
                .transaction_index(member)
                .ok_or_else(|| format!("no live transaction named `{member}`"))?;
            if let Some(owner) = &self.entries[index].origin {
                return Err(format!(
                    "transaction `{member}` already belongs to instance `{owner}`"
                ));
            }
            indices.push(index);
        }
        for index in indices {
            self.entries[index].origin = Some(instance.name.clone());
        }
        self.system.adopt_instance(class, instance);
        Ok(())
    }

    /// Adopts `platforms` as this controller's table *without* re-analysis,
    /// in O(1) — how a shard router hands every shard the one shared table
    /// after a retune settled elsewhere. Exact because the cached analysis
    /// depends only on the platforms this controller's tasks run on, which
    /// both tables must define identically (a retuned platform belongs to
    /// the island, hence the shard, that committed the retune).
    pub fn adopt_platforms(&mut self, platforms: PlatformSet) -> Result<(), String> {
        debug_assert!(
            self.set.platforms().same_table(&platforms)
                || self
                    .set
                    .task_refs()
                    .map(|r| self.set.task(r).platform)
                    .all(|p| self.set.platforms().get(p) == platforms.get(p)),
            "adopted table redefines a platform this controller's tasks run on"
        );
        self.set.replace_platforms(platforms)
    }

    /// Names of the live transactions flattened from the named component
    /// instance (in set order); empty when the instance is unknown.
    pub fn transactions_of_instance(&self, name: &str) -> Vec<String> {
        self.entries
            .iter()
            .zip(self.set.transactions())
            .filter(|(e, _)| e.origin.as_deref() == Some(name))
            .map(|(_, tx)| tx.name.clone())
            .collect()
    }

    /// Applies one request to the live state, recording the hp-graph dirty
    /// seeds (departure footprints, retuned platforms — arrivals are
    /// collected by *name* and resolved to task seeds after the whole batch
    /// applied, since later requests may shift indices or remove them
    /// again) and the inverse operations in the undo log. Errors leave
    /// partially applied state behind — the caller plays the log back.
    fn apply(
        &mut self,
        request: &AdmissionRequest,
        seeds: &mut Vec<DirtySeed>,
        arrivals: &mut Vec<String>,
        undo: &mut UndoLog,
    ) -> Result<(), String> {
        let footprints = |seeds: &mut Vec<DirtySeed>, tx: &hsched_transaction::Transaction| {
            seeds.extend(tx.tasks().iter().map(|t| DirtySeed::Footprint {
                platform: t.platform,
                priority: t.priority,
            }));
        };
        match request {
            AdmissionRequest::AddTransaction(tx) => {
                if self.set.transaction_index(&tx.name).is_some() {
                    return Err(format!("transaction `{}` already live", tx.name));
                }
                arrivals.push(tx.name.clone());
                self.set.push_transaction(tx.clone())?;
                self.entries.push(Entry {
                    origin: None,
                    outcome: None,
                });
                undo.ops.push(UndoOp::PopTransaction);
                Ok(())
            }
            AdmissionRequest::RemoveTransaction { name } => {
                let index = self
                    .set
                    .transaction_index(name)
                    .ok_or_else(|| format!("no transaction named `{name}`"))?;
                if let Some(instance) = &self.entries[index].origin {
                    return Err(format!(
                        "transaction `{name}` belongs to instance `{instance}`; remove the instance"
                    ));
                }
                let removed = self.set.remove_transaction(index)?;
                footprints(seeds, &removed);
                let entry = self.entries.remove(index);
                undo.ops.push(UndoOp::InsertTransaction {
                    index,
                    tx: removed,
                    entry,
                });
                Ok(())
            }
            AdmissionRequest::Retune {
                platform,
                alpha,
                delta,
                beta,
            } => {
                let current = self
                    .set
                    .platforms()
                    .get(*platform)
                    .ok_or_else(|| format!("platform {platform} out of range"))?;
                let model = BoundedDelay::new(*alpha, *delta, *beta)?;
                let retuned = Platform::new(
                    current.name().to_string(),
                    current.kind(),
                    ServiceModel::Linear(model),
                );
                let previous = current.clone();
                self.set.replace_platform(*platform, retuned)?;
                undo.ops.push(UndoOp::RestorePlatform {
                    id: *platform,
                    platform: previous,
                });
                seeds.push(DirtySeed::Platform(*platform));
                Ok(())
            }
            AdmissionRequest::AddInstance {
                name,
                class,
                platform,
                node,
            } => {
                if self.system.instance_by_name(name).is_some() {
                    return Err(format!("instance `{name}` already live"));
                }
                if !class.required.is_empty() {
                    return Err(format!(
                        "class `{}` has required methods; only self-contained classes \
                         can be admitted as single instances",
                        class.name
                    ));
                }
                if self.set.platforms().get(*platform).is_none() {
                    return Err(format!("platform {platform} out of range"));
                }
                let mut builder = SystemBuilder::new();
                let class_idx = builder.add_class(class.clone());
                builder.instantiate(name.clone(), class_idx, *platform, *node);
                let staged = builder.build();
                let options = FlattenOptions {
                    external_stimuli: self.policy.external_stimuli,
                };
                let (subset, _) = flatten_annotated(&staged, self.set.platforms(), options)
                    .map_err(|e| e.to_string())?;
                if subset.transactions().is_empty() {
                    return Err(format!("class `{}` flattens to no transaction", class.name));
                }
                for tx in subset.transactions() {
                    if self.set.transaction_index(&tx.name).is_some() {
                        return Err(format!("transaction `{}` already live", tx.name));
                    }
                }
                undo.ops.push(UndoOp::RestoreSystem {
                    system: self.system.clone(),
                });
                for tx in subset.transactions() {
                    arrivals.push(tx.name.clone());
                    self.set.push_transaction(tx.clone())?;
                    self.entries.push(Entry {
                        origin: Some(name.clone()),
                        outcome: None,
                    });
                    undo.ops.push(UndoOp::PopTransaction);
                }
                self.system.adopt_instance(
                    class.clone(),
                    ComponentInstance {
                        name: name.clone(),
                        class: 0, // rewritten by adopt_instance
                        platform: *platform,
                        node: NodeId(*node),
                    },
                );
                Ok(())
            }
            AdmissionRequest::RemoveInstance { name } => {
                undo.ops.push(UndoOp::RestoreSystem {
                    system: self.system.clone(),
                });
                self.system.remove_instance_by_name(name)?;
                let mut index = 0;
                while index < self.entries.len() {
                    if self.entries[index].origin.as_deref() == Some(name.as_str()) {
                        let removed = self.set.remove_transaction(index)?;
                        footprints(seeds, &removed);
                        let entry = self.entries.remove(index);
                        undo.ops.push(UndoOp::InsertTransaction {
                            index,
                            tx: removed,
                            entry,
                        });
                    } else {
                        index += 1;
                    }
                }
                Ok(())
            }
        }
    }

    /// The utilization precheck over the whole live set: the names of the
    /// platforms with `U_k > α_k`, in platform order, or `Err` when an
    /// exact sum overflows. A commit checks only the islands its batch
    /// touches; a shard router checks a whole shard with this.
    pub fn checked_overload(&self) -> Result<Vec<String>, String> {
        self.overload_in(0..self.set.transactions().len())
    }

    /// Necessary-condition check `U_k ≤ α_k` on the platforms of the given
    /// transactions (whole islands, so each platform's sum is complete),
    /// with fallible arithmetic: hostile magnitudes surface as an `Err`
    /// (→ numeric rejection) instead of a panic.
    fn overload_in(&self, members: impl Iterator<Item = usize>) -> Result<Vec<String>, String> {
        let mut utilization: BTreeMap<usize, Rational> = BTreeMap::new();
        for i in members {
            let tx = &self.set.transactions()[i];
            for task in tx.tasks() {
                let u = task.wcet.try_div(tx.period).map_err(|e| e.to_string())?;
                let sum = utilization.entry(task.platform.0).or_insert(Rational::ZERO);
                *sum = sum.try_add(u).map_err(|e| e.to_string())?;
            }
        }
        let platforms = self.set.platforms();
        Ok(utilization
            .into_iter()
            .filter(|&(k, u)| u > platforms[PlatformId(k)].alpha())
            .map(|(k, _)| platforms[PlatformId(k)].name().to_string())
            .collect())
    }

    /// Extends the dirty seeds with every live transaction of a `touched`
    /// island whose cached analysis did **not** converge. A non-converged
    /// cache row holds bail-out values, not a fixpoint — it cannot serve as
    /// a frozen pin, and a batch that heals the island (say, removing the
    /// diverging hog) may leave such a row outside the hp-graph cone (a
    /// higher-priority neighbor the hog never delayed). Re-activating stale
    /// rows at island granularity re-solves what an island-granular tracker
    /// would, so recovery batches admit identically; untouched islands keep
    /// their (stale, rejected-at-admission) rows exactly as before.
    fn seed_stale_islands(&self, touched: &[usize], seeds: &mut Vec<DirtySeed>) {
        for &i in touched {
            let stale = self.entries[i]
                .outcome
                .as_ref()
                .is_some_and(|o| !(o.converged && o.bounded));
            if stale {
                for idx in 0..self.set.transactions()[i].len() {
                    seeds.push(DirtySeed::Task(TaskRef { tx: i, idx }));
                }
            }
        }
    }

    /// Runs one group's analysis, turning its errors into rejection
    /// reasons: a grid the overflow contract refuses is
    /// [`RejectReason::Numeric`], any other error
    /// [`RejectReason::Analysis`]. Every analysis of the controller passes
    /// here, and iterates Gauss-Seidel: the cache keeps fixpoints, never a
    /// trace, and every order reaches the same one ([`UpdateOrder`]),
    /// Gauss-Seidel in one dependency-ordered sweep that re-analyzes only
    /// the tasks whose reads moved.
    fn analyze_group(&self, input: &GroupInput) -> Result<SchedulabilityReport, RejectReason> {
        let config = AnalysisConfig {
            update_order: UpdateOrder::GaussSeidel,
            ..self.config.clone()
        };
        analyze_resumed(&input.set, &config, input.warm.as_ref()).map_err(|error| match error {
            AnalysisError::Numeric { .. } => RejectReason::Numeric(error.to_string()),
            _ => RejectReason::Analysis(error.to_string()),
        })
    }

    fn reject(
        &mut self,
        undo: UndoLog,
        batch: &[AdmissionRequest],
        reason: RejectReason,
    ) -> EpochOutcome {
        self.playback(undo);
        self.stats.rejected += 1;
        EpochOutcome {
            epoch: self.epoch,
            verdict: Verdict::Rejected(reason),
            requests: batch.len(),
            analyzed_transactions: 0,
            total_transactions: self.set.transactions().len(),
            islands: 0,
            warm_started: false,
        }
    }
}

/// Builds one analysis sub-problem of the live `set`: the cone members
/// (active) plus their clean platform-sharing context (frozen), sharing the
/// set's platform table. A group that spans the whole set borrows it.
///
/// Frozen members are pinned at their cached fixpoint — exact because
/// nothing that reaches them changed (cone closure). Active members seed
/// from their cached jitters when `warm_actives` (purely additive batches:
/// the old fixpoint is ≤ the new one) and restart cold otherwise (the
/// downward-restart bound after removals/retunes); both are exact, see
/// [`WarmStart`]. The warm seeding additionally requires every cached
/// active member to have converged — a diverged cache value may exceed the
/// new least fixpoint, so those groups fall back to cold actives.
fn group_input<'s>(
    set: &'s TransactionSet,
    entries: &[Entry],
    members: &[usize],
    context: &[usize],
    warm_actives: bool,
) -> GroupInput<'s> {
    // Merge actives and context ascending so the sub-set preserves the
    // live set's relative order (determinism + report alignment).
    let mut indices: Vec<(usize, bool)> = members
        .iter()
        .map(|&i| (i, true))
        .chain(context.iter().map(|&i| (i, false)))
        .collect();
    indices.sort_unstable();
    let (indices, active): (Vec<usize>, Vec<bool>) = indices.into_iter().unzip();

    let sub = if indices.len() == set.transactions().len() {
        Cow::Borrowed(set)
    } else {
        let transactions = indices
            .iter()
            .map(|&i| set.transactions()[i].clone())
            .collect();
        Cow::Owned(
            TransactionSet::new(set.platforms().clone(), transactions)
                .expect("cone members reference live platforms"),
        )
    };

    let warm_seeded = warm_actives
        && indices
            .iter()
            .zip(&active)
            .all(|(&i, &a)| match &entries[i].outcome {
                Some(outcome) => !a || (outcome.converged && outcome.bounded),
                None => true, // new arrival: cold coordinate
            });
    let has_frozen = active.iter().any(|&a| !a);
    let warm = if has_frozen || warm_seeded {
        let row = |i: usize, a: bool, f: fn(&TaskResult) -> Time| -> Vec<Time> {
            match &entries[i].outcome {
                Some(outcome) if !a || warm_seeded => outcome.tasks.iter().map(f).collect(),
                _ => vec![Time::ZERO; set.transactions()[i].len()],
            }
        };
        let jitters = indices
            .iter()
            .zip(&active)
            .map(|(&i, &a)| row(i, a, |t| t.jitter))
            .collect();
        let frozen = has_frozen.then(|| FrozenSeed {
            active: indices
                .iter()
                .zip(&active)
                .map(|(&i, &a)| vec![a; set.transactions()[i].len()])
                .collect(),
            responses: indices
                .iter()
                .zip(&active)
                .map(|(&i, &a)| row(i, a, |t| t.response))
                .collect(),
        });
        Some(WarmStart { jitters, frozen })
    } else {
        None
    };
    GroupInput {
        indices,
        active,
        set: sub,
        warm,
        warm_seeded,
    }
}

/// Writes a group's report back into the per-transaction cache `entries`,
/// moving its rows, and saves the overwritten outcomes in the undo log.
/// Frozen context positions are skipped — their cached values are the
/// pinned seeds the analysis ran against, already in place (and possibly
/// shared with a sibling cone's context, which must not see them
/// overwritten).
fn absorb(
    entries: &mut [Entry],
    input: &GroupInput<'_>,
    report: SchedulabilityReport,
    undo: &mut UndoLog,
) {
    let (converged, bounded) = (report.converged, !report.diverged);
    let rows = report.tasks.into_iter().zip(report.verdicts);
    for ((&index, &active), (tasks, verdict)) in input.indices.iter().zip(&input.active).zip(rows) {
        if !active {
            continue;
        }
        let fresh = Some(TxOutcome {
            tasks,
            verdict,
            converged,
            bounded,
        });
        let previous = std::mem::replace(&mut entries[index].outcome, fresh);
        undo.ops.push(UndoOp::RestoreOutcome {
            index,
            outcome: previous,
        });
    }
}

/// One cone's analysis job, prepared from the live set. `indices` are
/// global transaction indices (ascending); `active[pos]` distinguishes
/// cone members (re-analyzed) from frozen context (pinned).
struct GroupInput<'s> {
    indices: Vec<usize>,
    active: Vec<bool>,
    /// The live set itself when the group spans it, else a copy of its part.
    set: Cow<'s, TransactionSet>,
    warm: Option<WarmStart>,
    /// Active members were seeded from cached jitters (additive resume).
    warm_seeded: bool,
}

/// Compile-time audit that the controller can be moved across threads —
/// the contract the engine's lock-per-shard service front end relies on
/// (each shard controller lives behind its own slot and is checked out by
/// whichever client thread commits an epoch on it). Everything inside is
/// plain owned data; this assertion keeps it that way.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<AdmissionController>();
    assert_send::<AdmissionPolicy>();
    assert_send::<ControllerStats>();
};
