//! The full-mix churn generator the engine's recovery property suites
//! share: [`ChurnGen`]'s arrivals, departures and retunes, plus the
//! traffic it never produces — component instances arriving and
//! departing, bridges that merge islands across clusters (and split them
//! again on departure), arrivals on platforms no shard owns (mints), and a
//! rejection from every stage the engine decides at: routing, inside the
//! shard, the numeric precheck, the overload precheck and a deadline miss.
//! Also the recovery checks and topology counters the suites assert with;
//! each suite uses part of the module.

#![allow(dead_code)]

use hsched_admission::gen::{random_scenario, ChurnGen, ScenarioSpec};
use hsched_admission::{AdmissionController, AdmissionPolicy, AdmissionRequest, UnionFind};
use hsched_analysis::AnalysisConfig;
use hsched_engine::{EngineRequest, JournalStream, SchedService};
use hsched_model::{Action, ComponentClass, ThreadSpec};
use hsched_numeric::{rat, Rational};
use hsched_platform::PlatformId;
use hsched_transaction::{Task, Transaction, TransactionSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;

/// A generated scenario with every deadline-missing transaction removed,
/// so arrivals are judged on their own merit (an island that already
/// misses rejects every arrival on it).
pub fn schedulable_scenario(spec: &ScenarioSpec) -> TransactionSet {
    let set = random_scenario(spec);
    let mut controller =
        AdmissionController::new(set, AnalysisConfig::default(), AdmissionPolicy::default())
            .expect("generated scenarios analyze");
    let removals: Vec<AdmissionRequest> = controller
        .misses()
        .into_iter()
        .map(|name| AdmissionRequest::RemoveTransaction { name })
        .collect();
    if !removals.is_empty() {
        assert!(controller.commit(&removals).verdict.admitted());
    }
    controller.current_set().clone()
}

/// The full-mix scenario of `seed`: five clusters of two platforms, the
/// last one seeded empty so its platforms start free, and the seed made
/// schedulable.
pub fn full_mix_scenario(seed: u64) -> (ScenarioSpec, TransactionSet) {
    let spec = ScenarioSpec {
        clusters: 5,
        platforms_per_cluster: 2,
        transactions: 15,
        max_tasks_per_tx: 3,
        load: rat(1, 2),
        priority_levels: 3,
        seed,
        ..ScenarioSpec::default()
    };
    let set = schedulable_scenario(&spec);
    let seeded = (spec.clusters - 1) * spec.platforms_per_cluster;
    let kept = set
        .transactions()
        .iter()
        .filter(|tx| tx.tasks().iter().all(|t| t.platform.0 < seeded))
        .cloned()
        .collect();
    let set = TransactionSet::new(set.platforms().clone(), kept).unwrap();
    (spec, set)
}

/// The recovery invariants, replay == live == standby, on the journal a
/// session left at `path` (its engine dropped — a crash). `digests[k]` is
/// the live digest after `k` epochs; `next` is one more batch. The two
/// cut points are percentages of the bytes past the header and snapshot
/// block (which is written atomically, so a crash never tears it):
///
/// - verified replay of the whole journal reaches the live digest;
/// - a warm standby seeded from the journal cut at `cuts.0`, then fed the
///   rest record by record, reaches it too — and so does a second one
///   that takes `next` as a live commit straight after the stream, while
///   the records have left its shards stale, alongside the verified
///   replay taking it;
/// - structural and verified replay of the journal torn at `cuts.1`
///   reach the live digest of the epoch they stop at, and the repaired
///   journal keeps serving: both take `next` alike, and the journal the
///   structural one appended it to replays to its digest.
pub fn assert_recovery(
    set: &TransactionSet,
    path: &Path,
    digests: &[String],
    next: &[AdmissionRequest],
    cuts: (u64, u64),
) {
    let replay = |verified: bool, path: &Path| {
        let replay = if verified {
            SchedService::replay_verified
        } else {
            SchedService::replay
        };
        replay(
            set.clone(),
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
            path,
        )
        .unwrap_or_else(|e| panic!("replay (verified: {verified}) failed: {e}"))
        .0
    };
    let copy = |tag: &str, bytes: &[u8]| {
        let copy = path.with_extension(tag);
        std::fs::write(&copy, bytes).unwrap();
        copy
    };
    let bytes = std::fs::read(path).unwrap();
    let floor = JournalStream::open(path).unwrap().valid_prefix() as usize;
    let cut = |percent: u64| floor + (bytes.len() - floor) * percent as usize / 100;
    let last = digests.last().unwrap();

    let verified = replay(true, &copy("verified", &bytes));
    assert_eq!(&verified.state_digest(), last, "verified replay == live");

    let standby = |tag: &str| {
        let mirror = copy(tag, &bytes[..cut(cuts.0)]);
        let (standby, stats) = SchedService::replay_standby(
            set.clone(),
            AnalysisConfig::default(),
            AdmissionPolicy::default(),
            &mirror,
        )
        .unwrap_or_else(|e| panic!("standby seed failed: {e}"));
        std::fs::write(&mirror, &bytes).unwrap();
        let stream =
            JournalStream::resume_from(&mirror, stats.journal_bytes, standby.epoch() + 1).unwrap();
        for record in stream {
            standby
                .apply_journal_record(&record.unwrap())
                .unwrap_or_else(|e| panic!("standby refused a record: {e}"));
        }
        let _ = std::fs::remove_file(&mirror);
        standby
    };
    assert_eq!(&standby("standby").state_digest(), last, "standby == live");
    let serving = standby("serving");
    let request = EngineRequest::batch(next.to_vec());
    let ours = serving.submit(&request).unwrap();
    let theirs = verified.submit(&request).unwrap();
    assert_eq!(
        ours.outcome.verdict, theirs.outcome.verdict,
        "live commit on a standby"
    );
    assert_eq!(serving.state_digest(), verified.state_digest());

    let torn = copy("torn", &bytes[..cut(cuts.1)]);
    let audit = copy("torn-verified", &bytes[..cut(cuts.1)]);
    let structural = replay(false, &torn);
    let epoch = structural.epoch() as usize;
    assert_eq!(
        structural.state_digest(),
        digests[epoch],
        "replay == live at {epoch}"
    );
    let audited = replay(true, &audit);
    assert_eq!(audited.state_digest(), digests[epoch]);
    let ours = structural
        .submit(&request)
        .unwrap_or_else(|e| panic!("commit on the repaired journal failed: {e}"));
    let theirs = audited.submit(&request).unwrap();
    assert_eq!(
        ours.outcome.verdict, theirs.outcome.verdict,
        "commit after a torn tail"
    );
    let digest = structural.state_digest();
    assert_eq!(digest, audited.state_digest());
    drop(structural);
    assert_eq!(
        replay(false, &torn).state_digest(),
        digest,
        "the repaired journal took the append"
    );
    for tag in ["verified", "torn", "torn-verified"] {
        let _ = std::fs::remove_file(path.with_extension(tag));
    }
}

/// Coprime periods whose utilizations no 128-bit fraction can sum.
pub const HUGE_PERIODS: [i128; 5] = [
    1_000_000_000_039,
    1_000_000_000_061,
    1_000_000_000_063,
    1_000_000_000_091,
    999_999_999_989,
];

/// See the module docs.
pub struct FullMix {
    churn: ChurnGen,
    rng: StdRng,
    platforms_per_cluster: usize,
    counter: u64,
}

impl FullMix {
    /// A stream over the cluster layout of `spec`.
    pub fn new(spec: &ScenarioSpec, seed: u64) -> FullMix {
        FullMix {
            churn: ChurnGen::new(spec, seed),
            rng: StdRng::seed_from_u64(seed ^ 0xf011_3a1c),
            platforms_per_cluster: spec.platforms_per_cluster,
            counter: 0,
        }
    }

    /// The next batch against `service`'s current state: half the time a
    /// plain [`ChurnGen`] batch of up to three requests, otherwise up to
    /// two churn requests and one of the extra kinds.
    pub fn next_batch(&mut self, service: &SchedService) -> Vec<AdmissionRequest> {
        let live = service.current_set();
        if self.rng.gen_range(0..2u32) == 0 {
            return self.churn.next_batch(&live, 3);
        }
        let mut batch = self.churn.next_batch(&live, 2);
        batch.extend(self.extra(&live, service));
        batch
    }

    fn extra(&mut self, live: &TransactionSet, service: &SchedService) -> Vec<AdmissionRequest> {
        self.counter += 1;
        let k = self.counter;
        let platforms = live.platforms().len();
        let platform = PlatformId(self.rng.gen_range(0..platforms));
        let one = |name: String, period: Rational, deadline: Rational, wcet: Rational, p| {
            let task = Task::new(format!("{name}_t"), wcet, wcet, 1, p);
            AdmissionRequest::AddTransaction(
                Transaction::new(name, period, deadline, vec![task]).unwrap(),
            )
        };
        let instances: Vec<String> = service
            .system()
            .instances
            .iter()
            .map(|i| i.name.clone())
            .collect();
        let some_instance = |rng: &mut StdRng| {
            (!instances.is_empty()).then(|| instances[rng.gen_range(0..instances.len())].clone())
        };
        match self.rng.gen_range(0..11u32) {
            // Rejected at routing: a live name arrives again.
            0 => match live.transactions().len() {
                0 => Vec::new(),
                n => {
                    let tx = live.transactions()[self.rng.gen_range(0..n)].clone();
                    vec![AdmissionRequest::AddTransaction(tx)]
                }
            },
            // Rejected by the numeric precheck: the exact utilization sum
            // of one platform overflows.
            1 => HUGE_PERIODS
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    one(
                        format!("huge{k}_{i}"),
                        rat(p, 1),
                        rat(p, 1),
                        rat(1, 1),
                        platform,
                    )
                })
                .collect(),
            // Rejected by the overload precheck.
            2 => vec![one(
                format!("hog{k}"),
                rat(10, 1),
                rat(10, 1),
                rat(11, 1),
                platform,
            )],
            // Rejected for a deadline miss: no rate ≤ 1 serves 2 units by 1.
            3 => vec![one(
                format!("tight{k}"),
                rat(100, 1),
                rat(1, 1),
                rat(2, 1),
                platform,
            )],
            // Rejected inside the shard: no linear model has rate 3/2.
            4 => vec![AdmissionRequest::Retune {
                platform,
                alpha: rat(3, 2),
                delta: rat(0, 1),
                beta: rat(0, 1),
            }],
            // A component instance arrives — under a live instance's name
            // now and then, which routing rejects, and now and then of a
            // class with no threads, which flattens to no transaction and is
            // rejected inside the shard.
            5 | 6 => {
                let name = match some_instance(&mut self.rng) {
                    Some(name) if self.rng.gen_range(0..4u32) == 0 => name,
                    _ => format!("inst{k}"),
                };
                let period = rat(40 + 20 * self.rng.gen_range(0..4i128), 1);
                let wcet = Rational::new(1, 1 + self.rng.gen_range(0..3i128));
                let class = ComponentClass::new(format!("Worker{k}"));
                let class = match self.rng.gen_range(0..5u32) {
                    0 => class,
                    _ => class.thread(ThreadSpec::periodic(
                        "T",
                        period,
                        1 + self.rng.gen_range(0..3u32),
                        vec![Action::task("w", wcet, wcet)],
                    )),
                };
                vec![AdmissionRequest::AddInstance {
                    name,
                    class,
                    platform,
                    node: 0,
                }]
            }
            // An instance departs — or, rejected inside the shard, one of
            // its flattened members tries to leave on its own.
            7 | 8 => match some_instance(&mut self.rng) {
                Some(name) if self.rng.gen_range(0..3u32) == 0 => {
                    vec![AdmissionRequest::RemoveTransaction {
                        name: format!("{name}.T"),
                    }]
                }
                Some(name) => vec![AdmissionRequest::RemoveInstance { name }],
                None => vec![AdmissionRequest::RemoveInstance {
                    name: format!("ghost{k}"),
                }],
            },
            // A bridge across two clusters merges their islands; ChurnGen's
            // departures split them again.
            _ => {
                let ppc = self.platforms_per_cluster;
                let clusters = platforms / ppc;
                let first = self.rng.gen_range(0..clusters);
                let second = (first + 1 + self.rng.gen_range(0..clusters - 1)) % clusters;
                let tasks = [first, second]
                    .iter()
                    .enumerate()
                    .map(|(j, c)| {
                        let p = PlatformId(c * ppc + self.rng.gen_range(0..ppc));
                        Task::new(format!("bridge{k}_{j}"), rat(1, 2), rat(1, 2), 1, p)
                    })
                    .collect();
                let tx = Transaction::new(format!("bridge{k}"), rat(80, 1), rat(160, 1), tasks);
                vec![AdmissionRequest::AddTransaction(tx.unwrap())]
            }
        }
    }
}

/// Each live transaction's island (the partition recomputed test-side):
/// transaction name → an island id, comparable within one map only.
pub fn islands_by_name(set: &TransactionSet) -> HashMap<String, usize> {
    let mut uf = UnionFind::new(set.platforms().len());
    for tx in set.transactions() {
        for task in tx.tasks() {
            uf.union(tx.tasks()[0].platform.0, task.platform.0);
        }
    }
    set.transactions()
        .iter()
        .map(|tx| (tx.name.clone(), uf.find(tx.tasks()[0].platform.0)))
        .collect()
}

/// Epochs that touched ≥ 2 shards, merged shards, minted one, and split
/// one.
#[derive(Debug, Default, Clone, Copy)]
pub struct TopologyCounts {
    pub multi_shard: usize,
    pub merges: usize,
    pub mints: usize,
    pub splits: usize,
}

impl TopologyCounts {
    /// Classifies one epoch from the islands before and after it.
    pub fn count(
        &mut self,
        before: &HashMap<String, usize>,
        after: &HashMap<String, usize>,
        shards_touched: usize,
    ) {
        // After-island → the before-islands its survivors came from, and
        // before-island → the after-islands its survivors went to.
        let mut sources: HashMap<usize, BTreeSet<usize>> = HashMap::new();
        let mut sinks: HashMap<usize, BTreeSet<usize>> = HashMap::new();
        for (name, &to) in after {
            let from = sources.entry(to).or_default();
            if let Some(&was) = before.get(name) {
                from.insert(was);
                sinks.entry(was).or_default().insert(to);
            }
        }
        self.multi_shard += usize::from(shards_touched >= 2);
        self.merges += usize::from(sources.values().any(|s| s.len() >= 2));
        self.mints += usize::from(sources.values().any(BTreeSet::is_empty));
        self.splits += usize::from(sinks.values().any(|s| s.len() >= 2));
    }

    pub fn add(&mut self, other: TopologyCounts) {
        self.multi_shard += other.multi_shard;
        self.merges += other.merges;
        self.mints += other.mints;
        self.splits += other.splits;
    }
}
