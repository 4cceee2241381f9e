//! Seeded, self-contained inputs: every system and every operation
//! stream is generated here from `--seed`; the product only ever sees the
//! generated requests. The same seed yields a byte-identical stream (the
//! unit test at the bottom pins that).

use hsched_admission::gen::{random_scenario, PlatformMix, ScenarioSpec};
use hsched_admission::{AdmissionController, AdmissionPolicy, AdmissionRequest, UnionFind};
use hsched_analysis::AnalysisConfig;
use hsched_numeric::{rat, Rational};
use hsched_platform::PlatformId;
use hsched_transaction::{Task, Transaction, TransactionSet};
use std::collections::HashMap;

/// Client connections (and load-generating threads) of the wire
/// workloads. Fixed rather than `nproc`, so the workload is the same on
/// every host; the reference host has 2 cores.
pub const CONNECTIONS: usize = 2;
/// `submit async` frames a `wire_pipelined` connection sends before its
/// one `sync`.
pub const WINDOW: usize = 32;
/// Victim transactions each connection toggles — one window's worth, so
/// a window never touches an island twice.
pub const VICTIMS_PER_CONNECTION: usize = WINDOW;

/// The workloads; later issues refer to them by these names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WireSync,
    WirePipelined,
    DeepCone,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::WireSync,
        Workload::WirePipelined,
        Workload::DeepCone,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSync => "wire_sync",
            Workload::WirePipelined => "wire_pipelined",
            Workload::DeepCone => "deep_cone",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests travel over loopback TCP (and a standby tails).
    pub fn over_wire(self) -> bool {
        self != Workload::DeepCone
    }
}

/// SplitMix64: the benchmark's own seed mixer (victim choice, operand
/// decks). The scenario and churn generators own their RNGs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One operation: a batch submitted as one epoch, and the verdict a
/// serial application of the stream gives it (the oracle).
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub batch: Vec<AdmissionRequest>,
    pub admit: bool,
}

/// Everything a run needs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    /// The (schedulable) system the service is seeded with.
    pub set: TransactionSet,
    /// One *cyclic* lane per load-generating thread: a lane touches only
    /// its own islands and returns them to the seed state at the end of
    /// every pass, so it can be run for any duration.
    pub lanes: Vec<Vec<Op>>,
}

impl Inputs {
    /// The serial stream the ladder replays: `passes` whole passes, lanes
    /// interleaved round-robin.
    pub fn serial_stream(&self, passes: usize) -> Vec<&Op> {
        let len = self.lanes[0].len();
        let mut out = Vec::with_capacity(passes * len * self.lanes.len());
        for _ in 0..passes {
            for i in 0..len {
                out.extend(self.lanes.iter().map(|lane| &lane[i]));
            }
        }
        out
    }
}

fn policy() -> AdmissionPolicy {
    AdmissionPolicy::default()
}

/// A generated scenario with every deadline-missing transaction removed,
/// so the seed system is schedulable: the service refuses all arrivals
/// while any island misses, which would turn the run into rejections.
fn schedulable_scenario(spec: &ScenarioSpec) -> TransactionSet {
    let set = random_scenario(spec);
    let mut controller = AdmissionController::new(set, AnalysisConfig::default(), policy())
        .expect("generated scenarios analyze");
    let misses = controller.misses();
    if !misses.is_empty() {
        let removals: Vec<AdmissionRequest> = misses
            .into_iter()
            .map(|name| AdmissionRequest::RemoveTransaction { name })
            .collect();
        let outcome = controller.commit(&removals);
        assert!(
            outcome.verdict.admitted(),
            "removing every miss leaves a schedulable system: {}",
            outcome.verdict
        );
    }
    controller.current_set().clone()
}

/// One *topology-stable* victim per interference island, smallest
/// islands first. A victim is stable when its departure neither empties
/// nor splits its island and its re-arrival claims no free platform, so
/// every toggle is a single-shard fast-path epoch and the per-epoch
/// fixpoint is as small as the system allows: the wire workloads weigh
/// framing, the front door and the journal, not analysis math.
///
/// (Same selection as `hsched_bench::router_churn::smallest_island_victims`,
/// copied so that retiring the old perf bins cannot break the benchmark.)
pub fn smallest_island_victims(set: &TransactionSet, n: usize) -> Vec<Transaction> {
    let txs = set.transactions();
    let platforms_of = |i: usize| -> Vec<usize> {
        let mut out: Vec<usize> = txs[i].tasks().iter().map(|t| t.platform.0).collect();
        out.sort_unstable();
        out.dedup();
        out
    };
    // Groups `indices` by platform sharing: component root per index,
    // and which index first used each platform.
    let group = |indices: &[usize]| -> (Vec<usize>, HashMap<usize, usize>) {
        let mut uf = UnionFind::new(indices.len());
        let mut owner: HashMap<usize, usize> = HashMap::new();
        for (k, &i) in indices.iter().enumerate() {
            for platform in platforms_of(i) {
                match owner.get(&platform) {
                    Some(&j) => uf.union(k, j),
                    None => {
                        owner.insert(platform, k);
                    }
                }
            }
        }
        let roots = (0..indices.len()).map(|k| uf.find(k)).collect();
        (roots, owner)
    };
    let all: Vec<usize> = (0..txs.len()).collect();
    let (roots, _) = group(&all);
    let mut members: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, root) in roots.iter().enumerate() {
        members.entry(*root).or_default().push(i);
    }
    let stable = |island: &[usize], victim: usize| -> bool {
        let rest: Vec<usize> = island.iter().copied().filter(|&i| i != victim).collect();
        if rest.is_empty() {
            return false;
        }
        let (roots, owner) = group(&rest);
        roots.iter().all(|&r| r == roots[0])
            && platforms_of(victim)
                .iter()
                .all(|platform| owner.contains_key(platform))
    };
    // (island size, victim index): the index breaks ties, so the order
    // does not depend on hash-map iteration.
    let mut ranked: Vec<(usize, usize)> = members
        .values()
        .filter_map(|island| {
            island
                .iter()
                .find(|&&i| stable(island, i))
                .map(|&victim| (island.len(), victim))
        })
        .collect();
    ranked.sort_unstable();
    ranked
        .into_iter()
        .take(n)
        .map(|(_, member)| txs[member].clone())
        .collect()
}

/// A lane that removes each victim in turn, then re-adds each: after
/// `2 × victims` operations the lane's islands are back at the seed.
fn toggle_lane(victims: &[Transaction]) -> Vec<Op> {
    let removes = victims.iter().map(|v| AdmissionRequest::RemoveTransaction {
        name: v.name.clone(),
    });
    let adds = victims
        .iter()
        .map(|v| AdmissionRequest::AddTransaction(v.clone()));
    removes
        .chain(adds)
        .map(|request| Op {
            batch: vec![request],
            admit: true,
        })
        .collect()
}

/// Seeds of the two generated systems. The *systems* are the same for
/// every `--seed`; the seed drives the operation streams over them
/// (which connection toggles which victim in which order, the order of
/// islands in the script) and the durability probe's cut. Re-rolling the
/// system as well moves analysis cost — hence `deep_cone` throughput — by
/// 30% from one seed to the next, which would drown every regression
/// bound; a benchmark compares code on the same systems.
const WIRE_SCENARIO_SEED: u64 = 0;
const DEEP_SCENARIO_SEED: u64 = 2;

fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `wire_sync` / `wire_pipelined`: the 3072-transaction, 384-cluster
/// system (divided by `system_div`, as every system size is: `--quick`
/// shrinks the systems to a smoke-test size with every check still on);
/// each connection toggles victims on its own smallest islands.
fn wire_inputs(workload: Workload, seed: u64, system_div: usize) -> Inputs {
    let clusters = 384 / system_div;
    let spec = ScenarioSpec {
        clusters,
        platforms_per_cluster: 2,
        transactions: 8 * clusters,
        max_tasks_per_tx: 2,
        load: rat(2, 5),
        mix: PlatformMix::Linear,
        seed: WIRE_SCENARIO_SEED,
        ..ScenarioSpec::default()
    };
    let set = schedulable_scenario(&spec);
    let mut victims = smallest_island_victims(&set, CONNECTIONS * VICTIMS_PER_CONNECTION);
    assert_eq!(
        victims.len(),
        CONNECTIONS * VICTIMS_PER_CONNECTION,
        "the system has a stable island per victim slot"
    );
    // Which connection toggles which island, in which order.
    shuffle(&mut victims, &mut Rng::new(seed));
    // `wire_sync` is one lock-step connection: with the standby busy
    // on the second core, a second connection makes the per-operation
    // round trip a lottery of thread placement (p50 moved by 23% between
    // runs); `wire_pipelined` keeps both connections.
    let per_lane = match workload {
        Workload::WireSync => victims.len(),
        _ => VICTIMS_PER_CONNECTION,
    };
    let lanes = victims.chunks(per_lane).map(toggle_lane).collect();
    Inputs {
        workload,
        set,
        lanes,
    }
}

/// Dense islands of `deep_cone`: clusters, platforms and transactions
/// per cluster (before the schedulability prune).
const DEEP_CLUSTERS: usize = 4;
const DEEP_PLATFORMS_PER_CLUSTER: usize = 3;
const DEEP_TX_PER_CLUSTER: usize = 10;
/// Steps of the per-island script below.
const DEEP_STEPS: usize = 7;

/// `deep_cone`: a few dense islands and a cyclic script of wide-cone
/// batches per island — retune the busiest platform down, admit a
/// top-priority arrival, swap a transaction for a heavier twin (a
/// non-additive batch: the cone restarts cold), offer a top-priority
/// arrival that cannot meet its own deadline (analysed, rejected, rolled
/// back: 1 operation in 7), then undo the three changes.
fn deep_cone_inputs(seed: u64, system_div: usize) -> Inputs {
    let clusters = (DEEP_CLUSTERS / system_div).max(1);
    let spec = ScenarioSpec {
        clusters,
        platforms_per_cluster: DEEP_PLATFORMS_PER_CLUSTER,
        transactions: DEEP_TX_PER_CLUSTER * clusters,
        max_tasks_per_tx: 4,
        load: rat(1, 2),
        priority_levels: 5,
        mix: PlatformMix::Mixed,
        seed: DEEP_SCENARIO_SEED,
    };
    let set = schedulable_scenario(&spec);
    let utilization = set.platform_utilization();
    let mut rng = Rng::new(seed);
    let mut steps: Vec<Vec<Op>> = vec![Vec::new(); DEEP_STEPS];
    for cluster in 0..clusters {
        let ids: Vec<PlatformId> = (0..DEEP_PLATFORMS_PER_CLUSTER)
            .map(|k| PlatformId(cluster * DEEP_PLATFORMS_PER_CLUSTER + k))
            .collect();
        let relative = |id: &PlatformId| utilization[id.0] / set.platforms()[*id].alpha();
        let busiest = *ids
            .iter()
            .max_by(|a, b| relative(a).cmp(&relative(b)))
            .expect("clusters are non-empty");
        let other = *ids
            .iter()
            .find(|&&id| id != busiest)
            .expect("≥ 2 platforms");
        let platform = &set.platforms()[busiest];
        let (alpha, delta, beta) = (platform.alpha(), platform.delta(), platform.beta());
        let retune = |alpha: Rational| AdmissionRequest::Retune {
            platform: busiest,
            alpha,
            delta,
            beta,
        };
        // 1% of each platform's rate, at the top priority level.
        let period = rat(40, 1);
        let slice = |id: PlatformId| set.platforms()[id].alpha() * period * rat(1, 100);
        let arrival = Transaction::new(
            format!("hp{cluster}"),
            period,
            period * rat(2, 1),
            vec![
                Task::new(
                    format!("hp{cluster}_0"),
                    slice(busiest),
                    slice(busiest),
                    5,
                    busiest,
                ),
                Task::new(
                    format!("hp{cluster}_1"),
                    slice(other),
                    slice(other),
                    5,
                    other,
                ),
            ],
        )
        .expect("valid arrival");
        let hog = Transaction::new(
            format!("hog{cluster}"),
            period,
            rat(1, 100),
            vec![Task::new(
                format!("hog{cluster}_0"),
                slice(busiest),
                slice(busiest),
                5,
                busiest,
            )],
        )
        .expect("valid hog");
        // The swap victim is the first transaction on the busiest
        // platform — the same for every seed, so that the bytes journaled
        // per operation are an exact, seed-independent count.
        let original = set
            .transactions()
            .iter()
            .find(|tx| tx.tasks().iter().any(|t| t.platform == busiest))
            .expect("the busiest platform of an island runs something");
        let heavier = Transaction::new(
            original.name.clone(),
            original.period,
            original.deadline,
            original
                .tasks()
                .iter()
                .map(|t| {
                    Task::new(
                        t.name.clone(),
                        t.wcet * rat(21, 20),
                        t.bcet,
                        t.priority,
                        t.platform,
                    )
                })
                .collect(),
        )
        .expect("valid twin");
        let swap = |to: &Transaction| {
            vec![
                AdmissionRequest::RemoveTransaction {
                    name: to.name.clone(),
                },
                AdmissionRequest::AddTransaction(to.clone()),
            ]
        };
        let script: [Vec<AdmissionRequest>; DEEP_STEPS] = [
            vec![retune(alpha * rat(19, 20))],
            vec![AdmissionRequest::AddTransaction(arrival.clone())],
            swap(&heavier),
            vec![AdmissionRequest::AddTransaction(hog)],
            vec![retune(alpha)],
            vec![AdmissionRequest::RemoveTransaction {
                name: arrival.name.clone(),
            }],
            swap(original),
        ];
        for (step, batch) in script.into_iter().enumerate() {
            steps[step].push(Op { batch, admit: true });
        }
    }
    // Step-major, islands in the seed's order: consecutive operations
    // land on different islands, and an island's seven steps stay in
    // script order.
    let mut order: Vec<usize> = (0..clusters).collect();
    shuffle(&mut order, &mut rng);
    let mut lane: Vec<Op> = steps
        .into_iter()
        .flat_map(|step| {
            order
                .iter()
                .map(move |&k| step[k].clone())
                .collect::<Vec<_>>()
        })
        .collect();
    // The oracle: one pass through a controller that re-analyses the
    // whole system from scratch on every commit (no cones, no warm
    // start). Every later pass starts from the same live set, so its
    // verdicts are the same.
    let mut oracle = AdmissionController::new(
        set.clone(),
        AnalysisConfig::default(),
        AdmissionPolicy {
            dirty_tracking: false,
            warm_start: false,
            ..policy()
        },
    )
    .expect("seed system analyzes");
    for op in &mut lane {
        op.admit = oracle.commit(&op.batch).verdict.admitted();
    }
    Inputs {
        workload: Workload::DeepCone,
        set,
        lanes: vec![lane],
    }
}

pub fn generate(workload: Workload, seed: u64, system_div: usize) -> Inputs {
    match workload {
        Workload::WireSync | Workload::WirePipelined => wire_inputs(workload, seed, system_div),
        Workload::DeepCone => deep_cone_inputs(seed, system_div),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_engine::SCHEMA_VERSION;
    use hsched_net::proto::encode_submit;
    use hsched_net::SubmitMode;

    const SMALL: usize = 4;

    /// The stream as the bytes that would go on the wire.
    fn wire_bytes(inputs: &Inputs) -> String {
        inputs
            .lanes
            .iter()
            .flatten()
            .map(|op| encode_submit(SubmitMode::Sync, SCHEMA_VERSION, &op.batch))
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in Workload::ALL {
            let a = generate(workload, 7, SMALL);
            let b = generate(workload, 7, SMALL);
            assert_eq!(a.set, b.set, "{}", workload.name());
            assert_eq!(a.lanes, b.lanes, "{}", workload.name());
            assert_eq!(wire_bytes(&a), wire_bytes(&b), "{}", workload.name());
            // Another seed, another stream — a one-island `deep_cone` has
            // only one island order.
            if workload.over_wire() {
                let c = generate(workload, 8, SMALL);
                assert_ne!(wire_bytes(&a), wire_bytes(&c), "{}", workload.name());
            }
        }
    }

    #[test]
    fn lanes_of_a_cyclic_input_touch_disjoint_islands() {
        let inputs = generate(Workload::WirePipelined, 3, SMALL);
        assert_eq!(inputs.lanes.len(), CONNECTIONS);
        let platforms = |lane: &[Op]| -> std::collections::HashSet<usize> {
            lane.iter()
                .flat_map(|op| &op.batch)
                .filter_map(|request| match request {
                    AdmissionRequest::AddTransaction(tx) => Some(tx),
                    _ => None,
                })
                .flat_map(|tx| tx.tasks().iter().map(|t| t.platform.0))
                .collect()
        };
        assert!(platforms(&inputs.lanes[0]).is_disjoint(&platforms(&inputs.lanes[1])));
    }

    #[test]
    fn deep_cone_rejects_one_step_in_seven() {
        let inputs = generate(Workload::DeepCone, 5, SMALL);
        let lane = &inputs.lanes[0];
        let rejected = lane.iter().filter(|op| !op.admit).count();
        assert!(rejected * DEEP_STEPS >= lane.len(), "the hog step rejects");
    }
}
