//! Per-task static-offset response-time analysis (§3.1): completion-time
//! and busy-period fixpoints over scenarios, with the foreign interference
//! read from step tables shared across the analyses of one fixpoint.

use crate::grid::Grid;
use crate::hpgraph::{HpPool, HpSets};
use crate::interference::{phase, Scenario, Step, StepTables};
use crate::state::TaskState;
use crate::{AnalysisConfig, HpGraph, ScenarioMode};
use hsched_numeric::{Cycles, Rational, Time};
use hsched_transaction::{TaskRef, TransactionSet};

/// Errors that abort the analysis (as opposed to an *unschedulable* verdict,
/// which is a result).
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// Exact mode: the scenario space of Eq. (12) exceeds the configured cap.
    TooManyScenarios {
        /// The task whose analysis exploded.
        task: TaskRef,
        /// Number of scenarios required.
        count: u128,
        /// The configured maximum.
        max: u64,
    },
    /// An inner fixpoint failed to settle within the iteration cap — in
    /// practice a sign of numeric runaway from degenerate parameters.
    InnerIterationCap {
        /// The task being analyzed.
        task: TaskRef,
    },
    /// Linear mode: the fixpoint's integer grid cannot be shown to stay
    /// inside `i128`, because the scale `k` times the bound `V` on the values
    /// the fixpoint forms exceeds 2¹²³ (see the `grid` module).
    Numeric {
        /// `k`, the lcm of the inputs' denominators; `None` when it leaves
        /// `u128`.
        scale: Option<u128>,
        /// `V`, in the inputs' own units.
        bound: f64,
    },
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::TooManyScenarios { task, count, max } => write!(
                f,
                "exact analysis of {task} needs {count} scenarios (cap {max}); use the approximate mode"
            ),
            AnalysisError::InnerIterationCap { task } => {
                write!(f, "inner fixpoint for {task} hit the iteration cap")
            }
            AnalysisError::Numeric { scale, bound } => {
                match scale {
                    Some(k) => write!(f, "the integer grid's scale k = {k}")?,
                    None => write!(f, "the integer grid's scale k ≥ 2^128")?,
                }
                write!(f, " times the bound V = {bound:.3e} on the fixpoint's values exceeds 2^123")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Result of analyzing one task at fixed offsets/jitters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TaskAnalysis {
    /// The worst-case response time found (measured from the transaction's
    /// activation, like the paper's `Ri,j`).
    pub response: Time,
    /// `false` when the busy period or completion time grew past the
    /// divergence bound — the platform cannot sustain the demand and the
    /// task is unschedulable (response is then the value at bail-out).
    pub bounded: bool,
}

/// What the task analyses of one holistic fixpoint share, owned by it:
/// the numbers of its [`Grid`]; `hp[v]`, task `v`'s hp sets (Eq. 17), read
/// off the [`HpGraph`] into the pool on its first analysis; the step table
/// of each foreign hp set, which every task reading the set shares and
/// which is rebuilt only when the states of its members move; and the own
/// scenario each starter re-targets. Once its hp sets are read, a task analysis allocates only
/// when a table it rebuilds outgrows the pools.
pub(crate) struct TaskSlots<'g> {
    graph: &'g HpGraph,
    grid: &'g Grid,
    hp: Vec<Option<HpSets>>,
    pool: HpPool,
    tables: StepTables,
    own: Scenario,
}

impl<'g> TaskSlots<'g> {
    pub(crate) fn new(graph: &'g HpGraph, grid: &'g Grid) -> TaskSlots<'g> {
        TaskSlots {
            graph,
            grid,
            hp: vec![None; graph.len()],
            pool: HpPool::default(),
            tables: StepTables::new(graph.len()),
            own: Scenario::default(),
        }
    }
}

/// Analyzes task `under` given the current offset/jitter state of every
/// task (§3.1.2 approximate or §3.1.1 exact, per config), sharing what
/// `slots` holds with the other analyses of its fixpoint.
pub(crate) fn analyze_task(
    set: &TransactionSet,
    states: &[Vec<TaskState>],
    under: TaskRef,
    config: &AnalysisConfig,
    slots: &mut TaskSlots<'_>,
) -> Result<TaskAnalysis, AnalysisError> {
    let flat = slots.graph.flat(under);
    let sets = &*slots.hp[flat].get_or_insert_with(|| slots.graph.hp_sets(flat, &mut slots.pool));
    let (pool, tables, grid) = (&slots.pool, &mut slots.tables, slots.grid);
    let (own_hp, foreign) = pool.sets(sets);
    let ctx = TaskContext::<true>::new(set, grid, states, under, config, own_hp);
    match config.scenario_mode {
        ScenarioMode::Approximate => {
            for f in foreign {
                let built = tables.refresh(grid, states, f.tx, pool.members(f), f.anchor);
                if let (true, Some(m)) = (built, ctx.metrics) {
                    m.interference_tables.incr();
                }
            }
            // `Σ_{i ≠ a} W*_i(τa,b, ·)`: the scenario-independent part of
            // the reduced analysis's interference (Eqs. 15–16).
            let tables = &*tables;
            let foreign = |t: Time| {
                foreign
                    .iter()
                    .fold(Step::ZERO, |sum, f| sum + tables.step(f.anchor, t))
            };
            ctx.analyze_approximate(&foreign, &mut slots.own)
        }
        ScenarioMode::Exact { max_scenarios } => ctx.analyze_exact(
            foreign.iter().map(|f| (f.tx, pool.members(f))),
            max_scenarios,
        ),
    }
}

/// Precomputed context for one task's analysis. `SEEDED`: start the
/// completion-time iterations from proven lower bounds of their least
/// fixpoints, and stop them inside their step (see
/// [`TaskContext::analyze_scenario`]); only the test reference, which
/// iterates every inner fixpoint from zero, clears it.
struct TaskContext<'a, const SEEDED: bool> {
    set: &'a TransactionSet,
    grid: &'a Grid,
    states: &'a [Vec<TaskState>],
    under: TaskRef,
    /// Flat index of τa,b.
    flat: usize,
    config: &'a AnalysisConfig,
    /// `hpa(τa,b)`, the own transaction's hp set.
    own_hp: &'a [usize],
    /// Period of the task's own transaction.
    period: Time,
    /// WCET of the task under analysis.
    wcet: Cycles,
    /// Offset φa,b.
    phi: Time,
    /// Jitter Ja,b.
    jitter: Time,
    /// Blocking Ba,b (time units).
    blocking: Time,
    /// Bail-out bound for busy periods / completion times.
    bound: Time,
    /// Telemetry sink, resolved once from the config so the hot path pays
    /// a single pointer check.
    metrics: Option<&'a crate::AnalysisMetrics>,
}

impl<'a, const SEEDED: bool> TaskContext<'a, SEEDED> {
    fn new(
        set: &'a TransactionSet,
        grid: &'a Grid,
        states: &'a [Vec<TaskState>],
        under: TaskRef,
        config: &'a AnalysisConfig,
        own_hp: &'a [usize],
    ) -> TaskContext<'a, SEEDED> {
        let flat = grid.flat(under.tx, under.idx);
        let period = grid.period(under.tx);
        let st = states[under.tx][under.idx];
        let bound = (grid.deadline(under.tx) + period + st.jitter)
            * Rational::from_integer(config.divergence_factor as i128);
        TaskContext {
            set,
            grid,
            states,
            under,
            flat,
            config,
            own_hp,
            period,
            wcet: grid.wcet(flat),
            phi: st.phi,
            jitter: st.jitter,
            blocking: grid.blocking(flat),
            bound,
            metrics: config.metrics.as_deref(),
        }
    }

    /// Worst-case time to serve `demand` cycles plus the blocking term:
    /// the `Δ + B + …/α` prefix of Eqs. (13)/(16).
    fn completion(&self, demand: Cycles) -> Time {
        self.blocking
            + self
                .grid
                .service(self.set, self.flat, demand, self.config.service_mode)
    }

    /// §3.1.2: other transactions bounded by `foreign`, own transaction's
    /// scenarios enumerated, each re-targeting `own`.
    fn analyze_approximate(
        &self,
        foreign: &impl Fn(Time) -> Step,
        own: &mut Scenario,
    ) -> Result<TaskAnalysis, AnalysisError> {
        let mut best = TaskAnalysis {
            response: Time::ZERO,
            bounded: true,
        };
        // τa,b itself starts the busy period too.
        for &c in self.own_hp.iter().chain(std::iter::once(&self.under.idx)) {
            own.retarget(self.grid, self.states, self.under.tx, c, self.own_hp);
            let own = &*own;
            let interference = |t: Time| -> Step { foreign(t) + own.step(t) };
            let outcome = self.analyze_scenario(c, &interference)?;
            best.response = best.response.max(outcome.response);
            best.bounded &= outcome.bounded;
            if !best.bounded {
                return Ok(best);
            }
        }
        Ok(best)
    }

    /// §3.1.1: full cartesian enumeration of scenario vectors ν (Eq. 12),
    /// over the `(transaction, hp set)` of every non-empty foreign set.
    fn analyze_exact(
        &self,
        foreign: impl Iterator<Item = (usize, &'a [usize])>,
        max_scenarios: u64,
    ) -> Result<TaskAnalysis, AnalysisError> {
        // Candidate starters per transaction: hpi for i ≠ a (only the
        // non-empty ones are kept), hpa ∪ {τa,b} for the own transaction,
        // by ascending transaction. Each candidate carries its W^k_i
        // (Eq. 11).
        let mut hp: Vec<(usize, &[usize])> = foreign.collect();
        hp.push((self.under.tx, self.own_hp));
        hp.sort_unstable_by_key(|&(i, _)| i);
        let axes: Vec<(usize, Vec<(usize, Scenario)>)> = hp
            .into_iter()
            .map(|(i, hp)| {
                let own = (i == self.under.tx).then_some(self.under.idx);
                let candidates = hp.iter().copied().chain(own).map(|k| {
                    let mut scenario = Scenario::default();
                    scenario.retarget(self.grid, self.states, i, k, hp);
                    (k, scenario)
                });
                (i, candidates.collect())
            })
            .collect();
        let count = axes
            .iter()
            .fold(1u128, |n, (_, c)| n.saturating_mul(c.len() as u128));
        if count > max_scenarios as u128 {
            return Err(AnalysisError::TooManyScenarios {
                task: self.under,
                count,
                max: max_scenarios,
            });
        }

        // The own transaction always has an axis (τa,b is one of its
        // candidates); its pick is the starter c that determines ϕ^c_{a,b}.
        let own_axis = axes
            .iter()
            .position(|(i, _)| *i == self.under.tx)
            .expect("own transaction always contributes an axis");

        let mut best = TaskAnalysis {
            response: Time::ZERO,
            bounded: true,
        };
        // Iterate the cartesian product with an odometer.
        let mut odo = vec![0usize; axes.len()];
        loop {
            let c = axes[own_axis].1[odo[own_axis]].0;
            let interference = |t: Time| -> Step {
                axes.iter()
                    .zip(&odo)
                    .fold(Step::ZERO, |sum, ((_, candidates), &pick)| {
                        sum + candidates[pick].1.step(t)
                    })
            };
            let outcome = self.analyze_scenario(c, &interference)?;
            best.response = best.response.max(outcome.response);
            best.bounded &= outcome.bounded;
            if !best.bounded {
                return Ok(best);
            }
            // Advance the odometer.
            let mut pos = 0;
            loop {
                if pos == odo.len() {
                    return Ok(best);
                }
                odo[pos] += 1;
                if odo[pos] < axes[pos].1.len() {
                    break;
                }
                odo[pos] = 0;
                pos += 1;
            }
        }
    }

    /// Analyzes one scenario: busy period started by τa,c's critical
    /// release (`c` may be the task itself). `interference(t)` yields the
    /// total hp demand in cycles for a busy period of length `t`, and how
    /// far it holds.
    ///
    /// Every recurrence here is a monotone map iterated upward to its least
    /// fixpoint, so it may start from any value proven to lie at or below
    /// that fixpoint (and below its own image) and still stop exactly
    /// there. Seeded, job `p > p0` starts from job `p − 1`'s completion
    /// (one job less, so a smaller map), and job `p0` from the largest
    /// busy-period iterate computed from an iterate that counted at most
    /// one own job: by induction each such iterate is at most job `p0`'s
    /// map applied to the one before, hence at most its least fixpoint.
    /// When the busy period itself counts exactly one own job it is a
    /// fixpoint of job `p0`'s map, so it is job `p0`'s completion.
    ///
    /// Seeded, an iteration also stops inside its step: when the next
    /// iterate is no longer than the length up to which the current demand
    /// holds (for the busy period, up to the task's own next arrival too),
    /// the map gives it the same demand, so it is a fixpoint, and an
    /// iterate of an upward iteration, so the least one. The rule is
    /// checked after the bound and the iteration cap, so it changes no
    /// bail-out.
    fn analyze_scenario(
        &self,
        c: usize,
        interference: &dyn Fn(Time) -> Step,
    ) -> Result<TaskAnalysis, AnalysisError> {
        let evaluate = |t: Time| {
            if let Some(m) = self.metrics {
                m.interference_evaluations.incr();
            }
            interference(t)
        };
        let starter = &self.states[self.under.tx][c];
        let phi_c = phase(self.period, starter, self.phi);
        // p0 = 1 − ⌊(Ja,b + ϕ)/Ta⌋ — index of the oldest pending job.
        let p0 = 1 - (self.jitter + phi_c).div_floor(self.period);
        // Busy period length L (the paper's iterative expression after
        // Eq. 16); monotone non-decreasing iteration from 0.
        let mut len = Time::ZERO;
        // The largest iterate computed from one that counted ≤ 1 own job.
        let mut first_job_floor = Time::ZERO;
        let mut iterations = 0usize;
        let (busy_len, busy_jobs) = loop {
            // Arrivals clamped at 0 so the L = 0 seed sees the pending jobs
            // (right-limit semantics, as in `Scenario::step`).
            let own_arrivals = (len - phi_c).div_ceil(self.period).max(0);
            let own_jobs = (own_arrivals - p0 + 1).max(0);
            let step = evaluate(len)
                + Step {
                    demand: Rational::from_integer(own_jobs) * self.wcet,
                    until: Some(phi_c + self.period * Rational::from_integer(own_arrivals)),
                };
            let next = self.completion(step.demand);
            if own_jobs <= 1 {
                first_job_floor = next;
            }
            if next == len {
                break (len, own_jobs);
            }
            if next > self.bound {
                return Ok(TaskAnalysis {
                    response: next,
                    bounded: false,
                });
            }
            len = next;
            iterations += 1;
            if iterations > self.config.max_inner_iterations {
                return Err(AnalysisError::InnerIterationCap { task: self.under });
            }
            if SEEDED && step.holds_at(len) {
                break (len, own_jobs);
            }
        };
        // Last job inside the busy period (Eq. 14).
        let p_last = (busy_len - phi_c).div_ceil(self.period);

        let mut best = Time::ZERO;
        let mut w = if SEEDED { first_job_floor } else { Time::ZERO };
        let mut p = p0;
        while p <= p_last {
            let jobs = Rational::from_integer(p - p0 + 1);
            let mut iterations = 0usize;
            let completion = if SEEDED && p == p0 && busy_jobs == 1 {
                busy_len
            } else {
                loop {
                    let step = evaluate(w);
                    let next = self.completion(jobs * self.wcet + step.demand);
                    if next == w {
                        break w;
                    }
                    if next > self.bound {
                        return Ok(TaskAnalysis {
                            response: next,
                            bounded: false,
                        });
                    }
                    w = next;
                    iterations += 1;
                    if iterations > self.config.max_inner_iterations {
                        return Err(AnalysisError::InnerIterationCap { task: self.under });
                    }
                    if SEEDED && step.holds_at(w) {
                        break w;
                    }
                }
            };
            // R = w − (ϕ + (p−1)T − φ): completion minus the transaction's
            // activation instant.
            let activation = phi_c + self.period * Rational::from_integer(p - 1) - self.phi;
            best = best.max(completion - activation);
            w = if SEEDED { completion } else { Time::ZERO };
            p += 1;
        }
        Ok(TaskAnalysis {
            response: best,
            bounded: true,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::holistic::tests::analyze_unmemoized;
    use crate::interference::tests::{hp_tasks, scenarios, w_star};
    use crate::state::tests::initial_states;
    use crate::{
        analyze_resumed, AnalysisMetrics, DirtySeed, ServiceTimeMode, UpdateOrder, WarmStart,
    };
    use hsched_numeric::rat;
    use hsched_platform::{Platform, PlatformKind, PlatformSet, ServiceModel};
    use hsched_supply::TdmaSupply;
    use hsched_transaction::{paper_example, Task, Transaction};
    use std::sync::Arc;

    fn setup() -> (TransactionSet, Vec<Vec<TaskState>>, AnalysisConfig) {
        let set = paper_example::transactions();
        let states = initial_states(&set, ServiceTimeMode::LinearBounds);
        (set, states, AnalysisConfig::default())
    }

    /// One task analyzed on its own, outside any holistic sweep.
    fn analyze_alone(
        set: &TransactionSet,
        states: &[Vec<TaskState>],
        under: TaskRef,
        config: &AnalysisConfig,
    ) -> Result<TaskAnalysis, AnalysisError> {
        let graph = HpGraph::of(set);
        let grid = Grid::new(set, &graph, config, 1);
        analyze_task(
            set,
            states,
            under,
            config,
            &mut TaskSlots::new(&graph, &grid),
        )
    }

    /// The reference analysis of task `under` at `states` on `grid`, which
    /// [`analyze_task`] must equal: hp sets by Eq. (17)'s definition, `W*`
    /// evaluated from its scenarios at every length, and every inner
    /// fixpoint iterated from zero to `next == w`.
    pub(crate) fn analyze_reference(
        set: &TransactionSet,
        grid: &Grid,
        states: &[Vec<TaskState>],
        under: TaskRef,
        config: &AnalysisConfig,
    ) -> Result<TaskAnalysis, AnalysisError> {
        let own_hp = hp_tasks(set, under.tx, under);
        let foreign_hp: Vec<(usize, Vec<usize>)> = (0..set.transactions().len())
            .filter(|&i| i != under.tx)
            .map(|i| (i, hp_tasks(set, i, under)))
            .filter(|(_, hp)| !hp.is_empty())
            .collect();
        let ctx = TaskContext::<false>::new(set, grid, states, under, config, &own_hp);
        match config.scenario_mode {
            ScenarioMode::Approximate => {
                let foreign: Vec<Vec<Scenario>> = foreign_hp
                    .iter()
                    .map(|(i, hp)| scenarios(grid, states, *i, hp))
                    .collect();
                // Claims to hold at `t` alone: the reference never stops
                // inside a step.
                let foreign = |t: Time| Step {
                    demand: foreign.iter().map(|w| w_star(w, t)).sum(),
                    until: Some(t),
                };
                ctx.analyze_approximate(&foreign, &mut Scenario::default())
            }
            ScenarioMode::Exact { max_scenarios } => ctx.analyze_exact(
                foreign_hp.iter().map(|(i, hp)| (*i, hp.as_slice())),
                max_scenarios,
            ),
        }
    }

    #[test]
    fn iteration0_matches_table3_column0() {
        let (set, states, config) = setup();
        // Table 3, k = 0: R(0) = [12, 9, 10, 12] for Γ1.
        let expected = [rat(12, 1), rat(9, 1), rat(10, 1), rat(12, 1)];
        for (idx, want) in expected.into_iter().enumerate() {
            let r = analyze_alone(&set, &states, TaskRef { tx: 0, idx }, &config).unwrap();
            assert!(r.bounded);
            assert_eq!(r.response, want, "τ1,{} at iteration 0", idx + 1);
        }
    }

    #[test]
    fn independent_transactions_iteration0() {
        let (set, states, config) = setup();
        // τ2,1 on Π1 (p=3, no interference): Δ + C/α = 1 + 2.5 = 3.5.
        let r = analyze_alone(&set, &states, TaskRef { tx: 1, idx: 0 }, &config).unwrap();
        assert_eq!(r.response, rat(7, 2));
        // τ3,1 symmetric.
        let r = analyze_alone(&set, &states, TaskRef { tx: 2, idx: 0 }, &config).unwrap();
        assert_eq!(r.response, rat(7, 2));
        // τ4,1 on Π3 (p=1): interference from τ1,1 and τ1,4 (one job each in
        // its busy period): 2 + (7 + 1 + 1)/0.2 = 47.
        let r = analyze_alone(&set, &states, TaskRef { tx: 3, idx: 0 }, &config).unwrap();
        assert_eq!(r.response, rat(47, 1));
    }

    #[test]
    fn jitter_19_gives_tau14_response_31() {
        // The disputed Table 3 cell: with J1,4 = 19 (the converged jitter),
        // the paper's equations yield R = w + J + φ = 7 + 19 + 5 = 31
        // (the paper prints 39; see EXPERIMENTS.md).
        let (set, mut states, config) = setup();
        states[0][1].jitter = rat(9, 1); // converged J1,2
        states[0][2].jitter = rat(14, 1); // converged J1,3
        states[0][3].jitter = rat(19, 1); // converged J1,4
        let r = analyze_alone(&set, &states, TaskRef { tx: 0, idx: 3 }, &config).unwrap();
        assert_eq!(r.response, rat(31, 1));
    }

    #[test]
    fn exact_equals_approximate_on_paper_example() {
        // With at most one hp task per foreign transaction, W* degenerates
        // to the single scenario and both modes agree.
        let (set, states, _) = setup();
        let approx = AnalysisConfig::default();
        let exact = AnalysisConfig::exact(10_000);
        for r in set.task_refs() {
            let a = analyze_alone(&set, &states, r, &approx).unwrap();
            let e = analyze_alone(&set, &states, r, &exact).unwrap();
            assert_eq!(a.response, e.response, "mismatch at {r}");
        }
    }

    #[test]
    fn exact_never_exceeds_approximate() {
        // Construct a case with several hp tasks in a foreign transaction so
        // that W* genuinely maximizes over scenarios.
        use hsched_platform::{Platform, PlatformSet};
        use hsched_transaction::{Task, Transaction, TransactionSet};
        let mut platforms = PlatformSet::new();
        let p = platforms.add(Platform::linear("cpu", rat(1, 2), rat(1, 1), rat(0, 1)).unwrap());
        let noisy = Transaction::new(
            "noisy",
            rat(20, 1),
            rat(20, 1),
            vec![
                Task::new("n1", rat(1, 1), rat(1, 1), 5, p),
                Task::new("n2", rat(2, 1), rat(1, 1), 5, p),
                Task::new("n3", rat(1, 1), rat(1, 2), 5, p),
            ],
        )
        .unwrap();
        let victim = Transaction::new(
            "victim",
            rat(40, 1),
            rat(40, 1),
            vec![Task::new("v", rat(3, 1), rat(3, 1), 1, p)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![noisy, victim]).unwrap();
        let states = initial_states(&set, ServiceTimeMode::LinearBounds);
        let under = TaskRef { tx: 1, idx: 0 };
        let approx = analyze_alone(&set, &states, under, &AnalysisConfig::default()).unwrap();
        let exact = analyze_alone(&set, &states, under, &AnalysisConfig::exact(1_000_000)).unwrap();
        assert!(
            exact.response <= approx.response,
            "exact {} > approx {}",
            exact.response,
            approx.response
        );
    }

    #[test]
    fn scenario_cap_enforced() {
        let (set, states, _) = setup();
        let tight = AnalysisConfig::exact(0);
        let err = analyze_alone(&set, &states, TaskRef { tx: 0, idx: 0 }, &tight).unwrap_err();
        assert!(matches!(err, AnalysisError::TooManyScenarios { .. }));
    }

    #[test]
    fn overload_detected_as_unbounded() {
        use hsched_platform::{Platform, PlatformSet};
        use hsched_transaction::{Task, Transaction, TransactionSet};
        let mut platforms = PlatformSet::new();
        // Platform rate 0.1 with a task demanding 2 cycles every 10: U = 0.2 > α.
        let p = platforms.add(Platform::linear("tiny", rat(1, 10), rat(0, 1), rat(0, 1)).unwrap());
        let hog = Transaction::new(
            "hog",
            rat(10, 1),
            rat(10, 1),
            vec![Task::new("h", rat(2, 1), rat(2, 1), 2, p)],
        )
        .unwrap();
        let victim = Transaction::new(
            "victim",
            rat(100, 1),
            rat(100, 1),
            vec![Task::new("v", rat(1, 1), rat(1, 1), 1, p)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![hog, victim]).unwrap();
        let states = initial_states(&set, ServiceTimeMode::LinearBounds);
        let r = analyze_alone(
            &set,
            &states,
            TaskRef { tx: 1, idx: 0 },
            &AnalysisConfig::default(),
        )
        .unwrap();
        assert!(!r.bounded, "expected overload detection");
    }

    #[test]
    fn multi_job_busy_period_analyzed() {
        // hi (C=3.5, T=5) + lo (C=2, T=8) on a dedicated CPU: level-lo busy
        // period is 14.5 and contains TWO lo jobs. Job 1: w = 9, R = 9;
        // job 2: w = 14.5, R = 14.5 − 8 = 6.5. The analysis must walk both
        // and report max = 9.
        use hsched_platform::{Platform, PlatformSet};
        use hsched_transaction::{Task, Transaction, TransactionSet};
        let mut platforms = PlatformSet::new();
        let p = platforms.add(Platform::dedicated("cpu"));
        let hi = Transaction::new(
            "hi",
            rat(5, 1),
            rat(5, 1),
            vec![Task::new("h", rat(7, 2), rat(7, 2), 2, p)],
        )
        .unwrap();
        let lo = Transaction::new(
            "lo",
            rat(8, 1),
            rat(30, 1),
            vec![Task::new("l", rat(2, 1), rat(2, 1), 1, p)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![hi, lo]).unwrap();
        let states = initial_states(&set, ServiceTimeMode::LinearBounds);
        let r = analyze_alone(
            &set,
            &states,
            TaskRef { tx: 1, idx: 0 },
            &AnalysisConfig::default(),
        )
        .unwrap();
        assert!(r.bounded);
        assert_eq!(r.response, rat(9, 1));
    }

    #[test]
    fn jitter_induced_pending_jobs_analyzed() {
        // A task whose own jitter exceeds its period: two pending jobs at
        // the critical instant (p0 = −1). With C = 1, T = 5, J = 12 on a
        // dedicated CPU: ⌊(12+ϕ)/5⌋ with ϕ = 5 − (12 mod 5) = 3 → 3 pending
        // jobs, so p0 = −2; the busy period serves them back to back and the
        // oldest job's response is w(−2) − (ϕ − 3T) = 1 − (3 − 15) = 13.
        use hsched_platform::{Platform, PlatformSet};
        use hsched_transaction::{Task, Transaction, TransactionSet};
        let mut platforms = PlatformSet::new();
        let p = platforms.add(Platform::dedicated("cpu"));
        let tx = Transaction::new(
            "bursty",
            rat(5, 1),
            rat(40, 1),
            vec![Task::new("b", rat(1, 1), rat(1, 1), 1, p)],
        )
        .unwrap()
        .with_release_jitter(rat(12, 1));
        let set = TransactionSet::new(platforms, vec![tx]).unwrap();
        let states = initial_states(&set, ServiceTimeMode::LinearBounds);
        assert_eq!(states[0][0].jitter, rat(12, 1));
        let r = analyze_alone(
            &set,
            &states,
            TaskRef { tx: 0, idx: 0 },
            &AnalysisConfig::default(),
        )
        .unwrap();
        assert!(r.bounded);
        assert_eq!(r.response, rat(13, 1));
    }

    #[test]
    fn blocking_term_adds_directly() {
        let (set, states, mut config) = setup();
        // Add B = 2 to τ2,1 (otherwise interference-free): R = 3.5 + 2.
        config.blocking = vec![vec![], vec![rat(2, 1)], vec![], vec![]];
        let r = analyze_alone(&set, &states, TaskRef { tx: 1, idx: 0 }, &config).unwrap();
        assert_eq!(r.response, rat(11, 2));
    }

    #[test]
    fn dedicated_platform_reduces_to_classic_response() {
        // α=1, Δ=0, β=0: two independent single-task transactions, RM-style.
        use hsched_platform::{Platform, PlatformSet};
        use hsched_transaction::{Task, Transaction, TransactionSet};
        let mut platforms = PlatformSet::new();
        let p = platforms.add(Platform::dedicated("cpu"));
        let hi = Transaction::new(
            "hi",
            rat(5, 1),
            rat(5, 1),
            vec![Task::new("h", rat(2, 1), rat(2, 1), 2, p)],
        )
        .unwrap();
        let lo = Transaction::new(
            "lo",
            rat(14, 1),
            rat(14, 1),
            vec![Task::new("l", rat(3, 1), rat(3, 1), 1, p)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![hi, lo]).unwrap();
        let states = initial_states(&set, ServiceTimeMode::LinearBounds);
        let config = AnalysisConfig::default();
        let r_hi = analyze_alone(&set, &states, TaskRef { tx: 0, idx: 0 }, &config).unwrap();
        assert_eq!(r_hi.response, rat(2, 1));
        // lo: w = 3 + ⌈w/5⌉·2 → w = 5 (classic RTA fixpoint; the second job
        // of `hi` arrives exactly at 5 and is outside the busy window).
        let r_lo = analyze_alone(&set, &states, TaskRef { tx: 1, idx: 0 }, &config).unwrap();
        assert_eq!(r_lo.response, rat(5, 1));
    }

    /// Asserts that the memo and the seeded inner iterations are invisible
    /// in the whole report on `set` — the reference memoizes nothing and
    /// starts every busy-period and completion-time iteration from zero —
    /// for both update orders and both service modes, from four starts:
    /// cold; warm after `set` gained its last transaction; and restricted
    /// to the cone of `seed`, with the cone restarting cold and warm.
    fn assert_memo_invisible(set: &TransactionSet, seed: DirtySeed, config: &AnalysisConfig) {
        let (last, rest) = set.transactions().split_last().unwrap();
        let before = TransactionSet::new(set.platforms().clone(), rest.to_vec()).unwrap();
        let cone = HpGraph::of(set).task_cone(&[seed]);
        for update_order in [UpdateOrder::Jacobi, UpdateOrder::GaussSeidel] {
            for service_mode in [ServiceTimeMode::LinearBounds, ServiceTimeMode::ExactCurve] {
                let config = AnalysisConfig {
                    update_order,
                    service_mode,
                    ..config.clone()
                };
                let cold = analyze_unmemoized(set, &config, None).unwrap();
                let mut grown =
                    WarmStart::from_report(&analyze_unmemoized(&before, &config, None).unwrap());
                grown.jitters.push(vec![Time::ZERO; last.len()]);
                let starts = [
                    None,
                    Some(grown),
                    Some(WarmStart::restricted(&cold, cone.clone(), true)),
                    Some(WarmStart::restricted(&cold, cone.clone(), false)),
                ];
                for (k, warm) in starts.iter().enumerate() {
                    assert_eq!(
                        analyze_resumed(set, &config, warm.as_ref()).unwrap(),
                        analyze_unmemoized(set, &config, warm.as_ref()).unwrap(),
                        "{update_order:?}, {service_mode:?}, start {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn memo_matches_reference_on_the_paper_example() {
        let set = paper_example::transactions();
        let seed = DirtySeed::Task(TaskRef { tx: 0, idx: 0 });
        assert_memo_invisible(&set, seed, &AnalysisConfig::default());
        // Invisible in results, visible in telemetry. On Table 3's analysis
        // (four Jacobi sweeps over seven tasks) a table is built on its
        // first read and again after its members' states moved, and is
        // evaluated more often than that; the seeded inner iterations,
        // stopped inside their step, evaluate less than the reference,
        // which builds no table.
        let (seeded, reference) = (
            Arc::new(AnalysisMetrics::new()),
            Arc::new(AnalysisMetrics::new()),
        );
        let reporting_to = |sink: &Arc<AnalysisMetrics>| AnalysisConfig {
            metrics: Some(sink.clone()),
            ..AnalysisConfig::default()
        };
        analyze_resumed(&set, &reporting_to(&seeded), None).unwrap();
        analyze_unmemoized(&set, &reporting_to(&reference), None).unwrap();
        let counts = |m: &AnalysisMetrics| {
            (
                m.interference_tables.get(),
                m.interference_evaluations.get(),
            )
        };
        // Three foreign hp sets are read: Γ2's and Γ3's never move; Γ1's
        // {τ1,1, τ1,4}, read by τ4,1, moves with J1,4 in every sweep.
        let ((tables, evaluations), (reference_tables, reference_evaluations)) =
            (counts(&seeded), counts(&reference));
        assert_eq!((tables, evaluations), (6, 45));
        assert_eq!((reference_tables, reference_evaluations), (0, 138));
        assert!(tables < evaluations && evaluations < reference_evaluations);
    }

    /// Case count of the generated-systems property, env-tunable so CI can
    /// run it extended (`HSCHED_PROPTEST_CASES=300`) without editing it.
    pub(crate) fn stress_cases(tier1: u32) -> u32 {
        std::env::var("HSCHED_PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(tier1)
    }

    /// Platform `kind` of a generated system: linear, periodic server, or
    /// TDMA — the last two invert differently under `ExactCurve`.
    fn generated_platform(k: usize, kind: u8) -> Platform {
        let name = format!("P{k}");
        match kind {
            0 => Platform::linear(name, rat(1, 2), rat(1, 1), rat(0, 1)).unwrap(),
            1 => Platform::server(name, rat(2, 1), rat(5, 1)).unwrap(),
            _ => {
                let tdma = TdmaSupply::new(rat(10, 1), vec![(rat(2, 1), rat(5, 1))]).unwrap();
                Platform::new(name, PlatformKind::Cpu, ServiceModel::Tdma(tdma))
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(stress_cases(24)))]

        /// The memo is invisible on generated systems: chains of up to four
        /// tasks across two or three platforms at three priority levels, so
        /// foreign transactions often hold several hp tasks (and `W*`
        /// really maximizes).
        #[test]
        fn memo_matches_reference_on_generated_systems(
            kinds in proptest::collection::vec(0u8..3, 2..=3),
            raw in proptest::collection::vec(
                (0usize..4, proptest::collection::vec((1i128..=20, 1u32..=3, 0usize..3), 1..=4)),
                2..=4,
            ),
            pick in 0usize..16,
        ) {
            let mut platforms = PlatformSet::new();
            let ids: Vec<_> = kinds
                .iter()
                .enumerate()
                .map(|(k, &kind)| platforms.add(generated_platform(k, kind)))
                .collect();
            let txs = raw
                .iter()
                .enumerate()
                .map(|(i, (period, tasks))| {
                    let period = rat([20, 30, 40, 60][*period], 1);
                    let tasks = tasks
                        .iter()
                        .enumerate()
                        .map(|(j, &(wcet, priority, p))| {
                            let wcet = rat(wcet, 10);
                            Task::new(format!("t{i}_{j}"), wcet, wcet / rat(2, 1), priority, ids[p % ids.len()])
                        })
                        .collect();
                    Transaction::new(format!("tx{i}"), period, period * rat(3, 1), tasks).unwrap()
                })
                .collect();
            let set = TransactionSet::new(platforms, txs).unwrap();
            let seed = DirtySeed::Task(TaskRef { tx: pick % raw.len(), idx: 0 });
            assert_memo_invisible(&set, seed, &AnalysisConfig::default());
        }
    }

    proptest::proptest! {
            #![proptest_config(proptest::ProptestConfig::with_cases(stress_cases(256)))]

            /// Seeded analysis, with its shared step tables and its inner
            /// fixpoints stopped inside their step, equals the reference task
            /// by task, outside any holistic sweep: on generated systems under
            /// heavy load, at arbitrary states with jitters past the period, so
            /// busy periods often span several jobs and often diverge, in both
            /// scenario and both service modes. Also checks the hp sets read
            /// off the graph against Eq. (17).
            #[test]
            fn memo_matches_reference_task_by_task(
                kinds in proptest::collection::vec(0u8..3, 1..=2),
                raw in proptest::collection::vec(
                    (0usize..4, proptest::collection::vec(
                        (1i128..=60, 1u32..=3, 0usize..2, 0i128..60, 0i128..90, 1i128..=3),
                        1..=3,
                    )),
                    2..=4,
                ),
                modes in 0u8..4,
            ) {
                let mut platforms = PlatformSet::new();
                let ids: Vec<_> = kinds
                    .iter()
                    .enumerate()
                    .map(|(k, &kind)| platforms.add(generated_platform(k, kind)))
                    .collect();
                let txs = raw
                    .iter()
                    .enumerate()
                    .map(|(i, (period, tasks))| {
                        let period = rat([10, 15, 20, 30][*period], 1);
                        let tasks = tasks
                            .iter()
                            .enumerate()
                            .map(|(j, &(wcet, priority, p, _, _, _))| {
                                let wcet = rat(wcet, 10);
                                Task::new(format!("t{i}_{j}"), wcet, wcet / rat(2, 1), priority, ids[p % ids.len()])
                            })
                            .collect();
                        Transaction::new(format!("tx{i}"), period, period * rat(3, 1), tasks).unwrap()
                    })
                    .collect();
                let set = TransactionSet::new(platforms, txs).unwrap();
                crate::hpgraph::tests::assert_hp_sets_follow_eq17(&set);
                let states: Vec<Vec<TaskState>> = raw
                    .iter()
                    .map(|(_, tasks)| {
                        tasks
                            .iter()
                            .map(|&(_, _, _, phi, jitter, den)| TaskState {
                                phi: rat(phi, 2),
                                jitter: rat(jitter, den),
                            })
                            .collect()
                    })
                    .collect();
                let mut config = if modes & 1 == 1 {
                    AnalysisConfig::exact(4096)
                } else {
                    AnalysisConfig::default()
                };
                if modes & 2 == 2 {
                    config.service_mode = ServiceTimeMode::ExactCurve;
                }
                let graph = HpGraph::of(&set);
                let grid = Grid::new(&set, &graph, &config, 1);
                let mut slots = TaskSlots::new(&graph, &grid);
                for under in set.task_refs() {
                    proptest::prop_assert_eq!(
                        analyze_task(&set, &states, under, &config, &mut slots),
                        analyze_reference(&set, &grid, &states, under, &config),
                        "{}", under
                    );
                }
            }
    }
}
