//! Worst-case interference of a transaction on a busy period
//! (Eqs. 7–11 and 15 of the paper).
//!
//! Eq. (11)'s `W^k_i`, in the reduced form of Palencia & González Harbour
//! (RTSS 1998), is a step function of the busy-window length, and every
//! analysis above iterates it upward. So evaluations return a [`Step`]:
//! the demand, and how far it holds. `W*_i` (Eq. 15) of a foreign
//! transaction is tabulated once per hp set, in the [`StepTables`] of its
//! fixpoint.

use crate::grid::Grid;
use crate::state::TaskState;
use hsched_numeric::{Cycles, Rational, Time};
use std::ops::{Add, Range};

/// A demand in cycles at a busy-window length `t`, and the largest length
/// `until ≥ t` up to which it holds unchanged (`None`: it never steps
/// again). A sum of demands holds until the earliest of their steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Step {
    pub demand: Cycles,
    pub until: Option<Time>,
}

impl Step {
    /// No demand, at any length.
    pub(crate) const ZERO: Step = Step {
        demand: Cycles::ZERO,
        until: None,
    };

    /// `true` when the demand at `t`, a length at or past the one this
    /// step was evaluated at, is this step's.
    pub(crate) fn holds_at(self, t: Time) -> bool {
        self.until.is_none_or(|until| t <= until)
    }
}

impl Add for Step {
    type Output = Step;
    fn add(self, other: Step) -> Step {
        let until = match (self.until, other.until) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Step {
            demand: self.demand + other.demand,
            until,
        }
    }
}

/// Phase `ϕ^k_{i,j}` of Eq. (10): the first activation of τi,j after the
/// busy period starts with τi,k's maximally-delayed release.
///
/// `ϕ^k_{i,j} = Ti − (φik + Jik − φij) mod Ti`, in `(0, Ti]`.
pub(crate) fn phase(
    period: Time,
    starter: &TaskState, // τi,k
    other_phi: Time,     // φi,j
) -> Time {
    period - (starter.latest_release() - other_phi).rem_euclid(period)
}

/// One hp task τi,j's term of Eq. (11) with everything that does not
/// depend on the busy-period length evaluated.
#[derive(Debug, Clone, Copy)]
struct Term {
    /// `ϕ^k_{i,j}` (Eq. 10).
    phase: Time,
    /// Jobs pending at the critical instant, `⌊(Ji,j + ϕ^k_{i,j})/Ti⌋`.
    pending: i128,
    /// `Ci,j`.
    wcet: Cycles,
}

/// `W^k_i(τa,b, ·)` of Eq. (11) as a function of the busy-period length:
/// the worst-case demand of the hp tasks of Γi when the busy period starts
/// with τi,k's critical release. The states are fixed while one task is
/// analyzed, so the phases and pending-job counts are computed here, once,
/// and each evaluated `t` pays only for the arrivals `⌈(t − ϕ)/Ti⌉`.
///
/// The analysis evaluates it for the own transaction's scenarios, one
/// buffer re-targeted at each starter, and, in exact mode, for every
/// transaction's; `w_star` over `scenarios` is the reference a step table
/// is checked against.
#[derive(Debug, Default)]
pub(crate) struct Scenario {
    period: Time,
    terms: Vec<Term>,
}

impl Scenario {
    /// Makes this `W^k_i`, in the same buffer whatever it held before.
    pub(crate) fn retarget(
        &mut self,
        grid: &Grid,
        states: &[Vec<TaskState>],
        i: usize,
        k: usize,
        hp: &[usize],
    ) {
        let period = grid.period(i);
        self.period = period;
        self.terms.clear();
        self.terms.extend(hp.iter().map(|&j| {
            let st = &states[i][j];
            let phase = phase(period, &states[i][k], st.phi);
            Term {
                phase,
                pending: (st.jitter + phase).div_floor(period),
                wcet: grid.wcet(grid.flat(i, j)),
            }
        }));
    }

    /// The demand at `t`, which holds until the next arrival `ϕ + a·Ti` of
    /// any term.
    pub(crate) fn step(&self, t: Time) -> Step {
        let mut step = Step::ZERO;
        for term in &self.terms {
            let arrivals = (t - term.phase).div_ceil(self.period).max(0);
            step = step
                + Step {
                    demand: Rational::from_integer(term.pending + arrivals) * term.wcet,
                    until: Some(term.phase + self.period * Rational::from_integer(arrivals)),
                };
        }
        step
    }
}

/// Where one step table lies in the pools of [`StepTables`]: the start of
/// the hp members' states it was built from (it is valid exactly while
/// they hold), `B` and the start of `V`.
#[derive(Debug, Clone)]
struct TableSlot {
    stamp: usize,
    period: Time,
    /// `ΣC` over the hp set: what each period adds.
    wcet_sum: Cycles,
    phases: Range<usize>,
    values: usize,
}

/// The step tables of one holistic fixpoint: `W*_i(τa,b, ·)` of Eq. (15)
/// for each foreign hp set its analyses read, tabulated as the step
/// function it is, one slot per anchor ([`crate::hpgraph::ForeignHp`]),
/// every table in three pools.
///
/// Split `t > 0` as `t = q·Ti + r` with `q = ⌈t/Ti⌉ − 1` and
/// `r ∈ (0, Ti]`: every term then counts `q` arrivals, plus one more when
/// its phase lies below `r` (phases lie in `(0, Ti]`). So with `B` the
/// sorted distinct phases of every scenario and term, and `m` the number
/// of them below `r`,
///
/// `W*(t) = q·ΣC + V[m]`, `V[m] = max_k Σ_j Cj·(pending_kj + [ϕ^k_j ≤ B[m−1]])`,
///
/// and `W*(0) = V[0]`. The value holds until `t` reaches the next phase
/// of its period, `q·Ti + B[m]`, or, past the last one, the first phase of
/// the next period, `(q+1)·Ti + B[0]`: `V[|B|] = V[0] + ΣC`.
///
/// The split is not `⌊t/Ti⌋·Ti + r`: with `t` a multiple of `Ti`, that
/// would put an arrival at phase `Ti` into the next period.
#[derive(Debug, Default)]
pub(crate) struct StepTables {
    /// `slots[anchor]`: the table of the set anchored there, once built.
    slots: Vec<Option<TableSlot>>,
    stamps: Vec<TaskState>,
    phases: Vec<Time>,
    values: Vec<Cycles>,
    /// Scratch of a build: the `|hp|²` terms, scenario after scenario,
    /// each computed in `scenario`, and their distinct phases.
    terms: Vec<Term>,
    scenario: Scenario,
    distinct: Vec<Time>,
}

impl StepTables {
    /// No table yet, for anchors `0..anchors`.
    pub(crate) fn new(anchors: usize) -> StepTables {
        StepTables {
            slots: vec![None; anchors],
            ..StepTables::default()
        }
    }

    /// Makes the table at `anchor` that of transaction `i`'s hp set `hp`
    /// (non-empty) at `states`, unless it already is; `true` when it was
    /// built.
    pub(crate) fn refresh(
        &mut self,
        grid: &Grid,
        states: &[Vec<TaskState>],
        i: usize,
        hp: &[usize],
        anchor: usize,
    ) -> bool {
        let now = hp.iter().map(|&j| states[i][j]);
        let stamp = match &self.slots[anchor] {
            Some(slot) => slot.stamp,
            None => {
                self.stamps.extend(now.clone());
                self.stamps.len() - hp.len()
            }
        };
        let mut stale = self.slots[anchor].is_none();
        for (old, new) in self.stamps[stamp..].iter_mut().zip(now) {
            stale |= *old != new;
            *old = new;
        }
        if !stale {
            return false;
        }
        // Every scenario's terms, each sorted by phase, and `B`.
        self.terms.clear();
        for &k in hp {
            self.scenario.retarget(grid, states, i, k, hp);
            self.scenario.terms.sort_unstable_by_key(|term| term.phase);
            self.terms.extend_from_slice(&self.scenario.terms);
        }
        self.distinct.clear();
        self.distinct
            .extend(self.terms.iter().map(|term| term.phase));
        self.distinct.sort_unstable();
        self.distinct.dedup();
        // A build, and every rebuild, takes fresh ranges at the ends of the
        // pools; they live as long as the fixpoint.
        let count = self.distinct.len();
        let (phases, values) = (self.phases.len(), self.values.len());
        self.phases.extend_from_slice(&self.distinct);
        self.values.resize(values + count + 1, Cycles::ZERO);
        let table = &mut self.values[values..];
        for scenario in self.terms.chunks(hp.len()) {
            let mut value: Cycles = scenario
                .iter()
                .map(|term| Rational::from_integer(term.pending) * term.wcet)
                .sum();
            let mut next = scenario.iter().peekable();
            table[0] = table[0].max(value);
            for (m, &b) in self.distinct.iter().enumerate() {
                while let Some(term) = next.next_if(|term| term.phase <= b) {
                    value += term.wcet;
                }
                table[m + 1] = table[m + 1].max(value);
            }
        }
        self.slots[anchor] = Some(TableSlot {
            stamp,
            period: grid.period(i),
            wcet_sum: hp.iter().map(|&j| grid.wcet(grid.flat(i, j))).sum(),
            phases: phases..phases + count,
            values,
        });
        true
    }

    /// `W*(t)` of the table at `anchor`, and how far it holds: one
    /// division and a binary search.
    pub(crate) fn step(&self, anchor: usize, t: Time) -> Step {
        let slot = self.slots[anchor].as_ref().expect("the table was built");
        let phases = &self.phases[slot.phases.clone()];
        // q = ⌈t/T⌉ − 1, r = t − qT ∈ (0, T]; q = 0, r = 0 at t = 0.
        let q = (t.div_ceil(slot.period) - 1).max(0);
        let start = slot.period * Rational::from_integer(q);
        let m = phases.partition_point(|&b| b < t - start);
        let until = match phases.get(m) {
            Some(&b) => start + b,
            None => start + slot.period + phases[0],
        };
        Step {
            demand: Rational::from_integer(q) * slot.wcet_sum + self.values[slot.values + m],
            until: Some(until),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::state::tests::initial_states;
    use crate::ServiceTimeMode;
    use hsched_numeric::rat;
    use hsched_transaction::{paper_example, TaskRef, TransactionSet};

    /// The set `hpi(τa,b)` of Eq. (17): tasks of transaction `i` with priority
    /// ≥ `p_{a,b}` mapped on the *same platform* as τa,b, excluding τa,b itself.
    ///
    /// The definition the analysis's hp sets, read off
    /// [`crate::HpGraph`], are checked against.
    pub(crate) fn hp_tasks(
        set: &TransactionSet,
        i: usize,
        under: hsched_transaction::TaskRef,
    ) -> Vec<usize> {
        let target = set.task(under);
        set.transactions()[i]
            .tasks()
            .iter()
            .enumerate()
            .filter(|(j, t)| {
                !(i == under.tx && *j == under.idx)
                    && t.platform == target.platform
                    && t.priority >= target.priority
            })
            .map(|(j, _)| j)
            .collect()
    }

    /// Number of jobs of a task with phase `ϕ`, jitter `J` and period `T`
    /// contributing to a busy period of length `t` (the bracketed factor of
    /// Eq. 8/11): pending jobs `⌊(J + ϕ)/T⌋` plus arrivals `⌈(t − ϕ)/T⌉`.
    ///
    /// The definition [`Scenario`] is checked against; the analysis itself
    /// evaluates the two halves at different times.
    pub(crate) fn job_count(jitter: Time, phi_k: Time, period: Time, t: Time) -> i128 {
        let pending = ((jitter + phi_k) / period).floor();
        // For t > 0 the arrivals term is never negative (ϕ ≤ T); clamping makes
        // the t = 0 evaluation equal to its right-limit, which is what the busy
        // period fixpoint iteration needs to get off the ground.
        let arrivals = ((t - phi_k) / period).ceil().max(0);
        pending + arrivals
    }

    /// The scenarios `W*_i(τa,b, ·)` of Eq. (15) maximizes over: one per
    /// candidate starter `k ∈ hpi(τa,b)`.
    pub(crate) fn scenarios(
        grid: &Grid,
        states: &[Vec<TaskState>],
        i: usize,
        hp: &[usize],
    ) -> Vec<Scenario> {
        hp.iter()
            .map(|&k| Scenario::new(grid, states, i, k, hp))
            .collect()
    }

    /// `W*_i(τa,b, t)` of Eq. (15): the pointwise maximum over `scenarios`, in
    /// cycles. Zero when there are none.
    pub(crate) fn w_star(scenarios: &[Scenario], t: Time) -> Cycles {
        scenarios
            .iter()
            .map(|s| s.demand(t))
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    impl Scenario {
        pub(crate) fn new(
            grid: &Grid,
            states: &[Vec<TaskState>],
            i: usize,
            k: usize,
            hp: &[usize],
        ) -> Scenario {
            let mut scenario = Scenario::default();
            scenario.retarget(grid, states, i, k, hp);
            scenario
        }

        /// The demand in **cycles** (not divided by α — the caller inverts the
        /// platform supply on the total demand) in a busy period of length `t`.
        pub(crate) fn demand(&self, t: Time) -> Cycles {
            let mut total = Cycles::ZERO;
            for term in &self.terms {
                // For t > 0 the arrivals term is never negative (ϕ ≤ T);
                // clamping makes the t = 0 evaluation equal to its right-limit,
                // which is what the busy period fixpoint iteration needs to get
                // off the ground.
                let arrivals = ((t - term.phase) / self.period).ceil().max(0);
                let n = term.pending + arrivals;
                if n > 0 {
                    total += Rational::from_integer(n) * term.wcet;
                }
            }
            total
        }
    }

    impl StepTables {
        /// `B` of the table at `anchor`.
        fn phases(&self, anchor: usize) -> &[Time] {
            let slot = self.slots[anchor].as_ref().expect("the table was built");
            &self.phases[slot.phases.clone()]
        }
    }

    fn paper() -> (TransactionSet, Vec<Vec<TaskState>>) {
        let set = paper_example::transactions();
        let states = initial_states(&set, ServiceTimeMode::LinearBounds);
        (set, states)
    }

    #[test]
    fn hp_sets_follow_eq17() {
        let (set, _) = paper();
        // τ1,1 (Π3, p=2): hp in Γ1 = {τ1,4} (Π3, p=3); τ4,1 has p=1 < 2.
        let under = TaskRef { tx: 0, idx: 0 };
        assert_eq!(hp_tasks(&set, 0, under), vec![3]);
        assert_eq!(hp_tasks(&set, 3, under), Vec::<usize>::new());
        // τ1,4 (Π3, p=3): nothing qualifies anywhere.
        let under = TaskRef { tx: 0, idx: 3 };
        assert_eq!(hp_tasks(&set, 0, under), Vec::<usize>::new());
        assert_eq!(hp_tasks(&set, 3, under), Vec::<usize>::new());
        // τ1,2 (Π1, p=1): hp in Γ2 = {τ2,1} (Π1, p=3).
        let under = TaskRef { tx: 0, idx: 1 };
        assert_eq!(hp_tasks(&set, 1, under), vec![0]);
        assert_eq!(hp_tasks(&set, 2, under), Vec::<usize>::new()); // Π2

        // τ4,1 (Π3, p=1): hp in Γ1 = {τ1,1, τ1,4}.
        let under = TaskRef { tx: 3, idx: 0 };
        assert_eq!(hp_tasks(&set, 0, under), vec![0, 3]);
    }

    #[test]
    fn phase_convention_matches_paper() {
        // Self-started scenario with zero jitter: ϕ = T (the job released at
        // the critical instant is counted by the pending-floor term).
        let s = TaskState {
            phi: rat(0, 1),
            jitter: rat(0, 1),
        };
        assert_eq!(phase(rat(50, 1), &s, rat(0, 1)), rat(50, 1));
        // τ1,4 relative to τ1,1 starting: φ1,4 = 5 → ϕ = 50 − (0−5) mod 50 = 5.
        assert_eq!(phase(rat(50, 1), &s, rat(5, 1)), rat(5, 1));
        // With jitter 19 on the starter (τ1,4 at iteration 3): ϕ for itself
        // = 50 − 19 = 31.
        let s = TaskState {
            phi: rat(5, 1),
            jitter: rat(19, 1),
        };
        assert_eq!(phase(rat(50, 1), &s, rat(5, 1)), rat(31, 1));
    }

    #[test]
    fn phase_always_in_half_open_interval() {
        let t = rat(50, 1);
        for phi_k in 0..50 {
            for j in 0..30 {
                for phi_j in 0..50 {
                    let s = TaskState {
                        phi: rat(phi_k, 1),
                        jitter: rat(j, 1),
                    };
                    let p = phase(t, &s, rat(phi_j, 1));
                    assert!(p > rat(0, 1) && p <= t, "phase {p} out of (0, {t}]");
                }
            }
        }
    }

    #[test]
    fn job_count_basics() {
        // ϕ = T, J = 0: exactly the critical-instant job for t ∈ (0, T].
        assert_eq!(job_count(rat(0, 1), rat(50, 1), rat(50, 1), rat(1, 1)), 1);
        assert_eq!(job_count(rat(0, 1), rat(50, 1), rat(50, 1), rat(50, 1)), 1);
        // Just past T: second job.
        assert_eq!(job_count(rat(0, 1), rat(50, 1), rat(50, 1), rat(51, 1)), 2);
        // ϕ = 5: no job until t > 5... the ceil counts arrivals at 5 within
        // busy period length ≥ 5^+ — at t = 5 exactly, ⌈0⌉ = 0; at 5.5, 1.
        assert_eq!(job_count(rat(0, 1), rat(5, 1), rat(50, 1), rat(5, 1)), 0);
        assert_eq!(job_count(rat(0, 1), rat(5, 1), rat(50, 1), rat(11, 2)), 1);
        // Jitter adds pending jobs: J = 100, ϕ = 50, T = 50 → nominal
        // releases at 0, −50, −100 can all be delayed to the critical
        // instant: ⌊(J+ϕ)/T⌋ = 3 pending.
        assert_eq!(job_count(rat(100, 1), rat(50, 1), rat(50, 1), rat(1, 1)), 3);
        // At t = 0 the count equals its right-limit (the pending job is
        // visible to the fixpoint seed).
        assert_eq!(job_count(rat(0, 1), rat(50, 1), rat(50, 1), rat(0, 1)), 1);
    }

    #[test]
    fn w_scenario_matches_hand_computation() {
        let (set, states) = paper();
        // Interference of Γ2 (τ2,1: C=1, T=15, J=0, φ=0) on τ1,2, scenario
        // started by τ2,1 itself: ϕ = 15; demand over t:
        //   t ∈ (0, 15]: 1 cycle; t ∈ (15, 30]: 2 cycles.
        let under = TaskRef { tx: 0, idx: 1 };
        let hp = hp_tasks(&set, 1, under);
        let w = Scenario::new(
            &Grid::unscaled(&set, &Default::default()),
            &states,
            1,
            0,
            &hp,
        );
        assert_eq!(w.demand(rat(6, 1)), rat(1, 1));
        assert_eq!(w.demand(rat(16, 1)), rat(2, 1));
    }

    #[test]
    fn w_star_is_pointwise_max() {
        let (set, states) = paper();
        let under = TaskRef { tx: 3, idx: 0 }; // τ4,1 on Π3, p=1
        let hp = hp_tasks(&set, 0, under); // {τ1,1, τ1,4}
        let t = rat(10, 1);
        let grid = Grid::unscaled(&set, &Default::default());
        let w1 = Scenario::new(&grid, &states, 0, hp[0], &hp).demand(t);
        let w4 = Scenario::new(&grid, &states, 0, hp[1], &hp).demand(t);
        assert_eq!(w_star(&scenarios(&grid, &states, 0, &hp), t), w1.max(w4));
        // Empty hp → zero.
        assert_eq!(w_star(&scenarios(&grid, &states, 0, &[]), t), Cycles::ZERO);
    }

    /// Eq. (11) written directly from the spec-level definitions, all of it
    /// re-evaluated at every `t` — what [`Scenario`] must equal.
    fn w_direct(
        set: &TransactionSet,
        states: &[Vec<TaskState>],
        i: usize,
        k: usize,
        hp: &[usize],
        t: Time,
    ) -> Cycles {
        let tx = &set.transactions()[i];
        hp.iter()
            .map(|&j| {
                let st = &states[i][j];
                let phi_k = phase(tx.period, &states[i][k], st.phi);
                let n = job_count(st.jitter, phi_k, tx.period, t);
                Rational::from_integer(n) * tx.tasks()[j].wcet
            })
            .sum()
    }

    proptest::proptest! {
        /// Hoisting the `t`-independent half of Eq. (11) out of the busy
        /// period fixpoints changes no value: over random offsets, jitters
        /// (fractional, and past the period), starters and window lengths —
        /// `t = 0` and `t = ϕ` exactly among them.
        #[test]
        fn hoisted_eq11_equals_direct_evaluation(
            period in 1i128..40,
            raw in proptest::collection::vec((0i128..120, 1i128..5, 0i128..200, 1i128..4, 1i128..9), 1..6),
            pick in 0usize..64,
            ts in proptest::collection::vec((0i128..400, 1i128..7), 1..8),
        ) {
            use hsched_platform::{Platform, PlatformSet};
            use hsched_transaction::{Task, Transaction};
            let mut platforms = PlatformSet::new();
            let cpu = platforms.add(Platform::dedicated("cpu"));
            let period = rat(period, 1);
            let tasks = raw
                .iter()
                .enumerate()
                .map(|(j, &(_, _, _, _, c))| Task::new(format!("t{j}"), rat(c, 2), rat(c, 2), 1, cpu))
                .collect();
            let tx = Transaction::new("tx", period, period * rat(1000, 1), tasks).unwrap();
            let set = TransactionSet::new(platforms, vec![tx]).unwrap();
            let states = vec![raw
                .iter()
                .map(|&(phi, phi_den, jitter, jitter_den, _)| TaskState {
                    phi: rat(phi, phi_den),
                    jitter: rat(jitter, jitter_den),
                })
                .collect::<Vec<_>>()];
            // Every task but the last is an hp task; any task may start.
            let hp: Vec<usize> = (0..raw.len() - 1).collect();
            let k = pick % raw.len();
            let hoisted = Scenario::new(&Grid::unscaled(&set, &Default::default()), &states, 0, k, &hp);
            let mut lengths: Vec<Time> = ts.iter().map(|&(n, d)| rat(n, d)).collect();
            lengths.push(Time::ZERO);
            lengths.extend(hp.iter().map(|&j| phase(period, &states[0][k], states[0][j].phi)));
            for t in lengths {
                proptest::prop_assert_eq!(
                    hoisted.demand(t),
                    w_direct(&set, &states, 0, k, &hp, t),
                    "k = {}, t = {}", k, t
                );
            }
            let all = scenarios(&Grid::unscaled(&set, &Default::default()), &states, 0, &hp);
            let t = rat(ts[0].0, ts[0].1);
            proptest::prop_assert_eq!(
                w_star(&all, t),
                hp.iter().map(|&k| w_direct(&set, &states, 0, k, &hp, t)).max().unwrap_or(Cycles::ZERO)
            );
        }
    }

    /// Checks a step against the reference: `w_star` at `t`, and the same
    /// value over `(t, until]` (past `t + 4T` for a step claiming to hold
    /// for ever).
    fn assert_step(step: Step, reference: &dyn Fn(Time) -> Cycles, t: Time, period: Time) {
        assert_eq!(step.demand, reference(t), "value at t = {t}");
        let end = step.until.unwrap_or(t + period * rat(4, 1));
        assert!(end >= t, "until {end} before t = {t}");
        for u in [end, (t + end) / rat(2, 1), t + (end - t) / rat(7, 1)] {
            assert_eq!(
                reference(u),
                step.demand,
                "t = {t} holds to {end}, not at {u}"
            );
        }
    }

    #[test]
    fn step_table_splits_at_the_period_not_its_floor() {
        // T = 30, hp {τ0 (φ 0, C 1), τ1 (φ 10, C 1/2)}, no jitter: the
        // phases are {10, 20, 30}, τ0's own release lying at ϕ = T. At
        // t = 60, ⌈(60 − 30)/30⌉ = 1 arrival of τ0 and 2 of τ1 join the
        // pending job of the starter, in either scenario: 2·1 + 2·½ = 3.
        // Split as ⌊60/30⌋·30 + 0 the arrival at 60 would land in the
        // third period and count 4, the value just past 60.
        use hsched_platform::{Platform, PlatformSet};
        use hsched_transaction::{Task, Transaction};
        let mut platforms = PlatformSet::new();
        let cpu = platforms.add(Platform::dedicated("cpu"));
        let tasks = vec![
            Task::new("t0", rat(1, 1), rat(1, 1), 1, cpu),
            Task::new("t1", rat(1, 2), rat(1, 2), 1, cpu),
        ];
        let tx = Transaction::new("tx", rat(30, 1), rat(30, 1), tasks).unwrap();
        let set = TransactionSet::new(platforms, vec![tx]).unwrap();
        let zero = rat(0, 1);
        let states = vec![vec![
            TaskState {
                phi: zero,
                jitter: zero,
            },
            TaskState {
                phi: rat(10, 1),
                jitter: zero,
            },
        ]];
        let mut tables = StepTables::new(1);
        tables.refresh(
            &Grid::unscaled(&set, &Default::default()),
            &states,
            0,
            &[0, 1],
            0,
        );
        assert_eq!(
            tables.step(0, rat(60, 1)),
            Step {
                demand: rat(3, 1),
                until: Some(rat(60, 1)),
            }
        );
        assert_eq!(tables.step(0, rat(601, 10)).demand, rat(4, 1));
        let all = scenarios(
            &Grid::unscaled(&set, &Default::default()),
            &states,
            0,
            &[0, 1],
        );
        assert_eq!(w_star(&all, rat(60, 1)), rat(3, 1));
        assert_eq!(w_star(&all, rat(601, 10)), rat(4, 1));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(
            crate::rta::tests::stress_cases(64)
        ))]

        /// A step table is `W*` (Eq. 15) evaluated from its scenarios, at
        /// `t = 0`, at multiples of the period, a phase either side of
        /// them (phases equal to the period among them: offsets and
        /// jitters are drawn from few values, so they collide), and at
        /// fractional lengths, over fractional jitters reaching past the
        /// period; and each value, the table's and every scenario's, holds
        /// up to its `until`. Two tables share the pools, and are rebuilt
        /// after their members' jitters moved, and again after they moved
        /// back: a rebuild happens exactly when the states moved, and reads
        /// its fresh ranges.
        #[test]
        fn step_table_equals_w_star(
            period in 1i128..40,
            raw in proptest::collection::vec((0i128..8, 1i128..3, 0i128..12, 1i128..3, 1i128..9), 1..6),
            pick in 0usize..64,
            shift in proptest::collection::vec(0i128..4, 6),
            ts in proptest::collection::vec((0i128..400, 1i128..7), 1..6),
        ) {
            use hsched_platform::{Platform, PlatformSet};
            use hsched_transaction::{Task, Transaction};
            let mut platforms = PlatformSet::new();
            let cpu = platforms.add(Platform::dedicated("cpu"));
            let period = rat(period, 1);
            let tasks = raw
                .iter()
                .enumerate()
                .map(|(j, &(_, _, _, _, c))| Task::new(format!("t{j}"), rat(c, 2), rat(c, 2), 1, cpu))
                .collect();
            let tx = Transaction::new("tx", period, period * rat(1000, 1), tasks).unwrap();
            let set = TransactionSet::new(platforms, vec![tx]).unwrap();
            // Offsets and jitters in steps of a fifth of the period.
            let fifth = period / rat(5, 1);
            let states = vec![raw
                .iter()
                .map(|&(phi, phi_den, jitter, jitter_den, _)| TaskState {
                    phi: fifth * rat(phi, phi_den),
                    jitter: fifth * rat(jitter, jitter_den),
                })
                .collect::<Vec<_>>()];
            let mut moved = states.clone();
            for (state, &d) in moved[0].iter_mut().zip(&shift) {
                state.jitter += fifth * rat(d, 1);
            }
            // A non-empty hp set, the tasks `pick`'s bits select, or all,
            // anchored at 0; and the whole transaction, anchored at 1.
            let mut hp: Vec<usize> = (0..raw.len()).filter(|j| pick >> j & 1 == 1).collect();
            if hp.is_empty() {
                hp = (0..raw.len()).collect();
            }
            let every: Vec<usize> = (0..raw.len()).collect();
            let grid = Grid::unscaled(&set, &Default::default());
            let mut tables = StepTables::new(2);
            let mut last: [Option<&Vec<Vec<TaskState>>>; 2] = [None, None];
            for states in [&states, &moved, &states] {
                for (anchor, hp) in [(0, &hp), (1, &every)] {
                    let stale = last[anchor]
                        .is_none_or(|was| hp.iter().any(|&j| was[0][j] != states[0][j]));
                    proptest::prop_assert_eq!(tables.refresh(&grid, states, 0, hp, anchor), stale);
                    proptest::prop_assert!(!tables.refresh(&grid, states, 0, hp, anchor));
                    last[anchor] = Some(states);
                }
                for (anchor, hp) in [(0, &hp), (1, &every)] {
                    let all = scenarios(&grid, states, 0, hp);
                    let reference = |t: Time| w_star(&all, t);
                    let mut lengths = vec![Time::ZERO];
                    for k in 0..4 {
                        let kt = period * rat(k, 1);
                        lengths.push(kt);
                        for &b in tables.phases(anchor) {
                            lengths.push(kt + b);
                            if kt >= b {
                                lengths.push(kt - b);
                            }
                        }
                    }
                    lengths.extend(ts.iter().map(|&(n, d)| rat(n, d)));
                    for t in lengths {
                        assert_step(tables.step(anchor, t), &reference, t, period);
                        for scenario in &all {
                            assert_step(scenario.step(t), &|u| scenario.demand(u), t, period);
                        }
                    }
                }
            }
        }
    }
}
