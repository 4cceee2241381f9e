//! Worst-case interference of a transaction on a busy period
//! (Eqs. 7–11 and 15 of the paper).

use crate::state::TaskState;
use hsched_numeric::{Cycles, Rational, Time};
use hsched_transaction::{TaskRef, TransactionSet};

/// The set `hpi(τa,b)` of Eq. (17): tasks of transaction `i` with priority
/// ≥ `p_{a,b}` mapped on the *same platform* as τa,b, excluding τa,b itself.
pub(crate) fn hp_tasks(set: &TransactionSet, i: usize, under: TaskRef) -> Vec<usize> {
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

/// Number of jobs of a task with phase `ϕ`, jitter `J` and period `T`
/// contributing to a busy period of length `t` (the bracketed factor of
/// Eq. 8/11): pending jobs `⌊(J + ϕ)/T⌋` plus arrivals `⌈(t − ϕ)/T⌉`.
///
/// The definition [`Scenario`] is checked against; the analysis itself
/// evaluates the two halves at different times.
#[cfg(test)]
pub(crate) fn job_count(jitter: Time, phi_k: Time, period: Time, t: Time) -> i128 {
    let pending = ((jitter + phi_k) / period).floor();
    // For t > 0 the arrivals term is never negative (ϕ ≤ T); clamping makes
    // the t = 0 evaluation equal to its right-limit, which is what the busy
    // period fixpoint iteration needs to get off the ground.
    let arrivals = ((t - phi_k) / period).ceil().max(0);
    pending + arrivals
}

/// One hp task τi,j's term of Eq. (11) with everything that does not
/// depend on the busy-period length evaluated.
#[derive(Debug)]
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
#[derive(Debug)]
pub(crate) struct Scenario {
    period: Time,
    terms: Vec<Term>,
}

impl Scenario {
    pub(crate) fn new(
        set: &TransactionSet,
        states: &[Vec<TaskState>],
        i: usize,
        k: usize,
        hp: &[usize],
    ) -> Scenario {
        let tx = &set.transactions()[i];
        let period = tx.period;
        let starter = &states[i][k];
        let terms = hp
            .iter()
            .map(|&j| {
                let st = &states[i][j];
                let phase = phase(period, starter, st.phi);
                Term {
                    phase,
                    pending: ((st.jitter + phase) / period).floor(),
                    wcet: tx.tasks()[j].wcet,
                }
            })
            .collect();
        Scenario { period, terms }
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

/// The scenarios `W*_i(τa,b, ·)` of Eq. (15) maximizes over: one per
/// candidate starter `k ∈ hpi(τa,b)`.
pub(crate) fn scenarios(
    set: &TransactionSet,
    states: &[Vec<TaskState>],
    i: usize,
    hp: &[usize],
) -> Vec<Scenario> {
    hp.iter()
        .map(|&k| Scenario::new(set, states, i, k, hp))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::tests::initial_states;
    use crate::ServiceTimeMode;
    use hsched_numeric::rat;
    use hsched_transaction::paper_example;

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
        let w = Scenario::new(&set, &states, 1, 0, &hp);
        assert_eq!(w.demand(rat(6, 1)), rat(1, 1));
        assert_eq!(w.demand(rat(16, 1)), rat(2, 1));
    }

    #[test]
    fn w_star_is_pointwise_max() {
        let (set, states) = paper();
        let under = TaskRef { tx: 3, idx: 0 }; // τ4,1 on Π3, p=1
        let hp = hp_tasks(&set, 0, under); // {τ1,1, τ1,4}
        let t = rat(10, 1);
        let w1 = Scenario::new(&set, &states, 0, hp[0], &hp).demand(t);
        let w4 = Scenario::new(&set, &states, 0, hp[1], &hp).demand(t);
        assert_eq!(w_star(&scenarios(&set, &states, 0, &hp), t), w1.max(w4));
        // Empty hp → zero.
        assert_eq!(w_star(&scenarios(&set, &states, 0, &[]), t), Cycles::ZERO);
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
            let hoisted = Scenario::new(&set, &states, 0, k, &hp);
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
            let all = scenarios(&set, &states, 0, &hp);
            let t = rat(ts[0].0, ts[0].1);
            proptest::prop_assert_eq!(
                w_star(&all, t),
                hp.iter().map(|&k| w_direct(&set, &states, 0, k, &hp, t)).max().unwrap_or(Cycles::ZERO)
            );
        }
    }
}
