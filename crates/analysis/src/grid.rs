//! The integer grid of one holistic fixpoint: its times and cycles scaled
//! by one factor `k`, so that the exact arithmetic of the iteration runs on
//! integers.
//!
//! Under [`ServiceTimeMode::LinearBounds`] the fixpoint commutes with
//! scaling time and cycles together. It forms sums, integer multiples,
//! the job counts `⌊x/T⌋` and `⌈x/T⌉`, comparisons, `Δ + c/α` and
//! `max(0, c/α − β)`, and scales each of them by `k` when its inputs are
//! scaled by `k`, except the counts and comparisons, which it leaves as
//! they are. So the fixpoint of the scaled inputs, divided by `k`, is the
//! fixpoint of the inputs: every response, jitter, offset, trace entry
//! and verdict, and every bail-out and iteration count with them.
//!
//! With `k` the lcm of the denominators of `T`, `D` and the release
//! jitter of every transaction, of `C/num(α)` and `Cbest/num(α)` of every
//! task on its platform, of `Δ` and `β` of every platform the tasks use,
//! of the blocking terms and of the warm start, every input is an integer
//! on the grid, and so is every value the fixpoint forms from them: a
//! demand is a sum of integer multiples of `C`s that `num(α)` divides, so
//! its `c/α` is an integer too. [`Rational`] runs integers without a gcd.
//!
//! The staircases of [`ServiceTimeMode::ExactCurve`] are not rescaled, so
//! that offline mode runs at `k = 1`, on the same code. Under
//! `LinearBounds` the grid is the analysis's overflow contract: a system
//! [`scale`] cannot show to stay inside `i128` once scaled is refused with
//! [`AnalysisError::Numeric`] before the fixpoint starts.

use crate::{AnalysisConfig, AnalysisError, HpGraph, ServiceTimeMode, WarmStart};
use hsched_numeric::{Cycles, Rational, Time};
use hsched_platform::PlatformId;
use hsched_supply::{BoundedDelay, SupplyCurve};
use hsched_transaction::TransactionSet;

/// The numbers of one transaction on the grid.
#[derive(Debug, Clone, Copy)]
struct Stream {
    period: Time,
    deadline: Time,
    release_jitter: Time,
    /// Flat index of its first task.
    first: usize,
}

/// The numbers of one task on the grid.
#[derive(Debug, Clone, Copy)]
struct Work {
    wcet: Cycles,
    bcet: Cycles,
    blocking: Time,
    platform: PlatformId,
    /// Its platform's run in the [`HpGraph`], which indexes the models.
    run: usize,
}

/// What one holistic fixpoint reads of its set, on its grid: `T`, `D` and
/// the release jitter per transaction, `C`, `Cbest` and `B` per task, and
/// the linear model of each platform its tasks use. Built in O(tasks),
/// whatever the size of the platform table.
#[derive(Debug)]
pub(crate) struct Grid {
    scale: i128,
    streams: Vec<Stream>,
    work: Vec<Work>,
    /// `(α, kΔ, kβ)` per run; empty under `ExactCurve`.
    models: Vec<BoundedDelay>,
}

impl Grid {
    /// The grid of `set` at `scale`, which the denominators of every input
    /// must divide.
    pub(crate) fn new(
        set: &TransactionSet,
        graph: &HpGraph,
        config: &AnalysisConfig,
        scale: i128,
    ) -> Grid {
        let on = |x: Rational| on_grid(x, scale);
        let mut streams = Vec::with_capacity(set.transactions().len());
        let mut work = Vec::with_capacity(graph.len());
        for (i, tx) in set.transactions().iter().enumerate() {
            streams.push(Stream {
                period: on(tx.period),
                deadline: on(tx.deadline),
                release_jitter: on(tx.release_jitter),
                first: work.len(),
            });
            for (j, task) in tx.tasks().iter().enumerate() {
                work.push(Work {
                    wcet: on(task.wcet),
                    bcet: on(task.bcet),
                    blocking: on(config.blocking_of(i, j)),
                    platform: task.platform,
                    run: graph.run_of_task(work.len()),
                });
            }
        }
        let models = match config.service_mode {
            ServiceTimeMode::LinearBounds => graph
                .run_platforms()
                .map(|id| {
                    let model = set.platforms()[id].linear_model();
                    BoundedDelay::new(model.alpha(), on(model.delay()), on(model.burstiness()))
                        .expect("a scaled model keeps its signs")
                })
                .collect(),
            ServiceTimeMode::ExactCurve => Vec::new(),
        };
        Grid {
            scale,
            streams,
            work,
            models,
        }
    }

    /// `x` on the grid.
    pub(crate) fn on(&self, x: Rational) -> Rational {
        on_grid(x, self.scale)
    }

    /// `x` off the grid.
    pub(crate) fn off(&self, x: Rational) -> Rational {
        match self.scale {
            1 => x,
            k if x.is_integer() => Rational::new(x.numer(), k),
            k => x / Rational::from_integer(k),
        }
    }

    /// `T` of transaction `i`.
    pub(crate) fn period(&self, i: usize) -> Time {
        self.streams[i].period
    }

    /// `D` of transaction `i`.
    pub(crate) fn deadline(&self, i: usize) -> Time {
        self.streams[i].deadline
    }

    /// Flat index of task `j` of transaction `i`.
    pub(crate) fn flat(&self, i: usize, j: usize) -> usize {
        self.streams[i].first + j
    }

    /// `C` of task `flat`.
    pub(crate) fn wcet(&self, flat: usize) -> Cycles {
        self.work[flat].wcet
    }

    /// `B` of task `flat`.
    pub(crate) fn blocking(&self, flat: usize) -> Time {
        self.work[flat].blocking
    }

    /// Worst-case time for task `flat`'s platform to serve `demand` from
    /// the start of a busy interval (the pseudo-inverse of `Zmin`).
    pub(crate) fn service(
        &self,
        set: &TransactionSet,
        flat: usize,
        demand: Cycles,
        mode: ServiceTimeMode,
    ) -> Time {
        let work = &self.work[flat];
        match mode {
            ServiceTimeMode::LinearBounds => self.models[work.run].worst_case_service(demand),
            ServiceTimeMode::ExactCurve => {
                set.platforms()[work.platform].time_to_supply_min(demand)
            }
        }
    }

    /// Every task's best-case offset and best-case response on the grid,
    /// as [`crate::best_case_offsets`] computes them off it.
    pub(crate) fn best_case_offsets(
        &self,
        set: &TransactionSet,
        mode: ServiceTimeMode,
    ) -> (Vec<Vec<Time>>, Vec<Vec<Time>>) {
        crate::state::chain_offsets(set, |i, j| {
            let work = &self.work[self.flat(i, j)];
            match mode {
                ServiceTimeMode::LinearBounds => self.models[work.run].best_case_service(work.bcet),
                ServiceTimeMode::ExactCurve => {
                    set.platforms()[work.platform].time_to_supply_max(work.bcet)
                }
            }
        })
    }

    /// The release jitter of transaction `i`.
    pub(crate) fn release_jitter(&self, i: usize) -> Time {
        self.streams[i].release_jitter
    }
}

/// `x·scale`, whose denominator divides `scale`.
fn on_grid(x: Rational, scale: i128) -> Rational {
    if scale == 1 {
        return x;
    }
    debug_assert_eq!(scale % x.denom(), 0, "{x} is off the grid of {scale}");
    let n = x.numer().checked_mul(scale / x.denom());
    Rational::from_integer(n.expect("the scale keeps the grid inside i128"))
}

/// A bound on the magnitude of scaled values that leaves room for the sum
/// of any two of them, and for the rounding of the `f64` estimate below:
/// 2¹²³ = 2¹²⁶ / 8.
const GRID_LIMIT: f64 = (1u128 << 123) as f64;

/// The scale `k` of the grid of `set`'s fixpoint under `config`, resumed
/// from `warm`: the lcm of the denominators the module docs list, or 1.
///
/// # When the grid cannot overflow
///
/// `k` stays 1 unless every value the fixpoint can form, once scaled,
/// provably lies below 2¹²⁶ in magnitude. The bound is built in O(tasks)
/// from the unscaled inputs (`F` is the divergence factor):
///
/// * The jitter `X_j` of task `j` in its chain is at most its release
///   jitter for the first task; for the others, at most the largest of
///   its warm-start jitter, its predecessor's frozen response and the
///   largest bounded response of its predecessor. An unbounded response
///   stops the sweep before it feeds a jitter.
/// * A task analysis of task `j` bails out once a busy period or completion
///   time exceeds `L_j = (D + T + X_j)·F`. Its bounded response is at most
///   `L_j + X_j + Φ`, where `Φ` is the sum of `Cbest/α` along the chain,
///   which bounds every offset and best-case response: the oldest pending
///   job was activated at most `X_j + Φ` before the busy period.
/// * With `X` and `L` the largest `X_j` and `L_j`, a window of any length
///   up to `L` holds at most `(X + L)/T_t + 3` jobs of each task `t` on a
///   platform, pending jobs and the job under analysis included. So every
///   demand on platform `p` is at most `Σ_t ((X + L)/T_t + 3)·C_t`, and
///   every completion time formed from one, the last iterate before a
///   bail-out included, at most `B + Δ_p` plus that demand over `α_p`.
/// * Phases lie in `(0, T]`, arrival instants at most `2T` past the
///   window, and activations within `X + Φ + 2T` of it.
///
/// The sum `V` of these bounds, of every input and of the warm start
/// bounds every value the fixpoint forms, and `k·V ≤ 2¹²³` leaves room for
/// the sum of two values, and for `f64` rounding, whose relative error
/// over fewer than 2⁴⁸ operations is below 2⁻⁵. Unscaled, a value `v`
/// below the same bound has components no larger than `k·|v|` and `k`,
/// and so do the cross products of the exact arithmetic that forms it.
/// So inside the bound neither run overflows, and both reach the same
/// result. Outside it, or when the lcm leaves `u128`, the analysis is
/// refused with [`AnalysisError::Numeric`], which names `k` and `V`.
/// `ExactCurve` runs at scale 1 and is not bounded.
pub(crate) fn scale(
    set: &TransactionSet,
    graph: &HpGraph,
    config: &AnalysisConfig,
    warm: Option<&WarmStart>,
) -> Result<i128, AnalysisError> {
    if config.service_mode != ServiceTimeMode::LinearBounds {
        return Ok(1);
    }
    match lcm_and_bound(set, graph, config, warm) {
        (Some(k), bound) if (k as f64) * bound <= GRID_LIMIT => Ok(k as i128),
        (scale, bound) => Err(AnalysisError::Numeric { scale, bound }),
    }
}

/// The lcm of the grid's denominators, `None` once it leaves `u128`, and
/// the bound `V` of [`scale`].
fn lcm_and_bound(
    set: &TransactionSet,
    graph: &HpGraph,
    config: &AnalysisConfig,
    warm: Option<&WarmStart>,
) -> (Option<u128>, f64) {
    let mut k = Lcm(Some(1));
    // Per run: α as f64 and its numerator, ΣC/T and ΣC of its tasks.
    let mut runs: Vec<(f64, u128, f64, f64)> = Vec::with_capacity(graph.run_platforms().len());
    let mut bound = 0.0;
    for id in graph.run_platforms() {
        let model = set.platforms()[id].linear_model();
        k.take(model.delay());
        k.take(model.burstiness());
        bound += model.delay().to_f64() + model.burstiness().to_f64();
        let alpha = model.alpha();
        runs.push((alpha.to_f64(), alpha.numer() as u128, 0.0, 0.0));
    }
    let warm = warm.filter(|w| w.matches(set));
    let factor = f64::from(config.divergence_factor);
    let (mut jitter_max, mut window_max, mut response_max) = (0.0f64, 0.0f64, 0.0f64);
    let (mut period_max, mut deadline_max) = (0.0f64, 0.0f64);
    let (mut chain_max, mut blocking_max) = (0.0f64, 0.0f64);
    let mut flat = 0;
    for (i, tx) in set.transactions().iter().enumerate() {
        k.take(tx.period);
        k.take(tx.deadline);
        k.take(tx.release_jitter);
        let (period, deadline) = (tx.period.to_f64(), tx.deadline.to_f64());
        period_max = period_max.max(period);
        deadline_max = deadline_max.max(deadline);
        let mut chain = 0.0;
        for (j, task) in tx.tasks().iter().enumerate() {
            let run = &mut runs[graph.run_of_task(flat)];
            flat += 1;
            k.take_over(task.wcet, run.1);
            k.take_over(task.bcet, run.1);
            let wcet = task.wcet.to_f64();
            run.2 += wcet / period;
            run.3 += wcet;
            chain += task.bcet.to_f64() / run.0;
            let blocking = config.blocking_of(i, j);
            k.take(blocking);
            blocking_max = blocking_max.max(blocking.to_f64());
        }
        chain_max = chain_max.max(chain);
        // The chain of jitter bounds, and of bounded responses.
        let mut jitter = tx.release_jitter.to_f64();
        for j in 0..tx.len() {
            // First tasks keep the release jitter, whatever the seed.
            if let Some(seed) = warm.filter(|_| j > 0).map(|w| w.jitters[i][j]) {
                k.take(seed);
                jitter = jitter.max(seed.to_f64());
            }
            let window = (deadline + period + jitter) * factor;
            let mut response = window + jitter + chain;
            if let Some(frozen) = warm.and_then(|w| w.frozen.as_ref()) {
                let pinned = frozen.responses[i][j];
                k.take(pinned);
                response = response.max(pinned.to_f64());
            }
            jitter_max = jitter_max.max(jitter);
            window_max = window_max.max(window);
            response_max = response_max.max(response);
            jitter = response;
        }
    }
    let reach = jitter_max + window_max;
    for &(alpha, _, load, wcets) in &runs {
        bound += (reach * load + 3.0 * wcets) / alpha;
    }
    bound += window_max
        + jitter_max
        + response_max
        + chain_max
        + 2.0 * period_max
        + deadline_max
        + blocking_max;
    (k.0, bound)
}

/// A running lcm of denominators; `None` once it leaves `u128`.
struct Lcm(Option<u128>);

impl Lcm {
    /// Takes in the denominator of `x`.
    fn take(&mut self, x: Rational) {
        self.with(Some(x.denom() as u128));
    }

    /// Takes in the denominator of `x / n`, `n > 0`: the grid must hold
    /// `x/α` for a rate `α` of numerator `n`.
    fn take_over(&mut self, x: Rational, n: u128) {
        // x/n = a/(b·n), whose common factors are those of a and n.
        let n = n / gcd(x.numer().unsigned_abs(), n);
        self.with((x.denom() as u128).checked_mul(n));
    }

    fn with(&mut self, d: Option<u128>) {
        self.0 = match (self.0, d) {
            (Some(k), Some(d)) if d == 1 || rem(k, d) == 0 => Some(k),
            (Some(k), Some(d)) => (k / gcd(k, d)).checked_mul(d),
            _ => None,
        };
    }
}

/// `a mod b`, at machine width when both fit.
fn rem(a: u128, b: u128) -> u128 {
    match (u64::try_from(a), u64::try_from(b)) {
        (Ok(a), Ok(b)) => u128::from(a % b),
        _ => a % b,
    }
}

/// Euclid's gcd, at machine width once both fit.
fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, rem(a, b));
    }
    a
}

#[cfg(test)]
impl Grid {
    /// The grid of `set` at scale 1 under `config`.
    pub(crate) fn unscaled(set: &TransactionSet, config: &AnalysisConfig) -> Grid {
        Grid::new(set, &HpGraph::of(set), config, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::holistic::analyze_at;
    use crate::holistic::tests::analyze_unmemoized;
    use crate::rta::tests::stress_cases;
    use crate::{analyze_with, DirtySeed, ScenarioMode, UpdateOrder};
    use hsched_numeric::rat;
    use hsched_platform::{Platform, PlatformSet};
    use hsched_transaction::{paper_example, Task, TaskRef, Transaction};

    /// The reports of `set` under `config` from `warm` at its scale, at 1
    /// and at seven times its scale, which must all be one report.
    fn assert_grid_invisible(
        set: &TransactionSet,
        config: &AnalysisConfig,
        warm: Option<&WarmStart>,
        what: &str,
    ) -> i128 {
        let graph = HpGraph::of(set);
        let k = scale(set, &graph, config, warm).unwrap();
        let report = analyze_at(set, config, warm, &graph, k);
        assert_eq!(
            report,
            analyze_at(set, config, warm, &graph, 1),
            "{what}: k = {k} vs 1"
        );
        assert_eq!(
            report,
            analyze_at(set, config, warm, &graph, 7 * k),
            "{what}: k = {k} vs 7k"
        );
        k
    }

    #[test]
    fn the_paper_example_runs_on_a_grid() {
        // α = 0.4 = 2/5 on Π1 and Π2 halves what they serve: C = 1 gives
        // 1/2, Cbest = 0.8 gives 2/5 and Cbest = 0.25 gives 1/8, so k = 40.
        let set = paper_example::transactions();
        let config = AnalysisConfig::default();
        assert_eq!(assert_grid_invisible(&set, &config, None, "paper"), 40);
        let exact_curve = AnalysisConfig {
            service_mode: ServiceTimeMode::ExactCurve,
            ..AnalysisConfig::default()
        };
        assert_eq!(scale(&set, &HpGraph::of(&set), &exact_curve, None), Ok(1));
    }

    #[test]
    fn a_hostile_system_is_refused() {
        // A WCET of 10³⁰/7 every 1/11 on α = 3/13, deadlines of 10²⁰/17:
        // the busy period would diverge at once, and its bail-out window,
        // scaled by k = 7·11·13·17·…, would leave i128. So the linear
        // analysis refuses the system, naming k and V, in every scenario
        // mode and through the reference task analysis too.
        let mut platforms = PlatformSet::new();
        let p = platforms.add(Platform::linear("p", rat(3, 13), rat(1, 19), rat(1, 23)).unwrap());
        let huge = rat(10i128.pow(30), 7);
        let hog = Transaction::new(
            "hog",
            rat(1, 11),
            rat(10i128.pow(20), 17),
            vec![Task::new("h", huge, huge / rat(2, 1), 2, p)],
        )
        .unwrap();
        let victim = Transaction::new(
            "victim",
            rat(5, 29),
            rat(10i128.pow(20), 31),
            vec![Task::new("v", rat(1, 37), rat(1, 41), 1, p)],
        )
        .unwrap();
        let set = TransactionSet::new(platforms, vec![hog, victim]).unwrap();
        for config in [AnalysisConfig::default(), AnalysisConfig::exact(64)] {
            let error = scale(&set, &HpGraph::of(&set), &config, None).unwrap_err();
            let AnalysisError::Numeric {
                scale: Some(k),
                bound,
            } = error
            else {
                panic!("expected a numeric refusal, got {error:?}");
            };
            assert!(k as f64 * bound > GRID_LIMIT, "k = {k}, V = {bound}");
            let message = error.to_string();
            assert!(message.contains(&format!("k = {k}")), "{message}");
            assert!(message.contains("V = "), "{message}");
            assert_eq!(analyze_with(&set, &config), Err(error.clone()));
            assert_eq!(analyze_unmemoized(&set, &config, None), Err(error));
        }
    }

    /// One generated platform: rate index, `Δ·3` and `β·5`.
    type RawRate = (usize, i128, i128);
    /// One generated task: WCET numerator, WCET denominator index,
    /// priority, platform index and `B·5`.
    type RawTask = (i128, usize, u32, usize, i128);
    /// One generated transaction: period index, release jitter `·3` and its
    /// tasks.
    type RawTx = (usize, i128, Vec<RawTask>);

    /// The system `rates` and `txs` describe, every time and cycle
    /// multiplied by `s`, with the blocking terms of its tasks. Rates have
    /// odd numerators and every other input an odd denominator, so the
    /// grid's scale is the same for every `s = q·2ᵐ` with a prime `q` above
    /// 27, and its bound `V` grows with `s`: the generator places `k·V` by
    /// picking `s`. Each transaction's first task runs on the first
    /// platform, so the system is one island.
    fn contract_system(
        rates: &[RawRate],
        txs: &[RawTx],
        s: i128,
    ) -> (TransactionSet, Vec<Vec<Time>>) {
        let mut platforms = PlatformSet::new();
        let ids: Vec<_> = rates
            .iter()
            .enumerate()
            .map(|(p, &(alpha, delta, beta))| {
                let alpha = [rat(3, 10), rat(27, 100), rat(7, 9), rat(1, 2)][alpha];
                let model =
                    Platform::linear(format!("P{p}"), alpha, rat(delta * s, 3), rat(beta * s, 5));
                platforms.add(model.unwrap())
            })
            .collect();
        let mut blocking = Vec::new();
        let transactions = txs
            .iter()
            .enumerate()
            .map(|(i, (period, jitter, tasks))| {
                let (n, d) = [(25, 1), (95, 3), (40, 1), (121, 3)][*period];
                let mut row = Vec::new();
                let tasks = tasks
                    .iter()
                    .enumerate()
                    .map(|(j, &(wcet, den, priority, p, b))| {
                        let den = [7, 9][den];
                        let platform = if j == 0 { ids[0] } else { ids[p % ids.len()] };
                        row.push(rat(b * s, 5));
                        let (wcet, bcet) = (rat(wcet * s, den), rat(2 * wcet * s, 3 * den));
                        Task::new(format!("t{i}_{j}"), wcet, bcet, priority, platform)
                    })
                    .collect();
                blocking.push(row);
                Transaction::new(
                    format!("tx{i}"),
                    rat(n * s, d),
                    rat(5 * n * s, 3 * d),
                    tasks,
                )
                .unwrap()
                .with_release_jitter(rat(jitter * s, 3))
            })
            .collect();
        (
            TransactionSet::new(platforms, transactions).unwrap(),
            blocking,
        )
    }

    /// `k·V` of `set`'s fixpoint from `warm` under `config`, infinite when
    /// the lcm leaves `u128`.
    fn grid_product(
        set: &TransactionSet,
        config: &AnalysisConfig,
        warm: Option<&WarmStart>,
    ) -> f64 {
        match lcm_and_bound(set, &HpGraph::of(set), config, warm) {
            (Some(k), bound) => k as f64 * bound,
            (None, _) => f64::INFINITY,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(stress_cases(32)))]

        /// The grid's bound is the analysis's overflow contract. Generated
        /// one-island systems, overloaded ones among them (their busy
        /// periods run to the bail-out window, so the values the fixpoint
        /// forms come close to `V`), are scaled so that `k·V` lies within ×2
        /// of 2¹²³, on either side of it. In both scenario modes and both
        /// update orders, from cold, warm and frozen starts: inside the
        /// bound the analysis returns a report (`Rational`'s checked
        /// operators panic on any overflow) whose values lie below `V`;
        /// outside it, it returns `AnalysisError::Numeric`.
        #[test]
        fn the_bound_is_the_overflow_contract(
            rates in proptest::collection::vec((0usize..4, 0i128..4, 0i128..3), 1..=2),
            raw in proptest::collection::vec(
                (0usize..4, 0i128..3, proptest::collection::vec(
                    (1i128..=60, 0usize..2, 1u32..=3, 0usize..2, 0i128..3),
                    1..=3,
                )),
                2..=3,
            ),
            prime in 0usize..5,
            outside in 0i32..2,
            pick in 0usize..16,
        ) {
            let limit = (1u128 << 123) as f64;
            let q = [101i128, 103, 107, 109, 113][prime];
            let (base, blocking) = contract_system(&rates, &raw, q);
            let config = AnalysisConfig { blocking, ..AnalysisConfig::default() };
            let m = 122 - grid_product(&base, &config, None).log2().floor() as i32 + outside;
            proptest::prop_assert!((0..110).contains(&m), "m = {}", m);
            let (set, blocking) = contract_system(&rates, &raw, q << m);
            let cold_product = grid_product(&set, &AnalysisConfig { blocking: blocking.clone(), ..config }, None);
            proptest::prop_assert!(
                (limit / 2.0..=limit * 2.0).contains(&cold_product),
                "k·V = 2^{}",
                cold_product.log2()
            );
            let (last, rest) = set.transactions().split_last().unwrap();
            let before = TransactionSet::new(set.platforms().clone(), rest.to_vec()).unwrap();
            let cone = HpGraph::of(&set).task_cone(&[DirtySeed::Task(TaskRef {
                tx: pick % raw.len(),
                idx: 0,
            })]);
            for scenario_mode in [ScenarioMode::Approximate, ScenarioMode::Exact { max_scenarios: 4096 }] {
                for update_order in [UpdateOrder::Jacobi, UpdateOrder::GaussSeidel] {
                    let config = AnalysisConfig {
                        scenario_mode,
                        update_order,
                        blocking: blocking.clone(),
                        ..AnalysisConfig::default()
                    };
                    let mut starts = vec![None];
                    let before_config = AnalysisConfig {
                        blocking: config.blocking[..rest.len()].to_vec(),
                        ..config.clone()
                    };
                    if let Ok(report) = analyze_with(&before, &before_config) {
                        let mut grown = WarmStart::from_report(&report);
                        grown.jitters.push(vec![Time::ZERO; last.len()]);
                        starts.push(Some(grown));
                    }
                    if let Ok(cold) = analyze_with(&set, &config) {
                        starts.push(Some(WarmStart::restricted(&cold, cone.clone(), true)));
                        starts.push(Some(WarmStart::restricted(&cold, cone.clone(), false)));
                    }
                    for (k, warm) in starts.iter().enumerate() {
                        let what = format!("{scenario_mode:?}, {update_order:?}, start {k}");
                        let product = grid_product(&set, &config, warm.as_ref());
                        let result = crate::analyze_resumed(&set, &config, warm.as_ref());
                        if product <= limit {
                            let report = result.unwrap();
                            let (_, bound) = lcm_and_bound(&set, &HpGraph::of(&set), &config, warm.as_ref());
                            let largest = report
                                .tasks
                                .iter()
                                .flatten()
                                .map(|t| t.response.max(t.jitter).to_f64())
                                .fold(0.0, f64::max);
                            proptest::prop_assert!(largest <= bound, "{}: {} > V = {}", what, largest, bound);
                        } else {
                            proptest::prop_assert!(
                                matches!(result, Err(AnalysisError::Numeric { .. })),
                                "{}: k·V = 2^{} gave {:?}",
                                what,
                                product.log2(),
                                result.map(|r| r.converged)
                            );
                        }
                    }
                }
            }
        }

    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(stress_cases(48)))]

        /// The grid is invisible on generated systems whose every input has
        /// a denominator of its own — rates of numerator 3, 7 or 27,
        /// fractional delays, burstiness, periods, release jitters and
        /// blocking terms, WCETs in sevenths and tenths — in both scenario
        /// modes and both update orders, from cold, warm and frozen starts
        /// (the cone restarting cold and warm): the report at the chosen
        /// scale is the report at scale 1 and at seven times the scale,
        /// field for field, trace included.
        #[test]
        fn the_grid_is_invisible(
            rates in proptest::collection::vec((0usize..4, 0i128..4, 0i128..3), 1..=2),
            raw in proptest::collection::vec(
                (0usize..4, 0i128..3, proptest::collection::vec(
                    (1i128..=12, 0usize..2, 1u32..=3, 0usize..2, 0i128..3),
                    1..=3,
                )),
                2..=3,
            ),
            pick in 0usize..16,
        ) {
            let mut platforms = PlatformSet::new();
            let ids: Vec<_> = rates
                .iter()
                .enumerate()
                .map(|(k, &(alpha, delta, beta))| {
                    let alpha = [rat(3, 10), rat(27, 100), rat(7, 9), rat(1, 2)][alpha];
                    platforms.add(
                        Platform::linear(format!("P{k}"), alpha, rat(delta, 4), rat(beta, 3)).unwrap(),
                    )
                })
                .collect();
            let mut blocking = Vec::new();
            let txs = raw
                .iter()
                .enumerate()
                .map(|(i, (period, jitter, tasks))| {
                    let period = [rat(25, 1), rat(75, 2), rat(40, 1), rat(121, 3)][*period];
                    let mut row = Vec::new();
                    let tasks = tasks
                        .iter()
                        .enumerate()
                        .map(|(j, &(wcet, den, priority, p, b))| {
                            let wcet = rat(wcet, [7, 10][den]);
                            row.push(rat(b, 5));
                            Task::new(format!("t{i}_{j}"), wcet, wcet * rat(3, 4), priority, ids[p % ids.len()])
                        })
                        .collect();
                    blocking.push(row);
                    Transaction::new(format!("tx{i}"), period, period * rat(5, 2), tasks)
                        .unwrap()
                        .with_release_jitter(rat(*jitter, 6))
                })
                .collect();
            let set = TransactionSet::new(platforms, txs).unwrap();
            let (last, rest) = set.transactions().split_last().unwrap();
            let before = TransactionSet::new(set.platforms().clone(), rest.to_vec()).unwrap();
            let cone = HpGraph::of(&set).task_cone(&[DirtySeed::Task(TaskRef {
                tx: pick % raw.len(),
                idx: 0,
            })]);
            for scenario_mode in [ScenarioMode::Approximate, ScenarioMode::Exact { max_scenarios: 4096 }] {
                for update_order in [UpdateOrder::Jacobi, UpdateOrder::GaussSeidel] {
                    let config = AnalysisConfig {
                        scenario_mode,
                        update_order,
                        blocking: blocking.clone(),
                        ..AnalysisConfig::default()
                    };
                    let cold = analyze_with(&set, &config).unwrap();
                    let mut grown = WarmStart::from_report(&analyze_with(&before, &config).unwrap());
                    grown.jitters.push(vec![Time::ZERO; last.len()]);
                    let starts = [
                        None,
                        Some(grown),
                        Some(WarmStart::restricted(&cold, cone.clone(), true)),
                        Some(WarmStart::restricted(&cold, cone.clone(), false)),
                    ];
                    for (k, warm) in starts.iter().enumerate() {
                        let what = format!("{scenario_mode:?}, {update_order:?}, start {k}");
                        let scale = assert_grid_invisible(&set, &config, warm.as_ref(), &what);
                        proptest::prop_assert!(scale > 1, "{}: k = {}", what, scale);
                    }
                }
            }
        }
    }
}
