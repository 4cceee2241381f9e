//! Platform-parameter optimization — the future work the paper names in §5:
//! *"the parameters of the abstract computing platform … could be computed
//! depending on the actual requirement of a component. This requires an
//! optimization method to assign the parameters (α, β, Δ) to each abstract
//! platform."*
//!
//! This crate provides that optimization layer on top of the analysis:
//!
//! * [`min_alpha`] — the smallest rate a platform can be given (delay and
//!   burstiness fixed) while the whole system stays schedulable, found by
//!   binary search (schedulability is monotone in α);
//! * [`max_delta`] — the largest service delay a platform tolerates at a
//!   fixed rate (monotone in Δ);
//! * [`minimize_bandwidth`] — greedy coordinate descent over all platforms,
//!   shrinking Σα (the total reserved fraction of the physical resources);
//! * [`pareto_sweep`] — the (α, Δ) trade-off frontier for one platform,
//!   computed in parallel;
//! * [`synthesize_server`] — concrete periodic-server parameters `(Q, P)`
//!   realizing an optimized `(α, Δ)` point.
//!
//! # Example: trimming the paper's platforms
//!
//! ```
//! use hsched_design::{min_alpha, DesignConfig};
//! use hsched_platform::PlatformId;
//! use hsched_transaction::paper_example;
//!
//! let set = paper_example::transactions();
//! // Π3 is provisioned at α = 0.2; how low could it go?
//! let best = min_alpha(&set, PlatformId(2), &DesignConfig::default()).unwrap();
//! assert!(best < set.platforms()[PlatformId(2)].alpha());
//! ```

mod par;
mod sensitivity;

pub use sensitivity::{deadline_slack, sensitivity_report, wcet_headroom, TaskSlack};

use hsched_analysis::{analyze_with, AnalysisConfig};
use hsched_numeric::{Rational, Time};
use hsched_platform::{Platform, PlatformId, PlatformSet, ServiceModel};
use hsched_supply::{BoundedDelay, PeriodicServer};
use hsched_transaction::TransactionSet;

/// Configuration of the design-space search.
#[derive(Debug, Clone)]
pub struct DesignConfig {
    /// Analysis settings used as the schedulability oracle.
    pub analysis: AnalysisConfig,
    /// Search resolution: binary search stops when the bracket is narrower
    /// than this.
    pub precision: Rational,
    /// Worker threads for sweeps (0 = available parallelism).
    pub threads: usize,
}

impl Default for DesignConfig {
    fn default() -> DesignConfig {
        DesignConfig {
            analysis: AnalysisConfig::default(),
            precision: Rational::new(1, 256),
            threads: 1,
        }
    }
}

/// Is the system schedulable when platform `id` gets the linear model `m`?
fn schedulable_with(
    set: &TransactionSet,
    id: PlatformId,
    m: BoundedDelay,
    config: &DesignConfig,
) -> bool {
    let mut platforms = set.platforms().clone();
    let replacement = platforms[id].with_model(ServiceModel::Linear(m));
    platforms.replace(id, replacement);
    let candidate = set
        .with_platforms(platforms)
        .expect("platform structure unchanged");
    match analyze_with(&candidate, &config.analysis) {
        Ok(report) => report.schedulable(),
        Err(_) => false,
    }
}

/// The smallest rate α (to within `config.precision`) platform `id` can be
/// given — keeping its Δ and β — with the system still schedulable.
/// `None` if the system is unschedulable even at the current provisioning.
pub fn min_alpha(set: &TransactionSet, id: PlatformId, config: &DesignConfig) -> Option<Rational> {
    let platform = &set.platforms()[id];
    let (delta, beta) = (platform.delta(), platform.beta());
    let current = platform.alpha();
    let model = |alpha: Rational| BoundedDelay::new(alpha, delta, beta).expect("valid model");
    if !schedulable_with(set, id, model(current), config) {
        return None;
    }
    // Demand utilization is a hard floor.
    let floor = set.platform_utilization()[id.0];
    let mut lo = floor; // unschedulable (or boundary)
    let mut hi = current; // schedulable
    while hi - lo > config.precision {
        let mid = (lo + hi) / Rational::from_integer(2);
        if mid <= floor || !mid.is_positive() {
            lo = mid.max(floor);
            continue;
        }
        if schedulable_with(set, id, model(mid), config) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// The largest service delay Δ platform `id` tolerates — keeping α and β —
/// with the system still schedulable. Searches up to `ceiling` (e.g. the
/// smallest deadline of interest). `None` if unschedulable already.
pub fn max_delta(
    set: &TransactionSet,
    id: PlatformId,
    ceiling: Time,
    config: &DesignConfig,
) -> Option<Time> {
    let platform = &set.platforms()[id];
    let (alpha, beta) = (platform.alpha(), platform.beta());
    let current = platform.delta();
    let model = |delta: Time| BoundedDelay::new(alpha, delta, beta).expect("valid model");
    if !schedulable_with(set, id, model(current), config) {
        return None;
    }
    if schedulable_with(set, id, model(ceiling), config) {
        return Some(ceiling);
    }
    let mut lo = current; // schedulable
    let mut hi = ceiling; // unschedulable
    while hi - lo > config.precision {
        let mid = (lo + hi) / Rational::from_integer(2);
        if schedulable_with(set, id, model(mid), config) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Result of [`minimize_bandwidth`].
#[derive(Debug, Clone)]
pub struct BandwidthPlan {
    /// The re-dimensioned platform set (schedulability re-verified).
    pub platforms: PlatformSet,
    /// Σα before.
    pub before: Rational,
    /// Σα after.
    pub after: Rational,
    /// Per-platform final rates.
    pub alphas: Vec<Rational>,
}

/// Greedy coordinate descent: repeatedly shrink each platform's α to its
/// minimum (given the others), until a full round makes no progress. The
/// result depends on visit order (first-indexed platforms shrink first);
/// it is a local optimum of Σα, which is what the paper's future-work
/// formulation asks for.
pub fn minimize_bandwidth(set: &TransactionSet, config: &DesignConfig) -> Option<BandwidthPlan> {
    let before = set.platforms().total_bandwidth();
    let mut current = set.clone();
    // Verify feasibility first.
    match analyze_with(&current, &config.analysis) {
        Ok(report) if report.schedulable() => {}
        _ => return None,
    }
    loop {
        let mut improved = false;
        for k in 0..current.platforms().len() {
            let id = PlatformId(k);
            let old = current.platforms()[id].alpha();
            if let Some(alpha) = min_alpha(&current, id, config) {
                if alpha < old {
                    let platform = &current.platforms()[id];
                    let m = BoundedDelay::new(alpha, platform.delta(), platform.beta())
                        .expect("valid model");
                    let mut platforms = current.platforms().clone();
                    let replacement = platforms[id].with_model(ServiceModel::Linear(m));
                    platforms.replace(id, replacement);
                    current = current.with_platforms(platforms).expect("same structure");
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    let after = current.platforms().total_bandwidth();
    let alphas = current.platforms().iter().map(|(_, p)| p.alpha()).collect();
    Some(BandwidthPlan {
        platforms: current.platforms().clone(),
        before,
        after,
        alphas,
    })
}

/// One point of the (α, Δ) trade-off frontier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParetoPoint {
    /// The rate probed.
    pub alpha: Rational,
    /// The largest tolerable delay at that rate (`None`: unschedulable even
    /// with Δ = current).
    pub max_delta: Option<Time>,
}

/// Sweeps rates for platform `id` and reports the maximum tolerable delay
/// at each — the frontier a server designer trades budget against period
/// on. Runs points in parallel when `config.threads != 1`.
pub fn pareto_sweep(
    set: &TransactionSet,
    id: PlatformId,
    alphas: &[Rational],
    ceiling: Time,
    config: &DesignConfig,
) -> Vec<ParetoPoint> {
    let probe = |&alpha: &Rational| -> ParetoPoint {
        let platform = &set.platforms()[id];
        let m = match BoundedDelay::new(alpha, platform.delta(), platform.beta()) {
            Ok(m) => m,
            Err(_) => {
                return ParetoPoint {
                    alpha,
                    max_delta: None,
                }
            }
        };
        // Re-anchor the set at this rate, then search Δ.
        let mut platforms = set.platforms().clone();
        let replacement = platforms[id].with_model(ServiceModel::Linear(m));
        platforms.replace(id, replacement);
        let candidate = set.with_platforms(platforms).expect("same structure");
        ParetoPoint {
            alpha,
            max_delta: max_delta(&candidate, id, ceiling, config),
        }
    };
    par::parallel_map(alphas, config.threads, probe)
}

/// Concrete periodic-server parameters realizing an `(α, Δ)` point
/// (`None` for a dedicated processor or an unachievable request).
pub fn synthesize_server(alpha: Rational, delta: Time) -> Option<PeriodicServer> {
    PeriodicServer::from_linear_params(alpha, delta)
}

/// Convenience: the re-dimensioned platform as a `Platform` with a concrete
/// server mechanism where one exists.
pub fn realized_platform(name: &str, alpha: Rational, delta: Time) -> Platform {
    match synthesize_server(alpha, delta) {
        Some(server) => Platform::new(
            name,
            hsched_platform::PlatformKind::Cpu,
            ServiceModel::Server(server),
        ),
        None => Platform::dedicated(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_analysis::analyze;
    use hsched_numeric::rat;
    use hsched_transaction::paper_example;

    #[test]
    fn min_alpha_shrinks_paper_platforms() {
        let set = paper_example::transactions();
        let config = DesignConfig::default();
        for k in 0..3 {
            let id = PlatformId(k);
            let best = min_alpha(&set, id, &config).unwrap();
            let current = set.platforms()[id].alpha();
            assert!(best <= current, "Π{} grew: {best} > {current}", k + 1);
            // And the floor holds: never below demand utilization.
            assert!(best >= set.platform_utilization()[k]);
            // Re-check: the shrunk system is genuinely schedulable.
            assert!(schedulable_with(
                &set,
                id,
                BoundedDelay::new(
                    best,
                    set.platforms()[id].delta(),
                    set.platforms()[id].beta()
                )
                .unwrap(),
                &config
            ));
        }
    }

    #[test]
    fn min_alpha_none_when_infeasible() {
        // Shrink Π3 to utter starvation first: deadline can't be met.
        let set = paper_example::transactions();
        let mut platforms = set.platforms().clone();
        let p3 = PlatformId(2);
        let broken = platforms[p3].with_model(ServiceModel::Linear(
            BoundedDelay::new(rat(1, 100), rat(2, 1), rat(1, 1)).unwrap(),
        ));
        platforms.replace(p3, broken);
        let starved = set.with_platforms(platforms).unwrap();
        assert!(min_alpha(&starved, p3, &DesignConfig::default()).is_none());
    }

    #[test]
    fn max_delta_grows_until_deadline_pressure() {
        let set = paper_example::transactions();
        let config = DesignConfig::default();
        let p1 = PlatformId(0);
        let ceiling = rat(50, 1);
        let d = max_delta(&set, p1, ceiling, &config).unwrap();
        assert!(d >= set.platforms()[p1].delta());
        assert!(d <= ceiling);
        // Tightness: a bit more delay must break schedulability (unless the
        // search saturated at the ceiling).
        if d < ceiling {
            let worse = BoundedDelay::new(
                set.platforms()[p1].alpha(),
                d + rat(1, 2),
                set.platforms()[p1].beta(),
            )
            .unwrap();
            assert!(!schedulable_with(&set, p1, worse, &config));
        }
    }

    #[test]
    fn minimize_bandwidth_improves_total() {
        let set = paper_example::transactions();
        let plan = minimize_bandwidth(&set, &DesignConfig::default()).unwrap();
        assert!(
            plan.after < plan.before,
            "{} !< {}",
            plan.after,
            plan.before
        );
        assert_eq!(plan.before, rat(1, 1));
        // The re-dimensioned system passes the analysis.
        let trimmed = set.with_platforms(plan.platforms.clone()).unwrap();
        assert!(analyze(&trimmed).schedulable());
        assert_eq!(plan.alphas.len(), 3);
    }

    #[test]
    fn pareto_frontier_is_monotone() {
        // More rate should never tolerate *less* delay.
        let set = paper_example::transactions();
        let config = DesignConfig::default();
        let alphas = [rat(1, 5), rat(3, 10), rat(2, 5), rat(1, 2)];
        let points = pareto_sweep(&set, PlatformId(0), &alphas, rat(40, 1), &config);
        assert_eq!(points.len(), 4);
        let deltas: Vec<_> = points.iter().map(|p| p.max_delta).collect();
        for w in deltas.windows(2) {
            match (w[0], w[1]) {
                (Some(a), Some(b)) => assert!(b >= a, "frontier not monotone: {a} then {b}"),
                (None, _) => {}
                (Some(_), None) => panic!("higher rate became infeasible"),
            }
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential() {
        let set = paper_example::transactions();
        let alphas = [rat(1, 4), rat(2, 5), rat(1, 2)];
        let seq = pareto_sweep(
            &set,
            PlatformId(1),
            &alphas,
            rat(30, 1),
            &DesignConfig::default(),
        );
        let par = pareto_sweep(
            &set,
            PlatformId(1),
            &alphas,
            rat(30, 1),
            &DesignConfig {
                threads: 3,
                ..DesignConfig::default()
            },
        );
        assert_eq!(seq, par);
    }

    #[test]
    fn server_synthesis_roundtrip() {
        let s = synthesize_server(rat(2, 5), rat(6, 1)).unwrap();
        assert_eq!(s.budget(), rat(2, 1));
        assert_eq!(s.period(), rat(5, 1));
        assert!(synthesize_server(Rational::ONE, rat(6, 1)).is_none());
        let p = realized_platform("opt", rat(2, 5), rat(6, 1));
        assert_eq!(p.alpha(), rat(2, 5));
        let d = realized_platform("full", Rational::ONE, rat(0, 1));
        assert_eq!(d.alpha(), Rational::ONE);
    }
}
