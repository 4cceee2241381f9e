//! Cross-crate soundness properties: the analysis upper-bounds the
//! simulator on randomized systems, the exact analysis refines the
//! approximate one, and the exact-staircase mode refines the linear mode.

use hsched::analysis::{analyze, analyze_with, AnalysisConfig, ServiceTimeMode};
use hsched::prelude::*;
use hsched_bench::{random_system, WorkloadSpec};

fn workload(seed: u64) -> TransactionSet {
    random_system(&WorkloadSpec {
        platforms: 3,
        transactions: 4,
        max_tasks_per_tx: 3,
        load_fraction: rat(2, 5),
        priority_levels: 5,
        seed,
    })
}

#[test]
fn analysis_bounds_simulation_on_random_systems() {
    let mut exercised = 0;
    for seed in 0..8 {
        let set = workload(seed);
        let report = analyze(&set);
        if !report.schedulable() {
            continue;
        }
        exercised += 1;
        for sim_config in [
            SimConfig::worst_case(rat(1500, 1)),
            SimConfig::randomized(rat(1500, 1), seed + 100),
        ] {
            let sim = simulate(&set, &sim_config);
            for r in set.task_refs() {
                if let Some(observed) = sim.task_stats(r.tx, r.idx).max_response {
                    let bound = report.response(r.tx, r.idx);
                    assert!(
                        observed <= bound,
                        "seed {seed}: {r} observed {observed} > bound {bound}"
                    );
                }
            }
        }
    }
    assert!(
        exercised >= 3,
        "generator produced too few schedulable sets"
    );
}

#[test]
fn exact_refines_approximate_on_random_systems() {
    for seed in 0..8 {
        let set = workload(seed);
        let approx = analyze_with(&set, &AnalysisConfig::default()).unwrap();
        let Ok(exact) = analyze_with(&set, &AnalysisConfig::exact(100_000)) else {
            continue;
        };
        for r in set.task_refs() {
            assert!(
                exact.response(r.tx, r.idx) <= approx.response(r.tx, r.idx),
                "seed {seed}: exact above approximate at {r}"
            );
        }
    }
}

#[test]
fn exact_curve_refines_linear_on_server_platforms() {
    // Rebuild each workload with platforms realized as periodic servers so
    // the two service modes genuinely differ.
    use hsched::platform::{Platform, PlatformSet, ServiceModel};
    use hsched::supply::PeriodicServer;
    for seed in 0..6 {
        let set = workload(seed);
        let mut realized = PlatformSet::new();
        for (_, p) in set.platforms().iter() {
            let model =
                match PeriodicServer::from_linear_params(p.alpha(), p.delta().max(rat(1, 1))) {
                    Some(server) => ServiceModel::Server(server),
                    None => ServiceModel::Linear(p.linear_model()),
                };
            realized.add(Platform::new(p.name(), p.kind(), model));
        }
        let set = set.with_platforms(realized).unwrap();
        let linear = analyze_with(&set, &AnalysisConfig::default()).unwrap();
        let exact = analyze_with(
            &set,
            &AnalysisConfig {
                service_mode: ServiceTimeMode::ExactCurve,
                ..AnalysisConfig::default()
            },
        )
        .unwrap();
        for r in set.task_refs() {
            assert!(
                exact.response(r.tx, r.idx) <= linear.response(r.tx, r.idx),
                "seed {seed}: staircase inversion above linear bound at {r}"
            );
        }
    }
}

#[test]
fn response_times_monotone_in_platform_rate() {
    // Speeding up a platform must never worsen any response time.
    use hsched::platform::ServiceModel;
    use hsched::supply::BoundedDelay;
    for seed in 0..6 {
        let set = workload(seed);
        let base = analyze(&set);
        if base.diverged {
            continue;
        }
        for k in 0..set.platforms().len() {
            let id = PlatformId(k);
            let p = &set.platforms()[id];
            let faster_alpha = (p.alpha() * rat(3, 2)).min(rat(1, 1));
            let faster = BoundedDelay::new(faster_alpha, p.delta(), p.beta()).unwrap();
            let mut platforms = set.platforms().clone();
            let replacement = platforms[id].with_model(ServiceModel::Linear(faster));
            platforms.replace(id, replacement);
            let boosted_set = set.with_platforms(platforms).unwrap();
            let boosted = analyze(&boosted_set);
            for r in set.task_refs() {
                assert!(
                    boosted.response(r.tx, r.idx) <= base.response(r.tx, r.idx),
                    "seed {seed}: speeding Π{} worsened {r}",
                    k + 1
                );
            }
        }
    }
}

/// Responses are not monotone in a platform's rate. α enters the
/// best-case responses (`Cbest/α − β`), so lowering it moves the offsets,
/// and τ4,4's own-transaction term stops interfering with τ4,1. Slowing Π2
/// from α = 0.3 to 0.27, Δ and β kept, lowers both responses. Admission
/// restarts a retune's cone cold for this reason: resumed from the old
/// fixpoint, it would keep the higher values. The rate 27/100 also puts
/// its numerator 27 into the scale of the analysis's integer grid.
#[test]
fn slowing_a_platform_can_lower_responses() {
    use hsched::platform::ServiceModel;
    use hsched::supply::BoundedDelay;
    let set = random_system(&WorkloadSpec {
        platforms: 3,
        transactions: 6,
        max_tasks_per_tx: 4,
        seed: 114,
        ..WorkloadSpec::default()
    });
    let id = PlatformId(1);
    let p = &set.platforms()[id];
    assert_eq!(p.alpha(), rat(3, 10));
    let slower = BoundedDelay::new(rat(27, 100), p.delta(), p.beta()).unwrap();
    let mut platforms = set.platforms().clone();
    let replacement = platforms[id].with_model(ServiceModel::Linear(slower));
    platforms.replace(id, replacement);
    let (before, after) = (
        analyze(&set),
        analyze(&set.with_platforms(platforms).unwrap()),
    );
    assert_eq!(
        (before.response(3, 0), after.response(3, 0)),
        (rat(19, 8), rat(31, 40)),
        "τ4,1: 2.375 → 0.775"
    );
    assert_eq!(
        (before.response(3, 3), after.response(3, 3)),
        (rat(569, 40), rat(4687, 360)),
        "τ4,4: 14.225 → 4687/360"
    );
}

#[test]
fn deadline_misses_only_when_analysis_predicts_risk() {
    // Contrapositive check on the verdict: for systems the analysis calls
    // schedulable, no simulation regime may produce a miss.
    for seed in 0..10 {
        let set = workload(seed);
        let report = analyze(&set);
        if !report.schedulable() {
            continue;
        }
        for sim_seed in [1u64, 99] {
            let sim = simulate(&set, &SimConfig::randomized(rat(1000, 1), sim_seed));
            for i in 0..set.transactions().len() {
                assert_eq!(
                    sim.transaction_stats(i).deadline_misses,
                    0,
                    "seed {seed}/{sim_seed}: miss in a provably schedulable system"
                );
            }
        }
    }
}
