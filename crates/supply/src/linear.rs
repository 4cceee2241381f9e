//! The linear (α, Δ, β) supply model — the paper's abstraction of a platform.

use crate::SupplyCurve;
use hsched_numeric::{Cycles, Rational, Time};

/// The bounded-delay linear supply model `(α, Δ, β)`:
///
/// * `Zmin(t) = max(0, α·(t − Δ))` — the platform guarantees rate `α` after
///   an initial service delay of at most `Δ`;
/// * `Zmax(t) = α·(t + β)` — it can run ahead of the fluid rate by a burst
///   worth `β` time units of service.
///
/// Setting `α = 1, Δ = 0, β = 0` recovers a dedicated unit-speed processor,
/// as the paper notes at the end of §2.3.
///
/// Note that `Zmax` here is the *abstraction's* upper line: it deliberately
/// exceeds the physical `Zmax(t) ≤ t` cap for small `t`, exactly as the
/// paper's best-case formula `max(0, Cbest/α − β)` does. Wrap curves that
/// need the physical cap in a mechanism-specific type instead
/// ([`crate::PeriodicServer`], [`crate::TdmaSupply`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundedDelay {
    alpha: Rational,
    delta: Time,
    beta: Time,
}

impl BoundedDelay {
    /// Creates the model; requires `0 < α ≤ 1`, `Δ ≥ 0`, `β ≥ 0`.
    pub fn new(alpha: Rational, delta: Time, beta: Time) -> Result<BoundedDelay, String> {
        if !alpha.is_positive() || alpha > Rational::ONE {
            return Err(format!("platform rate must satisfy 0 < α ≤ 1, got {alpha}"));
        }
        if delta.is_negative() {
            return Err(format!("platform delay must be ≥ 0, got {delta}"));
        }
        if beta.is_negative() {
            return Err(format!("platform burstiness must be ≥ 0, got {beta}"));
        }
        Ok(BoundedDelay { alpha, delta, beta })
    }

    /// A dedicated unit-speed processor: `(1, 0, 0)`.
    pub fn dedicated() -> BoundedDelay {
        BoundedDelay {
            alpha: Rational::ONE,
            delta: Time::ZERO,
            beta: Time::ZERO,
        }
    }

    /// Rate α.
    #[inline]
    pub fn alpha(&self) -> Rational {
        self.alpha
    }

    /// Delay Δ.
    #[inline]
    pub fn delay(&self) -> Time {
        self.delta
    }

    /// Burstiness β (time units; the cycles value of Definition 5 is `α·β`).
    #[inline]
    pub fn burstiness(&self) -> Time {
        self.beta
    }

    /// The burstiness expressed in cycles, as in Definition 5 of the paper.
    #[inline]
    pub fn burstiness_cycles(&self) -> Cycles {
        self.alpha * self.beta
    }

    /// Worst-case time to serve `c` cycles *from the start of a busy
    /// interval*: `Δ + c/α` (0 for `c = 0`). This is the `Δ + …/α` shape of
    /// Eq. (13).
    #[inline]
    pub fn worst_case_service(&self, c: Cycles) -> Time {
        if !c.is_positive() {
            return Time::ZERO;
        }
        self.delta + c / self.alpha
    }

    /// Best-case time to serve `c` cycles: `max(0, c/α − β)` — the §3.2
    /// best-case term.
    #[inline]
    pub fn best_case_service(&self, c: Cycles) -> Time {
        (c / self.alpha - self.beta).max(Time::ZERO)
    }
}

impl SupplyCurve for BoundedDelay {
    fn zmin(&self, t: Time) -> Cycles {
        (self.alpha * (t - self.delta)).max(Cycles::ZERO)
    }

    fn zmax(&self, t: Time) -> Cycles {
        if t < Time::ZERO {
            return Cycles::ZERO;
        }
        self.alpha * (t + self.beta)
    }

    fn rate(&self) -> Rational {
        self.alpha
    }

    fn time_to_supply_min(&self, c: Cycles) -> Time {
        self.worst_case_service(c)
    }

    fn time_to_supply_max(&self, c: Cycles) -> Time {
        if !c.is_positive() {
            return Time::ZERO;
        }
        self.best_case_service(c)
    }
}

impl std::fmt::Display for BoundedDelay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(α={}, Δ={}, β={})", self.alpha, self.delta, self.beta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_curve_invariants;
    use hsched_numeric::rat;

    fn pi3() -> BoundedDelay {
        // Π3 of the paper's example: (0.2, 2, 1).
        BoundedDelay::new(rat(1, 5), rat(2, 1), rat(1, 1)).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(BoundedDelay::new(rat(1, 2), Time::ZERO, Time::ZERO).is_ok());
        assert!(BoundedDelay::new(Rational::ZERO, Time::ZERO, Time::ZERO).is_err());
        assert!(BoundedDelay::new(rat(3, 2), Time::ZERO, Time::ZERO).is_err());
        assert!(BoundedDelay::new(rat(1, 2), rat(-1, 1), Time::ZERO).is_err());
        assert!(BoundedDelay::new(rat(1, 2), Time::ZERO, rat(-1, 1)).is_err());
        assert!(BoundedDelay::new(Rational::ONE, Time::ZERO, Time::ZERO).is_ok());
    }

    #[test]
    fn dedicated_processor_is_identity() {
        let cpu = BoundedDelay::dedicated();
        for k in 0..20 {
            let t = rat(k, 2);
            assert_eq!(cpu.zmin(t), t);
            assert_eq!(cpu.zmax(t), t);
        }
        assert_eq!(cpu.worst_case_service(rat(7, 2)), rat(7, 2));
        assert_eq!(cpu.best_case_service(rat(7, 2)), rat(7, 2));
    }

    #[test]
    fn zmin_zero_until_delay() {
        let p = pi3();
        assert_eq!(p.zmin(Time::ZERO), Cycles::ZERO);
        assert_eq!(p.zmin(rat(2, 1)), Cycles::ZERO);
        assert_eq!(p.zmin(rat(1, 1)), Cycles::ZERO);
        // After Δ the slope is α: zmin(7) = 0.2·5 = 1.
        assert_eq!(p.zmin(rat(7, 1)), Rational::ONE);
    }

    #[test]
    fn zmax_starts_with_burst() {
        let p = pi3();
        // zmax(0) = α·β = 0.2 cycles.
        assert_eq!(p.zmax(Time::ZERO), rat(1, 5));
        assert_eq!(p.zmax(rat(4, 1)), rat(1, 1));
        assert_eq!(p.burstiness_cycles(), rat(1, 5));
    }

    #[test]
    fn worst_case_service_matches_eq13_shape() {
        let p = pi3();
        // Serving C = 1 cycle: Δ + C/α = 2 + 5 = 7 (used by τ1,1's analysis).
        assert_eq!(p.worst_case_service(rat(1, 1)), rat(7, 1));
        assert_eq!(p.worst_case_service(Cycles::ZERO), Time::ZERO);
        // zmin at the returned instant indeed covers the demand.
        assert_eq!(p.zmin(rat(7, 1)), rat(1, 1));
    }

    #[test]
    fn best_case_service_matches_paper_phi_min() {
        // φmin of τ1,2 in Table 1: best-case of τ1,1 on Π3 = 0.8/0.2 − 1 = 3.
        let p = pi3();
        assert_eq!(p.best_case_service(rat(4, 5)), rat(3, 1));
        // Saturation at zero for small demands on bursty platforms.
        let p1 = BoundedDelay::new(rat(2, 5), rat(1, 1), rat(1, 1)).unwrap();
        assert_eq!(p1.best_case_service(rat(1, 4)), Time::ZERO); // 0.25/0.4 − 1 < 0
        assert_eq!(p1.best_case_service(rat(4, 5)), rat(1, 1)); // 0.8/0.4 − 1 = 1
    }

    #[test]
    fn curve_invariants() {
        check_curve_invariants(&pi3(), rat(60, 1));
        check_curve_invariants(&BoundedDelay::dedicated(), rat(20, 1));
        check_curve_invariants(
            &BoundedDelay::new(rat(2, 5), rat(1, 1), rat(1, 1)).unwrap(),
            rat(60, 1),
        );
    }

    #[test]
    fn display() {
        assert_eq!(pi3().to_string(), "(α=0.2, Δ=2, β=1)");
    }
}
