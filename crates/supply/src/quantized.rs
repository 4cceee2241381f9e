//! P-fair-like quantized fluid supply (the paper's citation [13],
//! Srinivasan & Anderson's rate-based multiprocessor scheduling).

use crate::SupplyCurve;
use hsched_numeric::{Cycles, Rational, Time};

/// A proportional-share resource that tracks the fluid allocation `α·t`
/// within a bounded lag (P-fair schedulers guarantee lag < 1 quantum):
///
/// * `Zmin(t) = max(0, α·t − L)`
/// * `Zmax(t) = min(t, α·t + L)`
///
/// where `L` is the lag bound in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QuantizedFluid {
    alpha: Rational,
    lag: Cycles,
}

impl QuantizedFluid {
    /// Creates the model; requires `0 < α ≤ 1` and `L ≥ 0`.
    pub fn new(alpha: Rational, lag: Cycles) -> Result<QuantizedFluid, String> {
        if !alpha.is_positive() || alpha > Rational::ONE {
            return Err(format!("rate must satisfy 0 < α ≤ 1, got {alpha}"));
        }
        if lag.is_negative() {
            return Err(format!("lag must be ≥ 0, got {lag}"));
        }
        Ok(QuantizedFluid { alpha, lag })
    }

    /// Rate α.
    #[inline]
    pub fn alpha(&self) -> Rational {
        self.alpha
    }

    /// Lag bound in cycles.
    #[inline]
    pub fn lag(&self) -> Cycles {
        self.lag
    }

    /// The linear abstraction: `Δ = L/α` (time the fluid line needs to make
    /// up the lag) and `β = L/α`.
    pub fn to_linear(&self) -> crate::BoundedDelay {
        let d = self.lag / self.alpha;
        crate::BoundedDelay::new(self.alpha, d, d).expect("valid fluid model")
    }
}

impl SupplyCurve for QuantizedFluid {
    fn zmin(&self, t: Time) -> Cycles {
        (self.alpha * t - self.lag).max(Cycles::ZERO)
    }

    fn zmax(&self, t: Time) -> Cycles {
        if !t.is_positive() {
            return Cycles::ZERO;
        }
        (self.alpha * t + self.lag).min(t)
    }

    fn rate(&self) -> Rational {
        self.alpha
    }

    fn time_to_supply_min(&self, c: Cycles) -> Time {
        if !c.is_positive() {
            return Time::ZERO;
        }
        (c + self.lag) / self.alpha
    }

    fn time_to_supply_max(&self, c: Cycles) -> Time {
        if !c.is_positive() {
            return Time::ZERO;
        }
        // Need both t ≥ c (physical cap) and αt + L ≥ c.
        let fluid = (c - self.lag) / self.alpha;
        fluid.max(c).max(Time::ZERO)
    }
}

impl std::fmt::Display for QuantizedFluid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pfair(α={}, lag={})", self.alpha, self.lag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_curve_invariants;
    use hsched_numeric::rat;

    fn half_rate() -> QuantizedFluid {
        QuantizedFluid::new(rat(1, 2), rat(1, 1)).unwrap()
    }

    #[test]
    fn validation() {
        assert!(QuantizedFluid::new(rat(1, 2), Cycles::ZERO).is_ok());
        assert!(QuantizedFluid::new(Rational::ZERO, Cycles::ZERO).is_err());
        assert!(QuantizedFluid::new(rat(3, 2), Cycles::ZERO).is_err());
        assert!(QuantizedFluid::new(rat(1, 2), rat(-1, 1)).is_err());
    }

    #[test]
    fn bounds_track_fluid_within_lag() {
        let q = half_rate();
        for k in 0..=40 {
            let t = rat(k, 2);
            let fluid = rat(1, 2) * t;
            assert!(q.zmin(t) >= (fluid - rat(1, 1)).max(Cycles::ZERO));
            assert!(q.zmax(t) <= fluid + rat(1, 1));
        }
    }

    #[test]
    fn physical_cap_applies_to_zmax() {
        let q = half_rate();
        // At t = 1: fluid + lag = 1.5 but only 1 time unit elapsed.
        assert_eq!(q.zmax(rat(1, 1)), rat(1, 1));
        // At t = 4: fluid + lag = 3 < 4.
        assert_eq!(q.zmax(rat(4, 1)), rat(3, 1));
    }

    #[test]
    fn inverses() {
        let q = half_rate();
        // Worst case for 2 cycles: (2 + 1)/0.5 = 6.
        assert_eq!(q.time_to_supply_min(rat(2, 1)), rat(6, 1));
        assert_eq!(q.zmin(rat(6, 1)), rat(2, 1));
        // Best case for 2 cycles: max(2, (2−1)/0.5) = 2 (cap binds).
        assert_eq!(q.time_to_supply_max(rat(2, 1)), rat(2, 1));
        // Best case for 4 cycles: max(4, 6) = 6.
        assert_eq!(q.time_to_supply_max(rat(4, 1)), rat(6, 1));
    }

    #[test]
    fn linear_abstraction() {
        let lin = half_rate().to_linear();
        assert_eq!(lin.alpha(), rat(1, 2));
        assert_eq!(lin.delay(), rat(2, 1));
        assert_eq!(lin.burstiness(), rat(2, 1));
    }

    #[test]
    fn curve_invariants() {
        check_curve_invariants(&half_rate(), rat(30, 1));
        check_curve_invariants(
            &QuantizedFluid::new(rat(3, 4), rat(1, 2)).unwrap(),
            rat(30, 1),
        );
    }
}
