//! Supply curves measured from a running platform rather than derived from
//! a mechanism's closed form.
//!
//! In deployment, a component's reservation is often implemented by an
//! opaque hypervisor or OS mechanism; what *is* observable is the cycle
//! count delivered over sliding windows. [`EmpiricalSupply`] turns such
//! measurements — a conservative lower envelope and an upper envelope over
//! one repetition period, plus the long-run rate — into a [`SupplyCurve`]
//! usable everywhere a closed-form mechanism is: analysis (both service
//! modes), linear-bound extraction, platform construction.

use crate::{PiecewiseCurve, SupplyCurve};
use hsched_numeric::{Cycles, Rational, Time};

/// A measured supply-curve pair, periodic after a measured prefix:
/// for `t` beyond the measured horizon `H`, the curves continue as
/// `curve(t) = curve(t − k·P) + k·(α·P)` where `P` is the repetition period.
///
/// Invariants checked at construction:
/// * both envelopes start at `(0, 0)` and are non-decreasing;
/// * `min(t) ≤ max(t)` at every breakpoint of either curve;
/// * the measured horizon covers at least one period;
/// * the per-period gain of both envelopes equals `α·P` (otherwise the
///   periodic extension would drift away from the measurement).
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalSupply {
    min_curve: PiecewiseCurve,
    max_curve: PiecewiseCurve,
    period: Time,
    rate: Rational,
}

impl EmpiricalSupply {
    /// Builds an empirical supply from measured envelopes.
    ///
    /// `min_points` / `max_points` are breakpoints over `[0, period]`
    /// (values in cycles); `rate` is the long-run rate α.
    pub fn new(
        min_points: Vec<(Time, Cycles)>,
        max_points: Vec<(Time, Cycles)>,
        period: Time,
        rate: Rational,
    ) -> Result<EmpiricalSupply, String> {
        if !period.is_positive() {
            return Err("measurement period must be positive".into());
        }
        if !rate.is_positive() || rate > Rational::ONE {
            return Err(format!("rate must satisfy 0 < α ≤ 1, got {rate}"));
        }
        let per_period = rate * period;
        let check_envelope = |points: &[(Time, Cycles)], what: &str| -> Result<(), String> {
            let Some(&(t0, v0)) = points.first() else {
                return Err(format!("{what} envelope needs breakpoints"));
            };
            if !t0.is_zero() || !v0.is_zero() {
                return Err(format!("{what} envelope must start at (0, 0)"));
            }
            let &(tn, vn) = points.last().expect("non-empty");
            if tn != period {
                return Err(format!(
                    "{what} envelope must extend exactly to the period {period}, ends at {tn}"
                ));
            }
            if vn != per_period {
                return Err(format!(
                    "{what} envelope gains {vn} per period but α·P = {per_period}; \
                     the periodic extension would drift"
                ));
            }
            Ok(())
        };
        check_envelope(&min_points, "min")?;
        check_envelope(&max_points, "max")?;
        let min_curve = PiecewiseCurve::new(min_points, rate)?;
        let max_curve = PiecewiseCurve::new(max_points, rate)?;
        // Pointwise ordering at the union of breakpoints (exact for
        // piecewise-linear curves: between breakpoints both are linear and
        // agree at endpoints, so a crossing would show at a breakpoint of
        // the union or be preserved on the whole segment).
        let mut ts: Vec<Time> = min_curve
            .points()
            .iter()
            .chain(max_curve.points())
            .map(|&(t, _)| t)
            .collect();
        ts.sort_unstable();
        ts.dedup();
        for &t in &ts {
            if min_curve.eval(t) > max_curve.eval(t) {
                return Err(format!("min envelope exceeds max envelope at t = {t}"));
            }
        }
        Ok(EmpiricalSupply {
            min_curve,
            max_curve,
            period,
            rate,
        })
    }

    /// The repetition period of the measurement.
    #[inline]
    pub fn period(&self) -> Time {
        self.period
    }

    /// Evaluates one envelope with periodic extension.
    fn eval_periodic(&self, curve: &PiecewiseCurve, t: Time) -> Cycles {
        if t <= Time::ZERO {
            return Cycles::ZERO;
        }
        let k = (t / self.period).floor();
        let rem = t - self.period * Rational::from_integer(k);
        curve.eval(rem) + self.rate * self.period * Rational::from_integer(k)
    }

    /// Least `t` with the periodic extension of `curve` reaching `c`.
    fn inverse_periodic(&self, curve: &PiecewiseCurve, c: Cycles) -> Time {
        if !c.is_positive() {
            return Time::ZERO;
        }
        let per_period = self.rate * self.period;
        let k = (c / per_period).ceil() - 1;
        let base = per_period * Rational::from_integer(k);
        let rem = c - base;
        // rem ∈ (0, per_period]; the within-period envelope reaches it.
        let t = curve
            .inverse(rem)
            .expect("envelope reaches α·P within one period");
        self.period * Rational::from_integer(k) + t
    }
}

impl SupplyCurve for EmpiricalSupply {
    fn zmin(&self, t: Time) -> Cycles {
        self.eval_periodic(&self.min_curve, t)
    }

    fn zmax(&self, t: Time) -> Cycles {
        self.eval_periodic(&self.max_curve, t)
    }

    fn rate(&self) -> Rational {
        self.rate
    }

    fn time_to_supply_min(&self, c: Cycles) -> Time {
        self.inverse_periodic(&self.min_curve, c)
    }

    fn time_to_supply_max(&self, c: Cycles) -> Time {
        self.inverse_periodic(&self.max_curve, c)
    }

    fn breakpoints(&self, horizon: Time) -> Vec<Time> {
        let mut points = Vec::new();
        let mut base = Time::ZERO;
        while base <= horizon {
            for &(t, _) in self
                .min_curve
                .points()
                .iter()
                .chain(self.max_curve.points())
            {
                let x = base + t;
                if x <= horizon {
                    points.push(x);
                }
            }
            base += self.period;
        }
        points.sort_unstable();
        points.dedup();
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_curve_invariants, extract_linear_bounds, PeriodicServer};
    use hsched_numeric::rat;

    /// A measured Q=2/P=5 server: worst window sees nothing for 3 then 2 at
    /// speed 1 (a pessimistic but valid measurement of the real blackout 6
    /// folded into one period would not close; we measure the *repeating*
    /// part: gap 3, then slope 1 for 2).
    fn measured() -> EmpiricalSupply {
        EmpiricalSupply::new(
            vec![
                (rat(0, 1), rat(0, 1)),
                (rat(3, 1), rat(0, 1)),
                (rat(5, 1), rat(2, 1)),
            ],
            vec![
                (rat(0, 1), rat(0, 1)),
                (rat(2, 1), rat(2, 1)),
                (rat(5, 1), rat(2, 1)),
            ],
            rat(5, 1),
            rat(2, 5),
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        // Envelope not reaching α·P per period drifts.
        let err = EmpiricalSupply::new(
            vec![(rat(0, 1), rat(0, 1)), (rat(5, 1), rat(1, 1))],
            vec![(rat(0, 1), rat(0, 1)), (rat(5, 1), rat(2, 1))],
            rat(5, 1),
            rat(2, 5),
        )
        .unwrap_err();
        assert!(err.contains("drift"));
        // Min above max rejected.
        let err = EmpiricalSupply::new(
            vec![
                (rat(0, 1), rat(0, 1)),
                (rat(1, 1), rat(2, 1)),
                (rat(5, 1), rat(2, 1)),
            ],
            vec![
                (rat(0, 1), rat(0, 1)),
                (rat(4, 1), rat(0, 1)),
                (rat(5, 1), rat(2, 1)),
            ],
            rat(5, 1),
            rat(2, 5),
        )
        .unwrap_err();
        assert!(err.contains("exceeds max"));
        // Must start at origin and end at the period.
        assert!(EmpiricalSupply::new(
            vec![(rat(1, 1), rat(0, 1)), (rat(5, 1), rat(2, 1))],
            vec![(rat(0, 1), rat(0, 1)), (rat(5, 1), rat(2, 1))],
            rat(5, 1),
            rat(2, 5),
        )
        .is_err());
    }

    #[test]
    fn periodic_extension() {
        let m = measured();
        assert_eq!(m.zmin(rat(5, 1)), rat(2, 1));
        assert_eq!(m.zmin(rat(10, 1)), rat(4, 1));
        assert_eq!(m.zmin(rat(13, 1)), rat(4, 1)); // 2 periods + gap
        assert_eq!(m.zmin(rat(14, 1)), rat(5, 1));
        assert_eq!(m.zmax(rat(7, 1)), rat(4, 1)); // 2 + next burst
        assert_eq!(m.zmax(rat(12, 1)), rat(6, 1));
    }

    #[test]
    fn inverses() {
        let m = measured();
        // 3 cycles worst case: one period (2 cycles) + gap 3 + 1 = 9.
        assert_eq!(m.time_to_supply_min(rat(3, 1)), rat(9, 1));
        assert_eq!(m.zmin(rat(9, 1)), rat(3, 1));
        // Best case 3 cycles: 2 immediately, 1 more at 5+1.
        assert_eq!(m.time_to_supply_max(rat(3, 1)), rat(6, 1));
    }

    #[test]
    fn curve_invariants_hold() {
        check_curve_invariants(&measured(), rat(30, 1));
    }

    #[test]
    fn linear_extraction_works_on_measurements() {
        let m = measured();
        let lb = extract_linear_bounds(&m, rat(20, 1));
        assert_eq!(lb.model.alpha(), rat(2, 5));
        // Worst gap 3, fluid catch-up at period end: Δ = 3·(P/(P−…)) — check
        // by bracketing instead of a closed form.
        for k in 0..=80 {
            let t = rat(k, 4);
            assert!(lb.model.zmin(t) <= m.zmin(t));
            assert!(lb.model.zmax(t) >= m.zmax(t));
        }
    }

    #[test]
    fn tighter_than_worst_case_server_model() {
        // The measurement (gap ≤ 3) is tighter than the a-priori server
        // envelope (blackout 6): the measured zmin dominates.
        let server = PeriodicServer::new(rat(2, 1), rat(5, 1)).unwrap();
        let m = measured();
        for k in 0..=60 {
            let t = rat(k, 2);
            assert!(
                m.zmin(t) >= server.zmin(t),
                "measurement below server floor at {t}"
            );
        }
    }
}
