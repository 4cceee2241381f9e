//! Exact supply staircases of a periodic server (Figure 3 of the paper).

use crate::{BoundedDelay, SupplyCurve};
use hsched_numeric::{Cycles, Rational, Time};

/// A periodic server granting a budget of `Q` cycles every period `P`
/// (polling server, periodic resource, CBS with hard reservation — all share
/// these bounds).
///
/// The **minimum** supply pattern (Figure 3, "(min)") starts right after a
/// budget that was scheduled as early as possible in its period, followed by
/// a budget scheduled as late as possible: an initial blackout of
/// `2(P − Q)`, then `Q` cycles at full speed each period.
///
/// The **maximum** pattern ("(max)") starts at the beginning of a budget that
/// was scheduled as late as possible, immediately followed by the next
/// period's budget: `2Q` cycles back-to-back, then `Q` each period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PeriodicServer {
    budget: Cycles,
    period: Time,
}

impl PeriodicServer {
    /// Creates a server; requires `0 < Q ≤ P`.
    pub fn new(budget: Cycles, period: Time) -> Result<PeriodicServer, String> {
        if !budget.is_positive() {
            return Err(format!("server budget must be > 0, got {budget}"));
        }
        if period < budget {
            return Err(format!(
                "server period must be ≥ budget, got Q={budget} > P={period}"
            ));
        }
        Ok(PeriodicServer { budget, period })
    }

    /// Budget `Q`.
    #[inline]
    pub fn budget(&self) -> Cycles {
        self.budget
    }

    /// Period `P`.
    #[inline]
    pub fn period(&self) -> Time {
        self.period
    }

    /// The worst-case initial blackout, `2(P − Q)`.
    #[inline]
    pub fn blackout(&self) -> Time {
        (self.period - self.budget) * Rational::from_integer(2)
    }

    /// The paper's linear abstraction of this server:
    /// `α = Q/P`, `Δ = 2(P − Q)`, `β = 2(P − Q)` (β in time units).
    pub fn to_linear(&self) -> BoundedDelay {
        let two = Rational::from_integer(2);
        let gap = self.period - self.budget;
        BoundedDelay::new(self.budget / self.period, two * gap, two * gap)
            .expect("valid server yields valid linear model")
    }

    /// Synthesizes the server `(Q, P)` whose linear abstraction meets a
    /// requested `(α, Δ)`: the largest period with `Q/P = α` and
    /// `2(P − Q) ≤ Δ`, i.e. `P = Δ / (2(1 − α))`, `Q = αP`.
    ///
    /// Returns `None` when `α ≥ 1` (a dedicated processor needs no server)
    /// or when `Δ = 0` with `α < 1` (unachievable by any periodic server).
    pub fn from_linear_params(alpha: Rational, delta: Time) -> Option<PeriodicServer> {
        if alpha >= Rational::ONE || !alpha.is_positive() {
            return None;
        }
        if !delta.is_positive() {
            return None;
        }
        let two = Rational::from_integer(2);
        let period = delta / (two * (Rational::ONE - alpha));
        let budget = alpha * period;
        PeriodicServer::new(budget, period).ok()
    }

    /// Bandwidth utilization `Q/P`.
    #[inline]
    pub fn utilization(&self) -> Rational {
        self.budget / self.period
    }
}

/// Evaluates the repeating staircase `k·Q + min(rem, Q)` with
/// `k = floor(t/P)`, `rem = t − kP`, for `t ≥ 0`.
fn staircase(budget: Cycles, period: Time, t: Time) -> Cycles {
    if !t.is_positive() {
        return Cycles::ZERO;
    }
    let k = (t / period).floor();
    let rem = t - period * Rational::from_integer(k);
    Cycles::from_integer(k) * budget + rem.min(budget)
}

/// Least `t ≥ 0` with `staircase(t) ≥ c`, for `c > 0`.
fn staircase_inverse(budget: Cycles, period: Time, c: Cycles) -> Time {
    debug_assert!(c.is_positive());
    // c = k·Q + r with r ∈ (0, Q]: the k complete periods plus r into the
    // (k+1)-th budget.
    let k = (c / budget).ceil() - 1;
    let r = c - Cycles::from_integer(k) * budget;
    period * Rational::from_integer(k) + r
}

impl SupplyCurve for PeriodicServer {
    fn zmin(&self, t: Time) -> Cycles {
        let d = self.blackout();
        if t <= d {
            return Cycles::ZERO;
        }
        staircase(self.budget, self.period, t - d)
    }

    fn zmax(&self, t: Time) -> Cycles {
        if t <= Time::ZERO {
            return Cycles::ZERO;
        }
        if t <= self.budget {
            return t;
        }
        // After the first back-to-back budget, early budgets every period.
        self.budget + staircase(self.budget, self.period, t - self.budget)
    }

    fn rate(&self) -> Rational {
        self.budget / self.period
    }

    fn time_to_supply_min(&self, c: Cycles) -> Time {
        if !c.is_positive() {
            return Time::ZERO;
        }
        self.blackout() + staircase_inverse(self.budget, self.period, c)
    }

    fn time_to_supply_max(&self, c: Cycles) -> Time {
        if !c.is_positive() {
            return Time::ZERO;
        }
        if c <= self.budget {
            return c;
        }
        self.budget + staircase_inverse(self.budget, self.period, c - self.budget)
    }

    fn breakpoints(&self, horizon: Time) -> Vec<Time> {
        let mut points = vec![Time::ZERO];
        let d = self.blackout();
        let mut base = Time::ZERO;
        while base <= horizon {
            // zmin slope changes at d + kP (start serving) and d + kP + Q.
            points.push(d + base);
            points.push(d + base + self.budget);
            // zmax slope changes at Q + kP and at kP boundaries of its runs.
            points.push(self.budget + base);
            points.push(self.budget + base + self.budget);
            base += self.period;
        }
        points.retain(|&p| p <= horizon);
        points.sort_unstable();
        points.dedup();
        points
    }
}

impl std::fmt::Display for PeriodicServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server(Q={}, P={})", self.budget, self.period)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_curve_invariants;
    use hsched_numeric::rat;

    fn q2p5() -> PeriodicServer {
        PeriodicServer::new(rat(2, 1), rat(5, 1)).unwrap()
    }

    #[test]
    fn construction_validation() {
        assert!(PeriodicServer::new(rat(2, 1), rat(5, 1)).is_ok());
        assert!(PeriodicServer::new(rat(5, 1), rat(5, 1)).is_ok()); // full CPU
        assert!(PeriodicServer::new(Cycles::ZERO, rat(5, 1)).is_err());
        assert!(PeriodicServer::new(rat(6, 1), rat(5, 1)).is_err());
    }

    #[test]
    fn zmin_blackout_then_staircase() {
        let s = q2p5();
        // Blackout 2(P−Q) = 6.
        assert_eq!(s.blackout(), rat(6, 1));
        assert_eq!(s.zmin(rat(6, 1)), Cycles::ZERO);
        assert_eq!(s.zmin(rat(3, 1)), Cycles::ZERO);
        // Then slope 1 for Q=2: zmin(7)=1, zmin(8)=2, plateau to 6+5=11.
        assert_eq!(s.zmin(rat(7, 1)), rat(1, 1));
        assert_eq!(s.zmin(rat(8, 1)), rat(2, 1));
        assert_eq!(s.zmin(rat(10, 1)), rat(2, 1));
        assert_eq!(s.zmin(rat(11, 1)), rat(2, 1));
        assert_eq!(s.zmin(rat(12, 1)), rat(3, 1));
        assert_eq!(s.zmin(rat(13, 1)), rat(4, 1));
    }

    #[test]
    fn zmax_burst_then_staircase() {
        let s = q2p5();
        // 2Q back-to-back: slope 1 to t=4.
        assert_eq!(s.zmax(rat(1, 1)), rat(1, 1));
        assert_eq!(s.zmax(rat(4, 1)), rat(4, 1));
        // Plateau until Q+P=7, then slope 1 again.
        assert_eq!(s.zmax(rat(7, 1)), rat(4, 1));
        assert_eq!(s.zmax(rat(8, 1)), rat(5, 1));
        assert_eq!(s.zmax(rat(9, 1)), rat(6, 1));
        assert_eq!(s.zmax(rat(12, 1)), rat(6, 1));
    }

    #[test]
    fn inverses_are_exact() {
        let s = q2p5();
        // 3 cycles worst-case: blackout 6 + one full period 5 + 1 = 12.
        assert_eq!(s.time_to_supply_min(rat(3, 1)), rat(12, 1));
        assert_eq!(s.zmin(rat(12, 1)), rat(3, 1));
        // Exactly Q cycles: 6 + 2.
        assert_eq!(s.time_to_supply_min(rat(2, 1)), rat(8, 1));
        // Best case 3 cycles: 2 back-to-back… 3 ≤ 2Q=4 → t = 3.
        assert_eq!(s.time_to_supply_max(rat(3, 1)), rat(3, 1));
        // Best case 5 cycles: 2 + inverse(3 over staircase) = 2 + 5 + 1 = 8.
        assert_eq!(s.time_to_supply_max(rat(5, 1)), rat(8, 1));
    }

    #[test]
    fn linear_abstraction_brackets_staircase() {
        let s = q2p5();
        let lin = s.to_linear();
        assert_eq!(lin.alpha(), rat(2, 5));
        assert_eq!(lin.delay(), rat(6, 1));
        assert_eq!(lin.burstiness(), rat(6, 1));
        for k in 0..=400 {
            let t = rat(k, 8);
            assert!(
                lin.zmin(t) <= s.zmin(t),
                "linear zmin above staircase at {t}"
            );
            assert!(
                lin.zmax(t) >= s.zmax(t),
                "linear zmax below staircase at {t}"
            );
        }
        // Tightness: the bounds touch the staircase.
        // zmin touches at the end of each plateau: t = d + P = 11.
        assert_eq!(lin.zmin(rat(11, 1)), s.zmin(rat(11, 1)));
        // zmax touches at the end of the initial burst: t = 2Q = 4.
        assert_eq!(lin.zmax(rat(4, 1)), s.zmax(rat(4, 1)));
    }

    #[test]
    fn full_processor_degenerate_case() {
        let s = PeriodicServer::new(rat(5, 1), rat(5, 1)).unwrap();
        for k in 0..40 {
            let t = rat(k, 2);
            assert_eq!(s.zmin(t), t);
            assert_eq!(s.zmax(t), t);
        }
        let lin = s.to_linear();
        assert_eq!(lin.alpha(), Rational::ONE);
        assert_eq!(lin.delay(), Time::ZERO);
    }

    #[test]
    fn from_linear_params_roundtrip() {
        // α=0.4, Δ=6 → P = 6/(2·0.6) = 5, Q = 2.
        let s = PeriodicServer::from_linear_params(rat(2, 5), rat(6, 1)).unwrap();
        assert_eq!(s.budget(), rat(2, 1));
        assert_eq!(s.period(), rat(5, 1));
        let lin = s.to_linear();
        assert_eq!(lin.alpha(), rat(2, 5));
        assert_eq!(lin.delay(), rat(6, 1));
        // Degenerate requests.
        assert!(PeriodicServer::from_linear_params(Rational::ONE, rat(6, 1)).is_none());
        assert!(PeriodicServer::from_linear_params(rat(2, 5), Time::ZERO).is_none());
    }

    #[test]
    fn rate_is_long_run_slope() {
        let s = q2p5();
        // Zmin(t)/t and Zmax(t)/t converge to α = 0.4.
        let big = rat(5_000, 1);
        let lo = s.zmin(big) / big;
        let hi = s.zmax(big) / big;
        assert!((lo - rat(2, 5)).abs() < rat(1, 100));
        assert!((hi - rat(2, 5)).abs() < rat(1, 100));
        assert_eq!(s.rate(), rat(2, 5));
        assert_eq!(s.utilization(), rat(2, 5));
    }

    #[test]
    fn curve_invariants() {
        check_curve_invariants(&q2p5(), rat(60, 1));
        check_curve_invariants(
            &PeriodicServer::new(rat(1, 2), rat(7, 2)).unwrap(),
            rat(50, 1),
        );
        check_curve_invariants(
            &PeriodicServer::new(rat(5, 1), rat(5, 1)).unwrap(),
            rat(30, 1),
        );
    }

    #[test]
    fn breakpoints_cover_slope_changes() {
        let s = q2p5();
        let pts = s.breakpoints(rat(20, 1));
        assert!(pts.contains(&rat(6, 1))); // zmin starts
        assert!(pts.contains(&rat(8, 1))); // zmin plateau
        assert!(pts.contains(&rat(4, 1))); // zmax plateau after burst
        assert!(pts.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
    }
}
