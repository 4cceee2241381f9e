//! Arbitrary piecewise-linear monotone curves: the building block for custom
//! supply models (measured traces, composed reservations).

use hsched_numeric::{Cycles, Rational, Time};

/// A non-decreasing piecewise-linear function through given breakpoints,
/// continuing after the last breakpoint with a configurable tail slope.
///
/// The first breakpoint must be `(0, 0)` for supply-function use, but the
/// type itself only requires monotonicity in both coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PiecewiseCurve {
    /// Breakpoints `(t, value)`, strictly increasing in `t`,
    /// non-decreasing in `value`.
    points: Vec<(Time, Cycles)>,
    /// Slope after the final breakpoint.
    tail_slope: Rational,
}

impl PiecewiseCurve {
    /// Builds a curve from breakpoints and the slope past the last one.
    pub fn new(
        points: Vec<(Time, Cycles)>,
        tail_slope: Rational,
    ) -> Result<PiecewiseCurve, String> {
        if points.is_empty() {
            return Err("piecewise curve needs at least one breakpoint".into());
        }
        if tail_slope.is_negative() {
            return Err(format!("tail slope must be ≥ 0, got {tail_slope}"));
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!(
                    "breakpoints must strictly increase in t: {} then {}",
                    w[0].0, w[1].0
                ));
            }
            if w[1].1 < w[0].1 {
                return Err(format!(
                    "breakpoint values must be non-decreasing: {} then {}",
                    w[0].1, w[1].1
                ));
            }
        }
        Ok(PiecewiseCurve { points, tail_slope })
    }

    /// The supply-function zero curve: single point `(0,0)`, tail slope α.
    pub fn linear(rate: Rational) -> PiecewiseCurve {
        PiecewiseCurve {
            points: vec![(Time::ZERO, Cycles::ZERO)],
            tail_slope: rate,
        }
    }

    /// Breakpoints of the curve.
    #[inline]
    pub fn points(&self) -> &[(Time, Cycles)] {
        &self.points
    }

    /// Slope after the last breakpoint.
    #[inline]
    pub fn tail_slope(&self) -> Rational {
        self.tail_slope
    }

    /// Evaluates the curve at `t`. Values before the first breakpoint are
    /// clamped to the first value.
    pub fn eval(&self, t: Time) -> Cycles {
        let (t0, v0) = self.points[0];
        if t <= t0 {
            return v0;
        }
        // Binary search for the segment containing t.
        let idx = self.points.partition_point(|&(bt, _)| bt <= t);
        let (lt, lv) = self.points[idx - 1];
        if idx == self.points.len() {
            return lv + self.tail_slope * (t - lt);
        }
        let (rt, rv) = self.points[idx];
        let slope = (rv - lv) / (rt - lt);
        lv + slope * (t - lt)
    }

    /// Least `t` with `eval(t) ≥ c`; `None` if the curve never reaches `c`
    /// (zero tail slope and all breakpoints below `c`).
    pub fn inverse(&self, c: Cycles) -> Option<Time> {
        let (t0, v0) = self.points[0];
        if c <= v0 {
            return Some(t0.min(Time::ZERO).max(Time::ZERO).min(t0));
        }
        for w in self.points.windows(2) {
            let (lt, lv) = w[0];
            let (rt, rv) = w[1];
            if c <= rv {
                if rv == lv {
                    // Flat segment; target reached exactly at its end only
                    // if c == rv, which the next segment start handles; here
                    // c <= rv and c > lv == rv is impossible, so c == rv.
                    return Some(rt);
                }
                let slope = (rv - lv) / (rt - lt);
                return Some(lt + (c - lv) / slope);
            }
        }
        let (lt, lv) = *self.points.last().expect("non-empty");
        if self.tail_slope.is_zero() {
            return None;
        }
        Some(lt + (c - lv) / self.tail_slope)
    }

    /// Pointwise minimum with another curve, sampled at the union of
    /// breakpoints (exact when crossings happen at breakpoints; otherwise a
    /// conservative under-approximation refined by the crossing points).
    pub fn pointwise_min(&self, other: &PiecewiseCurve) -> PiecewiseCurve {
        let mut ts: Vec<Time> = self
            .points
            .iter()
            .chain(other.points.iter())
            .map(|&(t, _)| t)
            .collect();
        // Add segment-crossing instants so the min is exact.
        ts.extend(self.crossings(other));
        // The tails are straight lines; if they cross past the last
        // breakpoint, that crossing is a kink of the min too.
        let tmax = ts.iter().copied().max().unwrap_or(Time::ZERO);
        let d0 = self.eval(tmax) - other.eval(tmax);
        let dslope = self.tail_slope - other.tail_slope;
        if !d0.is_zero() && !dslope.is_zero() {
            let t_star = tmax - d0 / dslope;
            if t_star > tmax {
                ts.push(t_star);
            }
        }
        ts.sort_unstable();
        ts.dedup();
        let pts = ts
            .into_iter()
            .map(|t| (t, self.eval(t).min(other.eval(t))))
            .collect();
        PiecewiseCurve {
            points: pts,
            tail_slope: self.tail_slope.min(other.tail_slope),
        }
    }

    /// Instants where the two curves cross (within the union breakpoint span).
    fn crossings(&self, other: &PiecewiseCurve) -> Vec<Time> {
        let mut ts: Vec<Time> = self
            .points
            .iter()
            .chain(other.points.iter())
            .map(|&(t, _)| t)
            .collect();
        ts.sort_unstable();
        ts.dedup();
        let mut out = Vec::new();
        for w in ts.windows(2) {
            let (a, b) = (w[0], w[1]);
            let fa = self.eval(a) - other.eval(a);
            let fb = self.eval(b) - other.eval(b);
            if (fa.is_positive() && fb.is_negative()) || (fa.is_negative() && fb.is_positive()) {
                // Linear on [a, b] for both: solve exactly.
                let num = fa;
                let den = fa - fb;
                let t = a + (b - a) * (num / den);
                out.push(t);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsched_numeric::rat;

    fn staircase() -> PiecewiseCurve {
        // (0,0) → (2,2) slope 1, flat to 5, then tail slope 0.4.
        PiecewiseCurve::new(
            vec![
                (rat(0, 1), rat(0, 1)),
                (rat(2, 1), rat(2, 1)),
                (rat(5, 1), rat(2, 1)),
            ],
            rat(2, 5),
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert!(PiecewiseCurve::new(vec![], rat(1, 1)).is_err());
        assert!(PiecewiseCurve::new(
            vec![(rat(0, 1), rat(0, 1)), (rat(0, 1), rat(1, 1))],
            rat(1, 1)
        )
        .is_err());
        assert!(PiecewiseCurve::new(
            vec![(rat(0, 1), rat(1, 1)), (rat(1, 1), rat(0, 1))],
            rat(1, 1)
        )
        .is_err());
        assert!(PiecewiseCurve::new(vec![(rat(0, 1), rat(0, 1))], rat(-1, 1)).is_err());
    }

    #[test]
    fn eval_segments_and_tail() {
        let c = staircase();
        assert_eq!(c.eval(rat(0, 1)), rat(0, 1));
        assert_eq!(c.eval(rat(1, 1)), rat(1, 1));
        assert_eq!(c.eval(rat(2, 1)), rat(2, 1));
        assert_eq!(c.eval(rat(3, 1)), rat(2, 1));
        assert_eq!(c.eval(rat(5, 1)), rat(2, 1));
        assert_eq!(c.eval(rat(10, 1)), rat(4, 1)); // 2 + 0.4·5
        assert_eq!(c.eval(rat(-3, 1)), rat(0, 1)); // clamped
    }

    #[test]
    fn inverse_hits_first_crossing() {
        let c = staircase();
        assert_eq!(c.inverse(rat(0, 1)), Some(rat(0, 1)));
        assert_eq!(c.inverse(rat(1, 1)), Some(rat(1, 1)));
        assert_eq!(c.inverse(rat(2, 1)), Some(rat(2, 1)));
        assert_eq!(c.inverse(rat(3, 1)), Some(rat(15, 2))); // 5 + 1/0.4
        let flat = PiecewiseCurve::new(
            vec![(rat(0, 1), rat(0, 1)), (rat(1, 1), rat(1, 1))],
            Rational::ZERO,
        )
        .unwrap();
        assert_eq!(flat.inverse(rat(2, 1)), None);
    }

    #[test]
    fn inverse_eval_galois() {
        let c = staircase();
        for k in 0..=20 {
            let v = rat(k, 4);
            if let Some(t) = c.inverse(v) {
                assert!(c.eval(t) >= v);
                // No earlier instant reaches v (check slightly before).
                if t.is_positive() {
                    let eps = rat(1, 1000);
                    assert!(c.eval(t - eps) < v, "inverse not minimal");
                }
            }
        }
    }

    #[test]
    fn linear_constructor() {
        let c = PiecewiseCurve::linear(rat(1, 2));
        assert_eq!(c.eval(rat(4, 1)), rat(2, 1));
        assert_eq!(c.inverse(rat(2, 1)), Some(rat(4, 1)));
    }

    #[test]
    fn pointwise_min_exact_at_crossings() {
        let a = PiecewiseCurve::linear(rat(1, 1));
        let b = PiecewiseCurve::new(
            vec![(rat(0, 1), rat(3, 1))], // constant 3 then slope 0.25
            rat(1, 4),
        )
        .unwrap();
        let m = a.pointwise_min(&b);
        // min(t, 3 + 0.25t): crossing at t = 4.
        assert_eq!(m.eval(rat(2, 1)), rat(2, 1));
        assert_eq!(m.eval(rat(4, 1)), rat(4, 1));
        assert_eq!(m.eval(rat(8, 1)), rat(5, 1));
    }
}
