//! Lock classes: a lock's position in a documented acquisition order.
//!
//! The validator does not discover an order — it checks every runtime
//! acquisition against the order the system *documents* (for the engine,
//! the `routing → core → gate` chain in `docs/ARCHITECTURE.md`). Classes
//! are ranked by a `(major, minor)` pair: acquisitions must be strictly
//! ascending in major rank, and strictly ascending in minor rank within
//! one major rank.

/// Major rank reserved for locks that opt out of order checking
/// entirely (scratch cells, ad-hoc job queues).
pub const UNRANKED: u16 = u16::MAX;

/// A lock's position in the documented acquisition order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockClass {
    /// Human-readable class name, used verbatim in reports.
    pub name: &'static str,
    /// Major rank: acquisitions must be strictly ascending. [`UNRANKED`]
    /// skips checking.
    pub major: u16,
    /// Minor rank inside one major rank (e.g. an index into a family of
    /// sibling locks): must also be strictly ascending.
    pub minor: u32,
}

impl LockClass {
    /// A class excluded from order validation (still tracked for condvar
    /// hold checks and deadlock display).
    pub const fn unranked(name: &'static str) -> LockClass {
        LockClass {
            name,
            major: UNRANKED,
            minor: 0,
        }
    }

    /// A class at `(major, minor)` in the documented order.
    pub const fn ranked(name: &'static str, major: u16, minor: u32) -> LockClass {
        LockClass { name, major, minor }
    }

    /// Display form used in reports: `` `name` (rank major.minor)``.
    pub fn display(&self) -> String {
        if self.major == UNRANKED {
            format!("`{}` (unranked)", self.name)
        } else {
            format!("`{}` (rank {}.{})", self.name, self.major, self.minor)
        }
    }
}
