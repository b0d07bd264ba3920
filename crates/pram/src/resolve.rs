//! Concurrent-write resolution policies.
//!
//! The ARBITRARY CRCW PRAM guarantees only that *some* concurrent writer
//! succeeds. A correct algorithm therefore has to work for every possible
//! choice, and the strongest practical test of that property is to run the
//! same algorithm under many different resolution rules. This module defines
//! the rules the simulator supports.

use crate::splitmix64;

/// How concurrent writes to the same cell within one step are resolved.
///
/// The commit applies each cell's buffered writes in processor order
/// (ARCHITECTURE.md, "Running a step"), so the PRIORITY policies are
/// "first record wins" and "last record wins". `ArbitrarySeeded` is the
/// only rule whose winner does not depend on that order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// A deterministic pseudo-random winner: the write whose *value*
    /// hashes highest under `splitmix64(seed ⊕ f(addr, value))` wins
    /// (ties broken toward the larger value). The winner is a function
    /// of the written values alone, not of the order their records reach
    /// the cell, and the commit re-derives the incumbent's priority from
    /// the cell itself. This is the default policy; two different seeds
    /// are two different (legal) ARBITRARY machines.
    ArbitrarySeeded(u64),
    /// PRIORITY CRCW with the smallest processor id winning. The commit
    /// keeps a cell's first record, so when the winning processor wrote
    /// the cell more than once in the step, its *first* write stands.
    PriorityMin,
    /// PRIORITY CRCW with the largest processor id winning. The commit
    /// keeps a cell's last record, so when the winning processor wrote
    /// the cell more than once in the step, its *last* write stands.
    PriorityMax,
}

/// The commit rule for one step: the machine's policy, or the combining
/// operator of a [`crate::Pram::step_combine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Resolution {
    /// Value-hash priority (`ArbitrarySeeded`): the winner is
    /// recomputable from `(seed, addr, stored value)`. The only rule that
    /// does not depend on the order records reach the cell.
    Hashed(u64),
    /// The first record to reach the cell wins (`PriorityMin`).
    First,
    /// The last record to reach the cell wins (`PriorityMax`).
    Last,
    /// Every written value is folded into the cell (COMBINING).
    Combine(CombineOp),
}

/// The value-hash priority of a write under the seeded policy. Larger
/// wins; ties broken by the larger value (see `Resolution::Hashed`).
/// Deliberately a function of `(seed, addr, value)` only — never the
/// processor — so the incumbent's priority can be recomputed from the
/// committed cell.
#[inline]
pub(crate) fn hashed_prio(seed: u64, addr: u32, value: u64) -> u64 {
    splitmix64(seed ^ (addr as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ value.rotate_left(17))
}

impl WritePolicy {
    /// The commit resolution rule for this policy.
    #[inline]
    pub(crate) fn resolution(&self) -> Resolution {
        match *self {
            WritePolicy::ArbitrarySeeded(seed) => Resolution::Hashed(seed),
            WritePolicy::PriorityMin => Resolution::First,
            WritePolicy::PriorityMax => Resolution::Last,
        }
    }
}

/// Combining operators for the COMBINING CRCW PRAM ([`crate::Pram::step_combine`]).
///
/// When several processors write the same cell in a combining step, the
/// cell receives the combination of all written values (the cell's previous
/// content does not participate; this matches the model in §B of the paper,
/// where e.g. the number of ongoing vertices is obtained by every ongoing
/// vertex writing `1` to a fixed cell with `Sum`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CombineOp {
    /// Sum of all written values (wrapping in `u64`); a sum that does
    /// not fit a 32-bit word panics at commit.
    Sum,
    /// Minimum of all written values.
    Min,
    /// Maximum of all written values.
    Max,
    /// Bitwise OR of all written values.
    Or,
}

impl CombineOp {
    /// Identity element of the operator.
    #[inline]
    pub fn identity(&self) -> u64 {
        match self {
            CombineOp::Sum => 0,
            CombineOp::Min => u64::MAX,
            CombineOp::Max => 0,
            CombineOp::Or => 0,
        }
    }

    /// Apply the operator.
    #[inline]
    pub fn apply(&self, a: u64, b: u64) -> u64 {
        match self {
            CombineOp::Sum => a.wrapping_add(b),
            CombineOp::Min => a.min(b),
            CombineOp::Max => a.max(b),
            CombineOp::Or => a | b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashed_prio_is_deterministic_and_seed_sensitive() {
        assert_eq!(hashed_prio(1, 5, 7), hashed_prio(1, 5, 7));
        assert_ne!(hashed_prio(1, 5, 7), hashed_prio(2, 5, 7));
        assert_ne!(hashed_prio(1, 5, 7), hashed_prio(1, 6, 7));
        assert_ne!(hashed_prio(1, 5, 7), hashed_prio(1, 5, 8));
    }

    #[test]
    fn resolutions_match_policies() {
        assert_eq!(
            WritePolicy::ArbitrarySeeded(9).resolution(),
            Resolution::Hashed(9)
        );
        assert_eq!(WritePolicy::PriorityMin.resolution(), Resolution::First);
        assert_eq!(WritePolicy::PriorityMax.resolution(), Resolution::Last);
    }

    #[test]
    fn combine_identities_and_application() {
        assert_eq!(CombineOp::Sum.apply(CombineOp::Sum.identity(), 5), 5);
        assert_eq!(CombineOp::Min.apply(CombineOp::Min.identity(), 5), 5);
        assert_eq!(CombineOp::Max.apply(CombineOp::Max.identity(), 5), 5);
        assert_eq!(CombineOp::Or.apply(CombineOp::Or.identity(), 5), 5);
        assert_eq!(CombineOp::Sum.apply(2, 3), 5);
        assert_eq!(CombineOp::Min.apply(2, 3), 2);
        assert_eq!(CombineOp::Max.apply(2, 3), 3);
        assert_eq!(CombineOp::Or.apply(0b01, 0b10), 0b11);
    }
}
