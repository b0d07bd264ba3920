//! Approximate compaction (Lemma D.2 / Goodrich '91).
//!
//! Given an array with `k` *distinguished* cells, map each distinguished
//! cell one-to-one into an array of length `O(k)`. The paper uses this to
//! (a) rename ongoing vertices into `[2m/ log^c n]` in COMPACT and (b)
//! index the roots of each level in Step 8 of EXPAND-MAXLINK so they can
//! be assigned pre-determined processor blocks.
//!
//! Two forms:
//!
//! * [`compact`] runs the protocol on the machine, hash-with-retry: each
//!   unplaced distinguished item hashes into the output array with a fresh
//!   pairwise-independent function, concurrent writers are resolved by the
//!   ARBITRARY write rule, winners claim their slot, losers retry. With
//!   load factor ≤ 1/2 a constant fraction places per round, so `O(log k)`
//!   rounds suffice whp (measured in [`CompactionResult::rounds`];
//!   typically < 10), and every round is charged. Experiment E13 sets it
//!   against prefix-sum compaction.
//! * [`compact_over`] is what the drivers use: a predicate step over a
//!   controller-side list, plus the constant time bound of Lemma D.2 for
//!   the placement. The paper's setting guarantees `n log n` processors per
//!   compaction, under which Goodrich's algorithm is O(1)-time
//!   (ARCHITECTURE.md, "The charge / live-work accounting model").

use crate::hashing::PairwiseHash;
use crate::ops::{host_count, Flag};
use pram_sim::{Ctx, Handle, Pram, NULL};

/// Output of [`compact`].
#[derive(Debug)]
pub struct CompactionResult {
    /// `index[v] = slot` for distinguished `v`, `NULL` otherwise;
    /// slots are unique and `< cap`.
    pub index: Handle,
    /// `slots[j] = v` if distinguished `v` was placed at `j`, else `NULL`.
    pub slots: Handle,
    /// Length of `slots` (a power of two, ≥ 2k).
    pub cap: usize,
    /// Retry rounds actually executed.
    pub rounds: u64,
}

impl CompactionResult {
    /// Release the result arrays.
    pub fn free(self, pram: &mut Pram) {
        pram.free(self.index);
        pram.free(self.slots);
    }
}

/// Errors from [`compact`].
#[derive(Debug, PartialEq, Eq)]
pub enum CompactionError {
    /// The retry loop failed to place every item within the round budget
    /// (astronomically unlikely with healthy hashing; surfaced rather than
    /// looping forever so tests can exercise adversarial seeds).
    RoundBudgetExceeded {
        /// Items still unplaced when the budget ran out.
        unplaced: usize,
    },
}

/// Maximum retry rounds before giving up.
const MAX_ROUNDS: u64 = 64;

/// Approximate compaction over the distinguished cells of `active`
/// (`active[v] != 0` marks `v` distinguished).
///
/// Returns per-item slot indices that are unique within `[0, cap)` with
/// `cap ≤ max(4, 4k)`. Each retry round is two steps at `active.len()`
/// processors, charged as executed.
pub fn compact(
    pram: &mut Pram,
    active: Handle,
    seed: u64,
) -> Result<CompactionResult, CompactionError> {
    let n = active.len();
    let k = host_count(pram, active, |x| x != 0);
    let cap = (2 * k).next_power_of_two().max(4);
    let index = pram.alloc_filled(n, NULL);
    let slots = pram.alloc_filled(cap, NULL);
    let taken = pram.alloc_filled(cap, 0);
    let unplaced_flag = Flag::new(pram);

    let mut rounds = 0;
    let mut done = k == 0;
    while !done {
        if rounds >= MAX_ROUNDS {
            let unplaced =
                host_count(pram, index, |x| x == NULL) - host_count(pram, active, |x| x == 0);
            pram.free(taken);
            unplaced_flag.free(pram);
            return Err(CompactionError::RoundBudgetExceeded { unplaced });
        }
        let h = PairwiseHash::new(seed ^ (rounds.wrapping_mul(0x9E37_79B9)), cap as u64);
        // Step A: every unplaced distinguished item bids for a free slot.
        pram.step(n, |v, ctx| {
            if ctx.read(active, v as usize) == 0 || ctx.read(index, v as usize) != NULL {
                return;
            }
            let slot = h.eval(v) as usize;
            if ctx.read(taken, slot) == 0 {
                ctx.write(slots, slot, v);
            }
        });
        // Step B: winners claim; losers raise the retry flag.
        unplaced_flag.clear(pram);
        pram.step(n, |v, ctx| {
            if ctx.read(active, v as usize) == 0 || ctx.read(index, v as usize) != NULL {
                return;
            }
            let slot = h.eval(v) as usize;
            if ctx.read(taken, slot) == 0 && ctx.read(slots, slot) == v {
                ctx.write(index, v as usize, slot as u64);
                ctx.write(taken, slot, 1);
            } else {
                unplaced_flag.raise(ctx);
            }
        });
        rounds += 1;
        done = !unplaced_flag.read(pram);
    }

    pram.free(taken);
    unplaced_flag.free(pram);
    Ok(CompactionResult {
        index,
        slots,
        cap,
        rounds,
    })
}

/// Charged compaction over an *index slice* — the controller-side variant
/// of [`compact`] that live-work schedulers use to refresh their compacted
/// lists (the per-round Lemma-D.2 step).
///
/// `items` is the previous compacted list (a host mirror of the array the
/// last compaction produced). One simulated processor per item evaluates
/// `keep` against the pre-step memory image — every `ctx` read is counted —
/// and flags survivors; the survivors are then placed into a dense output
/// array, charged at the Lemma-D.2 bound: O(1) steps, here 4, at
/// `items.len()` processors, where [`compact`] executes and charges its
/// retry rounds. (The paper's alternative is
/// [`crate::prefix::exclusive_prefix_sum`] ranks at `Ω(log)` steps, which
/// is exactly what limited-collision hashing avoids.) The returned vector
/// is the host mirror of that dense array, in stable first-seen order so
/// runs stay deterministic and thread-count invariant.
///
/// Total charge: 1 step (predicate) + 4 steps (placement), both at
/// `items.len()` processors — O(live), never O(n + m).
///
/// # Example
///
/// ```
/// use pram_kit::compaction::compact_over;
/// use pram_sim::{Pram, WritePolicy};
///
/// let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(7));
/// let items: Vec<u32> = (0..8).collect();
/// // Keep the even items; the survivors come back dense, in first-seen
/// // order, and the step was charged at 8 processors (the live count).
/// let kept = compact_over(&mut pram, &items, |_p, &x, _ctx| x % 2 == 0);
/// assert_eq!(kept, vec![0, 2, 4, 6]);
/// ```
pub fn compact_over<T, F>(pram: &mut Pram, items: &[T], keep: F) -> Vec<T>
where
    T: Copy + Sync,
    F: Fn(u64, &T, &mut Ctx) -> bool + Send + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let flags = pram.alloc(items.len());
    pram.step_over(items, |p, it, ctx| {
        if keep(p, it, ctx) {
            ctx.write(flags, p as usize, 1);
        }
    });
    pram.charge(items.len(), 4); // Lemma D.2: placement in O(1) charged time
    let out: Vec<T> = {
        let fl = pram.view(flags);
        items
            .iter()
            .zip(fl.iter())
            .filter(|&(_, f)| f != 0)
            .map(|(&it, _)| it)
            .collect()
    };
    pram.free(flags);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram_sim::WritePolicy;
    use std::collections::HashSet;

    fn run_compaction(
        n: usize,
        distinguished: &[usize],
        policy: WritePolicy,
        seed: u64,
    ) -> (Pram, CompactionResult) {
        let mut pram = Pram::new(policy);
        let active = pram.alloc_filled(n, 0);
        for &v in distinguished {
            pram.set(active, v, 1);
        }
        let res = compact(&mut pram, active, seed).expect("compaction");
        (pram, res)
    }

    fn check_valid(pram: &Pram, res: &CompactionResult, distinguished: &HashSet<usize>) {
        let index = pram.read_vec(res.index);
        let mut used = HashSet::new();
        for (v, &slot) in index.iter().enumerate() {
            if distinguished.contains(&v) {
                assert_ne!(slot, NULL, "vertex {v} unplaced");
                assert!((slot as usize) < res.cap);
                assert!(used.insert(slot), "slot {slot} assigned twice");
                assert_eq!(pram.get(res.slots, slot as usize), v as u64);
            } else {
                assert_eq!(index[v], NULL, "non-distinguished {v} got a slot");
            }
        }
    }

    #[test]
    fn compacts_sparse_set_uniquely() {
        let n = 1000;
        let distinguished: Vec<usize> = (0..n).step_by(17).collect();
        let set: HashSet<usize> = distinguished.iter().copied().collect();
        let (pram, res) = run_compaction(n, &distinguished, WritePolicy::ArbitrarySeeded(1), 9);
        assert!(res.cap <= 4 * distinguished.len());
        check_valid(&pram, &res, &set);
    }

    #[test]
    fn works_under_all_policies() {
        let n = 500;
        let distinguished: Vec<usize> = (0..n).filter(|v| v % 3 == 0).collect();
        let set: HashSet<usize> = distinguished.iter().copied().collect();
        for policy in [
            WritePolicy::ArbitrarySeeded(7),
            WritePolicy::PriorityMin,
            WritePolicy::PriorityMax,
            WritePolicy::Racy,
        ] {
            let (pram, res) = run_compaction(n, &distinguished, policy, 3);
            check_valid(&pram, &res, &set);
        }
    }

    #[test]
    fn rounds_stay_small_across_seeds() {
        let n = 4000;
        let distinguished: Vec<usize> = (0..n).filter(|v| v % 2 == 0).collect();
        for seed in 0..10 {
            let (_, res) =
                run_compaction(n, &distinguished, WritePolicy::ArbitrarySeeded(seed), seed);
            assert!(res.rounds <= 16, "seed {seed}: rounds {}", res.rounds);
        }
    }

    #[test]
    fn empty_set_is_trivial() {
        let (pram, res) = run_compaction(64, &[], WritePolicy::ArbitrarySeeded(1), 1);
        assert_eq!(res.rounds, 0);
        assert!(pram.read_vec(res.index).iter().all(|&x| x == NULL));
    }

    #[test]
    fn all_distinguished_still_unique() {
        let n = 256;
        let distinguished: Vec<usize> = (0..n).collect();
        let set: HashSet<usize> = distinguished.iter().copied().collect();
        let (pram, res) = run_compaction(n, &distinguished, WritePolicy::ArbitrarySeeded(5), 11);
        check_valid(&pram, &res, &set);
    }

    #[test]
    fn compact_over_keeps_matching_items_in_order() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let xs = pram.alloc(16);
        for i in 0..16 {
            pram.set(xs, i, (i % 3) as u64);
        }
        let items: Vec<u32> = (0..16).collect();
        pram.reset_stats();
        let kept = compact_over(&mut pram, &items, move |_, &i, ctx| {
            ctx.read(xs, i as usize) == 0
        });
        assert_eq!(kept, vec![0, 3, 6, 9, 12, 15]);
        // 1 predicate step + 4 charged placement steps, all at 16 procs.
        let s = pram.stats();
        assert_eq!(s.steps, 5);
        assert_eq!(s.work, 16 * 5);
    }

    #[test]
    fn compact_over_empty_is_free() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let items: Vec<u32> = Vec::new();
        let kept = compact_over(&mut pram, &items, |_, &_i, _ctx| unreachable!());
        assert!(kept.is_empty());
        assert_eq!(pram.stats().work, 0);
    }

    #[test]
    fn compact_over_charges_live_size_not_array_size() {
        // The predicate reads into a huge array, but the charge tracks the
        // (small) index slice — the whole point of the live-work variant.
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(5));
        let big = pram.alloc(1 << 16);
        pram.set(big, 77, 1);
        let items: Vec<u32> = vec![3, 77, 1000];
        pram.reset_stats();
        let kept = compact_over(&mut pram, &items, move |_, &i, ctx| {
            ctx.read(big, i as usize) != 0
        });
        assert_eq!(kept, vec![77]);
        assert_eq!(pram.stats().work, 3 * 5);
    }

    #[test]
    fn deterministic_under_seeded_policy() {
        let n = 300;
        let distinguished: Vec<usize> = (0..n).step_by(3).collect();
        let (p1, r1) = run_compaction(n, &distinguished, WritePolicy::ArbitrarySeeded(42), 13);
        let (p2, r2) = run_compaction(n, &distinguished, WritePolicy::ArbitrarySeeded(42), 13);
        assert_eq!(p1.read_vec(r1.index), p2.read_vec(r2.index));
    }
}
