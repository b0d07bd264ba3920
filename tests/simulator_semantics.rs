//! Property tests of the PRAM substrate itself: write-resolution
//! semantics, snapshot isolation of steps, combining operators, and the
//! hashing/compaction primitives — the foundations every algorithm result
//! rests on.

use logdiam::kit::compaction::compact;
use logdiam::kit::PairwiseHash;
use logdiam::pram::{CombineOp, Pram, WritePolicy, NULL};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// ARBITRARY: the winner of concurrent writes is always one of the
    /// written values, under every policy.
    #[test]
    fn winner_is_a_written_value(
        values in proptest::collection::vec(0u64..1000, 1..64),
        seed in any::<u64>(),
    ) {
        for policy in [
            WritePolicy::ArbitrarySeeded(seed),
            WritePolicy::PriorityMin,
            WritePolicy::PriorityMax,
        ] {
            let mut pram = Pram::new(policy);
            let cell = pram.alloc_filled(1, NULL);
            let vals = values.clone();
            pram.step(vals.len(), |p, ctx| {
                ctx.write(cell, 0, vals[p as usize]);
            });
            let got = pram.get(cell, 0);
            prop_assert!(values.contains(&got), "{policy:?} produced unwritten {got}");
        }
    }

    /// Steps are snapshot-isolated: reads never observe same-step writes.
    #[test]
    fn snapshot_isolation(n in 2usize..200, seed in any::<u64>()) {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let xs = pram.alloc_filled(n, 1);
        // Everyone doubles their right neighbour's value; with snapshot
        // isolation every cell is exactly 2 afterwards (no cascading).
        pram.step(n, |p, ctx| {
            let i = p as usize;
            let v = ctx.read(xs, (i + 1) % n);
            ctx.write(xs, i, v * 2);
        });
        prop_assert!(pram.read_vec(xs).iter().all(|&x| x == 2));
    }

    /// PRIORITY policies are exact.
    #[test]
    fn priority_exactness(n in 1usize..500) {
        let mut pram = Pram::new(WritePolicy::PriorityMin);
        let cell = pram.alloc_filled(1, NULL);
        pram.step(n, |p, ctx| ctx.write(cell, 0, p + 10));
        prop_assert_eq!(pram.get(cell, 0), 10);
        let mut pram = Pram::new(WritePolicy::PriorityMax);
        let cell = pram.alloc_filled(1, NULL);
        pram.step(n, |p, ctx| ctx.write(cell, 0, p + 10));
        prop_assert_eq!(pram.get(cell, 0), n as u64 + 9);
    }

    /// COMBINING sum/min/max/or match their sequential folds.
    #[test]
    fn combining_matches_sequential_fold(
        values in proptest::collection::vec(0u64..1_000_000, 1..128),
    ) {
        for (op, expect) in [
            (CombineOp::Sum, values.iter().sum::<u64>()),
            (CombineOp::Min, *values.iter().min().unwrap()),
            (CombineOp::Max, *values.iter().max().unwrap()),
            (CombineOp::Or, values.iter().fold(0, |a, b| a | b)),
        ] {
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
            let cell = pram.alloc_filled(1, 123);
            let vals = values.clone();
            pram.step_combine(vals.len(), op, |p, ctx| {
                ctx.write(cell, 0, vals[p as usize]);
            });
            prop_assert_eq!(pram.get(cell, 0), expect);
        }
    }

    /// Pairwise hashing: outputs in range; equal seeds ⇒ equal functions.
    #[test]
    fn hashing_range_and_determinism(seed in any::<u64>(), range in 1u64..10_000, x in any::<u64>()) {
        let h1 = PairwiseHash::new(seed, range);
        let h2 = PairwiseHash::new(seed, range);
        prop_assert!(h1.eval(x) < range);
        prop_assert_eq!(h1.eval(x), h2.eval(x));
    }

    /// Approximate compaction yields injective indices for any active set.
    #[test]
    fn compaction_always_injective(
        active_set in proptest::collection::hash_set(0usize..600, 0..200),
        seed in any::<u64>(),
    ) {
        let n = 600;
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let active = pram.alloc_filled(n, 0);
        for &v in &active_set {
            pram.set(active, v, 1);
        }
        let res = compact(&mut pram, active, seed).unwrap();
        let index = pram.read_vec(res.index);
        let mut used = HashSet::new();
        for (v, &idx) in index.iter().enumerate() {
            if active_set.contains(&v) {
                prop_assert!(idx != NULL);
                prop_assert!(used.insert(idx));
            } else {
                prop_assert_eq!(idx, NULL);
            }
        }
    }
}

/// Deterministic replay: identical machines (seeded policy) run an entire
/// multi-step program to identical memory states.
#[test]
fn deterministic_replay_of_programs() {
    let run = |seed: u64| {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let xs = pram.alloc_filled(256, 0);
        for round in 0..10u64 {
            pram.step(4096, |p, ctx| {
                let slot = ((p ^ round) % 256) as usize;
                let v = ctx.read(xs, slot);
                ctx.write(xs, (slot + 7) % 256, v + p);
            });
        }
        pram.read_vec(xs)
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}
