//! E13 (supplementary) — why hashing: prefix-sum compaction pays
//! `Θ(log n)` simulated steps where hashing-based approximate compaction
//! stays flat.
//!
//! This is the quantitative form of the paper's central argument (§1):
//! the MPC algorithms lean on O(1)-round sorting/prefix sums, which cost
//! `Ω(log n / log log n)` on a CRCW PRAM \[BH89\]; limited-collision hashing
//! replaces them. Measured: simulated steps of exact compaction via
//! Blelloch scan vs retry rounds (×2 steps) of hash compaction, `n`
//! doubling.

use crate::table::Table;
use crate::Config;
use pram_kit::compaction::compact;
use pram_kit::prefix::compact_by_prefix_sum;
use pram_sim::{Pram, WritePolicy};

pub(super) fn run(cfg: &Config) -> Vec<Table> {
    let mut t = Table::new(
        "E13 — compaction cost: prefix-sum vs limited-collision hashing",
        "Prefix-sum steps grow as 2·log₂ n exactly. Our hash-retry compaction \
         grows like log k in the worst case but stays well below the scan \
         (Goodrich's full algorithm reaches O(log* n), and with the n·log n \
         processor slack of Lemma D.2 it is O(1) — the bound the simulated \
         drivers' live-list compactions and renames are charged at).",
        &[
            "n",
            "k (distinguished)",
            "prefix-sum steps",
            "hash-compaction steps",
        ],
    );
    let sizes: &[usize] = if cfg.full {
        &[1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18]
    } else {
        &[1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16]
    };
    for &n in sizes {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(cfg.seed));
        let active = pram.alloc_filled(n, 0);
        let mut k = 0usize;
        for v in (0..n).step_by(5) {
            pram.set(active, v, 1);
            k += 1;
        }
        let (_, total, ps_steps) = compact_by_prefix_sum(&mut pram, active);
        assert_eq!(total as usize, k);

        let mut pram2 = Pram::new(WritePolicy::ArbitrarySeeded(cfg.seed));
        let active2 = pram2.alloc_filled(n, 0);
        for v in (0..n).step_by(5) {
            pram2.set(active2, v, 1);
        }
        let res = compact(&mut pram2, active2, cfg.seed).expect("hash compaction failed");
        let hash_steps = 2 * res.rounds;
        t.row(vec![
            n.to_string(),
            k.to_string(),
            ps_steps.to_string(),
            hash_steps.to_string(),
        ]);
    }
    vec![t]
}
