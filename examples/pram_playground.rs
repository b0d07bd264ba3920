//! Direct use of the PRAM simulator: concurrent-write semantics, the
//! COMBINING model, and approximate compaction — the paper's §2 toolbox.
//!
//! ```text
//! cargo run --release --example pram_playground
//! ```

use logdiam::kit::compaction::compact;
use logdiam::pram::{CombineOp, Pram, WritePolicy, NULL};

fn main() {
    // --- ARBITRARY concurrent writes ------------------------------------
    println!("ARBITRARY CRCW: 1000 processors write their id to one cell.");
    for seed in [1u64, 2, 3] {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let cell = pram.alloc_filled(1, NULL);
        pram.step(1000, |p, ctx| ctx.write(cell, 0, p));
        println!("  seed {seed}: winner = {}", pram.get(cell, 0));
    }
    println!("  (different seeds = different, equally legal, machines)\n");

    // --- PRIORITY resolution ---------------------------------------------
    let mut pram = Pram::new(WritePolicy::PriorityMin);
    let cell = pram.alloc_filled(1, NULL);
    pram.step(1000, |p, ctx| ctx.write(cell, 0, p));
    println!(
        "PRIORITY(min): winner = {} (always processor 0)\n",
        pram.get(cell, 0)
    );

    // --- COMBINING: count in O(1) ----------------------------------------
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(7));
    let counter = pram.alloc_filled(1, 0);
    pram.step_combine(12345, CombineOp::Sum, |_, ctx| ctx.write(counter, 0, 1));
    println!(
        "COMBINING(sum): {} processors counted in one step → {}\n",
        12345,
        pram.get(counter, 0)
    );

    // --- approximate compaction (Lemma D.2) -------------------------------
    let n = 1 << 14;
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(9));
    let active = pram.alloc_filled(n, 0);
    let mut k = 0;
    for v in (0..n).step_by(37) {
        pram.set(active, v, 1);
        k += 1;
    }
    let res = compact(&mut pram, active, 99).unwrap();
    println!(
        "approximate compaction: {k} distinguished cells of an array of {n} \
         mapped one-to-one into {} slots in {} retry rounds",
        res.cap, res.rounds
    );
    let stats = pram.stats();
    println!(
        "machine accounting: steps={} work={} reads={} writes={} peak_words={}",
        stats.steps, stats.work, stats.reads, stats.writes, stats.peak_words
    );
}
