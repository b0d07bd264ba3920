//! Live-work scheduling regression guards (PR 3, extended by PR 5).
//!
//! Every driver's round/phase must charge (and execute) work proportional
//! to the *live* subproblem — live arcs, live table cells, ongoing roots —
//! not O(n + m). These tests pin that property for the Theorem-3 rounds
//! (including the controller's now-charged compaction and the compacted
//! postprocess), for the Theorem-1/Theorem-2 phase drivers, and verify
//! that live-arc filtering, periodic dedup, and the generation-stamped
//! MAXLINK never change the computed partition.

use logdiam::algorithms::theorem1::{connected_components, Theorem1Params};
use logdiam::algorithms::theorem2::spanning_forest;
use logdiam::algorithms::theorem3::{faster_cc, FasterParams};
use logdiam::graph::gen;
use logdiam::graph::seq::{components, same_partition};
use logdiam::pram::{Pram, WritePolicy};
use proptest::prelude::*;

/// On a path graph the live subproblem shrinks geometrically; per-round
/// charged work must follow it down instead of staying pinned at O(n + m).
#[test]
fn path_per_round_work_decays_with_live_arcs() {
    let n: usize = 1 << 14;
    let g = gen::path(n);
    let m = g.m();
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(7));
    let report = faster_cc(&mut pram, &g, 7, &FasterParams::default());
    assert!(same_partition(&components(&g), &report.run.labels));

    let pr = &report.run.per_round;
    assert!(
        pr.len() >= 4,
        "expected a multi-round run, got {}",
        pr.len()
    );
    for r in pr {
        eprintln!(
            "round {:3}: work {:9} live_arcs {:6} ongoing {:6} dormant {:4}",
            r.round, r.work, r.live_arcs, r.ongoing, r.dormant
        );
    }
    eprintln!("total work {} (n+m = {})", report.run.stats.work, n + m);

    // (a) Work decays: the cheapest late round must be far below round 1
    // (with full-array iteration every round costs the same ±constant).
    let first = pr[0].work;
    let min_late = pr[pr.len() / 2..].iter().map(|r| r.work).min().unwrap();
    assert!(
        min_late * 20 <= first,
        "late rounds still pay near-O(n+m): first {first}, min late {min_late}"
    );

    // (b) Work is bounded by the live subproblem: each round's charge must
    // be within a constant of the previous round's live footprint (live
    // arcs dominate; ongoing roots bound the table/budget terms).
    for w in pr.windows(2) {
        let basis = (w[0].live_arcs + w[0].ongoing + 16) as u64;
        assert!(
            w[1].work <= 600 * basis,
            "round {} charged {} against live basis {} (> 600x)",
            w[1].round,
            w[1].work,
            basis
        );
    }

    // (c) Whole-run work stays near-linear in the input, not n·rounds.
    let total = report.run.stats.work;
    assert!(
        total <= 400 * (n + m) as u64,
        "total work {total} is not near-linear in n+m = {}",
        n + m
    );
}

/// Live-arc filtering and duplicate-arc dedup are work optimizations only:
/// the partition must match the sequential ground truth for every dedup
/// cadence, including "never".
#[test]
fn live_filtering_and_dedup_preserve_labels() {
    let graphs = [
        gen::union_all(&[gen::gnm(300, 1200, 11), gen::path(80), gen::star(50)]),
        gen::clique_chain(24, 5),
        gen::grid(17, 23),
        gen::gnm(500, 700, 13), // sparse: many small components
    ];
    for (gi, g) in graphs.iter().enumerate() {
        let truth = components(g);
        for dedup_every in [0, 1, 4] {
            let params = FasterParams {
                dedup_every,
                ..Default::default()
            };
            let seed = 90 + gi as u64;
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
            let report = faster_cc(&mut pram, g, seed, &params);
            assert!(
                same_partition(&truth, &report.run.labels),
                "graph #{gi} dedup_every={dedup_every}: wrong partition"
            );
        }
    }
}

/// The controller's compaction is charged, visible, and live-sized: it
/// must appear under `compaction_work` (not folded into step work) and
/// decay with the live subproblem like the steps do.
#[test]
fn compaction_work_is_distinct_and_decays() {
    let g = gen::path(1 << 13);
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
    let report = faster_cc(&mut pram, &g, 3, &FasterParams::default());
    assert!(same_partition(&components(&g), &report.run.labels));
    let pr = &report.run.per_round;
    assert!(pr.len() >= 4);
    for r in pr {
        assert!(
            r.compaction_work > 0,
            "round {}: compaction work missing from metrics",
            r.round
        );
    }
    let first = pr[0].compaction_work;
    let min_late = pr[pr.len() / 2..]
        .iter()
        .map(|r| r.compaction_work)
        .min()
        .unwrap();
    assert!(
        min_late * 10 <= first,
        "late-round compaction still pays near-O(n+m): first {first}, min late {min_late}"
    );
}

/// The postprocess is folded onto the final round's compacted state: its
/// whole charge (frontier flatten + final ALTER + materialization/rename +
/// the Theorem-1 solve on the deduplicated remaining root graph) must be
/// sublinear in the input, never the old O(n + m) sweeps.
#[test]
fn postprocess_work_is_sublinear_in_input() {
    let n: usize = 1 << 17;
    let g = gen::path(n);
    let m = g.m();
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(5));
    let report = faster_cc(&mut pram, &g, 5, &FasterParams::default());
    assert!(same_partition(&components(&g), &report.run.labels));
    assert!(
        report.post_work * 2 <= (n + m) as u64,
        "postprocess charged {} against n+m = {} (must be well below — \
         full-array flatten/ALTER/materialize has returned)",
        report.post_work,
        n + m
    );
}

/// Theorem-1 per-phase work must track the live subproblem. `delta0: 0`
/// skips PREPARE so the main loop itself does the contracting — with
/// full-array phases every phase costs the same; with live scheduling the
/// cheapest late phase is far below the first.
#[test]
fn theorem1_per_phase_work_decays_with_live() {
    let g = gen::gnm(6000, 9000, 17);
    let params = Theorem1Params {
        delta0: 0.0,
        ..Default::default()
    };
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(23));
    let report = connected_components(&mut pram, &g, 23, &params);
    assert!(same_partition(&components(&g), &report.labels));
    let pr = &report.per_round;
    assert!(
        pr.len() >= 3,
        "expected a multi-phase run, got {}",
        pr.len()
    );
    for r in pr {
        eprintln!(
            "t1 phase {:2}: work {:9} compaction {:8} live_arcs {:6} ongoing {:6}",
            r.round, r.work, r.compaction_work, r.live_arcs, r.ongoing
        );
        assert!(
            r.compaction_work > 0,
            "phase {} missing compaction work",
            r.round
        );
    }
    let first = pr[0].work;
    let min_late = pr[pr.len() / 2..].iter().map(|r| r.work).min().unwrap();
    assert!(
        min_late * 8 <= first,
        "late phases still pay near-O(n+m): first {first}, min late {min_late}"
    );
}

/// Same pin for the Theorem-2 spanning-forest driver.
#[test]
fn theorem2_per_phase_work_decays_with_live() {
    let g = gen::gnm(4000, 6000, 29);
    let params = Theorem1Params {
        delta0: 0.0,
        ..Default::default()
    };
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(31));
    let report = spanning_forest(&mut pram, &g, 31, &params);
    assert!(same_partition(&components(&g), &report.labels));
    let pr = &report.run.per_round;
    assert!(
        pr.len() >= 3,
        "expected a multi-phase run, got {}",
        pr.len()
    );
    for r in pr {
        eprintln!(
            "t2 phase {:2}: work {:9} compaction {:8} live_arcs {:6} ongoing {:6}",
            r.round, r.work, r.compaction_work, r.live_arcs, r.ongoing
        );
        assert!(
            r.compaction_work > 0,
            "phase {} missing compaction work",
            r.round
        );
    }
    let first = pr[0].work;
    let min_late = pr[pr.len() / 2..].iter().map(|r| r.work).min().unwrap();
    assert!(
        min_late * 8 <= first,
        "late phases still pay near-O(n+m): first {first}, min late {min_late}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Theorem 3 across dedup cadences: every cadence must produce the
    /// ground-truth partition (the drivers' own invariant audits run too
    /// when built with `logdiam-cc/strict`).
    #[test]
    fn theorem3_partition_matches_truth_at_every_dedup_cadence(
        shape in 0usize..4,
        size in 24usize..160,
        seed in 0u64..500,
    ) {
        let g = match shape {
            0 => gen::gnm(size, 3 * size, seed),
            1 => gen::clique_chain(size / 6 + 2, 5),
            2 => gen::grid(size / 8 + 2, 8),
            _ => gen::union_all(&[gen::gnm(size / 2, size, seed), gen::path(size / 3 + 2)]),
        };
        let truth = components(&g);
        for dedup_every in [1u64, 2, 4, 8] {
            let params = FasterParams {
                dedup_every,
                ..Default::default()
            };
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
            let r = faster_cc(&mut pram, &g, seed, &params);
            prop_assert!(
                same_partition(&truth, &r.run.labels),
                "dedup_every={dedup_every}: wrong partition"
            );
        }
    }

    /// Both EXPAND phase drivers (Theorem 1 labels, Theorem 2 forest) on
    /// the same shapes: each must produce the ground-truth partition.
    #[test]
    fn theorem1_and_theorem2_partitions_match_truth(
        shape in 0usize..4,
        size in 24usize..160,
        seed in 0u64..500,
    ) {
        let g = match shape {
            0 => gen::gnm(size, 3 * size, seed),
            1 => gen::clique_chain(size / 6 + 2, 5),
            2 => gen::grid(size / 8 + 2, 8),
            _ => gen::union_all(&[gen::gnm(size / 2, size, seed), gen::path(size / 3 + 2)]),
        };
        let truth = components(&g);
        let params = Theorem1Params::default();
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let r = connected_components(&mut pram, &g, seed, &params);
        prop_assert!(same_partition(&truth, &r.labels), "t1: wrong partition");

        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let f = spanning_forest(&mut pram, &g, seed, &params);
        prop_assert!(same_partition(&truth, &f.labels), "t2: wrong partition");
    }
}

/// Dedup cadence must not change the result even when runs are compared
/// against each other on a duplicate-heavy contraction (clique chains
/// funnel many arcs onto the same root pairs).
#[test]
fn dedup_cadence_is_label_invariant_on_duplicate_heavy_graphs() {
    let g = gen::clique_chain(40, 6);
    let truth = components(&g);
    for seed in [1u64, 2, 3] {
        for dedup_every in [0, 1, 2, 8] {
            let params = FasterParams {
                dedup_every,
                ..Default::default()
            };
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
            let r = faster_cc(&mut pram, &g, seed, &params);
            assert!(
                same_partition(&truth, &r.run.labels),
                "seed {seed} dedup_every {dedup_every}"
            );
        }
    }
}
