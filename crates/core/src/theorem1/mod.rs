//! **Theorem 1** — Connected Components in `O(log d · log log_{m/n} n)`
//! (§B of the paper):
//!
//! ```text
//! PREPARE; repeat { EXPAND; VOTE; LINK; SHORTCUT; ALTER } until no non-loop edge
//! ```
//!
//! * `PREPARE` (§B.2): Vanilla phases until the ongoing-vertex density
//!   `δ = m/n'` reaches a target, giving every later phase a large
//!   neighbour-table budget.
//! * `EXPAND` (§B.3, the `expand` module): each ongoing vertex that wins a
//!   private block grows a hash table of everything within distance `2^i`
//!   by repeated table squaring; collisions and blockless vertices go
//!   *dormant* and dormancy propagates. `O(log d)` inner rounds.
//! * `VOTE` (§B.4, the `vote` module): live vertices elect the component
//!   minimum; dormant vertices flip a leader coin.
//! * `LINK`: non-leaders hook onto a leader found in their table.
//!
//! Progress: each phase cuts the number of ongoing vertices by a positive
//! power of `δ`, so `O(log log_{m/n} n)` phases suffice — the
//! double-exponential decay experiment E2 measures exactly this.
//!
//! The density `δ` is tracked either by a COMBINING sum (§B,
//! Assumption B.6) or by the §B.5 `ñ` update rule on a pure ARBITRARY
//! machine ([`DensityMode`]); tests cross-check the two.
//!
//! **One phase loop for Theorems 1 and 2.** Theorem 2 is this loop with
//! Vanilla-SF in PREPARE and TREE-LINK + TREE-SHORTCUT in place of LINK +
//! SHORTCUT (§C), so both run the crate-private `run_phases`; the
//! crate-private `Linking` trait carries what differs, with the two seed
//! salts and EXPAND's snapshot flag.
//!
//! **Live-work scheduling.** The driver maintains a [`LiveSet`] (the
//! Lemma-D.2 compaction for the phase-structured drivers, see
//! [`crate::live`]) and schedules every charged step of every phase —
//! PREPARE's Vanilla phases, EXPAND, VOTE, SHORTCUT, ALTER, the COMBINING
//! ongoing count, and the convergence test — over its lists, so a phase
//! costs O(live), not O(n + m). The per-phase refresh is itself charged
//! and reported under [`RoundMetrics::compaction_work`].

mod expand;
mod vote;

pub(crate) use expand::{step_cells, step_pairs, Expansion};

use crate::live::LiveSet;
use crate::metrics::{RoundMetrics, RunReport, StopReason};
use crate::state::CcState;
use crate::vanilla::{phase_cap, vanilla_phase};
use crate::verify;
use cc_graph::Graph;
use expand::{expand, ExpandParams, ExpandScratch};
use pram_kit::ops::{alter_over, shortcut_over};
use pram_sim::{Handle, Pram, NULL};
use vote::{link_step, vote};

/// How the per-phase ongoing-vertex count `n'` is obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DensityMode {
    /// COMBINING CRCW sum (Assumption B.6): exact `n'`, one combining step
    /// per phase.
    Combining,
    /// Pure ARBITRARY machine: the §B.5 `ñ` update rule (`ñ` divided by a
    /// fixed factor per phase; never read from the machine).
    NTildeRule,
}

/// Tunable parameters (see crate docs on parameter substitution; the
/// paper's values are given in brackets).
#[derive(Clone, Copy, Debug)]
pub struct Theorem1Params {
    /// Density target PREPARE must reach before the main loop
    /// [paper: `log^c n`, `c = 100`].
    pub delta0: f64,
    /// Density accounting mode.
    pub density: DensityMode,
}

impl Default for Theorem1Params {
    fn default() -> Self {
        Theorem1Params {
            delta0: 8.0,
            density: DensityMode::Combining,
        }
    }
}

/// Table size `K = δ^TABLE_EXP` [paper: 1/3; here 1/2 — the largest
/// exponent that keeps the per-step processor count at `O(m)`, since a
/// squaring step costs `ñ·K² ≤ ñ·δ = m` processors. The paper's 1/3
/// leaves a `b^6` slack factor that only matters at astronomical `n`].
const TABLE_EXP: f64 = 0.5;

/// Largest table size `K` [paper: none; `K = δ^{1/3}` grows with the
/// density].
const MAX_TABLE: usize = 1 << 12;

/// Leader probability for dormant vertices:
/// `clamp(LEADER_COEFF · (K/2)^{-LEADER_EXP}, 0.05, LEADER_CAP)`
/// [paper: `b^{-2/3}` with threshold `b`; at laptop scale the operative
/// threshold is the table capacity `≈ K/2`].
const LEADER_COEFF: f64 = 1.0;

/// Exponent in the dormant-leader probability [paper: 2/3].
const LEADER_EXP: f64 = 2.0 / 3.0;

/// Cap on the leader probability [paper: none; `b^{-2/3}` stays far
/// below it].
const LEADER_CAP: f64 = 0.5;

/// `ñ` reduction per phase in [`DensityMode::NTildeRule`]:
/// `ñ /= max(2, REDUCTION_SAFETY / p_lead)` — the expected contraction
/// is `1/p_lead`, discounted by a safety factor
/// [paper: `b^{1/4} = δ^{1/72}`, i.e. extremely conservative].
const REDUCTION_SAFETY: f64 = 0.5;

/// Table size for density `δ`.
fn table_size(delta: f64) -> usize {
    let k = delta.max(1.0).powf(TABLE_EXP).ceil() as usize;
    k.next_power_of_two().clamp(4, MAX_TABLE)
}

/// Dormant-leader probability for table size `k`.
fn leader_prob(k: usize) -> f64 {
    (LEADER_COEFF * (k as f64 / 2.0).powf(-LEADER_EXP)).clamp(0.05, LEADER_CAP)
}

/// `ñ` reduction factor for table size `k` ([`DensityMode::NTildeRule`]).
fn reduction(k: usize) -> f64 {
    (REDUCTION_SAFETY / leader_prob(k)).max(2.0)
}

/// Exact ongoing-vertex count (Assumption B.6's COMBINING sum): the
/// [`LiveSet`] maintains exactly the set of non-loop-arc endpoints, so the
/// count is its vertex-list length; one combining step over the ongoing
/// vertices (each writes 1 into the sum cell) is charged — O(live), where
/// the full-array version paid O(n + m) per phase.
fn live_count_ongoing(pram: &mut Pram, live: &LiveSet) -> usize {
    pram.charge(live.verts.len(), 1);
    live.verts.len()
}

/// What Theorems 1 and 2 do differently inside [`run_phases`]: the
/// Vanilla phase PREPARE and the fallback run, how a main-loop phase
/// links, and the seed salts and EXPAND snapshots that go with them.
pub(crate) trait Linking {
    /// XORed into every main-loop phase's seed.
    const PHASE_SALT: u64;
    /// XORed into every fallback phase's seed.
    const FALLBACK_SALT: u64;
    /// Whether EXPAND keeps its per-round table snapshots.
    const SNAPSHOT: bool;

    /// One Vanilla phase over the live set, PREPARE's or the fallback's
    /// (the driver refreshes the set after it).
    fn vanilla(&self, pram: &mut Pram, st: &CcState, live: &LiveSet, leader: Handle, seed: u64);

    /// Hook the non-leaders VOTE left onto the trees the expansion found
    /// and flatten the live trees; the driver's ALTER follows.
    fn link(
        &mut self,
        pram: &mut Pram,
        st: &CcState,
        e: &Expansion,
        live: &LiveSet,
        leader: Handle,
    );
}

/// Theorem 1's linking: Vanilla phases, then LINK onto a leader found in
/// the table and one SHORTCUT.
struct TableLink;

impl Linking for TableLink {
    const PHASE_SALT: u64 = 0;
    const FALLBACK_SALT: u64 = 0xFA11_BACC;
    const SNAPSHOT: bool = false;

    fn vanilla(&self, pram: &mut Pram, st: &CcState, live: &LiveSet, leader: Handle, seed: u64) {
        vanilla_phase(pram, st, live, leader, seed);
    }

    fn link(
        &mut self,
        pram: &mut Pram,
        st: &CcState,
        e: &Expansion,
        live: &LiveSet,
        leader: Handle,
    ) {
        link_step(pram, st, e, leader);
        shortcut_over(pram, st.parent, &live.verts);
    }
}

/// Run Theorem 1's Connected Components algorithm on `g`.
pub fn connected_components(
    pram: &mut Pram,
    g: &Graph,
    seed: u64,
    params: &Theorem1Params,
) -> RunReport {
    let st = CcState::init(pram, g);
    let report = connected_components_on_state(pram, &st, seed, params, g.m());
    let labels = st.labels_rooted(pram);
    st.free(pram);
    RunReport { labels, ..report }
}

/// Theorem 1 on an existing machine state (used directly and as the
/// postprocessing stage of Theorem 3). `m_edges` is the edge count used
/// for the density parameter. The caller reads labels from `st` afterwards.
pub fn connected_components_on_state(
    pram: &mut Pram,
    st: &CcState,
    seed: u64,
    params: &Theorem1Params,
    m_edges: usize,
) -> RunReport {
    let leader = pram.alloc(st.n);
    let report = run_phases(pram, st, &mut TableLink, leader, seed, params, m_edges);
    pram.free(leader);
    // The stats again, with `leader` freed.
    RunReport {
        stats: pram.stats(),
        ..report
    }
}

/// The phase loop of Theorems 1 and 2 on an existing machine state:
/// PREPARE, then `{EXPAND; VOTE; link; ALTER}` phases until no live arc
/// is left, then Vanilla phases if the phase cap was hit. `leader` is the
/// caller's `n`-cell VOTE array and `m_edges` the edge count used for the
/// density parameter. The report's labels are empty: the caller reads
/// them from `st`.
pub(crate) fn run_phases<L: Linking>(
    pram: &mut Pram,
    st: &CcState,
    linking: &mut L,
    leader: Handle,
    seed: u64,
    params: &Theorem1Params,
    m_edges: usize,
) -> RunReport {
    let n = st.n;
    let m_eff = m_edges.max(1) as f64;
    let mut per_round = Vec::new();
    // The one O(m) pass; every later refresh scans live lists only.
    let mut live = LiveSet::full(pram, st);

    // ---------------------------------------------------------- PREPARE
    // Vanilla phases until δ = m/ñ reaches delta0 (§B.2); on sparse inputs
    // this runs O(log log n) phases.
    let cap = phase_cap(n);
    let mut ntilde = n as f64;
    let mut prepare_rounds = 0;
    while m_eff / ntilde < params.delta0 && prepare_rounds < cap && !live.is_solved() {
        prepare_rounds += 1;
        linking.vanilla(pram, st, &live, leader, seed.wrapping_add(prepare_rounds));
        live.refresh(pram, st);
        ntilde = match params.density {
            DensityMode::Combining => live_count_ongoing(pram, &live).max(1) as f64,
            // Corollary B.4 decay model, conservatively slower (7/8 is the
            // guaranteed expectation; we use 0.95 as a whp-safe envelope).
            DensityMode::NTildeRule => ntilde * 0.95,
        };
    }

    // ---------------------------------------------------------- main loop
    // Skipped when PREPARE already solved the graph (tiny graphs), so no
    // EXPAND scratch is allocated.
    let mut stop = StopReason::Converged;
    let mut phase = 0;
    if !live.is_solved() {
        // Driver-lifetime stamped scratch for EXPAND's per-vertex arrays:
        // one allocation, every phase refills by a generation bump.
        let mut scratch = ExpandScratch::new(pram, n);
        let round_cap = (n.max(2) as f64).log2().ceil() as u64 + 6;
        stop = StopReason::RoundCap;
        // Monotonicity audit (§2.1): both theorems' links only merge
        // trees, so the induced partition may only coarsen phase over
        // phase. Checked in this crate's tests and under the `strict`
        // feature.
        let mut prev_labels: Option<Vec<u32>> = None;
        while phase < cap {
            phase += 1;
            let phase_seed = seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ L::PHASE_SALT;
            let step_work0 = pram.stats().work;
            let k = table_size((m_eff / ntilde).max(1.0));
            // Blocks: the paper's m/b¹² = ñ·K, K-fold oversubscribed so
            // almost every ongoing vertex wins one; floor of 2ñ when K is
            // clamped. Live arcs (not the original arc count) size the
            // block pool, so table allocation and the squaring copies
            // shrink with the subproblem.
            let nblocks = ((2.0 * ntilde) as usize)
                .max(live.arcs.len() / 2 / (k * k))
                .max(8)
                .next_power_of_two();
            let exp_params = ExpandParams {
                table_size: k,
                nblocks,
                snapshot: L::SNAPSHOT,
                round_cap,
            };
            let expansion = expand(pram, st, &exp_params, phase_seed, &live, &mut scratch);
            vote(pram, &expansion, &live, leader, leader_prob(k), phase_seed);
            linking.link(pram, st, &expansion, &live, leader);
            alter_over(pram, st.eu, st.ev, st.parent, &live.arcs);

            // Dormancy is recorded only for (pre-phase) live vertices —
            // count over the live list instead of a full-n scan.
            let dormant = live
                .verts
                .iter()
                .filter(|&&v| pram.get_stamped(expansion.fdr, v as usize, NULL) != NULL)
                .count() as u64;
            // The tables, or their per-round snapshots when kept.
            let snapshots = expansion.snapshots.len().max(1);
            let table_words = (expansion.nblocks * expansion.k * snapshots) as u64;
            let expand_rounds = expansion.rounds;
            expansion.free(pram);
            let step_work = pram.stats().work - step_work0;

            let compaction0 = pram.stats().work;
            live.refresh(pram, st);
            per_round.push(RoundMetrics {
                round: phase,
                roots: live.roots.len(),
                ongoing: live.verts.len(),
                dormant,
                expand_rounds,
                table_words,
                work: step_work,
                compaction_work: pram.stats().work - compaction0,
                live_arcs: live.arcs.len(),
                ..Default::default()
            });

            if cfg!(any(test, feature = "strict")) {
                let next = st.labels_rooted(pram);
                if let Some(prev) = prev_labels.as_ref() {
                    assert!(
                        verify::partition_coarsens(prev, &next),
                        "the phase loop violated monotonicity in phase {phase}"
                    );
                }
                prev_labels = Some(next);
            }

            if live.is_solved() {
                stop = StopReason::Converged;
                break;
            }
            ntilde = match params.density {
                DensityMode::Combining => live_count_ongoing(pram, &live).max(1) as f64,
                DensityMode::NTildeRule => (ntilde / reduction(k)).max(1.0),
            };
        }

        // Correctness fallback: if the phase cap was hit (possible only
        // under adversarial parameters — E6 counts it), finish with
        // Vanilla phases, which are always correct.
        if stop == StopReason::RoundCap {
            let mut extra = 0;
            while !live.is_solved() && extra < cap {
                extra += 1;
                let fallback_seed = seed ^ L::FALLBACK_SALT ^ extra;
                linking.vanilla(pram, st, &live, leader, fallback_seed);
                live.refresh(pram, st);
            }
        }
        scratch.free(pram);
    }

    // Whole-array acyclicity audit: an O(n) host walk, so it runs only in
    // tests and under the `strict` feature (like the monotonicity audit
    // above) — the charged algorithm never pays for it.
    if cfg!(any(test, feature = "strict")) {
        assert!(
            verify::forest_heights(&pram.read_vec(st.parent)).is_ok(),
            "the phase loop produced a cyclic labeled digraph"
        );
    }
    RunReport {
        labels: Vec::new(),
        rounds: phase,
        prepare_rounds,
        stop,
        stats: pram.stats(),
        per_round,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::check_labels;
    use cc_graph::gen;
    use pram_sim::WritePolicy;

    fn run(g: &Graph, seed: u64, params: &Theorem1Params) -> RunReport {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        connected_components(&mut pram, g, seed, params)
    }

    #[test]
    fn correct_on_basic_shapes() {
        let params = Theorem1Params::default();
        for g in [
            gen::path(60),
            gen::cycle(41),
            gen::star(64),
            gen::complete(24),
            gen::grid(7, 9),
            gen::union_all(&[gen::path(13), gen::cycle(9), gen::complete(6)]),
        ] {
            let report = run(&g, 5, &params);
            check_labels(&g, &report.labels)
                .unwrap_or_else(|e| panic!("graph n={} m={}: {e}", g.n(), g.m()));
        }
    }

    #[test]
    fn correct_on_random_graphs_multiple_seeds() {
        let params = Theorem1Params::default();
        for seed in 0..6 {
            let g = gen::gnm(400, 1600, seed);
            let report = run(&g, seed * 31 + 1, &params);
            check_labels(&g, &report.labels).unwrap();
        }
    }

    #[test]
    fn correct_under_all_policies() {
        let g = gen::gnm(300, 1200, 7);
        let params = Theorem1Params::default();
        for policy in [
            WritePolicy::ArbitrarySeeded(3),
            WritePolicy::PriorityMin,
            WritePolicy::PriorityMax,
        ] {
            let mut pram = Pram::new(policy);
            let report = connected_components(&mut pram, &g, 9, &params);
            check_labels(&g, &report.labels).unwrap();
        }
    }

    #[test]
    fn ntilde_rule_matches_combining_correctness() {
        let g = gen::gnm(500, 2500, 11);
        for density in [DensityMode::Combining, DensityMode::NTildeRule] {
            let params = Theorem1Params {
                density,
                ..Default::default()
            };
            let report = run(&g, 13, &params);
            check_labels(&g, &report.labels).unwrap();
        }
    }

    #[test]
    fn dense_graph_needs_few_phases() {
        // m/n = 32: expansion tables are big, expect very few phases.
        let g = gen::gnm(512, 512 * 32, 3);
        let params = Theorem1Params::default();
        let report = run(&g, 17, &params);
        check_labels(&g, &report.labels).unwrap();
        assert!(
            report.rounds <= 8,
            "dense graph took {} phases",
            report.rounds
        );
    }

    #[test]
    fn multi_component_mixture() {
        let g = gen::union_all(&[
            gen::gnm(200, 600, 1),
            gen::path(50),
            gen::star(30),
            gen::complete(10),
        ]);
        let params = Theorem1Params::default();
        let report = run(&g, 23, &params);
        check_labels(&g, &report.labels).unwrap();
    }

    #[test]
    fn expansion_rounds_grow_with_diameter() {
        // E11's shape in miniature: per-phase expansion rounds ~ log d.
        let params = Theorem1Params::default();
        let short = run(&gen::clique_chain(2, 16), 3, &params);
        let long = run(&gen::clique_chain(64, 4), 3, &params);
        let s = short
            .per_round
            .iter()
            .map(|r| r.expand_rounds)
            .max()
            .unwrap_or(0);
        let l = long
            .per_round
            .iter()
            .map(|r| r.expand_rounds)
            .max()
            .unwrap_or(0);
        assert!(l > s, "expand rounds short={s} long={l}");
    }

    #[test]
    fn edgeless_graph() {
        let g = cc_graph::GraphBuilder::new(7).build();
        let report = run(&g, 1, &Theorem1Params::default());
        check_labels(&g, &report.labels).unwrap();
    }

    #[test]
    fn fallback_finishes_a_run_that_hits_the_phase_cap() {
        // With real links no test or experiment reaches the fallback. A
        // `Linking` that never links makes every main-loop phase a no-op,
        // so the loop hits `phase_cap(n)` and the Vanilla fallback must
        // finish the run. delta0 = 0 skips PREPARE.
        struct NeverLinks;
        impl Linking for NeverLinks {
            const PHASE_SALT: u64 = 0;
            const FALLBACK_SALT: u64 = 0xFA11_BACC;
            const SNAPSHOT: bool = false;
            fn vanilla(
                &self,
                pram: &mut Pram,
                st: &CcState,
                live: &LiveSet,
                leader: Handle,
                seed: u64,
            ) {
                vanilla_phase(pram, st, live, leader, seed);
            }
            fn link(&mut self, _: &mut Pram, _: &CcState, _: &Expansion, _: &LiveSet, _: Handle) {}
        }
        let g = gen::union_all(&[gen::gnm(300, 900, 4), gen::path(40)]);
        let params = Theorem1Params {
            delta0: 0.0,
            ..Default::default()
        };
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(4));
        let st = CcState::init(&mut pram, &g);
        let leader = pram.alloc(st.n);
        let report = run_phases(&mut pram, &st, &mut NeverLinks, leader, 4, &params, g.m());
        assert_eq!(report.stop, StopReason::RoundCap);
        assert_eq!(report.prepare_rounds, 0);
        assert_eq!(report.rounds, phase_cap(g.n()));
        check_labels(&g, &st.labels_rooted(&pram)).unwrap();
    }
}
