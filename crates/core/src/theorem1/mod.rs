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
//! * `EXPAND` (§B.3, [`expand`]): each ongoing vertex that wins a private
//!   block grows a hash table of everything within distance `2^i` by
//!   repeated table squaring; collisions and blockless vertices go
//!   *dormant* and dormancy propagates. `O(log d)` inner rounds.
//! * `VOTE` (§B.4, [`vote`]): live vertices elect the component minimum;
//!   dormant vertices flip a leader coin.
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
//! **Live-work scheduling.** The driver maintains a [`LiveSet`] (the
//! Lemma-D.2 compaction for the phase-structured drivers, see
//! [`crate::live`]) and schedules every charged step of every phase —
//! PREPARE's Vanilla phases, EXPAND, VOTE, SHORTCUT, ALTER, the COMBINING
//! ongoing count, and the convergence test — over its lists, so a phase
//! costs O(live), not O(n + m). The per-phase refresh is itself charged
//! and reported under [`RoundMetrics::compaction_work`].

mod expand;
mod vote;

pub use expand::{expand, ExpandParams, ExpandScratch, Expansion};
pub use vote::{link_step, vote};

use crate::live::LiveSet;
use crate::metrics::{RoundMetrics, RunReport, StopReason};
use crate::state::CcState;
use crate::vanilla::{phase_cap, vanilla_phase};
use crate::verify;
use cc_graph::Graph;
use pram_kit::ops::{alter_over, shortcut_over};
use pram_sim::{Pram, NULL};

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
pub(crate) fn table_size(delta: f64) -> usize {
    let k = delta.max(1.0).powf(TABLE_EXP).ceil() as usize;
    k.next_power_of_two().clamp(4, MAX_TABLE)
}

/// Dormant-leader probability for table size `k`.
pub(crate) fn leader_prob(k: usize) -> f64 {
    (LEADER_COEFF * (k as f64 / 2.0).powf(-LEADER_EXP)).clamp(0.05, LEADER_CAP)
}

/// `ñ` reduction factor for table size `k` ([`DensityMode::NTildeRule`]).
pub(crate) fn reduction(k: usize) -> f64 {
    (REDUCTION_SAFETY / leader_prob(k)).max(2.0)
}

/// Exact ongoing-vertex count (Assumption B.6's COMBINING sum): the
/// [`LiveSet`] maintains exactly the set of non-loop-arc endpoints, so the
/// count is its vertex-list length; one combining step over the ongoing
/// vertices (each writes 1 into the sum cell) is charged — O(live), where
/// the full-array version paid O(n + m) per phase.
pub(crate) fn live_count_ongoing(pram: &mut Pram, live: &LiveSet) -> usize {
    pram.charge(live.verts.len(), 1);
    live.verts.len()
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
    let n = st.n;
    let m_eff = m_edges.max(1) as f64;
    let leader = pram.alloc(n);
    let mut per_round = Vec::new();
    // The one O(m) pass; every later refresh scans live lists only.
    let mut live = LiveSet::full(pram, st);

    // ---------------------------------------------------------- PREPARE
    // Vanilla phases until δ = m/ñ reaches delta0 (§B.2); on sparse inputs
    // this runs O(log log n) phases.
    let mut ntilde = n as f64;
    let mut prepare_rounds = 0;
    let prepare_cap = phase_cap(n);
    while m_eff / ntilde < params.delta0 && prepare_rounds < prepare_cap && !live.is_solved() {
        prepare_rounds += 1;
        vanilla_phase(pram, st, &live, leader, seed.wrapping_add(prepare_rounds));
        live.refresh(pram, st);
        match params.density {
            DensityMode::Combining => {
                ntilde = live_count_ongoing(pram, &live).max(1) as f64;
            }
            DensityMode::NTildeRule => {
                // Corollary B.4 decay model, conservatively slower (7/8 is
                // the guaranteed expectation; we use 0.95 as a whp-safe
                // envelope).
                ntilde *= 0.95;
            }
        }
    }
    if live.is_solved() {
        // Solved already (tiny graphs).
        pram.free(leader);
        let stats = pram.stats();
        return RunReport {
            labels: Vec::new(),
            rounds: 0,
            prepare_rounds,
            stop: StopReason::Converged,
            stats,
            per_round,
        };
    }

    // ---------------------------------------------------------- main loop
    // Driver-lifetime stamped scratch for EXPAND's per-vertex arrays: one
    // allocation, every phase refills by a generation bump.
    let mut scratch = ExpandScratch::new(pram, n);
    let max_phases = phase_cap(n);
    let mut stop = StopReason::RoundCap;
    let mut phase = 0;
    // Monotonicity audit (§2.1): Theorem 1's links only merge trees, so
    // the induced partition may only coarsen phase over phase. Checked in
    // this crate's tests and under the `strict` feature.
    let mut prev_labels: Option<Vec<u32>> = None;
    while phase < max_phases {
        phase += 1;
        let phase_seed = seed ^ (phase.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let step_work0 = pram.stats().work;
        let delta = (m_eff / ntilde).max(1.0);
        let k = table_size(delta);
        // Blocks: the paper's m/b¹² = ñ·K, K-fold oversubscribed so almost
        // every ongoing vertex wins one; floor of 2ñ when K is clamped.
        // Live arcs (not the original arc count) size the block pool, so
        // table allocation and the squaring copies shrink with the
        // subproblem.
        let nblocks = ((2.0 * ntilde) as usize)
            .max(live.arcs.len() / 2 / (k * k))
            .max(8)
            .next_power_of_two();
        let exp_params = ExpandParams {
            table_size: k,
            nblocks,
            snapshot: false,
            round_cap: (n.max(2) as f64).log2().ceil() as u64 + 6,
        };
        let expansion = expand(pram, st, &exp_params, phase_seed, &live, &mut scratch);
        let p_lead = leader_prob(k);
        vote(pram, st, &expansion, &live, leader, p_lead, phase_seed);
        link_step(pram, st, &expansion, leader);
        shortcut_over(pram, st.parent, &live.verts);
        alter_over(pram, st.eu, st.ev, st.parent, &live.arcs);

        // Dormancy is recorded only for (pre-phase) live vertices — count
        // over the live list instead of a full-n scan.
        let dormant = live
            .verts
            .iter()
            .filter(|&&v| pram.get_stamped(expansion.fdr, v as usize, NULL) != NULL)
            .count() as u64;
        let expand_rounds = expansion.rounds;
        let table_words = (expansion.nblocks * expansion.k) as u64;
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
                    "Theorem 1 violated monotonicity in phase {phase}"
                );
            }
            prev_labels = Some(next);
        }

        if live.is_solved() {
            stop = StopReason::Converged;
            break;
        }
        match params.density {
            DensityMode::Combining => {
                ntilde = live_count_ongoing(pram, &live).max(1) as f64;
            }
            DensityMode::NTildeRule => {
                ntilde = (ntilde / reduction(k)).max(1.0);
            }
        }
    }

    // Correctness fallback: if the phase cap was hit (possible only under
    // adversarial parameters — E6 counts it), finish with Vanilla, which is
    // always correct.
    if stop == StopReason::RoundCap {
        let cap = phase_cap(n);
        let mut extra = 0;
        while !live.is_solved() && extra < cap {
            extra += 1;
            vanilla_phase(pram, st, &live, leader, seed ^ 0xFA11_BACC ^ extra);
            live.refresh(pram, st);
        }
    }

    // Whole-array acyclicity audit: an O(n) host walk, so it runs only in
    // tests and under the `strict` feature (like the monotonicity audit
    // above) — the charged algorithm never pays for it.
    if cfg!(any(test, feature = "strict")) {
        assert!(
            verify::forest_heights(&pram.read_vec(st.parent)).is_ok(),
            "Theorem 1 produced a cyclic labeled digraph"
        );
    }
    scratch.free(pram);
    pram.free(leader);
    let stats = pram.stats();
    RunReport {
        labels: Vec::new(),
        rounds: phase,
        prepare_rounds,
        stop,
        stats,
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
}
