//! **Theorem 2** — Spanning Forest in `O(log d · log log_{m/n} n)` (§C):
//!
//! ```text
//! FOREST-PREPARE;
//! repeat { EXPAND; VOTE; TREE-LINK; TREE-SHORTCUT; ALTER } until no non-loop edge
//! ```
//!
//! The connected-components EXPAND adds edges that are not input edges, so
//! its LINK cannot be recorded in a forest. Theorem 2 therefore:
//!
//! * snapshots the expansion tables per round (`H_j`),
//! * replays them in `treelink` to compute exact distances `β` to the
//!   nearest leader, and
//! * links only along *current graph arcs* `(v, w)` with `β(v) = β(w)+1`,
//!   marking each used arc's **original** input edge (`ê.f := 1`) — every
//!   arc processor carries its original edge identity through all ALTERs.
//!
//! `FOREST-PREPARE` is **Vanilla-SF** (§C.1): random mating whose links
//! also happen along current arcs and are recorded the same way.
//!
//! Outputs are validated by [`crate::verify::check_spanning_forest`]:
//! acyclic, one tree per component, every edge an input edge.
//!
//! **One driver.** FOREST-PREPARE, the main loop and the fallback are
//! Theorem 1's phase loop ([`crate::theorem1`]), with its per-phase
//! record, audits and live-work scheduling; this module supplies only
//! Vanilla-SF, TREE-LINK with the Lemma C.8 height measurement and
//! TREE-SHORTCUT, the allocations and the forest extraction.
//! TREE-SHORTCUT flattens the live frontier only — vertices that left the
//! live set keep stale parents until the host-side root chase of the
//! final labeling, which cannot change which original edges joined the
//! forest.

mod treelink;

use crate::live::{step_arcs, LiveSet};
use crate::metrics::RunReport;
use crate::state::CcState;
use crate::theorem1::{run_phases, Expansion, Linking, Theorem1Params};
use cc_graph::Graph;
use pram_kit::ops::{alter_over, shortcut_over, shortcut_until_flat_over};
use pram_sim::{Handle, Pram, NULL};
use treelink::{tree_link, TreeLink};

/// Report of a spanning-forest run.
#[derive(Clone, Debug)]
pub struct ForestReport {
    /// Indices into `g.edges()` of the forest edges.
    pub forest_edges: Vec<usize>,
    /// Component labels (forest roots).
    pub labels: Vec<u32>,
    /// Run metrics (rounds = main-loop phases).
    pub run: RunReport,
    /// Largest *live* parent-chain length observed right after a
    /// TREE-LINK (Lemma C.8: ≤ d). Measured from the live vertices — the
    /// chains the phase just built — since frozen vertices' stale chains
    /// are bookkeeping the lemma does not bound (see the measurement site
    /// in `ForestLink::link`).
    pub max_height_observed: u32,
}

/// Theorem 2's linking: Vanilla-SF phases, then TREE-LINK along input
/// arcs, the Lemma C.8 height measurement and TREE-SHORTCUT. Every link
/// marks its arc's original edge in `forest`.
struct ForestLink {
    /// Per-arc forest flag (1 = the arc's edge joined the forest).
    forest: Handle,
    /// Vanilla-SF's chosen arc per vertex.
    vearc: Handle,
    /// Largest live chain height seen after a TREE-LINK.
    max_height: u32,
}

impl Linking for ForestLink {
    const PHASE_SALT: u64 = 0x5F;
    const FALLBACK_SALT: u64 = 0x00FA_115F;
    const SNAPSHOT: bool = true; // TREE-LINK replays the rounds

    /// One Vanilla-SF phase (§C.1): RANDOM-VOTE; MARK-EDGE; LINK;
    /// SHORTCUT; ALTER, with forest marking on original arcs — all
    /// scheduled over the live set. `vearc` cells are cleared per phase
    /// for live vertices only; stale cells of departed vertices are never
    /// read (the LINK step iterates the live list). It is also the
    /// fallback after the phase cap: always correct, and it still marks
    /// the forest.
    fn vanilla(&self, pram: &mut Pram, st: &CcState, live: &LiveSet, leader: Handle, seed: u64) {
        let (parent, eu, ev) = (st.parent, st.eu, st.ev);
        let (vearc, forest) = (self.vearc, self.forest);
        pram.step_over(&live.verts, move |_, &u, ctx| {
            let l = ctx.coin(seed ^ 0x52_56_53, 0.5);
            ctx.write(leader, u as usize, l as u64);
            ctx.write(vearc, u as usize, NULL);
        });
        // MARK-EDGE: remember which arc causes the link.
        step_arcs(pram, eu, ev, &live.arcs, move |ctx, i, v, w| {
            if ctx.read(leader, v as usize) == 0 && ctx.read(leader, w as usize) == 1 {
                ctx.write(vearc, v as usize, i as u64);
            }
        });
        // LINK along the remembered arc; mark its original edge.
        pram.step_over(&live.verts, move |_, &u, ctx| {
            let i = ctx.read(vearc, u as usize);
            if i == NULL {
                return;
            }
            let w = ctx.read(ev, i as usize);
            ctx.write(parent, u as usize, w);
            ctx.write(forest, i as usize, 1);
        });
        shortcut_over(pram, parent, &live.verts);
        alter_over(pram, eu, ev, parent, &live.arcs);
    }

    fn link(
        &mut self,
        pram: &mut Pram,
        st: &CcState,
        e: &Expansion,
        live: &LiveSet,
        leader: Handle,
    ) {
        let tl = TreeLink::new(pram, st.n, e.nblocks * e.k);
        tree_link(pram, st, e, &tl, live, leader, self.forest);
        // Lemma C.8 measurement: heights after TREE-LINK, before
        // flattening, must stay ≤ d. Measured over the *live* chains: the
        // per-phase TREE-SHORTCUT no longer flattens vertices that left
        // the live set, so their stale frozen chains grow by a hop
        // whenever their old root re-links — a bookkeeping artifact the
        // lemma does not bound (the final labeling chases them
        // host-side). The chains TREE-LINK just built run through live
        // vertices only, which is exactly the lemma's quantity; cycles
        // from a bad link would sit on those chains and are caught here.
        // Charged as the PRAM would run it (see live_chain_height).
        let h = live_chain_height(pram, st.parent, &live.verts);
        self.max_height = self.max_height.max(h);
        shortcut_until_flat_over(pram, st.parent, &live.verts); // TREE-SHORTCUT
        tl.free(pram);
    }
}

/// Run Theorem 2's Spanning Forest algorithm on `g`: Theorem 1's phase
/// loop with Vanilla-SF and TREE-LINK, then the forest read off the
/// marked arcs.
pub fn spanning_forest(
    pram: &mut Pram,
    g: &Graph,
    seed: u64,
    params: &Theorem1Params,
) -> ForestReport {
    let st = CcState::init(pram, g);
    let forest = pram.alloc_filled(st.arcs, 0);
    let leader = pram.alloc(st.n);
    let vearc = pram.alloc_filled(st.n, NULL);
    let mut linking = ForestLink {
        forest,
        vearc,
        max_height: 0,
    };
    let run = run_phases(pram, &st, &mut linking, leader, seed, params, g.m());

    // Arcs were laid out as (2e, 2e+1) per input edge e by CcState::init.
    let flags = pram.read_vec(forest);
    let forest_edges = (0..g.m())
        .filter(|&e| flags[2 * e] != 0 || flags[2 * e + 1] != 0)
        .collect();
    let labels = st.labels_rooted(pram);
    pram.free(forest);
    pram.free(leader);
    pram.free(vearc);
    st.free(pram);
    ForestReport {
        forest_edges,
        labels,
        run,
        max_height_observed: linking.max_height,
    }
}

/// Maximum parent-chain length from any of the listed vertices. Panics if
/// a chain exceeds `n` hops — a cycle, which only a bad TREE-LINK could
/// create (frozen vertices never get new parents).
///
/// Charged as the PRAM would run it: one processor per live vertex, each
/// chasing its chain one hop per synchronous step until every chain hits
/// its root — `|live| · max_height` work, `max_height` time. This is the
/// Lemma C.8 measurement, so its cost scales with the live chains it
/// measures, never with `n`.
fn live_chain_height(pram: &mut Pram, parent: Handle, verts: &[u32]) -> u32 {
    let max_h = {
        let parent = pram.view(parent);
        let mut max_h = 0u32;
        for &v in verts {
            let mut x = v as u64;
            let mut h = 0u32;
            while parent.get(x as usize) != x {
                x = parent.get(x as usize);
                h += 1;
                assert!(h as usize <= parent.len(), "TREE-LINK created a cycle");
            }
            max_h = max_h.max(h);
        }
        max_h
    };
    pram.charge(verts.len(), u64::from(max_h.max(1)));
    max_h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem1::DensityMode;
    use crate::verify::check_spanning_forest;
    use cc_graph::gen;
    use cc_graph::seq::max_component_diameter_exact;
    use pram_sim::WritePolicy;

    fn run(g: &Graph, seed: u64) -> ForestReport {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        spanning_forest(&mut pram, g, seed, &Theorem1Params::default())
    }

    #[test]
    fn valid_forest_on_basic_shapes() {
        for g in [
            gen::path(40),
            gen::cycle(25),
            gen::star(30),
            gen::complete(12),
            gen::grid(5, 7),
            gen::union_all(&[gen::path(9), gen::cycle(7), gen::complete(5)]),
        ] {
            let report = run(&g, 5);
            check_spanning_forest(&g, &report.forest_edges)
                .unwrap_or_else(|e| panic!("graph n={} m={}: {e}", g.n(), g.m()));
        }
    }

    #[test]
    fn valid_forest_on_random_graphs() {
        for seed in 0..5 {
            let g = gen::gnm(250, 900, seed);
            let report = run(&g, seed * 13 + 1);
            check_spanning_forest(&g, &report.forest_edges).unwrap();
            crate::verify::check_labels(&g, &report.labels).unwrap();
        }
    }

    #[test]
    fn valid_under_all_policies() {
        let g = gen::gnm(200, 700, 9);
        for policy in [
            WritePolicy::ArbitrarySeeded(4),
            WritePolicy::PriorityMin,
            WritePolicy::PriorityMax,
        ] {
            let mut pram = Pram::new(policy);
            let report = spanning_forest(&mut pram, &g, 11, &Theorem1Params::default());
            check_spanning_forest(&g, &report.forest_edges).unwrap();
        }
    }

    #[test]
    fn tree_heights_bounded_by_diameter() {
        // Lemma C.8: heights after TREE-LINK ≤ d (+1 slack for the
        // height-0 convention).
        let g = gen::grid(6, 10);
        let d = max_component_diameter_exact(&g);
        let report = run(&g, 17);
        check_spanning_forest(&g, &report.forest_edges).unwrap();
        assert!(
            report.max_height_observed <= d + 1,
            "height {} exceeds diameter {d}",
            report.max_height_observed
        );
    }

    #[test]
    fn tree_heights_bounded_across_seeds_with_stale_frozen_chains() {
        // Regression: with the live-restricted TREE-SHORTCUT, vertices
        // that leave the live set keep stale chains that grow as their
        // old roots re-link; the Lemma C.8 measurement must not include
        // them. delta0 = 0 forces a multi-phase main loop on a
        // low-diameter graph, the shape that made the whole-array
        // measurement overshoot d on most seeds.
        let params = Theorem1Params {
            delta0: 0.0,
            ..Default::default()
        };
        for seed in 0..8 {
            let g = gen::gnm(400, 2000, seed);
            let d = max_component_diameter_exact(&g);
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
            let report = spanning_forest(&mut pram, &g, seed, &params);
            check_spanning_forest(&g, &report.forest_edges).unwrap();
            assert!(
                report.max_height_observed <= d + 1,
                "seed {seed}: live-chain height {} exceeds diameter {d}",
                report.max_height_observed
            );
        }
    }

    #[test]
    fn multi_component_forest_has_one_tree_per_component() {
        let g = gen::union_all(&[gen::cycle(10), gen::path(7), gen::star(6), gen::complete(5)]);
        let report = run(&g, 23);
        check_spanning_forest(&g, &report.forest_edges).unwrap();
        // n - #components = forest size; 4 components here.
        assert_eq!(report.forest_edges.len(), g.n() - 4);
    }

    #[test]
    fn deterministic_under_seeded_policy() {
        let g = gen::gnm(150, 400, 3);
        let a = run(&g, 77);
        let b = run(&g, 77);
        assert_eq!(a.forest_edges, b.forest_edges);
    }

    #[test]
    fn edgeless_graph_empty_forest() {
        let g = cc_graph::GraphBuilder::new(6).build();
        let report = run(&g, 1);
        assert!(report.forest_edges.is_empty());
        check_spanning_forest(&g, &report.forest_edges).unwrap();
    }

    #[test]
    fn phases_report_dormant_vertices() {
        // `RoundMetrics::dormant` counts the vertices EXPAND marked dormant
        // in a phase. delta0 = 0 starts the main loop on the whole graph,
        // whose small tables collide, so some phase must report some.
        let g = gen::gnm(400, 2000, 3);
        let params = Theorem1Params {
            delta0: 0.0,
            ..Default::default()
        };
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(3));
        let report = spanning_forest(&mut pram, &g, 3, &params);
        check_spanning_forest(&g, &report.forest_edges).unwrap();
        let dormant: u64 = report.run.per_round.iter().map(|r| r.dormant).sum();
        assert!(dormant > 0, "no phase reported a dormant vertex");
    }

    #[test]
    fn ntilde_rule_also_valid() {
        let g = gen::gnm(200, 800, 6);
        let params = Theorem1Params {
            density: DensityMode::NTildeRule,
            ..Default::default()
        };
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(8));
        let report = spanning_forest(&mut pram, &g, 19, &params);
        check_spanning_forest(&g, &report.forest_edges).unwrap();
    }
}
