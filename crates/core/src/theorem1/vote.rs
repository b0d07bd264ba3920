//! The VOTE method (§B.4) and the table-driven LINK.
//!
//! * Live vertices (never dormant) hold their entire component in their
//!   table, so the component minimum is elected deterministically and the
//!   whole component finishes this phase.
//! * Dormant vertices flip a leader coin with probability `p_lead`
//!   (paper: `b^{-2/3}`); a dormant non-leader with a leader in its table
//!   hooks onto it, which is what drives the `n' → n'/poly(δ)` per-phase
//!   contraction (Lemma B.13 + the §B.4 counting).

use crate::live::LiveSet;
use crate::state::CcState;
use crate::theorem1::expand::{step_cells, Expansion};
use pram_sim::{Handle, Pram, NULL};

/// Run VOTE: fill `leader` (1 = leader) for all ongoing vertices.
///
/// Charged over the live set: only ongoing vertices' leader cells are
/// initialized and coin-flipped (stale cells of vertices that left the
/// live set are never read — LINK and TREE-LINK only consult leaders of
/// live-arc endpoints and table members, which are ongoing).
pub(crate) fn vote(
    pram: &mut Pram,
    e: &Expansion,
    live: &LiveSet,
    leader: Handle,
    p_lead: f64,
    seed: u64,
) {
    let fdr = e.fdr;
    // Initialize u.l := 1 for ongoing vertices.
    pram.step_over(&live.verts, move |_, &u, ctx| {
        ctx.write(leader, u as usize, 1);
    });
    // Case 2 — dormant: leader with probability p_lead.
    pram.step_over(&live.verts, move |_, &u, ctx| {
        if ctx.read_stamped(fdr, u as usize, NULL) != NULL {
            let l = ctx.coin(seed ^ 0xD0_12_34, p_lead);
            ctx.write(leader, u as usize, if l { 1 } else { 0 });
        }
    });
    // Case 1 — live: u is a leader iff it is the minimum of H(u).
    let tables = e.tables;
    step_cells(pram, &e.owned, e.k, |ctx, row, u, p| {
        if ctx.read_stamped(fdr, u as usize, NULL) != NULL {
            return;
        }
        let v = ctx.read(tables, row + p);
        if v != NULL && v < u {
            ctx.write(leader, u as usize, 0);
        }
    });
}

/// The LINK: every non-leader hooks onto a leader found in its table
/// (ARBITRARY pick among leaders). Leaders never move, so the labeled
/// digraph stays a forest of flat trees.
pub(crate) fn link_step(pram: &mut Pram, st: &CcState, e: &Expansion, leader: Handle) {
    let (tables, parent) = (e.tables, st.parent);
    step_cells(pram, &e.owned, e.k, |ctx, row, v, p| {
        if ctx.read(leader, v as usize) != 0 {
            return;
        }
        let w = ctx.read(tables, row + p);
        if w != NULL && w != v && ctx.read(leader, w as usize) == 1 {
            ctx.write(parent, v as usize, w);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::theorem1::expand::{expand, ExpandParams, ExpandScratch};
    use cc_graph::gen;
    use pram_sim::WritePolicy;

    fn setup(g: &cc_graph::Graph, k: usize, seed: u64) -> (Pram, CcState, Expansion, LiveSet) {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let st = CcState::init(&mut pram, g);
        let live = LiveSet::full(&mut pram, &st);
        let params = ExpandParams {
            table_size: k,
            nblocks: (8 * g.n()).next_power_of_two(),
            snapshot: false,
            round_cap: 24,
        };
        let mut scratch = ExpandScratch::new(&mut pram, st.n);
        let e = expand(&mut pram, &st, &params, seed, &live, &mut scratch);
        (pram, st, e, live)
    }

    /// Find a seed where every vertex survives the block lottery and no
    /// hash collides (exists quickly at these sizes).
    fn fully_live_setup(g: &cc_graph::Graph, k: usize) -> (Pram, CcState, Expansion, LiveSet) {
        for seed in 0..200 {
            let (pram, st, e, live) = setup(g, k, seed);
            if (0..st.n).all(|v| pram.get_stamped(e.fdr, v, NULL) == NULL) {
                return (pram, st, e, live);
            }
            // machine dropped whole; no need to free handles individually
        }
        panic!("no fully-live seed found in 200 tries — hashing is broken");
    }

    #[test]
    fn live_component_elects_exactly_its_minimum() {
        let g = gen::union_all(&[gen::cycle(7), gen::path(5)]);
        let (mut pram, st, e, live) = fully_live_setup(&g, 64);
        let leader = pram.alloc(st.n);
        vote(&mut pram, &e, &live, leader, 0.3, 9);
        let l = pram.read_vec(leader);
        assert_eq!(l[0], 1, "component minimum 0 must be leader");
        assert_eq!(l[7], 1, "component minimum 7 must be leader");
        for v in [1, 2, 3, 4, 5, 6, 8, 9, 10, 11] {
            assert_eq!(l[v], 0, "vertex {v} must not be leader");
        }
    }

    #[test]
    fn live_link_finishes_component_in_one_phase() {
        let g = gen::cycle(9);
        let (mut pram, st, e, live) = fully_live_setup(&g, 64);
        let leader = pram.alloc(st.n);
        vote(&mut pram, &e, &live, leader, 0.3, 3);
        link_step(&mut pram, &st, &e, leader);
        let parents = pram.read_vec(st.parent);
        // All non-minimum vertices point at 0.
        assert_eq!(parents[0], 0);
        for (v, &p) in parents.iter().enumerate().skip(1) {
            assert_eq!(p, 0, "vertex {v}");
        }
    }

    #[test]
    fn dormant_leader_rate_tracks_probability() {
        // Tiny tables force a fully dormant big cycle; the leader rate
        // should be near p_lead.
        let g = gen::cycle(4000);
        let (mut pram, st, e, live) = setup(&g, 4, 23);
        let fdr: Vec<u64> = (0..st.n)
            .map(|v| pram.get_stamped(e.fdr, v, NULL))
            .collect();
        let dormant = fdr.iter().filter(|&&x| x != NULL).count();
        assert!(dormant > 3000, "expected mostly dormant, got {dormant}");
        let leader = pram.alloc(st.n);
        vote(&mut pram, &e, &live, leader, 0.25, 7);
        let l = pram.read_vec(leader);
        let leaders = (0..4000).filter(|&v| fdr[v] != NULL && l[v] == 1).count();
        let rate = leaders as f64 / dormant as f64;
        assert!((0.2..0.3).contains(&rate), "leader rate {rate}");
    }

    #[test]
    fn links_never_point_to_non_leaders() {
        let g = gen::gnm(500, 1500, 3);
        let (mut pram, st, e, live) = setup(&g, 8, 31);
        let leader = pram.alloc(st.n);
        vote(&mut pram, &e, &live, leader, 0.3, 5);
        link_step(&mut pram, &st, &e, leader);
        let parents = pram.read_vec(st.parent);
        let l = pram.read_vec(leader);
        for v in 0..st.n {
            if parents[v] != v as u64 {
                assert_eq!(l[parents[v] as usize], 1, "vertex {v} linked to non-leader");
            }
        }
    }
}
