//! MAXLINK (§3.1/§D.1): every vertex re-hooks onto the highest-level
//! parent in its closed neighbourhood, twice per invocation.
//!
//! Implementation follows §3.3: every edge-holder (arc processor or table
//! cell) writes the neighbour's parent into a level-indexed candidate array
//! of the target vertex (ARBITRARY win per level cell), then each vertex
//! picks the highest occupied level in one charged step (the paper finds
//! it in O(1) with `log³ n` processors doing pairwise comparisons; the
//! scan over `L_max + 1 = O(log log n)` cells is charged 1 and shows up in
//! the `max_ops_per_proc` audit).
//!
//! Live-work scheduling: the invocation operates on the caller's compacted
//! live index — the candidate writes are the root graph's two steps
//! ([`RootEdges::steps`]: live arcs, then live table cells) and the
//! selection scan iterates the live vertices only, so an invocation costs
//! O(live), not O(n + m).
//!
//! **Generation-stamped candidates.** The candidate array is a
//! [`Stamped`] block allocated *per invocation* at
//! `live_verts × (L_max + 1)` cells — each live vertex's row is its
//! position in the live vertex list (`vert_slot`) — whose stale value is
//! NULL. Each iteration starts a new generation
//! ([`Pram::host_stamped_fill`]), so neither an O(n) array nor a
//! per-iteration clear step exists: cells written in an earlier iteration
//! (or left in a recycled arena block) read as NULL. Writers whose target
//! is not in the live vertex list skip (`NO_SLOT`): no selection scan
//! would read the cell.
//!
//! Tie handling: the update fires only when the best candidate's level
//! *strictly* exceeds the current parent's — preferring the incumbent
//! among equal-level candidates is a legal ARBITRARY choice and keeps the
//! break condition's "no parent changed" test from flapping between tied
//! parents. (An explicit self-candidate write would land exactly at the
//! incumbent's level and can never be read by the strict scan, so none is
//! issued or charged.)
//!
//! Invariant preserved (Lemma 3.2/D.4): a new parent always has level
//! strictly above the old parent's (hence above the vertex's), so parent
//! chains strictly increase in level and no cycle can form.

use crate::live::NO_SLOT;
use crate::theorem3::round::RootEdges;
use pram_kit::ops::Flag;
use pram_sim::{Handle, Pram, Stamped, NULL};

/// Shared context for a MAXLINK invocation.
pub(crate) struct MaxlinkCtx<'a> {
    /// Candidate cells, `live_verts.len() × (lmax + 1)`, row = slot in
    /// `live_verts`; stale cells read as NULL.
    pub cand: Stamped,
    /// vertex → row in `cand` (`NO_SLOT` = not live).
    pub vert_slot: &'a [u32],
    /// Level array.
    pub level: Handle,
    /// Max level (array stride is `max_level + 1`).
    pub lmax: usize,
    /// The root graph whose edges propose the candidates.
    pub edges: RootEdges<'a>,
    /// Endpoints of live arcs and live table edges — the only vertices
    /// that can receive a candidate this invocation.
    pub live_verts: &'a [u32],
}

/// One MAXLINK iteration over the current generation of `mx.cand`;
/// raises `changed` if any parent moved.
pub(crate) fn maxlink_iter(pram: &mut Pram, parent: Handle, mx: &MaxlinkCtx, changed: &Flag) {
    let stride = mx.lmax + 1;
    let (cand, level, slot) = (mx.cand, mx.level, mx.vert_slot);

    // Candidate writes: for each root-graph edge (a, b), b's parent is a
    // candidate for a, written in a's row at that parent's level.
    mx.edges.steps(pram, move |ctx, a, b| {
        let pb = ctx.read(parent, b as usize);
        let lpb = ctx.read(level, pb as usize) as usize;
        let row = slot[a as usize];
        if row != NO_SLOT {
            ctx.write_stamped(cand, row as usize * stride + lpb, pb);
        }
    });

    // Selection: highest occupied level wins; update on strict improvement
    // over the current parent's level. Charged one step (see module docs);
    // the scan is L_max+1 stamped reads, visible in the audit counter. The
    // processor index *is* the vertex's row.
    pram.step_over(mx.live_verts, |p, &v, ctx| {
        let row = p as usize;
        let pv = ctx.read(parent, v as usize);
        let lp = ctx.read(level, pv as usize) as usize;
        for l in (lp + 1..stride).rev() {
            let u = ctx.read_stamped(cand, row * stride + l, NULL);
            if u != NULL {
                ctx.write(parent, v as usize, u);
                changed.raise(ctx);
                return;
            }
        }
    });
}

/// Full MAXLINK: `iters` iterations (the paper uses 2), each on a fresh
/// generation of the candidate cells.
pub(crate) fn maxlink(
    pram: &mut Pram,
    parent: Handle,
    mx: &mut MaxlinkCtx,
    changed: &Flag,
    iters: u32,
) {
    for it in 0..iters {
        if it > 0 {
            pram.host_stamped_fill(&mut mx.cand);
        }
        maxlink_iter(pram, parent, mx, changed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::CcState;
    use cc_graph::{gen, Graph};
    use pram_sim::WritePolicy;

    const LMAX: usize = 8;

    /// Build a machine holding `g` with hand-set levels.
    fn setup_on(g: &Graph, policy: WritePolicy, levels: &[u64]) -> (Pram, CcState, Handle) {
        let mut pram = Pram::new(policy);
        let st = CcState::init(&mut pram, g);
        let level = pram.alloc(levels.len());
        for (v, &l) in levels.iter().enumerate() {
            pram.set(level, v, l);
        }
        (pram, st, level)
    }

    /// A path graph with hand-set levels.
    fn setup(levels: &[u64]) -> (Pram, CcState, Handle) {
        setup_on(
            &gen::path(levels.len()),
            WritePolicy::ArbitrarySeeded(5),
            levels,
        )
    }

    /// Persistent tables `(x, cells)` laid out back to back in one heap:
    /// `(eoff, heap, live table cells)`.
    fn tables(
        pram: &mut Pram,
        n: usize,
        tbls: &[(u32, Vec<u64>)],
    ) -> (Handle, Handle, Vec<(u32, u32)>) {
        let eoff = pram.alloc_filled(n, NULL);
        let total: usize = tbls.iter().map(|(_, t)| t.len()).sum();
        let heap = pram.alloc_filled(total.max(1), NULL);
        let mut cells = Vec::new();
        let mut off = 0;
        for (x, t) in tbls {
            pram.set(eoff, *x as usize, off as u64);
            for (c, &w) in t.iter().enumerate() {
                pram.set(heap, off + c, w);
                cells.push((*x, c as u32));
            }
            off += t.len();
        }
        (eoff, heap, cells)
    }

    /// One MAXLINK invocation of `iters` iterations as the driver runs it
    /// (per-invocation candidates sized to `live_verts`); returns whether
    /// any parent moved.
    fn run_invocation(
        pram: &mut Pram,
        st: &CcState,
        level: Handle,
        live_arcs: &[u32],
        live_verts: &[u32],
        tbls: &[(u32, Vec<u64>)],
        iters: u32,
    ) -> bool {
        let (eoff, heap, table_cells) = tables(pram, st.n, tbls);
        let mut vert_slot = vec![NO_SLOT; st.n];
        for (i, &v) in live_verts.iter().enumerate() {
            vert_slot[v as usize] = i as u32;
        }
        let changed = Flag::new(pram);
        let mut mx = MaxlinkCtx {
            cand: pram.alloc_stamped((live_verts.len() * (LMAX + 1)).max(1)),
            vert_slot: &vert_slot,
            level,
            lmax: LMAX,
            edges: RootEdges {
                arcs: live_arcs,
                cells: &table_cells,
                eu: st.eu,
                ev: st.ev,
                eoff,
                heap,
            },
            live_verts,
        };
        maxlink(pram, st.parent, &mut mx, &changed, iters);
        pram.free_stamped(mx.cand);
        let r = changed.read(pram);
        changed.free(pram);
        pram.free(eoff);
        pram.free(heap);
        r
    }

    /// `iters` iterations over every arc and vertex, no tables.
    fn run_all(pram: &mut Pram, st: &CcState, level: Handle, iters: u32) -> bool {
        let live_arcs: Vec<u32> = (0..st.arcs as u32).collect();
        let live_verts: Vec<u32> = (0..st.n as u32).collect();
        run_invocation(pram, st, level, &live_arcs, &live_verts, &[], iters)
    }

    #[test]
    fn hooks_toward_highest_level_neighbor_parent() {
        // Path 0-1-2; levels: 1, 1, 3. Vertices 0: neighbors {1}: parent 1
        // level 1 — no move. Vertex 1: neighbor 2 has parent 2 at level 3 >
        // own parent's level 1 → hook onto 2.
        let (mut pram, st, level) = setup(&[1, 1, 3]);
        assert!(run_all(&mut pram, &st, level, 1));
        let p = pram.read_vec(st.parent);
        assert_eq!(p, vec![0, 2, 2]);
    }

    #[test]
    fn no_change_on_equal_levels() {
        let (mut pram, st, level) = setup(&[2, 2, 2, 2]);
        assert!(!run_all(&mut pram, &st, level, 1));
        assert_eq!(pram.read_vec(st.parent), vec![0, 1, 2, 3]);
    }

    #[test]
    fn two_iterations_reach_distance_two() {
        // Path 0-1-2 with level(2)=5: after one iteration 1 hooks on 2;
        // after the second, 0 sees neighbor 1 whose parent is 2 (level 5)
        // and hooks onto 2 as well — the "distance 2" effect MAXLINK
        // exists for (Lemma 3.7 applied twice).
        let (mut pram, st, level) = setup(&[1, 1, 5]);
        run_all(&mut pram, &st, level, 2);
        let p = pram.read_vec(st.parent);
        assert_eq!(p, vec![2, 2, 2]);
    }

    #[test]
    fn restricting_to_live_arcs_matches_full_iteration() {
        // Arcs past the live prefix are loops after an ALTER; feeding only
        // the live prefix must give the same hooks as feeding everything
        // (loops contribute no candidates either way).
        let (mut pram, st, level) = setup(&[1, 1, 4, 1]);
        // Make arcs of vertex 3 loops by hand.
        let eu = pram.read_vec(st.eu);
        let ev = pram.read_vec(st.ev);
        let mut live: Vec<u32> = Vec::new();
        for i in 0..st.arcs {
            if eu[i] != ev[i] && eu[i] != 3 && ev[i] != 3 {
                live.push(i as u32);
            } else {
                pram.set(st.eu, i, 0);
                pram.set(st.ev, i, 0);
            }
        }
        run_invocation(&mut pram, &st, level, &live, &[0, 1, 2], &[], 1);
        let p = pram.read_vec(st.parent);
        assert_eq!(p, vec![0, 2, 2, 3]);
    }

    #[test]
    fn levels_strictly_increase_along_new_chains() {
        // Random levels on a grid; after MAXLINK, every non-root's parent
        // has strictly higher level (Lemma 3.2 / D.4).
        let g = gen::grid(5, 5);
        let levels: Vec<u64> = (0..g.n() as u64).map(|v| (v * 7 + 3) % 5).collect();
        let (mut pram, st, level) = setup_on(&g, WritePolicy::ArbitrarySeeded(9), &levels);
        run_all(&mut pram, &st, level, 2);
        let p = pram.read_vec(st.parent);
        let l = pram.read_vec(level);
        crate::verify::forest_heights(&p).expect("cycle created by MAXLINK");
        for v in 0..st.n {
            if p[v] != v as u64 {
                assert!(
                    l[p[v] as usize] > l[v],
                    "non-root {v} level {} parent {} level {}",
                    l[v],
                    p[v],
                    l[p[v] as usize]
                );
            }
        }
    }

    /// Host-side model of one MAXLINK invocation under a processor-priority
    /// policy, over every vertex: per iteration the arc step writes, then
    /// the table-cell step (a later step overwrites an earlier one); within
    /// a step the lowest (PriorityMin) or highest (PriorityMax) processor
    /// id wins each (vertex, level) cell; selection takes the highest
    /// occupied level strictly above the current parent's.
    fn model(
        policy: WritePolicy,
        levels: &[u64],
        arcs: &[(u64, u64)],
        tbls: &[(u32, Vec<u64>)],
        iters: u32,
    ) -> Vec<u64> {
        let n = levels.len();
        let min_wins = match policy {
            WritePolicy::PriorityMin => true,
            WritePolicy::PriorityMax => false,
            other => panic!("no processor-priority model for {other:?}"),
        };
        // One step's winners, in processor order.
        let resolve = |writes: Vec<(u64, u64)>| {
            let mut step = vec![vec![None; LMAX + 1]; n];
            for (target, u) in writes {
                let cell: &mut Option<u64> =
                    &mut step[target as usize][levels[u as usize] as usize];
                if cell.is_none() || !min_wins {
                    *cell = Some(u);
                }
            }
            step
        };
        let mut parent: Vec<u64> = (0..n as u64).collect();
        for _ in 0..iters {
            let arc_step = resolve(
                arcs.iter()
                    .filter(|(a, b)| a != b)
                    .map(|&(a, b)| (a, parent[b as usize]))
                    .collect(),
            );
            let cell_step = resolve(
                tbls.iter()
                    .flat_map(|(x, t)| t.iter().map(move |&w| (*x as u64, w)))
                    .filter(|&(x, w)| w != NULL && w != x)
                    .flat_map(|(x, w)| [(x, parent[w as usize]), (w, parent[x as usize])])
                    .collect(),
            );
            parent = (0..n)
                .map(|v| {
                    let lp = levels[parent[v] as usize] as usize;
                    (lp + 1..=LMAX)
                        .rev()
                        .find_map(|l| cell_step[v][l].or(arc_step[v][l]))
                        .unwrap_or(parent[v])
                })
                .collect();
        }
        parent
    }

    #[test]
    fn matches_a_host_model_under_priority_policies() {
        // Resolution under PRIORITY-MIN/MAX depends only on processor ids,
        // so the committed candidates — hence the parents — are fixed and
        // must match the model bit for bit.
        let mut tables_mattered = false;
        for n in [8usize, 23, 57, 96] {
            let g = gen::gnm(n, n * 3, 7);
            let levels: Vec<u64> = (0..n as u64).map(|v| (v * 13 + 5) % 6).collect();
            // A few live tables: neighbours, an empty cell, a self entry.
            let tbls: Vec<(u32, Vec<u64>)> = (0..n as u64)
                .step_by(5)
                .map(|x| {
                    (
                        x as u32,
                        vec![(x * 7 + 3) % n as u64, NULL, x, (x * 11 + 1) % n as u64],
                    )
                })
                .collect();
            // Rows follow the live-list order, not vertex ids.
            let live_verts: Vec<u32> = (0..n as u32).rev().collect();
            for policy in [WritePolicy::PriorityMin, WritePolicy::PriorityMax] {
                for iters in [1u32, 2] {
                    let (mut pram, st, level) = setup_on(&g, policy, &levels);
                    let arcs: Vec<(u64, u64)> = pram
                        .read_vec(st.eu)
                        .into_iter()
                        .zip(pram.read_vec(st.ev))
                        .collect();
                    let live_arcs: Vec<u32> = (0..st.arcs as u32).collect();
                    run_invocation(&mut pram, &st, level, &live_arcs, &live_verts, &tbls, iters);
                    let want = model(policy, &levels, &arcs, &tbls, iters);
                    assert_eq!(
                        pram.read_vec(st.parent),
                        want,
                        "n={n} policy={policy:?} iters={iters}"
                    );
                    tables_mattered |= want != model(policy, &levels, &arcs, &[], iters);
                }
            }
        }
        assert!(tables_mattered, "no case exercised the table-cell step");
    }

    #[test]
    fn stamped_skips_targets_outside_live_verts() {
        // A target missing from the slot map must be skipped — no panic,
        // no hook.
        let levels = vec![1, 1, 4, 1, 1, 1, 1, 1];
        let g = gen::gnm(levels.len(), levels.len() * 3, 7);
        let (mut pram, st, level) = setup_on(&g, WritePolicy::PriorityMin, &levels);
        let live_arcs: Vec<u32> = (0..st.arcs as u32).collect();
        run_invocation(&mut pram, &st, level, &live_arcs, &[0, 1, 2], &[], 2);
        let p = pram.read_vec(st.parent);
        for (v, &pv) in p.iter().enumerate().skip(3) {
            assert_eq!(pv, v as u64, "non-live vertex {v} moved");
        }
    }

    #[test]
    fn stale_generations_are_invisible() {
        // A candidate planted far above vertex 0's level is taken while its
        // generation is current, and reads as NULL once the generation has
        // moved on: an iteration that proposes nothing must then move
        // nothing.
        let (mut pram, st, level) = setup(&[1, 1, 1]);
        let eoff = pram.alloc_filled(st.n, NULL);
        let heap = pram.alloc_filled(1, NULL);
        let changed = Flag::new(&mut pram);
        let mut mx = MaxlinkCtx {
            cand: pram.alloc_stamped(3 * (LMAX + 1)),
            vert_slot: &[0, 1, 2],
            level,
            lmax: LMAX,
            edges: RootEdges {
                arcs: &[],
                cells: &[],
                eu: st.eu,
                ev: st.ev,
                eoff,
                heap,
            },
            live_verts: &[0, 1, 2],
        };
        let plant = |pram: &mut Pram, cand: Stamped| {
            pram.step(1, move |_, ctx| ctx.write_stamped(cand, 7, 2)); // row 0, level 7
        };
        plant(&mut pram, mx.cand);
        pram.host_stamped_fill(&mut mx.cand);
        maxlink_iter(&mut pram, st.parent, &mx, &changed);
        assert!(!changed.read(&pram), "a stale candidate was selected");
        assert_eq!(pram.read_vec(st.parent), vec![0, 1, 2]);
        plant(&mut pram, mx.cand);
        maxlink_iter(&mut pram, st.parent, &mx, &changed);
        assert_eq!(pram.read_vec(st.parent), vec![2, 1, 2]);
    }
}
