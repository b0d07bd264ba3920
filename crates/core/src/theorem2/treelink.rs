//! TREE-LINK (§C.3): turn one phase's expansion into *direct links along
//! input edges*, so the links can be recorded as spanning-forest edges.
//!
//! For every vertex `u` the method computes:
//!
//! * `α(u)` — the largest radius such that `B(u, α)` contains no hash
//!   collision, no leader, and no fully-dormant vertex. It is assembled
//!   from the per-round expansion snapshots `H_j` by binary radix descent
//!   (`j = T → 0`): extending `Q(u) = B(u, α)` by `2^j` succeeds exactly
//!   when every current member was still live in round `j` and the
//!   extension stays collision- and leader-free (Lemma C.4).
//! * `β(u)` — `0` for leaders, `α(u) + 1` when a *leader-neighbour* is in
//!   `Q(u)`; by Lemma C.5 this equals the exact distance to the nearest
//!   leader.
//!
//! Every current arc `(v, w)` with `β(v) = β(w) + 1` is then a legal
//! shortest-path-tree link (Lemma C.6): `v.p := w` and the arc's
//! *original* edge joins the forest. β strictly decreases along links, so
//! no cycle can ever form, and tree heights stay ≤ d (Lemma C.8).

use crate::live::LiveSet;
use crate::state::CcState;
use crate::theorem1::Expansion;
use pram_sim::{Handle, Pram, NULL};

/// Per-phase TREE-LINK scratch (caller allocates once per phase).
pub(crate) struct TreeLink {
    pub alpha: Handle,
    pub beta: Handle,
    pub gate: Handle,
    pub fail: Handle,
    pub lnbr: Handle,
    /// Chosen incoming arc per vertex (`NULL` = none).
    pub vearc: Handle,
    pub qtab: Handle,
    pub qprime: Handle,
}

impl TreeLink {
    pub(crate) fn new(pram: &mut Pram, n: usize, table_cells: usize) -> Self {
        TreeLink {
            alpha: pram.alloc_filled(n, NULL),
            beta: pram.alloc_filled(n, NULL),
            gate: pram.alloc_filled(n, 0),
            fail: pram.alloc_filled(n, 0),
            lnbr: pram.alloc_filled(n, 0),
            vearc: pram.alloc_filled(n, NULL),
            qtab: pram.alloc_filled(table_cells, NULL),
            qprime: pram.alloc_filled(table_cells, NULL),
        }
    }

    pub(crate) fn free(self, pram: &mut Pram) {
        pram.free(self.alpha);
        pram.free(self.beta);
        pram.free(self.gate);
        pram.free(self.fail);
        pram.free(self.lnbr);
        pram.free(self.vearc);
        pram.free(self.qtab);
        pram.free(self.qprime);
    }
}

/// Run TREE-LINK for one phase, scheduled over `live`. Writes parent links
/// and sets `forest[arc] = 1` for the chosen arcs. `leader` comes from
/// VOTE. Per-vertex steps iterate the ongoing vertices, per-arc steps the
/// live arcs; the per-block-cell steps iterate `owned`, which is already
/// live-sized.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tree_link(
    pram: &mut Pram,
    st: &CcState,
    e: &Expansion,
    tl: &TreeLink,
    live: &LiveSet,
    leader: Handle,
    forest: Handle,
) {
    let k = e.k;
    let (fdr, tables_owner, hb, hv) = (e.fdr, e.owner, e.hb, e.hv);
    let owned = &e.owned;
    let (alpha, beta, gate, fail) = (tl.alpha, tl.beta, tl.gate, tl.fail);
    let (lnbr, vearc, qtab, qprime) = (tl.lnbr, tl.vearc, tl.qtab, tl.qprime);
    let (parent, eu, ev) = (st.parent, st.eu, st.ev);

    // Step 1: initialise α and Q for non-leader block owners.
    pram.step_over(&live.verts, move |_, &u, ctx| {
        let u = u as u64;
        if ctx.read(leader, u as usize) == 1 {
            return; // α stays NONE (leaders)
        }
        let blk = hb.eval(u);
        if ctx.read(tables_owner, blk as usize) != u {
            return; // fully dormant: no block, α stays NONE
        }
        ctx.write(alpha, u as usize, 0);
        ctx.write(qtab, blk as usize * k + hv.eval(u) as usize, u);
    });

    // Step 2: radix descent over the expansion rounds.
    let t = e.rounds;
    for j in (0..=t).rev() {
        let snap = e.snapshots[j as usize];
        // Gate: u participates iff α ≥ 0 and every v ∈ Q(u) was live in
        // round j (fdr encoding: live in round j ⟺ fdr ≥ j + 2).
        pram.step_over(&live.verts, move |_, &u, ctx| {
            let g = ctx.read(alpha, u as usize) != NULL;
            ctx.write(gate, u as usize, g as u64);
            ctx.write(fail, u as usize, 0);
        });
        pram.step(owned.len() * k, |pp, ctx| {
            let idx = (pp as usize) / k;
            let p = (pp as usize) % k;
            let (blk, u) = owned[idx];
            let v = ctx.read(qtab, blk as usize * k + p);
            if v != NULL && ctx.read_stamped(fdr, v as usize, NULL) < j + 2 {
                ctx.write(gate, u as usize, 0);
            }
        });
        pram.fill_step(qprime, NULL);
        // (b) Q'(u) ← ∪_{v ∈ Q(u)} H_j(v).
        pram.step(owned.len() * k * k, |pp, ctx| {
            let idx = (pp as usize) / (k * k);
            let rem = (pp as usize) % (k * k);
            let (p, q) = (rem / k, rem % k);
            let (blk, u) = owned[idx];
            if ctx.read(gate, u as usize) != 1 {
                return;
            }
            let v = ctx.read(qtab, blk as usize * k + p);
            if v == NULL {
                return;
            }
            let blkv = hb.eval(v);
            let w = ctx.read(snap, blkv as usize * k + q);
            if w == NULL {
                return;
            }
            ctx.write(qprime, blk as usize * k + hv.eval(w) as usize, w);
        });
        // (c) collision check...
        pram.step(owned.len() * k * k, |pp, ctx| {
            let idx = (pp as usize) / (k * k);
            let rem = (pp as usize) % (k * k);
            let (p, q) = (rem / k, rem % k);
            let (blk, u) = owned[idx];
            if ctx.read(gate, u as usize) != 1 {
                return;
            }
            let v = ctx.read(qtab, blk as usize * k + p);
            if v == NULL {
                return;
            }
            let blkv = hb.eval(v);
            let w = ctx.read(snap, blkv as usize * k + q);
            if w == NULL {
                return;
            }
            if ctx.read(qprime, blk as usize * k + hv.eval(w) as usize) != w {
                ctx.write(fail, u as usize, 1);
            }
        });
        // ...and leader check.
        pram.step(owned.len() * k, |pp, ctx| {
            let idx = (pp as usize) / k;
            let i = (pp as usize) % k;
            let (blk, u) = owned[idx];
            if ctx.read(gate, u as usize) != 1 {
                return;
            }
            let w = ctx.read(qprime, blk as usize * k + i);
            if w != NULL && ctx.read(leader, w as usize) == 1 {
                ctx.write(fail, u as usize, 1);
            }
        });
        // Commit: Q := Q', α += 2^j.
        pram.step(owned.len() * k, |pp, ctx| {
            let idx = (pp as usize) / k;
            let i = (pp as usize) % k;
            let (blk, u) = owned[idx];
            if ctx.read(gate, u as usize) != 1 || ctx.read(fail, u as usize) != 0 {
                return;
            }
            let w = ctx.read(qprime, blk as usize * k + i);
            ctx.write(qtab, blk as usize * k + i, w);
            if i == 0 {
                let a = ctx.read(alpha, u as usize);
                ctx.write(alpha, u as usize, a + (1 << j));
            }
        });
    }

    // Step 3: leader-neighbour marking over current live arcs (unlisted
    // arcs are loops, which marked nothing before either).
    pram.step_over(&live.arcs, move |_, &ai, ctx| {
        let i = ai as usize;
        let v = ctx.read(eu, i);
        let w = ctx.read(ev, i);
        if v != w && ctx.read(leader, v as usize) == 1 {
            ctx.write(lnbr, w as usize, 1);
        }
    });

    // Step 4: β labels.
    pram.step_over(&live.verts, move |_, &u, ctx| {
        if ctx.read(leader, u as usize) == 1 {
            ctx.write(beta, u as usize, 0);
        }
    });
    pram.step(owned.len() * k, |pp, ctx| {
        let idx = (pp as usize) / k;
        let i = (pp as usize) % k;
        let (blk, u) = owned[idx];
        if ctx.read(leader, u as usize) == 1 {
            return;
        }
        let a = ctx.read(alpha, u as usize);
        if a == NULL {
            return;
        }
        let w = ctx.read(qtab, blk as usize * k + i);
        if w != NULL && ctx.read(lnbr, w as usize) == 1 {
            ctx.write(beta, u as usize, a + 1);
        }
    });

    // Step 5: choose an arc with β(v) = β(w) + 1 per vertex.
    pram.step_over(&live.arcs, move |_, &ai, ctx| {
        let i = ai as usize;
        let v = ctx.read(eu, i);
        let w = ctx.read(ev, i);
        if v == w {
            return;
        }
        let bv = ctx.read(beta, v as usize);
        let bw = ctx.read(beta, w as usize);
        if bv != NULL && bw != NULL && bv == bw + 1 {
            ctx.write(vearc, v as usize, ai as u64);
        }
    });

    // Step 6: link along the chosen arc and mark the original edge.
    pram.step_over(&live.verts, move |_, &u, ctx| {
        let i = ctx.read(vearc, u as usize);
        if i == NULL {
            return;
        }
        let w = ctx.read(ev, i as usize);
        ctx.write(parent, u as usize, w);
        ctx.write(forest, i as usize, 1);
    });
}
