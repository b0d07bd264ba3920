//! The classic building blocks of §2.2 as reusable PRAM routines:
//! SHORTCUT, ALTER, flag-OR termination tests, and host-side helpers.
//!
//! Conventions shared by all algorithm crates:
//!
//! * vertex ids are `u64` values stored in shared-memory cells
//!   (`NULL = u64::MAX` means "empty"),
//! * a *parent array* is a handle with one cell per vertex,
//! * an *arc list* is a pair of equal-length handles `(eu, ev)`; arc `i`
//!   is the directed edge `eu[i] → ev[i]`.

use pram_sim::{Ctx, Handle, Pram};

/// One SHORTCUT round: `v.p := v.p.p` for every vertex, in one step.
///
/// (A processor reads its parent and its grandparent — two dependent reads,
/// still O(1) per processor.)
pub fn shortcut(pram: &mut Pram, parent: Handle) {
    let n = parent.len();
    pram.step(n, move |v, ctx| {
        let p = ctx.read(parent, v as usize);
        let gp = ctx.read(parent, p as usize);
        if gp != p {
            ctx.write(parent, v as usize, gp);
        }
    });
}

/// ALTER: replace every arc `(u, v)` by `(u.p, v.p)`, in one step
/// (one processor per arc).
pub fn alter(pram: &mut Pram, eu: Handle, ev: Handle, parent: Handle) {
    let arcs = eu.len();
    assert_eq!(arcs, ev.len(), "arc arrays must have equal length");
    pram.step(arcs, move |i, ctx| {
        let i = i as usize;
        let u = ctx.read(eu, i);
        let v = ctx.read(ev, i);
        let pu = ctx.read(parent, u as usize);
        let pv = ctx.read(parent, v as usize);
        if pu != u {
            ctx.write(eu, i, pu);
        }
        if pv != v {
            ctx.write(ev, i, pv);
        }
    });
}

/// ALTER restricted to a compacted live-arc index: one processor per entry
/// of `live`, each rewriting arc `live[i]`. Semantically identical to
/// [`alter`] on the listed arcs; unlisted arcs are left untouched — legal
/// whenever they are self-loops or duplicates of listed arcs, since ALTER
/// maps a self-loop to a self-loop and duplicates to duplicates.
pub fn alter_over(pram: &mut Pram, eu: Handle, ev: Handle, parent: Handle, live: &[u32]) {
    pram.step_over(live, move |_, &a, ctx| {
        let i = a as usize;
        let u = ctx.read(eu, i);
        let v = ctx.read(ev, i);
        let pu = ctx.read(parent, u as usize);
        let pv = ctx.read(parent, v as usize);
        if pu != u {
            ctx.write(eu, i, pu);
        }
        if pv != v {
            ctx.write(ev, i, pv);
        }
    });
}

/// One SHORTCUT round restricted to the listed vertices, raising `flag`
/// iff any listed parent changed. The live-work scheduler uses this so a
/// round's pointer jumping (and its contribution to the break condition)
/// costs O(live), with finished trees flattened once at the end of the run
/// by [`shortcut_until_flat_over`] instead of re-walked every round.
pub fn shortcut_flagged_over(pram: &mut Pram, parent: Handle, verts: &[u32], flag: &Flag) {
    pram.step_over(verts, move |_, &v, ctx| {
        let p = ctx.read(parent, v as usize);
        let gp = ctx.read(parent, p as usize);
        if gp != p {
            ctx.write(parent, v as usize, gp);
            flag.raise(ctx);
        }
    });
}

/// One SHORTCUT round restricted to the listed vertices (no change flag).
/// The live drivers' per-phase pointer jumping: O(live) instead of O(n).
pub fn shortcut_over(pram: &mut Pram, parent: Handle, verts: &[u32]) {
    pram.step_over(verts, move |_, &v, ctx| {
        let p = ctx.read(parent, v as usize);
        let gp = ctx.read(parent, p as usize);
        if gp != p {
            ctx.write(parent, v as usize, gp);
        }
    });
}

/// Repeat [`shortcut_over`] on `verts` until none of the listed parents
/// changes; returns the rounds executed. At the fixpoint every listed
/// vertex's parent is a root (its chain may pass through unlisted finished
/// vertices — pointer jumping converges regardless). The live-work
/// postprocess uses this to flatten only the surviving frontier instead of
/// re-walking all `n` vertices.
pub fn shortcut_until_flat_over(pram: &mut Pram, parent: Handle, verts: &[u32]) -> u64 {
    let flag = Flag::new(pram);
    let mut rounds = 0;
    loop {
        flag.clear(pram);
        shortcut_flagged_over(pram, parent, verts, &flag);
        rounds += 1;
        if !flag.read(pram) {
            break;
        }
    }
    flag.free(pram);
    rounds
}

/// Whether any arc is a non-loop (`eu[i] != ev[i]`): the paper's repeat-loop
/// termination test, one flag-OR step.
pub fn any_nonloop_arc(pram: &mut Pram, eu: Handle, ev: Handle) -> bool {
    let arcs = eu.len();
    let flag = Flag::new(pram);
    pram.step(arcs, |i, ctx| {
        let i = i as usize;
        if ctx.read(eu, i) != ctx.read(ev, i) {
            flag.raise(ctx);
        }
    });
    let r = flag.read(pram);
    flag.free(pram);
    r
}

/// A single-cell OR flag: any processor may raise it during a step; the
/// host reads it between steps. Concurrent raises are concurrent writes of
/// the same value — legal on any CRCW variant.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    cell: Handle,
}

impl Flag {
    /// Allocate a cleared flag.
    pub fn new(pram: &mut Pram) -> Self {
        let cell = pram.alloc_filled(1, 0);
        Flag { cell }
    }

    /// Clear (host-side, between steps).
    pub fn clear(&self, pram: &mut Pram) {
        pram.set(self.cell, 0, 0);
    }

    /// Raise from inside a step.
    #[inline]
    pub fn raise(&self, ctx: &mut Ctx) {
        ctx.write(self.cell, 0, 1);
    }

    /// Host read.
    pub fn read(&self, pram: &Pram) -> bool {
        pram.get(self.cell, 0) != 0
    }

    /// Release the cell.
    pub fn free(self, pram: &mut Pram) {
        pram.free(self.cell);
    }
}

/// Host-side count of cells satisfying `pred` (controller bookkeeping,
/// no simulated time charged).
pub fn host_count(pram: &Pram, h: Handle, pred: impl Fn(u64) -> bool) -> usize {
    pram.view(h).iter().filter(|&x| pred(x)).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram_sim::WritePolicy;

    fn machine() -> Pram {
        Pram::new(WritePolicy::ArbitrarySeeded(404))
    }

    /// Parent array forming one path 0 <- 1 <- 2 <- ... <- n-1.
    fn chain_parents(pram: &mut Pram, n: usize) -> Handle {
        let parent = pram.alloc(n);
        for v in 0..n {
            pram.set(parent, v, v.saturating_sub(1) as u64);
        }
        parent
    }

    #[test]
    fn one_shortcut_halves_depth() {
        let mut pram = machine();
        let parent = chain_parents(&mut pram, 8);
        shortcut(&mut pram, parent);
        let p = pram.read_vec(parent);
        // v's parent should now be v-2 (clamped at root 0).
        assert_eq!(p, vec![0, 0, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn shortcut_until_flat_over_every_vertex_takes_logarithmic_rounds() {
        let mut pram = machine();
        let n = 1 << 10;
        let parent = chain_parents(&mut pram, n);
        let every: Vec<u32> = (0..n as u32).collect();
        let rounds = shortcut_until_flat_over(&mut pram, parent, &every);
        let p = pram.read_vec(parent);
        assert!(p.iter().all(|&x| x == 0));
        // depth n-1 needs ceil(log2) + 1-ish rounds
        assert!(rounds <= 12, "rounds={rounds}");
    }

    #[test]
    fn alter_moves_arcs_to_parents() {
        let mut pram = machine();
        let parent = pram.alloc(4);
        for (v, p) in [(0u64, 0u64), (1, 0), (2, 2), (3, 2)] {
            pram.set(parent, v as usize, p);
        }
        let eu = pram.alloc(2);
        let ev = pram.alloc(2);
        // arcs (1,3) and (2,0)
        pram.set(eu, 0, 1);
        pram.set(ev, 0, 3);
        pram.set(eu, 1, 2);
        pram.set(ev, 1, 0);
        alter(&mut pram, eu, ev, parent);
        assert_eq!(pram.read_vec(eu), vec![0, 2]);
        assert_eq!(pram.read_vec(ev), vec![2, 0]);
    }

    #[test]
    fn alter_over_touches_only_listed_arcs() {
        let mut pram = machine();
        let parent = pram.alloc(4);
        for (v, p) in [(0u64, 0u64), (1, 0), (2, 2), (3, 2)] {
            pram.set(parent, v as usize, p);
        }
        let eu = pram.alloc(3);
        let ev = pram.alloc(3);
        // arcs: (1,3) live, (1,1) loop (unlisted), (3,1) live.
        for (i, (u, v)) in [(1u64, 3u64), (1, 1), (3, 1)].iter().enumerate() {
            pram.set(eu, i, *u);
            pram.set(ev, i, *v);
        }
        alter_over(&mut pram, eu, ev, parent, &[0, 2]);
        assert_eq!(pram.read_vec(eu), vec![0, 1, 2]);
        assert_eq!(pram.read_vec(ev), vec![2, 1, 0]);
        // Charged at the live count.
        assert_eq!(pram.stats().work, 2);
    }

    #[test]
    fn shortcut_over_jumps_only_listed_vertices() {
        let mut pram = machine();
        let parent = chain_parents(&mut pram, 6); // 0 <- 1 <- ... <- 5
        let flag = Flag::new(&mut pram);
        shortcut_flagged_over(&mut pram, parent, &[5, 4], &flag);
        assert!(flag.read(&pram));
        assert_eq!(pram.read_vec(parent), vec![0, 0, 1, 2, 2, 3]);
        // No listed parent changes => flag stays down.
        flag.clear(&mut pram);
        shortcut_flagged_over(&mut pram, parent, &[1], &flag);
        assert!(!flag.read(&pram));
    }

    #[test]
    fn shortcut_until_flat_over_flattens_listed_frontier() {
        let mut pram = machine();
        let parent = chain_parents(&mut pram, 16); // 0 <- 1 <- ... <- 15
        let frontier: Vec<u32> = vec![15, 14, 13];
        let rounds = shortcut_until_flat_over(&mut pram, parent, &frontier);
        let p = pram.read_vec(parent);
        for &v in &frontier {
            assert_eq!(p[v as usize], 0, "listed vertex {v} not flat");
        }
        // Unlisted vertices never jump, so listed chains advance through
        // stale intermediates — convergence is O(depth) here, not O(log):
        // acceptable because live frontiers have short chains (Theorem 3
        // bounds depth by the level schedule).
        assert_eq!(p[1], 0);
        assert_eq!(p[2], 1);
        assert!(rounds <= 16, "rounds={rounds}");
    }

    #[test]
    fn nonloop_detection() {
        let mut pram = machine();
        let eu = pram.alloc(3);
        let ev = pram.alloc(3);
        for i in 0..3 {
            pram.set(eu, i, 5);
            pram.set(ev, i, 5);
        }
        assert!(!any_nonloop_arc(&mut pram, eu, ev));
        pram.set(ev, 1, 6);
        assert!(any_nonloop_arc(&mut pram, eu, ev));
    }

    #[test]
    fn flag_raise_and_clear() {
        let mut pram = machine();
        let flag = Flag::new(&mut pram);
        assert!(!flag.read(&pram));
        pram.step(100, |_, ctx| flag.raise(ctx));
        assert!(flag.read(&pram));
        flag.clear(&mut pram);
        assert!(!flag.read(&pram));
    }

    #[test]
    fn host_count_counts() {
        let mut pram = machine();
        let h = pram.alloc(10);
        for i in 0..10 {
            pram.set(h, i, i as u64);
        }
        assert_eq!(host_count(&pram, h, |x| x % 2 == 0), 5);
    }
}
