//! Shared algorithm state: the labeled digraph (§2.1) plus the arc lists.
//!
//! Every algorithm in this crate operates on a [`CcState`]:
//!
//! * `parent` — the label array `v.p`; the labeled digraph has arcs
//!   `(v, v.p)` and must always be a set of rooted trees (only self-loop
//!   cycles), which [`crate::verify::forest_heights`] asserts.
//! * `eu` / `ev` — the 2m directed arcs of the *current* graph (original
//!   edges, altered over time). One simulated processor per arc, exactly as
//!   the paper assigns them.

use cc_graph::Graph;
use pram_sim::{Handle, Pram};

/// Labeled-digraph state on the machine.
pub struct CcState {
    /// Number of vertices.
    pub n: usize,
    /// Number of directed arcs in `eu`/`ev` (2m; the handles may be 1 cell
    /// longer when the graph has no edges, holding a harmless loop arc).
    pub arcs: usize,
    /// Parent array (`n` cells): `parent[v] = v.p`.
    pub parent: Handle,
    /// Arc tails.
    pub eu: Handle,
    /// Arc heads.
    pub ev: Handle,
}

impl CcState {
    /// Initialize from a graph: every vertex self-labeled, arcs in both
    /// directions. (Setup is host-side and not charged, matching the
    /// paper's assumption that the input sits in memory with one processor
    /// per edge and per vertex.)
    pub fn init(pram: &mut Pram, g: &Graph) -> Self {
        let n = g.n();
        assert!(n >= 1, "empty vertex set");
        let parent = pram.alloc(n);
        for v in 0..n {
            pram.set(parent, v, v as u64);
        }
        let arcs = 2 * g.m();
        let alloc_arcs = arcs.max(1);
        let eu = pram.alloc(alloc_arcs);
        let ev = pram.alloc(alloc_arcs);
        let mut i = 0;
        for &(u, v) in g.edges() {
            pram.set(eu, i, u as u64);
            pram.set(ev, i, v as u64);
            pram.set(eu, i + 1, v as u64);
            pram.set(ev, i + 1, u as u64);
            i += 2;
        }
        if arcs == 0 {
            // Dummy loop arc so handles are non-empty; loops are ignored by
            // every algorithm.
            pram.set(eu, 0, 0);
            pram.set(ev, 0, 0);
        }
        CcState {
            n,
            arcs: alloc_arcs,
            parent,
            eu,
            ev,
        }
    }

    /// Read the component labeling (assumes flat trees: label = parent).
    pub fn labels(&self, pram: &Pram) -> Vec<u32> {
        pram.view(self.parent).iter().map(|p| p as u32).collect()
    }

    /// Read the labeling after host-side root chasing (valid even when
    /// trees are not flat; used by verifiers and by safety-capped exits).
    pub fn labels_rooted(&self, pram: &Pram) -> Vec<u32> {
        rooted_labels(pram, self.parent)
    }

    /// Host count of roots (`v.p == v`). Controller bookkeeping, free.
    pub fn host_count_roots(&self, pram: &Pram) -> usize {
        pram.view(self.parent)
            .iter()
            .enumerate()
            .filter(|&(v, p)| p == v as u64)
            .count()
    }

    /// Host count of *ongoing* vertices: endpoints of non-loop arcs
    /// (Definition B.1 via Lemma B.2). Used for reporting and by the
    /// COMBINING-mode density estimate; the ARBITRARY-mode drivers use the
    /// §B.5 `ñ` rule instead.
    pub fn host_count_ongoing(&self, pram: &Pram) -> usize {
        let eu = pram.view(self.eu);
        let ev = pram.view(self.ev);
        let mut flag = vec![false; self.n];
        for i in 0..self.arcs {
            let (u, v) = (eu.get(i), ev.get(i));
            if u != v {
                flag[u as usize] = true;
                flag[v as usize] = true;
            }
        }
        flag.into_iter().filter(|&b| b).count()
    }

    /// Release all handles.
    pub fn free(self, pram: &mut Pram) {
        pram.free(self.parent);
        pram.free(self.eu);
        pram.free(self.ev);
    }
}

/// Root-chased labels of the forest in `parent` (see
/// [`CcState::labels_rooted`]); for drivers that keep a parent array
/// without its arcs.
pub(crate) fn rooted_labels(pram: &Pram, parent: Handle) -> Vec<u32> {
    let parent = pram.view(parent);
    let n = parent.len();
    let mut out = vec![u32::MAX; n];
    for v in 0..n {
        if out[v] != u32::MAX {
            continue;
        }
        // Chase to the root, then write it back along the path.
        let mut path = vec![v];
        let mut x = parent.get(v) as usize;
        while parent.get(x) as usize != x && out[x] == u32::MAX {
            path.push(x);
            x = parent.get(x) as usize;
        }
        let root = if out[x] != u32::MAX {
            out[x]
        } else {
            parent.get(x) as u32
        };
        for &p in &path {
            out[p] = root;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::gen;
    use pram_sim::WritePolicy;

    #[test]
    fn init_self_labels_and_arcs() {
        let g = gen::path(4);
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let st = CcState::init(&mut pram, &g);
        assert_eq!(st.arcs, 6);
        assert_eq!(pram.read_vec(st.parent), vec![0, 1, 2, 3]);
        let eu = pram.read_vec(st.eu);
        let ev = pram.read_vec(st.ev);
        // Both directions of (0,1) present.
        let pairs: Vec<(u64, u64)> = eu.into_iter().zip(ev).collect();
        assert!(pairs.contains(&(0, 1)) && pairs.contains(&(1, 0)));
    }

    #[test]
    fn empty_graph_gets_dummy_loop() {
        let g = cc_graph::GraphBuilder::new(3).build();
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let st = CcState::init(&mut pram, &g);
        assert_eq!(st.arcs, 1);
        assert_eq!(pram.get(st.eu, 0), pram.get(st.ev, 0));
    }

    #[test]
    fn labels_rooted_chases_chains() {
        let g = gen::path(5);
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(1));
        let st = CcState::init(&mut pram, &g);
        // Build a chain 4 -> 3 -> 2 -> 1 -> 0 by hand.
        for v in 1..5 {
            pram.set(st.parent, v, v as u64 - 1);
        }
        assert_eq!(st.labels_rooted(&pram), vec![0; 5]);
    }
}
