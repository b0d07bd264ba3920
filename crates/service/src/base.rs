//! The folded base graph as the service keeps it: one canonical edge
//! list plus a row-start index — no CSR adjacency.
//!
//! Nothing on the commit path walks adjacency. Dedup only asks "is
//! `(u, v)` in the base?", which the row index answers by a binary search
//! inside `u`'s row; durable snapshots stream the edge list. So the
//! service holds exactly one copy of its edges, and a fold merges into it
//! in place.

use crate::Edge;
use cc_graph::builder::dedup_new_edges_by;
use pram_kit::PairSet;

/// The base edge list (each undirected edge once as `(u, v)` with
/// `u < v`, sorted, duplicate-free) with its row-start index.
pub(crate) struct BaseEdges {
    n: usize,
    edges: Vec<Edge>,
    /// `rows[u]..rows[u + 1]` is the run of `edges` whose smaller
    /// endpoint is `u`; rebuilt whenever `edges` changes.
    rows: Vec<u32>,
}

impl BaseEdges {
    /// Index an already-canonical edge list over `n` vertices.
    pub(crate) fn new(n: usize, edges: Vec<Edge>) -> Self {
        debug_assert!(is_canonical(&edges, n), "base edge list not canonical");
        let rows = row_index(n, &edges);
        BaseEdges { n, edges, rows }
    }

    /// Vertex count.
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Edge count.
    pub(crate) fn m(&self) -> usize {
        self.edges.len()
    }

    /// The canonical edge list, in order.
    pub(crate) fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Whether the canonical edge `(u, v)`, `u < v`, is in the base: a
    /// binary search of `u`'s row.
    fn contains(&self, (u, v): Edge) -> bool {
        let row = &self.edges[self.rows[u as usize] as usize..self.rows[u as usize + 1] as usize];
        row.binary_search_by_key(&v, |&(_, w)| w).is_ok()
    }

    /// Batch normalization against this base and the caller's dedup set:
    /// [`cc_graph::builder::dedup_new_edges_by`], with the base lookup
    /// searching one row.
    pub(crate) fn dedup_new_edges(&self, extra: &[Edge], seen: &mut PairSet) -> Vec<Edge> {
        dedup_new_edges_by(self.n, extra, seen, |e| self.contains(e))
    }

    /// Whether `delta` is a list the commit path could have produced on
    /// this base: canonical, distinct, and disjoint from the base (the
    /// recovery check for a snapshot's delta segment, which its checksum
    /// cannot vouch for semantically).
    pub(crate) fn accepts_delta(&self, delta: &[Edge]) -> bool {
        let mut seen = PairSet::with_capacity(0, delta.len());
        self.dedup_new_edges(delta, &mut seen) == delta
    }

    /// Fold a delta list (distinct, disjoint from the base; sorted here)
    /// into the base, in place: the edge list is never copied.
    pub(crate) fn fold(&mut self, delta: &mut [Edge]) {
        delta.sort_unstable();
        merge_in_place(&mut self.edges, delta);
        self.rows = row_index(self.n, &self.edges);
    }
}

/// Whether `edges` is a canonical edge list over `n` vertices: `u < v <
/// n` for every edge, strictly increasing.
pub(crate) fn is_canonical(edges: &[Edge], n: usize) -> bool {
    edges.iter().all(|&(u, v)| u < v && (v as usize) < n) && edges.windows(2).all(|w| w[0] < w[1])
}

fn row_index(n: usize, edges: &[Edge]) -> Vec<u32> {
    let mut rows = vec![0u32; n + 1];
    for &(u, _) in edges {
        rows[u as usize + 1] += 1;
    }
    for u in 0..n {
        rows[u + 1] += rows[u];
    }
    rows
}

/// Merge the sorted run `delta` into the sorted run `base` (disjoint),
/// back to front, so no second copy of the base is ever made: each delta
/// edge shifts the base run above it to its final offset in one move.
fn merge_in_place(base: &mut Vec<Edge>, delta: &[Edge]) {
    let mut end = base.len();
    base.resize(end + delta.len(), (0, 0));
    for (j, &e) in delta.iter().enumerate().rev() {
        let at = base[..end].partition_point(|&x| x < e);
        base.copy_within(at..end, at + j + 1);
        base[at + j] = e;
        end = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{gen, Graph};

    #[test]
    fn dedup_matches_the_graph_rule_and_keeps_batch_order() {
        let g = gen::gnm(300, 900, 5);
        let base = BaseEdges::new(g.n(), g.edges().to_vec());
        let batch: Vec<Edge> = gen::gnm(300, 400, 6)
            .edges()
            .iter()
            .chain(g.edges().iter().take(50))
            .map(|&(u, v)| if u % 2 == 0 { (v, u) } else { (u, v) })
            .chain([(7, 7), (3, 9), (9, 3)])
            .collect();
        let mut a = PairSet::with_capacity(1, 16);
        let mut b = PairSet::with_capacity(1, 16);
        let fresh = base.dedup_new_edges(&batch, &mut a);
        assert_eq!(fresh, g.dedup_new_edges(&batch, &mut b));
        // The seen sets hold exactly the survivors, never base edges.
        assert_eq!((a.len(), b.len()), (fresh.len(), fresh.len()));
    }

    #[test]
    fn fold_merges_in_place() {
        let g = gen::gnm(200, 500, 8);
        let extra = gen::gnm(200, 300, 9);
        let want = Graph::from_csr_plus_edges(&g, extra.edges());
        let fresh = |base: &BaseEdges, edges: &[Edge]| {
            let mut seen = PairSet::with_capacity(2, 16);
            base.dedup_new_edges(edges, &mut seen)
        };
        let mut base = BaseEdges::new(g.n(), g.edges().to_vec());
        let mut delta = fresh(&base, extra.edges());
        base.fold(&mut delta);
        assert_eq!(base.edges(), want.edges());
        assert_eq!(base.m(), want.m());
        assert!(fresh(&base, extra.edges()).is_empty());
    }

    #[test]
    fn accepts_delta_rejects_what_the_commit_path_never_writes() {
        let base = BaseEdges::new(6, vec![(0, 1), (2, 3)]);
        assert!(base.accepts_delta(&[(4, 5), (1, 2)]));
        assert!(!base.accepts_delta(&[(5, 4)]), "not canonical");
        assert!(!base.accepts_delta(&[(4, 5), (4, 5)]), "duplicate");
        assert!(!base.accepts_delta(&[(2, 3)]), "already in the base");
        assert!(!base.accepts_delta(&[(4, 4)]), "loop");
        assert!(is_canonical(&base.edges, 6));
        assert!(!is_canonical(&[(2, 3), (0, 1)], 6));
        assert!(!is_canonical(&[(0, 1), (0, 1)], 6));
        assert!(!is_canonical(&[(0, 6)], 6));
    }
}
