//! Compact undirected simple graph: canonical edge list + CSR adjacency.

/// An undirected simple graph on vertices `0..n`.
///
/// * `edges` holds each undirected edge once, as `(u, v)` with `u < v`,
///   sorted lexicographically — the canonical edge list.
/// * The CSR arrays give O(1)-indexable adjacency for BFS etc.
///
/// Build through [`crate::GraphBuilder`], which deduplicates and removes
/// self-loops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    n: u32,
    edges: Vec<(u32, u32)>,
    offsets: Vec<u32>,
    adj: Vec<u32>,
}

impl Graph {
    /// Build directly from an already-canonical edge list: each undirected
    /// edge once as `(u, v)` with `u < v < n`, sorted lexicographically,
    /// duplicate-free — exactly what [`crate::runs::merge_sorted_runs`]
    /// emits. This is the zero-copy back door the streaming builder and
    /// the incremental fold use; everything else should go through
    /// [`crate::GraphBuilder`], which canonicalizes arbitrary streams.
    ///
    /// The CSR fill is fused: `offsets` serves as degree counter, prefix
    /// sum, and fill cursor in turn (restored by a right shift at the
    /// end), so construction allocates only the two arrays the graph
    /// keeps — no transient second copy of the offsets.
    pub fn from_canonical_edges(n: u32, edges: Vec<(u32, u32)>) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edge list not sorted/deduplicated"
        );
        debug_assert!(
            edges.iter().all(|&(u, v)| u < v && (v as u64) < n as u64),
            "edge list not canonical for n={n}"
        );
        let mut offsets = vec![0u32; n as usize + 1];
        for &(u, v) in &edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n as usize {
            offsets[i + 1] += offsets[i];
        }
        let mut adj = vec![0u32; edges.len() * 2];
        // `offsets[v]` doubles as the fill cursor; after the loop it holds
        // end(v) — i.e. the pre-loop offsets[v + 1].
        for &(u, v) in &edges {
            adj[offsets[u as usize] as usize] = v;
            offsets[u as usize] += 1;
            adj[offsets[v as usize] as usize] = u;
            offsets[v as usize] += 1;
        }
        for i in (1..=n as usize).rev() {
            offsets[i] = offsets[i - 1];
        }
        offsets[0] = 0;
        Graph {
            n,
            edges,
            offsets,
            adj,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// Heap footprint of the built graph in bytes: the canonical edge
    /// list plus the CSR arrays (capacity, not length, so shrink bugs are
    /// visible). This is the "final CSR footprint" the streaming builder's
    /// peak-memory contract is stated against (see `runs` module docs and
    /// `bench_report`'s `peak_rss_kb` rows).
    pub fn heap_bytes(&self) -> usize {
        self.edges.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.adj.capacity() * std::mem::size_of::<u32>()
    }

    /// Average degree `2m/n` (the paper's density parameter is `m/n`).
    pub fn density(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m() as f64 / self.n() as f64
        }
    }

    /// The canonical edge list: each undirected edge once, `(u, v)` with
    /// `u < v`, sorted.
    #[inline]
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Consume the graph, keeping only its canonical edge list (the CSR
    /// arrays are freed) — for owners that never walk adjacency, such as
    /// the `logdiam-svc` base store.
    pub fn into_edges(self) -> Vec<(u32, u32)> {
        self.edges
    }

    /// Neighbourhood of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Iterate over all `2m` directed arcs `(u, v)`.
    pub fn arcs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)])
    }

    /// Disjoint union: relabels `other`'s vertices to `self.n()..`.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let shift = self.n;
        let mut edges = self.edges.clone();
        edges.extend(other.edges.iter().map(|&(u, v)| (u + shift, v + shift)));
        edges.sort_unstable();
        Graph::from_canonical_edges(self.n + other.n, edges)
    }

    /// Relabel vertices by the permutation `perm` (vertex `v` becomes
    /// `perm[v]`). Used to destroy any accidental locality the generators
    /// produce before feeding graphs to the algorithms.
    pub fn relabel(&self, perm: &[u32]) -> Graph {
        assert_eq!(perm.len(), self.n());
        let mut edges: Vec<(u32, u32)> = self
            .edges
            .iter()
            .map(|&(u, v)| {
                let (a, b) = (perm[u as usize], perm[v as usize]);
                (a.min(b), a.max(b))
            })
            .collect();
        edges.sort_unstable();
        Graph::from_canonical_edges(self.n, edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_pendant() -> Graph {
        // 0-1, 1-2, 0-2, 2-3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn csr_adjacency_matches_edges() {
        let g = triangle_plus_pendant();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn arcs_yield_both_directions() {
        let g = triangle_plus_pendant();
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs.len(), 8);
        assert!(arcs.contains(&(3, 2)) && arcs.contains(&(2, 3)));
    }

    #[test]
    fn disjoint_union_relabels() {
        let g = triangle_plus_pendant();
        let u = g.disjoint_union(&g);
        assert_eq!(u.n(), 8);
        assert_eq!(u.m(), 8);
        assert!(u.edges().contains(&(4, 5)));
        assert!(u.edges().contains(&(6, 7)));
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = triangle_plus_pendant();
        let perm = vec![3, 2, 1, 0];
        let h = g.relabel(&perm);
        assert_eq!(h.m(), g.m());
        // Old edge (2,3) becomes (1,0) => canonical (0,1).
        assert!(h.edges().contains(&(0, 1)));
        assert_eq!(h.degree(1), 3); // image of old vertex 2
    }

    #[test]
    fn density_is_m_over_n() {
        let g = triangle_plus_pendant();
        assert!((g.density() - 1.0).abs() < 1e-12);
    }
}
