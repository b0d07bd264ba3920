//! Graph construction with deduplication and self-loop removal.
//!
//! [`GraphBuilder`] is backed by the streaming [`EdgeRunStore`]: pushed
//! edges accumulate in bounded sorted runs instead of one full unsorted
//! list, and `build` k-way-merges the runs straight into CSR — so peak
//! bytes during construction are ≈ (sealed runs) + (final CSR), never
//! 2× the edge list. See [`crate::runs`] for the memory model.

use crate::csr::Graph;
use crate::runs::{merge_sorted_runs, EdgeRunStore};
use pram_kit::PairSet;

/// Seed for the incremental-merge dedup set: any fixed value keeps
/// [`Graph::from_csr_plus_edges`] deterministic in its inputs.
const FOLD_DEDUP_SEED: u64 = 0xF01D_5EED;

/// The one normalization rule for incremental edges over vertices
/// `0..n`: self-loops are dropped, each edge is normalized to `(min,
/// max)`, edges the base already holds (`in_base`) are filtered out, and
/// duplicates within `extra` — and across calls sharing the same `seen`
/// set — are collapsed (an exact [`PairSet`] probe, so the dedup costs
/// O(|extra|) plus the base lookups, never O(m)). Returns the surviving
/// new edges in arrival order; `seen` gains exactly those.
///
/// Every base representation routes through it —
/// [`Graph::dedup_new_edges`] with a search of the canonical edge list,
/// the `logdiam-svc` base store with a search of one row — so "counts as
/// a new edge" can never mean two different things.
pub fn dedup_new_edges_by(
    n: usize,
    extra: &[(u32, u32)],
    seen: &mut PairSet,
    mut in_base: impl FnMut((u32, u32)) -> bool,
) -> Vec<(u32, u32)> {
    let n = n as u32;
    let mut fresh: Vec<(u32, u32)> = Vec::new();
    for &(u, v) in extra {
        assert!(u < n && v < n, "edge ({u},{v}) out of range");
        if u == v {
            continue;
        }
        let e = (u.min(v), u.max(v));
        if !in_base(e) && seen.insert(e.0 as u64, e.1 as u64) {
            fresh.push(e);
        }
    }
    fresh
}

impl Graph {
    /// Canonicalize a delta edge list against this graph and a
    /// caller-held dedup set through [`dedup_new_edges_by`], looking
    /// edges up by binary search on the canonical edge list.
    pub fn dedup_new_edges(&self, extra: &[(u32, u32)], seen: &mut PairSet) -> Vec<(u32, u32)> {
        dedup_new_edges_by(self.n(), extra, seen, |e| {
            self.edges().binary_search(&e).is_ok()
        })
    }

    /// Append a delta edge list onto an existing CSR graph and rebuild:
    /// the union graph of a base and the edges streamed onto it, as the
    /// service verifiers and regeneration loops build it.
    ///
    /// Deltas are normalized through [`Graph::dedup_new_edges`]
    /// (loop-drop, exact dedup, already-present filter); the base's
    /// canonical edge list is then merged with the sorted fresh edges in
    /// one linear pass, so the whole rebuild is O(m + |extra| log
    /// |extra|). If every extra edge is already present the base is
    /// returned unchanged (cheap clone, no re-sort).
    pub fn from_csr_plus_edges(base: &Graph, extra: &[(u32, u32)]) -> Graph {
        let n = base.n() as u32;
        let mut seen = PairSet::with_capacity(FOLD_DEDUP_SEED, extra.len());
        let mut fresh = base.dedup_new_edges(extra, &mut seen);
        if fresh.is_empty() {
            return base.clone();
        }
        fresh.sort_unstable();
        // The base's canonical list and the sorted fresh list are two
        // sorted duplicate-free runs (disjoint by construction): the same
        // k-way merge primitive the streaming builder uses folds them.
        let edges = merge_sorted_runs(&[base.edges(), &fresh]);
        Graph::from_canonical_edges(n, edges)
    }
}

/// Accumulates edges and produces a canonical [`Graph`].
///
/// Self-loops are dropped and parallel edges collapsed, so the resulting
/// graph is simple — the setting of the paper (self-loops would only add
/// trivial arcs, and the algorithms treat multi-edges identically to single
/// edges). Edges stream into an [`EdgeRunStore`], so a builder never holds
/// the full unsorted edge list; every generator in [`crate::gen`] and the
/// text loader inherit the bounded-run memory discipline through this type.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: u32,
    store: EdgeRunStore,
}

impl GraphBuilder {
    /// Start a graph on vertices `0..n`.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "vertex count too large");
        GraphBuilder {
            n: n as u32,
            store: EdgeRunStore::new(n),
        }
    }

    /// Start a graph on vertices `0..n`, expecting about `m` edges: the
    /// open run buffer is pre-sized once for `min(m, run capacity)` edges
    /// (see [`EdgeRunStore::reserve`]).
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.store.reserve(m);
        b
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// Add an undirected edge (self-loops silently dropped).
    #[inline]
    pub fn add_edge(&mut self, u: u32, v: u32) {
        self.store.push(u, v);
    }

    /// Number of loop-surviving edges pushed so far (duplicates included;
    /// already-sealed runs may have collapsed theirs, but the count is of
    /// pushes, matching the pre-streaming semantics).
    pub fn raw_edge_count(&self) -> usize {
        self.store.pushed()
    }

    /// Set (or clear) the edge-run spill directory, overriding the
    /// `LOGDIAM_RUN_SPILL` default (see [`EdgeRunStore::set_spill_dir`]).
    pub fn set_spill_dir(&mut self, dir: Option<std::path::PathBuf>) {
        self.store.set_spill_dir(dir);
    }

    /// `(runs spilled, spill bytes written)` by this builder's store.
    pub fn spill_stats(&self) -> (usize, u64) {
        (self.store.spilled_runs(), self.store.spill_bytes())
    }

    /// Finish: merge the sealed runs and build CSR.
    pub fn build(self) -> Graph {
        Graph::from_canonical_edges(self.n, self.store.into_sorted_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loop_removal() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0); // duplicate in other direction
        b.add_edge(1, 1); // self loop
        b.add_edge(1, 2);
        b.add_edge(1, 2); // duplicate
        let g = b.build();
        assert_eq!(g.m(), 2);
        assert_eq!(g.edges(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 0);
        assert_eq!(g.neighbors(4), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    /// Reference implementation: rebuild from scratch through the
    /// one-shot builder.
    fn rebuild_naive(base: &Graph, extra: &[(u32, u32)]) -> Graph {
        let mut b = GraphBuilder::new(base.n());
        for &(u, v) in base.edges() {
            b.add_edge(u, v);
        }
        for &(u, v) in extra {
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    #[test]
    fn incremental_merge_matches_scratch_rebuild() {
        let mut b = GraphBuilder::new(8);
        for (u, v) in [(0, 1), (2, 3), (5, 6)] {
            b.add_edge(u, v);
        }
        let base = b.build();
        let extra = [
            (1, 2),
            (2, 1), // duplicate of (1,2), other direction
            (4, 4), // self loop
            (0, 1), // already in base
            (6, 7),
            (6, 7), // duplicate within extra
        ];
        let merged = Graph::from_csr_plus_edges(&base, &extra);
        assert_eq!(merged, rebuild_naive(&base, &extra));
        assert_eq!(merged.m(), 5);
        assert_eq!(merged.neighbors(6), &[5, 7]);
    }

    #[test]
    fn incremental_merge_with_no_fresh_edges_is_identity() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        let base = b.build();
        assert_eq!(Graph::from_csr_plus_edges(&base, &[]), base);
        assert_eq!(Graph::from_csr_plus_edges(&base, &[(1, 0), (3, 3)]), base);
    }

    #[test]
    fn incremental_merge_onto_empty_base() {
        let base = GraphBuilder::new(5).build();
        let merged = Graph::from_csr_plus_edges(&base, &[(4, 0), (1, 2)]);
        assert_eq!(merged.edges(), &[(0, 4), (1, 2)]);
        assert_eq!(merged.degree(4), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn incremental_merge_checks_range() {
        let base = GraphBuilder::new(3).build();
        Graph::from_csr_plus_edges(&base, &[(0, 3)]);
    }
}
