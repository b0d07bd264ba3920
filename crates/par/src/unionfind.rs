//! Lock-free concurrent union–find: CAS root splicing with path-halving
//! finds ("Rem's algorithm" family; the strongest practical CC baseline,
//! cf. ConnectIt). Linearizable enough for connectivity: every successful
//! CAS hooks a *root* onto a smaller-id vertex, so the structure stays an
//! id-decreasing forest at all times.
//!
//! The structure is exposed as a resumable [`UnionFind`]: callers that
//! maintain connectivity state across edge batches (the `logdiam-svc`
//! delta overlay) and the one-shot [`unionfind_cc`] entry point share one
//! implementation.

use crate::{find, identity_parents};
use cc_graph::Graph;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// A resumable concurrent union–find over vertices `0..n`.
///
/// [`absorb`](UnionFind::absorb) takes `&self` and is safe to call from
/// many threads at once (all mutation is CAS on atomics); it can be called
/// any number of times, so incremental edge streams resume where the last
/// batch left off. The forest is id-decreasing at all times, which makes
/// every root the minimum vertex of its set —
/// [`representative`](UnionFind::representative) therefore returns
/// canonical min-vertex labels directly.
///
/// Read methods ([`representative`](UnionFind::representative),
/// [`same_set`](UnionFind::same_set), [`labels`](UnionFind::labels)) are
/// deterministic in quiescent state (no concurrent `absorb`); while a
/// batch is in flight they are still safe but may observe a prefix of its
/// unions, so epoch-consistent readers should query a published snapshot
/// instead (see `logdiam-svc`).
///
/// # Example
///
/// ```
/// use logdiam_par::UnionFind;
///
/// let uf = UnionFind::new(5);
/// uf.absorb(&[(0, 1), (3, 4)]);
/// assert!(uf.same_set(0, 1));
/// assert!(!uf.same_set(1, 3));
///
/// // Batches resume where the last one left off, and labels are always
/// // canonical min-vertex representatives.
/// uf.absorb(&[(4, 1)]);
/// assert_eq!(uf.labels(), vec![0, 0, 2, 0, 0]);
/// ```
pub struct UnionFind {
    p: Vec<AtomicU32>,
}

impl UnionFind {
    /// A fresh singleton partition over `n` vertices.
    pub fn new(n: usize) -> Self {
        UnionFind {
            p: identity_parents(n),
        }
    }

    /// Resume from an existing component labeling: vertex `v` starts in
    /// the same set as every vertex with `labels[v]`'s label. Labels may
    /// be any valid partition labeling with vertex-id values (as produced
    /// by every CC entry point in this workspace); they are canonicalized
    /// to min-vertex parents internally, so the forest invariant holds
    /// regardless of which algorithm produced them.
    pub fn from_labels(labels: &[u32]) -> Self {
        let n = labels.len();
        let mut min_of = vec![u32::MAX; n];
        for (v, &l) in labels.iter().enumerate() {
            let slot = &mut min_of[l as usize];
            if (v as u32) < *slot {
                *slot = v as u32;
            }
        }
        let p = labels
            .iter()
            .map(|&l| AtomicU32::new(min_of[l as usize]))
            .collect();
        UnionFind { p }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.p.len()
    }

    /// Whether the structure has no vertices.
    pub fn is_empty(&self) -> bool {
        self.p.is_empty()
    }

    /// Merge the endpoints of every edge in the batch, in parallel.
    /// Self-loops are no-ops; duplicate and already-connected edges are
    /// absorbed for free (the CAS loop exits on equal roots).
    pub fn absorb(&self, edges: &[(u32, u32)]) {
        edges.par_iter().for_each(|&(u, v)| {
            unite(&self.p, u, v);
        });
    }

    /// [`absorb`](UnionFind::absorb) without the parallel fan-out: unions
    /// run on the calling thread in slice order, so the union schedule is
    /// a pure function of the slice. This is the right call for batches
    /// too small to amortize a pool dispatch: a pool of two or more
    /// threads splits a slice of at most 4 × threads edges into one task
    /// per edge. The `logdiam-svc` writer absorbs every commit's batch
    /// this way.
    pub fn absorb_seq(&self, edges: &[(u32, u32)]) {
        for &(u, v) in edges {
            unite(&self.p, u, v);
        }
    }

    /// The canonical (minimum-vertex) representative of `v`'s set.
    pub fn representative(&self, v: u32) -> u32 {
        find(&self.p, v)
    }

    /// Whether `u` and `v` are currently in the same set.
    pub fn same_set(&self, u: u32, v: u32) -> bool {
        self.representative(u) == self.representative(v)
    }

    /// Canonical min-vertex component labels for all vertices: one
    /// parallel find pass. The forest is id-decreasing, so every root is
    /// already its set's minimum and no min-scatter is needed.
    pub fn labels(&self) -> Vec<u32> {
        (0..self.p.len() as u32)
            .into_par_iter()
            .map(|v| find(&self.p, v))
            .collect()
    }
}

/// Connected components via concurrent union–find.
pub fn unionfind_cc(g: &Graph) -> Vec<u32> {
    unionfind_cc_edges(g.n(), g.edges())
}

/// [`unionfind_cc`] over a bare edge list on vertices `0..n`, for owners
/// that keep no CSR.
pub fn unionfind_cc_edges(n: usize, edges: &[(u32, u32)]) -> Vec<u32> {
    let uf = UnionFind::new(n);
    uf.absorb(edges);
    uf.labels()
}

/// Merge the sets of `u` and `v`.
fn unite(p: &[AtomicU32], u: u32, v: u32) {
    let (mut ru, mut rv) = (find(p, u), find(p, v));
    loop {
        if ru == rv {
            return;
        }
        // Hook the larger root under the smaller: keeps pointers strictly
        // id-decreasing, hence acyclic under any interleaving.
        let (hi, lo) = if ru > rv { (ru, rv) } else { (rv, ru) };
        match p[hi as usize].compare_exchange(hi, lo, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return,
            Err(_) => {
                // hi is no longer a root; re-find and retry.
                ru = find(p, hi);
                rv = find(p, lo);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::gen;
    use cc_graph::seq::{components, same_partition};

    #[test]
    fn matches_ground_truth_on_shapes() {
        for g in [
            gen::path(100),
            gen::cycle(51),
            gen::grid(9, 11),
            gen::union_all(&[gen::star(20), gen::complete(10), gen::path(13)]),
        ] {
            let labels = unionfind_cc(&g);
            assert!(same_partition(&labels, &components(&g)));
        }
    }

    #[test]
    fn matches_ground_truth_on_random_graphs() {
        for seed in 0..10 {
            let g = gen::gnm(2000, 5000, seed);
            let labels = unionfind_cc(&g);
            assert!(same_partition(&labels, &components(&g)), "seed {seed}");
        }
    }

    #[test]
    fn labels_are_component_minima() {
        let g = gen::union_all(&[gen::cycle(5), gen::path(4)]);
        let labels = unionfind_cc(&g);
        assert_eq!(&labels[0..5], &[0; 5]);
        assert_eq!(&labels[5..9], &[5; 4]);
    }

    #[test]
    fn repeated_runs_agree_despite_racing() {
        let g = gen::gnm(5000, 20000, 3);
        let a = unionfind_cc(&g);
        for _ in 0..3 {
            assert_eq!(unionfind_cc(&g), a);
        }
    }

    #[test]
    fn absorb_resumes_across_batches() {
        let g = gen::gnm(1200, 4000, 9);
        let one_shot = unionfind_cc(&g);
        let uf = UnionFind::new(g.n());
        for chunk in g.edges().chunks(157) {
            uf.absorb(chunk);
        }
        assert_eq!(uf.labels(), one_shot);
    }

    #[test]
    fn absorb_tolerates_loops_and_duplicates() {
        let uf = UnionFind::new(4);
        uf.absorb(&[(2, 2), (0, 1), (1, 0), (0, 1)]);
        assert!(uf.same_set(0, 1));
        assert!(!uf.same_set(1, 2));
        assert_eq!(uf.labels(), vec![0, 0, 2, 3]);
    }

    #[test]
    fn from_labels_resumes_a_finished_run() {
        let g = gen::union_all(&[gen::path(6), gen::path(5)]);
        let labels = unionfind_cc(&g); // {0..5}, {6..10}
        let uf = UnionFind::from_labels(&labels);
        assert_eq!(uf.labels(), labels);
        assert!(uf.same_set(0, 5));
        assert!(!uf.same_set(0, 6));
        // Bridge the two components incrementally.
        uf.absorb(&[(5, 6)]);
        assert!(uf.same_set(0, 10));
        assert_eq!(uf.representative(10), 0);
    }

    #[test]
    fn absorb_seq_matches_parallel_absorb() {
        let g = gen::gnm(900, 2600, 13);
        let expected = unionfind_cc(&g);
        let seq = UnionFind::new(g.n());
        for chunk in g.edges().chunks(97) {
            seq.absorb_seq(chunk);
        }
        assert_eq!(seq.labels(), expected);
    }

    #[test]
    fn from_labels_canonicalizes_non_min_labels() {
        // A valid partition labeling whose label values are not minima:
        // {0,2} labeled 2, {1} labeled 1.
        let uf = UnionFind::from_labels(&[2, 1, 2]);
        assert_eq!(uf.labels(), vec![0, 1, 0]);
    }
}
