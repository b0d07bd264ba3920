//! Validators: component labelings against sequential ground truth,
//! labeled-digraph sanity (rooted trees only), and spanning forests.

use cc_graph::seq::{components, same_partition, Dsu};
use cc_graph::Graph;

/// Check a component labeling against BFS/DSU ground truth.
///
/// The labeling may use any representative per component (the paper only
/// requires `v.p = w.p ⟺ same component`); comparison is partition-based.
pub fn check_labels(g: &Graph, labels: &[u32]) -> Result<(), String> {
    if labels.len() != g.n() {
        return Err(format!(
            "label vector has length {} for {} vertices",
            labels.len(),
            g.n()
        ));
    }
    let truth = components(g);
    if same_partition(labels, &truth) {
        Ok(())
    } else {
        // Identify one witness for the error message.
        for &(u, v) in g.edges() {
            if labels[u as usize] != labels[v as usize] {
                return Err(format!(
                    "edge ({u},{v}) crosses labels {} vs {}",
                    labels[u as usize], labels[v as usize]
                ));
            }
        }
        Err("labeling merges vertices from different components".into())
    }
}

/// Assert the parent array is a forest of rooted trees (the §2.1 invariant:
/// the only cycles are self-loops) and return per-vertex heights
/// (root = 0). Errors on any non-trivial cycle.
pub fn forest_heights(parent: &[u64]) -> Result<Vec<u32>, String> {
    // Both markers sit above every height, which is below `n`.
    const UNSEEN: u32 = u32::MAX;
    const ON_PATH: u32 = u32::MAX - 1;
    let n = parent.len();
    let mut height = vec![UNSEEN; n];
    let mut path = Vec::new();
    for start in 0..n {
        // Walk to a root or a vertex of known height, marking the walked
        // vertices, so a walk that meets its own mark has found a cycle
        // and every vertex is walked once.
        let mut v = start;
        let mut h = loop {
            match height[v] {
                UNSEEN => {}
                ON_PATH => return Err(format!("cycle through vertex {v}")),
                h => break h,
            }
            let p = parent[v] as usize;
            if p >= n {
                return Err(format!("parent[{v}] = {p} out of range"));
            }
            if p == v {
                height[v] = 0;
                break 0;
            }
            height[v] = ON_PATH;
            path.push(v);
            v = p;
        };
        for u in path.drain(..).rev() {
            h += 1;
            height[u] = h;
        }
    }
    Ok(height)
}

/// Maximum tree height of a parent array (0 = all flat).
pub fn max_height(parent: &[u64]) -> u32 {
    forest_heights(parent)
        .expect("parent array contains a cycle")
        .into_iter()
        .max()
        .unwrap_or(0)
}

/// Whether `next` only *coarsens* the partition of `prev` (no group is
/// ever split): the paper's **monotonicity** property (§2.1), which holds
/// for the Theorem-1/2 algorithms and Vanilla, but deliberately *not* for
/// the middle stage of Theorem 3 (parent links may move subtrees between
/// trees).
pub fn partition_coarsens(prev: &[u32], next: &[u32]) -> bool {
    assert_eq!(prev.len(), next.len());
    // Every prev-group must map into a single next-group.
    let mut rep: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for v in 0..prev.len() {
        match rep.entry(prev[v]) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(next[v]);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                if *e.get() != next[v] {
                    return false;
                }
            }
        }
    }
    true
}

/// Validate a spanning forest given as a set of edge indices into
/// `g.edges()`:
///
/// 1. every selected edge is an input edge (by construction of the index),
/// 2. the selected edges are acyclic,
/// 3. they span: `#edges = n - #components`, so together with (2) each
///    component carries a spanning tree.
pub fn check_spanning_forest(g: &Graph, forest_edges: &[usize]) -> Result<(), String> {
    let mut dsu = Dsu::new(g.n());
    let mut seen = vec![false; g.m()];
    for &i in forest_edges {
        if i >= g.m() {
            return Err(format!("edge index {i} out of range"));
        }
        if seen[i] {
            return Err(format!("edge index {i} selected twice"));
        }
        seen[i] = true;
        let (u, v) = g.edges()[i];
        if !dsu.union(u, v) {
            return Err(format!("edge ({u},{v}) closes a cycle in the forest"));
        }
    }
    let truth = components(g);
    let mut distinct = truth.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let expect = g.n() - distinct.len();
    if forest_edges.len() != expect {
        return Err(format!(
            "forest has {} edges, expected n - #components = {}",
            forest_edges.len(),
            expect
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::gen;

    #[test]
    fn check_labels_accepts_truth_and_relabelings() {
        let g = gen::union_all(&[gen::path(4), gen::cycle(3)]);
        let truth = components(&g);
        assert!(check_labels(&g, &truth).is_ok());
        // Different representatives, same partition.
        let relabeled: Vec<u32> = truth.iter().map(|&l| l + 100).collect();
        assert!(check_labels(&g, &relabeled).is_ok());
    }

    #[test]
    fn check_labels_rejects_split_and_merge() {
        let g = gen::path(4);
        assert!(check_labels(&g, &[0, 0, 1, 1]).is_err()); // split
        let g2 = gen::union_all(&[gen::path(2), gen::path(2)]);
        assert!(check_labels(&g2, &[0, 0, 0, 0]).is_err()); // merge
    }

    #[test]
    fn forest_heights_on_chain_and_cycle() {
        // 0 <- 1 <- 2 (chain), 3 self-root
        let h = forest_heights(&[0, 0, 1, 3]).unwrap();
        assert_eq!(h, vec![0, 1, 2, 0]);
        // 2-cycle
        assert!(forest_heights(&[1, 0]).is_err());
    }

    /// A chain of 10^6 vertices whose root is the last one, walked from
    /// its far end: quadratic in the chain's height if a walk re-scans
    /// its own path.
    #[test]
    fn forest_heights_on_a_long_chain_and_a_cycle_through_its_tail() {
        const N: usize = 1_000_000;
        let mut parent: Vec<u64> = (1..=N as u64).collect();
        parent[N - 1] = (N - 1) as u64;
        let h = forest_heights(&parent).unwrap();
        assert!(h.iter().enumerate().all(|(v, &h)| h as usize == N - 1 - v));
        parent[N - 1] = (N / 2) as u64;
        assert_eq!(
            forest_heights(&parent),
            Err(format!("cycle through vertex {}", N / 2))
        );
    }

    #[test]
    fn max_height_of_flat_tree_is_one() {
        // Root has height 0, direct children height 1.
        assert_eq!(max_height(&[0, 0, 0]), 1);
        assert_eq!(max_height(&[0, 1, 2]), 0); // all singleton roots
    }

    #[test]
    fn coarsening_detection() {
        // {0,1},{2},{3} -> {0,1,2},{3}: coarsens.
        assert!(partition_coarsens(&[0, 0, 2, 3], &[0, 0, 0, 3]));
        // identical: coarsens (trivially).
        assert!(partition_coarsens(&[0, 0, 2, 3], &[5, 5, 6, 7]));
        // {0,1} split apart: not monotone.
        assert!(!partition_coarsens(&[0, 0, 2, 3], &[0, 1, 2, 3]));
        // subtree moved: {0,1},{2,3} -> {0,2},{1,3}: not monotone.
        assert!(!partition_coarsens(&[0, 0, 2, 2], &[0, 1, 0, 1]));
    }

    #[test]
    fn spanning_forest_validation() {
        // cycle(4) edges: (0,1),(1,2),(2,3),(0,3).
        let g = gen::cycle(4);
        // Any 3 of the 4 edges form a spanning tree.
        assert!(check_spanning_forest(&g, &[0, 1, 2]).is_ok());
        // All 4 close a cycle.
        assert!(check_spanning_forest(&g, &[0, 1, 2, 3]).is_err());
        // Too few edges: not spanning.
        assert!(check_spanning_forest(&g, &[0, 1]).is_err());
        // Duplicate index.
        assert!(check_spanning_forest(&g, &[0, 0, 1]).is_err());
    }
}
