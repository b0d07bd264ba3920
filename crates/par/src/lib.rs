//! # `logdiam-par` — practical shared-memory ports (rayon + atomics)
//!
//! The paper argues (§1, §A.3) that its hashing-based approach "should be
//! preferable in practice" to sort-based MPC primitives. This crate holds
//! real-thread implementations used by the wall-clock experiments (E8):
//!
//! * [`labelprop`] — synchronous min-label propagation with pointer
//!   jumping (the practical face of Liu–Tarjan '19; `fetch_min` hooks).
//! * [`unionfind`] — lock-free concurrent union–find (CAS root splicing
//!   with path halving), the strongest practical CC baseline
//!   (ConnectIt-style); exposes the resumable [`UnionFind`] that the
//!   `logdiam-svc` incremental delta overlay builds on.
//! * [`sv`] — Shiloach–Vishkin-style hook+shortcut rounds on atomics.
//! * [`contract`] — alter-and-contract in the paper's spirit: relax labels
//!   over edges, flatten, rewrite every edge to its component labels and
//!   deduplicate (hashing, not sorting), recurse on the shrunken graph.
//!
//! All functions return min-vertex component labels and are verified
//! against the sequential ground truth in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod contract;
pub mod labelprop;
pub mod sv;
pub mod unionfind;

pub use unionfind::UnionFind;

use std::sync::atomic::{AtomicU32, Ordering};

/// Create a self-parent atomic array.
pub(crate) fn identity_parents(n: usize) -> Vec<AtomicU32> {
    (0..n as u32).map(AtomicU32::new).collect()
}

/// Path-halving find on an atomic parent array.
///
/// `inline(always)`: this is the innermost loop of every algorithm in the
/// crate, and the call sites are themselves tiny closures — guaranteeing
/// the inline keeps the loads/CAS in registers.
#[inline(always)]
pub(crate) fn find(p: &[AtomicU32], mut v: u32) -> u32 {
    loop {
        let parent = p[v as usize].load(Ordering::Relaxed);
        if parent == v {
            return v;
        }
        let gp = p[parent as usize].load(Ordering::Relaxed);
        if gp == parent {
            return parent;
        }
        // Path halving: point v at its grandparent.
        let _ =
            p[v as usize].compare_exchange_weak(parent, gp, Ordering::Relaxed, Ordering::Relaxed);
        v = gp;
    }
}

/// Canonicalize: every vertex labeled by its tree root, then every label
/// rewritten to the minimum vertex of its component (parallel, two passes).
/// For forests whose roots need not be set minima (labelprop, sv,
/// contract); an id-decreasing forest only needs the find pass
/// ([`UnionFind::labels`]).
///
/// Pass 1 fuses the root lookup with the min-vertex scatter: each vertex
/// finds its root, lowers the root's slot to itself, and emits the root.
/// Pass 2 gathers the per-root minima. (The scatter is commutative, so the
/// fused pass stays deterministic under any thread interleaving.) The
/// scatter loads the slot before any `fetch_min`: vertices arrive in
/// increasing order within a chunk, so after a component's first vertex
/// the slot is already lower and the line stays shared — a giant
/// component does not serialize the pool on one cache line.
pub(crate) fn finalize_labels(p: &[AtomicU32]) -> Vec<u32> {
    use rayon::prelude::*;
    let n = p.len();
    let mins: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let roots: Vec<u32> = (0..n as u32)
        .into_par_iter()
        .map(|v| {
            let r = find(p, v);
            let slot = &mins[r as usize];
            if v < slot.load(Ordering::Relaxed) {
                slot.fetch_min(v, Ordering::Relaxed);
            }
            r
        })
        .collect();
    roots
        .into_par_iter()
        .map(|r| mins[r as usize].load(Ordering::Relaxed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_flattens_chains() {
        let p = identity_parents(6);
        // chain 5 -> 4 -> 3 -> 2 -> 1 -> 0
        for (v, slot) in p.iter().enumerate().skip(1) {
            slot.store(v as u32 - 1, Ordering::Relaxed);
        }
        assert_eq!(find(&p, 5), 0);
        // After path halving the chain is strictly shorter.
        assert!(p[5].load(Ordering::Relaxed) < 4);
    }

    #[test]
    fn finalize_labels_canonicalizes_to_min() {
        let p = identity_parents(5);
        p[0].store(4, Ordering::Relaxed); // {0,4}, {1}, {2,3}
        p[3].store(2, Ordering::Relaxed);
        let labels = finalize_labels(&p);
        assert_eq!(labels, vec![0, 1, 2, 2, 0]);
    }
}
