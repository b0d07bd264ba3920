//! Property tests pinning the streaming chunked builder to the canonical
//! [`Graph::from_canonical_edges`] contract: for any stream and any run
//! size the built graph is bit-identical to the reference sort+dedup
//! build. CI runs this file with `RAYON_NUM_THREADS` = 1, 2 and 8 — a
//! sequential seal, two pieces per seal and eight — and the merge output
//! must be independent of the run boundaries, the seal pieces and the
//! pool size.

use cc_graph::runs::{merge_sorted_runs, EdgeRunStore};
use cc_graph::Graph;
use proptest::prelude::*;

/// Reference semantics: canonicalize, sort, dedup on the full list.
fn reference_graph(n: usize, stream: &[(u32, u32)]) -> Graph {
    let mut edges: Vec<(u32, u32)> = stream
        .iter()
        .filter(|&&(u, v)| u != v)
        .map(|&(u, v)| (u.min(v), u.max(v)))
        .collect();
    edges.sort_unstable();
    edges.dedup();
    Graph::from_canonical_edges(n as u32, edges)
}

/// Build through an [`EdgeRunStore`] with an explicit run capacity,
/// optionally spilling sealed runs to the system temp dir.
fn streamed_graph_spill(n: usize, stream: &[(u32, u32)], cap: usize, spill: bool) -> Graph {
    let mut store = EdgeRunStore::with_run_capacity(Some(n as u32), cap);
    store.set_spill_dir(spill.then(std::env::temp_dir));
    for &(u, v) in stream {
        store.push(u, v);
    }
    if spill {
        assert!(
            store.pushed() < cap || store.spilled_runs() > 0,
            "spill mode sealed no run to disk"
        );
    }
    Graph::from_canonical_edges(n as u32, store.into_sorted_edges())
}

/// Build through an [`EdgeRunStore`] with an explicit run capacity.
fn streamed_graph(n: usize, stream: &[(u32, u32)], cap: usize) -> Graph {
    streamed_graph_spill(n, stream, cap, false)
}

/// An edge stream that is heavy on duplicates and self-loops: endpoints
/// drawn from a small id range, plus every 5th pair forced into a loop.
fn dirty_stream(n: u32) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..n, 0u32..n), 0..600).prop_map(move |mut pairs| {
        for (i, p) in pairs.iter_mut().enumerate() {
            if i % 5 == 0 {
                p.1 = p.0; // self-loop
            }
            if i % 3 == 0 && i > 0 {
                // force duplicates: collapse onto a small set of pairs
                let j = (i / 2) as u32;
                p.0 = j % n;
                p.1 = (j / 2) % n;
            }
        }
        pairs
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The tentpole contract: streaming build ≡ reference build for run
    /// sizes 1, 7, 1024 and m (single run), on duplicate- and loop-heavy
    /// streams.
    #[test]
    fn streaming_build_is_bit_identical_across_run_sizes(
        n in 2usize..80,
        stream in dirty_stream(80),
    ) {
        let stream: Vec<(u32, u32)> = stream
            .into_iter()
            .filter(|&(u, v)| (u as usize) < n && (v as usize) < n)
            .collect();
        let want = reference_graph(n, &stream);
        for cap in [1usize, 7, 1024, stream.len().max(1)] {
            let got = streamed_graph(n, &stream, cap);
            prop_assert_eq!(&got, &want, "run capacity {}", cap);
        }
    }

    /// PR 10: out-of-core builds are bit-identical to in-memory builds for
    /// run caps 1, 7, 1024 — every sealed run round-trips through an
    /// unlinked spill file and the streaming merge must reproduce the
    /// exact set union (the CI thread matrix runs this at 1, 2 and 8
    /// threads too).
    #[test]
    fn spilled_build_is_bit_identical_across_run_sizes(
        n in 2usize..80,
        stream in dirty_stream(80),
    ) {
        let stream: Vec<(u32, u32)> = stream
            .into_iter()
            .filter(|&(u, v)| (u as usize) < n && (v as usize) < n)
            .collect();
        let want = reference_graph(n, &stream);
        for cap in [1usize, 7, 1024] {
            let got = streamed_graph_spill(n, &stream, cap, true);
            prop_assert_eq!(&got, &want, "spilled, run capacity {}", cap);
        }
    }

    /// The merge primitive is a pure set union: independent of how the
    /// input is cut into runs.
    #[test]
    fn merge_is_partition_invariant(
        edges in proptest::collection::vec((0u32..200, 200u32..400), 0..300),
        cut_a in 1usize..64,
        cut_b in 1usize..64,
    ) {
        let mut all: Vec<(u32, u32)> = edges;
        all.sort_unstable();
        all.dedup();
        let cut = |k: usize| -> Vec<(u32, u32)> {
            let runs: Vec<Vec<(u32, u32)>> =
                all.chunks(k).map(|c| c.to_vec()).collect();
            // Each chunk of a sorted dedup'd list is itself sorted+dedup'd.
            let slices: Vec<&[(u32, u32)]> = runs.iter().map(|r| r.as_slice()).collect();
            merge_sorted_runs(&slices)
        };
        prop_assert_eq!(cut(cut_a), cut(cut_b));
        prop_assert_eq!(cut(cut_a.max(cut_b)), all);
    }
}

/// Deterministic large-stream check: big enough to cross the parallel
/// chunked-merge threshold, so at `RAYON_NUM_THREADS > 1` the pool path
/// must reproduce the reference exactly (CI runs this file at 1, 2 and 8
/// threads).
#[test]
fn large_stream_crosses_parallel_threshold() {
    let n = 20_000usize;
    let mut rng = cc_graph::Rng::new(0xC0FFEE);
    let stream: Vec<(u32, u32)> = (0..200_000)
        .map(|_| {
            (
                (rng.next_u64() % n as u64) as u32,
                (rng.next_u64() % n as u64) as u32,
            )
        })
        .collect();
    let want = reference_graph(n, &stream);
    for cap in [1 << 12, 1 << 15, stream.len()] {
        assert_eq!(streamed_graph(n, &stream, cap), want, "cap {cap}");
    }
    // And the spilled merge must cross the same parallel threshold with
    // the identical result (many file runs + chunked cursor merge).
    for cap in [1 << 12, 1 << 15] {
        assert_eq!(
            streamed_graph_spill(n, &stream, cap, true),
            want,
            "spilled cap {cap}"
        );
    }
}

/// A sorted duplicate-free list of `m` random canonical edges on `0..n`.
fn sorted_edges(n: u32, m: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = cc_graph::Rng::new(seed);
    let mut edges: Vec<(u32, u32)> = (0..m)
        .map(|_| {
            let u = (rng.next_u64() % n as u64) as u32;
            let v = (rng.next_u64() % n as u64) as u32;
            (u.min(v), u.max(v))
        })
        .filter(|&(u, v)| u != v)
        .collect();
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Sort + dedup of the concatenated runs: what every merge must return.
fn union(runs: &[&[(u32, u32)]]) -> Vec<(u32, u32)> {
    let mut all = runs.concat();
    all.sort_unstable();
    all.dedup();
    all
}

/// Cross-run duplicates in every chunk of a parallel merge: `a` appears
/// twice and is large enough (> 4 · 2^15 edges) that the chunked merge
/// splits the key space at more than one thread, so every chunk drops
/// duplicates and the gaps they leave must be closed exactly.
#[test]
fn merge_closes_the_gap_every_chunk_leaves() {
    let a = sorted_edges(1 << 20, 150_000, 0xA11CE);
    assert!(a.len() > 4 << 15, "a has {} edges", a.len());
    // b shares every 7th edge of a and adds fresh ones.
    let mut b: Vec<(u32, u32)> = a.iter().copied().step_by(7).collect();
    b.extend(sorted_edges(1 << 20, 40_000, 0xB0B));
    b.sort_unstable();
    b.dedup();
    let want = union(&[&a, &b]);
    let got = merge_sorted_runs(&[&a, &a, &b]);
    assert_eq!(got.len(), want.len());
    assert_eq!(got, want);
    assert_eq!(got.capacity(), got.len(), "gap-closed output not shrunk");
    // Duplicates only: the output is a itself.
    assert_eq!(merge_sorted_runs(&[&a, &a, &a]), a);
}

/// Duplicates inside one open buffer, split across its seal pieces: each
/// buffer of 2^16 edges holds 2^15 edges pushed twice — once in the
/// first half, reversed in the second — with self-loops in between, so
/// at 2 or 8 threads every duplicate pair lies in two different pieces
/// and only the merge of the pieces can drop it.
#[test]
fn seal_drops_duplicates_that_cross_its_pieces() {
    let n = 1usize << 16;
    let cap = 1usize << 16;
    let mut stream = Vec::new();
    for buffer in 0..3u64 {
        let mut rng = cc_graph::Rng::new(0x5EA1 + buffer);
        let mut half = Vec::with_capacity(cap / 2);
        while half.len() < cap / 2 {
            let u = (rng.next_u64() % n as u64) as u32;
            let v = (rng.next_u64() % n as u64) as u32;
            if u != v {
                half.push((u, v));
            }
        }
        for (i, &(u, v)) in half.iter().enumerate() {
            stream.push((u, v));
            if i % 64 == 0 {
                stream.push((v, v)); // self-loop: dropped before the buffer
            }
        }
        stream.extend(half.iter().map(|&(u, v)| (v, u)));
    }
    let want = reference_graph(n, &stream);
    assert!(
        want.m() < stream.len() / 2,
        "stream should be half duplicates"
    );
    assert_eq!(streamed_graph(n, &stream, cap), want);
    assert_eq!(streamed_graph_spill(n, &stream, cap, true), want);
}

/// The largest edge, `(u32::MAX, u32::MAX)`, packs to the key the merge
/// uses to mark an exhausted run; as the last edge of some runs it must
/// still come out exactly once, in order.
#[test]
fn merge_keeps_the_largest_edge() {
    const TOP: (u32, u32) = (u32::MAX, u32::MAX);
    let a = [(0u32, 1u32), (5, u32::MAX), TOP];
    let b = [(2u32, 3u32), TOP];
    let c = [(u32::MAX - 1, u32::MAX)];
    for runs in [
        vec![&a[..], &b[..], &c[..]],
        vec![&c[..], &b[..]],
        vec![&b[1..], &b[1..]],
        vec![&a[2..]],
        vec![&c[..], &a[2..], &[][..]],
    ] {
        assert_eq!(merge_sorted_runs(&runs), union(&runs), "runs {runs:?}");
    }

    // Parallel-sized: three runs end in TOP, one does not.
    let mut runs: Vec<Vec<(u32, u32)>> = (0..4u64)
        .map(|r| sorted_edges(u32::MAX, 30_000, 0x70F + r))
        .collect();
    for run in &mut runs[..3] {
        run.push(TOP);
    }
    let slices: Vec<&[(u32, u32)]> = runs.iter().map(|r| r.as_slice()).collect();
    let got = merge_sorted_runs(&slices);
    assert_eq!(got.last(), Some(&TOP));
    assert_eq!(got, union(&slices));
}
