//! The sharded delta overlay: a global union–find whose batch absorption
//! is partitioned by vertex range.
//!
//! Edges whose endpoints fall in the same shard are bucketed per shard and
//! absorbed in parallel — one pool task per shard, each draining its
//! bucket sequentially ([`UnionFind::absorb_sharded`]), so a contended
//! batch costs `shard_count` task dispatches instead of a per-edge
//! fan-out and each task's finds stay range-local in the common case.
//! Edges that *cross* shards are buffered on the shard of their smaller
//! endpoint and drained by the writer in **one sequential pass per
//! commit** — cross-shard traffic, not total `n`, is what the drain pays
//! for, and the deterministic drain order means the per-commit union
//! schedule is a pure function of the batch.
//!
//! Correctness does not depend on the partition at all: the parent array
//! is one global id-decreasing CAS forest, so any interleaving of the
//! shard tasks yields the same components, and every root is its set's
//! minimum — [`root`](ShardedOverlay::root) and
//! [`labels`](ShardedOverlay::labels) return canonical min-vertex
//! representatives. Shard count is therefore a pure performance knob —
//! per-epoch label fingerprints are identical for any
//! [`SvcParams::shard_count`](crate::SvcParams::shard_count) at any
//! thread count (pinned by the workspace determinism suite).

use logdiam_par::UnionFind;

/// The writer-owned overlay: shard-partitioned absorption over one global
/// resumable union–find.
pub(crate) struct ShardedOverlay {
    uf: UnionFind,
    shard_size: usize,
    /// Per-shard buckets of intra-shard edges; reused across commits.
    intra: Vec<Vec<(u32, u32)>>,
    /// Per-shard pending cross-shard unions (keyed by the smaller
    /// endpoint's shard), drained once per commit; reused across commits.
    pending: Vec<Vec<(u32, u32)>>,
    /// Cross-shard unions drained over this overlay's lifetime.
    cross_unions: u64,
}

impl ShardedOverlay {
    /// A fresh singleton overlay over `n` vertices in `shard_count`
    /// ranges of `ceil(n / shard_count)` vertices each.
    #[cfg(test)]
    pub(crate) fn new(n: usize, shard_count: usize) -> Self {
        Self::with_uf(UnionFind::new(n), n, shard_count)
    }

    /// Resume from a component labeling, as [`UnionFind::from_labels`] —
    /// the service's start-up (fresh or recovered) labels.
    pub(crate) fn from_labels(labels: &[u32], shard_count: usize) -> Self {
        Self::with_uf(UnionFind::from_labels(labels), labels.len(), shard_count)
    }

    fn with_uf(uf: UnionFind, n: usize, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        let shard_size = n.div_ceil(shard_count).max(1);
        ShardedOverlay {
            uf,
            shard_size,
            intra: vec![Vec::new(); shard_count],
            pending: vec![Vec::new(); shard_count],
            cross_unions: 0,
        }
    }

    fn shard_of(&self, v: u32) -> usize {
        v as usize / self.shard_size
    }

    /// Absorb one batch: partition by shard, parallel intra-shard
    /// absorption, then drain the cross-shard pending lists in one
    /// sequential pass. On return every union in `edges` is applied (the
    /// buffering is within-commit, never across commits), so the labels
    /// sealed into the epoch's snapshot are complete. Returns the number
    /// of cross-shard unions drained — a pure function of the batch and
    /// the shard geometry, so callers may fold it into deterministic
    /// statistics.
    #[cfg(test)]
    pub(crate) fn absorb(&mut self, edges: &[(u32, u32)]) -> u64 {
        if edges.is_empty() {
            return 0;
        }
        self.partition(edges);
        self.absorb_intra();
        self.drain_cross()
    }

    /// Same semantics as [`absorb`](ShardedOverlay::absorb), but each
    /// stage is timed into the given histograms (nanoseconds) — the
    /// writer's instrumented commit path. The timing is host-side only;
    /// the union schedule is identical to the untimed path.
    pub(crate) fn absorb_timed(
        &mut self,
        edges: &[(u32, u32)],
        intra_ns: &logdiam_obs::Histogram,
        drain_ns: &logdiam_obs::Histogram,
    ) -> u64 {
        if edges.is_empty() {
            return 0;
        }
        self.partition(edges);
        let t = std::time::Instant::now();
        self.absorb_intra();
        intra_ns.observe_duration(t.elapsed());
        let t = std::time::Instant::now();
        let cross = self.drain_cross();
        drain_ns.observe_duration(t.elapsed());
        cross
    }

    /// Bucket a batch by shard: intra-shard edges per shard, cross-shard
    /// edges on the shard of their smaller endpoint.
    fn partition(&mut self, edges: &[(u32, u32)]) {
        for &(u, v) in edges {
            let (su, sv) = (self.shard_of(u), self.shard_of(v));
            if su == sv {
                self.intra[su].push((u, v));
            } else {
                self.pending[su.min(sv)].push((u, v));
            }
        }
    }

    /// Parallel intra-shard absorption: one pool task per shard.
    fn absorb_intra(&mut self) {
        self.uf.absorb_sharded(&self.intra);
        for bucket in &mut self.intra {
            bucket.clear();
        }
    }

    /// The charged cross-shard pass: one drain per commit, sequential
    /// and in deterministic (shard-major, arrival-order) order.
    fn drain_cross(&mut self) -> u64 {
        let mut cross = 0u64;
        for bucket in &mut self.pending {
            cross += bucket.len() as u64;
            self.uf.absorb_seq(bucket);
            bucket.clear();
        }
        self.cross_unions += cross;
        cross
    }

    /// Canonical min-vertex labels of the current partition (one
    /// parallel find pass; the fold's label materialization).
    pub(crate) fn labels(&self) -> Vec<u32> {
        self.uf.labels()
    }

    /// The root of `v`'s set: its canonical min-vertex label.
    pub(crate) fn root(&self, v: u32) -> u32 {
        self.uf.representative(v)
    }

    /// Shard count this overlay partitions over.
    pub(crate) fn shard_count(&self) -> usize {
        self.intra.len()
    }

    /// Cross-shard unions drained since this overlay was built.
    #[cfg(test)]
    pub(crate) fn cross_unions(&self) -> u64 {
        self.cross_unions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{gen, seq};

    #[test]
    fn sharded_absorb_matches_ground_truth_for_any_shard_count() {
        let g = gen::union_all(&[gen::gnm(400, 900, 3), gen::path(200)]);
        let truth = seq::components(&g);
        for shard_count in [1, 2, 3, 8, 64, 1024] {
            let mut ov = ShardedOverlay::new(g.n(), shard_count);
            for chunk in g.edges().chunks(37) {
                ov.absorb(chunk);
            }
            assert!(
                seq::same_partition(&ov.labels(), &truth),
                "shard_count={shard_count}"
            );
            assert_eq!(ov.shard_count(), shard_count);
        }
    }

    #[test]
    fn labels_identical_across_shard_counts() {
        let g = gen::gnm(600, 1400, 9);
        let base: Vec<Vec<u32>> = [1usize, 4, 16]
            .iter()
            .map(|&s| {
                let mut ov = ShardedOverlay::new(g.n(), s);
                ov.absorb(g.edges());
                ov.labels()
            })
            .collect();
        assert_eq!(base[0], base[1]);
        assert_eq!(base[0], base[2]);
    }

    #[test]
    fn cross_unions_counts_only_range_crossing_edges() {
        // 8 vertices, 2 shards of 4: (0,1) intra, (1,6) cross, (6,7) intra.
        let mut ov = ShardedOverlay::new(8, 2);
        ov.absorb(&[(0, 1), (1, 6), (6, 7)]);
        assert_eq!(ov.cross_unions(), 1);
        assert_eq!(ov.labels(), vec![0, 0, 2, 3, 4, 5, 0, 0]);
    }

    #[test]
    fn absorb_timed_matches_absorb_and_records_both_stages() {
        let g = gen::gnm(200, 500, 11);
        let mut plain = ShardedOverlay::new(g.n(), 4);
        let mut timed = ShardedOverlay::new(g.n(), 4);
        let intra = logdiam_obs::Histogram::default();
        let drain = logdiam_obs::Histogram::default();
        let mut chunks = 0u64;
        for chunk in g.edges().chunks(41) {
            let a = plain.absorb(chunk);
            let b = timed.absorb_timed(chunk, &intra, &drain);
            assert_eq!(a, b);
            chunks += 1;
        }
        assert_eq!(plain.labels(), timed.labels());
        assert_eq!(intra.count(), chunks, "one intra timing per batch");
        assert_eq!(drain.count(), chunks, "one drain timing per batch");
    }

    #[test]
    fn from_labels_resumes_and_more_shards_than_vertices_is_fine() {
        let labels = vec![0, 0, 2, 2, 4];
        let mut ov = ShardedOverlay::from_labels(&labels, 64);
        ov.absorb(&[(1, 4)]);
        assert_eq!(ov.labels(), vec![0, 0, 2, 2, 0]);
    }
}
