//! Property tests: the service's maintained labeling is always
//! partition-equal to a one-shot recompute on the accumulated graph.
//!
//! The generator draws a random initial graph, a random edge stream
//! (including out-of-stream duplicate edges and self-loops), and a random
//! interleaving of `apply_batch` calls (batch boundaries, interposed
//! empty batches, re-sent batches) with a small rebuild threshold so both
//! the overlay path and the fold path are exercised; after every commit
//! the published partition must equal sequential ground truth on the
//! union graph so far. A thinner sweep also holds the labels to the
//! paper's Theorem-3 algorithm on the same graph.
//!
//! A second property pins the O(batch) snapshot model: every epoch's
//! labels, point queries, and spectrum equal a from-scratch BFS plus an
//! O(n) recount — at several shard counts, across folds and a durable
//! restart — and snapshots share their fold-time base with a remap
//! bounded by the rebuild threshold.

use cc_graph::seq::{canonical_labels, components, components_bfs, same_partition};
use cc_graph::{gen, Graph, GraphBuilder};
use logdiam_cc::theorem3::{faster_cc, FasterParams};
use logdiam_svc::{ConnectivityService, FsyncPolicy, Snapshot, SvcParams};
use pram_sim::{Pram, WritePolicy};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A replay scenario: initial graph, edge stream, interleaving choices.
#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    initial: Vec<(u32, u32)>,
    stream: Vec<(u32, u32)>,
    batch: usize,
    rebuild_threshold: usize,
    /// Send every k-th batch twice (duplicate-edge case across batches).
    resend_every: usize,
    /// Interpose an empty batch every k-th batch.
    empty_every: usize,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        8usize..120,
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..120),
        // Stream pairs may repeat initial edges and contain loops: the
        // service must drop both.
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..160),
        1usize..24,
        1usize..32,
        any::<u64>(),
    )
        .prop_map(|(n, initial, stream, batch, rebuild_threshold, seed)| {
            let nn = n as u32;
            let clamp = |pairs: Vec<(u32, u32)>| -> Vec<(u32, u32)> {
                pairs.into_iter().map(|(u, v)| (u % nn, v % nn)).collect()
            };
            let mut stream = clamp(stream);
            // Deterministically sprinkle a self-loop into the stream.
            if !stream.is_empty() {
                let i = (seed % stream.len() as u64) as usize;
                let v = stream[i].0;
                stream[i] = (v, v);
            }
            Scenario {
                n,
                initial: clamp(initial),
                stream,
                batch,
                rebuild_threshold,
                resend_every: 2 + (seed % 3) as usize,
                empty_every: 2 + (seed % 2) as usize,
            }
        })
}

fn initial_graph(s: &Scenario) -> Graph {
    let mut b = GraphBuilder::new(s.n);
    for &(u, v) in &s.initial {
        b.add_edge(u, v);
    }
    b.build()
}

/// The paper's Theorem-3 algorithm as an oracle: `faster_cc` on a
/// seeded-ARBITRARY simulated PRAM, canonicalized to min-vertex labels.
fn theorem3_labels(g: &Graph, seed: u64) -> Vec<u32> {
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
    let report = faster_cc(&mut pram, g, seed, &FasterParams::default());
    canonical_labels(&report.run.labels)
}

/// Run a scenario; after every batch, compare the service partition to a
/// one-shot recompute on the union of everything applied so far, and —
/// given a seed — its labels to [`theorem3_labels`] on that union.
fn check_replay(s: &Scenario, theorem3_seed: Option<u64>) {
    let initial = initial_graph(s);
    let svc = ConnectivityService::new(
        initial.clone(),
        SvcParams {
            rebuild_threshold: s.rebuild_threshold,
            snapshot_history: 4,
            // Prime-ish shard count so cross-shard buffering is exercised
            // on every scenario size.
            shard_count: 3,
            ..SvcParams::default()
        },
    );
    let mut applied: Vec<(u32, u32)> = Vec::new();
    for (i, chunk) in s.stream.chunks(s.batch.max(1)).enumerate() {
        if i % s.empty_every == 0 {
            svc.apply_batch(&[]).wait().unwrap();
        }
        svc.apply_batch(chunk).wait().unwrap();
        if i % s.resend_every == 0 {
            svc.apply_batch(chunk).wait().unwrap(); // exact duplicates: must be a no-op
        }
        applied.extend_from_slice(chunk);
        let union = Graph::from_csr_plus_edges(&initial, &applied);
        let truth = components(&union);
        let snap = svc.latest();
        assert!(
            same_partition(snap.labels(), &truth),
            "partition diverged after batch {i} (epoch {})",
            snap.epoch()
        );
        if let Some(seed) = theorem3_seed {
            assert_eq!(
                snap.labels(),
                &theorem3_labels(&union, seed)[..],
                "Theorem 3 disagrees after batch {i} (epoch {})",
                snap.epoch()
            );
        }
        // component_of is the same canonical labeling queries see.
        for v in 0..s.n as u32 {
            assert_eq!(svc.component_of(v), snap.labels()[v as usize]);
        }
    }
    // Final cross-check: every pairwise query on a vertex sample agrees
    // with ground truth on the accumulated graph.
    let union = Graph::from_csr_plus_edges(&initial, &applied);
    let truth = components(&union);
    for u in (0..s.n as u32).step_by(7) {
        for v in (0..s.n as u32).step_by(11) {
            assert_eq!(
                svc.query_latest(u, v),
                truth[u as usize] == truth[v as usize]
            );
        }
    }
    // Every committed workload leaves the commit-pipeline histograms
    // populated and internally consistent (the metrics() contract).
    let m = svc.metrics();
    m.validate().unwrap();
    let commits = m.counters["svc_commits_total"];
    assert!(commits >= s.stream.chunks(s.batch.max(1)).count() as u64);
    // Publish and enqueue-wait are observed once per commit; absorb and
    // cross-drain only when the batch had surviving fresh edges.
    assert_eq!(m.histograms["svc_snapshot_publish_ns"].count, commits);
    assert_eq!(m.histograms["svc_enqueue_wait_ns"].count, commits);
    let absorbs = m.histograms["svc_absorb_ns"].count;
    assert_eq!(m.histograms["svc_cross_drain_ns"].count, absorbs);
    assert!(absorbs <= commits);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// The workhorse: random interleavings against sequential truth.
    #[test]
    fn replay_equals_one_shot_unionfind(s in arb_scenario()) {
        check_replay(&s, None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// A thinner sweep against the simulated Theorem-3 algorithm (a
    /// full PRAM simulation per batch, so fewer cases).
    #[test]
    fn replay_equals_one_shot_faster_sim(s in arb_scenario(), seed in any::<u64>()) {
        check_replay(&s, Some(seed));
    }
}

/// Structured family replays: generator edges streamed in order onto an
/// empty base — rebuilds fire many times and the final state must be the
/// full family graph's partition.
#[test]
fn family_streams_from_empty_base() {
    for g in [
        gen::path(300),
        gen::grid(12, 25),
        gen::union_all(&[gen::complete(9), gen::star(40), gen::cycle(17)]),
        gen::preferential_attachment(200, 3, 5),
    ] {
        let svc = ConnectivityService::new(
            GraphBuilder::new(g.n()).build(),
            SvcParams {
                rebuild_threshold: 64,
                ..SvcParams::default()
            },
        );
        for chunk in g.edges().chunks(23) {
            svc.apply_batch(chunk).wait().unwrap();
        }
        assert!(same_partition(svc.latest().labels(), &components(&g)));
        assert!(svc.spectrum().rebuilds >= 1, "rebuild path not exercised");
    }
}

/// From-scratch truth for one epoch: canonical min-vertex labels by BFS
/// over the accumulated graph, the O(n) component recount, and the
/// distinct edge count.
struct Truth {
    labels: Vec<u32>,
    components: usize,
    largest: usize,
    isolated: usize,
    m: usize,
}

fn truth(initial: &Graph, applied: &[(u32, u32)]) -> Truth {
    let g = Graph::from_csr_plus_edges(initial, applied);
    let labels = canonical_labels(&components_bfs(&g));
    let mut size = vec![0usize; g.n()];
    for &l in &labels {
        size[l as usize] += 1;
    }
    let sizes = || size.iter().copied().filter(|&s| s > 0);
    Truth {
        components: sizes().count(),
        largest: sizes().max().unwrap_or(0),
        isolated: sizes().filter(|&s| s == 1).count(),
        m: g.m(),
        labels,
    }
}

/// Every public read of one published snapshot against the truth.
fn check_snapshot(snap: &Snapshot, want: &Truth, epoch: u64, shards: usize) {
    assert_eq!(snap.epoch(), epoch);
    assert_eq!(snap.labels(), &want.labels[..], "labels at epoch {epoch}");
    let n = want.labels.len() as u32;
    for v in 0..n {
        assert_eq!(snap.component_of(v), want.labels[v as usize]);
        let w = (v * 7 + 3) % n;
        assert_eq!(
            snap.connected(v, w),
            want.labels[v as usize] == want.labels[w as usize],
            "connected({v},{w}) at epoch {epoch}"
        );
    }
    let sp = snap.spectrum();
    assert_eq!(
        (sp.epoch, sp.n, sp.base_m + sp.delta_edges, sp.shards),
        (epoch, n as usize, want.m, shards)
    );
    assert_eq!(
        (sp.components, sp.largest_component, sp.isolated_vertices),
        (want.components, want.largest, want.isolated),
        "spectrum counts at epoch {epoch}"
    );
}

static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Replay a scenario through a durable service at one shard count,
/// dropping it and reopening the store mid-stream. After every commit the
/// published snapshot must equal the from-scratch truth (labels,
/// `component_of`, `connected`, spectrum), and the snapshot model must
/// hold: epochs between two folds share one fold-time base, and no
/// snapshot carries more remap entries than the rebuild threshold.
fn check_epochs_against_recount(s: &Scenario, shard_count: usize, cut: u64) {
    // A sparse start and a descending chain after the random stream:
    // every chain batch merges a root that earlier batches already merged
    // into into a still smaller one, so remap entries must follow their
    // target across commits.
    let mut s = s.clone();
    s.initial.truncate(s.initial.len() / 4);
    s.stream.extend((1..s.n as u32).rev().map(|v| (v - 1, v)));
    let s = &s;
    let reopen_at = (cut % s.stream.chunks(s.batch.max(1)).count() as u64) as usize;
    let dir = std::env::temp_dir().join(format!(
        "logdiam_proptest_svc_{}_{}",
        std::process::id(),
        STORE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let initial = initial_graph(s);
    let params = SvcParams {
        rebuild_threshold: s.rebuild_threshold,
        snapshot_history: 4,
        shard_count,
        fsync: FsyncPolicy::Off,
        snapshot_every: 3,
        snapshots_kept: 2,
        ..SvcParams::default()
    };
    let mut svc = ConnectivityService::create(&dir, initial.clone(), params).unwrap();
    check_snapshot(&svc.latest(), &truth(&initial, &[]), 0, shard_count);
    let mut prev = svc.latest();
    let mut applied: Vec<(u32, u32)> = Vec::new();
    for (i, chunk) in s.stream.chunks(s.batch.max(1)).enumerate() {
        if i == reopen_at {
            drop(svc);
            svc = ConnectivityService::open(&dir, params).unwrap();
            let snap = svc.latest();
            check_snapshot(&snap, &truth(&initial, &applied), i as u64, shard_count);
            prev = snap;
        }
        let epoch = svc.apply_batch(chunk).wait().unwrap();
        applied.extend_from_slice(chunk);
        let snap = svc.snapshot(epoch).unwrap();
        check_snapshot(&snap, &truth(&initial, &applied), epoch, shard_count);
        assert!(snap.remap_len() <= s.rebuild_threshold);
        let same_fold = snap.spectrum().rebuilds == prev.spectrum().rebuilds;
        assert_eq!(
            Arc::ptr_eq(snap.base_labels(), prev.base_labels()),
            same_fold,
            "epochs {} and {epoch}: shared base iff no fold between them",
            prev.epoch()
        );
        prev = snap;
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// O(batch) publishing is exact: every epoch's reads equal a BFS plus
    /// an O(n) recount, at shard counts 1/3/8, across folds and a drop +
    /// `open()` mid-stream.
    #[test]
    fn every_epoch_equals_bfs_and_recount(s in arb_scenario(), cut in any::<u64>()) {
        for shard_count in [1, 3, 8] {
            check_epochs_against_recount(&s, shard_count, cut);
        }
    }
}
