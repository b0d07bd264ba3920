//! The controller handle: enqueue commits, read published snapshots.
//!
//! All mutable state lives on the writer thread (see [`crate::writer`]);
//! this module is the thin, `Sync` front the rest of the workspace talks
//! to. The split follows the execution-controller idiom: a command
//! channel into a state-owning thread, a handle that returns tickets.

use crate::persist;
use crate::ticket::{EpochTicket, TicketCell};
use crate::wal::{Wal, WalRecord};
use crate::writer::{Cmd, Durable, Ring, SharedStats, Writer, WriterSeed};
use crate::{Edge, Epoch, EpochError, FsyncPolicy, PersistError, Snapshot, SvcParams, WriterDead};
use cc_graph::Graph;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::{mpsc, Arc, RwLock};

/// A connectivity service over a mutable graph: batched edge insertions
/// mutate an epoch-versioned labeling; queries read published immutable
/// snapshots. See the crate docs for the design and `ARCHITECTURE.md`
/// for the architecture contract.
///
/// This struct is only the **controller handle**. The state — base edge
/// list, delta overlay, delta list — is owned by a dedicated writer
/// thread; [`apply_batch`](ConnectivityService::apply_batch) enqueues a
/// normalized batch on a bounded command channel and immediately returns
/// an [`EpochTicket`]. The writer drains commands in FIFO order, so epoch
/// assignment is totally ordered no matter how many threads enqueue.
/// Queries ([`query`](ConnectivityService::query) and friends) read the
/// published snapshot ring under a brief read lock — they never wait on a
/// committing batch or a fold.
///
/// Dropping the handle shuts the service down: already-enqueued batches
/// are drained, committed, and their tickets fulfilled; then the writer
/// exits. No thread outlives the handle.
pub struct ConnectivityService {
    n: usize,
    /// `Some` until Drop; taken there so the channel closes before join.
    tx: Option<mpsc::SyncSender<Cmd>>,
    published: Arc<Ring>,
    stats: Arc<SharedStats>,
    writer: Option<std::thread::JoinHandle<()>>,
}

impl ConnectivityService {
    /// Start a **memory-only** service over an initial graph. The initial
    /// labeling is computed synchronously and published as epoch 0 before
    /// this returns; the writer thread is running when it does.
    /// Nothing is persisted — use [`create`](ConnectivityService::create)
    /// / [`open`](ConnectivityService::open) for a durable service.
    pub fn new(initial: Graph, params: SvcParams) -> Self {
        Self::launch(WriterSeed::fresh(initial), params, &[])
    }

    /// Create a **durable** service in `dir` (made if absent, which must
    /// not already hold one): writes the genesis file (the initial graph,
    /// the full-replay anchor; never pruned) and an empty write-ahead
    /// log, then starts the service exactly like
    /// [`new`](ConnectivityService::new). Every subsequent batch is
    /// WAL-appended before it is applied; snapshots land every
    /// [`SvcParams::snapshot_every`] commits. Restart with
    /// [`open`](ConnectivityService::open).
    pub fn create(
        dir: impl AsRef<Path>,
        initial: Graph,
        params: SvcParams,
    ) -> Result<Self, PersistError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(PersistError::Io)?;
        let fsync = params.fsync != FsyncPolicy::Off;
        persist::write_genesis(dir, &initial, fsync)?;
        let wal = Wal::create(&persist::wal_path(dir), initial.n())?;
        let mut seed = WriterSeed::fresh(initial);
        seed.durable = Some(Durable::new(dir.to_path_buf(), wal));
        Ok(Self::launch(seed, params, &[]))
    }

    /// Reopen a durable service after a shutdown or crash: the
    /// first-class restart constructor.
    ///
    /// Recovery loads the newest snapshot the surviving WAL can extend
    /// (falling back to older snapshots, then to genesis + full replay),
    /// truncates any torn WAL tail at the first bad checksum, and replays
    /// the tail through the ordinary commit path *before this returns* —
    /// so the recovered state is bit-identical (labels and spectrum) to
    /// the uninterrupted run at the same epoch: a prefix of the committed
    /// history, specifically every batch whose WAL record survived
    /// (under [`FsyncPolicy::Always`], every batch whose ticket was
    /// fulfilled — and possibly the one in flight at the crash).
    ///
    /// Errors only on unrecoverable storage state (missing/corrupt
    /// genesis, unreadable dir, or no snapshot the log can extend); torn
    /// tails and corrupt snapshots are recovered over silently.
    pub fn open(dir: impl AsRef<Path>, params: SvcParams) -> Result<Self, PersistError> {
        let dir = dir.as_ref();
        let rec = persist::recover(dir)?;
        let seed = WriterSeed {
            base: rec.base,
            delta: rec.delta,
            labels: rec.labels,
            epoch: rec.epoch,
            rebuilds: rec.rebuilds,
            durable: Some(Durable::new(dir.to_path_buf(), rec.wal)),
        };
        Ok(Self::launch(seed, params, &rec.replay))
    }

    fn launch(seed: WriterSeed, params: SvcParams, replay: &[WalRecord]) -> Self {
        assert!(
            params.rebuild_threshold > 0,
            "rebuild_threshold must be ≥ 1"
        );
        assert!(params.snapshot_history > 0, "snapshot_history must be ≥ 1");
        assert!(params.command_queue > 0, "command_queue must be ≥ 1");
        assert!(params.snapshot_every > 0, "snapshot_every must be ≥ 1");
        assert!(params.snapshots_kept > 0, "snapshots_kept must be ≥ 1");
        let n = seed.base.n();
        let published: Arc<Ring> = Arc::new(RwLock::new(VecDeque::new()));
        let stats = Arc::new(SharedStats::new());
        let mut writer_state = Writer::start(seed, params, published.clone(), stats.clone());
        writer_state.replay(replay);
        let (tx, rx) = mpsc::sync_channel(params.command_queue);
        let writer = std::thread::Builder::new()
            .name("logdiam-svc-writer".into())
            .spawn(move || writer_state.run(rx))
            .expect("cannot spawn service writer");
        ConnectivityService {
            n,
            tx: Some(tx),
            published,
            stats,
            writer: Some(writer),
        }
    }

    /// Number of vertices the service was built over.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The newest committed epoch.
    pub fn epoch(&self) -> Epoch {
        self.with_latest(|snap| snap.epoch())
    }

    /// Enqueue one batch of edge insertions; returns an [`EpochTicket`]
    /// immediately.
    ///
    /// The handle normalizes the batch before enqueuing (self-loops
    /// dropped, endpoints validated — an out-of-range endpoint panics
    /// here, on the caller); the writer applies the stateful half of the
    /// normalization rule (exact dedup against earlier batches and the
    /// base edge list, see [`cc_graph::builder::dedup_new_edges_by`])
    /// when it dequeues the command, so edges already present never count
    /// toward the rebuild threshold. An empty batch (or one that is all
    /// duplicates/loops) still commits and publishes an epoch — callers
    /// can rely on one epoch per call, assigned in dequeue (FIFO) order.
    ///
    /// **Backpressure:** the command channel is bounded
    /// ([`SvcParams::command_queue`]); when the writer is
    /// [`SvcParams::command_queue`] commits behind, this call blocks
    /// until a slot frees instead of buffering unboundedly. The returned
    /// ticket can be [`wait`](EpochTicket::wait)ed (block until the
    /// epoch's snapshot is published) or [`poll`](EpochTicket::poll)ed
    /// (non-blocking).
    ///
    /// **Writer death:** if the writer thread has died (contained panic —
    /// see [`WriterDead`]), this does not block on the channel at all: it
    /// returns a ticket already poisoned with the cause of death. A
    /// batch enqueued concurrently with the death is drained and its
    /// ticket poisoned by the dying writer; either way the ticket
    /// resolves, it never hangs.
    pub fn apply_batch(&self, batch: &[Edge]) -> EpochTicket {
        let n = self.n as u32;
        let mut edges = Vec::with_capacity(batch.len());
        for &(u, v) in batch {
            assert!(u < n && v < n, "edge ({u},{v}) out of range");
            if u != v {
                edges.push((u, v));
            }
        }
        let cell = TicketCell::new();
        if let Some(err) = self.writer_dead() {
            cell.poison(err);
            return EpochTicket::new(cell);
        }
        self.send(Cmd::Apply {
            edges,
            ticket: cell.clone(),
            enqueued: std::time::Instant::now(),
        });
        EpochTicket::new(cell)
    }

    /// Block until every batch enqueued before this call has committed
    /// (folds included: a fold completes inside its commit). Errors
    /// instead of hanging when the writer thread has died.
    pub fn flush(&self) -> Result<(), WriterDead> {
        let (done_tx, done_rx) = mpsc::sync_channel(1);
        self.send(Cmd::Flush(done_tx));
        done_rx.recv().map_err(|_| {
            self.writer_dead()
                .unwrap_or_else(|| WriterDead::new("writer thread terminated".into()))
        })
    }

    /// `Some(cause)` if the writer thread has died (contained panic).
    /// The service is then read-only: queries keep working off the
    /// published ring, but every ticket resolves to the error.
    pub fn writer_dead(&self) -> Option<WriterDead> {
        self.stats.dead.lock().expect("dead flag poisoned").clone()
    }

    /// Test-only fault injection: make the writer thread panic on its
    /// commit path, exercising the real containment machinery.
    #[doc(hidden)]
    pub fn inject_writer_panic(&self) {
        self.send(Cmd::Crash);
    }

    fn send(&self, cmd: Cmd) {
        self.tx
            .as_ref()
            .expect("service handle already shut down")
            .send(cmd)
            .expect("service writer gone");
    }

    /// Always `false`: a rebuild is a fold, which completes inside its
    /// commit, so none is ever in flight between commits. Kept for
    /// callers written against the background recompute this replaced.
    pub fn rebuild_in_flight(&self) -> bool {
        false
    }

    /// The service's observability registry: commit-pipeline span
    /// histograms, WAL counters, and the structured event ring (e.g.
    /// `replay_progress`). Metric names and the event
    /// schema are the contract in `docs/obs-schema.md`. Everything here
    /// is host-timing telemetry — never part of the deterministic
    /// per-epoch surface.
    pub fn obs(&self) -> &logdiam_obs::Registry {
        &self.stats.obs
    }

    /// A point-in-time [`MetricsSnapshot`](logdiam_obs::MetricsSnapshot)
    /// of the service's registry: mergeable, self-validating, exportable
    /// as JSON or Prometheus text. After any committed batch the
    /// commit-pipeline histograms (`svc_absorb_ns`,
    /// `svc_snapshot_publish_ns`, and for durable services
    /// `svc_wal_append_ns` / `svc_fsync_ns`) are populated.
    pub fn metrics(&self) -> logdiam_obs::MetricsSnapshot {
        self.stats.obs.snapshot()
    }

    /// The latest published snapshot.
    pub fn latest(&self) -> Arc<Snapshot> {
        self.with_latest(Arc::clone)
    }

    /// Run a point read on the latest snapshot under the ring's read lock
    /// — no `Arc` clone and drop, whose two atomic updates would cost as
    /// much as the read itself.
    fn with_latest<R>(&self, read: impl FnOnce(&Arc<Snapshot>) -> R) -> R {
        let ring = self.published.read().expect("snapshot ring poisoned");
        read(ring.back().expect("ring always holds the latest snapshot"))
    }

    /// The snapshot published at `at`, if still retained.
    pub fn snapshot(&self, at: Epoch) -> Result<Arc<Snapshot>, EpochError> {
        let ring = self.published.read().expect("snapshot ring poisoned");
        let oldest = ring.front().expect("ring never empty").epoch();
        let latest = ring.back().expect("ring never empty").epoch();
        if at > latest {
            return Err(EpochError::Future {
                requested: at,
                latest,
            });
        }
        if at < oldest {
            return Err(EpochError::Evicted {
                requested: at,
                oldest,
            });
        }
        Ok(ring[(at - oldest) as usize].clone())
    }

    /// Were `u` and `v` connected at epoch `at`?
    pub fn query(&self, u: u32, v: u32, at: Epoch) -> Result<bool, EpochError> {
        Ok(self.snapshot(at)?.connected(u, v))
    }

    /// Are `u` and `v` connected in the latest epoch?
    pub fn query_latest(&self, u: u32, v: u32) -> bool {
        self.with_latest(|snap| snap.connected(u, v))
    }

    /// Canonical component label of `u` in the latest epoch.
    pub fn component_of(&self, u: u32) -> u32 {
        self.with_latest(|snap| snap.component_of(u))
    }

    /// Canonical component label of `u` at epoch `at`.
    pub fn component_of_at(&self, u: u32, at: Epoch) -> Result<u32, EpochError> {
        Ok(self.snapshot(at)?.component_of(u))
    }

    /// Component statistics for the latest epoch.
    pub fn spectrum(&self) -> crate::Spectrum {
        self.with_latest(|snap| snap.spectrum())
    }
}

impl Drop for ConnectivityService {
    fn drop(&mut self) {
        // Closing the channel ends the writer's drain loop *after* every
        // buffered command is processed; join so no thread outlives the
        // handle.
        drop(self.tx.take());
        if let Some(writer) = self.writer.take() {
            writer.join().expect("service writer panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SvcParams;
    use cc_graph::seq::{canonical_labels, components, same_partition};
    use cc_graph::{gen, GraphBuilder};

    fn svc(initial: Graph, threshold: usize) -> ConnectivityService {
        ConnectivityService::new(
            initial,
            SvcParams {
                rebuild_threshold: threshold,
                ..SvcParams::default()
            },
        )
    }

    #[test]
    fn initial_epoch_matches_ground_truth() {
        let g = gen::union_all(&[gen::cycle(6), gen::path(5), gen::star(4)]);
        let truth = components(&g);
        let svc = svc(g, 64);
        assert_eq!(svc.epoch(), 0);
        assert!(same_partition(svc.latest().labels(), &truth));
        assert_eq!(svc.spectrum().components, 3);
    }

    #[test]
    fn batches_connect_components_and_advance_epochs() {
        // Two paths: {0..4}, {5..9}.
        let svc = svc(gen::union_all(&[gen::path(5), gen::path(5)]), 1024);
        assert!(!svc.query_latest(0, 9));
        let e1 = svc.apply_batch(&[(4, 5)]).wait().unwrap();
        assert_eq!(e1, 1);
        assert!(svc.query_latest(0, 9));
        assert_eq!(svc.component_of(9), 0);
        // Historical epoch 0 still answers the pre-batch state.
        assert!(!svc.query(0, 9, 0).unwrap());
        assert!(svc.query(0, 9, e1).unwrap());
        assert_eq!(svc.spectrum().components, 1);
    }

    #[test]
    fn tickets_resolve_in_enqueue_order_and_poll_converges() {
        let svc = svc(gen::path(64), 1 << 20);
        let tickets: Vec<_> = (0..32u32)
            .map(|i| svc.apply_batch(&[(i, i + 32)]))
            .collect();
        // FIFO epoch assignment: ticket i commits as epoch i + 1.
        for (i, t) in tickets.iter().enumerate() {
            assert_eq!(t.wait().unwrap(), i as Epoch + 1);
            assert_eq!(t.poll().unwrap(), Some(i as Epoch + 1));
        }
    }

    #[test]
    fn empty_and_duplicate_batches_commit_epochs_without_growing_deltas() {
        let svc = svc(gen::path(4), 1024);
        let e1 = svc.apply_batch(&[]).wait().unwrap();
        let e2 = svc.apply_batch(&[(0, 1), (1, 0), (2, 2)]).wait().unwrap(); // all dups/loops
        assert_eq!((e1, e2), (1, 2));
        let sp = svc.spectrum();
        assert_eq!(sp.delta_edges, 0);
        assert_eq!(sp.components, 1);
        assert_eq!(svc.latest().labels(), svc.snapshot(0).unwrap().labels());
    }

    #[test]
    fn threshold_triggers_fold_and_merges_deltas_into_base() {
        let svc = svc(GraphBuilder::new(8).build(), 3);
        svc.apply_batch(&[(0, 1)]).wait().unwrap();
        svc.apply_batch(&[(2, 3)]).wait().unwrap();
        assert_eq!(svc.spectrum().rebuilds, 0);
        assert_eq!(svc.spectrum().base_m, 0);
        assert_eq!(svc.spectrum().delta_edges, 2);
        // Third distinct edge crosses the threshold: the fold happens
        // synchronously at that commit (deterministically).
        svc.apply_batch(&[(4, 5)]).wait().unwrap();
        let sp = svc.spectrum();
        assert_eq!(sp.rebuilds, 1);
        assert_eq!(sp.base_m, 3);
        assert_eq!(sp.delta_edges, 0);
        assert_eq!(sp.components, 5); // {0,1},{2,3},{4,5},{6},{7}
                                      // An edge that was folded into the base no longer counts as new.
        svc.apply_batch(&[(0, 1)]).wait().unwrap();
        assert_eq!(svc.spectrum().delta_edges, 0);
    }

    #[test]
    fn snapshot_history_evicts_old_epochs() {
        let svc = ConnectivityService::new(
            gen::path(3),
            SvcParams {
                snapshot_history: 2,
                ..SvcParams::default()
            },
        );
        svc.apply_batch(&[]).wait().unwrap();
        svc.apply_batch(&[]).wait().unwrap();
        svc.apply_batch(&[]).wait().unwrap();
        assert!(matches!(
            svc.snapshot(0),
            Err(EpochError::Evicted {
                requested: 0,
                oldest: 2
            })
        ));
        assert!(svc.snapshot(2).is_ok());
        assert!(svc.snapshot(3).is_ok());
        assert!(matches!(
            svc.snapshot(9),
            Err(EpochError::Future {
                requested: 9,
                latest: 3
            })
        ));
    }

    #[test]
    fn final_labels_equal_theorem3_on_the_union_graph() {
        let initial = gen::gnm(120, 150, 5);
        let stream = gen::gnm(120, 90, 17);
        let svc = svc(initial.clone(), 40);
        for chunk in stream.edges().chunks(25) {
            svc.apply_batch(chunk).wait().unwrap();
        }
        assert!(svc.spectrum().rebuilds >= 1);
        // The paper's algorithm on a simulated PRAM is the oracle; its
        // canonicalized labels are *identical*, not just partition-equal.
        let union = Graph::from_csr_plus_edges(&initial, stream.edges());
        let mut pram = pram_sim::Pram::new(pram_sim::WritePolicy::ArbitrarySeeded(11));
        let params = logdiam_cc::theorem3::FasterParams::default();
        let report = logdiam_cc::theorem3::faster_cc(&mut pram, &union, 11, &params);
        assert_eq!(
            svc.latest().labels(),
            &canonical_labels(&report.run.labels)[..]
        );
    }

    #[test]
    fn replay_matches_one_shot_on_union_graph() {
        let initial = gen::union_all(&[gen::path(40), gen::gnm(60, 80, 3)]);
        let stream = gen::gnm(100, 70, 21);
        let svc = svc(initial.clone(), 16);
        for chunk in stream.edges().chunks(9) {
            svc.apply_batch(chunk).wait().unwrap();
        }
        let union = Graph::from_csr_plus_edges(&initial, stream.edges());
        let truth = components(&union);
        assert!(same_partition(svc.latest().labels(), &truth));
        let mut distinct: Vec<u32> = truth.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(svc.spectrum().components, distinct.len());
    }

    #[test]
    fn pipelined_enqueue_then_flush_commits_everything() {
        let g = gen::gnm(400, 600, 7);
        let svc = ConnectivityService::new(
            GraphBuilder::new(g.n()).build(),
            SvcParams {
                rebuild_threshold: 64,
                ..SvcParams::default()
            },
        );
        // Fire the whole stream without waiting any individual ticket.
        let tickets: Vec<_> = g.edges().chunks(31).map(|c| svc.apply_batch(c)).collect();
        svc.flush().unwrap();
        // Every ticket is now fulfilled without blocking.
        for t in &tickets {
            assert!(t.poll().unwrap().is_some());
        }
        assert_eq!(svc.epoch(), tickets.len() as Epoch);
        assert!(same_partition(svc.latest().labels(), &components(&g)));
        assert!(svc.spectrum().rebuilds >= 1);
    }

    #[test]
    fn metrics_populate_commit_pipeline_histograms_and_events() {
        let svc = svc(GraphBuilder::new(16).build(), 4);
        for i in 0..8u32 {
            svc.apply_batch(&[(i, i + 8)]).wait().unwrap();
        }
        let m = svc.metrics();
        m.validate().unwrap();
        assert_eq!(m.counters["svc_commits_total"], 8);
        assert_eq!(m.histograms["svc_dedup_ns"].count, 8);
        assert_eq!(m.histograms["svc_absorb_ns"].count, 8);
        assert_eq!(m.histograms["svc_snapshot_publish_ns"].count, 8);
        assert_eq!(m.histograms["svc_enqueue_wait_ns"].count, 8);
        // 8 distinct edges at threshold 4 → two folds, each counted and
        // span-timed.
        assert_eq!(m.counters["svc_folds_total"], 2);
        assert_eq!(m.histograms["svc_fold_ns"].count, 2);
        // The commit span also landed in the event ring.
        let events = svc.obs().drain_events();
        assert!(events.iter().any(|e| e.name == "svc_commit_ns"));
        // Memory-only service: the WAL counters exist (pre-registered,
        // schema-stable) but never move.
        assert_eq!(m.counters["svc_wal_records_total"], 0);
        assert_eq!(m.histograms["svc_wal_append_ns"].count, 0);
        // Exporters work end-to-end on a live service snapshot.
        assert!(m.to_json().contains("\"svc_commits_total\":8"));
        assert!(m
            .to_prometheus()
            .contains("# TYPE svc_commits_total counter"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_batch_edge_panics_on_the_caller() {
        let svc = svc(gen::path(3), 8);
        let _ = svc.apply_batch(&[(0, 3)]);
    }
}
