//! The dedicated writer thread that owns all mutable service state.
//!
//! # Commit path
//!
//! [`ConnectivityService`](crate::ConnectivityService) is only a
//! controller handle: it enqueues [`Cmd`]s on a bounded command channel
//! and reads published snapshots. The writer thread drains the channel in
//! FIFO order, so **epoch assignment is totally ordered by the writer** —
//! the one invariant the async split must preserve for the per-epoch
//! determinism fingerprints to survive (see `ARCHITECTURE.md`).
//!
//! Per [`Cmd::Apply`] the writer: normalizes the batch against the base
//! edge list (row index) and the persistent dedup set, notes the roots
//! the surviving edges touch, absorbs them into the overlay union–find on
//! this thread in batch order ([`UnionFind::absorb_seq`]), settles the
//! merges into the component counts and the remap ([`Labeling::settle`]),
//! folds the delta list into the base when the rebuild threshold is
//! crossed, seals and publishes the epoch's [`Snapshot`], and then — and
//! only then — fulfills the caller's ticket. Nothing on this path is O(n)
//! except the fold's label materialization.
//!
//! # Folds
//!
//! A fold is the whole rebuild: synchronous, deterministic, and at the
//! exact commit that crosses the threshold. It merges the delta list into
//! the base edge list in place and makes the overlay's current labels the
//! new snapshot base. Debug builds check those labels against a
//! from-scratch `unionfind_cc_edges` over the folded base at every fold.

use crate::base::BaseEdges;
use crate::persist::{self, SnapshotHead};
use crate::snapshot::Labeling;
use crate::ticket::TicketCell;
use crate::wal::{Wal, WalRecord};
use crate::{Edge, Epoch, FsyncPolicy, Snapshot, SvcParams, WriterDead};
use cc_graph::Graph;
use logdiam_obs::{Counter, Event, Histogram, Registry};
use logdiam_par::unionfind::unionfind_cc_edges;
use logdiam_par::UnionFind;
use pram_kit::PairSet;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::Instant;

/// Seed for the delta dedup set; fixed so replays are deterministic.
const DELTA_DEDUP_SEED: u64 = 0xD317_A5E7;

/// The published snapshot ring, shared between the writer (publisher) and
/// every handle (readers). Oldest epoch at the front, latest at the back.
pub(crate) type Ring = RwLock<VecDeque<Arc<Snapshot>>>;

/// A command enqueued by the handle, drained by the writer in FIFO order.
pub(crate) enum Cmd {
    /// Commit one (handle-normalized) batch and fulfill the ticket.
    Apply {
        /// Loop-free edges with validated endpoints.
        edges: Vec<Edge>,
        /// Fulfilled with the assigned epoch after the snapshot publishes.
        ticket: Arc<TicketCell>,
        /// When the handle enqueued the command — the writer observes the
        /// dequeue delay into `svc_enqueue_wait_ns` (queueing is the first
        /// stage of the commit pipeline).
        enqueued: Instant,
    },
    /// Rendezvous: reply once every previously enqueued command committed.
    /// A dead writer drops the sender instead, which the handle maps to
    /// [`WriterDead`].
    Flush(mpsc::SyncSender<()>),
    /// Test-only fault injection: panic on the commit path, exercising the
    /// containment machinery exactly as a real commit panic would.
    Crash,
}

/// Writer state shared with the handles: the observability registry and
/// the writer's cause of death. Deliberately *not* part of
/// [`Snapshot`]/[`Spectrum`](crate::Spectrum): none of it is on the
/// deterministic surface.
///
/// # Memory-ordering contract (the one place it is documented)
///
/// Everything recorded through [`SharedStats::obs`] — counters,
/// histograms, span timings — uses **relaxed** atomics and is
/// *approximate in ordering, exact in total*: a reader may see a commit's
/// counter bump before its histogram observation (or vice versa), but no
/// increment is ever lost. Nothing may synchronize-with a metric, and no
/// algorithm reads one back.
///
/// [`dead`](SharedStats::dead) is the one piece of load-bearing
/// synchronization, and it is a mutex: the first panic's payload must be
/// published once, fully formed, to every handle.
pub(crate) struct SharedStats {
    /// Set (once) when the writer thread dies; handles fast-fail new
    /// batches against it and `flush` reports it.
    pub(crate) dead: Mutex<Option<WriterDead>>,
    /// The service's metrics registry: every commit-pipeline span,
    /// counter, and event lands here. Exposed as
    /// [`ConnectivityService::obs`](crate::ConnectivityService::obs).
    pub(crate) obs: Registry,
}

impl SharedStats {
    pub(crate) fn new() -> Self {
        SharedStats {
            dead: Mutex::new(None),
            obs: Registry::new(),
        }
    }
}

/// Pre-registered registry handles for the writer's hot path, so a commit
/// never takes the registry's name-map lock. Histogram names double as
/// span names (a span records into the histogram of the same name); the
/// full catalogue is `docs/obs-schema.md`.
struct ObsHandles {
    enqueue_wait_ns: Histogram,
    dedup_ns: Histogram,
    absorb_ns: Histogram,
    snapshot_publish_ns: Histogram,
    commits: Counter,
    folds: Counter,
    wal_bytes: Counter,
    wal_records: Counter,
    wal_fsyncs: Counter,
    durable_snapshots: Counter,
    replayed_records: Counter,
}

impl ObsHandles {
    fn new(reg: &Registry) -> Self {
        // Pre-register the span-backed histograms too (spans look them up
        // on use), so every service exposes the full metric catalogue of
        // `docs/obs-schema.md` from epoch 0 — zeros, not missing keys.
        for span_hist in [
            "svc_commit_ns",
            "svc_wal_append_ns",
            "svc_fsync_ns",
            "svc_fold_ns",
            "svc_durable_snapshot_ns",
        ] {
            let _ = reg.histogram(span_hist);
        }
        ObsHandles {
            enqueue_wait_ns: reg.histogram("svc_enqueue_wait_ns"),
            dedup_ns: reg.histogram("svc_dedup_ns"),
            absorb_ns: reg.histogram("svc_absorb_ns"),
            snapshot_publish_ns: reg.histogram("svc_snapshot_publish_ns"),
            commits: reg.counter("svc_commits_total"),
            folds: reg.counter("svc_folds_total"),
            wal_bytes: reg.counter("svc_wal_bytes_total"),
            wal_records: reg.counter("svc_wal_records_total"),
            wal_fsyncs: reg.counter("svc_wal_fsyncs_total"),
            durable_snapshots: reg.counter("svc_durable_snapshots_total"),
            replayed_records: reg.counter("svc_replayed_records_total"),
        }
    }
}

/// The durable half of the writer state: the open WAL plus snapshot
/// bookkeeping. `None` for memory-only services.
pub(crate) struct Durable {
    pub(crate) dir: PathBuf,
    pub(crate) wal: Wal,
    /// Commits since the last durable snapshot was installed.
    commits_since_snapshot: u64,
}

impl Durable {
    pub(crate) fn new(dir: PathBuf, wal: Wal) -> Self {
        Durable {
            dir,
            wal,
            commits_since_snapshot: 0,
        }
    }
}

/// The initial state a writer starts from: a fresh graph
/// ([`WriterSeed::fresh`]) or a recovered durable state mid-history.
pub(crate) struct WriterSeed {
    pub(crate) base: BaseEdges,
    pub(crate) delta: Vec<Edge>,
    /// `None` ⇒ compute the initial labeling from scratch (fresh start or
    /// genesis-only recovery).
    pub(crate) labels: Option<Vec<u32>>,
    pub(crate) epoch: Epoch,
    pub(crate) rebuilds: u64,
    pub(crate) durable: Option<Durable>,
}

impl WriterSeed {
    pub(crate) fn fresh(initial: Graph) -> Self {
        WriterSeed {
            base: BaseEdges::new(initial.n(), initial.into_edges()),
            delta: Vec::new(),
            labels: None,
            epoch: 0,
            rebuilds: 0,
            durable: None,
        }
    }
}

/// Everything the writer thread owns.
pub(crate) struct Writer {
    params: SvcParams,
    base: BaseEdges,
    /// The delta overlay: one union–find over every edge committed so
    /// far, resumed from the start-up labels.
    overlay: UnionFind,
    /// Fold-time labels, remap, and component counts behind every
    /// published snapshot.
    labeling: Labeling,
    /// Distinct delta edges absorbed since the last fold, arrival order.
    delta: Vec<Edge>,
    /// Exact dedup set over `delta` (reseeded at each fold).
    seen: PairSet,
    epoch: Epoch,
    /// Folds triggered (deterministic: a pure function of the replay).
    rebuilds: u64,
    published: Arc<Ring>,
    stats: Arc<SharedStats>,
    /// Durable WAL + snapshot state; `None` for memory-only services.
    durable: Option<Durable>,
    /// Pre-registered handles into `stats.obs` for the commit path.
    obs: ObsHandles,
}

impl Writer {
    /// Build the initial state (the seed epoch published synchronously)
    /// before the writer thread starts. A recovered seed carries its
    /// labels; a fresh one computes them with `unionfind_cc_edges`.
    pub(crate) fn start(
        seed: WriterSeed,
        params: SvcParams,
        published: Arc<Ring>,
        stats: Arc<SharedStats>,
    ) -> Self {
        let base = seed.base;
        let labels = seed
            .labels
            .unwrap_or_else(|| unionfind_cc_edges(base.n(), base.edges()));
        let overlay = UnionFind::from_labels(&labels);
        // Rebuild the delta dedup set exactly as the original run left it:
        // the stored delta edges are distinct and absent from the (same)
        // folded base, so re-dedup re-inserts each of them.
        let mut seen =
            PairSet::with_capacity(DELTA_DEDUP_SEED ^ seed.rebuilds, params.rebuild_threshold);
        let readded = base.dedup_new_edges(&seed.delta, &mut seen);
        debug_assert_eq!(readded, seed.delta, "recovered delta list not canonical");
        let labeling = Labeling::new(labels);
        let snapshot =
            Arc::new(labeling.snapshot(seed.epoch, base.m(), seed.delta.len(), seed.rebuilds));
        published
            .write()
            .expect("snapshot ring poisoned")
            .push_back(snapshot);
        let obs = ObsHandles::new(&stats.obs);
        Writer {
            obs,
            seen,
            params,
            base,
            overlay,
            labeling,
            delta: seed.delta,
            epoch: seed.epoch,
            rebuilds: seed.rebuilds,
            published,
            stats,
            durable: seed.durable,
        }
    }

    /// Replay recovered WAL records through the ordinary commit path
    /// (synchronously, before the writer thread spawns). The records are
    /// already in the log, so nothing is re-appended; if anything was
    /// replayed, one consolidating snapshot is installed at the end so the
    /// next crash does not replay the same tail again.
    pub(crate) fn replay(&mut self, records: &[WalRecord]) {
        /// Progress cadence: one `replay_progress` event per this many
        /// records (plus one final event), so a long recovery is visible
        /// without flooding the ring.
        const PROGRESS_EVERY: usize = 256;
        let total = records.len();
        for (i, rec) in records.iter().enumerate() {
            debug_assert_eq!(rec.epoch, self.epoch + 1, "replay records not dense");
            self.commit(&rec.edges);
            self.obs.replayed_records.inc();
            if (i + 1) % PROGRESS_EVERY == 0 || i + 1 == total {
                self.stats.obs.event(
                    Event::new("replay_progress")
                        .with("replayed", i + 1)
                        .with("total", total)
                        .with("epoch", self.epoch),
                );
            }
        }
        if !records.is_empty() {
            self.snapshot_now();
        }
    }

    /// The writer thread's main loop: drain commands until every handle
    /// has dropped, then sync the WAL and exit. All commands buffered at
    /// handle-drop time are still drained and their tickets fulfilled
    /// (std mpsc delivers queued messages before reporting
    /// disconnection).
    ///
    /// # Panic containment
    ///
    /// Each commit runs under `catch_unwind`. If it panics — a bug, an
    /// injected [`Cmd::Crash`], or a durable-storage failure promoted to
    /// a panic — the writer state is dropped, the panic is recorded in
    /// [`SharedStats::dead`], and the loop keeps draining as a
    /// *tombstone*: every subsequent `Apply` ticket is poisoned and every
    /// `Flush` reply sender dropped, until the channel disconnects. No
    /// enqueuer ever blocks forever on a dead writer — the channel keeps
    /// draining, it just stops committing.
    pub(crate) fn run(self, rx: mpsc::Receiver<Cmd>) {
        let stats = Arc::clone(&self.stats);
        let mut state = Some(self);
        while let Ok(cmd) = rx.recv() {
            match cmd {
                Cmd::Apply {
                    edges,
                    ticket,
                    enqueued,
                } => match state.take() {
                    Some(w) => {
                        let commit = catch_unwind(AssertUnwindSafe(move || {
                            let mut w = w;
                            w.obs.enqueue_wait_ns.observe_duration(enqueued.elapsed());
                            let span =
                                logdiam_obs::span!(w.stats.obs, "svc_commit_ns", m = edges.len());
                            // Durability first: the batch must be in the
                            // log before any state reflects it.
                            w.wal_append(&edges);
                            let epoch = w.commit(&edges);
                            drop(span.with("epoch", epoch));
                            w.maybe_snapshot();
                            (w, epoch)
                        }));
                        match commit {
                            Ok((w, epoch)) => {
                                ticket.fulfill(epoch);
                                state = Some(w);
                            }
                            Err(payload) => ticket.poison(mark_dead(&stats, payload)),
                        }
                    }
                    None => ticket.poison(dead_error(&stats)),
                },
                Cmd::Flush(done) => {
                    if state.is_some() {
                        let _ = done.send(());
                    }
                    // Dead writer: drop `done`; the handle's recv() error
                    // becomes WriterDead.
                }
                Cmd::Crash => {
                    if let Some(w) = state.take() {
                        let payload = catch_unwind(AssertUnwindSafe(move || {
                            let _own = w; // dropped during the unwind
                            panic!("injected writer crash");
                        }))
                        .expect_err("closure always panics");
                        mark_dead(&stats, payload);
                    }
                }
            }
        }
        if let Some(w) = state {
            w.shutdown();
        }
    }

    /// Clean shutdown: durable state syncs its WAL so a clean drop loses
    /// nothing even under [`FsyncPolicy::Batch`]/`Off`.
    fn shutdown(mut self) {
        if let Some(d) = self.durable.as_mut() {
            if d.wal.unsynced() > 0 {
                let _ = d.wal.sync();
            }
        }
    }

    /// Append the dequeued batch to the WAL (as the epoch it is about to
    /// commit) and apply the fsync policy. Storage failures are fatal by
    /// design: a service that cannot persist a batch must not acknowledge
    /// it, so the panic here is contained into [`WriterDead`] and the
    /// batch's ticket is poisoned, not fulfilled.
    fn wal_append(&mut self, edges: &[Edge]) {
        let Some(d) = self.durable.as_mut() else {
            return;
        };
        {
            let _append = self.stats.obs.span("svc_wal_append_ns");
            let before = d.wal.len();
            d.wal
                .append(self.epoch + 1, edges)
                .unwrap_or_else(|e| panic!("WAL append failed: {e}"));
            self.obs.wal_bytes.add(d.wal.len() - before);
            self.obs.wal_records.inc();
        }
        let sync_now = match self.params.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch(every) => d.wal.unsynced() >= every,
            FsyncPolicy::Off => false,
        };
        if sync_now {
            let _fsync = self.stats.obs.span("svc_fsync_ns");
            d.wal
                .sync()
                .unwrap_or_else(|e| panic!("WAL fsync failed: {e}"));
            self.obs.wal_fsyncs.inc();
        }
    }

    /// Install a durable snapshot every `snapshot_every` commits.
    fn maybe_snapshot(&mut self) {
        let Some(d) = self.durable.as_mut() else {
            return;
        };
        d.commits_since_snapshot += 1;
        if d.commits_since_snapshot >= self.params.snapshot_every {
            self.snapshot_now();
        }
    }

    /// Stream the full writer state into `snap-<epoch>.bin` (temp file +
    /// atomic rename) straight from the live base edge list, delta, and
    /// labeling — no copy of any of them — and prune old snapshots. The
    /// WAL is synced first (unless the policy is `Off`) so the snapshot
    /// never names a WAL offset the disk does not have.
    fn snapshot_now(&mut self) {
        let Some(d) = self.durable.as_mut() else {
            return;
        };
        let _snap = self.stats.obs.span("svc_durable_snapshot_ns");
        let fsync = self.params.fsync != FsyncPolicy::Off;
        if fsync && d.wal.unsynced() > 0 {
            d.wal
                .sync()
                .unwrap_or_else(|e| panic!("WAL fsync failed: {e}"));
        }
        let head = SnapshotHead {
            epoch: self.epoch,
            wal_offset: d.wal.len(),
            rebuilds: self.rebuilds,
        };
        let labeling = &self.labeling;
        let labels = (0..self.base.n() as u32).map(|v| labeling.label(v));
        persist::write_snapshot(&d.dir, &head, &self.base, &self.delta, labels, fsync)
            .unwrap_or_else(|e| panic!("snapshot write failed: {e}"));
        persist::prune_snapshots(&d.dir, self.params.snapshots_kept)
            .unwrap_or_else(|e| panic!("snapshot prune failed: {e}"));
        self.obs.durable_snapshots.inc();
        d.commits_since_snapshot = 0;
    }

    /// Commit one normalized batch: absorb, maybe fold, publish, in that
    /// order. Returns the assigned epoch.
    fn commit(&mut self, edges: &[Edge]) -> Epoch {
        // Every stage of substance inside the `svc_commit_ns` span is
        // individually timed (dedup / absorb / fold / publish, plus WAL
        // append + fsync before this call), so the per-stage sums account
        // for the span's total — perfbench and `svc_driver` assert that
        // coverage. Publish is two intervals: noting the batch's
        // pre-absorb roots, and settling the merges + sealing the
        // snapshot + the ring push.
        let dedup = Instant::now();
        let fresh = self.base.dedup_new_edges(edges, &mut self.seen);
        self.obs.dedup_ns.observe_duration(dedup.elapsed());
        let notes = Instant::now();
        self.labeling.note_roots(&self.overlay, &fresh);
        let mut publish = notes.elapsed();
        if !fresh.is_empty() {
            let absorb = Instant::now();
            self.overlay.absorb_seq(&fresh);
            self.obs.absorb_ns.observe_duration(absorb.elapsed());
        }
        let settle = Instant::now();
        self.labeling.settle(&self.overlay);
        publish += settle.elapsed();
        self.delta.extend_from_slice(&fresh);
        if self.delta.len() >= self.params.rebuild_threshold {
            self.fold();
        }
        self.epoch += 1;
        let seal = Instant::now();
        let snapshot = Arc::new(self.labeling.snapshot(
            self.epoch,
            self.base.m(),
            self.delta.len(),
            self.rebuilds,
        ));
        let mut ring = self.published.write().expect("snapshot ring poisoned");
        ring.push_back(snapshot);
        while ring.len() > self.params.snapshot_history {
            ring.pop_front();
        }
        drop(ring);
        publish += seal.elapsed();
        self.obs.snapshot_publish_ns.observe_duration(publish);
        self.obs.commits.inc();
        self.epoch
    }

    /// The rebuild: merge the delta list into the base edge list in
    /// place, materialize the current labels as the new shared snapshot
    /// base (the only O(n) step of the commit path, once per
    /// `rebuild_threshold` distinct edges), and reset the delta segment
    /// and its dedup set. The service never holds two copies of its edges.
    fn fold(&mut self) {
        let _fold = logdiam_obs::span!(self.stats.obs, "svc_fold_ns", delta = self.delta.len());
        self.obs.folds.inc();
        self.base.fold(&mut self.delta);
        self.labeling.rebase(self.overlay.labels());
        debug_assert!(
            self.labeling.base() == unionfind_cc_edges(self.base.n(), self.base.edges()),
            "fold-time labels disagree with a from-scratch recompute"
        );
        self.delta.clear();
        self.rebuilds += 1;
        self.seen = PairSet::with_capacity(
            DELTA_DEDUP_SEED ^ self.rebuilds,
            self.params.rebuild_threshold,
        );
    }
}

/// Stringify a caught panic payload, record it as the writer's cause of
/// death (first panic wins), and return the error to poison tickets with.
fn mark_dead(stats: &SharedStats, payload: Box<dyn std::any::Any + Send>) -> WriterDead {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "writer panicked with a non-string payload".into());
    let err = WriterDead::new(msg);
    let mut dead = stats.dead.lock().expect("dead flag poisoned");
    if dead.is_none() {
        *dead = Some(err.clone());
    }
    err
}

/// The recorded cause of death (for commands dequeued after the writer
/// already died).
fn dead_error(stats: &SharedStats) -> WriterDead {
    stats
        .dead
        .lock()
        .expect("dead flag poisoned")
        .clone()
        .unwrap_or_else(|| WriterDead::new("writer thread terminated".into()))
}
