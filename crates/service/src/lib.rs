//! # `logdiam-svc` — an incremental connectivity service
//!
//! The subsystem in the workspace that owns *mutable* connectivity state.
//! Every other entry point is one-shot over a static CSR graph;
//! [`ConnectivityService`] instead maintains a component labeling under a
//! stream of batched edge insertions and answers connectivity queries
//! against published, immutable snapshots.
//!
//! Since PR 6 the service is **sharded and asynchronous** — three moving
//! parts behind one controller handle (full contract: `ARCHITECTURE.md`):
//!
//! * **A dedicated writer thread** owns the state. [`apply_batch`] only
//!   normalizes the batch, enqueues it on a bounded command channel
//!   ([`SvcParams::command_queue`] — a full channel blocks the caller:
//!   that is the backpressure), and returns an [`EpochTicket`] the caller
//!   can [`wait`](EpochTicket::wait) or [`poll`](EpochTicket::poll).
//!   The writer drains commands in FIFO order, so epoch assignment is
//!   totally ordered however many threads enqueue concurrently.
//! * **A sharded delta overlay** absorbs each batch: the resumable
//!   concurrent union–find ([`logdiam_par::UnionFind`]) is partitioned by
//!   vertex range into [`SvcParams::shard_count`] shards — intra-shard
//!   edges are absorbed with one pool task per shard, cross-shard unions
//!   are buffered per shard and drained by the writer in one pass per
//!   commit. Shard count is a pure performance knob: published labels are
//!   canonical min-vertex representatives, identical for every shard and
//!   thread count.
//! * **Folds**: when [`SvcParams::rebuild_threshold`] distinct new edges
//!   have accumulated, the commit *folds* them into the base edge list
//!   (an in-place merge at a deterministic commit) and makes the current
//!   labels the new snapshot base. The fold is the whole rebuild; no
//!   labeling is ever recomputed from scratch on the commit path.
//!
//! Queries stay wait-free throughout: every commit publishes an immutable
//! [`Snapshot`] (canonical labels plus a [`Spectrum`] of component
//! statistics) onto a bounded history ring
//! ([`SvcParams::snapshot_history`]); readers clone an `Arc` off the ring
//! and never touch the writer. Publishing costs O(batch + δ), not O(n):
//! snapshots share the labels materialized at the last fold and carry
//! only a remap of the at most `rebuild_threshold` roots merged since.
//!
//! Label canonicalization makes the service deterministic: for a fixed
//! replay (initial graph + batch sequence from one caller), every epoch's
//! labels are identical at any thread count and for any shard count.
//!
//! Since PR 7 the service can also be **durable**: opened on a
//! directory ([`ConnectivityService::create`] /
//! [`ConnectivityService::open`]), the writer appends every normalized
//! batch to a CRC32-checksummed write-ahead log *before* applying it and
//! periodically installs atomic epoch snapshots, so a crash — at any
//! point, including mid-append — recovers to a prefix of the committed
//! epochs that is bit-identical to the uninterrupted run. Writer-thread
//! death (a contained panic) is a typed error ([`WriterDead`]) on every
//! ticket and [`flush`](ConnectivityService::flush), never a hang.
//!
//! ```
//! use cc_graph::gen;
//! use logdiam_svc::{ConnectivityService, SvcParams};
//!
//! let svc = ConnectivityService::new(gen::path(10), SvcParams::default());
//! assert!(svc.query_latest(0, 9));
//! let ticket = svc.apply_batch(&[(3, 7), (2, 2)]); // enqueued; loop dropped
//! let epoch = ticket.wait().unwrap();               // block until committed
//! assert!(svc.query(0, 9, epoch).unwrap());
//! assert_eq!(svc.component_of(9), 0);
//! ```
//!
//! [`apply_batch`]: ConnectivityService::apply_batch

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod base;
mod persist;
mod service;
mod shard;
mod snapshot;
mod ticket;
mod wal;
mod writer;

pub use persist::{FsyncPolicy, PersistError};
pub use service::ConnectivityService;
pub use snapshot::{Snapshot, Spectrum};
pub use ticket::EpochTicket;

/// The workspace observability layer, re-exported so service callers can
/// name [`obs::MetricsSnapshot`] / [`obs::Registry`] (returned by
/// [`ConnectivityService::metrics`] / [`ConnectivityService::obs`])
/// without a separate dependency.
pub use logdiam_obs as obs;

/// An undirected edge request: endpoints in either order, self-loops
/// tolerated (and dropped).
pub type Edge = (u32, u32);

/// A monotone version number: epoch `e` is the state after the `e`-th
/// [`ConnectivityService::apply_batch`] commit (epoch 0 is the initial
/// graph). Epochs are assigned by the writer thread in dequeue order.
pub type Epoch = u64;

/// Tuning knobs for [`ConnectivityService`].
#[derive(Clone, Copy, Debug)]
pub struct SvcParams {
    /// Distinct new (not in the base graph, not previously absorbed)
    /// edges the delta overlay may accumulate before a commit folds them
    /// into the base edge list (default 4096).
    pub rebuild_threshold: usize,
    /// How many recent epoch snapshots stay addressable by
    /// [`ConnectivityService::query`]; older epochs are evicted
    /// ([`EpochError::Evicted`]). At least 1 (the latest snapshot is
    /// always kept).
    pub snapshot_history: usize,
    /// Vertex-range shards the overlay partitions each batch over:
    /// intra-shard absorption runs one pool task per shard; cross-shard
    /// unions are buffered and drained once per commit. Purely a
    /// performance knob — published labels are identical for any value
    /// (default 8).
    pub shard_count: usize,
    /// Capacity of the command channel between handles and the writer
    /// thread. [`ConnectivityService::apply_batch`] returns as soon as
    /// the batch is enqueued; once the writer falls this many commits
    /// behind, further calls block until a slot frees (bounded-memory
    /// backpressure instead of unbounded buffering; default 1024).
    pub command_queue: usize,
    /// When the durable layer fsyncs the write-ahead log (default
    /// [`FsyncPolicy::Always`]). Ignored by memory-only services
    /// ([`ConnectivityService::new`]).
    pub fsync: FsyncPolicy,
    /// Commits between durable epoch snapshots (default 256). A smaller
    /// cadence bounds recovery replay at the cost of snapshot I/O on the
    /// commit path. Ignored by memory-only services.
    pub snapshot_every: u64,
    /// Durable snapshots retained on disk (default 3, minimum 1). Older
    /// snapshots are recovery fallbacks when the newest one is corrupt;
    /// the genesis file is kept forever regardless, so full replay is
    /// always the last resort. Ignored by memory-only services.
    pub snapshots_kept: usize,
}

impl Default for SvcParams {
    fn default() -> Self {
        SvcParams {
            rebuild_threshold: 4096,
            snapshot_history: 8,
            shard_count: 8,
            command_queue: 1024,
            fsync: FsyncPolicy::Always,
            snapshot_every: 256,
            snapshots_kept: 3,
        }
    }
}

/// Why an epoch-addressed read could not be served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochError {
    /// The epoch has not been committed yet.
    Future {
        /// The epoch the caller asked for.
        requested: Epoch,
        /// The newest committed epoch.
        latest: Epoch,
    },
    /// The epoch fell out of the bounded snapshot history.
    Evicted {
        /// The epoch the caller asked for.
        requested: Epoch,
        /// The oldest epoch still retained.
        oldest: Epoch,
    },
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            EpochError::Future { requested, latest } => {
                write!(
                    f,
                    "epoch {requested} not yet committed (latest is {latest})"
                )
            }
            EpochError::Evicted { requested, oldest } => {
                write!(
                    f,
                    "epoch {requested} evicted from history (oldest retained is {oldest})"
                )
            }
        }
    }
}

impl std::error::Error for EpochError {}

/// The writer thread died (a panic on the commit path, contained by the
/// service), carrying the panic payload.
///
/// Once the writer is dead the service is read-only: every published
/// snapshot stays queryable, but every outstanding and future
/// [`EpochTicket`] resolves to this error and
/// [`ConnectivityService::flush`] returns it. Nothing blocks forever —
/// the dead writer keeps draining its command channel, poisoning tickets,
/// until the handles drop.
///
/// For durable services the writer treats storage failures (a WAL append
/// or snapshot write that errors) as fatal and panics: fail-stop, so a
/// service that cannot persist a batch never acknowledges it.
#[derive(Clone, Debug)]
pub struct WriterDead {
    payload: String,
}

impl WriterDead {
    pub(crate) fn new(payload: String) -> Self {
        WriterDead { payload }
    }

    /// The panic payload the writer died with (stringified).
    pub fn payload(&self) -> &str {
        &self.payload
    }
}

impl std::fmt::Display for WriterDead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "service writer thread died: {}", self.payload)
    }
}

impl std::error::Error for WriterDead {}
