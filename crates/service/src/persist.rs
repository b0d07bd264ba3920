//! Durable epoch snapshots, the genesis file, and the recovery state
//! machine.
//!
//! # Directory layout
//!
//! A durable service dir holds exactly three kinds of file:
//!
//! ```text
//! genesis.bin            the initial graph (written once at create time)
//! wal.bin                the write-ahead edge log (see crate::wal)
//! snap-<epoch>.bin       durable epoch snapshots, newest few retained
//! snap-<epoch>.bin.tmp   in-flight snapshot writes (deleted on recovery)
//! ```
//!
//! Snapshots are written to the `.tmp` name, fsynced, and atomically
//! renamed into place, so a crash mid-snapshot leaves either the old
//! file set or the new one — never a half-written snapshot under the
//! real name. Every file is CRC32-checksummed over its payload.
//!
//! # Streaming I/O
//!
//! No durable file is ever built or read as one buffer. Writers stream
//! the payload straight from the live state (the base edge list, the
//! delta, the labels) through an incremental CRC and patch the checksum
//! into the frame once the payload is out; readers stream the payload
//! into its final vectors, checksumming as they go, and accept the file
//! only if the checksum matches at the end. The service therefore holds
//! one copy of its edge list at every point of a snapshot write or a
//! recovery.
//!
//! # Recovery state machine
//!
//! [`recover`] rebuilds the newest provable state:
//!
//! 1. Validate `genesis.bin` and read its vertex count (hard error if
//!    missing or corrupt: without it the vertex count itself is
//!    unknown). Its edges are decoded only if step 3 falls back to them.
//! 2. Open the WAL, which scans its longest valid record prefix into an
//!    offset index and truncates any torn tail (see [`crate::wal`]).
//! 3. Walk snapshots newest-first. A snapshot is *usable* iff its
//!    checksum and shape validate, its base edge list is canonical and
//!    its delta is one the commit path could have written, **and** the
//!    WAL can extend it: the snapshot's recorded WAL offset must be a
//!    record boundary the scan actually reached
//!    ([`WalScan::boundary_after`]). A snapshot from a newer epoch than
//!    the surviving WAL covers is skipped — recovery falls back to an
//!    older snapshot or to genesis + full replay, never to a state the
//!    log cannot prove.
//!    (Exception: if the WAL has no valid records at all, the newest
//!    valid snapshot wins outright and the log is reset — an empty log
//!    extends any state.)
//! 4. Decode the WAL records beyond the chosen snapshot and replay them
//!    through the ordinary commit path.
//!
//! The result is always a prefix of the committed epochs: the newest
//! state the surviving bytes can prove, bit-identical (labels *and*
//! spectrum) to the uninterrupted run at that epoch.

use crate::base::{is_canonical, BaseEdges};
use crate::wal::{Crc32, Wal, WalRecord, WalScan, WAL_HEADER_LEN};
use crate::{Edge, Epoch};
use cc_graph::Graph;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const SNAP_MAGIC: &[u8; 8] = b"LDIAMSNP";
const GENESIS_MAGIC: &[u8; 8] = b"LDIAMGEN";
const FORMAT_VERSION: u32 = 1;

/// When the durable layer calls `fdatasync` on the write-ahead log.
///
/// The policy trades commit latency against the window of batches a
/// *power loss* can lose; an ordinary process crash (panic, OOM-kill,
/// `kill -9`) loses nothing under any policy, because appends go
/// straight to the file, not through a userspace buffer. Snapshot files
/// are always synced before their atomic rename (except under
/// [`FsyncPolicy::Off`]), so a snapshot can never name a WAL offset the
/// disk does not have.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Sync after every appended record: a fulfilled ticket means the
    /// batch survives power loss. The default.
    Always,
    /// Sync every `0`-th… no — sync once per this many appended records
    /// (and before every snapshot): bounded loss window, most of the
    /// throughput of `Off`.
    Batch(u32),
    /// Never sync: the OS flushes when it pleases. Survives process
    /// crashes, not power loss. The right choice for tests and for
    /// workloads that treat the WAL as best-effort.
    Off,
}

impl FsyncPolicy {
    /// Parse the `svc_driver --fsync` spellings: `always`, `batch`,
    /// `batch=N`, `off`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "off" => Some(FsyncPolicy::Off),
            "batch" => Some(FsyncPolicy::Batch(64)),
            _ => s
                .strip_prefix("batch=")
                .and_then(|n| n.parse().ok())
                .filter(|&n| n > 0)
                .map(FsyncPolicy::Batch),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Batch(n) => write!(f, "batch={n}"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// Why a durable directory could not be created or recovered.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A file that must be trusted (genesis, WAL header) failed
    /// validation, or no combination of snapshot + WAL can prove a
    /// state. Unlike a torn WAL tail — which recovery rolls back over
    /// silently — this is unrecoverable without operator action.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "durable store i/o error: {e}"),
            PersistError::Corrupt(msg) => write!(f, "durable store corrupt: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// The fixed-size head of a durable snapshot: the counters and the WAL
/// position that, with the base, delta and labels, resume the writer
/// *exactly* (same future dedup decisions, fold triggers, and spectrum
/// counters — not merely the same partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SnapshotHead {
    pub(crate) epoch: Epoch,
    /// WAL byte offset where the record for `epoch + 1` begins; the tail
    /// from here replays on top of this state.
    pub(crate) wal_offset: u64,
    pub(crate) rebuilds: u64,
}

/// A decoded durable snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SnapshotFile {
    pub(crate) head: SnapshotHead,
    /// Canonical edge list of the folded base.
    pub(crate) base_edges: Vec<Edge>,
    /// Distinct delta edges since the last fold, in arrival order (the
    /// order matters: the dedup seen-set is rebuilt by re-inserting
    /// them, and a future fold merges them in this order).
    pub(crate) delta: Vec<Edge>,
    /// The canonical min-vertex labels published at `epoch`.
    pub(crate) labels: Vec<u32>,
}

/// The state [`recover`] proved, ready to seed a writer.
pub(crate) struct Recovered {
    pub(crate) base: BaseEdges,
    pub(crate) delta: Vec<Edge>,
    /// `None` when recovery fell all the way back to genesis — the
    /// caller computes the initial labeling from scratch.
    pub(crate) labels: Option<Vec<u32>>,
    pub(crate) epoch: Epoch,
    pub(crate) rebuilds: u64,
    /// The open WAL, truncated to its valid prefix and positioned for
    /// appending.
    pub(crate) wal: Wal,
    /// Valid WAL records beyond the recovered epoch, to be replayed
    /// through the normal commit path.
    pub(crate) replay: Vec<WalRecord>,
}

pub(crate) fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.bin")
}

fn genesis_path(dir: &Path) -> PathBuf {
    dir.join("genesis.bin")
}

fn snapshot_path(dir: &Path, epoch: Epoch) -> PathBuf {
    dir.join(format!("snap-{epoch:020}.bin"))
}

fn corrupt(msg: &str) -> PersistError {
    PersistError::Corrupt(msg.into())
}

/// Bytes before the payload: magic, version, crc.
const FRAME_HEAD: u64 = 16;
/// Offset of the crc field in the frame.
const CRC_AT: u64 = 12;
/// Words encoded per buffered write or read.
const IO_WORDS: usize = 8192;
/// Buffer size of the streaming writers and readers.
const IO_BUF: usize = 1 << 16;

/// The payload side of a frame being written: every byte goes through
/// the running checksum on its way to the file.
struct FrameWriter {
    out: BufWriter<File>,
    crc: Crc32,
}

impl FrameWriter {
    fn put(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.crc.update(bytes);
        self.out.write_all(bytes)
    }

    fn u32(&mut self, x: u32) -> std::io::Result<()> {
        self.put(&x.to_le_bytes())
    }

    fn u64(&mut self, x: u64) -> std::io::Result<()> {
        self.put(&x.to_le_bytes())
    }

    /// `u32` words, encoded a block at a time.
    fn words(&mut self, words: impl Iterator<Item = u32>) -> std::io::Result<()> {
        let mut buf = vec![0u8; 4 * IO_WORDS];
        let mut len = 0;
        for w in words {
            buf[len..len + 4].copy_from_slice(&w.to_le_bytes());
            len += 4;
            if len == buf.len() {
                self.put(&buf)?;
                len = 0;
            }
        }
        self.put(&buf[..len])
    }

    fn edges(&mut self, edges: impl Iterator<Item = Edge>) -> std::io::Result<()> {
        self.words(edges.flat_map(|(u, v)| [u, v]))
    }
}

/// `[magic 8][version u32][crc u32][payload]` — the frame shared by the
/// genesis and snapshot files. `payload` streams the body through a
/// [`FrameWriter`]; the crc field is written as a placeholder and patched
/// once the payload is out.
fn write_framed(
    path: &Path,
    magic: &[u8; 8],
    fsync: bool,
    payload: impl FnOnce(&mut FrameWriter) -> std::io::Result<()>,
) -> Result<(), PersistError> {
    let mut out = BufWriter::with_capacity(IO_BUF, File::create(path)?);
    out.write_all(magic)?;
    out.write_all(&FORMAT_VERSION.to_le_bytes())?;
    out.write_all(&0u32.to_le_bytes())?;
    let mut w = FrameWriter {
        out,
        crc: Crc32::new(),
    };
    payload(&mut w)?;
    let FrameWriter { mut out, crc } = w;
    out.seek(SeekFrom::Start(CRC_AT))?;
    out.write_all(&crc.finish().to_le_bytes())?;
    let file = out.into_inner().map_err(|e| e.into_error())?;
    if fsync {
        file.sync_all()?;
    }
    Ok(())
}

/// Bounds-checked little-endian reader over a framed file's payload,
/// checksumming as it reads. Parse failures are [`PersistError::Corrupt`];
/// the stored checksum is compared by [`finish`](FrameReader::finish).
struct FrameReader {
    inp: BufReader<File>,
    crc: Crc32,
    stored: u32,
    /// Payload bytes not yet read.
    left: u64,
}

impl FrameReader {
    /// Open `path` and check its magic and version (`None` if either is
    /// wrong or the file is shorter than a frame).
    fn open(path: &Path, magic: &[u8; 8]) -> Result<Option<Self>, PersistError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len < FRAME_HEAD {
            return Ok(None);
        }
        let mut inp = BufReader::with_capacity(IO_BUF, file);
        let mut head = [0u8; FRAME_HEAD as usize];
        inp.read_exact(&mut head)?;
        let version = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
        if &head[..8] != magic || version != FORMAT_VERSION {
            return Ok(None);
        }
        Ok(Some(FrameReader {
            inp,
            crc: Crc32::new(),
            stored: u32::from_le_bytes(head[12..16].try_into().expect("4 bytes")),
            left: len - FRAME_HEAD,
        }))
    }

    fn take(&mut self, buf: &mut [u8]) -> Result<(), PersistError> {
        if buf.len() as u64 > self.left {
            return Err(corrupt("payload truncated"));
        }
        self.inp.read_exact(buf)?;
        self.crc.update(buf);
        self.left -= buf.len() as u64;
        Ok(())
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        let mut b = [0u8; 4];
        self.take(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// `count` words, each `< bound`, handed to `sink` block by block.
    /// The count is checked against the bytes left first, so a corrupt
    /// count cannot drive a huge allocation.
    fn words(
        &mut self,
        count: u64,
        bound: usize,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<(), PersistError> {
        if count.checked_mul(4).is_none_or(|bytes| bytes > self.left) {
            return Err(corrupt("payload truncated"));
        }
        let mut buf = vec![0u8; 4 * IO_WORDS];
        let mut left = count as usize;
        while left > 0 {
            let k = left.min(IO_WORDS);
            let block = &mut buf[..4 * k];
            self.take(block)?;
            if block
                .chunks_exact(4)
                .any(|w| u32::from_le_bytes(w.try_into().expect("4")) as usize >= bound)
            {
                return Err(corrupt("id out of range"));
            }
            sink(block);
            left -= k;
        }
        Ok(())
    }

    /// `count` edges over `n` vertices, into a list with room for
    /// `spare` more.
    fn edge_list(&mut self, count: u64, n: usize, spare: usize) -> Result<Vec<Edge>, PersistError> {
        if count.checked_mul(8).is_none_or(|bytes| bytes > self.left) {
            return Err(corrupt("payload truncated"));
        }
        let mut edges = Vec::with_capacity(count as usize + spare);
        self.words(2 * count, n, |block| {
            edges.extend(block.chunks_exact(8).map(|c| {
                (
                    u32::from_le_bytes(c[..4].try_into().expect("4")),
                    u32::from_le_bytes(c[4..].try_into().expect("4")),
                )
            }))
        })?;
        Ok(edges)
    }

    /// Consume the rest of the payload through the checksum without
    /// keeping it.
    fn skip_rest(&mut self) -> Result<(), PersistError> {
        let mut buf = vec![0u8; IO_BUF];
        while self.left > 0 {
            let k = (self.left as usize).min(buf.len());
            self.take(&mut buf[..k])?;
        }
        Ok(())
    }

    /// The payload must be fully consumed and match its checksum.
    fn finish(self) -> Result<(), PersistError> {
        if self.left != 0 {
            return Err(corrupt("trailing bytes in payload"));
        }
        if self.crc.finish() != self.stored {
            return Err(corrupt("checksum mismatch"));
        }
        Ok(())
    }
}

/// Durability for the rename itself: fsync the directory so the new
/// name survives power loss. Ignored where directories cannot be opened
/// (non-POSIX filesystems) — the data file was already synced.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Write `genesis.bin` (create-time only; fails if present).
pub(crate) fn write_genesis(dir: &Path, g: &Graph, fsync: bool) -> Result<(), PersistError> {
    let path = genesis_path(dir);
    if path.exists() {
        return Err(PersistError::Corrupt(format!(
            "{} already exists — a durable dir is created once; use open() to restart",
            path.display()
        )));
    }
    write_framed(&path, GENESIS_MAGIC, fsync, |w| {
        w.u32(g.n() as u32)?;
        w.u64(g.m() as u64)?;
        w.edges(g.edges().iter().copied())
    })?;
    if fsync {
        sync_dir(dir);
    }
    Ok(())
}

/// Read and validate `genesis.bin`: its vertex count, plus its canonical
/// edge list when `decode` (only a full-replay fallback needs it; the
/// checksum is verified either way). Hard error when missing or corrupt:
/// nothing else records the vertex count, so nothing can be recovered
/// without it.
pub(crate) fn read_genesis(
    dir: &Path,
    decode: bool,
) -> Result<(usize, Option<Vec<Edge>>), PersistError> {
    let path = genesis_path(dir);
    let bad = |why: &str| PersistError::Corrupt(format!("{}: {why}", path.display()));
    let mut r = FrameReader::open(&path, GENESIS_MAGIC)?.ok_or_else(|| bad("bad genesis frame"))?;
    let parse = |r: &mut FrameReader| -> Result<(usize, Option<Vec<Edge>>), PersistError> {
        let n = r.u32()? as usize;
        let m = r.u64()?;
        let edges = if decode {
            let edges = r.edge_list(m, n, 0)?;
            if !is_canonical(&edges, n) {
                return Err(corrupt("genesis edges not canonical"));
            }
            Some(edges)
        } else {
            if m.checked_mul(8) != Some(r.left) {
                return Err(corrupt("edge count does not match the payload"));
            }
            r.skip_rest()?;
            None
        };
        Ok((n, edges))
    };
    let out = parse(&mut r).and_then(|out| r.finish().map(|()| out));
    out.map_err(|e| match e {
        PersistError::Corrupt(why) => bad(&why),
        io => io,
    })
}

/// Stream a snapshot of the live writer state into `snap-<epoch>.bin`
/// via temp file + atomic rename: the head, the base edge list, the
/// delta, then the `n` current labels, checksummed on the way out.
///
/// The head is four `u64`s: epoch, WAL offset, folds, and a reserved
/// slot. Stores written while the overlay was sharded kept their
/// cross-shard union count there; it is now written as 0 and skipped on
/// read, so those stores open unchanged under the same format version.
pub(crate) fn write_snapshot(
    dir: &Path,
    head: &SnapshotHead,
    base: &BaseEdges,
    delta: &[Edge],
    labels: impl ExactSizeIterator<Item = u32>,
    fsync: bool,
) -> Result<(), PersistError> {
    let final_path = snapshot_path(dir, head.epoch);
    let tmp_path = final_path.with_extension("bin.tmp");
    write_framed(&tmp_path, SNAP_MAGIC, fsync, |w| {
        w.u64(head.epoch)?;
        w.u64(head.wal_offset)?;
        w.u64(head.rebuilds)?;
        w.u64(0)?; // the reserved slot
        w.u32(labels.len() as u32)?;
        w.u64(base.m() as u64)?;
        w.edges(base.edges().iter().copied())?;
        w.u64(delta.len() as u64)?;
        w.edges(delta.iter().copied())?;
        w.words(labels)
    })?;
    std::fs::rename(&tmp_path, &final_path)?;
    if fsync {
        sync_dir(dir);
    }
    Ok(())
}

/// Decode one snapshot file; `Ok(None)` when it fails any validation —
/// frame, checksum, shape, a non-canonical base edge list, or labels that
/// are not canonical minima (recovery skips it and falls back). The base
/// edge list is allocated with room for `spare` more edges, so the folds
/// of the replay that follows grow it in place: a reallocation there
/// would briefly hold two copies of the base, and the reopen sets the
/// process's peak RSS.
pub(crate) fn read_snapshot(
    path: &Path,
    n: usize,
    spare: usize,
) -> Result<Option<SnapshotFile>, PersistError> {
    let Some(mut r) = FrameReader::open(path, SNAP_MAGIC)? else {
        return Ok(None);
    };
    let parse = |r: &mut FrameReader| -> Result<SnapshotFile, PersistError> {
        let head = SnapshotHead {
            epoch: r.u64()?,
            wal_offset: r.u64()?,
            rebuilds: r.u64()?,
        };
        r.u64()?; // the reserved slot (see `write_snapshot`): any value
        if r.u32()? as usize != n {
            return Err(corrupt("n mismatch"));
        }
        let base_count = r.u64()?;
        let base_edges = r.edge_list(base_count, n, spare)?;
        if !is_canonical(&base_edges, n) {
            return Err(corrupt("base edges not canonical"));
        }
        let delta_count = r.u64()?;
        let delta = r.edge_list(delta_count, n, 0)?;
        let mut labels = Vec::with_capacity(n);
        r.words(n as u64, n.max(1), |block| {
            labels.extend(
                block
                    .chunks_exact(4)
                    .map(|w| u32::from_le_bytes(w.try_into().expect("4"))),
            )
        })?;
        let canonical = labels
            .iter()
            .enumerate()
            .all(|(v, &l)| l as usize <= v && labels[l as usize] == l);
        if !canonical {
            return Err(corrupt("labels are not canonical minima"));
        }
        Ok(SnapshotFile {
            head,
            base_edges,
            delta,
            labels,
        })
    };
    match parse(&mut r).and_then(|snap| r.finish().map(|()| snap)) {
        Ok(snap) => Ok(Some(snap)),
        Err(PersistError::Corrupt(_)) => Ok(None),
        Err(io) => Err(io),
    }
}

/// Snapshot files present in `dir`, newest epoch first. The zero-padded
/// name encodes the epoch; files that do not parse are ignored.
pub(crate) fn list_snapshots(dir: &Path) -> Result<Vec<(Epoch, PathBuf)>, PersistError> {
    let mut snaps = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|s| s.to_str()) else {
            continue;
        };
        if let Some(num) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".bin"))
        {
            if let Ok(epoch) = num.parse::<Epoch>() {
                snaps.push((epoch, path));
            }
        }
    }
    snaps.sort_unstable_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
    Ok(snaps)
}

/// Delete all but the newest `keep` snapshots (and any stale `.tmp`
/// leftovers from interrupted writes). Deletion failures are ignored —
/// an undeletable old snapshot costs disk, not correctness.
pub(crate) fn prune_snapshots(dir: &Path, keep: usize) -> Result<(), PersistError> {
    for (_, path) in list_snapshots(dir)?.into_iter().skip(keep.max(1)) {
        let _ = std::fs::remove_file(path);
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(())
}

/// The recovery state machine (see the module docs): genesis, WAL scan,
/// newest usable snapshot, replay tail.
pub(crate) fn recover(dir: &Path) -> Result<Recovered, PersistError> {
    let (n, _) = read_genesis(dir, false)?;
    let (mut wal, scan) = Wal::open(&wal_path(dir), n)?;
    // Newest-first: the first snapshot the WAL can extend wins.
    for (epoch, path) in list_snapshots(dir)? {
        let Some(snap) = read_snapshot(&path, n, scan.edges_after(epoch))? else {
            continue; // corrupt snapshot: fall back to an older one
        };
        debug_assert_eq!(snap.head.epoch, epoch);
        let mut head = snap.head;
        // An empty log extends any state; otherwise the snapshot must end
        // on a record boundary the scan reached (a snapshot from a newer
        // epoch than the surviving log covers cannot be proven).
        if !scan.records.is_empty() && scan.boundary_after(head.epoch) != Some(head.wal_offset) {
            continue;
        }
        let base = BaseEdges::new(n, snap.base_edges);
        if !base.accepts_delta(&snap.delta) {
            continue; // checksum-valid but not a state the writer writes
        }
        let replay = if scan.records.is_empty() {
            // No log survives; the newest intact snapshot is the best
            // provable state. Reset the log so future records extend it,
            // and rewrite the snapshot's WAL offset to match the reset
            // log — otherwise a *second* recovery would find a snapshot
            // whose stored offset points into the discarded log and
            // wrongly skip it.
            wal.reset()?;
            if head.wal_offset != WAL_HEADER_LEN {
                head.wal_offset = WAL_HEADER_LEN;
                let labels = snap.labels.iter().copied();
                write_snapshot(dir, &head, &base, &snap.delta, labels, true)?;
            }
            Vec::new()
        } else {
            wal.read_tail(&scan, head.epoch)?
        };
        return Ok(Recovered {
            base,
            delta: snap.delta,
            labels: Some(snap.labels),
            epoch: head.epoch,
            rebuilds: head.rebuilds,
            wal,
            replay,
        });
    }
    genesis_replay(dir, n, wal, &scan)
}

/// The last resort: genesis + full replay. Only sound if the log
/// actually starts at epoch 1 — after a log reset it will not, and losing
/// *both* the post-reset snapshots and the pre-reset log is
/// unrecoverable.
fn genesis_replay(
    dir: &Path,
    n: usize,
    mut wal: Wal,
    scan: &WalScan,
) -> Result<Recovered, PersistError> {
    if let Some(first) = scan.records.first() {
        if first.epoch != 1 {
            return Err(PersistError::Corrupt(format!(
                "no usable snapshot and the WAL starts at epoch {} (full replay needs epoch 1)",
                first.epoch
            )));
        }
    }
    let (_, edges) = read_genesis(dir, true)?;
    let replay = wal.read_tail(scan, 0)?;
    Ok(Recovered {
        base: BaseEdges::new(n, edges.expect("decoded genesis")),
        delta: Vec::new(),
        labels: None,
        epoch: 0,
        rebuilds: 0,
        wal,
        replay,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::gen;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("logdiam_persist_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn head(epoch: Epoch, wal_offset: u64) -> SnapshotHead {
        SnapshotHead {
            epoch,
            wal_offset,
            rebuilds: 1,
        }
    }

    #[test]
    fn genesis_roundtrip_and_double_create_rejected() {
        let dir = tmpdir("genesis");
        let g = gen::union_all(&[gen::path(6), gen::star(4)]);
        write_genesis(&dir, &g, false).unwrap();
        let (n, edges) = read_genesis(&dir, true).unwrap();
        assert_eq!(n, g.n());
        assert_eq!(edges.as_deref(), Some(g.edges()));
        // Validation alone checks the same checksum without decoding.
        assert_eq!(read_genesis(&dir, false).unwrap(), (g.n(), None));
        assert!(matches!(
            write_genesis(&dir, &g, false),
            Err(PersistError::Corrupt(_))
        ));
        // A flipped payload byte is caught in both modes.
        let path = genesis_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        for decode in [false, true] {
            assert!(matches!(
                read_genesis(&dir, decode),
                Err(PersistError::Corrupt(_))
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The streamed frame is byte-identical to the one-buffer layout
    /// `[magic][version][crc32(payload)][payload]`, so stores written
    /// before and after streaming read the same.
    #[test]
    fn streamed_snapshot_bytes_match_the_buffered_layout() {
        let dir = tmpdir("layout");
        let base: Vec<Edge> = (0..5000u32).map(|i| (i, i + 1)).collect();
        let delta = vec![(7, 5001), (3, 4000)];
        let labels: Vec<u32> = vec![0; 5002];
        let store = BaseEdges::new(5002, base.clone());
        write_snapshot(
            &dir,
            &head(9, 40),
            &store,
            &delta,
            labels.iter().copied(),
            false,
        )
        .unwrap();
        let mut payload = Vec::new();
        for x in [9u64, 40, 1, 0] {
            payload.extend_from_slice(&x.to_le_bytes());
        }
        payload.extend_from_slice(&5002u32.to_le_bytes());
        for list in [&base, &delta] {
            payload.extend_from_slice(&(list.len() as u64).to_le_bytes());
            for &(u, v) in list.iter() {
                payload.extend_from_slice(&u.to_le_bytes());
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
        for &l in &labels {
            payload.extend_from_slice(&l.to_le_bytes());
        }
        let mut want = SNAP_MAGIC.to_vec();
        want.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        want.extend_from_slice(&crate::wal::crc32(&payload).to_le_bytes());
        want.extend_from_slice(&payload);
        assert_eq!(std::fs::read(snapshot_path(&dir, 9)).unwrap(), want);
        let snap = read_snapshot(&snapshot_path(&dir, 9), 5002, 0)
            .unwrap()
            .unwrap();
        assert_eq!((snap.base_edges, snap.delta), (base, delta));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_roundtrip_listing_and_pruning() {
        let dir = tmpdir("snap");
        for epoch in [3u64, 12, 7] {
            let labels = [0u32, 0, 0, 3];
            let h = head(epoch, 16 + epoch);
            let base = BaseEdges::new(4, vec![(0, 1)]);
            write_snapshot(&dir, &h, &base, &[(1, 2)], labels.into_iter(), false).unwrap();
        }
        let listed = list_snapshots(&dir).unwrap();
        let epochs: Vec<_> = listed.iter().map(|&(e, _)| e).collect();
        assert_eq!(epochs, vec![12, 7, 3]);
        let snap = read_snapshot(&listed[1].1, 4, 0).unwrap().unwrap();
        assert_eq!(snap.head, head(7, 23));
        assert_eq!(snap.delta, vec![(1, 2)]);
        assert_eq!(snap.labels, vec![0, 0, 0, 3]);
        prune_snapshots(&dir, 2).unwrap();
        let epochs: Vec<_> = list_snapshots(&dir)
            .unwrap()
            .iter()
            .map(|&(e, _)| e)
            .collect();
        assert_eq!(epochs, vec![12, 7]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_reads_as_none_not_error() {
        let dir = tmpdir("corrupt");
        let empty = BaseEdges::new(2, Vec::new());
        write_snapshot(
            &dir,
            &head(5, 40),
            &empty,
            &[],
            [0u32, 1].into_iter(),
            false,
        )
        .unwrap();
        let path = snapshot_path(&dir, 5);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&path, 2, 0).unwrap().is_none());
        // Wrong n is also a skip, not a hard error.
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&path, 3, 0).unwrap().is_none());
        // So is a checksum-valid snapshot whose labels are not minima.
        write_snapshot(
            &dir,
            &head(5, 40),
            &empty,
            &[],
            [1u32, 1].into_iter(),
            false,
        )
        .unwrap();
        assert!(read_snapshot(&path, 2, 0).unwrap().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_policy_parses_driver_spellings() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("off"), Some(FsyncPolicy::Off));
        assert_eq!(FsyncPolicy::parse("batch"), Some(FsyncPolicy::Batch(64)));
        assert_eq!(FsyncPolicy::parse("batch=7"), Some(FsyncPolicy::Batch(7)));
        assert_eq!(FsyncPolicy::parse("batch=0"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::Batch(7).to_string(), "batch=7");
    }
}
