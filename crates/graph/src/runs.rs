//! Streaming edge-run storage and k-way parallel run merge.
//!
//! A naive construction path materializes every pushed edge in one
//! unsorted `Vec<(u32, u32)>`, then sorts and deduplicates it in place —
//! a transient 2× footprint (unsorted list + CSR) that becomes the binding
//! memory constraint at n ≥ 1e7. This module replaces that with a
//! *streaming* discipline:
//!
//! * [`EdgeRunStore`] accepts edges one at a time (canonicalizing to
//!   `(min, max)` and dropping self-loops on the way in) into a bounded
//!   buffer of *packed keys* `u << 32 | v`, whose `u64` order is the
//!   edges' `(u, v)` order. Whenever the buffer reaches the run capacity
//!   it is *sealed*: with more than one pool thread and at least
//!   `MIN_PARALLEL_MERGE` keys, the buffer is cut into one contiguous
//!   piece per thread, each piece is sorted and deduplicated in place on
//!   the pool, and the pieces are merged into a fresh exact-size run;
//!   smaller buffers and 1-thread pools sort in one piece. The buffer is
//!   then cleared and reused, so the store only ever holds sorted
//!   duplicate-free runs plus one bounded open buffer.
//! * [`merge_sorted_runs`] turns the sealed runs into the single sorted
//!   duplicate-free canonical edge list by a k-way merge. The key space is
//!   partitioned into contiguous chunks (splitters sampled from the
//!   largest run, sub-ranges located by binary search in every run). The
//!   output is allocated once, on the calling thread; each chunk owns the
//!   slice of it its sub-ranges add up to, and merges them straight into
//!   that slice on the rayon pool through a loser tree over packed keys.
//!   Because equal keys always land in the same chunk, streamwise dedup
//!   inside a chunk is exact; the gaps its dropped duplicates leave are
//!   closed afterwards by sliding each chunk down, and the output is
//!   truncated. The output — the sorted set union of the runs — is
//!   independent of chunk boundaries and thread count, so the result is
//!   deterministic at any `RAYON_NUM_THREADS`. A 1-thread pool or a small
//!   input is the same code with one chunk.
//!
//! **No chunk-sized scratch on pool workers.** Everything whose size
//! grows with the input — sealed runs, the merge output, each chunk's
//! cursors and loser tree — is allocated by the calling thread; workers
//! sort in place and write into slices they are handed. The reason is
//! measured: what a build leaves in the malloc heap decides whether the
//! large allocations that follow it reuse resident pages. A variant that
//! merged each chunk with `slice::sort` into ≈ 10 MB of per-chunk scratch
//! allocated on the workers was faster in isolation, but afterwards every
//! `unionfind_cc` call on a 10⁷-vertex grid took ≈ 9 800 minor page
//! faults (0 before) and ran 15–30 % slower. The only worker-side
//! allocations left are a spilled run's bounded read buffer and the
//! pool's one-word result per chunk.
//!
//! **Exhaustion.** A loser tree marks an exhausted cursor with the key
//! `u64::MAX`, which is also the key of the edge `(u32::MAX, u32::MAX)`.
//! That edge can only reach [`merge_sorted_runs`] from a caller (the
//! store drops self-loops), and only as the last edge of a run, so a
//! chunk merge stops at the first `u64::MAX` winner and compares the
//! keys it took with the keys its cursors held: any left over are that
//! edge, written once.
//!
//! Peak bytes during a build are therefore ≈ (sealed runs, which total at
//! most the deduplicated pushed edges) + (the merged list being written),
//! instead of (full unsorted push list) + (sorted copy). The run capacity
//! is a host-memory knob only — it never changes the resulting graph.
//!
//! **Out-of-core mode**: with spill enabled
//! ([`RUN_SPILL_ENV`] or [`EdgeRunStore::set_spill_dir`]), sealed runs are
//! written to disk as fixed-width 8-byte little-endian records in
//! *unlinked* temp files (the fd keeps the data alive; nothing is left
//! behind on any exit path), and the final merge streams them back through
//! bounded read buffers into the same chunked loser-tree merge. Peak build
//! memory then drops to ≈ (one open run buffer and the run being sealed
//! from it) + (merge read buffers) + (the merged list being written) —
//! the sealed-run mass moves to disk. The merge output is the sorted set
//! union either way, so spilling is bit-identical to in-memory building,
//! at any thread count.

use rayon::prelude::*;
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default run capacity (edges per sealed run): 2^21 edges = 16 MiB per
/// run buffer. Large enough that sort/seal overhead is negligible, small
/// enough that the open buffer never dominates the peak.
pub const DEFAULT_RUN_EDGES: usize = 1 << 21;

/// Environment variable overriding [`DEFAULT_RUN_EDGES`] (min 1). A host
/// memory/perf knob for `bench_report` sweeps; the built graph is
/// identical for every value.
pub const RUN_EDGES_ENV: &str = "LOGDIAM_RUN_EDGES";

/// Below this many edges a pooled seal or a chunked parallel merge is
/// pure overhead; sort or merge in one piece instead.
const MIN_PARALLEL_MERGE: usize = 1 << 15;

/// The run capacity currently in effect (env override or default).
pub fn run_capacity() -> usize {
    std::env::var(RUN_EDGES_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|v| v.max(1))
        .unwrap_or(DEFAULT_RUN_EDGES)
}

/// Environment variable enabling run spill: unset, empty, or `0` = off;
/// `1` = spill to the system temp dir; anything else = spill to that
/// directory. A host-memory knob only — the built graph is identical.
pub const RUN_SPILL_ENV: &str = "LOGDIAM_RUN_SPILL";

/// Edge pairs per file-read buffer while merging spilled runs: 2^14 pairs
/// = 128 KiB per cursor, large enough to amortize syscalls, small enough
/// that even dozens of concurrent cursors stay in cache-level memory.
const FILE_BUF_PAIRS: usize = 1 << 14;

/// The spill directory currently requested by [`RUN_SPILL_ENV`] (`None` =
/// spill off).
pub fn spill_dir_from_env() -> Option<PathBuf> {
    match std::env::var(RUN_SPILL_ENV) {
        Err(_) => None,
        Ok(v) if v.is_empty() || v == "0" => None,
        Ok(v) if v == "1" => Some(std::env::temp_dir()),
        Ok(v) => Some(PathBuf::from(v)),
    }
}

/// Process-wide spill traffic counters (monotonic), so a driver can delta
/// around a build it doesn't own the store of: `(runs spilled, bytes
/// written)`.
static SPILLED_RUNS: AtomicU64 = AtomicU64::new(0);
static SPILL_BYTES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide spill counters: `(runs, bytes)` written
/// to spill files since process start.
pub fn spill_counters() -> (u64, u64) {
    (
        SPILLED_RUNS.load(Ordering::Relaxed),
        SPILL_BYTES.load(Ordering::Relaxed),
    )
}

/// The sort key of edge `(u, v)`: `u64` order on keys is `(u, v)` order
/// on edges.
#[inline]
fn pack(u: u32, v: u32) -> u64 {
    (u as u64) << 32 | v as u64
}

/// The edge whose [`pack`] is `key`.
#[inline]
fn unpack(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// The key of one 8-byte little-endian `(u, v)` spill record.
fn record_key(rec: &[u8]) -> u64 {
    pack(
        u32::from_le_bytes(rec[0..4].try_into().expect("4-byte endpoint")),
        u32::from_le_bytes(rec[4..8].try_into().expect("4-byte endpoint")),
    )
}

/// A sealed run spilled to disk: `len` sorted duplicate-free edges as
/// 8-byte LE `(u, v)` records in an *unlinked* file (deleted from the
/// directory the moment it is written — the open fd is the only thing
/// keeping the bytes, so every exit path cleans up).
struct FileRun {
    file: File,
    len: usize,
}

impl FileRun {
    /// Spill `edges` into a fresh unlinked file under `dir`.
    fn write(edges: &[(u32, u32)], dir: &Path) -> FileRun {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("spill dir {} unusable: {e}", dir.display()));
        let name = format!(
            "logdiam-run-{}-{}.spill",
            std::process::id(),
            NEXT_ID.fetch_add(1, Ordering::Relaxed)
        );
        let path = dir.join(name);
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("spill file {} create failed: {e}", path.display()));
        // Unlink immediately: the handle keeps the run readable, and the
        // kernel reclaims the space whenever the store (or process) dies.
        std::fs::remove_file(&path)
            .unwrap_or_else(|e| panic!("spill file {} unlink failed: {e}", path.display()));
        let mut w = std::io::BufWriter::with_capacity(1 << 20, &file);
        for &(u, v) in edges {
            w.write_all(&u.to_le_bytes()).expect("spill write failed");
            w.write_all(&v.to_le_bytes()).expect("spill write failed");
        }
        w.flush().expect("spill flush failed");
        drop(w);
        SPILLED_RUNS.fetch_add(1, Ordering::Relaxed);
        SPILL_BYTES.fetch_add(edges.len() as u64 * 8, Ordering::Relaxed);
        FileRun {
            file,
            len: edges.len(),
        }
    }

    /// Random-access read of record `i`'s key (used by the splitter
    /// binary search — O(log len) such reads per splitter, negligible
    /// next to streaming).
    fn key(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        let mut rec = [0u8; 8];
        self.file
            .read_exact_at(&mut rec, i as u64 * 8)
            .expect("spill read failed");
        record_key(&rec)
    }

    /// Bulk read of records `[start, end)` into `bytes` (replacing its
    /// contents).
    fn read_into(&self, start: usize, end: usize, bytes: &mut Vec<u8>) {
        debug_assert!(start <= end && end <= self.len);
        bytes.resize((end - start) * 8, 0);
        self.file
            .read_exact_at(bytes, start as u64 * 8)
            .expect("spill read failed");
    }

    fn to_vec(&self) -> Vec<(u32, u32)> {
        let mut bytes = Vec::new();
        self.read_into(0, self.len, &mut bytes);
        bytes
            .chunks_exact(8)
            .map(|rec| unpack(record_key(rec)))
            .collect()
    }
}

impl std::fmt::Debug for FileRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileRun").field("len", &self.len).finish()
    }
}

/// One sealed (sorted, duplicate-free) run, in memory or spilled.
#[derive(Debug)]
enum SealedRun {
    Mem(Vec<(u32, u32)>),
    File(FileRun),
}

/// Bounded-buffer store of canonicalized edges as sorted deduplicated
/// runs. See the module docs for the memory discipline.
#[derive(Debug)]
pub struct EdgeRunStore {
    /// Range bound for pushed endpoints (`None` = unbounded, track max).
    bound: Option<u32>,
    /// Largest endpoint seen (unbounded mode; `None` until the first push).
    max_id: Option<u32>,
    /// Edges per sealed run.
    run_capacity: usize,
    /// Spill directory (`None` = sealed runs stay in memory).
    spill: Option<PathBuf>,
    /// The open (unsorted) buffer, as packed keys.
    buf: Vec<u64>,
    /// Sealed runs: each sorted and duplicate-free.
    runs: Vec<SealedRun>,
    /// Loop-surviving pushes (pre-dedup), for `raw_edge_count` semantics.
    pushed: usize,
    /// Bytes this store has written to spill files.
    spill_bytes: u64,
}

impl Clone for EdgeRunStore {
    /// Cloning a store with spilled runs reads them back into memory (the
    /// clone path is host bookkeeping on small stores; big out-of-core
    /// builds never clone mid-stream).
    fn clone(&self) -> Self {
        EdgeRunStore {
            bound: self.bound,
            max_id: self.max_id,
            run_capacity: self.run_capacity,
            spill: self.spill.clone(),
            buf: self.buf.clone(),
            runs: self
                .runs
                .iter()
                .map(|r| match r {
                    SealedRun::Mem(v) => SealedRun::Mem(v.clone()),
                    SealedRun::File(f) => SealedRun::Mem(f.to_vec()),
                })
                .collect(),
            pushed: self.pushed,
            spill_bytes: self.spill_bytes,
        }
    }
}

impl EdgeRunStore {
    /// Store for edges on vertices `0..n` (out-of-range pushes panic),
    /// with the ambient run capacity ([`run_capacity`]) and the ambient
    /// spill setting ([`RUN_SPILL_ENV`]).
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "vertex count too large");
        Self::with_run_capacity(Some(n as u32), run_capacity())
    }

    /// Store with no upper vertex bound: the needed vertex count is
    /// discovered from the stream (see [`EdgeRunStore::max_id`]). Used by
    /// the text loader, where ids precede any `# nodes:` knowledge.
    pub fn unbounded() -> Self {
        Self::with_run_capacity(None, run_capacity())
    }

    /// Explicit run capacity (tests and sweeps; `cap ≥ 1`). Spill follows
    /// [`RUN_SPILL_ENV`]; override with [`EdgeRunStore::set_spill_dir`].
    pub fn with_run_capacity(bound: Option<u32>, cap: usize) -> Self {
        let cap = cap.max(1);
        EdgeRunStore {
            bound,
            max_id: None,
            run_capacity: cap,
            spill: spill_dir_from_env(),
            buf: Vec::new(),
            runs: Vec::new(),
            pushed: 0,
            spill_bytes: 0,
        }
    }

    /// Pre-size the open buffer for about `m` edges, capped at the run
    /// capacity: the buffer is reused across seals, so it never needs
    /// more.
    pub fn reserve(&mut self, m: usize) {
        self.buf.reserve_exact(m.min(self.run_capacity));
    }

    /// Set (or clear) the spill directory programmatically, overriding
    /// the [`RUN_SPILL_ENV`] default. Affects runs sealed *after* the
    /// call; already-sealed runs keep their representation (mixing is
    /// fine — the merge handles both).
    pub fn set_spill_dir(&mut self, dir: Option<PathBuf>) {
        self.spill = dir;
    }

    /// Sealed runs currently spilled to disk.
    pub fn spilled_runs(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| matches!(r, SealedRun::File(_)))
            .count()
    }

    /// Bytes this store has written to spill files (monotonic).
    pub fn spill_bytes(&self) -> u64 {
        self.spill_bytes
    }

    /// Push one undirected edge: self-loops are dropped, endpoints
    /// canonicalized to `(min, max)`. O(1) amortized; seals a run when
    /// the open buffer fills.
    #[inline]
    pub fn push(&mut self, u: u32, v: u32) {
        if let Some(b) = self.bound {
            assert!(u < b && v < b, "edge ({u},{v}) out of range");
        } else {
            let hi = u.max(v);
            self.max_id = Some(self.max_id.map_or(hi, |m| m.max(hi)));
        }
        if u == v {
            return;
        }
        self.pushed += 1;
        if self.buf.capacity() == 0 {
            // First edge: size the buffer lazily so empty stores stay free.
            self.buf.reserve(self.run_capacity.min(1 << 10));
        }
        self.buf.push(pack(u.min(v), u.max(v)));
        if self.buf.len() >= self.run_capacity {
            self.seal();
        }
    }

    /// Loop-surviving pushes so far (duplicates included).
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Largest endpoint pushed in unbounded mode (`None` when bounded or
    /// no edges yet).
    pub fn max_id(&self) -> Option<u32> {
        self.max_id
    }

    /// Sort + dedup the open buffer into a sealed run (spilled to disk
    /// when a spill directory is set), then clear the buffer for the next
    /// run.
    fn seal(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let run = sort_dedup(&mut self.buf);
        self.buf.clear();
        match &self.spill {
            Some(dir) => {
                let fr = FileRun::write(&run, dir);
                self.spill_bytes += fr.len as u64 * 8;
                self.runs.push(SealedRun::File(fr));
            }
            None => self.runs.push(SealedRun::Mem(run)),
        }
    }

    /// Finish: merge all runs into the sorted duplicate-free canonical
    /// edge list.
    pub fn into_sorted_edges(mut self) -> Vec<(u32, u32)> {
        self.seal();
        // Free the open buffer before the merge allocates its output.
        self.buf = Vec::new();
        if let [SealedRun::Mem(run)] = self.runs.as_mut_slice() {
            return std::mem::take(run);
        }
        // Runs that never spilled merge as plain slices. Routing them
        // through `RunCursor` merges as fast, but in 3 of 8 measured
        // 10⁷-vertex grid builds it left a malloc heap on which every
        // later `unionfind_cc` call took 9 764 extra minor faults.
        let mem: Option<Vec<&[(u32, u32)]>> = self
            .runs
            .iter()
            .map(|r| match r {
                SealedRun::Mem(v) => Some(v.as_slice()),
                SealedRun::File(_) => None,
            })
            .collect();
        match mem {
            Some(slices) => merge_sorted_runs(&slices),
            None => merge_runs(&self.runs.iter().collect::<Vec<_>>()),
        }
    }
}

/// Sort and dedup `keys` in place — on the pool, one contiguous piece per
/// thread, when the pool has more than one thread and there are at least
/// [`MIN_PARALLEL_MERGE`] keys; in one piece otherwise — then merge the
/// pieces into a fresh sorted duplicate-free run of edges.
fn sort_dedup(keys: &mut [u64]) -> Vec<(u32, u32)> {
    let pieces = if keys.len() < MIN_PARALLEL_MERGE {
        1
    } else {
        rayon::current_num_threads()
    };
    let pieces: Vec<&[u64]> = keys
        .chunks_mut(keys.len().div_ceil(pieces))
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(sort_dedup_piece)
        .collect();
    merge_runs(&pieces)
}

/// Sort `piece` and dedup it in place, returning its duplicate-free
/// prefix.
fn sort_dedup_piece(piece: &mut [u64]) -> &[u64] {
    piece.sort_unstable();
    let mut len = usize::from(!piece.is_empty());
    for i in 1..piece.len() {
        if piece[i] != piece[len - 1] {
            piece[len] = piece[i];
            len += 1;
        }
    }
    &piece[..len]
}

/// Merge sorted duplicate-free edge runs into one sorted duplicate-free
/// list (the set union), deduplicating across runs streamwise.
///
/// Deterministic for any thread count and any partition of the input into
/// runs: the output is a pure function of the union. Parallelism comes
/// from partitioning the *key space* (not the runs), so each chunk of the
/// output is produced by exactly one task; equal keys cannot straddle a
/// chunk boundary, which is what makes per-chunk dedup exact.
pub fn merge_sorted_runs(runs: &[&[(u32, u32)]]) -> Vec<(u32, u32)> {
    merge_runs(runs)
}

/// An element of an in-memory run: an edge, or an already packed key.
trait Key: Copy + Sync {
    fn key(self) -> u64;
}

impl Key for u64 {
    #[inline]
    fn key(self) -> u64 {
        self
    }
}

impl Key for (u32, u32) {
    #[inline]
    fn key(self) -> u64 {
        pack(self.0, self.1)
    }
}

/// A sorted duplicate-free run as the merge reads it: random access to
/// its keys for the splitter search, and cursors streaming the keys of a
/// sub-range for the chunk merges.
trait KeyRun: Sync {
    /// Cursor over the keys of a sub-range.
    type Cursor: Iterator<Item = u64> + Send;

    fn len(&self) -> usize;

    /// Key of element `i` (random access).
    fn key(&self, i: usize) -> u64;

    /// Cursor over the keys of elements `[start, end)`.
    fn cursor(&self, start: usize, end: usize) -> Self::Cursor;

    /// First index whose key is ≥ `key`, by binary search over
    /// [`KeyRun::key`].
    fn lower_bound(&self, key: u64) -> usize {
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key(mid) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

/// Cursor over the keys of an in-memory (sub-)slice.
struct SliceKeys<'a, T>(std::slice::Iter<'a, T>);

impl<T: Key> Iterator for SliceKeys<'_, T> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        self.0.next().map(|&e| e.key())
    }
}

impl<'a, T: Key> KeyRun for &'a [T] {
    type Cursor = SliceKeys<'a, T>;

    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    fn key(&self, i: usize) -> u64 {
        self[i].key()
    }

    fn cursor(&self, start: usize, end: usize) -> SliceKeys<'a, T> {
        let run: &'a [T] = self;
        SliceKeys(run[start..end].iter())
    }
}

impl<'a> KeyRun for &'a SealedRun {
    type Cursor = RunCursor<'a>;

    fn len(&self) -> usize {
        match self {
            SealedRun::Mem(v) => v.len(),
            SealedRun::File(f) => f.len,
        }
    }

    fn key(&self, i: usize) -> u64 {
        match self {
            SealedRun::Mem(v) => v[i].key(),
            SealedRun::File(f) => f.key(i),
        }
    }

    fn cursor(&self, start: usize, end: usize) -> RunCursor<'a> {
        match *self {
            SealedRun::Mem(v) => RunCursor::Mem(SliceKeys(v[start..end].iter())),
            SealedRun::File(run) => RunCursor::File {
                run,
                next: start,
                end,
                bytes: Vec::new(),
                pos: 0,
            },
        }
    }
}

/// Cursor over a sub-range of a sealed run: memory ranges borrow the
/// slice, file ranges refill a bounded buffer.
enum RunCursor<'a> {
    Mem(SliceKeys<'a, (u32, u32)>),
    File {
        run: &'a FileRun,
        /// Next record to read into `bytes`.
        next: usize,
        end: usize,
        /// The records read last (at most [`FILE_BUF_PAIRS`]), allocated
        /// on first read.
        bytes: Vec<u8>,
        /// Byte offset of the next record to yield within `bytes`.
        pos: usize,
    },
}

impl Iterator for RunCursor<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        match self {
            RunCursor::Mem(keys) => keys.next(),
            RunCursor::File {
                run,
                next,
                end,
                bytes,
                pos,
            } => {
                if *pos == bytes.len() {
                    if next == end {
                        return None;
                    }
                    let upto = (*end).min(*next + FILE_BUF_PAIRS);
                    run.read_into(*next, upto, bytes);
                    *next = upto;
                    *pos = 0;
                }
                *pos += 8;
                Some(record_key(&bytes[*pos - 8..*pos]))
            }
        }
    }
}

/// The one k-way merge, for every run representation: the sorted set
/// union of `runs` (each sorted and duplicate-free), as edges.
///
/// Splitters sampled from the largest run cut the key space into up to
/// `threads × 4` chunks (one with a 1-thread pool or under
/// [`MIN_PARALLEL_MERGE`] keys), every run is cut at each splitter by
/// binary search, and each chunk merges its sub-ranges straight into its
/// own slice of the output on the pool (see [`ChunkMerge`]).
fn merge_runs<R: KeyRun>(runs: &[R]) -> Vec<(u32, u32)> {
    let runs: Vec<&R> = runs.iter().filter(|r| r.len() > 0).collect();
    let total: usize = runs.iter().map(|r| r.len()).sum();
    let threads = rayon::current_num_threads();
    let nchunks = if threads <= 1 || total < MIN_PARALLEL_MERGE {
        1
    } else {
        (threads * 4).min(total / (MIN_PARALLEL_MERGE / 4))
    };

    // Sample chunk splitters from the largest run (it holds ≥ total/k of
    // the mass, so its quantiles balance the chunks well enough).
    let mut splitters: Vec<u64> = match runs.iter().max_by_key(|r| r.len()) {
        Some(largest) => (1..nchunks)
            .map(|c| largest.key(c * largest.len() / nchunks))
            .collect(),
        None => Vec::new(),
    };
    splitters.dedup();
    let nchunks = splitters.len() + 1;

    // cuts[r] = the nchunks+1 boundaries of run r (binary-searched once
    // per splitter), so chunk c of run r is r[cuts[r][c]..cuts[r][c+1]].
    let cuts: Vec<Vec<usize>> = runs
        .iter()
        .map(|r| {
            let mut c = Vec::with_capacity(nchunks + 1);
            c.push(0);
            c.extend(splitters.iter().map(|&s| r.lower_bound(s)));
            c.push(r.len());
            c
        })
        .collect();

    // One output for all chunks, allocated here: chunk c owns the next
    // Σ_r |chunk c of run r| slots, and everything it needs is built on
    // this thread, so no pool worker allocates (see the module docs).
    let mut out = vec![(0u32, 0u32); total];
    let mut sizes = Vec::with_capacity(nchunks);
    let mut merges = Vec::with_capacity(nchunks);
    let mut rest = out.as_mut_slice();
    for c in 0..nchunks {
        let cursors: Vec<R::Cursor> = runs
            .iter()
            .zip(&cuts)
            .filter(|(_, cut)| cut[c] < cut[c + 1])
            .map(|(r, cut)| r.cursor(cut[c], cut[c + 1]))
            .collect();
        let size: usize = cuts.iter().map(|cut| cut[c + 1] - cut[c]).sum();
        let (slice, tail) = std::mem::take(&mut rest).split_at_mut(size);
        rest = tail;
        sizes.push(size);
        merges.push(ChunkMerge::new(cursors, slice));
    }
    let written: Vec<usize> = merges.into_par_iter().map(ChunkMerge::run).collect();

    // Close the gaps the chunks' dropped duplicates left: slide each
    // chunk down onto the end of the one before it.
    let (mut len, mut start) = (0, 0);
    for (size, n) in sizes.into_iter().zip(written) {
        if start != len {
            out.copy_within(start..start + n, len);
        }
        len += n;
        start += size;
    }
    if len < total {
        out.truncate(len);
        out.shrink_to_fit();
    }
    out
}

/// One key-range chunk of a merge: cursors over its runs' sub-ranges,
/// the output slice they fill, and the loser tree's storage — all built
/// on the calling thread, so the worker that runs it allocates nothing
/// but a spilled cursor's read buffer.
struct ChunkMerge<'o, I> {
    cursors: Vec<I>,
    /// Each cursor's head key; `u64::MAX` once it is exhausted.
    heads: Vec<u64>,
    /// `tree[0]` is the winning cursor, `tree[1..k]` the loser at each
    /// internal node; cursor `i` is leaf `k + i`.
    tree: Vec<usize>,
    /// Exactly as long as the cursors' ranges together.
    out: &'o mut [(u32, u32)],
}

impl<'o, I: Iterator<Item = u64>> ChunkMerge<'o, I> {
    fn new(cursors: Vec<I>, out: &'o mut [(u32, u32)]) -> Self {
        let k = cursors.len();
        ChunkMerge {
            cursors,
            heads: vec![u64::MAX; k],
            tree: vec![0; k],
            out,
        }
    }

    /// Merge the cursors into `out`, dropping duplicates; returns how
    /// many edges were written (a prefix of `out`).
    fn run(mut self) -> usize {
        let k = self.cursors.len();
        if k <= 1 {
            // One run is already sorted and duplicate-free.
            for (slot, key) in self.out.iter_mut().zip(self.cursors.iter_mut().flatten()) {
                *slot = unpack(key);
            }
            return self.out.len();
        }
        for (head, cursor) in self.heads.iter_mut().zip(&mut self.cursors) {
            *head = cursor.next().unwrap_or(u64::MAX);
        }
        self.tree[0] = self.play(1);

        let ChunkMerge {
            mut cursors,
            mut heads,
            mut tree,
            out,
        } = self;
        let (mut len, mut taken) = (0, 0);
        let mut last = !heads[tree[0]];
        loop {
            let w = tree[0];
            let key = heads[w];
            if key == u64::MAX {
                break;
            }
            // Write unconditionally; keep the slot only for a new key.
            out[len] = unpack(key);
            len += usize::from(key != last);
            last = key;
            taken += 1;
            heads[w] = cursors[w].next().unwrap_or(u64::MAX);
            // Replay w's path: at each node the smaller head goes on up.
            // Selects, not branches: the comparisons are unpredictable.
            let mut winner = w;
            let mut node = (w + k) / 2;
            while node > 0 {
                let loser = tree[node];
                let up = heads[loser] < heads[winner];
                tree[node] = if up { winner } else { loser };
                winner = if up { loser } else { winner };
                node /= 2;
            }
            tree[0] = winner;
        }
        // Every head is u64::MAX: keys not yet taken are the edge
        // (u32::MAX, u32::MAX), the last of their runs; write it once.
        if taken < out.len() {
            out[len] = (u32::MAX, u32::MAX);
            len += 1;
        }
        len
    }

    /// Play the subtree under `node` from the current heads: record each
    /// internal node's loser and return the subtree's winner.
    fn play(&mut self, node: usize) -> usize {
        let k = self.cursors.len();
        if node >= k {
            return node - k;
        }
        let (a, b) = (self.play(2 * node), self.play(2 * node + 1));
        let (winner, loser) = if self.heads[b] < self.heads[a] {
            (b, a)
        } else {
            (a, b)
        };
        self.tree[node] = loser;
        winner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn reference(mut edges: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        edges.retain(|&(u, v)| u != v);
        for e in edges.iter_mut() {
            *e = (e.0.min(e.1), e.0.max(e.1));
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    fn random_stream(n: u32, m: usize, seed: u64, loops: bool) -> Vec<(u32, u32)> {
        let mut rng = Rng::new(seed);
        (0..m)
            .map(|_| {
                let u = (rng.next_u64() % n as u64) as u32;
                let v = if loops && rng.next_u64().is_multiple_of(4) {
                    u
                } else {
                    (rng.next_u64() % n as u64) as u32
                };
                (u, v)
            })
            .collect()
    }

    #[test]
    fn store_matches_sort_dedup_for_every_run_size() {
        let stream = random_stream(97, 4000, 42, true);
        let want = reference(stream.clone());
        for cap in [1, 7, 64, 1024, stream.len(), stream.len() * 2] {
            let mut store = EdgeRunStore::with_run_capacity(Some(97), cap);
            for &(u, v) in &stream {
                store.push(u, v);
            }
            assert_eq!(store.into_sorted_edges(), want, "run capacity {cap}");
        }
    }

    #[test]
    fn duplicate_heavy_stream_collapses() {
        let mut store = EdgeRunStore::with_run_capacity(Some(8), 3);
        for _ in 0..100 {
            store.push(1, 2);
            store.push(2, 1);
            store.push(5, 5);
        }
        assert_eq!(store.pushed(), 200); // loops dropped pre-count
        assert_eq!(store.into_sorted_edges(), vec![(1, 2)]);
    }

    #[test]
    fn open_buffer_is_reserved_once_and_reused() {
        let mut store = EdgeRunStore::with_run_capacity(Some(100), 64);
        store.reserve(1000);
        assert_eq!(store.buf.capacity(), 64, "reserve caps at the run capacity");
        for u in 0..99u32 {
            store.push(u, u + 1);
            store.push(u + 1, u);
        }
        assert_eq!(store.runs.len(), 198 / 64);
        assert_eq!(store.buf.capacity(), 64, "seals reuse the open buffer");
        let want: Vec<(u32, u32)> = (0..99).map(|u| (u, u + 1)).collect();
        assert_eq!(store.into_sorted_edges(), want);
    }

    #[test]
    fn unbounded_mode_tracks_max_id() {
        let mut store = EdgeRunStore::unbounded();
        assert_eq!(store.max_id(), None);
        store.push(3, 9);
        store.push(7, 7); // loop still counts for max_id
        assert_eq!(store.max_id(), Some(9));
        assert_eq!(store.into_sorted_edges(), vec![(3, 9)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounded_mode_checks_range() {
        let mut store = EdgeRunStore::with_run_capacity(Some(4), 8);
        store.push(0, 4);
    }

    #[test]
    fn merge_handles_empty_and_singleton_runs() {
        assert_eq!(merge_sorted_runs(&[]), vec![]);
        assert_eq!(merge_sorted_runs(&[&[], &[]]), vec![]);
        let a = [(0u32, 1u32), (2, 3)];
        assert_eq!(merge_sorted_runs(&[&a, &[]]), a.to_vec());
    }

    #[test]
    fn merge_many_overlapping_runs() {
        // 5 runs with heavy overlap, exercising the loser tree.
        let runs: Vec<Vec<(u32, u32)>> = (0..5u32)
            .map(|r| (0..50u32).map(|i| (i + r, i + r + 1)).collect())
            .collect();
        let slices: Vec<&[(u32, u32)]> = runs.iter().map(|r| r.as_slice()).collect();
        let got = merge_sorted_runs(&slices);
        let want = reference(runs.concat());
        assert_eq!(got, want);
    }

    #[test]
    fn large_merge_exercises_parallel_chunking() {
        // Total above MIN_PARALLEL_MERGE so the chunked path runs when the
        // pool has threads; the result must match the sequential reference
        // either way.
        let stream = random_stream(5000, 3 * MIN_PARALLEL_MERGE, 7, false);
        let want = reference(stream.clone());
        let mut store = EdgeRunStore::with_run_capacity(Some(5000), MIN_PARALLEL_MERGE / 2);
        for &(u, v) in &stream {
            store.push(u, v);
        }
        assert_eq!(store.into_sorted_edges(), want);
    }
}
