//! Crash-recovery fault injection for the durable service tier.
//!
//! The crash model here is **in-process**: an uninterrupted durable run
//! produces a directory; each scenario copies it and mutilates the copy
//! the way a crash would (truncate the WAL at a batch boundary, tear the
//! final record at every byte offset, flip a checksum byte, zero the
//! file, strand a snapshot beyond the log) before calling
//! [`ConnectivityService::open`]. Every mutilation a real `kill -9` can
//! produce is byte-wise reachable this way. The *out-of-process* model —
//! a child process that `abort()`s mid-stream — lives in the bench
//! crate's `crash_probe` bin and its integration test.
//!
//! The contract proved here is the one the in-memory tier already holds
//! under proptest: recovery equals recompute. A recovered service is at
//! a prefix of the committed epochs, bit-identical (labels *and*
//! spectrum) to the uninterrupted run at that epoch, and continuing the
//! stream from there reproduces the uninterrupted run's states exactly.

use cc_graph::seq::{components, same_partition};
use cc_graph::{gen, Graph, GraphBuilder};
use logdiam_svc::{ConnectivityService, FsyncPolicy, PersistError, SvcParams};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const WAL_HEADER_LEN: u64 = 16;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch dir per call (tests run concurrently).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "logdiam_recovery_{}_{tag}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Walk the WAL's length-prefixed frames (trusting the length fields —
/// this parses a file the test itself wrote) and return the byte offset
/// one past each record, starting with the header end. `ends[k]` is
/// therefore the exact file length after `k` batches were appended.
fn wal_record_ends(dir: &Path) -> Vec<u64> {
    let bytes = std::fs::read(dir.join("wal.bin")).unwrap();
    let mut ends = vec![WAL_HEADER_LEN];
    let mut at = WAL_HEADER_LEN as usize;
    while bytes.len().saturating_sub(at) >= 8 {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let end = at + 8 + len;
        if end > bytes.len() {
            break;
        }
        at = end;
        ends.push(at as u64);
    }
    ends
}

fn truncate_wal(dir: &Path, len: u64) {
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("wal.bin"))
        .unwrap();
    f.set_len(len).unwrap();
}

/// An uninterrupted durable run over `batches`, returning its directory
/// plus the labels and spectrum at every epoch (0..=batches).
struct CleanRun {
    dir: PathBuf,
    per_epoch_labels: Vec<Vec<u32>>,
    per_epoch_spectrum: Vec<logdiam_svc::Spectrum>,
}

fn clean_run(initial: &Graph, batches: &[&[(u32, u32)]], params: SvcParams, tag: &str) -> CleanRun {
    let dir = scratch(tag);
    let svc = ConnectivityService::create(&dir, initial.clone(), params).unwrap();
    for b in batches {
        svc.apply_batch(b).wait().unwrap();
    }
    let mut per_epoch_labels = Vec::new();
    let mut per_epoch_spectrum = Vec::new();
    for e in 0..=batches.len() as u64 {
        let snap = svc.snapshot(e).expect("history retains every epoch");
        per_epoch_labels.push(snap.labels().to_vec());
        per_epoch_spectrum.push(snap.spectrum());
    }
    CleanRun {
        dir,
        per_epoch_labels,
        per_epoch_spectrum,
    }
}

fn params_for(n: usize, batches: usize, snapshot_every: u64) -> SvcParams {
    SvcParams {
        rebuild_threshold: (n / 3).max(4),
        snapshot_history: batches + 2,
        shard_count: 3,
        // In-process crash model: fsync only moves OS buffers to disk,
        // which file copies never observe — Off keeps the suite fast
        // with identical byte-level behavior.
        fsync: FsyncPolicy::Off,
        snapshot_every,
        snapshots_kept: 2,
        ..SvcParams::default()
    }
}

/// The tentpole contract: crash after ANY prefix of commits, reopen,
/// and the service is bit-identical to the uninterrupted run at that
/// epoch — then replaying the rest of the stream converges to the same
/// final state as never having crashed.
fn check_prefix_crash_recovery(n: usize, chunk: usize, snapshot_every: u64, seed: u64) {
    let initial = gen::gnm(n, n, seed);
    let stream = gen::gnm(n, 2 * n, seed ^ 0x5eed);
    let batches: Vec<&[(u32, u32)]> = stream.edges().chunks(chunk).collect();
    let params = params_for(n, batches.len(), snapshot_every);
    let clean = clean_run(&initial, &batches, params, "prefix_clean");
    let ends = wal_record_ends(&clean.dir);
    assert_eq!(ends.len(), batches.len() + 1, "one WAL record per commit");
    let union = Graph::from_csr_plus_edges(&initial, stream.edges());
    let truth = components(&union);
    for k in 0..=batches.len() {
        let dir = scratch("prefix_crash");
        copy_dir(&clean.dir, &dir);
        // The crash point: batch k durable, batch k+1 never appended. A
        // snapshot from an epoch past k could not have existed on disk at
        // that moment, so drop those to model the crash faithfully (the
        // inconsistent-disk variants get their own tests below).
        truncate_wal(&dir, ends[k]);
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let epoch = path
                .file_name()
                .and_then(|s| s.to_str())
                .and_then(|s| s.strip_prefix("snap-"))
                .and_then(|s| s.strip_suffix(".bin"))
                .and_then(|s| s.parse::<u64>().ok());
            if epoch.is_some_and(|e| e > k as u64) {
                std::fs::remove_file(path).unwrap();
            }
        }
        let svc = ConnectivityService::open(&dir, params).unwrap();
        assert_eq!(svc.epoch(), k as u64, "recovered to the wrong epoch");
        assert_eq!(
            svc.latest().labels(),
            &clean.per_epoch_labels[k][..],
            "recovered labels differ from the uninterrupted run at epoch {k}"
        );
        assert_eq!(
            svc.spectrum(),
            clean.per_epoch_spectrum[k],
            "recovered spectrum differs at epoch {k}"
        );
        // Continue the stream: every subsequent epoch must reproduce the
        // uninterrupted run bit-for-bit (same dedup, folds, labels).
        for b in &batches[k..] {
            let e = svc.apply_batch(b).wait().unwrap();
            assert_eq!(
                svc.snapshot(e).unwrap().labels(),
                &clean.per_epoch_labels[e as usize][..],
                "post-recovery epoch {e} diverged (crashed at {k})"
            );
        }
        assert_eq!(
            svc.spectrum(),
            *clean.per_epoch_spectrum.last().unwrap(),
            "final spectrum diverged after recovery at {k}"
        );
        assert!(same_partition(svc.latest().labels(), &truth));
        drop(svc);
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(&clean.dir);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Random graphs, random batch splits, random snapshot cadence; kill
    /// after every prefix of commits.
    #[test]
    fn prefix_crash_recovers_bit_identical_state(
        n in 30usize..90,
        chunk in 5usize..19,
        snapshot_every in 1u64..6,
        seed in 0u64..1000,
    ) {
        check_prefix_crash_recovery(n, chunk, snapshot_every, seed);
    }
}

/// Torn tail: truncate at EVERY byte offset inside the final record.
/// Each one must recover to the penultimate epoch without panicking.
#[test]
fn torn_final_record_recovers_at_every_byte_offset() {
    let initial = gen::path(40);
    let stream = gen::gnm(40, 60, 3);
    let batches: Vec<&[(u32, u32)]> = stream.edges().chunks(11).collect();
    let params = params_for(40, batches.len(), 2);
    let clean = clean_run(&initial, &batches, params, "torn_clean");
    let ends = wal_record_ends(&clean.dir);
    let (penultimate, full) = (ends[ends.len() - 2], ends[ends.len() - 1]);
    let k = batches.len() - 1;
    for cut in penultimate..full {
        let dir = scratch("torn");
        copy_dir(&clean.dir, &dir);
        truncate_wal(&dir, cut);
        let svc = ConnectivityService::open(&dir, params).unwrap();
        assert_eq!(svc.epoch(), k as u64, "torn tail at byte {cut}");
        assert_eq!(svc.latest().labels(), &clean.per_epoch_labels[k][..]);
        drop(svc);
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(&clean.dir);
}

/// A flipped checksum byte mid-log invalidates that record and everything
/// after it; recovery keeps the longest clean prefix.
#[test]
fn flipped_checksum_byte_rolls_back_to_last_valid_record() {
    let initial = gen::path(30);
    let stream = gen::gnm(30, 60, 7);
    let batches: Vec<&[(u32, u32)]> = stream.edges().chunks(9).collect();
    assert!(batches.len() >= 4);
    // Snapshot cadence larger than the stream: recovery must come from
    // genesis + replay, so the corruption point alone decides the epoch.
    let params = params_for(30, batches.len(), 1000);
    let clean = clean_run(&initial, &batches, params, "crc_clean");
    let ends = wal_record_ends(&clean.dir);
    let corrupt_record = 2; // flip the CRC of the third record
    let dir = scratch("crc_flip");
    copy_dir(&clean.dir, &dir);
    {
        let path = dir.join("wal.bin");
        let mut bytes = std::fs::read(&path).unwrap();
        let crc_at = ends[corrupt_record] as usize + 4; // [len u32][crc u32]
        bytes[crc_at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
    }
    let svc = ConnectivityService::open(&dir, params).unwrap();
    assert_eq!(svc.epoch(), corrupt_record as u64);
    assert_eq!(
        svc.latest().labels(),
        &clean.per_epoch_labels[corrupt_record][..]
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(&clean.dir);
}

/// A zero-length WAL (crash before the header ever hit disk, or the file
/// destroyed) must fall back to the newest snapshot, reset the log, and
/// keep going — including across a SECOND restart, whose WAL now starts
/// above epoch 1.
#[test]
fn zero_length_wal_falls_back_to_newest_snapshot_and_log_restarts() {
    let initial = gen::path(25);
    let stream = gen::gnm(25, 50, 13);
    let batches: Vec<&[(u32, u32)]> = stream.edges().chunks(7).collect();
    let params = params_for(25, batches.len() + 4, 2); // snapshot every 2 commits
    let clean = clean_run(&initial, &batches, params, "zero_clean");
    // Newest durable snapshot epoch: the largest multiple of 2 ≤ batches.
    let snap_epoch = (batches.len() as u64 / 2) * 2;
    let dir = scratch("zero_wal");
    copy_dir(&clean.dir, &dir);
    std::fs::write(dir.join("wal.bin"), b"").unwrap();
    {
        let svc = ConnectivityService::open(&dir, params).unwrap();
        assert_eq!(svc.epoch(), snap_epoch);
        assert_eq!(
            svc.latest().labels(),
            &clean.per_epoch_labels[snap_epoch as usize][..]
        );
        // The log was reset: new commits append starting at snap_epoch+1.
        for b in &batches[snap_epoch as usize..] {
            svc.apply_batch(b).wait().unwrap();
        }
        assert_eq!(
            svc.latest().labels(),
            &clean.per_epoch_labels.last().unwrap()[..]
        );
    }
    // Second restart: the WAL's first record epoch is snap_epoch+1 ≠ 1,
    // which recovery must handle (snapshot + non-genesis-anchored log).
    let svc = ConnectivityService::open(&dir, params).unwrap();
    assert_eq!(svc.epoch(), batches.len() as u64);
    assert_eq!(
        svc.latest().labels(),
        &clean.per_epoch_labels.last().unwrap()[..]
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(&clean.dir);
}

/// A snapshot from a newer epoch than the surviving WAL covers must be
/// skipped — recovery falls back to an older snapshot or full replay,
/// never trusting unprovable state.
#[test]
fn snapshot_newer_than_wal_coverage_is_skipped() {
    let initial = gen::path(30);
    let stream = gen::gnm(30, 60, 23);
    let batches: Vec<&[(u32, u32)]> = stream.edges().chunks(8).collect();
    assert!(batches.len() >= 6);
    let params = SvcParams {
        snapshot_every: 1, // a durable snapshot at every epoch
        snapshots_kept: 3,
        ..params_for(30, batches.len(), 1)
    };
    let clean = clean_run(&initial, &batches, params, "newer_clean");
    let ends = wal_record_ends(&clean.dir);
    // Keep only `keep` batches of log; snapshots at later epochs survive
    // on disk but are unprovable.
    let keep = batches.len() - 3;
    let dir = scratch("newer_snap");
    copy_dir(&clean.dir, &dir);
    truncate_wal(&dir, ends[keep]);
    let svc = ConnectivityService::open(&dir, params).unwrap();
    assert_eq!(
        svc.epoch(),
        keep as u64,
        "must land on WAL coverage, not the newer snapshot"
    );
    assert_eq!(svc.latest().labels(), &clean.per_epoch_labels[keep][..]);
    drop(svc);
    let _ = std::fs::remove_dir_all(dir);

    // Same cut with every snapshot corrupted: recovery's last resort is
    // genesis + full replay of the surviving log.
    let dir = scratch("all_snaps_bad");
    copy_dir(&clean.dir, &dir);
    truncate_wal(&dir, ends[keep]);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path
            .file_name()
            .and_then(|s| s.to_str())
            .is_some_and(|s| s.starts_with("snap-"))
        {
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x55;
            std::fs::write(&path, &bytes).unwrap();
        }
    }
    let svc = ConnectivityService::open(&dir, params).unwrap();
    assert_eq!(svc.epoch(), keep as u64);
    assert_eq!(svc.latest().labels(), &clean.per_epoch_labels[keep][..]);
    drop(svc);
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(&clean.dir);
}

/// Unrecoverable states must be loud, typed errors — not panics, not
/// silently empty services.
#[test]
fn unrecoverable_directories_error_cleanly() {
    // No genesis at all.
    let dir = scratch("no_genesis");
    match ConnectivityService::open(&dir, SvcParams::default()) {
        Err(PersistError::Io(_)) => {}
        other => panic!("expected Io error, got {:?}", other.map(|_| ())),
    }
    // Corrupt genesis: the vertex count itself is unknowable.
    let dir2 = scratch("bad_genesis");
    let svc = ConnectivityService::create(&dir2, gen::path(4), SvcParams::default()).unwrap();
    drop(svc);
    std::fs::write(dir2.join("genesis.bin"), b"LDIAMGENxxxx").unwrap();
    match ConnectivityService::open(&dir2, SvcParams::default()) {
        Err(PersistError::Corrupt(_)) => {}
        other => panic!("expected Corrupt error, got {:?}", other.map(|_| ())),
    }
    // Creating twice in one dir is refused, not silently overwritten.
    let dir3 = scratch("double_create");
    let svc = ConnectivityService::create(&dir3, gen::path(4), SvcParams::default()).unwrap();
    drop(svc);
    assert!(matches!(
        ConnectivityService::create(&dir3, gen::path(4), SvcParams::default()),
        Err(PersistError::Corrupt(_))
    ));
    for d in [dir, dir2, dir3] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Durable acknowledgment contract under `FsyncPolicy::Always`: a batch
/// whose ticket was fulfilled survives a clean or dirty restart (here:
/// reopen without dropping cleanly is approximated by copying the live
/// dir — the bench crate's crash probe does the real `abort()` version).
#[test]
fn fsync_always_roundtrip_with_clean_reopen() {
    let dir = scratch("always");
    let params = SvcParams {
        fsync: FsyncPolicy::Always,
        snapshot_every: 4,
        ..SvcParams::default()
    };
    let g = gen::gnm(50, 80, 31);
    {
        let svc = ConnectivityService::create(&dir, GraphBuilder::new(50).build(), params).unwrap();
        for chunk in g.edges().chunks(10) {
            svc.apply_batch(chunk).wait().unwrap();
        }
    }
    let svc = ConnectivityService::open(&dir, params).unwrap();
    assert!(same_partition(svc.latest().labels(), &components(&g)));
    drop(svc);
    let _ = std::fs::remove_dir_all(dir);
}

/// CRC-32 (IEEE, reflected), so a test can re-seal a file it edited.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}

/// Snapshot files in `dir`, newest epoch first.
fn snapshot_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut snaps: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let path = e.unwrap().path();
            let epoch = path
                .file_name()?
                .to_str()?
                .strip_prefix("snap-")?
                .strip_suffix(".bin")?
                .parse()
                .ok()?;
            Some((epoch, path))
        })
        .collect();
    snaps.sort_unstable_by_key(|&(e, _)| std::cmp::Reverse(e));
    snaps
}

/// The first two encoded base edges of a snapshot file.
type EdgePair = [[u8; 8]; 2];
/// An in-place edit of those two edges.
type Edit = fn(&mut EdgePair);

/// Rewrite the first two base edges of a snapshot file with `edit` and
/// re-seal its checksum, so only the semantic checks can reject it.
/// Payload layout: epoch, wal_offset, rebuilds, cross_unions (u64 each),
/// n (u32), base count (u64), then the base edges as (u32, u32).
fn tamper_base_edges(path: &Path, edit: Edit) {
    const FRAME: usize = 16;
    const BASE_AT: usize = FRAME + 4 * 8 + 4 + 8;
    let mut bytes = std::fs::read(path).unwrap();
    let count = u64::from_le_bytes(bytes[BASE_AT - 8..BASE_AT].try_into().unwrap());
    assert!(count >= 2, "test needs a snapshot with two base edges");
    let mut pair: EdgePair = [[0u8; 8]; 2];
    pair[0].copy_from_slice(&bytes[BASE_AT..BASE_AT + 8]);
    pair[1].copy_from_slice(&bytes[BASE_AT + 8..BASE_AT + 16]);
    edit(&mut pair);
    bytes[BASE_AT..BASE_AT + 8].copy_from_slice(&pair[0]);
    bytes[BASE_AT + 8..BASE_AT + 16].copy_from_slice(&pair[1]);
    let crc = crc32(&bytes[FRAME..]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

/// A snapshot whose checksum is valid but whose base edge list is not
/// canonical (unsorted, or with a duplicate) cannot have been written by
/// the service: `open()` must skip it — here every snapshot, so recovery
/// replays the whole log from genesis — and still answer exactly.
#[test]
fn checksum_valid_snapshot_with_non_canonical_base_is_skipped() {
    let initial = gen::gnm(40, 60, 5);
    let stream = gen::gnm(40, 80, 6);
    let batches: Vec<&[(u32, u32)]> = stream.edges().chunks(8).collect();
    let params = params_for(40, batches.len(), 3);
    let clean = clean_run(&initial, &batches, params, "canon_clean");
    let last = batches.len();
    let edits: [(&str, Edit); 2] = [
        ("unsorted", |p| p.swap(0, 1)),
        ("duplicate", |p| p[1] = p[0]),
    ];
    for (what, edit) in edits {
        let dir = scratch("canon");
        copy_dir(&clean.dir, &dir);
        let snaps = snapshot_files(&dir);
        assert!(!snaps.is_empty(), "clean run left no snapshot");
        for (_, path) in &snaps {
            tamper_base_edges(path, edit);
        }
        let svc = ConnectivityService::open(&dir, params).unwrap();
        assert_eq!(svc.epoch(), last as u64, "{what}");
        assert_eq!(
            svc.metrics().counters["svc_replayed_records_total"],
            last as u64,
            "{what}: a non-canonical snapshot was trusted"
        );
        assert_eq!(svc.latest().labels(), &clean.per_epoch_labels[last][..]);
        assert_eq!(svc.spectrum(), clean.per_epoch_spectrum[last], "{what}");
        for u in 0..40 {
            for v in 0..40 {
                let want = clean.per_epoch_labels[last][u as usize]
                    == clean.per_epoch_labels[last][v as usize];
                assert_eq!(svc.query_latest(u, v), want);
            }
        }
        drop(svc);
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::fs::remove_dir_all(&clean.dir);
}
