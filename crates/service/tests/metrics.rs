//! Observability contract of the durable service tier: the WAL/fsync
//! histograms and byte counters on the commit pipeline, and the
//! `replay_progress` events a recovery emits.
//!
//! The in-memory half of the contract (absorb / publish histograms,
//! fold spans) is asserted by the service's unit tests and
//! `proptest_svc`; this file owns everything that needs a directory.

use cc_graph::gen;
use logdiam_svc::{ConnectivityService, FsyncPolicy, SvcParams};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch dir per call (tests run concurrently).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "logdiam_metrics_{}_{tag}_{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn params(fsync: FsyncPolicy) -> SvcParams {
    SvcParams {
        fsync,
        rebuild_threshold: 1 << 20,
        snapshot_every: 1 << 20, // no periodic durable snapshots
        ..SvcParams::default()
    }
}

#[test]
fn durable_commits_populate_wal_histograms_and_byte_counters() {
    let dir = scratch("wal_hist");
    let svc =
        ConnectivityService::create(&dir, gen::path(32), params(FsyncPolicy::Always)).unwrap();
    const BATCHES: u64 = 6;
    for i in 0..BATCHES as u32 {
        svc.apply_batch(&[(i, i + 8)]).wait().unwrap();
    }
    let m = svc.metrics();
    m.validate().unwrap();
    assert_eq!(m.counters["svc_wal_records_total"], BATCHES);
    assert_eq!(m.counters["svc_wal_fsyncs_total"], BATCHES); // Always: 1:1
    assert_eq!(m.histograms["svc_wal_append_ns"].count, BATCHES);
    assert_eq!(m.histograms["svc_fsync_ns"].count, BATCHES);
    // Each record: 8-byte frame + 12-byte payload prefix + 8 bytes/edge.
    assert_eq!(m.counters["svc_wal_bytes_total"], BATCHES * (8 + 12 + 8));
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batch_fsync_policy_syncs_less_than_always() {
    let dir = scratch("fsync_batch");
    let svc =
        ConnectivityService::create(&dir, gen::path(32), params(FsyncPolicy::Batch(4))).unwrap();
    for i in 0..8u32 {
        svc.apply_batch(&[(i, i + 8)]).wait().unwrap();
    }
    let m = svc.metrics();
    assert_eq!(m.counters["svc_wal_records_total"], 8);
    // Every 4th append syncs: exactly 2 policy-driven fsyncs.
    assert_eq!(m.counters["svc_wal_fsyncs_total"], 2);
    assert_eq!(m.histograms["svc_fsync_ns"].count, 2);
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_replays_with_progress_events_and_counts_records() {
    let dir = scratch("replay");
    const BATCHES: u32 = 5;
    {
        let svc =
            ConnectivityService::create(&dir, gen::path(32), params(FsyncPolicy::Always)).unwrap();
        for i in 0..BATCHES {
            svc.apply_batch(&[(i, i + 8)]).wait().unwrap();
        }
    } // clean shutdown; snapshot_every is huge, so reopen replays the WAL
    let svc = ConnectivityService::open(&dir, params(FsyncPolicy::Always)).unwrap();
    assert_eq!(svc.epoch(), BATCHES as u64);
    let m = svc.metrics();
    m.validate().unwrap();
    assert_eq!(m.counters["svc_replayed_records_total"], BATCHES as u64);
    // Replayed commits run the ordinary instrumented commit path…
    assert_eq!(m.counters["svc_commits_total"], BATCHES as u64);
    assert_eq!(
        m.histograms["svc_snapshot_publish_ns"].count,
        BATCHES as u64
    );
    // …but are *not* re-appended to the WAL.
    assert_eq!(m.counters["svc_wal_records_total"], 0);
    assert_eq!(m.counters["svc_wal_bytes_total"], 0);
    // Recovery installed one consolidating durable snapshot.
    assert_eq!(m.counters["svc_durable_snapshots_total"], 1);
    assert_eq!(m.histograms["svc_durable_snapshot_ns"].count, 1);
    // The final replay_progress event reports full progress.
    let events = svc.obs().drain_events();
    let progress: Vec<_> = events
        .iter()
        .filter(|e| e.name == "replay_progress")
        .collect();
    assert_eq!(progress.len(), 1, "5 records < 256-cadence → 1 final event");
    assert_eq!(
        progress[0].field("replayed"),
        Some(&logdiam_svc::obs::Value::U64(BATCHES as u64))
    );
    assert_eq!(
        progress[0].field("total"),
        Some(&logdiam_svc::obs::Value::U64(BATCHES as u64))
    );
    drop(svc);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn spans_env_off_disables_span_histograms_but_not_counters() {
    // Toggle via the registry (the env var is read at Registry::new,
    // which other concurrently running tests share the environment with —
    // mutating the process env here would race them).
    let svc = ConnectivityService::new(gen::path(16), SvcParams::default());
    svc.obs().set_spans_enabled(false);
    svc.apply_batch(&[(0, 8)]).wait().unwrap();
    let m = svc.metrics();
    // Span-backed histograms recorded nothing…
    assert_eq!(m.histograms["svc_commit_ns"].count, 0);
    // …while plain counters and directly-timed histograms still did.
    assert_eq!(m.counters["svc_commits_total"], 1);
    assert_eq!(m.histograms["svc_dedup_ns"].count, 1);
    assert_eq!(m.histograms["svc_absorb_ns"].count, 1);
    assert_eq!(m.histograms["svc_snapshot_publish_ns"].count, 1);
    assert!(svc.obs().drain_events().is_empty());
}
