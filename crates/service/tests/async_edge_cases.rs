//! Edge cases of the async writer split: handle drop with commands in
//! flight, tickets outliving their snapshots, backpressure, and
//! concurrent enqueuers.

use cc_graph::seq::{components, same_partition};
use cc_graph::{gen, Graph, GraphBuilder};
use logdiam_svc::{ConnectivityService, EpochError, SvcParams};
use proptest::prelude::*;

#[test]
fn dropping_the_handle_mid_commit_drains_and_fulfills_every_ticket() {
    let g = gen::gnm(500, 900, 3);
    let svc = ConnectivityService::new(
        GraphBuilder::new(g.n()).build(),
        SvcParams {
            rebuild_threshold: 64, // several folds happen mid-drain
            ..SvcParams::default()
        },
    );
    // Enqueue the whole stream without waiting, then drop the handle
    // while the writer is still chewing through the queue.
    let tickets: Vec<_> = g.edges().chunks(17).map(|c| svc.apply_batch(c)).collect();
    let expected_epochs = tickets.len() as u64;
    drop(svc);
    // Drop joins the writer, which drains every buffered command first:
    // all tickets are fulfilled, in FIFO epoch order, with no hang.
    for (i, t) in tickets.iter().enumerate() {
        assert_eq!(
            t.poll().unwrap(),
            Some(i as u64 + 1),
            "ticket {i} not fulfilled"
        );
    }
    assert_eq!(
        tickets.last().unwrap().poll().unwrap(),
        Some(expected_epochs)
    );
}

#[test]
fn ticket_awaited_after_its_snapshot_was_evicted_still_resolves() {
    let svc = ConnectivityService::new(
        gen::path(6),
        SvcParams {
            snapshot_history: 1, // only the latest epoch is retained
            ..SvcParams::default()
        },
    );
    let first = svc.apply_batch(&[(0, 2)]);
    let tickets: Vec<_> = (0..8).map(|_| svc.apply_batch(&[])).collect();
    svc.flush().unwrap();
    // The first epoch fell off the ring long ago; its ticket still
    // resolves to the epoch number — the ticket is a commit receipt, not
    // a snapshot reference.
    assert_eq!(first.wait().unwrap(), 1);
    assert!(matches!(
        svc.snapshot(1),
        Err(EpochError::Evicted {
            requested: 1,
            oldest: 9
        })
    ));
    // The labeling the evicted epoch introduced is still visible at the
    // retained latest epoch.
    assert!(svc.query_latest(0, 2));
    assert_eq!(tickets.last().unwrap().wait().unwrap(), 9);
}

#[test]
fn tiny_command_queue_applies_backpressure_without_deadlock() {
    let g = gen::path(300);
    let svc = ConnectivityService::new(
        GraphBuilder::new(g.n()).build(),
        SvcParams {
            command_queue: 1, // every enqueue races the writer's drain
            rebuild_threshold: 32,
            ..SvcParams::default()
        },
    );
    let tickets: Vec<_> = g.edges().chunks(7).map(|c| svc.apply_batch(c)).collect();
    svc.flush().unwrap();
    assert_eq!(svc.epoch(), tickets.len() as u64);
    assert!(same_partition(svc.latest().labels(), &components(&g)));
}

/// Concurrent enqueuers: every caller's tickets resolve in its own
/// enqueue order, the writer serializes epochs densely, and *every
/// retained epoch* equals a one-shot recompute on exactly the batches
/// committed up to it (reconstructed from the ticket→epoch mapping).
fn check_concurrent_callers(n: usize, writers: usize, chunk: usize, seed: u64) {
    let g = gen::gnm(n, 3 * n, seed);
    let total_batches: usize = g.edges().chunks(chunk).count();
    let svc = ConnectivityService::new(
        GraphBuilder::new(g.n()).build(),
        SvcParams {
            rebuild_threshold: (n / 2).max(8),   // rebuilds fire mid-replay
            snapshot_history: total_batches + 1, // retain every epoch
            shard_count: 3,
            ..SvcParams::default()
        },
    );
    // Deal batches round-robin to the writer threads; each records the
    // epoch its batches landed at.
    let mut per_writer: Vec<Vec<&[(u32, u32)]>> = vec![Vec::new(); writers];
    for (i, c) in g.edges().chunks(chunk).enumerate() {
        per_writer[i % writers].push(c);
    }
    let mut epoch_to_batch: Vec<(u64, &[(u32, u32)])> = std::thread::scope(|s| {
        let handles: Vec<_> = per_writer
            .iter()
            .map(|batches| {
                let svc = &svc;
                s.spawn(move || {
                    let mut committed = Vec::new();
                    let mut last = 0u64;
                    for &b in batches {
                        let epoch = svc.apply_batch(b).wait().unwrap();
                        assert!(epoch > last, "a caller's epochs must be monotone");
                        last = epoch;
                        committed.push((epoch, b));
                    }
                    committed
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    epoch_to_batch.sort_unstable_by_key(|&(e, _)| e);
    // Dense epochs 1..=batches: exactly one commit per apply_batch call.
    let epochs: Vec<u64> = epoch_to_batch.iter().map(|&(e, _)| e).collect();
    assert_eq!(epochs, (1..=total_batches as u64).collect::<Vec<_>>());
    // One-shot recompute per epoch: each retained snapshot must equal
    // sequential ground truth on the batches committed up to it.
    let mut acc: Vec<(u32, u32)> = Vec::new();
    for &(epoch, batch) in &epoch_to_batch {
        acc.extend_from_slice(batch);
        let union = Graph::from_csr_plus_edges(&GraphBuilder::new(n).build(), &acc);
        let snap = svc.snapshot(epoch).expect("every epoch retained");
        assert!(
            same_partition(snap.labels(), &components(&union)),
            "epoch {epoch} diverged from one-shot recompute"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Random interleavings of concurrent `apply_batch` callers against a
    /// one-shot recompute at every committed epoch.
    #[test]
    fn concurrent_callers_match_one_shot_recompute_per_epoch(
        n in 40usize..160,
        writers in 2usize..5,
        chunk in 3usize..23,
        seed in 0u64..1000,
    ) {
        check_concurrent_callers(n, writers, chunk, seed);
    }
}
