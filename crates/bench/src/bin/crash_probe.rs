//! Out-of-process crash-recovery probe for the durable connectivity
//! service.
//!
//! Parent mode (the default) runs a batch-prefix matrix: for each prefix
//! length `k` it re-executes itself as a child (`--child --batches k`)
//! against a fresh store. The child creates the store with
//! `FsyncPolicy::Always`, applies the first `k` batches of the shared
//! deterministic probe workload, waits for every ticket, then calls
//! [`std::process::abort`] — a real `SIGABRT`, no destructors, no WAL
//! sync beyond what each commit already forced. The parent asserts the
//! child died abnormally, reopens the directory, and checks that the
//! recovered epoch is exactly `k` and the recovered labels match a
//! one-shot sequential recompute of the same prefix. It then applies the
//! *remaining* batches to the recovered service and checks the final
//! partition too — recovery must hand back a store that is correct to
//! keep writing into, not merely readable.
//!
//! ```text
//! crash_probe [--n N] [--total T] [--batch B] [--seed S] [--dir D]
//! crash_probe --child --dir D --n N --batches K --total T --batch B --seed S
//! ```
//!
//! Exit status 0 means every prefix in the matrix recovered correctly.
//! Used by the CI recovery smoke and by `crates/bench/tests/crash_probe.rs`.

use cc_graph::seq::{components, same_partition};
use cc_graph::{Graph, GraphBuilder, Rng};
use logdiam_svc::{ConnectivityService, FsyncPolicy, SvcParams};
use std::path::{Path, PathBuf};
use std::process::Command;

fn usage() -> ! {
    eprintln!(
        "usage: crash_probe [--n N] [--total T] [--batch B] [--seed S] [--dir D]\n\
         \x20      crash_probe --child --dir D --n N --batches K --total T --batch B --seed S"
    );
    std::process::exit(2);
}

/// Service knobs shared by the child (create) and the parent (open):
/// every commit fsyncs, snapshots every 2 commits so the matrix crosses
/// snapshot boundaries, and the rebuild threshold is small enough that
/// prefixes also cross full-rebuild boundaries.
fn probe_params() -> SvcParams {
    SvcParams {
        fsync: FsyncPolicy::Always,
        snapshot_every: 2,
        rebuild_threshold: 64,
        ..SvcParams::default()
    }
}

/// The probe's write stream: `total` batches of `batch` seeded pairs each.
/// Pure function of `(n, total, batch, seed)`: the child applies a prefix
/// before aborting, and the parent (the same binary) replays the same
/// prefix into a one-shot recompute to judge the recovered labels. The
/// genesis graph is edgeless, so every component merge observed after
/// recovery is attributable to a WAL record that survived the abort.
fn probe_batches(n: usize, total: usize, batch: usize, seed: u64) -> Vec<Vec<(u32, u32)>> {
    let mut rng = Rng::new(seed ^ 0xC4A5_4B0B);
    (0..total)
        .map(|_| {
            (0..batch)
                .map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32))
                .collect()
        })
        .collect()
}

struct ProbeArgs {
    n: usize,
    total: usize,
    batch: usize,
    seed: u64,
    dir: PathBuf,
    child: bool,
    batches: usize,
}

fn parse_args() -> ProbeArgs {
    let mut pa = ProbeArgs {
        n: 600,
        total: 6,
        batch: 48,
        seed: 7,
        dir: std::env::temp_dir().join(format!("logdiam_crash_probe_{}", std::process::id())),
        child: false,
        batches: 0,
    };
    let mut args = std::env::args().skip(1);
    let next = |args: &mut dyn Iterator<Item = String>| -> String {
        args.next().unwrap_or_else(|| usage())
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--child" => pa.child = true,
            "--n" => pa.n = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "--total" => pa.total = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "--batch" => pa.batch = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "--seed" => pa.seed = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "--batches" => pa.batches = next(&mut args).parse().unwrap_or_else(|_| usage()),
            "--dir" => pa.dir = PathBuf::from(next(&mut args)),
            _ => usage(),
        }
    }
    pa
}

/// Child: create the store, commit `batches` acked batches, die hard.
fn run_child(pa: &ProbeArgs) -> ! {
    let svc = ConnectivityService::create(&pa.dir, GraphBuilder::new(pa.n).build(), probe_params())
        .expect("child: cannot create store");
    let stream = probe_batches(pa.n, pa.total, pa.batch, pa.seed);
    for chunk in stream.iter().take(pa.batches) {
        svc.apply_batch(chunk).wait().expect("child: writer died");
    }
    eprintln!("crash_probe child: {} batches acked, aborting", pa.batches);
    std::process::abort();
}

/// One-shot ground truth for a batch prefix.
fn truth_for_prefix(n: usize, stream: &[Vec<(u32, u32)>], k: usize) -> Vec<u32> {
    let applied: Vec<(u32, u32)> = stream.iter().take(k).flatten().copied().collect();
    let union = Graph::from_csr_plus_edges(&GraphBuilder::new(n).build(), &applied);
    components(&union)
}

/// Parent: run the child for one prefix, then recover and judge.
fn run_prefix(pa: &ProbeArgs, exe: &Path, k: usize) {
    let dir = pa.dir.join(format!("prefix-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cannot create probe dir");
    let status = Command::new(exe)
        .args([
            "--child",
            "--dir",
            dir.to_str().expect("non-UTF-8 temp dir"),
            "--n",
            &pa.n.to_string(),
            "--batches",
            &k.to_string(),
            "--total",
            &pa.total.to_string(),
            "--batch",
            &pa.batch.to_string(),
            "--seed",
            &pa.seed.to_string(),
        ])
        .status()
        .expect("cannot spawn crash_probe child");
    assert!(
        !status.success(),
        "prefix {k}: child exited cleanly instead of aborting ({status})"
    );

    let svc = ConnectivityService::open(&dir, probe_params())
        .unwrap_or_else(|e| panic!("prefix {k}: recovery failed: {e}"));
    assert_eq!(
        svc.epoch(),
        k as u64,
        "prefix {k}: recovered epoch disagrees with acked batches"
    );
    let stream = probe_batches(pa.n, pa.total, pa.batch, pa.seed);
    assert!(
        same_partition(svc.latest().labels(), &truth_for_prefix(pa.n, &stream, k)),
        "prefix {k}: recovered labels diverge from one-shot recompute"
    );
    // Recovery must be resumable: stream the rest, judge the final state.
    for chunk in stream.iter().skip(k) {
        svc.apply_batch(chunk)
            .wait()
            .expect("recovered writer died");
    }
    assert!(
        same_partition(
            svc.latest().labels(),
            &truth_for_prefix(pa.n, &stream, pa.total)
        ),
        "prefix {k}: post-recovery stream diverged from one-shot recompute"
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("crash_probe: prefix {k}/{} OK", pa.total);
}

fn main() {
    let pa = parse_args();
    if pa.child {
        run_child(&pa);
    }
    let exe = std::env::current_exe().expect("cannot locate own binary");
    for k in 0..=pa.total {
        run_prefix(&pa, &exe, k);
    }
    let _ = std::fs::remove_dir_all(&pa.dir);
    println!(
        "crash_probe: OK — {} prefixes of {} batches × {} edges recovered exactly",
        pa.total + 1,
        pa.total,
        pa.batch
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_workload_is_deterministic() {
        let a = probe_batches(500, 6, 32, 42);
        let b = probe_batches(500, 6, 32, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        assert!(a.iter().all(|c| c.len() == 32));
        assert!(a
            .iter()
            .flatten()
            .all(|&(u, v)| (u as usize) < 500 && (v as usize) < 500));
    }
}
