//! Thread-count determinism suite.
//!
//! Every public CC entry point — Theorems 1/2/3, the simulated baselines,
//! all `logdiam-par` shared-memory algorithms, and the `logdiam-svc`
//! batched-replay service — must produce identical component labels at
//! `RAYON_NUM_THREADS` 1, 2, and 8; and seeded
//! ARBITRARY PRAM runs must be *bit-identical* (full memory image and
//! traffic counters), which the sharded, priority-resolved commit is
//! designed to guarantee. The pool size is fixed per process, so each
//! measurement is a run of the `determinism_probe` helper binary with a
//! pinned environment, compared byte-for-byte on stdout.
//!
//! Graph shapes and seeds are proptest-generated (the vendored shim is
//! deterministic, so failures reproduce exactly). Six fixed runs are also
//! compared with committed probe lines, so a change that moves a seeded
//! count fails here even when every thread count agrees.

use proptest::prelude::*;
use std::process::Command;

const THREAD_COUNTS: [&str; 3] = ["1", "2", "8"];

/// Run the probe once and return its stdout.
fn probe(threads: &str, algo: &str, family: &str, n: usize, seed: u64) -> String {
    probe_env(threads, algo, family, n, seed, &[])
}

/// [`probe`] with extra pinned environment variables (the observability
/// toggles are env-driven, so they are exercised the same way the thread
/// count is: one process per setting, compared byte-for-byte).
fn probe_env(
    threads: &str,
    algo: &str,
    family: &str,
    n: usize,
    seed: u64,
    extra_env: &[(&str, &str)],
) -> String {
    let exe = env!("CARGO_BIN_EXE_determinism_probe");
    let mut cmd = Command::new(exe);
    cmd.args([algo, family, &n.to_string(), &seed.to_string()])
        .env("RAYON_NUM_THREADS", threads);
    for &(k, v) in extra_env {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("failed to spawn determinism_probe");
    assert!(
        out.status.success(),
        "probe({algo}, {family}, n={n}, seed={seed}) at {threads} threads failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("probe printed invalid UTF-8")
}

/// Assert one (algo, graph) case fingerprints identically at 1/2/8 threads;
/// returns the 1-thread line.
fn assert_thread_invariant(algo: &str, family: &str, n: usize, seed: u64) -> String {
    let baseline = probe(THREAD_COUNTS[0], algo, family, n, seed);
    assert!(
        baseline.contains(' '),
        "probe produced no fingerprint: {baseline:?}"
    );
    for threads in &THREAD_COUNTS[1..] {
        let got = probe(threads, algo, family, n, seed);
        assert_eq!(
            baseline, got,
            "{algo} on {family}(n={n}, seed={seed}) differs between \
             1 thread and {threads} threads"
        );
    }
    baseline
}

/// `determinism_probe` lines of eight fixed runs, as committed: the labels'
/// fingerprint and every machine count. The thread-invariance tests prove
/// a line is the same at 1, 2 and 8 threads, so one thread is enough here.
/// A change that alters seeded behaviour on purpose regenerates these
/// (`determinism_probe <algo> <family> <n> <seed>` at one thread) and says
/// why in CHANGES.md.
const GOLDEN: [(&str, &str, usize, u64, &str); 8] = [
    ("theorem3", "powerlaw", 9_000, 5, "272e32824931f635 n=9000 reads=5465529 writes=1611176 work=3572852 steps=665 max_ops=14 peak_words=306178"),
    ("theorem3", "gnm", 11_000, 5, "3deb7b7430020d46 n=11000 reads=6807901 writes=1981121 work=4352534 steps=717 max_ops=14 peak_words=403458"),
    ("theorem3", "path", 40_000, 1, "9e2cc43ade24f7a5 n=40000 reads=7749579 writes=2011800 work=5738471 steps=785 max_ops=14 peak_words=950274"),
    ("theorem1", "gnm", 5_000, 3, "5a6adfe08134b1ed n=5000 reads=6632180 writes=1121697 work=3464619 steps=312 max_ops=12 peak_words=133121"),
    ("theorem2", "gnm", 5_000, 3, "59150e4b5cd303d1 n=5000 reads=9737716 writes=1409728 work=6226744 steps=737 max_ops=12 peak_words=283649"),
    ("vanilla", "gnm", 5_000, 3, "12b3935d07d4d230 n=5000 reads=2600824 writes=579355 work=2642383 steps=333 max_ops=6 peak_words=108544"),
    ("theorem1", "path", 12, 2, "cb09187840f610a5 n=12 reads=585 writes=158 work=878 steps=110 max_ops=6 peak_words=104"),
    ("theorem2", "path", 12, 2, "be4f3da26953b285 n=12 reads=746 writes=232 work=1075 steps=136 max_ops=6 peak_words=144"),
];

/// Assert a probe line equals its committed [`GOLDEN`] line.
fn assert_golden(line: &str, algo: &str, family: &str, n: usize, seed: u64) {
    let (.., want) = GOLDEN
        .iter()
        .find(|g| (g.0, g.1, g.2, g.3) == (algo, family, n, seed))
        .expect("no committed line for this case");
    assert_eq!(
        line.trim_end(),
        *want,
        "{algo} on {family}(n={n}, seed={seed}) no longer prints its committed line"
    );
}

/// The simulated entry points (each drives `Pram` on a seeded-ARBITRARY
/// machine — label determinism here also exercises the sharded commit).
/// The theorem entries run their generation-stamped phase state (MAXLINK
/// candidates, EXPAND's `fdr` and liveness) and, with vanilla, their
/// live-scheduled phases — every one fingerprints identically at 1/2/8
/// threads.
const SIM_ALGOS: [&str; 6] = [
    "theorem1",
    "theorem2",
    "theorem3",
    "vanilla",
    "awerbuch_shiloach",
    "labelprop_sim",
];

/// The practical shared-memory ports (atomics + rayon).
const PAR_ALGOS: [&str; 5] = [
    "par_labelprop",
    "par_unionfind",
    "par_sv",
    "par_contract",
    "par_bfs",
];

const FAMILIES: [&str; 5] = ["path", "grid", "gnm", "powerlaw", "mixture"];

fn family_strategy() -> impl Strategy<Value = &'static str> {
    (0..FAMILIES.len()).prop_map(|i| FAMILIES[i])
}

/// Theorem 3 where COMPACT's renamed subproblem holds more than 8 arcs
/// per vertex, so its solver samples, filters and solves the survivors:
/// at these sizes and seed both graphs take the sample and leave arcs
/// for the survivor pass. The sample step's ARBITRARY winners and both
/// passes must fingerprint identically at 1/2/8 threads, and print their
/// [`GOLDEN`] lines.
#[test]
fn sampled_theorem3_is_thread_invariant() {
    for (family, n) in [("powerlaw", 9_000), ("gnm", 11_000)] {
        let baseline = assert_thread_invariant("theorem3", family, n, 5);
        assert_golden(&baseline, "theorem3", family, n, 5);
    }
}

/// The [`GOLDEN`] cases the sampled test above does not run: an unsampled
/// Theorem-3 path, Theorems 1 and 2, Vanilla, and Theorems 1 and 2 on a
/// path PREPARE finishes (the phase loop's early exit).
#[test]
fn golden_counts_are_unchanged() {
    for &(algo, family, n, seed, _) in &GOLDEN[2..] {
        let line = probe(THREAD_COUNTS[0], algo, family, n, seed);
        assert_golden(&line, algo, family, n, seed);
    }
}

/// `mixture` at n = 8 asks its `n / 2`-vertex random part for more edges
/// than 4 vertices hold; the probe caps the count at the complete graph's,
/// so the family builds at small n too.
#[test]
fn small_mixture_is_thread_invariant() {
    assert_thread_invariant("theorem3", "mixture", 8, 1);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// Simulated algorithms: small graphs (a full PRAM simulation per
    /// probe run), every entry point, 3 thread counts.
    #[test]
    fn simulated_entry_points_are_thread_invariant(
        family in family_strategy(),
        n in 24usize..120,
        seed in 0u64..1000,
    ) {
        for algo in SIM_ALGOS {
            assert_thread_invariant(algo, family, n, seed);
        }
    }

    /// The drivers' pooled steps: at the sizes above no driver step
    /// reaches the parallel threshold (4096 processors at 2 threads, 8192
    /// at 8), so here path and gnm graphs carry more than 8192 arcs and
    /// their arc steps run on the pool at 2 and 8 threads. Labels and the
    /// machine counters must not move.
    #[test]
    fn simulated_pooled_steps_are_thread_invariant(
        family in prop_oneof![Just("path"), Just("gnm")],
        n in 6_000usize..12_000,
        seed in 0u64..1000,
    ) {
        for algo in ["theorem1", "theorem3", "vanilla"] {
            assert_thread_invariant(algo, family, n, seed);
        }
    }

    /// Practical ports: larger graphs so the parallel paths genuinely
    /// split work at 2 and 8 threads.
    #[test]
    fn practical_ports_are_thread_invariant(
        family in family_strategy(),
        n in 512usize..4096,
        seed in 0u64..1000,
    ) {
        for algo in PAR_ALGOS {
            assert_thread_invariant(algo, family, n, seed);
        }
    }

    /// The connectivity service: a batched replay (with mid-trace folds
    /// and an empty commit) must publish identical labels and spectrum
    /// counts at every epoch regardless of thread count — the probe
    /// fingerprints the whole published history. The pool runs only the
    /// start-up labeling and each fold's label pass; canonical min-vertex
    /// labeling and writer-ordered epoch assignment erase their races.
    #[test]
    fn svc_replay_is_thread_invariant(
        family in family_strategy(),
        n in 256usize..2048,
        seed in 0u64..1000,
    ) {
        assert_thread_invariant("svc", family, n, seed);
    }

    /// Observability must never touch the determinism surface: spans and
    /// event emission are timing-only, so forcing the runtime toggle
    /// (`LOGDIAM_OBS_SPANS`) off and on must leave every fingerprint —
    /// including the service's per-epoch label fingerprints — bit-identical
    /// at 1, 2, and 8 threads.
    #[test]
    fn spans_toggle_never_changes_fingerprints(
        family in family_strategy(),
        n in 256usize..1024,
        seed in 0u64..1000,
    ) {
        for algo in ["svc", "theorem3", "pram_stress"] {
            let (family, n) = if algo == "pram_stress" { ("path", n + 2048) } else { (family, n) };
            for threads in THREAD_COUNTS {
                let off = probe_env(threads, algo, family, n, seed, &[("LOGDIAM_OBS_SPANS", "0")]);
                let on = probe_env(threads, algo, family, n, seed, &[("LOGDIAM_OBS_SPANS", "1")]);
                assert_eq!(
                    off, on,
                    "{algo} on {family}(n={n}, seed={seed}) at {threads} threads \
                     changes with the observability spans toggle"
                );
            }
        }
    }

    /// Out-of-core edge runs are invisible to every consumer: building a
    /// graph with `LOGDIAM_RUN_SPILL` pointed at a temp dir — and a tiny
    /// `LOGDIAM_RUN_EDGES` cap so many runs genuinely round-trip through
    /// spill files — must fingerprint byte-identically to the all-in-memory
    /// build at every thread count.
    #[test]
    fn spilled_graph_builds_fingerprint_identically(
        family in family_strategy(),
        n in 256usize..2048,
        seed in 0u64..1000,
    ) {
        let spill_dir = std::env::temp_dir();
        let spill_dir = spill_dir.to_str().expect("temp dir path is not UTF-8");
        for threads in THREAD_COUNTS {
            let mem = probe(threads, "graph_build", family, n, seed);
            let spilled = probe_env(
                threads,
                "graph_build",
                family,
                n,
                seed,
                &[("LOGDIAM_RUN_SPILL", spill_dir), ("LOGDIAM_RUN_EDGES", "512")],
            );
            assert_eq!(
                mem, spilled,
                "graph_build on {family}(n={n}, seed={seed}) at {threads} threads \
                 differs between in-memory and spilled edge runs"
            );
        }
    }

    /// Seeded ARBITRARY PRAM runs are bit-identical across thread counts:
    /// the probe fingerprints the full memory image plus traffic counters
    /// after rounds of deliberately conflicting writes. `n` is large
    /// enough that 8·n processors cross the parallel step threshold, and
    /// the `n` words span at least 32 commit blocks of 1024 words, so
    /// every one of the 32 shards an 8-thread machine commits with
    /// receives writes: the sharded parallel commit (not just the
    /// sequential path) is what is being tested.
    #[test]
    fn seeded_pram_runs_are_bit_identical(
        n in 32768usize..40960,
        seed in 0u64..1000,
    ) {
        assert_thread_invariant("pram_stress", "path", n, seed);
    }
}
