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
//! deterministic, so failures reproduce exactly).

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

/// Assert one (algo, graph) case fingerprints identically at 1/2/8 threads.
fn assert_thread_invariant(algo: &str, family: &str, n: usize, seed: u64) {
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
/// passes must fingerprint identically at 1/2/8 threads.
#[test]
fn sampled_theorem3_is_thread_invariant() {
    for (family, n) in [("powerlaw", 9_000), ("gnm", 11_000)] {
        assert_thread_invariant("theorem3", family, n, 5);
    }
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
    /// after rounds of deliberately conflicting writes, most of whose
    /// values escape a narrow cell. `n` is large enough that 8·n
    /// processors cross the parallel step threshold, and the `n` words
    /// span at least 32 commit blocks of 1024 words, so every one of the
    /// 32 shards an 8-thread machine commits with receives writes: the
    /// sharded parallel commit (not just the sequential path) is what is
    /// being tested.
    #[test]
    fn seeded_pram_runs_are_bit_identical(
        n in 32768usize..40960,
        seed in 0u64..1000,
    ) {
        assert_thread_invariant("pram_stress", "path", n, seed);
    }
}
