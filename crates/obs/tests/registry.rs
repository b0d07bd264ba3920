//! Registry contract tests: concurrent-recording exactness.
//!
//! The stress tests run at std-thread widths 1/2/8 in one process *and*
//! on the rayon pool, whose width CI pins via `RAYON_NUM_THREADS`
//! (the thread-matrix job runs the workspace suite at 2 and native
//! widths) — either way every recorded increment must land: relaxed
//! ordering makes counters approximate in *ordering*, never in *total*.

use logdiam_obs::Registry;
use rayon::prelude::*;

/// Hammer one registry from `threads` std threads; every add and observe
/// must be present in the final snapshot.
fn stress_at(threads: usize) {
    const PER_THREAD: u64 = 20_000;
    let reg = Registry::new();
    reg.set_spans_enabled(true);
    std::thread::scope(|s| {
        for t in 0..threads {
            let reg = reg.clone();
            s.spawn(move || {
                let counter = reg.counter("ops_total");
                let hist = reg.histogram("val");
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.observe(t as u64 * PER_THREAD + i);
                }
            });
        }
    });
    let snap = reg.snapshot();
    snap.validate().unwrap();
    let expected = threads as u64 * PER_THREAD;
    assert_eq!(snap.counters["ops_total"], expected, "at {threads} threads");
    let h = &snap.histograms["val"];
    assert_eq!(h.count, expected);
    assert_eq!(h.max, expected - 1);
    // Exact sum of 0..expected (fits u64 comfortably at this size).
    assert_eq!(h.sum, expected * (expected - 1) / 2);
}

#[test]
fn concurrent_recording_is_exact_at_1_2_8_threads() {
    for threads in [1, 2, 8] {
        stress_at(threads);
    }
}

/// Same exactness on the rayon pool (width = `RAYON_NUM_THREADS`, pinned
/// by the CI thread matrix): chunked parallel iteration over 100k items.
#[test]
fn concurrent_recording_is_exact_on_the_rayon_pool() {
    const N: u64 = 100_000;
    let reg = Registry::new();
    let counter = reg.counter("ops_total");
    let hist = reg.histogram("val");
    (0..N).into_par_iter().for_each(|i| {
        counter.inc();
        hist.observe(i);
    });
    let snap = reg.snapshot();
    snap.validate().unwrap();
    assert_eq!(snap.counters["ops_total"], N);
    assert_eq!(snap.histograms["val"].count, N);
    assert_eq!(snap.histograms["val"].sum, N * (N - 1) / 2);
    assert_eq!(snap.histograms["val"].max, N - 1);
}

/// Snapshots taken *while* recorders run must still validate (count ==
/// Σ buckets), even though they are not a global atomic cut.
#[test]
fn mid_flight_snapshots_always_validate() {
    let reg = Registry::new();
    let hist = reg.histogram("hot");
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let hist = hist.clone();
            let done = &done;
            s.spawn(move || {
                let mut v: u64 = 1;
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    hist.observe(v);
                    v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
            });
        }
        for _ in 0..200 {
            reg.snapshot().validate().unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    reg.snapshot().validate().unwrap();
}
