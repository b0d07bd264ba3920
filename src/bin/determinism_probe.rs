//! `determinism_probe` — one CC entry point, one graph, one fingerprint.
//!
//! Helper binary for `tests/determinism.rs`: the rayon pool size is fixed
//! per process at first use, so comparing runs at different
//! `RAYON_NUM_THREADS` requires one process per thread count. The test
//! spawns this probe and compares stdout byte-for-byte.
//!
//! ```text
//! determinism_probe <algo> <family> <n> <seed>
//! ```
//!
//! Prints `<fingerprint-hex> <extra>` where the fingerprint hashes the
//! full component labeling (or, for `pram_stress`, the full memory image
//! and traffic counters — bit-identical across thread counts by the
//! sharded-commit design). For the simulated algorithms `<extra>` also
//! carries the machine's `reads`, `writes`, `work`, `steps`,
//! `max_ops_per_proc` and `peak_words`.

use logdiam::graph::{gen, Graph};
use logdiam::pram::{Pram, WritePolicy};

/// FNV-1a over a `u32` stream: tiny, dependency-free, and order-sensitive
/// (a permuted labeling fingerprints differently).
fn fnv1a(xs: impl IntoIterator<Item = u32>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn graph_for(family: &str, n: usize, seed: u64) -> Graph {
    match family {
        "path" => gen::path(n),
        "grid" => gen::grid(n.max(4) / 4, 4),
        "gnm" => gen::gnm(n, 3 * n, seed),
        "powerlaw" => gen::preferential_attachment(n, 3, seed),
        "mixture" => {
            // n edges on n / 2 vertices, capped at the complete graph's
            // count so that small n still builds.
            let half = n / 2;
            gen::union_all(&[
                gen::gnm(half, n.min(half * half.saturating_sub(1) / 2), seed),
                gen::path(n / 4),
                gen::star(n.max(4) / 4),
            ])
        }
        other => panic!("unknown family {other}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let [_, algo, family, n, seed] = &args[..] else {
        eprintln!("usage: determinism_probe <algo> <family> <n> <seed>");
        std::process::exit(2);
    };
    let n: usize = n.parse().expect("n must be a number");
    let seed: u64 = seed.parse().expect("seed must be a number");

    // `pram_stress` needs no graph: it hammers one machine with
    // conflicting writes of 31-bit values and fingerprints everything
    // observable.
    if algo == "pram_stress" {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let xs = pram.alloc(n);
        for round in 0..8u64 {
            pram.step(8 * n, |p, ctx| {
                let r = ctx.rand(round);
                let i = (r % n as u64) as usize;
                let v = ctx.read(xs, i);
                ctx.write(xs, i, v ^ (r >> 33) ^ p);
            });
        }
        let stats = pram.stats();
        let mem = fnv1a(pram.view(xs).iter().map(|w| w as u32));
        println!(
            "{mem:016x} reads={} writes={} conflicts={} max_ops={}",
            stats.reads, stats.writes, stats.write_conflicts, stats.max_ops_per_proc
        );
        return;
    }

    // `svc` replays a batched edge stream through the connectivity
    // service (small rebuild threshold so the fold path runs mid-trace)
    // and fingerprints every published epoch: its labels and every
    // `Spectrum` count. The whole maintained history must be identical at
    // any thread count (the async split's core invariant: epoch
    // assignment is totally ordered by the writer, labels are canonical).
    if algo == "svc" {
        use logdiam::service::{ConnectivityService, SvcParams};
        let g = graph_for(family, n, seed);
        let mut edges = g.edges().to_vec();
        logdiam::graph::Rng::new(seed ^ 0x57EA4).shuffle(&mut edges);
        let (initial_edges, stream) = edges.split_at(edges.len() / 2);
        let mut b = logdiam::graph::GraphBuilder::new(g.n());
        for &(u, v) in initial_edges {
            b.add_edge(u, v);
        }
        let svc = ConnectivityService::new(
            b.build(),
            SvcParams {
                rebuild_threshold: 48,
                snapshot_history: 4,
                ..SvcParams::default()
            },
        );
        let epoch_fingerprint = || {
            let snap = svc.latest();
            let sp = snap.spectrum();
            let counts = [
                sp.epoch,
                sp.n as u64,
                sp.base_m as u64,
                sp.delta_edges as u64,
                sp.components as u64,
                sp.largest_component as u64,
                sp.isolated_vertices as u64,
                sp.rebuilds,
            ];
            let counts = counts
                .into_iter()
                .flat_map(|c| [c as u32, (c >> 32) as u32]);
            fnv1a(snap.labels().iter().copied().chain(counts))
        };
        let mut acc = epoch_fingerprint();
        for chunk in stream.chunks(17) {
            svc.apply_batch(chunk).wait().unwrap();
            acc = acc.rotate_left(1).wrapping_add(epoch_fingerprint());
        }
        svc.apply_batch(&[]).wait().unwrap(); // empty commit must be deterministic too
        acc = acc.rotate_left(1).wrapping_add(epoch_fingerprint());
        let sp = svc.spectrum();
        println!(
            "{acc:016x} epoch={} components={} rebuilds={}",
            sp.epoch, sp.components, sp.rebuilds
        );
        return;
    }

    // `graph_build` fingerprints the built graph itself (the canonical
    // edge list), no CC run attached: the spill arm of the determinism
    // suite compares this with `LOGDIAM_RUN_SPILL` set and unset — an
    // out-of-core build must produce the byte-identical CSR.
    if algo == "graph_build" {
        let g = graph_for(family, n, seed);
        let fp = fnv1a(g.edges().iter().flat_map(|&(u, v)| [u, v]));
        println!("{fp:016x} n={} m={}", g.n(), g.m());
        return;
    }

    let g = graph_for(family, n, seed);
    // Every simulated arm runs on this seeded-ARBITRARY machine.
    let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
    let labels: Vec<u32> = match algo.as_str() {
        // --- simulated (logdiam-cc) ---
        "theorem1" => {
            logdiam::algorithms::theorem1::connected_components(
                &mut pram,
                &g,
                seed,
                &logdiam::algorithms::theorem1::Theorem1Params::default(),
            )
            .labels
        }
        "theorem2" => {
            logdiam::algorithms::theorem2::spanning_forest(
                &mut pram,
                &g,
                seed,
                &logdiam::algorithms::theorem1::Theorem1Params::default(),
            )
            .labels
        }
        "theorem3" => {
            logdiam::algorithms::theorem3::faster_cc(
                &mut pram,
                &g,
                seed,
                &logdiam::algorithms::theorem3::FasterParams::default(),
            )
            .run
            .labels
        }
        "vanilla" => logdiam::algorithms::vanilla::vanilla(&mut pram, &g, seed).labels,
        "awerbuch_shiloach" => {
            logdiam::algorithms::baselines::awerbuch_shiloach(&mut pram, &g).labels
        }
        "labelprop_sim" => logdiam::algorithms::baselines::labelprop(&mut pram, &g).labels,
        // --- practical shared-memory ports (logdiam-par) ---
        "par_labelprop" => logdiam::parallel::labelprop::labelprop_cc(&g),
        "par_unionfind" => logdiam::parallel::unionfind::unionfind_cc(&g),
        "par_sv" => logdiam::parallel::sv::sv_cc(&g),
        "par_contract" => logdiam::parallel::contract::contract_cc(&g),
        "par_bfs" => logdiam::parallel::bfs::bfs_cc(&g),
        other => panic!("unknown algorithm {other}"),
    };
    print!("{:016x} n={}", fnv1a(labels.iter().copied()), labels.len());
    // The simulated arms also print the machine's counters, so a count
    // that drifts with the thread count fails the suite like a label does.
    if !algo.starts_with("par_") {
        let s = pram.stats();
        print!(
            " reads={} writes={} work={} steps={} max_ops={} peak_words={}",
            s.reads, s.writes, s.work, s.steps, s.max_ops_per_proc, s.peak_words
        );
    }
    println!();
}
