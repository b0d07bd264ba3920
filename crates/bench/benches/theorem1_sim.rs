//! E2/E11 companion: simulated Theorem-1 runs and a single EXPAND phase.

use criterion::{criterion_group, criterion_main, Criterion};
use logdiam_cc::theorem1::{self, expand, ExpandParams, ExpandScratch, Theorem1Params};
use logdiam_cc::CcState;
use pram_sim::{Pram, WritePolicy};
use std::hint::black_box;

fn bench_theorem1(c: &mut Criterion) {
    let params = Theorem1Params::default();
    let mut group = c.benchmark_group("e2_theorem1_simulated");
    group.sample_size(10);
    for (name, g) in [
        ("gnm_2k_16k", cc_graph::gen::gnm(2000, 16_000, 3)),
        ("cycle_1k", cc_graph::gen::cycle(1000)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(4));
                black_box(theorem1::connected_components(&mut pram, &g, 4, &params))
            })
        });
    }
    // One EXPAND on a fixed machine state (the O(log d) inner loop alone).
    group.bench_function("expand_only_cycle_512", |b| {
        let g = cc_graph::gen::cycle(512);
        b.iter(|| {
            let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(6));
            let st = CcState::init(&mut pram, &g);
            let live = logdiam_cc::live::LiveSet::full(&mut pram, &st);
            let mut scratch = ExpandScratch::new(&mut pram, st.n);
            let e = expand(
                &mut pram,
                &st,
                &ExpandParams {
                    table_size: 64,
                    nblocks: 4096,
                    snapshot: false,
                    round_cap: 16,
                },
                6,
                &live,
                &mut scratch,
            );
            black_box(e.rounds)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_theorem1);
criterion_main!(benches);
