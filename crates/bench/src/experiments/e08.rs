//! E8 — wall-clock of the practical shared-memory ports.
//!
//! The paper's practicality claim (§A.3) is that hashing-based CC avoids
//! sorting and "should be preferable in practice". Measured: median
//! wall-clock of each `logdiam-par` implementation plus the sequential
//! union–find yardstick.

use super::common::time_ms;
use crate::table::{f, Table};
use crate::Config;
use cc_graph::gen;
use cc_graph::seq::{components, same_partition};
use logdiam_par::{
    contract::contract_cc, labelprop::labelprop_cc, sv::sv_cc, unionfind::unionfind_cc,
};
use pram_sim::{Pram, WritePolicy};

pub(super) fn run(cfg: &Config) -> Vec<Table> {
    let scale = if cfg.full { 4 } else { 1 };
    let reps = if cfg.full { 5 } else { 3 };
    let graphs: Vec<(&str, cc_graph::Graph)> = vec![
        (
            "gnm n=100k m=500k",
            gen::gnm(100_000 * scale, 500_000 * scale, cfg.seed),
        ),
        ("grid 400x250", gen::grid(400, 250 * scale)),
        ("path 100k", gen::path(100_000 * scale)),
        (
            "mixture",
            gen::union_all(&[
                gen::gnm(50_000 * scale, 200_000 * scale, cfg.seed ^ 1),
                gen::path(20_000 * scale),
                gen::star(10_000 * scale),
            ]),
        ),
    ];

    // Report the thread count a machine actually records, not just the
    // pool's claim — the same field every simulated experiment carries.
    let host_threads = Pram::new(WritePolicy::ArbitrarySeeded(cfg.seed))
        .stats()
        .host_threads;
    let mut t = Table::new(
        format!("E8 — wall-clock (ms, median of {reps}) on {host_threads} threads"),
        "Practical ports: concurrent union-find is the yardstick; label \
         propagation and alter-and-contract are the paper-flavoured \
         hashing/contraction algorithms; seq-DSU is the O(m α) sequential bound.",
        &[
            "graph",
            "n",
            "m",
            "unionfind",
            "labelprop",
            "sv",
            "contract",
            "seq dsu",
        ],
    );
    for (name, g) in &graphs {
        // Check each port once, outside the timer: the check costs more
        // than some of the calls it checks.
        let truth = components(g);
        for labels in [unionfind_cc(g), labelprop_cc(g), sv_cc(g), contract_cc(g)] {
            assert!(same_partition(&labels, &truth), "E8 wrong labels");
        }

        let uf = time_ms(reps, || unionfind_cc(g));
        let lp = time_ms(reps, || labelprop_cc(g));
        let sv = time_ms(reps, || sv_cc(g));
        let ct = time_ms(reps, || contract_cc(g));
        let seq = time_ms(reps, || components(g));
        t.row(vec![
            name.to_string(),
            g.n().to_string(),
            g.m().to_string(),
            f(uf),
            f(lp),
            f(sv),
            f(ct),
            f(seq),
        ]);
    }
    vec![t]
}
