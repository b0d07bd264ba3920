//! E7 — the paper's positioning: beat `Θ(log n)` algorithms on
//! small-diameter graphs.
//!
//! Two sweeps:
//! * rounds vs `d` at fixed `n` — Theorem 3 should grow with `log d`
//!   while Awerbuch–Shiloach / Vanilla / label propagation sit near their
//!   `log n` plateau;
//! * rounds vs `n` at fixed small `d` — baselines grow with `log n`,
//!   Theorem 3 stays flat-ish (the crossover argument of §1).

use super::common::{diameter_of, faster_runs, mean};
use crate::table::{f, Table};
use crate::Config;
use cc_graph::gen;
use cc_graph::Graph;
use logdiam_cc::baselines::{awerbuch_shiloach, labelprop};
use logdiam_cc::theorem3::FasterParams;
use logdiam_cc::vanilla::vanilla;
use logdiam_cc::verify::check_labels;
use pram_sim::{Pram, WritePolicy};

fn baseline_rounds(g: &Graph, seeds: std::ops::Range<u64>) -> (f64, f64, f64) {
    let mut a = Vec::new();
    let mut v = Vec::new();
    let mut l = Vec::new();
    for seed in seeds {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let r = awerbuch_shiloach(&mut pram, g);
        check_labels(g, &r.labels).unwrap();
        a.push(r.rounds as f64);
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let r = vanilla(&mut pram, g, seed);
        check_labels(g, &r.labels).unwrap();
        v.push(r.rounds as f64);
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let r = labelprop(&mut pram, g);
        check_labels(g, &r.labels).unwrap();
        l.push(r.rounds as f64);
    }
    (mean(&a), mean(&v), mean(&l))
}

pub(super) fn run(cfg: &Config) -> Vec<Table> {
    let params = FasterParams::default();
    let seeds = if cfg.full { 0..4u64 } else { 0..2u64 };

    let mut t = Table::new(
        "E7 — rounds vs diameter at fixed n (clique chains, n = 1024)",
        "Theorem 3 rounds should track log₂ d; the O(log n) baselines are \
         roughly flat in d (their cost is set by n). Columns report outer \
         rounds/phases of each algorithm (each O(1) simulated steps except \
         the charged primitives of ARCHITECTURE.md's accounting model).",
        &[
            "k",
            "d",
            "T3 rounds",
            "T3+post",
            "AS",
            "Vanilla",
            "LabelProp",
        ],
    );
    for &k in &[2usize, 8, 32, 128] {
        let s = 1024 / k;
        let g = gen::clique_chain(k, s.max(2));
        let d = diameter_of(&g);
        let reports = faster_runs(&g, &params, seeds.clone());
        let t3 = mean(
            &reports
                .iter()
                .map(|r| r.run.rounds as f64)
                .collect::<Vec<_>>(),
        );
        let t3p = mean(
            &reports
                .iter()
                .map(|r| (r.run.rounds + r.post.rounds) as f64)
                .collect::<Vec<_>>(),
        );
        let (a, v, l) = baseline_rounds(&g, seeds.clone());
        t.row(vec![
            k.to_string(),
            d.to_string(),
            f(t3),
            f(t3p),
            f(a),
            f(v),
            f(l),
        ]);
    }

    let mut t2 = Table::new(
        "E7b — rounds vs n at fixed small diameter (G(n, 8n))",
        "Baselines grow with log n; Theorem 3 stays nearly flat (its cost is \
         log d + log log n).",
        &["n", "d(≥)", "T3 rounds", "AS", "Vanilla", "LabelProp"],
    );
    let ns: &[usize] = if cfg.full {
        &[512, 2048, 8192, 32768]
    } else {
        &[512, 2048, 8192]
    };
    for &n in ns {
        let g = gen::gnm(n, 8 * n, cfg.seed ^ n as u64);
        let d = diameter_of(&g);
        let reports = faster_runs(&g, &params, seeds.clone());
        let t3 = mean(
            &reports
                .iter()
                .map(|r| r.run.rounds as f64)
                .collect::<Vec<_>>(),
        );
        let (a, v, l) = baseline_rounds(&g, seeds.clone());
        t2.row(vec![n.to_string(), d.to_string(), f(t3), f(a), f(v), f(l)]);
    }
    vec![t, t2]
}
