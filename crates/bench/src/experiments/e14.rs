//! E14 (supplementary) — ARBITRARY means *arbitrary*: write-resolution
//! sensitivity.
//!
//! The paper's machine only guarantees that *some* concurrent writer
//! wins. This experiment runs Theorem 3 under four different resolution
//! rules (two seeded-arbitrary machines and both PRIORITY orders).
//! Expected: correct labels under all of them (asserted) and round counts
//! in the same narrow band — the algorithm's performance does not
//! secretly depend on a favourable resolution. Every machine counts the
//! write conflicts it resolved.

use super::common::diameter_of;
use crate::table::Table;
use crate::Config;
use cc_graph::gen;
use logdiam_cc::theorem3::{faster_cc, FasterParams};
use logdiam_cc::verify::check_labels;
use pram_sim::{Pram, WritePolicy};

pub(super) fn run(cfg: &Config) -> Vec<Table> {
    let g = gen::clique_chain(if cfg.full { 64 } else { 32 }, 8);
    let params = FasterParams::default();
    let mut t = Table::new(
        format!(
            "E14 — write-policy sensitivity on clique_chain (n = {}, d = {})",
            g.n(),
            diameter_of(&g)
        ),
        "Correctness is asserted per run; rounds should sit in a narrow band \
         across resolution rules. Write conflicts count the writes that hit \
         a cell already written in the same step — non-zero conflicts show \
         the algorithm genuinely needs the CRCW model.",
        &["policy", "rounds", "post phases", "write conflicts"],
    );
    let policies: Vec<(String, WritePolicy)> = vec![
        ("arbitrary(seed=1)".into(), WritePolicy::ArbitrarySeeded(1)),
        ("arbitrary(seed=2)".into(), WritePolicy::ArbitrarySeeded(2)),
        ("priority(min)".into(), WritePolicy::PriorityMin),
        ("priority(max)".into(), WritePolicy::PriorityMax),
    ];
    for (name, policy) in policies {
        let mut pram = Pram::new(policy);
        let r = faster_cc(&mut pram, &g, cfg.seed, &params);
        check_labels(&g, &r.run.labels).expect("E14: wrong labels");
        t.row(vec![
            name,
            r.run.rounds.to_string(),
            r.post.rounds.to_string(),
            r.run.stats.write_conflicts.to_string(),
        ]);
    }
    vec![t]
}
