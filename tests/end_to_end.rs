//! End-to-end integration: generator → simulated algorithm → verifier,
//! across all algorithms, workload shapes, seeds and write policies.

use logdiam::algorithms::baselines::{awerbuch_shiloach, labelprop};
use logdiam::algorithms::theorem1::{self, DensityMode, Theorem1Params};
use logdiam::algorithms::theorem2::spanning_forest;
use logdiam::algorithms::theorem3::{faster_cc, FasterParams};
use logdiam::algorithms::vanilla::vanilla;
use logdiam::algorithms::verify::{check_labels, check_spanning_forest};
use logdiam::graph::{gen, Graph};
use logdiam::pram::{Pram, WritePolicy};

fn workload_suite(seed: u64) -> Vec<(String, Graph)> {
    vec![
        ("path(257)".into(), gen::path(257)),
        ("cycle(100)".into(), gen::cycle(100)),
        ("star(200)".into(), gen::star(200)),
        ("complete(40)".into(), gen::complete(40)),
        ("grid(12,17)".into(), gen::grid(12, 17)),
        ("torus(8,9)".into(), gen::torus(8, 9)),
        ("hypercube(7)".into(), gen::hypercube(7)),
        ("binary_tree(255)".into(), gen::binary_tree(255)),
        ("random_tree(300)".into(), gen::random_tree(300, seed)),
        ("spider(7,20)".into(), gen::spider(7, 20)),
        ("caterpillar(30,4)".into(), gen::caterpillar(30, 4)),
        ("broom(40,25)".into(), gen::broom(40, 25)),
        ("lollipop(20,40)".into(), gen::lollipop(20, 40)),
        ("barbell(15,9)".into(), gen::barbell(15, 9)),
        ("clique_chain(16,8)".into(), gen::clique_chain(16, 8)),
        (
            "hairy_clique_path(20,5)".into(),
            gen::hairy_clique_path(20, 5, seed),
        ),
        ("gnm(400,1100)".into(), gen::gnm(400, 1100, seed)),
        ("gnp(300,0.02)".into(), gen::gnp(300, 0.02, seed)),
        (
            "random_regular(256,4)".into(),
            gen::random_regular(256, 4, seed),
        ),
        (
            "mixture".into(),
            gen::union_all(&[
                gen::path(40),
                gen::complete(12),
                gen::star(25),
                gen::gnm(120, 300, seed ^ 1),
                gen::binary_tree(63),
            ]),
        ),
        (
            "scrambled grid".into(),
            gen::scramble(&gen::grid(10, 14), seed ^ 2),
        ),
        (
            "edgeless(17)".into(),
            logdiam::graph::GraphBuilder::new(17).build(),
        ),
    ]
}

#[test]
fn faster_cc_on_full_workload_suite() {
    let params = FasterParams::default();
    for (name, g) in workload_suite(3) {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(5));
        let report = faster_cc(&mut pram, &g, 5, &params);
        check_labels(&g, &report.run.labels).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn theorem1_on_full_workload_suite() {
    let params = Theorem1Params::default();
    for (name, g) in workload_suite(7) {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(11));
        let report = theorem1::connected_components(&mut pram, &g, 11, &params);
        check_labels(&g, &report.labels).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn spanning_forest_on_full_workload_suite() {
    let params = Theorem1Params::default();
    for (name, g) in workload_suite(13) {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(17));
        let report = spanning_forest(&mut pram, &g, 17, &params);
        check_spanning_forest(&g, &report.forest_edges).unwrap_or_else(|e| panic!("{name}: {e}"));
        check_labels(&g, &report.labels).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn baselines_on_full_workload_suite() {
    for (name, g) in workload_suite(19) {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(23));
        let r = awerbuch_shiloach(&mut pram, &g);
        check_labels(&g, &r.labels).unwrap_or_else(|e| panic!("AS {name}: {e}"));
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(23));
        let r = labelprop(&mut pram, &g);
        check_labels(&g, &r.labels).unwrap_or_else(|e| panic!("LP {name}: {e}"));
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(23));
        let r = vanilla(&mut pram, &g, 23);
        check_labels(&g, &r.labels).unwrap_or_else(|e| panic!("Vanilla {name}: {e}"));
    }
}

#[test]
fn every_algorithm_under_every_write_policy() {
    let g = gen::union_all(&[gen::gnm(150, 400, 2), gen::clique_chain(8, 5)]);
    let policies = [
        WritePolicy::ArbitrarySeeded(1),
        WritePolicy::ArbitrarySeeded(0xDEAD),
        WritePolicy::PriorityMin,
        WritePolicy::PriorityMax,
    ];
    for policy in policies {
        let mut pram = Pram::new(policy);
        let r = faster_cc(&mut pram, &g, 9, &FasterParams::default());
        check_labels(&g, &r.run.labels).unwrap();

        let mut pram = Pram::new(policy);
        let r = theorem1::connected_components(&mut pram, &g, 9, &Theorem1Params::default());
        check_labels(&g, &r.labels).unwrap();

        let mut pram = Pram::new(policy);
        let r = spanning_forest(&mut pram, &g, 9, &Theorem1Params::default());
        check_spanning_forest(&g, &r.forest_edges).unwrap();
    }
}

#[test]
fn density_modes_cross_check() {
    // The §B.5 ñ rule (pure ARBITRARY) and the COMBINING count must both
    // converge to correct answers on the same inputs.
    let g = gen::gnm(500, 2000, 21);
    for density in [DensityMode::Combining, DensityMode::NTildeRule] {
        let params = Theorem1Params {
            density,
            ..Default::default()
        };
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(31));
        let r = theorem1::connected_components(&mut pram, &g, 31, &params);
        check_labels(&g, &r.labels).unwrap();
    }
}

#[test]
fn many_seeds_never_wrong() {
    let g = gen::gnm(300, 900, 5);
    for seed in 0..25u64 {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let r = faster_cc(&mut pram, &g, seed, &FasterParams::default());
        check_labels(&g, &r.run.labels).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}
