//! Fast CI signal (<5s): the three public entry points agree with the
//! sequential ground truth on one tiny graph per shape class. The heavier
//! suites (`cross_check`, `end_to_end`, `proptest_cc`,
//! `simulator_semantics`) cover the same ground exhaustively; this one
//! exists so a broken build fails in seconds, not minutes.

use logdiam::algorithms::theorem1::Theorem1Params;
use logdiam::graph::seq::{components, num_components, same_partition};
use logdiam::graph::{gen, Graph, GraphBuilder};
use logdiam::prelude::*;

/// One tiny instance per shape class the paper's bounds care about:
/// high-diameter (path), low-diameter dense (clique chain), and
/// multi-component with isolated vertices.
fn smoke_graphs() -> Vec<(&'static str, Graph)> {
    let mut disconnected = GraphBuilder::new(12);
    // {0,1,2} a triangle, {3,4} an edge, 5..12 isolated.
    disconnected.add_edge(0, 1);
    disconnected.add_edge(1, 2);
    disconnected.add_edge(0, 2);
    disconnected.add_edge(3, 4);
    vec![
        ("path_32", gen::path(32)),
        ("clique_chain_4x5", gen::clique_chain(4, 5)),
        ("disconnected_12", disconnected.build()),
        // Two K₁₂ joined by one bridge: dense enough that Theorem 3
        // samples, and at seed 0xC0FFEE the sample misses the bridge, so
        // the survivor pass runs too.
        ("two_blobs_bridged", gen::barbell(12, 0)),
    ]
}

#[test]
fn connected_components_matches_ground_truth() {
    for (name, g) in smoke_graphs() {
        let got = logdiam::connected_components(&g);
        assert!(
            same_partition(&got, &components(&g)),
            "practical CC wrong on {name}"
        );
    }
}

#[test]
fn simulate_faster_cc_matches_ground_truth() {
    for (name, g) in smoke_graphs() {
        let (labels, rounds) = logdiam::simulate_faster_cc(&g, 0xC0FFEE);
        assert!(
            same_partition(&labels, &components(&g)),
            "simulated Theorem 3 wrong on {name}"
        );
        assert!(rounds > 0, "no simulated rounds recorded on {name}");
    }
}

#[test]
fn spanning_forest_valid_with_correct_edge_count() {
    for (name, g) in smoke_graphs() {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(7));
        let r = spanning_forest(&mut pram, &g, 7, &Theorem1Params::default());
        check_spanning_forest(&g, &r.forest_edges).unwrap_or_else(|e| {
            panic!("invalid forest on {name}: {e:?}");
        });
        assert!(
            same_partition(&r.labels, &components(&g)),
            "forest labels wrong on {name}"
        );
        // A forest has exactly n - #components edges.
        assert_eq!(
            r.forest_edges.len(),
            g.n() - num_components(&g),
            "forest edge count wrong on {name}"
        );
    }
}
