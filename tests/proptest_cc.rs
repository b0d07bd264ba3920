//! Property-based tests: random graphs × random seeds × random parameters
//! ⇒ every algorithm's output partition equals the sequential ground truth,
//! and every structural invariant holds.

use logdiam::algorithms::theorem1::{self, DensityMode, Theorem1Params};
use logdiam::algorithms::theorem2::spanning_forest;
use logdiam::algorithms::theorem3::{faster_cc, FasterParams};
use logdiam::algorithms::verify::{check_labels, check_spanning_forest};
use logdiam::graph::{gen, Graph, GraphBuilder};
use logdiam::pram::{Pram, WritePolicy};
use proptest::prelude::*;

/// Strategy: a random graph from a random family.
fn arb_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        // G(n, m)
        (20usize..200, 0usize..4, any::<u64>()).prop_map(|(n, dens, seed)| {
            let m = (n * (dens + 1)).min(n * (n - 1) / 2);
            gen::gnm(n, m, seed)
        }),
        // structured families
        (2usize..40, 2usize..8).prop_map(|(k, s)| gen::clique_chain(k, s)),
        (2usize..18, 2usize..18).prop_map(|(r, c)| gen::grid(r, c)),
        (10usize..200).prop_map(gen::path),
        (3usize..120).prop_map(gen::cycle),
        (10usize..200, any::<u64>()).prop_map(|(n, s)| gen::random_tree(n, s)),
        // sparse random edge soup with isolated vertices
        (
            10usize..120,
            proptest::collection::vec((0u32..120, 0u32..120), 0..200)
        )
            .prop_map(|(n, pairs)| {
                let mut b = GraphBuilder::new(n);
                for (u, v) in pairs {
                    if (u as usize) < n && (v as usize) < n {
                        b.add_edge(u, v);
                    }
                }
                b.build()
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn theorem3_matches_ground_truth(g in arb_graph(), seed in any::<u64>()) {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let r = faster_cc(&mut pram, &g, seed, &FasterParams::default());
        prop_assert!(check_labels(&g, &r.run.labels).is_ok());
    }

    #[test]
    fn theorem1_matches_ground_truth(
        g in arb_graph(),
        seed in any::<u64>(),
        combining in any::<bool>(),
    ) {
        let params = Theorem1Params {
            density: if combining { DensityMode::Combining } else { DensityMode::NTildeRule },
            ..Default::default()
        };
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let r = theorem1::connected_components(&mut pram, &g, seed, &params);
        prop_assert!(check_labels(&g, &r.labels).is_ok());
    }

    #[test]
    fn spanning_forest_always_valid(g in arb_graph(), seed in any::<u64>()) {
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let r = spanning_forest(&mut pram, &g, seed, &Theorem1Params::default());
        prop_assert!(check_spanning_forest(&g, &r.forest_edges).is_ok());
        prop_assert!(check_labels(&g, &r.labels).is_ok());
    }

    #[test]
    fn theorem3_parameter_fuzz(
        g in arb_graph(),
        seed in any::<u64>(),
        kappa in 1.2f64..4.0,
        sampling in any::<bool>(),
        iters in 1u32..3,
        b1 in prop_oneof![Just(0u64), Just(4u64), Just(16u64), Just(64u64)],
    ) {
        // The machinery must be correct for ANY parameter setting — speed
        // is what the parameters tune, never correctness.
        let params = FasterParams {
            kappa,
            enable_sampling: sampling,
            maxlink_iters: iters,
            b1,
            ..Default::default()
        };
        let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(seed));
        let r = faster_cc(&mut pram, &g, seed, &params);
        prop_assert!(check_labels(&g, &r.run.labels).is_ok());
    }
}
