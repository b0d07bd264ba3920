//! # `logdiam` — Connected Components on a PRAM in Log Diameter Time
//!
//! A from-scratch reproduction of **Liu, Tarjan, Zhong (SPAA 2020)**:
//! randomized ARBITRARY CRCW PRAM algorithms that compute connected
//! components and spanning forests in `O(log d + log log_{m/n} n)` /
//! `O(log d · log log_{m/n} n)` time with `O(m)` processors, where `d` is
//! the maximum component diameter.
//!
//! The workspace layers:
//!
//! | crate | contents |
//! |---|---|
//! | [`pram`] (`pram-sim`) | the CRCW PRAM simulator (ARBITRARY / PRIORITY / COMBINING) |
//! | [`kit`] (`pram-kit`) | pairwise-independent hashing, approximate compaction, SHORTCUT/ALTER |
//! | [`graph`] (`cc-graph`) | CSR graphs, workload generators, sequential ground truth |
//! | [`algorithms`] (`logdiam-cc`) | Theorems 1–3 plus classic baselines, on the simulator |
//! | [`parallel`] (`logdiam-par`) | practical rayon/atomics ports for wall-clock benches |
//! | [`service`] (`logdiam-svc`) | incremental connectivity service: batched edge streams, epoch snapshots, query API |
//! | [`obs`] (`logdiam-obs`) | observability: metrics registry, spans, structured telemetry events |
//!
//! ## Quickstart
//!
//! ```
//! use logdiam::prelude::*;
//!
//! // A low-diameter graph: 8 cliques of 16 vertices in a chain.
//! let g = logdiam::graph::gen::clique_chain(8, 16);
//!
//! // The paper's Theorem-3 algorithm on a simulated ARBITRARY CRCW PRAM.
//! let mut pram = Pram::new(WritePolicy::ArbitrarySeeded(42));
//! let report = faster_cc(&mut pram, &g, 42, &FasterParams::default());
//! assert!(check_labels(&g, &report.run.labels).is_ok());
//! println!("EXPAND-MAXLINK rounds: {}", report.run.rounds);
//!
//! // The practical shared-memory port.
//! let labels = logdiam::parallel::unionfind::unionfind_cc(&g);
//! assert_eq!(labels[0], 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cc_graph as graph;
pub use logdiam_cc as algorithms;
pub use logdiam_obs as obs;
pub use logdiam_par as parallel;
pub use logdiam_svc as service;
pub use pram_kit as kit;
pub use pram_sim as pram;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::algorithms::theorem1::{connected_components, Theorem1Params};
    pub use crate::algorithms::theorem2::spanning_forest;
    pub use crate::algorithms::theorem3::{faster_cc, FasterParams};
    pub use crate::algorithms::verify::{check_labels, check_spanning_forest};
    pub use crate::pram::{Pram, WritePolicy};
    pub use crate::service::{ConnectivityService, EpochTicket, SvcParams};
}

use graph::Graph;

/// One-call connected components (practical shared-memory implementation;
/// labels are minimum-vertex representatives).
pub fn connected_components(g: &Graph) -> Vec<u32> {
    parallel::unionfind::unionfind_cc(g)
}

/// One-call simulated run of the paper's Theorem-3 algorithm; returns the
/// verified labeling and the simulated round count.
pub fn simulate_faster_cc(g: &Graph, seed: u64) -> (Vec<u32>, u64) {
    let mut pram = pram::Pram::new(pram::WritePolicy::ArbitrarySeeded(seed));
    let report = algorithms::theorem3::faster_cc(
        &mut pram,
        g,
        seed,
        &algorithms::theorem3::FasterParams::default(),
    );
    algorithms::verify::check_labels(g, &report.run.labels)
        .expect("simulated run produced an invalid labeling");
    (report.run.labels, report.run.rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_call_apis_agree() {
        let g = graph::gen::gnm(300, 900, 1);
        let a = connected_components(&g);
        let (b, rounds) = simulate_faster_cc(&g, 7);
        assert!(graph::seq::same_partition(&a, &b));
        assert!(rounds > 0);
    }
}
