//! Workload names, input sizes and seeded input generation.
//!
//! Inputs are `cc_graph::gen` graphs turned into an edge stream: every edge
//! once, in an order shuffled by the seed and with a seeded orientation.
//! The program only ever receives the stream (and, on the service, batches
//! cut from it), never the generator's graph.

use cc_graph::{gen, Graph, Rng};

/// The benchmark's workloads (see `BENCHMARK.json` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `faster_cc` on a path: the d ≈ n shape.
    SimPath,
    /// `faster_cc` on preferential attachment (m/n ≈ 4).
    SimPowerlaw,
    /// CSR build from a shuffled grid stream, then `unionfind_cc`.
    PracticalGrid,
    /// A durable service on the mixture graph under writes and reads.
    SvcMixture,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SimPath,
        Workload::SimPowerlaw,
        Workload::PracticalGrid,
        Workload::SvcMixture,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimPath => "sim-path",
            Workload::SimPowerlaw => "sim-powerlaw",
            Workload::PracticalGrid => "practical-grid",
            Workload::SvcMixture => "svc-mixture",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input scale: `Full` is the benchmark; `Tiny` exists for the
/// benchmark's own tests and finishes in well under a second.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured sizes.
    Full,
    /// Small sizes that exercise every code path.
    Tiny,
}

impl Size {
    /// Parse `full` / `tiny`.
    pub fn parse(s: &str) -> Option<Size> {
        match s {
            "full" => Some(Size::Full),
            "tiny" => Some(Size::Tiny),
            _ => None,
        }
    }

    /// The flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// One workload's input: a vertex count and its edge stream.
pub struct Input {
    /// Vertices `0..n`.
    pub n: usize,
    /// Every edge once, shuffled and oriented by the seed.
    pub edges: Vec<(u32, u32)>,
}

/// The graph a workload streams, at `size`, for `seed`.
pub fn graph(w: Workload, size: Size, seed: u64) -> Graph {
    let full = size == Size::Full;
    match w {
        Workload::SimPath => gen::path(if full { 500_000 } else { 3_000 }),
        Workload::SimPowerlaw => {
            gen::preferential_attachment(if full { 100_000 } else { 1_000 }, 4, seed)
        }
        Workload::PracticalGrid => {
            let side = if full { 3_162 } else { 60 };
            gen::grid(side, side)
        }
        Workload::SvcMixture => {
            // Dense random part, long path and giant star in one graph.
            let n = if full { 100_000 } else { 3_000 };
            gen::union_all(&[
                gen::gnm(n / 2, 2 * n, seed ^ 1),
                gen::path(n / 4),
                gen::star(n / 4),
            ])
        }
    }
}

/// The workload's input stream for `seed`.
pub fn input(w: Workload, size: Size, seed: u64) -> Input {
    let g = graph(w, size, seed);
    Input {
        n: g.n(),
        edges: stream(&g, seed),
    }
}

/// The part of a stream that builds the CSR: all of it, except on the
/// service, whose initial graph is the first half (the rest arrives as
/// batches).
pub fn initial_edges(w: Workload, edges: &[(u32, u32)]) -> &[(u32, u32)] {
    match w {
        Workload::SvcMixture => &edges[..edges.len() / 2],
        _ => edges,
    }
}

/// `g`'s edges, shuffled by `seed`, each flipped with probability 1/2.
pub fn stream(g: &Graph, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = Rng::new(seed ^ 0x5EED_57EA);
    let mut edges: Vec<(u32, u32)> = g
        .edges()
        .iter()
        .map(|&(u, v)| if rng.coin(0.5) { (v, u) } else { (u, v) })
        .collect();
    rng.shuffle(&mut edges);
    edges
}

/// Zipf(s) over `0..n`, composed with a seeded rank-to-vertex shuffle so
/// popularity is unrelated to the generators' vertex numbering.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    /// The sampler for `n` vertices and exponent `s`.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf over no vertices");
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|rank| {
                acc += 1.0 / (rank as f64).powf(s);
                acc
            })
            .collect();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        Rng::new(seed ^ 0x21BF).shuffle(&mut perm);
        Zipf { cdf, perm }
    }

    /// One vertex.
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let total = *self.cdf.last().expect("non-empty CDF");
        let x = rng.f64() * total;
        let rank = self
            .cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Size::parse("tiny"), Some(Size::Tiny));
    }

    #[test]
    fn stream_is_a_seeded_permutation_of_the_edges() {
        let g = gen::path(50);
        let a = stream(&g, 1);
        assert_eq!(a, stream(&g, 1));
        assert_ne!(a, stream(&g, 2));
        let mut canon: Vec<(u32, u32)> = a.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        canon.sort_unstable();
        assert_eq!(canon, g.edges());
    }

    #[test]
    fn zipf_prefers_its_top_rank() {
        let z = Zipf::new(1000, 1.0, 3);
        let mut rng = Rng::new(9);
        let top = z.perm[0];
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) == top).count();
        assert!(hits > 500, "top rank drawn {hits} times");
    }
}
