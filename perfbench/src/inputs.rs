//! Seeded inputs: graph seeds, search roots, query streams and arrival
//! times. The program receives only what these produce.

use mcbfs_gen::prelude::*;
use mcbfs_graph::csr::{CsrGraph, VertexId};
use mcbfs_query::Query;
use std::time::Duration;

/// SplitMix64: small, fast and the same on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Self {
        Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.unit()).ln() / rate)
    }
}

/// Seed of every workload's graph. The graph is part of the workload's
/// definition, like a dataset; `--seed` varies the roots, queries and
/// arrivals. Two R-MAT draws of one scale differ by up to ~20 % in BFS and
/// exchange cost, which would otherwise drown the changes the benchmark
/// exists to detect.
pub const GRAPH_SEED: u64 = 1;

/// The workload's R-MAT graph: Graph500 parameters, permuted ids,
/// undirected, `degree` generated edges per vertex.
pub fn rmat(scale: u32, degree: usize) -> CsrGraph {
    RmatBuilder::new(scale, degree)
        .seed(Rng::new(GRAPH_SEED, 1).next_u64())
        .permute(true)
        .build()
}

/// A uniformly random vertex with at least one edge (the Graph500 root
/// rule: a search from an isolated vertex measures nothing).
pub fn root(rng: &mut Rng, g: &CsrGraph) -> VertexId {
    loop {
        let v = rng.below(g.num_vertices() as u64) as VertexId;
        if g.degree(v) > 0 {
            return v;
        }
    }
}

/// `count` distinct roots.
pub fn distinct_roots(rng: &mut Rng, g: &CsrGraph, count: usize) -> Vec<VertexId> {
    let mut roots = Vec::with_capacity(count);
    while roots.len() < count {
        let r = root(rng, g);
        if !roots.contains(&r) {
            roots.push(r);
        }
    }
    roots
}

/// An endless seeded stream of map queries over `g`: three quarters
/// `distances`, one quarter `parents`, so every reply carries one or two
/// per-vertex arrays.
pub struct QueryStream<'g> {
    rng: Rng,
    graph: &'g CsrGraph,
}

impl<'g> QueryStream<'g> {
    /// The stream labelled `stream` of `seed`.
    pub fn new(graph: &'g CsrGraph, seed: u64, stream: u64) -> Self {
        Self {
            rng: Rng::new(seed, stream),
            graph,
        }
    }

    /// The next query.
    pub fn next_query(&mut self) -> Query {
        let root = root(&mut self.rng, self.graph);
        match self.rng.below(4) {
            0..=2 => Query::Distances { root },
            _ => Query::Parents { root },
        }
    }

    /// The next `n` queries.
    pub fn take(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

/// The first `count` arrival offsets of a Poisson process at `rate`/s.
/// A fixed count, rather than a fixed span, keeps the number of latency
/// samples (and so the tail percentile they support) the same in every run.
pub fn arrivals(rng: &mut Rng, rate: f64, count: usize) -> Vec<Duration> {
    let mut at = Duration::ZERO;
    (0..count)
        .map(|_| {
            at += rng.exp_gap(rate);
            at
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let g = rmat(8, 8);
        let a = QueryStream::new(&g, 5, 2).take(50);
        let b = QueryStream::new(&g, 5, 2).take(50);
        assert_eq!(a, b);
        assert_ne!(a, QueryStream::new(&g, 6, 2).take(50));
        let mut r1 = Rng::new(9, 1);
        let mut r2 = Rng::new(9, 1);
        assert_eq!(arrivals(&mut r1, 50.0, 100), arrivals(&mut r2, 50.0, 100));
    }

    #[test]
    fn poisson_rate_is_met() {
        let mut rng = Rng::new(1, 1);
        let last = arrivals(&mut rng, 200.0, 20_000)[19_999].as_secs_f64();
        assert!(
            (95.0..105.0).contains(&last),
            "20000 arrivals took {last} s"
        );
    }

    #[test]
    fn maps_mix_is_three_to_one() {
        let g = rmat(8, 8);
        let qs = QueryStream::new(&g, 1, 1).take(4000);
        let parents = qs
            .iter()
            .filter(|q| matches!(q, Query::Parents { .. }))
            .count();
        assert!((800..1200).contains(&parents), "{parents} parents queries");
        assert!(qs.iter().all(|q| g.degree(q.source()) > 0));
    }
}
