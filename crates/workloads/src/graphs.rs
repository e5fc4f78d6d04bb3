//! Simple undirected graphs, generators, and graph-state stabilizers.
//!
//! Graph states are the paper's "average case" workload (Sec. V-B):
//! any stabilizer state is a graph state up to local Cliffords. The
//! paper benchmarks on the 101 local-Clifford equivalence classes of
//! connected 8-vertex graphs from a published database; offline, we
//! substitute a deterministic, diverse benchmark set of the same size
//! (structured families plus seeded random connected graphs,
//! de-duplicated by graph invariants), because the database is not
//! available offline.

use gf2::BitVec;
use pauli::{Pauli, PauliString};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A simple undirected graph on `n` vertices (adjacency bitsets).
///
/// ```
/// use workloads::graphs::Graph;
/// let g = Graph::cycle(4);
/// assert_eq!(g.num_edges(), 4);
/// assert!(g.is_connected());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Graph {
    n: usize,
    adj: Vec<BitVec>,
}

impl Graph {
    /// The empty graph on `n` vertices.
    pub fn new(n: usize) -> Graph {
        Graph {
            n,
            adj: vec![BitVec::zeros(n); n],
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range vertices.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert_ne!(a, b, "no self-loops");
        self.adj[a].set(b, true);
        self.adj[b].set(a, true);
    }

    /// Whether `a` and `b` are adjacent.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].get(b)
    }

    /// The neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> Vec<usize> {
        self.adj[v].iter_ones().collect()
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].count_ones()
    }

    /// All edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for a in 0..self.n {
            for b in self.adj[a].iter_ones() {
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges().len()
    }

    /// Whether the graph is connected (true for `n ≤ 1`).
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for u in self.adj[v].iter_ones() {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.n
    }

    /// Local complementation at `v`: complements the subgraph induced
    /// by `v`'s neighborhood. Orbits of this operation are the
    /// local-Clifford equivalence classes of graph states.
    pub fn local_complement(&mut self, v: usize) {
        let nb = self.neighbors(v);
        for (i, &a) in nb.iter().enumerate() {
            for &b in &nb[i + 1..] {
                let had = self.has_edge(a, b);
                self.adj[a].set(b, !had);
                self.adj[b].set(a, !had);
            }
        }
    }

    /// The graph-state stabilizers `X_v ∏_{u ∈ N(v)} Z_u` (paper Fig. 14a).
    pub fn stabilizers(&self) -> Vec<PauliString> {
        (0..self.n)
            .map(|v| {
                let mut s = PauliString::identity(self.n);
                s.set(v, Pauli::X);
                for u in self.adj[v].iter_ones() {
                    s.set(u, Pauli::Z);
                }
                s
            })
            .collect()
    }

    /// A cheap isomorphism-ish invariant used to de-duplicate the
    /// benchmark set: (n, m, sorted degrees, sorted triangle counts).
    pub fn invariant(&self) -> (usize, usize, Vec<usize>, Vec<usize>) {
        let mut degrees: Vec<usize> = (0..self.n).map(|v| self.degree(v)).collect();
        degrees.sort_unstable();
        let mut triangles = vec![0usize; self.n];
        for (a, b) in self.edges() {
            for (v, count) in triangles.iter_mut().enumerate() {
                if v != a && v != b && self.has_edge(v, a) && self.has_edge(v, b) {
                    *count += 1;
                }
            }
        }
        triangles.sort_unstable();
        (self.n, self.num_edges(), degrees, triangles)
    }

    // ----- generators -----

    /// Path 0–1–…–(n−1).
    pub fn path(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge(v - 1, v);
        }
        g
    }

    /// Cycle on `n ≥ 3` vertices.
    pub fn cycle(n: usize) -> Graph {
        assert!(n >= 3, "cycle needs ≥ 3 vertices");
        let mut g = Graph::path(n);
        g.add_edge(n - 1, 0);
        g
    }

    /// Star with center 0.
    pub fn star(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge(0, v);
        }
        g
    }

    /// Complete graph.
    pub fn complete(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for a in 0..n {
            for b in a + 1..n {
                g.add_edge(a, b);
            }
        }
        g
    }

    /// Complete bipartite graph on parts of size `a` and `b`.
    pub fn complete_bipartite(a: usize, b: usize) -> Graph {
        let mut g = Graph::new(a + b);
        for x in 0..a {
            for y in 0..b {
                g.add_edge(x, a + y);
            }
        }
        g
    }

    /// Wheel: a cycle on `n−1` vertices plus a hub.
    pub fn wheel(n: usize) -> Graph {
        assert!(n >= 4, "wheel needs ≥ 4 vertices");
        let mut g = Graph::new(n);
        for v in 1..n {
            g.add_edge(0, v);
            let next = if v == n - 1 { 1 } else { v + 1 };
            g.add_edge(v, next);
        }
        g
    }

    /// A seeded random connected graph with edge probability `p`
    /// (resampled until connected).
    pub fn random_connected(n: usize, p: f64, rng: &mut SmallRng) -> Graph {
        loop {
            let mut g = Graph::new(n);
            for a in 0..n {
                for b in a + 1..n {
                    if rng.random_bool(p) {
                        g.add_edge(a, b);
                    }
                }
            }
            if g.is_connected() {
                return g;
            }
        }
    }
}

/// The 8-qubit graph of paper Fig. 14a (edges read off its stabilizer
/// list: 0–7, 1–7, 2–7, 3–7, 4–7, 5–6, 6–7).
pub fn fig14_graph() -> Graph {
    let mut g = Graph::new(8);
    for v in [0, 1, 2, 3, 4] {
        g.add_edge(v, 7);
    }
    g.add_edge(5, 6);
    g.add_edge(6, 7);
    g
}

/// A deterministic benchmark set of `count` distinct connected
/// `n`-vertex graphs: structured families first, then seeded random
/// graphs at varied densities, de-duplicated by [`Graph::invariant`].
///
/// With `n = 8, count = 101` this substitutes the paper's 101
/// LC-equivalence-class representatives.
pub fn benchmark_set(n: usize, count: usize, seed: u64) -> Vec<Graph> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out: Vec<Graph> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut push = |g: Graph, out: &mut Vec<Graph>| {
        if g.is_connected() && seen.insert(g.invariant()) {
            out.push(g);
        }
    };
    push(Graph::path(n), &mut out);
    if n >= 3 {
        push(Graph::cycle(n), &mut out);
    }
    push(Graph::star(n), &mut out);
    push(Graph::complete(n), &mut out);
    if n >= 4 {
        push(Graph::wheel(n), &mut out);
        for a in 1..n {
            push(Graph::complete_bipartite(a, n - a), &mut out);
        }
    }
    if n == 8 {
        push(fig14_graph(), &mut out);
    }
    let densities = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
    let mut density_idx = 0;
    let mut attempts = 0;
    while out.len() < count && attempts < 50 * count {
        let p = densities[density_idx % densities.len()];
        density_idx += 1;
        attempts += 1;
        push(Graph::random_connected(n, p, &mut rng), &mut out);
    }
    out.truncate(count);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pauli::all_commute;

    #[test]
    fn generators_have_expected_edge_counts() {
        assert_eq!(Graph::path(5).num_edges(), 4);
        assert_eq!(Graph::cycle(5).num_edges(), 5);
        assert_eq!(Graph::star(5).num_edges(), 4);
        assert_eq!(Graph::complete(5).num_edges(), 10);
        assert_eq!(Graph::complete_bipartite(2, 3).num_edges(), 6);
        assert_eq!(Graph::wheel(5).num_edges(), 8);
    }

    #[test]
    fn connectivity() {
        assert!(Graph::path(6).is_connected());
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert!(!g.is_connected());
    }

    #[test]
    fn graph_state_stabilizers_commute() {
        for g in [
            Graph::path(6),
            Graph::cycle(5),
            Graph::complete(4),
            fig14_graph(),
        ] {
            let stabs = g.stabilizers();
            assert!(all_commute(&stabs));
            assert_eq!(pauli::independent_count(&stabs), g.num_vertices());
        }
    }

    #[test]
    fn fig14_graph_matches_paper_stabilizers() {
        let stabs = fig14_graph().stabilizers();
        assert_eq!(stabs[0].to_string(), "X......Z");
        assert_eq!(stabs[6].to_string(), ".....ZXZ");
        assert_eq!(stabs[5].to_string(), ".....XZ.");
    }

    #[test]
    fn local_complement_is_involution() {
        let mut g = Graph::wheel(6);
        let orig = g.clone();
        g.local_complement(0);
        assert_ne!(g, orig);
        g.local_complement(0);
        assert_eq!(g, orig);
    }

    #[test]
    fn benchmark_set_is_distinct_and_connected() {
        let set = benchmark_set(8, 101, 2024);
        assert_eq!(set.len(), 101, "need 101 distinct 8-vertex graphs");
        for g in &set {
            assert!(g.is_connected());
            assert_eq!(g.num_vertices(), 8);
        }
        let inv: std::collections::HashSet<_> = set.iter().map(|g| g.invariant()).collect();
        assert_eq!(inv.len(), 101);
    }

    #[test]
    fn benchmark_set_is_deterministic() {
        assert_eq!(benchmark_set(6, 20, 7), benchmark_set(6, 20, 7));
    }
}
