//! The 2-lane baseline compiler for graph states.
//!
//! A faithful substitute for the substrate scheduler of Liu et al. that
//! the paper benchmarks against (Sec. V-B): a logical 2-lane
//! architecture where each qubit is a **2-tile patch** (both X and Z
//! boundaries exposed to the ancilla lane, footprint `2n × 2 = 4n`
//! tiles), initialization bases are chosen via maximum independent set
//! so those stabilizers hold at initialization, and the remaining
//! stabilizers are measured as multi-qubit parities whose ancilla-lane
//! intervals are packed into layers by interval scheduling.

use crate::graphs::Graph;
use crate::mis::max_independent_set;

/// Initialization basis of one qubit in the baseline layout.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Basis {
    /// `|+⟩` (satisfies its own graph-state stabilizer at init).
    Plus,
    /// `|0⟩`.
    Zero,
}

/// Output of the baseline compiler.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// Tiles occupied (2-tile patches on 2 lanes: `4n`).
    pub footprint: usize,
    /// Depth in units of `d` rounds.
    pub depth: usize,
    /// `footprint × depth`.
    pub volume: usize,
    /// Chosen initialization bases.
    pub init_basis: Vec<Basis>,
    /// Indices of stabilizers that still need measurement.
    pub measured: Vec<usize>,
    /// Measurement layers (each a set of stabilizer indices whose
    /// ancilla intervals do not overlap).
    pub layers: Vec<Vec<usize>>,
}

/// Compiles an `n`-qubit graph state on the 2-lane baseline.
pub fn compile_graph_state(g: &Graph) -> BaselineResult {
    let n = g.num_vertices();
    let mis = max_independent_set(g);
    let in_mis = |v: usize| mis.contains(&v);
    let init_basis: Vec<Basis> = (0..n)
        .map(|v| if in_mis(v) { Basis::Plus } else { Basis::Zero })
        .collect();
    // Stabilizer X_v Z_{N(v)} is satisfied at init iff v ∈ MIS (then v is
    // |+⟩ and all neighbors are |0⟩, MIS independence guarantees it).
    let measured: Vec<usize> = (0..n).filter(|&v| !in_mis(v)).collect();
    // Each measurement touches columns [min support, max support]; the
    // ancilla lane segment spanning them is busy for one unit of depth.
    let mut intervals: Vec<(usize, usize, usize)> = measured
        .iter()
        .map(|&v| {
            let mut cols: Vec<usize> = g.neighbors(v);
            cols.push(v);
            #[expect(clippy::expect_used, reason = "`cols` holds at least `v`")]
            let lo = *cols.iter().min().expect("non-empty");
            #[expect(clippy::expect_used, reason = "`cols` holds at least `v`")]
            let hi = *cols.iter().max().expect("non-empty");
            (lo, hi, v)
        })
        .collect();
    // Greedy interval-graph coloring: sort by left endpoint, place each
    // interval in the first layer whose last interval ends before it.
    intervals.sort();
    let mut layers: Vec<Vec<usize>> = Vec::new();
    let mut layer_ends: Vec<usize> = Vec::new();
    for (lo, hi, v) in intervals {
        match layer_ends.iter().position(|&end| end < lo) {
            Some(idx) => {
                layers[idx].push(v);
                layer_ends[idx] = hi;
            }
            None => {
                layers.push(vec![v]);
                layer_ends.push(hi);
            }
        }
    }
    let depth = layers.len().max(1);
    let footprint = 4 * n;
    BaselineResult {
        footprint,
        depth,
        volume: footprint * depth,
        init_basis,
        measured,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::fig14_graph;

    #[test]
    fn star_graph_needs_one_layer() {
        // MIS of a star = the leaves; only the hub's stabilizer needs
        // measuring: one layer, depth 1.
        let r = compile_graph_state(&Graph::star(8));
        assert_eq!(r.measured, vec![0]);
        assert_eq!(r.depth, 1);
        assert_eq!(r.footprint, 32);
        assert_eq!(r.volume, 32);
    }

    #[test]
    fn fig14_example_costs_two_layers() {
        // Paper Fig. 14c: the baseline solution is 8×4×2 = 64 volume
        // (our footprint accounting: 32 × depth 2).
        let r = compile_graph_state(&fig14_graph());
        assert_eq!(r.footprint, 32);
        assert_eq!(r.depth, 2, "layers: {:?}", r.layers);
        assert_eq!(r.volume, 64);
        assert_eq!(r.measured.len(), 2);
    }

    #[test]
    fn complete_graph_measures_all_but_one() {
        let r = compile_graph_state(&Graph::complete(5));
        assert_eq!(r.measured.len(), 4);
        // All intervals span everything: one per layer.
        assert_eq!(r.depth, 4);
    }

    #[test]
    fn layers_have_disjoint_intervals() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10 {
            let g = Graph::random_connected(8, 0.35, &mut rng);
            let r = compile_graph_state(&g);
            for layer in &r.layers {
                let mut spans: Vec<(usize, usize)> = layer
                    .iter()
                    .map(|&v| {
                        let mut cols = g.neighbors(v);
                        cols.push(v);
                        (*cols.iter().min().unwrap(), *cols.iter().max().unwrap())
                    })
                    .collect();
                spans.sort();
                for w in spans.windows(2) {
                    assert!(w[0].1 < w[1].0, "overlap in layer: {spans:?}");
                }
            }
        }
    }

    #[test]
    fn init_bases_match_mis() {
        let g = Graph::path(6);
        let r = compile_graph_state(&g);
        let plus_count = r.init_basis.iter().filter(|b| **b == Basis::Plus).count();
        assert_eq!(plus_count + r.measured.len(), 6);
    }
}
