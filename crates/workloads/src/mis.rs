//! Exact maximum independent set (MIS) by branch and bound.
//!
//! The baseline compiler selects initialization bases by solving MIS on
//! the graph (paper Sec. V-B: "selecting the initialization basis is a
//! Maximum Independent Set problem"). Instances are small (n ≤ 20 or
//! so), so an exact bitmask branch-and-bound is both fair and fast.

use crate::graphs::Graph;

/// Computes a maximum independent set of `g`.
///
/// # Panics
///
/// Panics if `g` has more than 64 vertices (bitmask representation).
pub fn max_independent_set(g: &Graph) -> Vec<usize> {
    let n = g.num_vertices();
    assert!(n <= 64, "bitmask MIS supports at most 64 vertices");
    let masks: Vec<u64> = (0..n)
        .map(|v| g.neighbors(v).iter().fold(0u64, |m, &u| m | 1 << u))
        .collect();
    let mut best: u64 = 0;
    let all = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    solve(&masks, all, 0, &mut best);
    (0..n).filter(|&v| best >> v & 1 == 1).collect()
}

fn solve(masks: &[u64], candidates: u64, chosen: u64, best: &mut u64) {
    if candidates == 0 {
        if chosen.count_ones() > best.count_ones() {
            *best = chosen;
        }
        return;
    }
    // Bound: even taking every candidate cannot beat the best.
    if chosen.count_ones() + candidates.count_ones() <= best.count_ones() {
        return;
    }
    // Branch on a candidate of maximum degree within the candidate set.
    #[expect(clippy::expect_used, reason = "the empty set returned above")]
    let v = (0..64)
        .filter(|&v| candidates >> v & 1 == 1)
        .max_by_key(|&v| (masks[v as usize] & candidates).count_ones())
        .expect("candidates non-empty");
    // Include v.
    solve(
        masks,
        candidates & !(1 << v) & !masks[v as usize],
        chosen | 1 << v,
        best,
    );
    // Exclude v.
    solve(masks, candidates & !(1 << v), chosen, best);
}

/// Checks that `set` is independent in `g`.
pub fn is_independent(g: &Graph, set: &[usize]) -> bool {
    for (i, &a) in set.iter().enumerate() {
        for &b in &set[i + 1..] {
            if g.has_edge(a, b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_mis_is_the_leaves() {
        let g = Graph::star(6);
        let mis = max_independent_set(&g);
        assert_eq!(mis, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn complete_graph_mis_is_one() {
        assert_eq!(max_independent_set(&Graph::complete(5)).len(), 1);
    }

    #[test]
    fn path_mis_is_ceil_half() {
        assert_eq!(max_independent_set(&Graph::path(7)).len(), 4);
        assert_eq!(max_independent_set(&Graph::path(8)).len(), 4);
    }

    #[test]
    fn cycle_mis_is_floor_half() {
        assert_eq!(max_independent_set(&Graph::cycle(7)).len(), 3);
        assert_eq!(max_independent_set(&Graph::cycle(8)).len(), 4);
    }

    #[test]
    fn bipartite_mis_is_bigger_part() {
        assert_eq!(
            max_independent_set(&Graph::complete_bipartite(3, 5)).len(),
            5
        );
    }

    #[test]
    fn results_are_independent_sets() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = Graph::random_connected(10, 0.4, &mut rng);
            let mis = max_independent_set(&g);
            assert!(is_independent(&g, &mis));
            assert!(!mis.is_empty());
        }
    }
}
