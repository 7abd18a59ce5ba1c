//! Edge covers and independent sets (used by Theorem 3.26's proof).
//!
//! The paper's argument for sum-order direct access rests on
//! [39, Lemma 19]: *in acyclic hypergraphs, the minimum edge cover and
//! the maximum independent set have equal size* (a König-type duality —
//! in general hypergraphs only `independence ≤ cover` holds). We
//! implement both quantities exactly (exponential branch-and-bound, fine
//! for query-sized hypergraphs) and property-test the duality, which is
//! what licenses the step “no covering atom ⇒ two variables share no
//! atom” in `classify_direct_access_sum`.

use crate::hypergraph::Hypergraph;

/// Size of a minimum edge cover of the vertices covered by at least one
/// edge (isolated vertices cannot be covered and are ignored; returns
/// `None` if there are no edges but uncoverable vertices don't exist —
/// i.e. always `Some` unless the hypergraph has zero edges and nonzero
/// covered set, which is impossible).
pub fn min_edge_cover(h: &Hypergraph) -> usize {
    let target = h.covered_mask();
    if target == 0 {
        return 0;
    }
    let edges = h.maximal_edges();
    // branch and bound: cover the lowest uncovered vertex by one of its
    // edges.
    fn rec(edges: &[u64], covered: u64, target: u64, used: usize, best: &mut usize) {
        if used >= *best {
            return;
        }
        let missing = target & !covered;
        if missing == 0 {
            *best = used;
            return;
        }
        let v = missing.trailing_zeros();
        let bit = 1u64 << v;
        for &e in edges {
            if e & bit != 0 {
                rec(edges, covered | e, target, used + 1, best);
            }
        }
    }
    let mut best = edges.len().min(target.count_ones() as usize);
    rec(&edges, 0, target, 0, &mut best);
    best
}

/// Size of a maximum independent set: vertices no two of which share an
/// edge. Only vertices covered by some edge participate (isolated
/// vertices would be trivially independent but are not query variables
/// in well-formed queries; we include them for hypergraph generality).
pub fn max_independent_set(h: &Hypergraph) -> usize {
    max_independent(h, h.vertices_mask())
}

/// Size of a maximum independent set within the vertex mask `cands`, by
/// branch and bound: take the lowest candidate and drop its closed
/// neighborhood, or skip it; prune a branch that cannot beat the best.
pub(crate) fn max_independent(h: &Hypergraph, cands: u64) -> usize {
    fn rec(h: &Hypergraph, cands: u64, chosen: usize, best: &mut usize) {
        if chosen + cands.count_ones() as usize <= *best {
            return;
        }
        if cands == 0 {
            *best = (*best).max(chosen);
            return;
        }
        let v = cands.trailing_zeros() as usize;
        let bit = 1u64 << v;
        let nb = h.closed_neighborhood(v) | bit;
        rec(h, cands & !nb, chosen + 1, best);
        rec(h, cands & !bit, chosen, best);
    }
    let mut best = 0;
    rec(h, cands, 0, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::{mask_of, mask_vertices};
    use crate::query::zoo;

    #[test]
    fn path_cover_and_independence() {
        // P4 path query hypergraph: edges {01},{12},{23},{34} on 5 vertices
        let h = zoo::path_join(4).hypergraph();
        // independent set {x0, x2, x4} → 3; cover needs 3 edges
        assert_eq!(max_independent_set(&h), 3);
        assert_eq!(min_edge_cover(&h), 3);
    }

    #[test]
    fn star_cover_and_independence() {
        let h = zoo::star_selfjoin_free(4).hypergraph();
        // leaves x1..x4 are pairwise non-adjacent → independence 4; cover
        // needs all 4 edges
        assert_eq!(max_independent_set(&h), 4);
        assert_eq!(min_edge_cover(&h), 4);
    }

    #[test]
    fn triangle_gap() {
        // cyclic: cover 2 ({xy},{zx} covers all), independence 1 —
        // duality fails, as expected for cyclic hypergraphs.
        let h = zoo::triangle_boolean().hypergraph();
        assert_eq!(min_edge_cover(&h), 2);
        assert_eq!(max_independent_set(&h), 1);
    }

    #[test]
    fn single_full_atom() {
        let h = Hypergraph::new(3, vec![mask_of(&[0, 1, 2])]);
        assert_eq!(min_edge_cover(&h), 1);
        assert_eq!(max_independent_set(&h), 1);
    }

    #[test]
    fn no_edges() {
        let h = Hypergraph::new(3, vec![]);
        assert_eq!(min_edge_cover(&h), 0);
        // isolated vertices are pairwise independent
        assert_eq!(max_independent_set(&h), 3);
    }

    #[test]
    fn duality_on_paper_acyclic_examples() {
        // [39, Lemma 19]: equality on acyclic hypergraphs (no isolated
        // vertices in query hypergraphs).
        for q in [
            zoo::path_join(2),
            zoo::path_join(5),
            zoo::star_selfjoin_free(3),
            zoo::star_full(4),
            zoo::matmul_projection(),
        ] {
            let h = q.hypergraph();
            assert!(h.is_acyclic());
            assert_eq!(
                min_edge_cover(&h),
                max_independent_set(&h),
                "duality must hold for {q}"
            );
        }
    }

    #[test]
    fn independence_never_exceeds_cover() {
        // weak duality holds for all hypergraphs (each independent vertex
        // needs its own covering edge)
        for q in [
            zoo::triangle_boolean(),
            zoo::cycle_boolean(5),
            zoo::loomis_whitney_boolean(4),
        ] {
            let h = q.hypergraph();
            assert!(max_independent_set(&h) <= min_edge_cover(&h), "{q}");
        }
    }

    /// The exact step Thm 3.26 needs: acyclic + no covering atom ⇒ two
    /// variables share no atom (independence ≥ 2).
    #[test]
    fn no_covering_atom_implies_independent_pair() {
        for q in [zoo::path_join(3), zoo::star_selfjoin_free(2), zoo::matmul_projection()]
        {
            let h = q.hypergraph();
            let full = h.vertices_mask();
            let has_covering = h.edges().contains(&full);
            assert!(!has_covering);
            assert!(max_independent_set(&h) >= 2, "{q}");
            // exhibit the pair explicitly
            let found = mask_vertices(full)
                .any(|a| mask_vertices(full).any(|b| a < b && !h.adjacent(a, b)));
            assert!(found, "{q}");
        }
    }
}
