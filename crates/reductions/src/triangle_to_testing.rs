//! Lemma 3.21 and Lemma 3.23: triangle finding through testing / direct
//! access for star queries.
//!
//! * Lemma 3.21: set `R := E`; then `(a,b) ∈ q*_2(D)` iff `a` and `b`
//!   have a common neighbor, so probing every edge `(a,b) ∈ E` detects a
//!   triangle with |E| probes after one preprocessing pass. Õ(m)
//!   preprocessing + Õ(1) probes would refute the Triangle Hypothesis —
//!   so the star tester's per-probe degree cost is conditionally
//!   necessary.
//! * Lemma 3.23 = Lemma 3.20 ∘ Lemma 3.21: a direct-access structure for
//!   `q̂*_2` in the lexicographic order `x1 > x2 > z` yields exactly such
//!   a tester through binary search on the simulated array.

use cq_core::query::zoo;
use cq_core::Var;
use cq_data::{Database, Relation, Val};
use cq_engine::direct_access::{test_prefix, DirectAccess, MaterializedDirectAccess};
use cq_engine::testing::StarTester;
use cq_engine::ExecCtx;
use cq_problems::Graph;

/// The symmetric edge relation of `g`.
pub fn edge_relation(g: &Graph) -> Relation {
    let mut pairs = Vec::with_capacity(2 * g.m());
    for (a, b) in g.edges() {
        pairs.push((a as Val, b as Val));
        pairs.push((b as Val, a as Val));
    }
    Relation::from_pairs(pairs)
}

/// Lemma 3.21, executable: detect a triangle by |E| star-tester probes.
pub fn triangle_via_star_testing(g: &Graph) -> bool {
    let r = edge_relation(g);
    let tester = StarTester::preprocess(&r);
    g.edges().any(|(a, b)| tester.test(&[a as Val, b as Val]))
}

/// Lemma 3.23, executable: detect a triangle through direct access for
/// `q̂*_2` under the order `x1, x2, z` (the disrupted order — only the
/// materialization structure supports it, which is the lemma's point).
pub fn triangle_via_qhat_direct_access(g: &Graph) -> bool {
    let q = zoo::star_full(2);
    let mut db = Database::new();
    db.insert("R", edge_relation(g));
    let x1 = q.var_by_name("x1").unwrap();
    let x2 = q.var_by_name("x2").unwrap();
    let z = q.var_by_name("z").unwrap();
    let order: Vec<Var> = vec![x1, x2, z];
    let ctx = ExecCtx::cold();
    // The efficient builder must refuse this order (disruptive trio)…
    debug_assert!(
        cq_engine::LexDirectAccess::build(&ctx, &q, &db, &order).is_err(),
        "x1,x2,z order must be rejected by the compatible-tree builder"
    );
    // …so the only structure is the materialized one.
    let da = MaterializedDirectAccess::build(&ctx, &q, &db, &order).expect("join query");
    if da.is_empty() {
        return false;
    }
    g.edges().any(|(a, b)| test_prefix(&da, &order, &[a as Val, b as Val]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_data::generate::seeded_rng;
    use cq_problems::triangle::find_triangle_edge_iterator;

    #[test]
    fn star_testing_agrees_with_reference() {
        let mut rng = seeded_rng(1);
        for trial in 0..15 {
            let g = Graph::random_gnm(16, 20 + 2 * trial, &mut rng);
            assert_eq!(
                triangle_via_star_testing(&g),
                find_triangle_edge_iterator(&g).is_some(),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn direct_access_agrees_with_reference() {
        let mut rng = seeded_rng(2);
        for trial in 0..10 {
            let g = Graph::random_gnm(12, 14 + 2 * trial, &mut rng);
            assert_eq!(
                triangle_via_qhat_direct_access(&g),
                find_triangle_edge_iterator(&g).is_some(),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn triangle_free_cases() {
        let mut rng = seeded_rng(3);
        let g = Graph::random_bipartite(20, 50, &mut rng);
        assert!(!triangle_via_star_testing(&g));
        assert!(!triangle_via_qhat_direct_access(&g));
    }

    #[test]
    fn single_triangle() {
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        assert!(triangle_via_star_testing(&g));
        assert!(triangle_via_qhat_direct_access(&g));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(5, Vec::<(u32, u32)>::new());
        assert!(!triangle_via_star_testing(&g));
        assert!(!triangle_via_qhat_direct_access(&g));
    }
}
