//! Lemma 3.25: 3SUM reduces to sum-order direct access for any
//! self-join-free join query with two variables sharing no atom.
//!
//! We use the concrete witness query `q(x, u, y) :- R1(x, u), R2(u, y)`
//! (`x` and `y` share no atom). `x` ranges over (indices of) `A`, `y`
//! over `B`, `u` is pinned to a zero-weight dummy; the weight function
//! sends each index to its list value. A tuple of weight `c` exists iff
//! some `a + b = c`, so |C| binary searches over the sum-ordered array
//! solve 3SUM. The database has O(n) tuples, so Õ(m^{2−ε}) preprocessing
//! with Õ(m^{1−ε}) access would give an Õ(n^{2−ε}) 3SUM algorithm,
//! refuting Hypothesis 5. Executably we drive the materialized structure
//! (whose Θ(n²)-size array is exactly the cost the lemma proves
//! unavoidable).

use cq_core::{parse_query, ConjunctiveQuery};
use cq_data::{Database, Relation, Val};
use cq_engine::{ExecCtx, SumOrderAccess};
use cq_problems::three_sum::ThreeSumInstance;

/// The reduction's query, database, and weight table.
pub struct SumDaInstance {
    /// `q(x, u, y) :- R1(x, u), R2(u, y)`.
    pub query: ConjunctiveQuery,
    pub db: Database,
    /// weight of each domain value
    pub weights: Vec<i64>,
}

/// Build the Lemma 3.25 instance. Domain: value `0` is the dummy `u`
/// (weight 0); values `1..=n_a` index `A`; the following index `B`.
pub fn build(inst: &ThreeSumInstance) -> SumDaInstance {
    let query = parse_query("q(x, u, y) :- R1(x, u), R2(u, y)").unwrap();
    let n_a = inst.a.len();
    let n_b = inst.b.len();
    let mut weights = vec![0i64; 1 + n_a + n_b];
    let mut r1 = Relation::new(2);
    for (i, &a) in inst.a.iter().enumerate() {
        let v = (1 + i) as Val;
        weights[v as usize] = a;
        r1.push_row(&[v, 0]);
    }
    let mut r2 = Relation::new(2);
    for (j, &b) in inst.b.iter().enumerate() {
        let v = (1 + n_a + j) as Val;
        weights[v as usize] = b;
        r2.push_row(&[0, v]);
    }
    r1.normalize();
    r2.normalize();
    let mut db = Database::new();
    db.insert("R1", r1);
    db.insert("R2", r2);
    SumDaInstance { query, db, weights }
}

/// Solve 3SUM through sum-order direct access (Lemma 3.25's algorithm:
/// preprocess once, then one weight-existence binary search per target in
/// `C`).
pub fn three_sum_via_sum_order_da(inst: &ThreeSumInstance) -> bool {
    let red = build(inst);
    let w = |v: Val| red.weights[v as usize];
    let da =
        SumOrderAccess::build_materialized(&ExecCtx::cold(), &red.query, &red.db, &w)
            .expect("join query");
    inst.c.iter().any(|&c| da.has_weight(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_data::generate::seeded_rng;
    use cq_problems::three_sum::{three_sum_sorted, ThreeSumInstance};

    #[test]
    fn planted_solutions_found() {
        let mut rng = seeded_rng(1);
        for _ in 0..10 {
            let inst = ThreeSumInstance::random(25, 500, true, &mut rng);
            assert!(three_sum_via_sum_order_da(&inst));
        }
    }

    #[test]
    fn agreement_with_two_pointer() {
        let mut rng = seeded_rng(2);
        for trial in 0..20 {
            let inst = ThreeSumInstance::random(20, 40, false, &mut rng);
            assert_eq!(
                three_sum_via_sum_order_da(&inst),
                three_sum_sorted(&inst).is_some(),
                "trial={trial}"
            );
        }
    }

    #[test]
    fn negative_values() {
        let inst = ThreeSumInstance { a: vec![-7, 3], b: vec![4, -1], c: vec![-8] };
        // -7 + -1 = -8 ✓
        assert!(three_sum_via_sum_order_da(&inst));
        let inst2 = ThreeSumInstance { a: vec![-7, 3], b: vec![4, -1], c: vec![100] };
        assert!(!three_sum_via_sum_order_da(&inst2));
    }

    #[test]
    fn database_is_linear_size() {
        let mut rng = seeded_rng(3);
        let inst = ThreeSumInstance::random(50, 1000, false, &mut rng);
        let red = build(&inst);
        assert_eq!(red.db.size(), 100); // |A| + |B| tuples
    }

    #[test]
    fn query_shape_matches_lemma() {
        let red = build(&ThreeSumInstance { a: vec![1], b: vec![2], c: vec![3] });
        let q = &red.query;
        assert!(q.is_join_query());
        assert!(q.is_self_join_free());
        assert!(q.hypergraph().is_acyclic());
        // x and y share no atom
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        assert!(!q.hypergraph().adjacent(x.index(), y.index()));
        // and Thm 3.26 classifies sum-order DA as 3SUM-hard
        let v = cq_core::classify::classify_direct_access_sum(q);
        assert!(v.is_hard());
    }
}
