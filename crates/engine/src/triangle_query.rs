//! The triangle query `R1(x,y), R2(y,z), R3(z,x)` decided the way the
//! engine decides it: generic join, the operator the planner picks for a
//! cyclic query. Every case runs all six variable orders and checks them
//! against brute force. The AYZ degree split of Thm 3.2 lives in
//! `cq_problems::triangle::find_triangle_ayz`; the engine has no second
//! triangle decider.

#[cfg(test)]
mod tests {
    use crate::bind::brute_force_decide;
    use crate::generic_join;
    use crate::ExecCtx;
    use cq_core::query::zoo;
    use cq_core::Var;
    use cq_data::generate::{random_pairs, seeded_rng, skewed_pairs, triangle_database};
    use cq_data::{Database, Relation};

    fn triangle_db(r1: Relation, r2: Relation, r3: Relation) -> Database {
        let mut db = Database::new();
        db.insert("R1", r1);
        db.insert("R2", r2);
        db.insert("R3", r3);
        db
    }

    /// The six orders of the query's three variables.
    fn all_orders(vars: &[Var]) -> Vec<Vec<Var>> {
        let mut out = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                if j != i {
                    out.push(vec![vars[i], vars[j], vars[3 - i - j]]);
                }
            }
        }
        out
    }

    /// Generic join's answer, the same under every variable order and
    /// equal to brute force's.
    fn decide_triangle(db: &Database) -> bool {
        let q = zoo::triangle_boolean();
        let want = brute_force_decide(&q, db).unwrap();
        for order in all_orders(&generic_join::default_order(&q)) {
            assert_eq!(
                generic_join::decide(&ExecCtx::cold(), &q, db, &order).unwrap(),
                want,
                "order={order:?}"
            );
        }
        want
    }

    #[test]
    fn simple_triangle_found() {
        let db = triangle_db(
            Relation::from_pairs(vec![(1, 2)]),
            Relation::from_pairs(vec![(2, 3)]),
            Relation::from_pairs(vec![(3, 1)]),
        );
        assert!(decide_triangle(&db));
    }

    #[test]
    fn no_triangle() {
        let db = triangle_db(
            Relation::from_pairs(vec![(1, 2)]),
            Relation::from_pairs(vec![(2, 3)]),
            Relation::from_pairs(vec![(1, 3)]), // wrong direction
        );
        assert!(!decide_triangle(&db));
    }

    #[test]
    fn matches_generic_on_random() {
        let mut rng = seeded_rng(1);
        let mut found = 0;
        for trial in 0..20 {
            let db = triangle_database(&random_pairs(40 + trial, 12, &mut rng));
            found += decide_triangle(&db) as usize;
        }
        assert!(found > 0, "no random graph held a triangle");
    }

    #[test]
    fn matches_generic_on_skew() {
        // heavy hubs: many rows share a few values
        let mut rng = seeded_rng(2);
        for _ in 0..10 {
            let r1 = skewed_pairs(150, 40, 2, &mut rng);
            let r2 = skewed_pairs(150, 40, 2, &mut rng);
            let r3 = skewed_pairs(150, 40, 2, &mut rng);
            decide_triangle(&triangle_db(r1, r2, r3));
        }
    }

    #[test]
    fn distinct_relations_not_graph() {
        // R1, R2, R3 genuinely different: answer exists only through the
        // right relation roles.
        let db = triangle_db(
            Relation::from_pairs(vec![(10, 20), (1, 1)]),
            Relation::from_pairs(vec![(20, 30)]),
            Relation::from_pairs(vec![(30, 10), (2, 2)]),
        );
        assert!(decide_triangle(&db));
    }

    #[test]
    fn self_loop_triangle() {
        // x=y=z=5: R1(5,5), R2(5,5), R3(5,5)
        let r = Relation::from_pairs(vec![(5, 5)]);
        let db = triangle_db(r.clone(), r.clone(), r);
        assert!(decide_triangle(&db));
    }
}
