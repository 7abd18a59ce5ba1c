//! Property-based tests on the structural core and the engine.

use cq_core::hypergraph::Hypergraph;
use cq_core::Var;
use cq_data::{Relation, Val};
use cq_engine::bind::brute_force_answers;
use cq_engine::ExecCtx;
use proptest::prelude::*;
use queries::{query_strategy, random_db, sorted_by};
use std::collections::BTreeSet;

mod queries;

/// Strategy: a random hypergraph as (n, edges as masks).
fn hypergraph_strategy() -> impl Strategy<Value = Hypergraph> {
    (2usize..=7).prop_flat_map(|n| {
        let full = Hypergraph::full_mask(n);
        proptest::collection::vec(1u64..=full, 1..=6)
            .prop_map(move |edges| Hypergraph::new(n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GYO acyclicity agrees with the Brault-Baron witness theorem:
    /// cyclic ⟺ a witness exists (Theorem 3.6).
    #[test]
    fn acyclic_iff_no_brault_baron_witness(h in hypergraph_strategy()) {
        let acyclic = h.is_acyclic();
        let witness = cq_core::brault_baron::find_witness(&h).witness;
        prop_assert_eq!(acyclic, witness.is_none());
    }

    /// Join trees from GYO always satisfy running intersection.
    #[test]
    fn join_trees_have_running_intersection(h in hypergraph_strategy()) {
        if let Some(t) = cq_core::gyo::join_tree(&h) {
            prop_assert!(t.validate_running_intersection());
            // and all reroots stay valid
            for r in 0..t.n_nodes() {
                prop_assert!(t.rerooted(r).validate_running_intersection());
            }
        }
    }

    /// Induced sub-hypergraphs of acyclic hypergraphs that GYO accepts:
    /// connectivity/components partition the vertex set.
    #[test]
    fn components_partition(h in hypergraph_strategy()) {
        let comps = h.components(h.vertices_mask());
        let mut seen = 0u64;
        for c in &comps {
            prop_assert_eq!(seen & c, 0, "components must be disjoint");
            seen |= c;
        }
        prop_assert_eq!(seen, h.vertices_mask());
    }

    /// Free-connex ⟹ acyclic; join/Boolean queries: free-connex ⟺ acyclic.
    #[test]
    fn free_connex_implications(q in query_strategy()) {
        let conn = cq_core::free_connex::connexity(&q);
        if conn.free_connex {
            prop_assert!(conn.acyclic);
        }
        if q.is_join_query() || q.is_boolean() {
            prop_assert_eq!(conn.acyclic, conn.free_connex);
        }
    }

    /// Quantified star size never exceeds the number of free variables,
    /// and is 0 exactly when there are no quantified or no free vars.
    #[test]
    fn star_size_bounds(q in query_strategy()) {
        let s = cq_core::star_size::quantified_star_size(&q);
        prop_assert!(s <= q.free_vars().len());
        if q.quantified_mask() == 0 || q.free_mask() == 0 {
            prop_assert_eq!(s, 0);
        }
    }

    /// Free-connex enumeration equals brute force.
    #[test]
    fn enumeration_matches_brute_force(q in query_strategy(), seed in 0u64..1000) {
        if cq_core::free_connex::is_free_connex(&q) {
            let db = random_db(&q, seed, 12, 6);
            let expected = brute_force_answers(&q, &db).unwrap();
            let tree = cq_engine::enumerate::preprocess(&ExecCtx::cold(), &q, &db).unwrap();
            let got = cq_engine::Answers::walk(tree).collect().unwrap();
            prop_assert_eq!(got, expected, "query {}", q);
        }
    }

    /// Lexicographic direct access on the join version of an acyclic
    /// draw, in a random order: the builder accepts exactly the orders
    /// without a disruptive trio (Thm 3.24), a refusal names the trio,
    /// and what it builds and the materialized structure under the same
    /// order are the brute-force answers sorted by it, at every index.
    #[test]
    fn direct_access_matches_materialized(q in query_strategy(), seed in 0u64..500) {
        let q = q.join_version();
        if !q.hypergraph().is_acyclic() {
            return Ok(());
        }
        let db = random_db(&q, seed, 10, 6);
        let mut order: Vec<Var> = q.vars().collect();
        let mut x = seed;
        for i in (1..order.len()).rev() {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (x >> 33) as usize % (i + 1));
        }
        let names = |vs: &[Var]| vs.iter().map(|&v| q.var_name(v)).collect::<Vec<_>>();
        let want = sorted_by(&q, &db, &order);
        let ctx = ExecCtx::cold();
        use cq_engine::{DirectAccess, EvalError, LexDirectAccess};
        let lex = match cq_core::disruptive_trio::find_disruptive_trio(&q, &order) {
            None => Some(LexDirectAccess::build(&ctx, &q, &db, &order).unwrap_or_else(|e| {
                panic!("{q} in trio-free order {:?}: {e}", names(&order))
            })),
            Some(t) => {
                let trio = format!("({})", names(&[t.y1, t.y2, t.y3]).join(", "));
                match LexDirectAccess::build(&ctx, &q, &db, &order) {
                    Err(EvalError::Unsupported(msg)) => {
                        prop_assert!(msg.contains(&trio), "{} does not name {}", msg, trio);
                    }
                    other => prop_assert!(
                        false, "{} in order {:?}: {:?}", q, names(&order), other.map(|d| d.len())
                    ),
                }
                None
            }
        };
        let mat = LexDirectAccess::materialized(&ctx, &q, &db, &order).unwrap();
        for da in lex.iter().chain([&mat]) {
            prop_assert_eq!(da.len(), want.len() as u64, "{} in order {:?}", q, names(&order));
            for i in 0..da.len().min(200) {
                prop_assert_eq!(
                    da.access(i), Some(want[i as usize].clone()),
                    "{} in order {:?}, index {}", q, names(&order), i
                );
            }
        }
    }

    /// [39, Lemma 19] (used in Thm 3.26): on acyclic hypergraphs the
    /// minimum edge cover equals the maximum independent set; on all
    /// hypergraphs independence ≤ cover.
    #[test]
    fn edge_cover_independence_duality(h in hypergraph_strategy()) {
        use cq_core::cover::{max_independent_set, min_edge_cover};
        // restrict to hypergraphs without isolated vertices so that the
        // cover is over the same vertex set as the independence
        if h.covered_mask() != h.vertices_mask() {
            return Ok(());
        }
        let cover = min_edge_cover(&h);
        let indep = max_independent_set(&h);
        prop_assert!(indep <= cover);
        if h.is_acyclic() {
            prop_assert_eq!(indep, cover, "duality must hold on acyclic hypergraphs");
        }
    }

    /// Relation invariants survive arbitrary projections: every
    /// normalized relation and projection equals its `BTreeSet` oracle —
    /// as drawn, already sorted, reverse-sorted and with every row twice,
    /// at widths 1 to 3 (the in-place array sorts) and 4 (the index sort).
    #[test]
    fn projection_invariants(
        rows in proptest::collection::vec(proptest::collection::vec(0u64..5, 3), 0..40)
    ) {
        let mut sorted = rows.clone();
        sorted.sort();
        let reversed: Vec<Vec<Val>> = sorted.iter().rev().cloned().collect();
        let twice: Vec<Vec<Val>> = rows.iter().chain(&rows).cloned().collect();
        let as_rows = |r: &Relation| r.iter().map(<[Val]>::to_vec).collect::<Vec<_>>();
        for input in [rows, sorted, reversed, twice] {
            let r = Relation::from_rows(3, input.clone());
            let oracle: BTreeSet<Vec<Val>> = input.iter().cloned().collect();
            prop_assert_eq!(as_rows(&r), oracle.into_iter().collect::<Vec<_>>());
            let widths = [vec![0usize], vec![1], vec![2], vec![0, 1], vec![2, 0]];
            for cols in widths.into_iter().chain([vec![0, 1, 2], vec![2, 0, 1, 2]]) {
                let p = r.project(&cols);
                prop_assert_eq!(p.arity(), cols.len());
                prop_assert!(p.len() <= r.len());
                let project = |row: &Vec<Val>| cols.iter().map(|&c| row[c]).collect();
                let oracle: BTreeSet<Vec<Val>> = input.iter().map(project).collect();
                prop_assert_eq!(as_rows(&p), oracle.into_iter().collect::<Vec<_>>());
            }
        }
    }
}
