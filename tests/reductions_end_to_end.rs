//! End-to-end pipelines across crates: each lower-bound chain of the
//! paper executed from the source problem to the query-evaluation target
//! and back.

use cq_data::generate::seeded_rng;
use cq_lower_bounds::problems::sat::{dpll, Cnf};
use cq_lower_bounds::problems::three_sum::{three_sum_sorted, ThreeSumInstance};
use cq_lower_bounds::problems::triangle::find_triangle_edge_iterator;
use cq_lower_bounds::problems::weighted_clique::{min_weight_k_clique, WeightedGraph};
use cq_lower_bounds::problems::Graph;
use cq_lower_bounds::reductions as red;

/// The full SETH chain of §3.2: SAT → k-DS (Thm 3.10) → star counting
/// (Lemma 3.9). One reduction feeding the next, with the final answer
/// recovered by the counting engine.
#[test]
fn sat_to_kds_to_star_counting_chain() {
    let mut rng = seeded_rng(1);
    for trial in 0..6 {
        let cnf = Cnf::random_ksat(4, 6 + trial * 2, 3, &mut rng);
        let expected = dpll(&cnf).is_some();
        // SAT → k-DS
        let kds = red::sat_to_kds::build(&cnf, 2);
        // k-DS → star counting (k = 2, k' = 2)
        let (has_ds, _, _) = red::kds_to_star::kds_via_star_counting(&kds.graph, 2, 2);
        assert_eq!(has_ds, expected, "trial {trial}: SETH chain broke");
    }
}

/// Triangle finding through four different query-evaluation routes must
/// all agree with the direct graph algorithm.
#[test]
fn triangle_through_four_routes() {
    let mut rng = seeded_rng(2);
    for trial in 0..8 {
        let g = Graph::random_gnm(14, 18 + 2 * trial, &mut rng);
        let expected = find_triangle_edge_iterator(&g).is_some();
        // Prop 3.3 through the 4-cycle query
        assert_eq!(
            red::triangle_to_query::triangle_via_query(
                &cq_core::query::zoo::cycle_boolean(4),
                &g
            )
            .unwrap(),
            expected,
            "via C4 query, trial {trial}"
        );
        // Lemma 3.21 through star testing
        assert_eq!(
            red::triangle_to_testing::triangle_via_star_testing(&g),
            expected,
            "via testing, trial {trial}"
        );
        // Lemma 3.23 through direct access
        assert_eq!(
            red::triangle_to_testing::triangle_via_qhat_direct_access(&g),
            expected,
            "via direct access, trial {trial}"
        );
        // Thm 4.1 route: 3-clique via the Nešetřil–Poljak derived graph
        assert_eq!(
            red::clique_to_triangle::kclique_via_triangle(&g, 3).is_some(),
            expected,
            "via NP reduction, trial {trial}"
        );
    }
}

/// 3SUM through sum-order direct access agrees with the two-pointer
/// algorithm on mixed planted/unplanted instances.
#[test]
fn three_sum_chain() {
    let mut rng = seeded_rng(3);
    for trial in 0..10 {
        let inst = ThreeSumInstance::random(18, 30, trial % 2 == 0, &mut rng);
        assert_eq!(
            red::three_sum_to_sum_da::three_sum_via_sum_order_da(&inst),
            three_sum_sorted(&inst).is_some(),
            "trial {trial}"
        );
    }
}

/// Min-weight 5-clique via the Figure-1 embedding, against brute force,
/// on graphs that are not complete.
#[test]
fn min_weight_clique_via_embedding_on_sparse_graphs() {
    let mut rng = seeded_rng(4);
    for trial in 0..4 {
        // random graph with ~70% density and random weights
        let plain = Graph::random_gnp(9, 0.7, &mut rng);
        let wg = WeightedGraph::from_edges(
            9,
            plain.edges().map(|(a, b)| {
                use rand::Rng;
                (a, b, rng.gen_range(-50i64..50))
            }),
        );
        let via_cycle = red::clique_embedding_db::min_weight_clique_via_cycle(5, &wg);
        let brute = min_weight_k_clique(&wg, 5).map(|(w, _)| w);
        assert_eq!(via_cycle, brute, "trial {trial}");
    }
}

/// The classifier's verdicts line up with what the engine actually
/// supports: easy ⟹ the fast algorithm exists and runs; hard ⟹ the
/// fast algorithms refuse.
#[test]
fn classifier_matches_engine_capabilities() {
    use cq_lower_bounds::prelude::*;
    let mut rng = seeded_rng(5);
    let mut db = Database::new();
    for name in ["R", "R1", "R2", "R3", "R4", "R5"] {
        db.insert(name, cq_data::generate::random_pairs(30, 8, &mut rng));
    }
    let suite = vec![
        zoo::path_join(3),
        zoo::star_selfjoin_free(2),
        zoo::star_full(2),
        zoo::matmul_projection(),
        zoo::triangle_boolean(),
        zoo::cycle_boolean(5),
    ];
    for q in suite {
        let p = classify(&q);
        // counting: Easy ⟺ the linear-time counters accept
        let fc_count = cq_engine::count::count_free_connex(&ExecCtx::cold(), &q, &db);
        match (&p.counting, q.is_join_query()) {
            (Verdict::Easy { .. }, false) => assert!(fc_count.is_ok(), "{q}"),
            (Verdict::Hard { .. }, false) => assert!(fc_count.is_err(), "{q}"),
            _ => {}
        }
        // enumeration: Easy ⟺ the constant-delay enumerator accepts
        let enum_ok = enumerate::preprocess(&ExecCtx::cold(), &q, &db).is_ok();
        match &p.enumeration {
            Verdict::Easy { .. } => assert!(enum_ok, "{q}"),
            Verdict::Hard { .. } => assert!(!enum_ok, "{q}"),
            Verdict::Open { .. } => {}
        }
    }
}

/// Sparse BMM through q̄*_2 equals the dedicated heavy/light algorithm.
#[test]
fn bmm_routes_agree() {
    use cq_matrix::sparse::{spgemm, spgemm_heavy_light};
    use cq_matrix::SparseBoolMat;
    use rand::Rng;
    let mut rng = seeded_rng(6);
    for trial in 0..5 {
        let n = 40;
        let entries: Vec<(u32, u32)> = (0..200)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        let a = SparseBoolMat::from_entries(n, n, entries.clone());
        let b =
            SparseBoolMat::from_entries(n, n, entries.into_iter().map(|(x, y)| (y, x)));
        let via_query = red::bmm_to_star_enum::multiply_via_query(&a, &b);
        assert_eq!(via_query, spgemm(&a, &b), "trial {trial}");
        let (hl, _) = spgemm_heavy_light(&a, &b, 4);
        assert_eq!(via_query, hl, "trial {trial}");
    }
}
