//! Planner consistency: for every query in the zoo (and randomly
//! generated queries), the planner's executed answers, counts, and
//! decisions must agree with the brute-force oracle, and planning must
//! be deterministic: the same query, task and statistics give the same
//! plan on every entry point.

use cq_engine::bind::{brute_force_answers, brute_force_count, brute_force_decide};
use cq_lower_bounds::prelude::*;
use cq_planner::{choose, explain, Output};
use proptest::prelude::*;
use queries::{query_strategy, random_db};

mod queries;

/// Every query family the paper names, at small sizes.
fn zoo_suite() -> Vec<ConjunctiveQuery> {
    let mut qs = vec![
        zoo::triangle_boolean(),
        zoo::triangle_join(),
        zoo::matmul_projection(),
        zoo::clique_join(3),
        zoo::clique_join(3).boolean_version(),
    ];
    for k in 2..=4 {
        qs.push(zoo::path_join(k));
        qs.push(zoo::path_boolean(k));
        qs.push(zoo::cycle_boolean(k.max(3)));
        qs.push(zoo::cycle_join(k.max(3)));
        qs.push(zoo::star_selfjoin(k));
        qs.push(zoo::star_selfjoin_free(k));
        qs.push(zoo::star_full(k));
        qs.push(zoo::loomis_whitney_boolean(k.max(3)));
    }
    qs
}

#[test]
fn zoo_decide_count_answers_match_oracle() {
    let mut planner = Planner::new();
    for (i, q) in zoo_suite().into_iter().enumerate() {
        for seed in 0..3u64 {
            let db = random_db(&q, 101 * i as u64 + seed, 25, 8);
            let stats = DataStats::collect(&db);

            let plan = planner.plan(&q, Task::Decide, &stats);
            let got =
                EvalCtx::new().execute(&plan, &q, &db).unwrap().as_decision().unwrap();
            assert_eq!(
                got,
                brute_force_decide(&q, &db).unwrap(),
                "decide {q} seed {seed}"
            );

            let plan = planner.plan(&q, Task::Count, &stats);
            let got = EvalCtx::new().execute(&plan, &q, &db).unwrap().as_count().unwrap();
            assert_eq!(got, brute_force_count(&q, &db).unwrap(), "count {q} seed {seed}");

            let plan = planner.plan(&q, Task::Answers, &stats);
            match EvalCtx::new().execute(&plan, &q, &db).unwrap() {
                Output::Answers(a) => {
                    assert_eq!(
                        a.collect().unwrap(),
                        brute_force_answers(&q, &db).unwrap(),
                        "answers {q} seed {seed}"
                    );
                }
                other => panic!("answers task yielded {other:?} for {q}"),
            }
        }
    }
}

/// Planning is bounded in work up to the 64-variable limit: the widest
/// shapes the parser admits — the witness search's worst cases among
/// them — are planned on every entry point, with the verdict `classify`
/// gives them.
#[test]
fn widest_queries_are_planned_on_every_entry_point() {
    let ring = |k: usize| -> String {
        let atoms: Vec<String> =
            (0..k).map(|i| format!("E{i}(x{i}, x{})", (i + 1) % k)).collect();
        atoms.join(", ")
    };
    let chain: Vec<String> = (0..63).map(|i| format!("P{i}(x{i}, x{})", i + 1)).collect();
    let head: Vec<String> = (0..64).map(|i| format!("x{i}")).collect();
    let queries = [
        zoo::cycle_boolean(64),
        zoo::cycle_join(26),
        zoo::loomis_whitney_boolean(6),
        parse_query(&format!("q({}) :- {}", head.join(", "), chain.join(", "))).unwrap(),
        // a long cycle behind a ternary atom: the witness search is cut
        parse_query(&format!("q(a) :- T(a, b, c), {}", ring(61))).unwrap(),
    ];
    let stats = DataStats::collect(&Database::new());
    let mut planner = Planner::new();
    for q in &queries {
        let profile = classify(q);
        let fields = [
            (Task::Decide, &profile.decision),
            (Task::Count, &profile.counting),
            (Task::Answers, &profile.enumeration),
            (Task::Access, &profile.direct_access_unordered),
        ];
        for (task, want) in fields {
            assert_eq!(&planner.plan(q, task, &stats).lower_bound, want, "{task} of {q}");
            let uncached = Planner::plan_uncached(q, task, &stats);
            assert_eq!(&uncached.lower_bound, want, "{task} of {q}");
        }
        // join queries only (Thm 3.24): the chain's own order has no
        // disruptive trio, the cycle is hard under any order
        let order: Vec<Var> = q.vars().collect();
        let lex = Planner::plan_lex_access(q, &order, &stats);
        let s = &profile.structure;
        assert_eq!(lex.lower_bound.is_easy(), s.join_query && s.acyclic, "{q}");
    }
}

/// The most symmetric shapes of the zoo — every variable interchangeable
/// with every other — are planned with the verdict `classify` gives
/// them, like any other shape.
#[test]
fn symmetric_queries_are_planned_with_the_classifiers_verdict() {
    let stats = DataStats::collect(&Database::new());
    let cliques = (5..=8).map(zoo::clique_join);
    for q in cliques.chain((6..=8).map(zoo::loomis_whitney_boolean)) {
        let profile = classify(&q);
        let fields = [
            (Task::Decide, &profile.decision),
            (Task::Count, &profile.counting),
            (Task::Answers, &profile.enumeration),
            (Task::Access, &profile.direct_access_unordered),
        ];
        for (task, want) in fields {
            assert_eq!(
                &Planner::new().plan(&q, task, &stats).lower_bound,
                want,
                "{task} of {q}"
            );
        }
    }
}

#[test]
fn explain_triangle_acceptance() {
    // Acceptance criterion: EXPLAIN for the triangle query names generic
    // join and cites the BMM / hyperclique lower-bound hypotheses.
    let q = zoo::triangle_boolean();
    let db = random_db(&q, 3, 30, 8);
    let plan = Planner::new().plan(&q, Task::Decide, &DataStats::collect(&db));
    let text = explain::render(&plan, &q);
    for needle in ["generic join", "BMM", "Hyperclique", "Triangle Hypothesis"] {
        assert!(text.contains(needle), "EXPLAIN missing {needle:?}:\n{text}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Planner-executed counting equals brute force on random queries.
    #[test]
    fn random_queries_count_matches_oracle(q in query_strategy(), seed in 0u64..1000) {
        let db = random_db(&q, seed, 12, 8);
        let (got, _) = EvalCtx::new().count(&q, &db).unwrap();
        prop_assert_eq!(got, brute_force_count(&q, &db).unwrap(), "query {}", q);
    }

    /// Planner-executed decision equals brute force on random queries.
    #[test]
    fn random_queries_decide_matches_oracle(q in query_strategy(), seed in 0u64..1000) {
        let db = random_db(&q, seed, 12, 8);
        let (got, _) = EvalCtx::new().decide(&q, &db).unwrap();
        prop_assert_eq!(got, brute_force_decide(&q, &db).unwrap(), "query {}", q);
    }

    /// Planner-executed answers equal brute force on random queries.
    #[test]
    fn random_queries_answers_match_oracle(q in query_strategy(), seed in 0u64..500) {
        if q.is_boolean() {
            return Ok(());
        }
        let db = random_db(&q, seed, 10, 8);
        let (got, _) = EvalCtx::new().answers(&q, &db).unwrap();
        prop_assert_eq!(got, brute_force_answers(&q, &db).unwrap(), "query {}", q);
    }

    /// A kept structure plans as a fresh one, on random queries too: what
    /// the statement memo replans with is what `plan_uncached` computes.
    #[test]
    fn random_queries_cache_transparent(q in query_strategy(), seed in 0u64..200) {
        let db = random_db(&q, seed, 10, 8);
        let stats = DataStats::collect(&db);
        let kept = Structure::of(&q);
        for task in [Task::Decide, Task::Count, Task::Answers] {
            let fresh = Planner::plan_uncached(&q, task, &stats);
            prop_assert_eq!(choose(&q, task, &kept, &stats), fresh, "query {} task {:?}", q, task);
        }
    }
}
