//! The cost-aware planner: a verdict mapped to an operator.
//!
//! [`choose`] turns (query, task, structure, statistics) into a
//! [`QueryPlan`]. Which side of the dichotomy the pair is on — and which
//! hypothesis rules out anything faster — is `cq_core::classify`'s
//! [`verdict`] over the query's [`Structure`]; the planner adds the
//! operator implementing that side, and from the per-database
//! [`DataStats`] the generic-join variable order and the cost estimate —
//! all a plan takes from the data, so a plan is correct on any database.
//! Planning is deterministic: the same query, task, and statistics always
//! produce the same plan. The structure depends on the query alone, so a
//! caller that plans one query again — the server's statement memo, after
//! a write — keeps it and runs only [`choose`].

use crate::ir::{CostEstimate, Op, QueryPlan, Source, Task};
use cq_core::classify::{classify_direct_access_lex, verdict, Structure};
use cq_core::{ConjunctiveQuery, Var};
use cq_data::DataStats;

/// The planner. It holds no state: each method computes the query's
/// [`Structure`] and hands it to [`choose`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Planner;

impl Planner {
    /// The planner.
    pub fn new() -> Self {
        Planner
    }

    /// Plan `task` for `q` against a database summarized by `stats`.
    /// (`&mut self` is the signature `bench/` calls it through.)
    pub fn plan(
        &mut self,
        q: &ConjunctiveQuery,
        task: Task,
        stats: &DataStats,
    ) -> QueryPlan {
        choose(q, task, &Structure::of(q), stats)
    }

    /// [`Planner::plan`] without a planner value.
    pub fn plan_uncached(
        q: &ConjunctiveQuery,
        task: Task,
        stats: &DataStats,
    ) -> QueryPlan {
        choose(q, task, &Structure::of(q), stats)
    }

    /// Plan lexicographic direct access under `order` (Thm 3.24). These
    /// plans are order-dependent.
    pub fn plan_lex_access(
        q: &ConjunctiveQuery,
        order: &[Var],
        stats: &DataStats,
    ) -> QueryPlan {
        let m = stats.m();
        let structure = Structure::of(q);
        let lower_bound = classify_direct_access_lex(q, &structure, order);
        let (source, algorithm_reference, exponent) = if lower_bound.is_easy() {
            let join_query = structure.join_query;
            let order = Some(order.to_vec());
            (Source::QPrime { join_query, order }, "Thm 3.24 [27]", 1.0)
        } else {
            // hard or out-of-scope orders: materialize + sort
            (
                Source::GenericJoin { order: order.to_vec() },
                "materialization baseline (Lemma 3.9)",
                structure.agm_exponent,
            )
        };
        let op = Op { source, task: Task::Access };
        let cost = CostEstimate { m, exponent };
        QueryPlan { task: Task::Access, op, algorithm_reference, cost, lower_bound }
    }
}

/// The planner's variable-order heuristic for generic-join operators:
/// greedy by estimated candidate count, where a variable's estimate is
/// the minimum distinct-value count over the atom columns it occurs in.
/// The cheapest variable goes first — smallest-first minimizes the
/// branching at the top of the leapfrog search — and every later pick is
/// the cheapest variable sharing an atom with one already chosen: a
/// variable no atom ties to the prefix is constrained by nothing yet,
/// and the join would enumerate its cross product with the prefix. Only
/// a disconnected query ever falls back to the cheapest variable
/// overall. Ties break on interning order so planning is deterministic.
fn variable_order(q: &ConjunctiveQuery, stats: &DataStats) -> Vec<Var> {
    let n = q.n_vars();
    let mut est: Vec<u64> = vec![u64::MAX; n];
    for atom in q.atoms() {
        let rel = stats.relation(&atom.relation);
        for (c, v) in atom.vars.iter().enumerate() {
            let d = match rel {
                Some(r) => r.distinct(c) as u64,
                None => u64::MAX,
            };
            est[v.index()] = est[v.index()].min(d);
        }
    }
    let mut order: Vec<Var> = Vec::with_capacity(n);
    let mut chosen: u64 = 0;
    while order.len() < n {
        // variables in some atom that touches the chosen prefix
        let adjacent = q
            .atoms()
            .iter()
            .map(|a| a.scope())
            .filter(|scope| scope & chosen != 0)
            .fold(0, |m, scope| m | scope);
        let cheapest = |among: u64| {
            q.vars()
                .filter(|v| v.mask() & among & !chosen != 0)
                .min_by_key(|v| (est[v.index()], v.0))
        };
        let next = cheapest(adjacent)
            .or_else(|| cheapest(u64::MAX))
            .expect("fewer than n variables chosen");
        chosen |= next.mask();
        order.push(next);
    }
    order
}

/// Plan `task` for `q`, whose structure is `structure`
/// (`Structure::of(q)`), against a database summarized by `stats`: the
/// verdict-to-operator table, plus the data-driven choices.
/// Deterministic in its arguments.
pub fn choose(
    q: &ConjunctiveQuery,
    task: Task,
    structure: &Structure,
    stats: &DataStats,
) -> QueryPlan {
    // the task the query comes down to, answered on the easy side by `q'`
    // and on the other by the generic-join baseline
    let task_end = structure.effective_task(task);
    let lower_bound = verdict(q, structure, task);
    let (easy, agm) = (lower_bound.is_easy(), structure.agm_exponent);
    let (algorithm_reference, exponent) = match (task_end, easy) {
        (Task::Decide, true) => ("Thm 3.1 (Yannakakis)", 1.0),
        (Task::Decide, false) => {
            ("§2.1 / Ex 3.4 (AGM-optimal generic join, early stop)", agm)
        }
        (Task::Count, true) if structure.join_query => {
            ("Thm 3.8 (counting DP over join tree)", 1.0)
        }
        (Task::Count, true) => ("Thm 3.13 (projection elimination + counting DP)", 1.0),
        (Task::Count, false) => (
            "Lemma 3.9 / Cor 3.11 (materialization baseline)",
            agm.max(structure.star_size.max(1) as f64),
        ),
        (Task::Answers, true) => {
            ("Thm 3.17 [BDG07] (constant delay after linear preprocessing)", 1.0)
        }
        (Task::Answers, false) => {
            ("materialization baseline (generic join + projection)", agm)
        }
        (Task::Access, true) => {
            ("Thm 3.18 [19, 27] (linear preprocessing, log access)", 1.0)
        }
        (Task::Access, false) => ("materialization baseline (Lemma 3.9)", agm),
    };
    let source = match easy {
        true => Source::QPrime { join_query: structure.join_query, order: None },
        false => Source::GenericJoin { order: variable_order(q, stats) },
    };
    let op = Op { source, task: task_end };
    let cost = CostEstimate { m: stats.m(), exponent };
    QueryPlan { task, op, algorithm_reference, cost, lower_bound }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Verdict;
    use cq_core::query::zoo;
    use cq_core::Hypothesis;
    use cq_data::generate::{path_database, random_pairs, seeded_rng, triangle_database};
    use cq_data::{Database, Relation};

    fn stats_for(db: &Database) -> DataStats {
        DataStats::collect(db)
    }

    #[test]
    fn acyclic_decision_plans_semijoin_sweep() {
        let db = path_database(3, 30, &mut seeded_rng(1));
        let plan =
            Planner::new().plan(&zoo::path_boolean(3), Task::Decide, &stats_for(&db));
        let sweep = Source::QPrime { join_query: false, order: None };
        assert_eq!(plan.op, Op { source: sweep, task: Task::Decide });
        assert!(matches!(plan.lower_bound, Verdict::Easy { .. }));
    }

    #[test]
    fn triangle_decision_plans_generic_join_citing_triangle_hypothesis() {
        let db = triangle_database(&random_pairs(30, 10, &mut seeded_rng(2)));
        let plan =
            Planner::new().plan(&zoo::triangle_boolean(), Task::Decide, &stats_for(&db));
        assert!(matches!(plan.op.source, Source::GenericJoin { .. }));
        assert!((plan.cost.exponent - 1.5).abs() < 1e-9, "triangle AGM is 3/2");
        match &plan.lower_bound {
            Verdict::Hard { hypotheses, .. } => {
                assert_eq!(hypotheses, &vec![Hypothesis::Triangle])
            }
            other => panic!("expected conditional bound, got {other:?}"),
        }
    }

    #[test]
    fn lw5_decision_cites_hyperclique() {
        let db = Database::new(); // stats only
        let plan = Planner::new().plan(
            &zoo::loomis_whitney_boolean(5),
            Task::Decide,
            &stats_for(&db),
        );
        match &plan.lower_bound {
            Verdict::Hard { hypotheses, .. } => {
                assert_eq!(hypotheses, &vec![Hypothesis::Hyperclique])
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn counting_tasks_follow_the_dichotomy() {
        let db = path_database(2, 20, &mut seeded_rng(3));
        let stats = stats_for(&db);
        let mut p = Planner::new();
        let mut name = |q: &ConjunctiveQuery| p.plan(q, Task::Count, &stats).op.name();
        assert_eq!(name(&zoo::path_join(2)), "counting DP over join tree");
        let fc = cq_core::parse_query("q(x0, x1) :- R1(x0,x1), R2(x1,x2)").unwrap();
        assert_eq!(name(&fc), "projection elimination + counting DP");
        let star = zoo::star_selfjoin_free(2);
        let plan = p.plan(&star, Task::Count, &stats);
        assert_eq!(plan.op.name(), "generic join + distinct-projection count");
        match plan.lower_bound {
            Verdict::Hard { ref hypotheses, exponent, .. } => {
                assert_eq!(hypotheses, &vec![Hypothesis::Seth]);
                assert_eq!(exponent, Some(2.0));
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn boolean_counting_reuses_the_decision_plan() {
        let db = path_database(3, 20, &mut seeded_rng(4));
        let mut p = Planner::new();
        let plan = p.plan(&zoo::path_boolean(3), Task::Count, &stats_for(&db));
        assert_eq!(plan.task, Task::Count);
        let sweep = Source::QPrime { join_query: false, order: None };
        assert_eq!(plan.op, Op { source: sweep, task: Task::Decide });
    }

    #[test]
    fn free_connex_answers_plan_constant_delay() {
        let db = path_database(2, 20, &mut seeded_rng(5));
        let mut p = Planner::new();
        let plan = p.plan(&zoo::path_join(2), Task::Answers, &stats_for(&db));
        assert_eq!(plan.op.name(), "constant-delay enumeration");
        let plan = p.plan(&zoo::matmul_projection(), Task::Answers, &stats_for(&db));
        assert_eq!(plan.op.name(), "generic join + projection");
        match plan.lower_bound {
            Verdict::Hard { ref hypotheses, .. } => {
                assert_eq!(hypotheses, &vec![Hypothesis::SparseBmm])
            }
            ref other => panic!("{other:?}"),
        }
    }

    /// An empty body relation changes nothing the planner decides but the
    /// cost's `m`: the plan and its verdict are classify's, as once the
    /// relation holds a row, and the short-circuit is the operator's. A
    /// missing relation is planned the same way; its error surfaces at
    /// execution, exactly like the unplanned engine's.
    #[test]
    fn empty_relation_short_circuits() {
        let q = zoo::path_join(2);
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(vec![(1, 2)]));
        db.insert("R2", Relation::new(2)); // present but empty
        let mut filled = db.clone();
        filled.get_mut("R2").unwrap().insert_row(&[2, 3]);
        let mut p = Planner::new();
        let plan = p.plan(&q, Task::Count, &stats_for(&db));
        let full = p.plan(&q, Task::Count, &stats_for(&filled));
        assert_eq!(plan.op.name(), "counting DP over join tree");
        assert_eq!((&plan.op, &plan.lower_bound), (&full.op, &full.lower_bound));
        let ctx = crate::EvalCtx::new();
        let count = |plan, db| match ctx.execute(plan, &q, db) {
            Ok(crate::Output::Count(n)) => Ok(n),
            other => Err(format!("{other:?}")),
        };
        assert_eq!(count(&plan, &db), Ok(0));
        assert_eq!(count(&plan, &filled), Ok(1));
        let missing = Database::new();
        let plan = p.plan(&q, Task::Count, &stats_for(&missing));
        assert_eq!(plan.op, full.op);
        assert!(count(&plan, &missing).is_err());
    }

    #[test]
    fn variable_order_prefers_small_columns() {
        let mut db = Database::new();
        // x column of R1 has 1 distinct value; y has 20; z has 20
        db.insert("R1", Relation::from_pairs((0..20).map(|i| (7, i))));
        db.insert("R2", Relation::from_pairs((0..20).map(|i| (i, i + 100))));
        let q = cq_core::parse_query("q(x, y, z) :- R1(x, y), R2(y, z)").unwrap();
        let order = variable_order(&q, &stats_for(&db));
        let x = q.var_by_name("x").unwrap();
        assert_eq!(order[0], x, "cheapest column first, got {order:?}");
    }

    /// A database with one random relation per relation symbol of `q`,
    /// each with its own row count and domain, so column estimates differ.
    fn random_stats(q: &ConjunctiveQuery, seed: u64) -> DataStats {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        let mut db = Database::new();
        for atom in q.atoms() {
            let domain = rng.gen_range(4..40u64);
            let rows = rng.gen_range(1..=domain as usize);
            let rel =
                cq_data::generate::random_relation(atom.arity(), rows, domain, &mut rng);
            db.insert(&atom.relation, rel);
        }
        stats_for(&db)
    }

    #[test]
    fn variable_order_keeps_every_prefix_connected() {
        // the regression: near-tied end columns used to sort first, and
        // generic join enumerated a × d before touching b or c
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs((0..100).map(|i| (i % 5, i))));
        db.insert("R2", Relation::from_pairs((0..100).map(|i| (i, i))));
        db.insert("R3", Relation::from_pairs((0..100).map(|i| (i, i % 6))));
        let q = zoo::path_join(3);
        let names = |order: &[Var]| -> Vec<String> {
            order.iter().map(|&v| q.var_name(v).to_string()).collect()
        };
        let order = variable_order(&q, &stats_for(&db));
        assert_eq!(names(&order), ["x0", "x1", "x2", "x3"]);

        // every zoo query with a connected hypergraph, under many
        // different column estimates
        let mut connected =
            vec![zoo::triangle_join(), zoo::triangle_boolean(), zoo::matmul_projection()];
        for k in 2..=5 {
            connected.push(zoo::path_join(k));
            connected.push(zoo::path_boolean(k));
            connected.push(zoo::star_selfjoin(k));
            connected.push(zoo::star_selfjoin_free(k));
            connected.push(zoo::star_full(k));
        }
        for k in 3..=5 {
            connected.push(zoo::cycle_join(k));
            connected.push(zoo::cycle_boolean(k));
            connected.push(zoo::loomis_whitney_boolean(k));
            connected.push(zoo::clique_join(k));
        }
        for q in &connected {
            let h = q.hypergraph();
            assert!(h.is_connected_within(q.all_vars_mask()), "{q} is in the wrong list");
            for seed in 0..20 {
                let order = variable_order(q, &random_stats(q, seed));
                assert_eq!(order.len(), q.n_vars());
                let mut prefix = 0u64;
                for v in &order {
                    prefix |= v.mask();
                    assert!(
                        h.is_connected_within(prefix),
                        "{q} (seed {seed}): prefix of {order:?} is disconnected"
                    );
                }
            }
        }
    }

    #[test]
    fn variable_order_is_plain_cheapest_first_when_all_variables_are_adjacent() {
        // triangle and Loomis–Whitney: every two variables share an atom,
        // so connectivity never restricts the choice
        let qs = [
            zoo::triangle_join(),
            zoo::loomis_whitney_boolean(3),
            zoo::loomis_whitney_boolean(4),
        ];
        for q in &qs {
            for seed in 0..20 {
                let stats = random_stats(q, seed);
                let order = variable_order(q, &stats);
                let mut sorted: Vec<Var> = q.vars().collect();
                sorted.sort_by_key(|&v| {
                    let est = q
                        .atoms()
                        .iter()
                        .flat_map(|a| {
                            let rel = stats.relation(&a.relation).unwrap();
                            (a.vars.iter().enumerate())
                                .filter(move |(_, &u)| u == v)
                                .map(move |(c, _)| rel.distinct(c))
                        })
                        .min();
                    (est, v.0)
                });
                assert_eq!(order, sorted, "{q} (seed {seed})");
            }
        }
        // a disconnected query still gets a full order
        let q = cq_core::parse_query("q(x, y) :- R1(x), R2(y)").unwrap();
        let mut db = Database::new();
        db.insert("R1", Relation::from_values(0..9));
        db.insert("R2", Relation::from_values(0..3));
        let order = variable_order(&q, &stats_for(&db));
        assert_eq!(order, vec![q.var_by_name("y").unwrap(), q.var_by_name("x").unwrap()]);
    }

    #[test]
    fn lex_access_plans_follow_the_trio_dichotomy() {
        let db = Database::new();
        let stats = stats_for(&db);
        let q = zoo::star_full(2);
        let x1 = q.var_by_name("x1").unwrap();
        let x2 = q.var_by_name("x2").unwrap();
        let z = q.var_by_name("z").unwrap();
        let good = Planner::plan_lex_access(&q, &[z, x1, x2], &stats);
        let order = Some(vec![z, x1, x2]);
        let lex =
            Op { source: Source::QPrime { join_query: true, order }, task: Task::Access };
        assert_eq!(good.op, lex);
        let bad = Planner::plan_lex_access(&q, &[x1, x2, z], &stats);
        let materialized = Source::GenericJoin { order: vec![x1, x2, z] };
        assert_eq!(bad.op, Op { source: materialized, task: Task::Access });
        match bad.lower_bound {
            Verdict::Hard { ref hypotheses, .. } => {
                assert!(hypotheses.contains(&Hypothesis::Triangle))
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn planning_is_deterministic_and_cache_transparent() {
        let db = triangle_database(&random_pairs(25, 8, &mut seeded_rng(6)));
        let stats = stats_for(&db);
        let q = zoo::triangle_join();
        let plan = Planner::new().plan(&q, Task::Answers, &stats);
        assert_eq!(plan, Planner::new().plan(&q, Task::Answers, &stats));
        assert_eq!(plan, Planner::plan_uncached(&q, Task::Answers, &stats));
        // a kept structure plans exactly as a fresh one
        let kept = Structure::of(&q);
        assert_eq!(plan, choose(&q, Task::Answers, &kept, &stats));
    }
}
