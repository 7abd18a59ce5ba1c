//! The one-call evaluation facade: plan, execute, report.
//!
//! These are the entry points the rest of the workspace (facade crate,
//! examples, tests) routes through. Each call plans (with no lock: the
//! [`Planner`] holds no state), executes the plan, and returns the
//! result together with the plan that produced it — the plan replaces
//! the old ad-hoc "which algorithm ran" enums and carries citations,
//! cost, and the lower-bound story for free.
//!
//! Execution is **warm by default**: every call runs against one
//! process-wide [`IndexCatalog`] ([`catalog`]), so statistics,
//! sorted views, join-tree links and preprocessing artifacts are built
//! once and reused by every later call that reads the same relation
//! contents — from any database. Catalog entries validate per lookup
//! against [`Database::version_of`] of exactly the relations they were
//! built from, so a stale product is never served, and a write to one
//! relation leaves what was built from the others warm.
//!
//! The facade is **concurrency-ready**: the catalog locks internally
//! per lookup and no lock is held across an execution, so any number of
//! threads can evaluate against one shared database simultaneously
//! ([`batch`] does exactly that).
//!
//! For catalog-controlled workflows (benchmarks, servers with per-tenant
//! catalogs) build an [`EvalCtx`] with an explicit [`IndexCatalog`],
//! cancel token, and/or budget, and call its task methods.

use crate::ctx::EvalCtx;
use crate::execute::Output;
use crate::ir::{QueryPlan, Task};
use crate::planner::Planner;
use cq_core::ConjunctiveQuery;
use cq_data::{Database, IndexCatalog, Relation};
use cq_engine::bind::EvalError;
use std::sync::OnceLock;

/// The process-wide catalog behind the facade functions (and behind an
/// [`EvalCtx`] given no explicit one). One for every database: entries
/// validate against per-relation versions on each lookup.
pub fn catalog() -> &'static IndexCatalog {
    static CATALOG: OnceLock<IndexCatalog> = OnceLock::new();
    CATALOG.get_or_init(IndexCatalog::new)
}

/// Plan `task` for `q` on `db` against the process-wide catalog's
/// memoized statistics.
pub fn plan(q: &ConjunctiveQuery, db: &Database, task: Task) -> QueryPlan {
    Planner::new().plan(q, task, &catalog().stats(db))
}

/// Decide whether `q(D)` is non-empty with the dichotomy-optimal
/// algorithm; returns the result and the plan that ran.
pub fn decide(
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<(bool, QueryPlan), EvalError> {
    EvalCtx::new().decide(q, db)
}

/// Count `|q(D)|` with the dichotomy-optimal algorithm; returns the
/// count and the plan that ran.
pub fn count(q: &ConjunctiveQuery, db: &Database) -> Result<(u64, QueryPlan), EvalError> {
    EvalCtx::new().count(q, db)
}

/// Produce all answers of `q(D)` (distinct projections onto the free
/// variables) with the dichotomy-optimal algorithm; returns the answer
/// relation and the plan that ran.
pub fn answers(
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<(Relation, QueryPlan), EvalError> {
    EvalCtx::new().answers(q, db)
}

/// EXPLAIN `task` for `q` on `db`: plan it and render the plan with
/// citations and lower-bound hypotheses.
pub fn explain(q: &ConjunctiveQuery, db: &Database, task: Task) -> String {
    let p = plan(q, db, task);
    crate::explain::render(&p, q)
}

/// Evaluate a batch of independent queries' answers over one database,
/// in parallel: one shared [`IndexCatalog`] (the process-wide one, so
/// the batch both profits from and feeds the warm path), every item
/// planned up front, then [`std::thread::scope`] workers pulling queries
/// off a shared cursor.
/// Results come back in input order, each with the plan that ran.
pub fn batch(
    queries: &[ConjunctiveQuery],
    db: &Database,
) -> Vec<Result<(Relation, QueryPlan), EvalError>> {
    batch_tasks(queries.iter().map(|q| (q, Task::Answers)), db)
        .into_iter()
        .map(|r| {
            r.and_then(|(out, plan)| match out {
                Output::Answers(a) => Ok((a.collect()?, plan)),
                other => unreachable!("answers plan yielded {other:?}"),
            })
        })
        .collect()
}

/// [`batch`] for mixed tasks: each item is a query plus the task to
/// run it under ([`Task::Access`] items yield a seekable
/// [`Output::Answers`] stream over the built structure).
pub fn batch_tasks<'q>(
    items: impl IntoIterator<Item = (&'q ConjunctiveQuery, Task)>,
    db: &Database,
) -> Vec<Result<(Output, QueryPlan), EvalError>> {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    EvalCtx::new().batch_tasks(items, db, workers)
}

/// What `f` builds in the process-wide catalog. Its counters are
/// process-wide too and the tests of this binary run in parallel, so
/// take the quietest of a few windows: foreign builds only ever add.
#[cfg(test)]
pub(crate) fn builds_in_a_quiet_window(f: impl Fn()) -> u64 {
    let window = |_| {
        let before = catalog().snapshot().misses;
        f();
        catalog().snapshot().misses - before
    };
    (0..32).map(window).min().expect("32 windows")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, random_pairs, seeded_rng, triangle_database};
    use cq_engine::bind::{brute_force_answers, brute_force_count, brute_force_decide};

    #[test]
    fn facade_matches_brute_force_and_reports_plans() {
        let db = path_database(3, 40, &mut seeded_rng(1));
        let q = zoo::path_boolean(3);
        let (res, plan) = decide(&q, &db).unwrap();
        assert_eq!(res, brute_force_decide(&q, &db).unwrap());
        assert_eq!(plan.op.name(), "Yannakakis semijoin sweep");

        let q = zoo::path_join(3);
        let (n, plan) = count(&q, &db).unwrap();
        assert_eq!(n, brute_force_count(&q, &db).unwrap());
        assert_eq!(plan.op.name(), "counting DP over join tree");

        let db = triangle_database(&random_pairs(40, 10, &mut seeded_rng(2)));
        let q = zoo::triangle_join();
        let (rel, plan) = answers(&q, &db).unwrap();
        assert_eq!(rel, brute_force_answers(&q, &db).unwrap());
        assert_eq!(plan.op.name(), "generic join + projection");
    }

    #[test]
    fn facade_is_mutation_safe() {
        // the warm path must never serve indexes of a previous state
        let mut db = path_database(2, 30, &mut seeded_rng(7));
        let q = zoo::path_join(2);
        let (first, _) = answers(&q, &db).unwrap();
        assert_eq!(first, brute_force_answers(&q, &db).unwrap());
        // repeat on the unchanged database: same result, warm catalog
        let (again, _) = answers(&q, &db).unwrap();
        assert_eq!(first, again);
        // mutate and re-evaluate: R2's version moved, its indexes rebuild
        db.insert("R2", cq_data::Relation::from_pairs(vec![(1, 2)]));
        let (after, _) = answers(&q, &db).unwrap();
        assert_eq!(after, brute_force_answers(&q, &db).unwrap());
    }

    #[test]
    fn facade_reuses_catalog_across_calls() {
        // relation names of this test's own: no other test's write can
        // invalidate what these calls build
        let mut db = Database::new();
        for (i, name) in ["WarmA", "WarmB", "WarmC"].into_iter().enumerate() {
            db.insert(name, random_pairs(25, 25, &mut seeded_rng(8 + i as u64)));
        }
        let q = cq_core::parse_query(
            "q(a, b, c, d) :- WarmA(a, b), WarmB(b, c), WarmC(c, d)",
        )
        .unwrap();
        let _ = answers(&q, &db).unwrap();
        let _ = count(&q, &db).unwrap();
        let repeat = || {
            let _ = answers(&q, &db).unwrap();
            let _ = count(&q, &db).unwrap();
        };
        assert_eq!(builds_in_a_quiet_window(repeat), 0, "warm facade calls rebuilt");
    }

    #[test]
    fn explain_facade_renders() {
        let db = triangle_database(&random_pairs(20, 8, &mut seeded_rng(4)));
        let text = explain(&zoo::triangle_boolean(), &db, Task::Decide);
        assert!(text.contains("generic join"));
        assert!(text.contains("Hypothesis"));
    }

    #[test]
    fn boolean_answers_are_the_nullary_relation() {
        let db = triangle_database(&random_pairs(20, 8, &mut seeded_rng(5)));
        let q = zoo::triangle_boolean();
        let (rel, plan) = answers(&q, &db).unwrap();
        assert_eq!(rel.arity(), 0);
        assert_eq!(plan.op.name(), "generic join (worst-case optimal)");
        // the answer relation distinguishes true ({()}) from false ({})
        let want = brute_force_decide(&q, &db).unwrap();
        assert_eq!(rel.len(), usize::from(want));
        assert_eq!(rel, brute_force_answers(&q, &db).unwrap());
        // acyclic Boolean route agrees
        let db = path_database(2, 30, &mut seeded_rng(6));
        let q = zoo::path_boolean(2);
        let (rel, _) = answers(&q, &db).unwrap();
        assert_eq!(rel.len(), usize::from(brute_force_decide(&q, &db).unwrap()));
    }

    #[test]
    fn batch_matches_sequential_evaluation() {
        let db = path_database(3, 40, &mut seeded_rng(21));
        let q = zoo::path_join(3);
        let queries: Vec<_> = (0..12).map(|_| q.clone()).collect();
        let (want, _) = answers(&q, &db).unwrap();
        for r in batch(&queries, &db) {
            let (rel, plan) = r.unwrap();
            assert_eq!(rel, want);
            assert_eq!(plan.query, q.to_string());
        }
        // empty batch is fine
        assert!(batch(&[], &db).is_empty());
    }

    #[test]
    fn batch_tasks_mixes_tasks_and_propagates_errors() {
        let db = path_database(3, 35, &mut seeded_rng(22));
        let qj = zoo::path_join(3);
        let qb = zoo::path_boolean(3);
        let items = vec![(&qj, Task::Answers), (&qj, Task::Count), (&qb, Task::Decide)];
        let results = batch_tasks(items, &db);
        assert_eq!(results.len(), 3);
        let (want_ans, _) = answers(&qj, &db).unwrap();
        let (want_count, _) = count(&qj, &db).unwrap();
        let (want_dec, _) = decide(&qb, &db).unwrap();
        let mut results = results.into_iter();
        match results.next().unwrap().unwrap().0 {
            Output::Answers(a) => assert_eq!(a.collect().unwrap(), want_ans),
            other => panic!("answers item yielded {other:?}"),
        }
        assert_eq!(results.next().unwrap().unwrap().0.as_count(), Some(want_count));
        assert_eq!(results.next().unwrap().unwrap().0.as_decision(), Some(want_dec));
        // per-item errors: a query over a missing relation fails alone
        let missing = cq_core::parse_query("q(x, y) :- Nope(x, y)").unwrap();
        let items = vec![(&qj, Task::Answers), (&missing, Task::Decide)];
        let results = batch_tasks(items, &db);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(EvalError::MissingRelation(_))));
        // Task::Access executes to a seekable stream over the built
        // structure
        let items = vec![(&qj, Task::Access)];
        let results = EvalCtx::new().batch_tasks(items, &db, 1);
        match results.into_iter().next().unwrap().unwrap().0 {
            Output::Answers(mut a) => {
                assert!(a.can_seek());
                a.seek(0).unwrap();
                assert_eq!(a.collect().unwrap(), want_ans);
            }
            other => panic!("access item yielded {other:?}"),
        }
    }

    #[test]
    fn batch_with_explicit_catalog_feeds_that_catalog() {
        let db = path_database(3, 30, &mut seeded_rng(24));
        let q = zoo::path_join(3);
        let catalog = IndexCatalog::new();
        let ctx = EvalCtx::new().with_catalog(&catalog);
        let items: Vec<_> = (0..6).map(|_| (&q, Task::Answers)).collect();
        let results = ctx.batch_tasks(items.clone(), &db, 4);
        let (want, _) = answers(&q, &db).unwrap();
        for r in results {
            match r.unwrap().0 {
                Output::Answers(a) => assert_eq!(a.collect().unwrap(), want),
                other => panic!("answers item yielded {other:?}"),
            }
        }
        let snap = catalog.snapshot();
        assert!(snap.misses > 0, "the batch must build into the explicit catalog");
        // a second batch on the same catalog is all-warm: no new builds
        let misses_before = snap.misses;
        let _ = ctx.batch_tasks(items, &db, 4);
        assert_eq!(catalog.snapshot().misses, misses_before, "second batch is warm");
    }

    #[test]
    fn batch_scales_across_worker_counts() {
        // same results whatever the parallelism (including inline)
        let db = path_database(2, 30, &mut seeded_rng(23));
        let q = zoo::path_join(2);
        let items: Vec<_> = (0..9).map(|_| (&q, Task::Count)).collect();
        let want = EvalCtx::new().batch_tasks(items.clone(), &db, 1);
        for workers in [2, 4, 16] {
            let got = EvalCtx::new().batch_tasks(items.clone(), &db, workers);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(
                    g.as_ref().unwrap().0.as_count(),
                    w.as_ref().unwrap().0.as_count()
                );
            }
        }
    }
}
