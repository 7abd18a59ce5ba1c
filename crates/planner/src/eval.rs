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
//! threads can evaluate against one shared database simultaneously.
//!
//! For catalog-controlled workflows (benchmarks, servers with per-tenant
//! catalogs) build an [`EvalCtx`] with an explicit [`IndexCatalog`]
//! and/or cancel token, and call its task methods.

use crate::ctx::EvalCtx;
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
}
