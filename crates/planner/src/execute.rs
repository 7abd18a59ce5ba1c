//! The plan executor: dispatch a [`QueryPlan`] to the `cq-engine`
//! algorithm it names. Its one caller is
//! [`EvalCtx::execute`](crate::EvalCtx::execute), which hands it the
//! caller's catalog, or a throwaway one, and token as an [`ExecCtx`].
//!
//! Execution is strict about the plan/task pairing — a plan produced
//! for [`Task::Count`] cannot be executed as enumeration — but
//! deliberately forgiving about *re-use*: a plan can be executed any
//! number of times, against any database (the plan stays *correct* on
//! other databases; only its cost estimate and trivial-empty
//! short-circuit are tied to the statistics it was planned with, which
//! is why execution re-checks nothing and `TrivialEmpty` plans should
//! only be replayed against the database they were planned for).

use crate::ir::{PlanOp, QueryPlan, Task};
use cq_core::ConjunctiveQuery;
use cq_data::{Database, Relation};
use cq_engine::bind::EvalError;
use cq_engine::{count, enumerate, generic_join, yannakakis, ExecCtx, LexDirectAccess};
use std::sync::Arc;

/// The answer payload of an executed plan: the engine's one stream type.
/// Rows arrive in the source's native deterministic order — enumeration
/// order for constant-delay plans, the structure's lexicographic order
/// for direct access, normalized sorted order for materialized
/// operators. Callers needing normalized output use
/// [`Answers::collect`].
pub use cq_engine::Answers;

/// The result of executing a plan: one variant per task.
#[derive(Debug)]
pub enum Output {
    /// `Task::Decide`: is the answer set non-empty?
    Decision(bool),
    /// `Task::Count`: number of answers.
    Count(u64),
    /// `Task::Answers` / `Task::Access`: a pull-driven stream of answer
    /// rows over the free variables (see [`Answers`] for the order
    /// contract).
    Answers(Answers),
}

impl Output {
    /// The Boolean payload, if this is a decision.
    pub fn as_decision(&self) -> Option<bool> {
        match self {
            Output::Decision(b) => Some(*b),
            _ => None,
        }
    }

    /// The count payload, if this is a count.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            Output::Count(c) => Some(*c),
            _ => None,
        }
    }
}

/// **The** dispatch table: `plan.task` to the operator arms, every
/// index acquisition routed through `ctx`'s catalog and every operator
/// loop polling `ctx`'s token. Sorted views, join-tree links, bound
/// relations, projection-elimination messages and the reduced trees
/// enumeration and direct access share are memoized across calls, so
/// repeated evaluation of the same shape on an unchanged database is
/// index-build-free. The token is checked once up front, so an
/// already-expired deadline cancels deterministically before any work —
/// whatever the plan.
pub(crate) fn execute_in(
    ctx: &ExecCtx,
    plan: &QueryPlan,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<Output, EvalError> {
    ctx.cancel().check_now()?;
    let mut answers = match plan.task {
        Task::Decide => return decide_task(ctx, plan, q, db).map(Output::Decision),
        Task::Count => return count_task(ctx, plan, q, db).map(Output::Count),
        Task::Answers => answers_task(ctx, plan, q, db)?,
        // the structure is built (and memoized) once; the stream over it
        // has O(1) `seek(k)` — the ranked-access guarantee of Thm 3.24 /
        // 3.18 as an executable plan
        Task::Access => Answers::access(build_lex_access(ctx, plan, q, db)?),
    };
    answers.set_cancel(ctx.cancel().clone());
    Ok(Output::Answers(answers))
}

fn unsupported(plan: &QueryPlan) -> EvalError {
    EvalError::Unsupported(format!(
        "operator `{}` cannot serve task `{}`",
        plan.op.name(),
        plan.task
    ))
}

fn decide_task(
    ctx: &ExecCtx,
    plan: &QueryPlan,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<bool, EvalError> {
    match &plan.op {
        PlanOp::TrivialEmpty => Ok(false),
        PlanOp::SemijoinSweep => yannakakis::decide_acyclic(ctx, q, db),
        PlanOp::GenericJoin { order } => generic_join::decide(ctx, q, db, order),
        _ => Err(unsupported(plan)),
    }
}

fn count_task(
    ctx: &ExecCtx,
    plan: &QueryPlan,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<u64, EvalError> {
    match &plan.op {
        PlanOp::TrivialEmpty => Ok(0),
        // Boolean counting reuses the decision operators (|q(D)| ∈ {0,1})
        PlanOp::SemijoinSweep | PlanOp::GenericJoin { .. } if q.is_boolean() => {
            decide_task(ctx, plan, q, db).map(u64::from)
        }
        // one fold over `q'`: a join query's is its atoms, read in place
        PlanOp::CountingDp | PlanOp::ProjectionEliminationDp => {
            count::count_free_connex(ctx, q, db)
        }
        // a join query's count never materializes an answer: the engine
        // adds up last-depth intersection sizes
        PlanOp::CountDistinctProject { order } => {
            generic_join::count_distinct(ctx, q, db, order)
        }
        _ => Err(unsupported(plan)),
    }
}

fn answers_task(
    ctx: &ExecCtx,
    plan: &QueryPlan,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<Answers, EvalError> {
    let rows = |rel| Answers::rows(q.free_vars(), rel);
    Ok(match &plan.op {
        PlanOp::TrivialEmpty => rows(Relation::new(q.free_vars().len())),
        // only the (memoized, linear) preprocessing happens here; answers
        // are pulled one at a time by the consumer
        PlanOp::ConstantDelayEnumeration => {
            Answers::walk(enumerate::preprocess(ctx, q, db)?)
        }
        PlanOp::MaterializeProject { order } => {
            rows(generic_join::answers(ctx, q, db, order)?)
        }
        // Boolean queries route their answer task through the
        // early-stopping decision operators; the answer relation is the
        // nullary {()} or {}
        PlanOp::SemijoinSweep | PlanOp::GenericJoin { .. } if q.is_boolean() => {
            rows(Relation::nullary(decide_task(ctx, plan, q, db)?))
        }
        _ => return Err(unsupported(plan)),
    })
}

/// Build the direct-access structure a [`Task::Access`] plan names
/// (lexicographic variants; see
/// [`crate::planner::Planner::plan_lex_access`]), memoized in `ctx`'s
/// catalog: the preprocessing — the expensive half of §3.4-style ranked
/// access — is paid once per database state; repeated builds hand back
/// the shared structure and `access` calls pay their Õ(log m) only. A
/// cold build polls `ctx`'s token and memoizes nothing when cancelled.
pub(crate) fn build_lex_access(
    ctx: &ExecCtx,
    plan: &QueryPlan,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<Arc<LexDirectAccess>, EvalError> {
    match &plan.op {
        PlanOp::LexDirectAccess { order } => LexDirectAccess::build(ctx, q, db, order),
        // join queries and projections alike: the distinct answers over
        // the free variables, sorted by `order` restricted to them
        PlanOp::MaterializedDirectAccess { order } => {
            LexDirectAccess::materialized(ctx, q, db, order)
        }
        PlanOp::FreeConnexDirectAccess => LexDirectAccess::free_connex(ctx, q, db),
        _ => Err(unsupported(plan)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Task;
    use crate::planner::Planner;
    use crate::EvalCtx;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, random_pairs, seeded_rng, triangle_database};
    use cq_data::DataStats;
    use cq_engine::bind::{brute_force_count, brute_force_decide};
    use cq_engine::DirectAccess;

    #[test]
    fn executes_each_operator_kind() {
        let mut p = Planner::new();
        let db = path_database(3, 40, &mut seeded_rng(1));
        let stats = DataStats::collect(&db);

        let q = zoo::path_boolean(3);
        let plan = p.plan(&q, Task::Decide, &stats);
        let got = EvalCtx::new().execute(&plan, &q, &db).unwrap().as_decision().unwrap();
        assert_eq!(got, brute_force_decide(&q, &db).unwrap());

        let q = zoo::path_join(3);
        let plan = p.plan(&q, Task::Count, &stats);
        let got = EvalCtx::new().execute(&plan, &q, &db).unwrap().as_count().unwrap();
        assert_eq!(got, brute_force_count(&q, &db).unwrap());

        let db = triangle_database(&random_pairs(30, 10, &mut seeded_rng(2)));
        let stats = DataStats::collect(&db);
        let q = zoo::triangle_join();
        let plan = p.plan(&q, Task::Answers, &stats);
        let Output::Answers(got) = EvalCtx::new().execute(&plan, &q, &db).unwrap() else {
            panic!("answers task must yield an answer stream");
        };
        let got = got.collect().unwrap();
        assert_eq!(got, cq_engine::bind::brute_force_answers(&q, &db).unwrap());
    }

    #[test]
    fn task_op_mismatch_is_an_error() {
        let db = path_database(2, 10, &mut seeded_rng(3));
        let stats = DataStats::collect(&db);
        let q = zoo::path_join(2);
        let count_plan = Planner::new().plan(&q, Task::Count, &stats);
        let wrong = QueryPlan { task: Task::Decide, ..count_plan };
        assert!(matches!(
            EvalCtx::new().execute(&wrong, &q, &db),
            Err(EvalError::Unsupported(_))
        ));
    }

    #[test]
    fn trivial_empty_plans_execute_in_constant_time() {
        let mut db = cq_data::Database::new();
        db.insert("R1", cq_data::Relation::new(2));
        db.insert("R2", cq_data::Relation::from_pairs(vec![(1, 2)]));
        let stats = DataStats::collect(&db);
        let q = zoo::path_join(2);
        let mut p = Planner::new();
        for task in [Task::Decide, Task::Count, Task::Answers] {
            let plan = p.plan(&q, task, &stats);
            assert_eq!(plan.op, PlanOp::TrivialEmpty);
            match EvalCtx::new().execute(&plan, &q, &db).unwrap() {
                Output::Decision(b) => assert!(!b),
                Output::Count(c) => assert_eq!(c, 0),
                Output::Answers(a) => assert!(a.collect().unwrap().is_empty()),
            }
        }
    }

    #[test]
    fn missing_relation_errors_like_the_engine() {
        let db = cq_data::Database::new();
        let stats = DataStats::collect(&db);
        let q = zoo::path_join(2);
        let plan = Planner::new().plan(&q, Task::Count, &stats);
        assert!(matches!(
            EvalCtx::new().execute(&plan, &q, &db),
            Err(EvalError::MissingRelation(_))
        ));
    }

    #[test]
    fn access_plans_for_projected_queries_build_and_match_answers() {
        // regression: the hard-side Task::Access fallback must be
        // buildable for non-join queries (the engine's materialized
        // access serves projections too)
        let db = path_database(2, 30, &mut seeded_rng(8));
        let stats = DataStats::collect(&db);
        for q in [zoo::matmul_projection(), zoo::star_selfjoin_free(2)] {
            let mut db = cq_data::Database::new();
            let mut rng = seeded_rng(9);
            for atom in q.atoms() {
                db.insert(
                    &atom.relation,
                    cq_data::generate::random_relation(atom.vars.len(), 25, 6, &mut rng),
                );
            }
            let plan = Planner::new().plan(&q, Task::Access, &stats);
            assert!(matches!(plan.op, PlanOp::MaterializedDirectAccess { .. }), "{q}");
            let da = build_lex_access(&ExecCtx::cold(), &plan, &q, &db).unwrap();
            let expected = cq_engine::bind::brute_force_answers(&q, &db).unwrap();
            assert_eq!(da.len(), expected.len() as u64, "{q}");
            // every answer reachable, none out of range
            for i in 0..da.len() {
                let row = da.access(i).unwrap();
                assert!(expected.contains(&row), "{q}: row {row:?} not an answer");
            }
            assert_eq!(da.access(da.len()), None);
        }
    }

    #[test]
    fn access_task_executes_to_a_seekable_stream() {
        let db = path_database(2, 30, &mut seeded_rng(10));
        let stats = DataStats::collect(&db);
        let q = zoo::path_join(2);
        let order: Vec<_> = q.vars().collect();
        let plan = Planner::plan_lex_access(&q, &order, &stats);
        let da = build_lex_access(&ExecCtx::cold(), &plan, &q, &db).unwrap();
        let n = da.len();
        assert!(n > 0);
        let Output::Answers(mut a) = EvalCtx::new().execute(&plan, &q, &db).unwrap()
        else {
            panic!("access task must yield an answer stream");
        };
        assert_eq!(a.size_hint(), Some(n));
        // seek to the last row without enumerating the prefix
        a.seek(n - 1).unwrap();
        assert_eq!(a.next().unwrap().unwrap(), &da.access(n - 1).unwrap()[..]);
        assert!(a.next().unwrap().is_none());
    }

    #[test]
    fn access_builds_are_bounded_by_the_context_token() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let db = path_database(2, 60, &mut seeded_rng(12));
        let stats = DataStats::collect(&db);
        let join = zoo::path_join(2);
        let order: Vec<_> = join.vars().collect();
        let projected =
            cq_core::parse_query("q(x0, x1) :- R1(x0, x1), R2(x1, x2)").unwrap();
        let hard = zoo::matmul_projection();
        let plans = [
            (Planner::plan_lex_access(&join, &order, &stats), join),
            (Planner::new().plan(&projected, Task::Access, &stats), projected),
            (Planner::new().plan(&hard, Task::Access, &stats), hard),
        ];
        assert!(matches!(plans[0].0.op, PlanOp::LexDirectAccess { .. }));
        assert!(matches!(plans[1].0.op, PlanOp::FreeConnexDirectAccess));
        assert!(matches!(plans[2].0.op, PlanOp::MaterializedDirectAccess { .. }));
        for (plan, q) in plans {
            let want_op = plan.op.name();
            // the probe lets the executor's up-front check through and
            // trips at the next consultation: only a build that polls
            // its token can notice
            let consulted = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&consulted);
            let token = cq_engine::CancelToken::never()
                .with_probe(move || seen.fetch_add(1, Ordering::Relaxed) >= 1);
            let catalog = cq_data::IndexCatalog::new();
            let ctx = EvalCtx::new().with_catalog(&catalog);
            let cancelled = ctx.clone().with_cancel(token).execute(&plan, &q, &db);
            assert!(
                matches!(cancelled, Err(EvalError::Cancelled)),
                "{want_op}: a {}-consultation build ran to {cancelled:?}",
                consulted.load(Ordering::Relaxed)
            );
            // a cancelled build memoizes nothing, and the next
            // uncancelled call builds the whole structure
            assert_eq!(catalog.snapshot().artifacts, 0, "{want_op}");
            let Output::Answers(a) = ctx.execute(&plan, &q, &db).unwrap() else {
                panic!("access task must yield an answer stream");
            };
            let want = cq_engine::bind::brute_force_answers(&q, &db).unwrap();
            assert_eq!(a.collect().unwrap(), want, "{want_op}");
        }
    }

    #[test]
    fn seek_on_enumeration_plan_cites_the_operator() {
        let db = path_database(2, 20, &mut seeded_rng(11));
        let stats = DataStats::collect(&db);
        let q = zoo::path_join(2);
        let plan = Planner::new().plan(&q, Task::Answers, &stats);
        assert_eq!(plan.op, PlanOp::ConstantDelayEnumeration);
        let Output::Answers(mut a) = EvalCtx::new().execute(&plan, &q, &db).unwrap()
        else {
            panic!("answers task must yield an answer stream");
        };
        assert_eq!(a.size_hint(), None, "a walk does not know its length");
        let Err(EvalError::Unsupported(msg)) = a.seek(3) else {
            panic!("seek on an enumeration stream must be unsupported");
        };
        assert!(msg.contains("constant-delay enumeration"), "{msg}");
    }

    #[test]
    fn lex_access_builds_and_matches_materialized() {
        let db = path_database(2, 30, &mut seeded_rng(4));
        let stats = DataStats::collect(&db);
        let q = zoo::path_join(2);
        let order: Vec<_> = q.vars().collect();
        let plan = Planner::plan_lex_access(&q, &order, &stats);
        let da = build_lex_access(&ExecCtx::cold(), &plan, &q, &db).unwrap();
        let mat =
            LexDirectAccess::materialized(&ExecCtx::cold(), &q, &db, &order).unwrap();
        assert_eq!(da.len(), mat.len());
        for i in 0..da.len() {
            assert_eq!(da.access(i), mat.access(i));
        }
    }
}
