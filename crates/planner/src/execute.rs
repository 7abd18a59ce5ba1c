//! The plan executor: run a [`QueryPlan`]'s operator — its source's end
//! for its task, one `cq-engine` algorithm — and widen the output to the
//! plan's task. Its one caller is
//! [`EvalCtx::execute`](crate::EvalCtx::execute), which hands it the
//! caller's catalog, or a throwaway one, and token as an [`ExecCtx`].
//!
//! Execution is strict about the plan/task pairing — a plan produced
//! for [`Task::Count`] cannot be executed as enumeration — but
//! deliberately forgiving about *re-use*: a plan can be executed any
//! number of times, against any database, and is correct on every one;
//! only its cost estimate and its generic-join order depend on the
//! statistics it was planned with, which is why execution re-checks
//! nothing.

use crate::ir::{Op, QueryPlan, Source, Task};
use cq_core::ConjunctiveQuery;
use cq_data::{Database, Relation};
use cq_engine::bind::EvalError;
use cq_engine::{count, enumerate, generic_join, yannakakis, ExecCtx, LexDirectAccess};

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

/// **The** dispatch table: one arm per source, one task end per arm,
/// every index acquisition routed through `ctx`'s catalog and every
/// operator loop polling `ctx`'s token. Sorted views, join-tree links,
/// bound relations, projection-elimination messages and the reduced trees
/// enumeration and direct access share are memoized across calls, so
/// repeated evaluation of the same shape on an unchanged database is
/// index-build-free. The token is checked once up front, so an
/// already-expired deadline cancels deterministically before any work —
/// whatever the plan. Direct access builds (and memoizes) its structure
/// once; the stream over it has O(1) `seek(k)` — the ranked-access
/// guarantee of Thm 3.24 / 3.18 as an executable plan.
pub(crate) fn execute_in(
    ctx: &ExecCtx,
    plan: &QueryPlan,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<Output, EvalError> {
    let Op { source, task } = &plan.op;
    // an operator serves its own task, and a Boolean query's decision
    // serves every task (widened below)
    if !(*task == plan.task || *task == Task::Decide && q.is_boolean()) {
        return Err(EvalError::Unsupported(format!(
            "operator `{}` cannot serve task `{}`",
            plan.op.name(),
            plan.task
        )));
    }
    ctx.cancel().check_now()?;
    let rows = |rel| Output::Answers(Answers::rows(q.free_vars(), rel));
    let out = match source {
        // one fold over `q'` per scalar task: a join query's is its
        // atoms, read in place; only the (memoized, linear) preprocessing
        // of a stream happens here, its answers are pulled one at a time
        Source::QPrime { order, .. } => match task {
            Task::Decide => Output::Decision(yannakakis::decide_acyclic(ctx, q, db)?),
            Task::Count => Output::Count(count::count_free_connex(ctx, q, db)?),
            Task::Answers => {
                Output::Answers(Answers::walk(enumerate::preprocess(ctx, q, db)?))
            }
            Task::Access => Output::Answers(Answers::access(match order {
                Some(order) => LexDirectAccess::build(ctx, q, db, order)?,
                None => LexDirectAccess::free_connex(ctx, q, db)?,
            })),
        },
        // a join query's count never materializes an answer: the engine
        // adds up last-depth intersection sizes; access sorts the
        // distinct answers over the free variables by `order` restricted
        // to them
        Source::GenericJoin { order } => match task {
            Task::Decide => Output::Decision(generic_join::decide(ctx, q, db, order)?),
            Task::Count => {
                Output::Count(generic_join::count_distinct(ctx, q, db, order)?)
            }
            Task::Answers => rows(generic_join::answers(ctx, q, db, order)?),
            Task::Access => Output::Answers(Answers::access(
                LexDirectAccess::materialized(ctx, q, db, order)?,
            )),
        },
    };
    // a Boolean query's decision is its count (|q(D)| ∈ {0, 1}) and its
    // answer relation, the nullary {()} or {}
    let mut out = match (out, plan.task) {
        (Output::Decision(truth), Task::Count) => Output::Count(u64::from(truth)),
        (Output::Decision(truth), Task::Answers | Task::Access) => {
            rows(Relation::nullary(truth))
        }
        (out, _) => out,
    };
    if let Output::Answers(answers) = &mut out {
        answers.set_cancel(ctx.cancel().clone());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{CostEstimate, Verdict};
    use crate::planner::Planner;
    use crate::EvalCtx;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, random_pairs, seeded_rng, triangle_database};
    use cq_data::DataStats;
    use cq_engine::bind::{brute_force_answers, brute_force_count, brute_force_decide};
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
        assert_eq!(got, brute_force_answers(&q, &db).unwrap());
    }

    /// A plan for `task` running `source`'s end for `op_task`, made by
    /// hand: no planner decides which pairs exist.
    fn hand_built(source: &Source, op_task: Task, task: Task) -> QueryPlan {
        QueryPlan {
            task,
            op: Op { source: source.clone(), task: op_task },
            algorithm_reference: "hand-built",
            cost: CostEstimate { m: 0, exponent: 1.0 },
            lower_bound: Verdict::Open { note: String::new() },
        }
    }

    /// Every (source, task) pair answers what brute force answers:
    /// `q'`'s on acyclic queries — a join query, a free-connex projection
    /// and a Boolean query — and generic join's on the triangle too, on a
    /// database and on one where a relation is empty. The Boolean query's
    /// decision also serves as its count, answers and access.
    #[test]
    fn every_source_answers_every_task_like_brute_force() {
        let tasks = [Task::Decide, Task::Count, Task::Answers, Task::Access];
        let projection = cq_core::parse_query("q(x0, x1) :- R1(x0, x1), R2(x1, x2)");
        let queries = [
            (zoo::path_join(2), true),
            (projection.unwrap(), true),
            (zoo::path_boolean(2), true),
            (zoo::triangle_join(), false),
        ];
        let mut rng = seeded_rng(1);
        let mut full = cq_data::Database::new();
        for r in ["R1", "R2", "R3"] {
            full.insert(r, random_pairs(30, 6, &mut rng));
        }
        let mut emptied = full.clone();
        emptied.insert("R1", Relation::new(2));
        let mut pairs = 0;
        for (q, acyclic) in &queries {
            let order: Vec<_> = q.vars().collect();
            let qprime = |order| Source::QPrime { join_query: q.is_join_query(), order };
            let widens = |from, to| from == to || from == Task::Decide && q.is_boolean();
            for db in [&full, &emptied] {
                let mut runs = Vec::new();
                let generic_join = Source::GenericJoin { order: order.clone() };
                let sources = [Some(generic_join), acyclic.then(|| qprime(None))];
                for source in sources.into_iter().flatten() {
                    for (op_task, task) in
                        tasks.into_iter().flat_map(|t| tasks.map(|u| (t, u)))
                    {
                        if widens(op_task, task) {
                            runs.push((source.clone(), op_task, task));
                        }
                    }
                }
                if q.is_join_query() && *acyclic {
                    runs.push((qprime(Some(order.clone())), Task::Access, Task::Access));
                }
                for (source, op_task, task) in runs {
                    let plan = hand_built(&source, op_task, task);
                    let name = format!("{q} {task} by `{}`", plan.op.name());
                    match EvalCtx::new().execute(&plan, q, db).unwrap() {
                        Output::Decision(truth) => {
                            assert_eq!(task, Task::Decide, "{name}");
                            assert_eq!(
                                truth,
                                brute_force_decide(q, db).unwrap(),
                                "{name}"
                            );
                        }
                        Output::Count(n) => {
                            assert_eq!(task, Task::Count, "{name}");
                            assert_eq!(n, brute_force_count(q, db).unwrap(), "{name}");
                        }
                        Output::Answers(answers) => {
                            assert!(
                                matches!(task, Task::Answers | Task::Access),
                                "{name}"
                            );
                            let want = brute_force_answers(q, db).unwrap();
                            assert_eq!(answers.collect().unwrap(), want, "{name}");
                        }
                    }
                    pairs += 1;
                }
            }
        }
        // the join query 9, the projection 8, the Boolean query 14 and the
        // triangle 4, on the full and on the emptied database
        assert_eq!(pairs, 2 * (9 + 8 + 14 + 4), "every pair ran");
    }

    /// A task an operator's output cannot widen to is refused before any
    /// work: an operator's output widens from a Boolean query's decision
    /// only.
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

        let sweep = Source::QPrime { join_query: true, order: None };
        for (op_task, task) in [(Task::Count, Task::Decide), (Task::Decide, Task::Count)]
        {
            let wrong = hand_built(&sweep, op_task, task);
            let expired =
                cq_engine::CancelToken::with_deadline(std::time::Instant::now());
            let refused = EvalCtx::new().with_cancel(expired).execute(&wrong, &q, &db);
            assert!(matches!(refused, Err(EvalError::Unsupported(_))), "{refused:?}");
        }
    }

    /// The answer of `plan` on `db` under `ctx` — a decision as the
    /// nullary relation, a count `n` as the values `0..n` — and the work
    /// its operator spans report (`steps`, `seeks`).
    fn traced_answer(
        ctx: &EvalCtx,
        plan: &QueryPlan,
        q: &ConjunctiveQuery,
        db: &Database,
    ) -> (Relation, Vec<u64>) {
        use cq_obs::trace::{self, TraceSink};
        let sink = TraceSink::enabled();
        let answer = trace::with(&sink, || match ctx.execute(plan, q, db).unwrap() {
            Output::Decision(truth) => Relation::nullary(truth),
            Output::Count(n) => Relation::from_values(0..n),
            Output::Answers(answers) => answers.collect().unwrap(),
        });
        let mut work = Vec::new();
        if let Some(trace) = sink.finish("test", "execute") {
            trace.visit(|_, span| {
                work.extend(["steps", "seeks"].iter().filter_map(|a| span.attr(a)))
            });
        }
        (answer, work)
    }

    /// A body relation without rows: the plans the planner makes for an
    /// easy and a hard shape under every task — on its statistics — answer
    /// like brute force without any operator work (the operators' early
    /// exit, whatever the other relations hold: 1 000 rows each here), and
    /// the same plans answer like brute force again once a write fills the
    /// relation.
    #[test]
    fn trivial_empty_plans_execute_in_constant_time() {
        let mut rng = seeded_rng(5);
        let mut db = Database::new();
        db.insert("R1", Relation::new(2));
        for r in ["R2", "R3"] {
            db.insert(r, random_pairs(1_000, 40, &mut rng));
        }
        let stats = DataStats::collect(&db);
        let tasks = [Task::Decide, Task::Count, Task::Answers, Task::Access];
        let mut plans = Vec::new();
        for (q, easy) in [(zoo::path_join(2), true), (zoo::triangle_join(), false)] {
            for task in tasks {
                let plan = Planner::new().plan(&q, task, &stats);
                assert_eq!(matches!(plan.op.source, Source::QPrime { .. }), easy, "{q}");
                plans.push((q.clone(), plan));
            }
        }
        let brute = |q: &ConjunctiveQuery, task, db: &Database| match task {
            Task::Decide => Relation::nullary(brute_force_decide(q, db).unwrap()),
            Task::Count => Relation::from_values(0..brute_force_count(q, db).unwrap()),
            Task::Answers | Task::Access => brute_force_answers(q, db).unwrap(),
        };
        let catalog = cq_data::IndexCatalog::new();
        let ctx = EvalCtx::new().with_catalog(&catalog);
        for (q, plan) in &plans {
            let name = format!("{q} {} by `{}`", plan.task, plan.op.name());
            let (answer, work) = traced_answer(&ctx, plan, q, &db);
            assert_eq!(answer, brute(q, plan.task, &db), "{name}");
            assert!(!work.is_empty() && work.iter().all(|&w| w == 0), "{name}: {work:?}");
        }
        // R1(x, y) closes a triangle over R2(y, z) and R3(z, x)
        let (r2, r3) = (db.expect("R2"), db.expect("R3"));
        let (y, x) = (r2.iter())
            .find_map(|yz| r3.iter().find(|zx| zx[0] == yz[1]).map(|zx| (yz[0], zx[1])))
            .expect("some R2 row meets an R3 row");
        db.get_mut("R1").unwrap().insert_row(&[x, y]);
        for (q, plan) in &plans {
            let name =
                format!("{q} {} by `{}` after the write", plan.task, plan.op.name());
            let want = brute(q, plan.task, &db);
            assert!(!want.is_empty(), "{name}");
            assert_eq!(traced_answer(&ctx, plan, q, &db).0, want, "{name}");
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
            assert!(matches!(plan.op.source, Source::GenericJoin { .. }), "{q}");
            let Output::Answers(mut a) = EvalCtx::new().execute(&plan, &q, &db).unwrap()
            else {
                panic!("access task must yield an answer stream");
            };
            let expected = brute_force_answers(&q, &db).unwrap();
            assert_eq!(a.size_hint(), Some(expected.len() as u64), "{q}");
            // every answer reachable, none out of range
            for i in 0..expected.len() as u64 {
                a.seek(i).unwrap();
                let row = a.next().unwrap().unwrap().to_vec();
                assert!(expected.contains(&row), "{q}: row {row:?} not an answer");
            }
            a.seek(expected.len() as u64).unwrap();
            assert!(a.next().unwrap().is_none(), "{q}");
        }
    }

    #[test]
    fn access_task_executes_to_a_seekable_stream() {
        let db = path_database(2, 30, &mut seeded_rng(10));
        let stats = DataStats::collect(&db);
        let q = zoo::path_join(2);
        let order: Vec<_> = q.vars().collect();
        let plan = Planner::plan_lex_access(&q, &order, &stats);
        let da = LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &order).unwrap();
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
        let names = plans.each_ref().map(|(plan, _)| plan.op.name());
        let want = [
            "ordered join tree + mixed-radix access",
            "free-connex direct access",
            "materialize + sort access",
        ];
        assert_eq!(names, want);
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
        assert_eq!(plan.op.name(), "constant-delay enumeration");
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
        let lex = Planner::plan_lex_access(&q, &order, &stats);
        let materialized =
            hand_built(&Source::GenericJoin { order }, Task::Access, Task::Access);
        let rows = |plan| {
            let Ok(Output::Answers(mut a)) = EvalCtx::new().execute(plan, &q, &db) else {
                panic!("access task must yield an answer stream");
            };
            let mut rows = Vec::new();
            while let Some(row) = a.next().unwrap() {
                rows.push(row.to_vec());
            }
            rows
        };
        // the same rows at the same positions
        assert_eq!(rows(&lex), rows(&materialized));
    }
}
