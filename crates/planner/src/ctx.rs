//! Evaluation options as a value: [`EvalCtx`].
//!
//! An [`EvalCtx`] is the planner's one way to evaluate. It carries the
//! options of an evaluation — index catalog and cancel token — and one
//! method per task consumes it, so a new cross-cutting concern is a new
//! field, not a new function suffix. Both are the operators' business
//! and reach them as the [`ExecCtx`] this type builds per execution.
//! Whether a call pays for its preprocessing is the caller's choice: a
//! context given no catalog runs every call cold, on a throwaway
//! catalog; a context given one runs warm on it. Admission is its
//! caller's: the server checks [`EvalBudget::violation`] between
//! planning and execution. A trace follows the thread: an execution
//! records into whatever sink [`trace::with`] installed around it.
//!
//! ```
//! use cq_planner::EvalCtx;
//! use cq_data::{Database, IndexCatalog, Relation};
//!
//! let mut db = Database::new();
//! db.insert("R", Relation::from_pairs(vec![(1, 2), (2, 3)]));
//! let q = cq_core::parse_query("q(x, z) :- R(x, y), R(y, z)").unwrap();
//!
//! let catalog = IndexCatalog::new();
//! let ctx = EvalCtx::new().with_catalog(&catalog);
//! let (n, _plan) = ctx.count(&q, &db).unwrap();
//! assert_eq!(n, 1);
//! ```

use crate::execute::{execute_in, Output};
use crate::ir::{QueryPlan, Task};
use crate::planner::Planner;
use cq_core::ConjunctiveQuery;
use cq_data::{Database, IndexCatalog, Relation};
use cq_engine::bind::EvalError;
use cq_engine::{CancelToken, ExecCtx};
use cq_obs::trace;

/// Admission-control caps on a plan's estimated cost, checked between
/// planning and execution. `None` fields are uncapped; the default is
/// no budget at all.
///
/// `max_exponent` caps the cost exponent directly; `max_rows` caps the
/// estimated operation count `m^e` (the AGM-style worst case the
/// planner already reports in EXPLAIN).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalBudget {
    /// Reject plans whose cost exponent exceeds this.
    pub max_exponent: Option<f64>,
    /// Reject plans whose estimated operation count `m^e` exceeds this.
    pub max_rows: Option<u64>,
}

impl EvalBudget {
    /// Does `plan` break this budget? Returns the human-readable
    /// reason. The epsilon keeps a budget set to exactly a plan's
    /// exponent from rejecting it over float noise.
    pub fn violation(&self, plan: &QueryPlan) -> Option<String> {
        if let Some(e) = self.max_exponent {
            if plan.cost.exponent > e + 1e-9 {
                return Some(format!(
                    "plan cost m^{:.2} exceeds MAX-EXPONENT {e:.2}",
                    plan.cost.exponent
                ));
            }
        }
        if let Some(n) = self.max_rows {
            if plan.cost.operations() > n as f64 {
                return Some(format!(
                    "estimated {:.0} operations (m^{:.2}) exceed MAX-ROWS {n}",
                    plan.cost.operations(),
                    plan.cost.exponent
                ));
            }
        }
        None
    }
}

/// The options of one evaluation, as a value: which [`IndexCatalog`]
/// to run warm against and the [`CancelToken`] bounding it. Build one
/// with [`EvalCtx::new`] and the `with_*` setters, then call a task
/// method.
///
/// Defaults: no catalog, so every method runs cold on a catalog of its
/// own, dropped when it returns; and a never-tripping token.
#[derive(Clone)]
pub struct EvalCtx<'a> {
    catalog: Option<&'a IndexCatalog>,
    cancel: CancelToken,
}

impl Default for EvalCtx<'_> {
    fn default() -> Self {
        EvalCtx::new()
    }
}

impl<'a> EvalCtx<'a> {
    /// The default context: cold, never cancelled.
    pub fn new() -> EvalCtx<'static> {
        EvalCtx { catalog: None, cancel: CancelToken::never() }
    }

    /// Run warm against `catalog` (e.g. the one pinned per server
    /// tenant): what a call builds there, a later call reuses.
    pub fn with_catalog<'b>(self, catalog: &'b IndexCatalog) -> EvalCtx<'b> {
        EvalCtx { catalog: Some(catalog), cancel: self.cancel }
    }

    /// Bound the evaluation by `cancel`: a tripped deadline or probe
    /// aborts mid-execution with [`EvalError::Cancelled`].
    pub fn with_cancel(mut self, cancel: CancelToken) -> EvalCtx<'a> {
        self.cancel = cancel;
        self
    }

    /// The context's cancel token (shared with every clone).
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// Execute an already-made `plan` under this context's options.
    ///
    /// # Errors
    /// Propagates the engine's [`EvalError`]s (missing relations, arity
    /// mismatches, structure violations, cancellation). Returns
    /// [`EvalError::Unsupported`] if the plan's operator cannot serve
    /// the plan's task (a planner bug, not a data condition).
    pub fn execute(
        &self,
        plan: &QueryPlan,
        q: &ConjunctiveQuery,
        db: &Database,
    ) -> Result<Output, EvalError> {
        self.on_catalog(|catalog| self.execute_traced(plan, q, db, catalog))
    }

    /// Run `f` on this context's catalog or, given none, on a throwaway
    /// one: a context without a catalog runs cold.
    fn on_catalog<T>(&self, f: impl FnOnce(&IndexCatalog) -> T) -> T {
        match self.catalog {
            Some(catalog) => f(catalog),
            None => f(&IndexCatalog::new()),
        }
    }

    /// [`execute_in`] against `catalog` and this context's token: a
    /// passthrough unless the thread's trace sink is enabled; then a
    /// root `execute` span records catalog hits vs. builds, cancel polls
    /// (helper threads' included: [`ExecCtx::polls`]), and the result
    /// cardinality (streamed answers record their own rows as they
    /// drain).
    fn execute_traced(
        &self,
        plan: &QueryPlan,
        q: &ConjunctiveQuery,
        db: &Database,
        catalog: &IndexCatalog,
    ) -> Result<Output, EvalError> {
        let exec = ExecCtx::new(catalog, &self.cancel);
        if !trace::current().is_enabled() {
            return execute_in(&exec, plan, q, db);
        }
        let mut span = trace::span("execute");
        let before = catalog.snapshot();
        let out = execute_in(&exec, plan, q, db);
        let after = catalog.snapshot();
        span.attr("catalog-hits", after.hits.saturating_sub(before.hits));
        span.attr("catalog-builds", after.misses.saturating_sub(before.misses));
        span.attr("cancel-polls", exec.polls());
        match &out {
            Ok(Output::Count(n)) => span.attr("rows", *n),
            Ok(Output::Decision(d)) => span.attr("rows", u64::from(*d)),
            _ => {}
        }
        out
    }

    /// Plan and run [`Task::Decide`]: is `q(D)` non-empty? Returns the
    /// decision and the plan that ran.
    pub fn decide(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
    ) -> Result<(bool, QueryPlan), EvalError> {
        let (out, plan) = self.run(q, db, Task::Decide)?;
        Ok((out.as_decision().expect("decide plan yields decision"), plan))
    }

    /// Plan and run [`Task::Count`]: `|q(D)|`. Returns the count and
    /// the plan that ran.
    pub fn count(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
    ) -> Result<(u64, QueryPlan), EvalError> {
        let (out, plan) = self.run(q, db, Task::Count)?;
        Ok((out.as_count().expect("count plan yields count"), plan))
    }

    /// Plan and run [`Task::Answers`]: all answers of `q(D)`,
    /// materialized. Returns the answer relation and the plan that ran.
    pub fn answers(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
    ) -> Result<(Relation, QueryPlan), EvalError> {
        match self.run(q, db, Task::Answers)? {
            (Output::Answers(a), plan) => Ok((a.collect()?, plan)),
            (other, _) => unreachable!("answers plan yielded {other:?}"),
        }
    }

    fn run(
        &self,
        q: &ConjunctiveQuery,
        db: &Database,
        task: Task,
    ) -> Result<(Output, QueryPlan), EvalError> {
        self.on_catalog(|catalog| {
            let plan = Planner::new().plan(q, task, &catalog.stats(db));
            let out = self.execute_traced(&plan, q, db, catalog)?;
            Ok((out, plan))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, random_pairs, seeded_rng, triangle_database};
    use cq_data::DataStats;
    use cq_engine::bind::{brute_force_answers, brute_force_count, brute_force_decide};
    use cq_obs::trace::TraceSink;

    #[test]
    fn task_methods_agree_with_the_facade() {
        // a warm context's task methods agree with a cold one's
        let db = path_database(3, 40, &mut seeded_rng(31));
        let q = zoo::path_join(3);
        let catalog = IndexCatalog::new();
        let ctx = EvalCtx::new().with_catalog(&catalog);
        let (n, plan) = ctx.count(&q, &db).unwrap();
        let (want, _) = EvalCtx::new().count(&q, &db).unwrap();
        assert_eq!(n, want);
        assert_eq!(plan.op.name(), "counting DP over join tree");
        // the boolean variant has the same body: non-empty iff count > 0
        let (dec, _) = ctx.decide(&zoo::path_boolean(3), &db).unwrap();
        assert_eq!(dec, want > 0);
        let (rel, _) = ctx.answers(&q, &db).unwrap();
        assert_eq!(rel.len() as u64, n);
    }

    /// A context without a catalog builds on every call; one given a
    /// catalog builds nothing on a repeat.
    #[test]
    fn no_catalog_runs_cold_and_a_catalog_runs_warm() {
        let db = path_database(2, 25, &mut seeded_rng(34));
        let q = zoo::path_join(2);
        let builds = |ctx: &EvalCtx| {
            let sink = TraceSink::enabled();
            trace::with(&sink, || ctx.answers(&q, &db)).unwrap();
            let mut builds = None;
            sink.finish("test", "answers").expect("enabled").visit(|_, span| {
                if span.name == "execute" {
                    builds = span.attr("catalog-builds");
                }
            });
            builds.expect("a root span")
        };
        let cold = EvalCtx::new();
        builds(&cold);
        assert!(builds(&cold) > 0, "a context without a catalog runs cold");

        let catalog = IndexCatalog::new();
        let warm = EvalCtx::new().with_catalog(&catalog);
        builds(&warm);
        let built = catalog.snapshot().misses;
        assert_eq!(builds(&warm), 0);
        assert_eq!(catalog.snapshot().misses, built, "a repeat on a catalog is warm");
    }

    /// An ordered `ACCESS` of a join query reduces the `q'` a `COUNT` of
    /// it derived: over one catalog it then builds its own tree and
    /// nothing else — no second collapse of `R(x, x, y)`, no link of its
    /// own.
    #[test]
    fn an_ordered_access_after_a_count_builds_only_its_tree() {
        let q = cq_core::parse_query("q(x, y) :- R(x, x, y), S(y)").unwrap();
        let mut db = Database::new();
        let r = vec![vec![1, 1, 2], vec![1, 2, 2], vec![3, 3, 4], vec![5, 5, 6]];
        db.insert("R", Relation::from_rows(3, r));
        db.insert("S", Relation::from_values(vec![2, 6, 7]));
        let catalog = IndexCatalog::new();
        let ctx = EvalCtx::new().with_catalog(&catalog);
        assert_eq!(ctx.count(&q, &db).unwrap().0, 2);
        let order: Vec<_> = q.vars().collect();
        let plan = Planner::plan_lex_access(&q, &order, &catalog.stats(&db));
        let source = crate::ir::Source::QPrime { join_query: true, order: Some(order) };
        assert_eq!(plan.op, crate::ir::Op { source, task: Task::Access });
        let misses = catalog.snapshot().misses;
        let Output::Answers(answers) = ctx.execute(&plan, &q, &db).unwrap() else {
            panic!("an access plan streams answers")
        };
        assert_eq!(catalog.snapshot().misses, misses + 1, "the lex_da tree only");
        assert_eq!(answers.collect().unwrap(), brute_force_answers(&q, &db).unwrap());
    }

    #[test]
    fn facade_matches_brute_force_and_reports_plans() {
        let ctx = EvalCtx::new();
        let db = path_database(3, 40, &mut seeded_rng(1));
        let q = zoo::path_boolean(3);
        let (res, plan) = ctx.decide(&q, &db).unwrap();
        assert_eq!(res, brute_force_decide(&q, &db).unwrap());
        assert_eq!(plan.op.name(), "Yannakakis semijoin sweep");

        let q = zoo::path_join(3);
        let (n, plan) = ctx.count(&q, &db).unwrap();
        assert_eq!(n, brute_force_count(&q, &db).unwrap());
        assert_eq!(plan.op.name(), "counting DP over join tree");

        let db = triangle_database(&random_pairs(40, 10, &mut seeded_rng(2)));
        let q = zoo::triangle_join();
        let (rel, plan) = ctx.answers(&q, &db).unwrap();
        assert_eq!(rel, brute_force_answers(&q, &db).unwrap());
        assert_eq!(plan.op.name(), "generic join + projection");
    }

    #[test]
    fn facade_is_mutation_safe() {
        // the warm path must never serve indexes of a previous state
        let catalog = IndexCatalog::new();
        let ctx = EvalCtx::new().with_catalog(&catalog);
        let mut db = path_database(2, 30, &mut seeded_rng(7));
        let q = zoo::path_join(2);
        let (first, _) = ctx.answers(&q, &db).unwrap();
        assert_eq!(first, brute_force_answers(&q, &db).unwrap());
        // repeat on the unchanged database: same result, warm catalog
        let (again, _) = ctx.answers(&q, &db).unwrap();
        assert_eq!(first, again);
        // mutate and re-evaluate: R2's version moved, its indexes rebuild
        db.insert("R2", Relation::from_pairs(vec![(1, 2)]));
        let (after, _) = ctx.answers(&q, &db).unwrap();
        assert_eq!(after, brute_force_answers(&q, &db).unwrap());
    }

    #[test]
    fn facade_reuses_catalog_across_calls() {
        let db = path_database(3, 25, &mut seeded_rng(8));
        let q = zoo::path_join(3);
        let catalog = IndexCatalog::new();
        let ctx = EvalCtx::new().with_catalog(&catalog);
        let _ = ctx.answers(&q, &db).unwrap();
        let _ = ctx.count(&q, &db).unwrap();
        let built = catalog.snapshot().misses;
        assert!(built > 0, "the calls built into the context's catalog");
        let _ = ctx.answers(&q, &db).unwrap();
        let _ = ctx.count(&q, &db).unwrap();
        assert_eq!(catalog.snapshot().misses, built, "warm calls rebuilt");
    }

    #[test]
    fn explain_facade_renders() {
        let db = triangle_database(&random_pairs(20, 8, &mut seeded_rng(4)));
        let q = zoo::triangle_boolean();
        let plan = Planner::new().plan(&q, Task::Decide, &DataStats::collect(&db));
        let text = crate::explain::render(&plan, &q);
        assert!(text.contains("generic join"));
        assert!(text.contains("Hypothesis"));
    }

    #[test]
    fn boolean_answers_are_the_nullary_relation() {
        let ctx = EvalCtx::new();
        let db = triangle_database(&random_pairs(20, 8, &mut seeded_rng(5)));
        let q = zoo::triangle_boolean();
        let (rel, plan) = ctx.answers(&q, &db).unwrap();
        assert_eq!(rel.arity(), 0);
        assert_eq!(plan.op.name(), "generic join (worst-case optimal)");
        // the answer relation distinguishes true ({()}) from false ({})
        let want = brute_force_decide(&q, &db).unwrap();
        assert_eq!(rel.len(), usize::from(want));
        assert_eq!(rel, brute_force_answers(&q, &db).unwrap());
        // acyclic Boolean route agrees
        let db = path_database(2, 30, &mut seeded_rng(6));
        let q = zoo::path_boolean(2);
        let (rel, _) = ctx.answers(&q, &db).unwrap();
        assert_eq!(rel.len(), usize::from(brute_force_decide(&q, &db).unwrap()));
    }

    /// The root `execute` span counts the polls of every thread the
    /// evaluation ran on, as the operator's span does: a split `COUNT`'s
    /// helpers poll siblings of the context's token, not the token.
    #[test]
    fn the_root_span_counts_the_helpers_polls() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        // a triangle over 1 024 vertices: its root splits into morsels
        let edges = random_pairs(20_000, 1_024, &mut seeded_rng(36));
        let db = triangle_database(&edges);
        let q = zoo::triangle_join();
        let catalog = IndexCatalog::new();
        // (the token's polls, the root span's, the operator span's)
        let polls = || {
            let sink = TraceSink::enabled();
            let ctx = EvalCtx::new().with_catalog(&catalog);
            trace::with(&sink, || ctx.count(&q, &db)).unwrap();
            let (mut root, mut op) = (None, None);
            sink.finish("test", "count").expect("enabled").visit(|_, span| {
                match span.name.as_str() {
                    "execute" => root = span.attr("cancel-polls"),
                    "op.generic-join.count" => op = span.attr("cancel-polls"),
                    _ => {}
                }
            });
            (ctx.cancel().polls(), root.expect("a root span"), op.expect("an op span"))
        };
        // other tests of this binary evaluate now and then: wait for a core
        let helped = (0..1_000)
            .map(|_| polls())
            .inspect(|&(_, root, op)| assert_eq!(root, op))
            .find(|&(token, root, _)| root > token);
        assert!(helped.is_some(), "a helper polled in one count of a thousand");
    }
}
