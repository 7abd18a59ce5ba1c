//! Evaluation options as a value: [`EvalCtx`].
//!
//! An [`EvalCtx`] carries the options of an evaluation — index
//! catalog, cancel token, admission budget, trace sink — and one method
//! per task consumes it, so a new cross-cutting concern is a new field,
//! not a new function suffix. Budget and trace are the planner's
//! business (admission happens before execution, the sink is installed
//! thread-locally around it); catalog and token are the operators', and
//! reach them as the [`ExecCtx`] this type builds per execution.
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

use crate::eval;
use crate::execute::{execute_in, Output};
use crate::ir::{QueryPlan, Task};
use crate::planner::Planner;
use cq_core::ConjunctiveQuery;
use cq_data::{Database, IndexCatalog, Relation};
use cq_engine::bind::EvalError;
use cq_engine::{CancelToken, ExecCtx};
use cq_obs::trace::{self, TraceSink};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
    /// No caps — every plan is admitted.
    pub fn unlimited() -> EvalBudget {
        EvalBudget::default()
    }

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
/// to run warm against, the [`CancelToken`] bounding it, and the
/// [`EvalBudget`] admitting its plan. Build one with [`EvalCtx::new`]
/// and the `with_*` setters, then call a task method.
///
/// Defaults: no explicit catalog (task methods fall back to the
/// process-wide [`eval::catalog`], [`EvalCtx::execute`] to a throwaway
/// cold catalog — exactly the defaults of the suffix-free facade
/// functions), a never-tripping token, and no budget.
#[derive(Clone)]
pub struct EvalCtx<'a> {
    catalog: Option<&'a IndexCatalog>,
    cancel: CancelToken,
    budget: EvalBudget,
    trace: TraceSink,
}

impl Default for EvalCtx<'_> {
    fn default() -> Self {
        EvalCtx::new()
    }
}

impl<'a> EvalCtx<'a> {
    /// The default context: process-wide catalog, never cancelled, no
    /// budget.
    pub fn new() -> EvalCtx<'static> {
        EvalCtx {
            catalog: None,
            cancel: CancelToken::never(),
            budget: EvalBudget::unlimited(),
            // inherit whatever sink the caller's scope has installed
            // (disabled outside any `trace::with`), so a session-level
            // profiling sink reaches evaluation without plumbing
            trace: trace::current(),
        }
    }

    /// Run against an explicit catalog (e.g. one pinned per server
    /// tenant) instead of the process-wide one.
    pub fn with_catalog<'b>(self, catalog: &'b IndexCatalog) -> EvalCtx<'b> {
        EvalCtx {
            catalog: Some(catalog),
            cancel: self.cancel,
            budget: self.budget,
            trace: self.trace,
        }
    }

    /// Bound the evaluation by `cancel`: a tripped deadline or probe
    /// aborts mid-execution with [`EvalError::Cancelled`].
    pub fn with_cancel(mut self, cancel: CancelToken) -> EvalCtx<'a> {
        self.cancel = cancel;
        self
    }

    /// Admission-check plans against `budget` before executing them;
    /// an over-budget plan fails with [`EvalError::OverBudget`] without
    /// doing any evaluation work.
    pub fn with_budget(mut self, budget: EvalBudget) -> EvalCtx<'a> {
        self.budget = budget;
        self
    }

    /// Record execution into `trace`: the executor opens a root
    /// `execute` span (catalog hits vs. builds, cancel polls, rows)
    /// and installs the sink as the thread-current one for the
    /// duration, so operator, stream, and WAL spans land in the same
    /// trace with no signature changes anywhere below. A disabled
    /// sink (the default) short-circuits to the untraced path.
    pub fn with_trace(mut self, trace: TraceSink) -> EvalCtx<'a> {
        self.trace = trace;
        self
    }

    /// The context's cancel token (shared with every clone).
    pub fn cancel(&self) -> &CancelToken {
        &self.cancel
    }

    /// The context's admission budget.
    pub fn budget(&self) -> EvalBudget {
        self.budget
    }

    /// Admit `plan` against the context's budget: `Err` carries the
    /// violation reason. Exposed for callers (like the server) that
    /// render their own refusal message around the reason.
    pub fn admit(&self, plan: &QueryPlan) -> Result<(), String> {
        match self.budget.violation(plan) {
            Some(reason) => Err(reason),
            None => Ok(()),
        }
    }

    /// Execute an already-made `plan` under this context's options.
    /// With no explicit catalog this is the *cold* path (a throwaway
    /// catalog, like [`execute`](crate::execute::execute)); the budget
    /// still admission-checks the plan.
    pub fn execute(
        &self,
        plan: &QueryPlan,
        q: &ConjunctiveQuery,
        db: &Database,
    ) -> Result<Output, EvalError> {
        self.admit(plan).map_err(EvalError::OverBudget)?;
        match self.catalog {
            Some(cat) => self.execute_traced(plan, q, db, cat),
            None => self.execute_traced(plan, q, db, &IndexCatalog::new()),
        }
    }

    /// [`execute_in`] against `catalog` and this context's token, under
    /// its trace sink: a no-op passthrough when tracing is off;
    /// otherwise the sink is installed thread-locally around the call
    /// and a root `execute` span records catalog hits vs. builds,
    /// cancel polls (helper threads' included: [`ExecCtx::polls`]), and
    /// the result cardinality (streamed answers record their own rows as
    /// they drain).
    fn execute_traced(
        &self,
        plan: &QueryPlan,
        q: &ConjunctiveQuery,
        db: &Database,
        catalog: &IndexCatalog,
    ) -> Result<Output, EvalError> {
        let exec = ExecCtx::new(catalog, &self.cancel);
        if !self.trace.is_enabled() {
            return execute_in(&exec, plan, q, db);
        }
        trace::with(&self.trace, || {
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
        })
    }

    /// The catalog task methods run against: the explicit one, or the
    /// process-wide one.
    fn resolve_catalog(&self) -> &'a IndexCatalog {
        self.catalog.unwrap_or_else(|| eval::catalog())
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
        let catalog = self.resolve_catalog();
        let stats = catalog.stats(db);
        let plan = Planner::new().plan(q, task, &stats);
        self.admit(&plan).map_err(EvalError::OverBudget)?;
        let out = self.execute_traced(&plan, q, db, catalog)?;
        Ok((out, plan))
    }

    /// Evaluate a batch of independent `(query, task)` items over one
    /// database in parallel under this context: one shared catalog,
    /// every item planned up front, then up to `workers` threads pulling
    /// items off a shared cursor. Results come back in input order, each
    /// with the plan that ran; over-budget items fail individually with
    /// [`EvalError::OverBudget`]. The calling thread is one of the
    /// workers and polls the context's token; the others poll
    /// [`CancelToken::sibling`]s of it, so one flag and one deadline
    /// bound the whole batch and only the calling thread runs the probe.
    pub fn batch_tasks<'q>(
        &self,
        items: impl IntoIterator<Item = (&'q ConjunctiveQuery, Task)>,
        db: &Database,
        workers: usize,
    ) -> Vec<Result<(Output, QueryPlan), EvalError>> {
        let items: Vec<(&ConjunctiveQuery, Task)> = items.into_iter().collect();
        if items.is_empty() {
            return Vec::new();
        }
        let catalog = self.resolve_catalog();
        let stats = catalog.stats(db);
        let plans: Vec<QueryPlan> =
            items.iter().map(|(q, task)| Planner::new().plan(q, *task, &stats)).collect();

        // work-stealing over a shared cursor: homogeneous batches split
        // evenly, skewed ones keep every worker busy until the end.
        // execute_traced installs the sink per call, so worker threads
        // (which do not inherit the session thread's trace TLS) still
        // record into the shared trace
        let results: Vec<OnceLock<Result<(Output, QueryPlan), EvalError>>> =
            (0..items.len()).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        let work = |ctx: &EvalCtx| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(q, _)) = items.get(i) else { break };
            let plan = &plans[i];
            let result = ctx
                .admit(plan)
                .map_err(EvalError::OverBudget)
                .and_then(|()| ctx.execute_traced(plan, q, db, catalog))
                .map(|out| (out, plan.clone()));
            let filled = results[i].set(result);
            debug_assert!(filled.is_ok(), "cursor indices are claimed once");
        };
        std::thread::scope(|s| {
            // the calling thread is a worker too, and the only one that
            // runs the token's probe: the others poll siblings of it
            for _ in 1..workers.min(items.len()) {
                s.spawn(|| {
                    work(&EvalCtx { cancel: self.cancel.sibling(), ..self.clone() })
                });
            }
            work(self);
        });
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("every index was claimed by a worker"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, random_pairs, seeded_rng, triangle_database};

    #[test]
    fn task_methods_agree_with_the_facade() {
        let db = path_database(3, 40, &mut seeded_rng(31));
        let q = zoo::path_join(3);
        let catalog = IndexCatalog::new();
        let ctx = EvalCtx::new().with_catalog(&catalog);
        let (n, plan) = ctx.count(&q, &db).unwrap();
        let (want, _) = crate::eval::count(&q, &db).unwrap();
        assert_eq!(n, want);
        assert_eq!(plan.op.name(), "counting DP over join tree");
        // the boolean variant has the same body: non-empty iff count > 0
        let (dec, _) = ctx.decide(&zoo::path_boolean(3), &db).unwrap();
        assert_eq!(dec, want > 0);
        let (rel, _) = ctx.answers(&q, &db).unwrap();
        assert_eq!(rel.len() as u64, n);
    }

    #[test]
    fn budget_rejects_before_execution() {
        let db = path_database(2, 20, &mut seeded_rng(32));
        let q = zoo::path_join(2);
        let catalog = IndexCatalog::new();
        let tight = EvalBudget { max_exponent: Some(0.0), max_rows: None };
        let ctx = EvalCtx::new().with_catalog(&catalog).with_budget(tight);
        // warm the stats memo so the only remaining misses would be
        // execution artifacts (indexes, reduced trees)
        let _ = catalog.stats(&db);
        let misses_before = catalog.snapshot().misses;
        let err = ctx.count(&q, &db).unwrap_err();
        match err {
            EvalError::OverBudget(reason) => {
                assert!(reason.contains("MAX-EXPONENT"), "{reason}");
            }
            other => panic!("expected OverBudget, got {other:?}"),
        }
        // nothing was built: admission happened before any execution
        assert_eq!(catalog.snapshot().misses, misses_before);
        // lifting the budget admits the same query
        let ctx = ctx.with_budget(EvalBudget::unlimited());
        assert!(ctx.count(&q, &db).is_ok());
    }

    #[test]
    fn batch_budget_fails_items_individually() {
        let db = path_database(2, 20, &mut seeded_rng(33));
        let q = zoo::path_join(2);
        let catalog = IndexCatalog::new();
        let tight = EvalBudget { max_exponent: Some(0.0), max_rows: None };
        let ctx = EvalCtx::new().with_catalog(&catalog).with_budget(tight);
        let results = ctx.batch_tasks(vec![(&q, Task::Count)], &db, 2);
        assert!(matches!(results[0], Err(EvalError::OverBudget(_))));
    }

    #[test]
    fn default_catalog_is_the_process_wide_one() {
        // with no explicit catalog, repeated ctx calls share the
        // process-wide warm catalog — same as the suffix-free facade
        let mut db = cq_data::Database::new();
        db.insert("CtxA", cq_data::generate::random_pairs(25, 25, &mut seeded_rng(34)));
        db.insert("CtxB", cq_data::generate::random_pairs(25, 25, &mut seeded_rng(35)));
        let q = cq_core::parse_query("q(a, b, c) :- CtxA(a, b), CtxB(b, c)").unwrap();
        let ctx = EvalCtx::new();
        let _ = ctx.answers(&q, &db).unwrap();
        let repeat = || drop(ctx.answers(&q, &db).unwrap());
        let builds = crate::eval::builds_in_a_quiet_window(repeat);
        assert_eq!(builds, 0, "second call must be warm");
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
            let ctx = EvalCtx::new().with_catalog(&catalog).with_trace(sink.clone());
            ctx.count(&q, &db).unwrap();
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
