//! The session's statement memo: query text → its parse, and per task
//! the plan made against one [`DataStats`].
//!
//! A client that repeats a query repeats its text byte for byte, and
//! redoing the parse, the canonical shape and the plan choice for it
//! cost more than a warm small query's execution. So a session keeps the
//! last [`MAX_STATEMENTS`] texts it served, each with its parsed
//! [`ConjunctiveQuery`] and, per task, the [`QueryPlan`] together with
//! the `Arc<DataStats>` it was planned against. A plan is served again
//! only while the tenant's catalog hands out that same `Arc`: the
//! catalog assembles a new one for every generation of the database, and
//! the memo holds a clone, so the pointer cannot be reused for other
//! statistics while the plan is kept. Planning is deterministic in
//! (query, task, structure, statistics), so a reused plan is the plan
//! the planner would choose. A parse error is not memoized.

use crate::protocol::{ErrKind, Reply};
use cq_core::{parse_query, ConjunctiveQuery};
use cq_data::DataStats;
use cq_planner::{eval, Lookup, QueryPlan, Task};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// How many statements a session keeps; the oldest goes first.
pub const MAX_STATEMENTS: usize = 64;

/// The memo. See the module documentation.
#[derive(Default)]
pub(super) struct Statements {
    by_text: HashMap<Box<str>, Statement>,
    /// The memoized texts, oldest first.
    order: VecDeque<Box<str>>,
}

struct Statement {
    query: Arc<ConjunctiveQuery>,
    /// At most one per task.
    plans: Vec<Planned>,
}

struct Planned {
    /// What the plan was made against; it is valid while the catalog
    /// answers with this very `Arc`.
    stats: Arc<DataStats>,
    plan: QueryPlan,
    /// Was the query's shape exact? A reuse counts as the shape-cache
    /// lookup it replaces: a hit, or `uncacheable`.
    exact: bool,
}

impl Statements {
    /// The parsed query `src`: parsed once while memoized. A parse error
    /// is the `ERR parse` reply, its data lines the offending source line
    /// and a caret under the fault.
    pub(super) fn query(&mut self, src: &str) -> Result<Arc<ConjunctiveQuery>, Reply> {
        if let Some(stmt) = self.by_text.get(src) {
            return Ok(Arc::clone(&stmt.query));
        }
        let query = Arc::new(parse_query(src).map_err(|e| {
            let data = match e.context(src) {
                Some((line, caret)) => vec![line, caret],
                None => Vec::new(),
            };
            Reply::err_with(ErrKind::Parse, data, e)
        })?);
        if self.order.len() == MAX_STATEMENTS {
            if let Some(oldest) = self.order.pop_front() {
                self.by_text.remove(&oldest);
            }
        }
        self.order.push_back(src.into());
        let stmt = Statement { query: Arc::clone(&query), plans: Vec::new() };
        self.by_text.insert(src.into(), stmt);
        Ok(query)
    }

    /// The plan of `task` for the statement `src` (parsed by
    /// [`Statements::query`]) against `stats`: the memoized one while
    /// `stats` is the `Arc` it was made against, else `fresh()`'s — the
    /// shared planner's, with what its shape-cache lookup found — kept in
    /// its place.
    pub(super) fn plan(
        &mut self,
        src: &str,
        task: Task,
        stats: &Arc<DataStats>,
        fresh: impl FnOnce() -> (QueryPlan, Lookup),
    ) -> QueryPlan {
        let Some(stmt) = self.by_text.get_mut(src) else {
            return fresh().0;
        };
        let slot = stmt.plans.iter().position(|p| p.plan.task == task);
        if let Some(kept) = slot.map(|i| &stmt.plans[i]) {
            if Arc::ptr_eq(&kept.stats, stats) {
                let lookup = if kept.exact { Lookup::Hit } else { Lookup::Uncacheable };
                eval::cache_counters().count(lookup);
                return kept.plan.clone();
            }
        }
        let (plan, lookup) = fresh();
        let exact = lookup != Lookup::Uncacheable;
        let kept = Planned {
            stats: Arc::clone(stats),
            plan: QueryPlan { cache_hit: exact, ..plan.clone() },
            exact,
        };
        match slot {
            Some(i) => stmt.plans[i] = kept,
            None => stmt.plans.push(kept),
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::testkit::session;
    use crate::server::Session;
    use cq_data::{Database, Relation};
    use cq_planner::{PlanOp, Planner};
    use std::cell::Cell;

    const PATH: &str = "q(x, z) :- R(x, y), R(y, z)";

    fn stats_of(rows: &[(u64, u64)]) -> Arc<DataStats> {
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(rows.to_vec()));
        Arc::new(DataStats::collect(&db))
    }

    /// Plan `src` for `COUNT` through `memo`, counting fresh plans in
    /// `planned`; the shape lookup is reported as `lookup`.
    fn count_plan(
        memo: &mut Statements,
        src: &str,
        stats: &Arc<DataStats>,
        planned: &Cell<usize>,
        lookup: Lookup,
    ) -> QueryPlan {
        let q = memo.query(src).unwrap();
        memo.plan(src, Task::Count, stats, || {
            planned.set(planned.get() + 1);
            let plan = Planner::plan_uncached(&q, Task::Count, stats);
            (plan, lookup)
        })
    }

    #[test]
    fn a_repeated_text_is_parsed_and_planned_once() {
        let mut memo = Statements::default();
        let stats = stats_of(&[(1, 2), (2, 3)]);
        let planned = Cell::new(0);
        let first = memo.query(PATH).unwrap();
        let cold = count_plan(&mut memo, PATH, &stats, &planned, Lookup::Miss);
        let warm = count_plan(&mut memo, PATH, &stats, &planned, Lookup::Miss);
        assert!(Arc::ptr_eq(&first, &memo.query(PATH).unwrap()), "parsed once");
        assert_eq!(planned.get(), 1, "planned once");
        assert!(warm.same_decision(&cold));
        // another task of the same text is its own plan
        let q = memo.query(PATH).unwrap();
        memo.plan(PATH, Task::Decide, &stats, || {
            planned.set(planned.get() + 1);
            (Planner::plan_uncached(&q, Task::Decide, &stats), Lookup::Hit)
        });
        assert_eq!(planned.get(), 2);
        assert_eq!(memo.by_text.len(), 1);
    }

    #[test]
    fn a_memo_hit_reports_a_shape_cache_hit_unless_the_shape_is_inexact() {
        let mut memo = Statements::default();
        let stats = stats_of(&[(1, 2)]);
        let planned = Cell::new(0);
        let cold = count_plan(&mut memo, PATH, &stats, &planned, Lookup::Miss);
        assert!(!cold.cache_hit, "a miss is reported as one");
        assert!(count_plan(&mut memo, PATH, &stats, &planned, Lookup::Miss).cache_hit);
        let odd = "q(x) :- R(x, x)";
        count_plan(&mut memo, odd, &stats, &planned, Lookup::Uncacheable);
        assert!(
            !count_plan(&mut memo, odd, &stats, &planned, Lookup::Uncacheable).cache_hit
        );
        assert_eq!(planned.get(), 2);
    }

    #[test]
    fn a_plan_is_kept_only_for_the_stats_it_was_made_against() {
        let mut memo = Statements::default();
        let planned = Cell::new(0);
        let stats = stats_of(&[(1, 2)]);
        count_plan(&mut memo, PATH, &stats, &planned, Lookup::Miss);
        // equal statistics in another allocation are not the same stats
        let twin = stats_of(&[(1, 2)]);
        count_plan(&mut memo, PATH, &twin, &planned, Lookup::Hit);
        assert_eq!(planned.get(), 2);
        count_plan(&mut memo, PATH, &twin, &planned, Lookup::Hit);
        assert_eq!(planned.get(), 2, "the replacement is kept");
    }

    fn session_on(db: &str, r: Relation) -> Session {
        let mut s = session();
        add_tenant(&mut s, db, r);
        s
    }

    fn add_tenant(s: &mut Session, db: &str, r: Relation) {
        assert!(s.handle_line(&format!("CREATE DB {db}")).unwrap().is_ok());
        assert!(s.handle_line(&format!("USE {db}")).unwrap().is_ok());
        s.state.tenant(db).unwrap().mutate(|d| {
            d.insert("R", r);
        });
    }

    fn empty() -> Relation {
        Relation::from_rows(2, std::iter::empty::<Vec<u64>>())
    }

    #[test]
    fn a_write_replans_even_a_trivially_empty_count() {
        let mut s = session_on("t", empty());
        let count = format!("COUNT {PATH}");
        assert_eq!(s.handle_line(&count).unwrap().terminal, "OK 0");
        let text = s.handle_line(&format!("EXPLAIN {count}")).unwrap().data.join("\n");
        assert!(text.contains(PlanOp::TrivialEmpty.name()), "{text}");
        assert!(s.handle_line("INSERT R(1, 1)").unwrap().is_ok());
        assert_eq!(s.handle_line(&count).unwrap().terminal, "OK 1");
    }

    #[test]
    fn one_text_under_two_tenants_gets_each_tenants_plan() {
        let mut s = session_on("a", empty());
        add_tenant(&mut s, "b", Relation::from_pairs(vec![(1, 2), (2, 3), (3, 1)]));
        let count = format!("COUNT {PATH}");
        let explain = format!("EXPLAIN {count}");
        for _ in 0..2 {
            s.handle_line("USE a");
            assert_eq!(s.handle_line(&count).unwrap().terminal, "OK 0");
            let text = s.handle_line(&explain).unwrap().data.join("\n");
            assert!(text.contains(PlanOp::TrivialEmpty.name()), "{text}");
            s.handle_line("USE b");
            assert_eq!(s.handle_line(&count).unwrap().terminal, "OK 3");
            let text = s.handle_line(&explain).unwrap().data.join("\n");
            assert!(!text.contains(PlanOp::TrivialEmpty.name()), "{text}");
        }
        assert_eq!(s.statements.by_text.len(), 1);
    }

    #[test]
    fn a_parse_error_is_answered_the_same_twice_and_not_kept() {
        let mut s = session_on("t", empty());
        let bad = "COUNT q(x) :- R(x, y) ; S(y)";
        let first = s.handle_line(bad).unwrap();
        assert!(first.terminal.starts_with("ERR parse:"), "{}", first.terminal);
        assert_eq!(first.data.len(), 2, "source line and caret: {:?}", first.data);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        first.write_to(&mut a).unwrap();
        s.handle_line(bad).unwrap().write_to(&mut b).unwrap();
        assert_eq!(a, b);
        assert!(s.statements.by_text.is_empty());
    }

    #[test]
    fn the_memo_keeps_at_most_its_cap_oldest_out_first() {
        let mut s = session_on("t", Relation::from_pairs(vec![(1, 2)]));
        let text = |i: usize| format!("q(x) :- R(x, y{i})");
        for i in 0..MAX_STATEMENTS + 10 {
            let r = s.handle_line(&format!("COUNT {}", text(i))).unwrap();
            assert_eq!(r.terminal, "OK 1");
        }
        assert_eq!(s.statements.by_text.len(), MAX_STATEMENTS);
        assert!(!s.statements.by_text.contains_key(text(9).as_str()), "evicted");
        assert!(s.statements.by_text.contains_key(text(10).as_str()), "kept");
        assert_eq!(s.statements.order.len(), MAX_STATEMENTS);
    }
}
