//! The session's statement memo: query text → its parse, its
//! [`Structure`], and per task the plan made at one database generation.
//!
//! A client that repeats a query repeats its text byte for byte, and
//! redoing the parse and the plan choice for it cost more than a warm
//! small query's execution. So a session keeps the last
//! [`MAX_STATEMENTS`] texts it served, each with its parsed
//! [`ConjunctiveQuery`] and, per task, the [`QueryPlan`] together with
//! the [`Database::generation`](cq_data::Database::generation) it was
//! made at. A plan is served again only at that generation: generations
//! are process-unique and never reused, and equal ones mean equal
//! content, hence equal statistics. Planning is deterministic in
//! (query, task, structure, statistics), so a reused plan is the plan
//! the planner would choose — and a warm statement asks the catalog
//! for nothing to plan it.
//!
//! The structure depends on the text alone, so it is computed once, at
//! the statement's first plan, and kept: a replan after a write, or
//! under another tenant, runs only [`choose`]. The witness search of a
//! cyclic query therefore runs at most once per text per session. A
//! parse error is not memoized.

use crate::protocol::{ErrKind, Reply};
use cq_core::classify::Structure;
use cq_core::{parse_query, ConjunctiveQuery};
use cq_planner::{choose, QueryPlan, Task};
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
    /// `Structure::of(query)`, from the statement's first plan on.
    structure: Option<Structure>,
    /// At most one per task.
    plans: Vec<Planned>,
}

struct Planned {
    /// The generation of the database the plan was made against.
    generation: u64,
    plan: QueryPlan,
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
        let stmt =
            Statement { query: Arc::clone(&query), structure: None, plans: Vec::new() };
        self.by_text.insert(src.into(), stmt);
        Ok(query)
    }

    /// The plan of `task` for the statement `src`, just parsed by
    /// [`Statements::query`], on the database at `generation`: the
    /// memoized one if it was made at that generation, else one chosen
    /// over the statement's kept structure and the statistics `stats`
    /// hands out (asked for only then), and kept in its place.
    pub(super) fn plan(
        &mut self,
        src: &str,
        task: Task,
        generation: u64,
        stats: impl FnOnce() -> Arc<cq_data::DataStats>,
    ) -> QueryPlan {
        let stmt = self.by_text.get_mut(src).expect("Statements::query memoized src");
        let slot = stmt.plans.iter().position(|p| p.plan.task == task);
        if let Some(kept) = slot.map(|i| &stmt.plans[i]) {
            if kept.generation == generation {
                return kept.plan.clone();
            }
        }
        let structure = stmt.structure.get_or_insert_with(|| Structure::of(&stmt.query));
        let plan = choose(&stmt.query, task, structure, &stats());
        let kept = Planned { generation, plan: plan.clone() };
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
    use crate::server::testkit::{drive, session};
    use crate::server::Session;
    use cq_data::{DataStats, Database, Relation};

    const PATH: &str = "q(x, z) :- R(x, y), R(y, z)";

    fn db_of(rows: &[(u64, u64)]) -> Database {
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(rows.to_vec()));
        db
    }

    /// Plan `src` for `task` through `memo`, on `db`.
    fn plan_of(memo: &mut Statements, src: &str, task: Task, db: &Database) -> QueryPlan {
        memo.query(src).unwrap();
        memo.plan(src, task, db.generation(), || Arc::new(DataStats::collect(db)))
    }

    /// Mark the plan `memo` keeps for `src` and `task`: a plan served
    /// from the memo carries the mark, a plan chosen again does not.
    fn mark_kept_plan(memo: &mut Statements, src: &str, task: Task) {
        let stmt = memo.by_text.get_mut(src).expect("memoized");
        let kept = stmt.plans.iter_mut().find(|p| p.plan.task == task).expect("planned");
        kept.plan.algorithm_reference = "kept";
    }

    #[test]
    fn a_repeated_text_is_parsed_and_planned_once() {
        let mut memo = Statements::default();
        let db = db_of(&[(1, 2), (2, 3)]);
        let first = memo.query(PATH).unwrap();
        let cold = plan_of(&mut memo, PATH, Task::Count, &db);
        mark_kept_plan(&mut memo, PATH, Task::Count);
        let warm = plan_of(&mut memo, PATH, Task::Count, &db);
        assert!(Arc::ptr_eq(&first, &memo.query(PATH).unwrap()), "parsed once");
        assert_eq!(
            warm,
            QueryPlan { algorithm_reference: "kept", ..cold },
            "planned once"
        );
        // another task of the same text is its own plan
        let decide = plan_of(&mut memo, PATH, Task::Decide, &db);
        assert_eq!(decide.task, Task::Decide);
        assert_ne!(decide.algorithm_reference, "kept");
        assert_eq!(memo.by_text.len(), 1);
        assert_eq!(memo.by_text[PATH].plans.len(), 2);
    }

    #[test]
    fn a_plan_is_kept_only_for_the_generation_it_was_made_at() {
        let mut memo = Statements::default();
        let db = db_of(&[(1, 2)]);
        plan_of(&mut memo, PATH, Task::Count, &db);
        mark_kept_plan(&mut memo, PATH, Task::Count);
        // equal content at another generation is not the same database
        let twin = db_of(&[(1, 2)]);
        let replanned = plan_of(&mut memo, PATH, Task::Count, &twin);
        assert_ne!(replanned.algorithm_reference, "kept");
        mark_kept_plan(&mut memo, PATH, Task::Count);
        let again = plan_of(&mut memo, PATH, Task::Count, &twin);
        assert_eq!(again.algorithm_reference, "kept", "the replacement is kept");
        // a clone keeps the generation: its plan is served without
        // asking for statistics
        let clone = twin.clone();
        let served = memo.plan(PATH, Task::Count, clone.generation(), || {
            unreachable!("a kept plan asks for no statistics")
        });
        assert_eq!(served.algorithm_reference, "kept");
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

    /// The structure is kept across a write: the replan runs `choose`
    /// over it, and never `Structure::of`.
    #[test]
    fn a_write_replans_a_cyclic_text_on_its_kept_structure() {
        const TRIANGLE: &str = "q(x, y, z) :- R(x, y), R(y, z), R(z, x)";
        let mut s = session_on("t", Relation::from_pairs(vec![(1, 2), (2, 3), (3, 1)]));
        let count = format!("COUNT {TRIANGLE}");
        assert_eq!(s.handle_line(&count).unwrap().terminal, "OK 3");
        // mark the kept structure: a structure computed again lacks it
        let marked = 7.0;
        let stmt = s.statements.by_text.get_mut(TRIANGLE).unwrap();
        let before = stmt.plans[0].plan.clone();
        stmt.structure.as_mut().expect("computed at the first plan").agm_exponent =
            marked;
        assert!(s.handle_line("INSERT R(4, 4)").unwrap().is_ok());
        assert_eq!(s.handle_line(&count).unwrap().terminal, "OK 4");
        let stmt = &s.statements.by_text[TRIANGLE];
        let after = &stmt.plans[0].plan;
        assert_eq!(after.cost.m, before.cost.m + 1, "replanned for the new statistics");
        assert_eq!(after.cost.exponent, 7.0, "over the kept structure");
        assert_eq!(stmt.structure.as_ref().unwrap().agm_exponent, marked);
    }

    /// The database size `m` EXPLAIN says the plan for `line` was made
    /// against: the statistics the session planned it on.
    fn planned_m(s: &mut Session, line: &str) -> String {
        let text = s.handle_line(&format!("EXPLAIN {line}")).unwrap().data.join("\n");
        let (_, m) = text.split_once("with m = ").unwrap_or_else(|| panic!("{text}"));
        m.split(|c: char| !c.is_ascii_digit()).next().unwrap().to_string()
    }

    #[test]
    fn a_write_replans_a_count_over_an_empty_relation() {
        let mut s = session_on("t", empty());
        let count = format!("COUNT {PATH}");
        assert_eq!(s.handle_line(&count).unwrap().terminal, "OK 0");
        assert_eq!(planned_m(&mut s, &count), "0");
        assert!(s.handle_line("INSERT R(1, 1)").unwrap().is_ok());
        assert_eq!(s.handle_line(&count).unwrap().terminal, "OK 1");
        assert_eq!(planned_m(&mut s, &count), "1");
    }

    /// A warm statement is planned without the catalog: a repeated
    /// `EXPLAIN` makes no lookup, and a write to a relation the query
    /// does not read still replans it, for the new `m`.
    #[test]
    fn a_warm_statement_plans_without_a_catalog_lookup() {
        let mut s = session_on("t", Relation::from_pairs(vec![(1, 2), (2, 3)]));
        assert!(s.handle_line("INSERT S(7)").unwrap().is_ok());
        let count = format!("COUNT {PATH}");
        assert_eq!(planned_m(&mut s, &count), "3");
        let lookups = |s: &Session| {
            let catalog = s.state.tenant("t").unwrap().read_meta().0;
            catalog.hits + catalog.misses
        };
        let before = lookups(&s);
        for _ in 0..3 {
            assert_eq!(planned_m(&mut s, &count), "3");
        }
        assert_eq!(lookups(&s), before, "the kept plan is served");
        assert!(s.handle_line("INSERT S(8)").unwrap().is_ok());
        assert_eq!(planned_m(&mut s, &count), "4");
    }

    #[test]
    fn one_text_under_two_tenants_gets_each_tenants_plan() {
        let mut s = session_on("a", empty());
        add_tenant(&mut s, "b", Relation::from_pairs(vec![(1, 2), (2, 3), (3, 1)]));
        let count = format!("COUNT {PATH}");
        for _ in 0..2 {
            s.handle_line("USE a");
            assert_eq!(s.handle_line(&count).unwrap().terminal, "OK 0");
            assert_eq!(planned_m(&mut s, &count), "0");
            s.handle_line("USE b");
            assert_eq!(s.handle_line(&count).unwrap().terminal, "OK 3");
            assert_eq!(planned_m(&mut s, &count), "3");
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

    /// A `BATCH` longer than the memo answers every item: each text is
    /// parsed right before its plan, so none is evicted in between.
    #[test]
    fn a_batch_longer_than_the_memo_answers_every_item() {
        let mut s = session_on("t", Relation::from_pairs(vec![(1, 2)]));
        let n = MAX_STATEMENTS + 16;
        let items: Vec<String> =
            (0..n).map(|i| format!("COUNT q(x) :- R(x, y{i})")).collect();
        let mut lines = vec!["BATCH"];
        lines.extend(items.iter().map(String::as_str));
        lines.push("END");
        let done = drive(&mut s, &lines).pop().unwrap().unwrap();
        assert_eq!(done.terminal, format!("OK batch of {n} items"));
        let want: Vec<String> = (0..n).map(|i| format!("{i} OK 1")).collect();
        assert_eq!(done.data, want);
    }

    /// `BATCH` items plan through the memo: a repeated block on unchanged
    /// statistics serves the kept plans, and a write replans them.
    #[test]
    fn batch_items_reuse_the_kept_plans() {
        let mut s = session_on("t", Relation::from_pairs(vec![(1, 2), (2, 3)]));
        let (count, answers) = (format!("COUNT {PATH}"), format!("ANSWERS {PATH}"));
        let batch = ["BATCH", count.as_str(), answers.as_str(), "END"];
        let run = |s: &mut Session| drive(s, &batch).pop().unwrap().unwrap().data;
        let kept = |s: &Session, task: Task| {
            let plans = &s.statements.by_text[PATH].plans;
            plans.iter().find(|p| p.plan.task == task).unwrap().plan.algorithm_reference
        };
        assert_eq!(run(&mut s), ["0 OK 1", "1 OK 1 rows"]);
        for task in [Task::Count, Task::Answers] {
            mark_kept_plan(&mut s.statements, PATH, task);
        }
        assert_eq!(run(&mut s), ["0 OK 1", "1 OK 1 rows"]);
        assert_eq!(kept(&s, Task::Count), "kept");
        assert_eq!(kept(&s, Task::Answers), "kept");
        assert!(s.handle_line("INSERT R(3, 4)").unwrap().is_ok());
        assert_eq!(run(&mut s), ["0 OK 2", "1 OK 2 rows"]);
        assert_ne!(kept(&s, Task::Count), "kept");
        assert_ne!(kept(&s, Task::Answers), "kept");
    }
}
