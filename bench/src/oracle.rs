//! The correctness oracle: expected wire replies, computed in-process
//! from the mirror database through the same public entry points the
//! server uses (`parse_query` → `Planner::plan` → `EvalCtx::execute` →
//! `Answers::next` → `render_row`), plus the brute-force cross-check.
//!
//! Every wire reply in every workload is compared against a value made
//! here; a mismatch is a failed operation.

use crate::data::{Dataset, Shape};
use crate::wire::row_digest;
use cq_core::{parse_query, ConjunctiveQuery};
use cq_data::{Database, IndexCatalog};
use cq_planner::execute::Answers;
use cq_planner::{EvalCtx, Output, Planner, QueryPlan, Task};
use cq_server::protocol::{render_row, DATA_PREFIX};

/// What a streamed reply must fold to (see [`crate::wire::Streamed`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamExpect {
    pub rows: u64,
    pub bytes: u64,
    pub digest: u64,
}

impl StreamExpect {
    pub fn empty() -> StreamExpect {
        StreamExpect { rows: 0, bytes: 0, digest: 0 }
    }

    pub fn push(&mut self, row: &str) {
        self.rows += 1;
        self.bytes += (DATA_PREFIX.len() + row.len() + 1) as u64;
        self.digest = self.digest.wrapping_add(row_digest(row.as_bytes()));
    }
}

/// A mirror of one tenant with its own warm catalog and planner.
pub struct Oracle {
    pub db: Database,
    pub catalog: IndexCatalog,
    pub planner: Planner,
}

impl Oracle {
    pub fn new(ds: &Dataset) -> Oracle {
        Oracle { db: ds.mirror(), catalog: IndexCatalog::new(), planner: Planner::new() }
    }

    pub fn plan(&mut self, query: &str, task: Task) -> (ConjunctiveQuery, QueryPlan) {
        let q = parse_query(query).unwrap_or_else(|e| panic!("shape `{query}`: {e}"));
        let stats = self.catalog.stats(&self.db);
        let plan = self.planner.plan(&q, task, &stats);
        (q, plan)
    }

    fn execute(&mut self, query: &str, task: Task) -> Output {
        let (q, plan) = self.plan(query, task);
        EvalCtx::new()
            .with_catalog(&self.catalog)
            .execute(&plan, &q, &self.db)
            .unwrap_or_else(|e| panic!("oracle evaluation of `{query}` failed: {e}"))
    }

    fn answers(&mut self, query: &str, task: Task) -> Answers {
        match self.execute(query, task) {
            Output::Answers(a) => a,
            other => panic!("`{query}` did not stream: {other:?}"),
        }
    }

    /// `|q(D)|` through the planner's counting plan.
    pub fn count(&mut self, query: &str) -> u64 {
        self.execute(query, Task::Count).as_count().expect("count plan yields a count")
    }

    /// The `OK …` terminal of a `DECIDE`/`COUNT` shape.
    pub fn terminal(&mut self, shape: &Shape) -> String {
        match self.execute(shape.query, shape.verb.task()) {
            Output::Decision(b) => format!("OK {b}"),
            Output::Count(n) => format!("OK {n}"),
            Output::Answers(_) => panic!("`{}` streams; use `stream`", shape.name),
        }
    }

    /// A full `ANSWERS` drain of `query`.
    pub fn stream(&mut self, query: &str) -> StreamExpect {
        let mut answers = self.answers(query, Task::Answers);
        let mut out = StreamExpect::empty();
        while let Some(row) = answers.next().expect("oracle stream") {
            out.push(&render_row(row));
        }
        out
    }

    /// The first `pages` `FETCH <page>` replies of a `CURSOR ANSWERS`
    /// over `query`, in order, and whether the last one hit the end.
    pub fn pages(&mut self, query: &str, page: u64, pages: usize) -> Vec<StreamExpect> {
        let mut answers = self.answers(query, Task::Answers);
        let mut out = Vec::with_capacity(pages);
        for _ in 0..pages {
            let mut p = StreamExpect::empty();
            for _ in 0..page {
                match answers.next().expect("oracle stream") {
                    Some(row) => p.push(&render_row(row)),
                    None => break,
                }
            }
            out.push(p);
        }
        out
    }

    /// Number of answers of, and the rendered rows at positions `ks` in,
    /// a `CURSOR ACCESS` over `query`.
    pub fn access_rows(&mut self, query: &str, ks: &[u64]) -> Vec<String> {
        let mut answers = self.answers(query, Task::Access);
        ks.iter()
            .map(|&k| {
                answers.seek(k).expect("access plans seek");
                let row = answers.next().expect("oracle stream").expect("k in range");
                render_row(row)
            })
            .collect()
    }

    /// The operator `EXPLAIN <task>` names for `query` on this tenant.
    #[cfg(test)]
    pub fn operator(&mut self, query: &str, task: Task) -> &'static str {
        self.plan(query, task).1.op.name()
    }

    /// Exhaustive nested-loop count — only for `tiny`-sized mirrors.
    pub fn brute_force_count(&self, query: &str) -> u64 {
        let q = parse_query(query).expect("shape parses");
        cq_engine::bind::brute_force_count(&q, &self.db).expect("brute force")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{shape, SHAPES};

    #[test]
    fn planner_routes_every_shape_to_the_operator_the_benchmark_names() {
        let ds = Dataset::generate("t", 400, 9);
        let mut o = Oracle::new(&ds);
        for s in SHAPES {
            assert_eq!(o.operator(s.query, s.verb.task()), s.operator, "{}", s.name);
        }
    }

    #[test]
    fn counts_agree_three_ways_on_a_tiny_tenant() {
        let ds = Dataset::generate("tiny", 100, 42);
        let mut o = Oracle::new(&ds);
        for name in ["path3_count", "star3_count", "tri_count", "path3_ends_count"] {
            let q = shape(name).query;
            let planned = o.count(q);
            assert_eq!(planned, o.stream(q).rows, "{name}: COUNT vs ANSWERS rows");
            assert_eq!(planned, o.brute_force_count(q), "{name}: vs brute force");
        }
        let side = crate::data::cross_side(100);
        assert_eq!(o.stream(shape("cross_answers").query).rows, side * side);
    }

    #[test]
    fn pages_partition_the_stream_and_access_rows_are_rendered() {
        let ds = Dataset::generate("t", 300, 5);
        let mut o = Oracle::new(&ds);
        let q = shape("cross_answers").query;
        let whole = o.stream(q);
        let pages = o.pages(q, 7, whole.rows as usize / 7 + 2);
        assert_eq!(pages.iter().map(|p| p.rows).sum::<u64>(), whole.rows);
        let digest = pages.iter().fold(0u64, |d, p| d.wrapping_add(p.digest));
        assert_eq!(digest, whole.digest);
        assert_eq!(pages.last().unwrap().rows, 0);
        let q = shape("path3_answers").query;
        let n = o.count(q);
        let rows = o.access_rows(q, &[0, n - 1]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].split(' ').count(), 4);
    }
}
