//! # cq-lower-bounds
//!
//! A from-scratch Rust reproduction of
//!
//! > Stefan Mengel, **“Lower Bounds for Conjunctive Query Evaluation”**,
//! > PODS 2025 (arXiv:2506.17702),
//!
//! as a usable library: the structure theory and fine-grained
//! classification of conjunctive queries ([`core`]), the evaluation
//! algorithms achieving every upper bound in the paper ([`engine`]), the
//! cost-aware planner that routes every task to its dichotomy-optimal
//! algorithm with an inspectable plan ([`planner`]), the
//! problem zoo behind every hypothesis ([`problems`]), the matrix
//! multiplication substrate ([`matrix`]), and every lower-bound
//! reduction as executable, testable code ([`reductions`]).
//!
//! ## Quick start
//!
//! ```
//! use cq_lower_bounds::prelude::*;
//!
//! // parse a conjunctive query
//! let q = parse_query("q(x, z) :- R(x, y), S(y, z)").unwrap();
//!
//! // classify it: which tasks are linear-time, which are conditionally hard?
//! let profile = classify(&q);
//! assert!(profile.structure.acyclic && !profile.structure.free_connex);
//! assert!(profile.decision.is_easy());   // Yannakakis, Thm 3.1
//! assert!(profile.counting.is_hard());   // SETH, Thm 3.12
//!
//! // evaluate on data: plan → execute, one call (cold: a context
//! // given no catalog builds its indexes afresh and drops them)
//! let mut db = Database::new();
//! db.insert("R", Relation::from_pairs(vec![(1, 10), (2, 10)]));
//! db.insert("S", Relation::from_pairs(vec![(10, 7)]));
//! let (n, plan) = EvalCtx::new().count(&q, &db).unwrap();
//! assert_eq!(n, 2); // (1,7) and (2,7)
//!
//! // the plan explains itself: operator, citation, lower bound
//! let text = cq_lower_bounds::planner::explain::render(&plan, &q);
//! assert!(text.contains("generic join"));
//! assert!(text.contains(plan.algorithm_reference));
//! ```
//!
//! ## Serving over the wire: `cqd` and `cqsh`
//!
//! The [`server`] crate puts the whole pipeline behind a multi-tenant
//! line-based text protocol (std-only: `TcpListener`, and a thread per
//! connection under one admission cap).
//! Boot the daemon and talk to it from the shell:
//!
//! ```text
//! $ cargo run --release -p cq-server --bin cqd -- --addr 127.0.0.1:7878
//! cqd listening on 127.0.0.1:7878 (8 workers)
//!
//! $ cargo run --release -p cq-server --bin cqsh
//! cq> CREATE DB social
//! OK created social
//! cq> USE social
//! OK using social
//! cq> LOAD Follows 2
//! OK loading; rows until END
//! 1 2
//! 2 3
//! END
//! OK loaded 2 rows into Follows (2 total)
//! cq> ANSWERS q(x, z) :- Follows(x, y), Follows(y, z)
//! * 1 3
//! OK 1 rows
//! cq> EXPLAIN COUNT q(x, z) :- Follows(x, y), Follows(y, z)
//! * PLAN for q(x, z) :- Follows(x, y), Follows(y, z)
//! ...
//! OK
//! cq> QUIT
//! OK bye
//! ```
//!
//! Tenancy is one database + one pinned index catalog per `CREATE DB`
//! name; each session memoizes the statements it serves. Scripted
//! sessions (`cqsh < script.cq`) echo commands, making transcripts
//! diffable — CI's `server-smoke` job pins one as a golden file. See
//! [`server`] for the protocol grammar and the in-process API.
//!
//! ## Persistent mode: surviving a restart
//!
//! Start `cqd` with `--data-dir` and tenants become durable: wire
//! mutations are write-ahead logged, `SAVE` checkpoints a tenant into
//! an atomic snapshot, and a rebooted daemon recovers every tenant
//! (snapshot + log replay, torn log tails truncated with a warning —
//! even after SIGKILL):
//!
//! ```text
//! $ cqd --addr 127.0.0.1:7878 --data-dir /var/lib/cqd
//! cqd recovered social: 2 relations, 8 tuples (5 snapshot rows + 3 wal records)
//! cqd listening on 127.0.0.1:7878 (8 workers, data in /var/lib/cqd)
//! ```
//!
//! The same machinery is a library ([`storage`]): recover a registry,
//! mutate it through sessions, and reopen it later —
//!
//! ```
//! use cq_lower_bounds::server::{ServerState, Session};
//! use cq_lower_bounds::storage::Store;
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join(format!("cq_quickstart_{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! {
//!     let (state, _report) = ServerState::recover(Store::open_dir(&dir).unwrap()).unwrap();
//!     let mut s = Session::new(Arc::new(state));
//!     s.handle_line("CREATE DB social").unwrap();
//!     s.handle_line("USE social").unwrap();
//!     s.handle_line("INSERT Follows(1, 2)").unwrap();
//! } // "crash": no shutdown, no SAVE — the mutation lives in the WAL
//! let (state, report) = ServerState::recover(Store::open_dir(&dir).unwrap()).unwrap();
//! assert_eq!(report[0].wal_records, 1);
//! let mut s = Session::new(Arc::new(state));
//! s.handle_line("USE social").unwrap();
//! let r = s.handle_line("ANSWERS q(x, y) :- Follows(x, y)").unwrap();
//! assert_eq!(r.data, vec!["1 2"]);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! Index catalogs and statement memos are deliberately *not* persisted:
//! they are memos over the data and rebuild warm on demand. See the
//! `DESIGN.md` "Durability" section for the snapshot format, WAL
//! framing, and recovery invariants.
//!
//! ## Observability and budgets: `METRICS` + `SET BUDGET`
//!
//! The server counts and times everything (lock-free, via the `cq-obs`
//! crate): per-tenant command and plan-operator latencies, catalog hit
//! rates, WAL growth, errors by kind. `METRICS [<db>]`
//! renders it over the wire, `cqd --metrics-interval SECS` dumps it
//! periodically, and `cqd --slow-query-ms N` arms a slow-query log.
//! On the same plumbing, per-tenant budgets turn the paper's lower
//! bounds into admission control — a plan whose cost exponent exceeds
//! the budget is refused *before* execution, citing the hypothesis
//! that makes it hopeless:
//!
//! ```
//! use cq_lower_bounds::server::{ServerState, Session};
//! use std::sync::Arc;
//!
//! let mut s = Session::new(Arc::new(ServerState::new()));
//! s.handle_line("CREATE DB social").unwrap();
//! s.handle_line("USE social").unwrap();
//! s.handle_line("INSERT Follows(1, 2)").unwrap();
//! s.handle_line("INSERT Likes(2, 3)").unwrap();
//! s.handle_line("INSERT Knows(3, 1)").unwrap();
//!
//! // every command is counted and timed, per tenant
//! let m = s.handle_line("METRICS social").unwrap();
//! assert!(m.data.iter().any(|l| l == "db.social cmd.insert.calls=3"));
//!
//! // a triangle plan is superlinear; a MAX-EXPONENT budget refuses it
//! // up front, naming the lower-bound hypothesis
//! s.handle_line("SET BUDGET social MAX-EXPONENT 1.0").unwrap();
//! let r = s
//!     .handle_line("DECIDE t() :- Follows(x, y), Likes(y, z), Knows(z, x)")
//!     .unwrap();
//! assert!(r.terminal.starts_with("ERR budget:"));
//! assert!(r.terminal.contains("Triangle Hypothesis"));
//! ```
//!
//! ## Profiling a query: `EXPLAIN ANALYZE`
//!
//! `EXPLAIN` predicts; `EXPLAIN ANALYZE` also *runs*: one reply carries
//! the plan, the measured total, a per-operator span tree (exact row
//! counts, cancellation polls, catalog hits), and the paper's
//! worst-case prediction next to the observed output size. On the same
//! span machinery, `cqd --profile N` retains the last N traces per
//! tenant for `PROFILE <db>` (pretty-printed by `cqsh`), and
//! `METRICS RATE [<db>] [<window-s>]` differences counter snapshots
//! from a history ring into per-second rates:
//!
//! ```
//! use cq_lower_bounds::server::{ServerState, Session};
//! use std::sync::Arc;
//!
//! let mut s = Session::new(Arc::new(ServerState::new()));
//! s.handle_line("CREATE DB social").unwrap();
//! s.handle_line("USE social").unwrap();
//! s.handle_line("INSERT Follows(1, 2)").unwrap();
//! s.handle_line("INSERT Follows(2, 3)").unwrap();
//!
//! let r = s
//!     .handle_line("EXPLAIN ANALYZE COUNT q(x, z) :- Follows(x, y), Follows(y, z)")
//!     .unwrap();
//! assert_eq!(r.terminal, "OK analyzed");
//! // the plan, then the measured reality next to the prediction
//! assert!(r.data.iter().any(|l| l.starts_with("PLAN for")));
//! assert!(r.data.iter().any(|l| l.starts_with("analyze: total time=")));
//! assert!(r.data.iter().any(|l| l.contains("observed 1 rows")));
//! // the span tree: per-operator wall time and exact row counts
//! assert!(r.data.iter().any(|l| l.trim_start().starts_with("execute time=")));
//! assert!(r.data.iter().any(|l| l.contains("rows=1")));
//!
//! // counter rates need two snapshots; the first call seeds the ring
//! let r = s.handle_line("METRICS RATE social").unwrap();
//! assert_eq!(r.data, vec!["rate: n/a (need 2 metric snapshots)"]);
//! ```
//!
//! ## Streaming answers: cursors, `FETCH`, `SEEK`
//!
//! `ANSWERS` streams its rows — the server pulls from the engine's
//! constant-delay enumerator and writes the wire in bounded chunks, so
//! a huge result never materializes server-side. For client-paced
//! consumption, open a *cursor*: `CURSOR ANSWERS|ACCESS <query>` pins
//! the plan (not the tenant lock — writers stay unblocked) and hands
//! back an id; `FETCH <id> <n>` pulls the next `n` rows; on a
//! direct-access plan (`CURSOR ACCESS`, Thm 3.24) `SEEK <id> <k>`
//! jumps to the k-th answer in O(1) without enumerating the skipped
//! prefix. A mutation of a relation the cursor reads invalidates it —
//! the next `FETCH` reports `ERR stale-cursor` rather than a torn mix
//! of old and new rows — while writes to other relations leave it
//! streaming:
//!
//! ```
//! use cq_lower_bounds::server::{ServerState, Session};
//! use std::sync::Arc;
//!
//! let mut s = Session::new(Arc::new(ServerState::new()));
//! s.handle_line("CREATE DB social").unwrap();
//! s.handle_line("USE social").unwrap();
//! for (a, b) in [(1, 10), (2, 10), (3, 11)] {
//!     s.handle_line(&format!("INSERT Follows({a}, {b})")).unwrap();
//! }
//!
//! // open a seekable cursor over q's answers
//! let r = s.handle_line("CURSOR ACCESS q(x, y) :- Follows(x, y)").unwrap();
//! assert_eq!(r.terminal, "OK cursor 0");
//!
//! // page through it: two rows, then the rest
//! let r = s.handle_line("FETCH 0 2").unwrap();
//! assert_eq!(r.data, vec!["1 10", "2 10"]);
//! let r = s.handle_line("FETCH 0 10").unwrap();
//! assert_eq!(r.data, vec!["3 11"]);
//! assert_eq!(r.terminal, "OK 1 rows eof");
//!
//! // rewind to the second answer in O(1) — no re-enumeration
//! s.handle_line("SEEK 0 1").unwrap();
//! let r = s.handle_line("FETCH 0 1").unwrap();
//! assert_eq!(r.data, vec!["2 10"]);
//!
//! // a write to a relation the cursor does not read changes nothing …
//! s.handle_line("INSERT Likes(10, 7)").unwrap();
//! assert!(s.handle_line("FETCH 0 1").unwrap().is_ok());
//! // … a write to one it reads invalidates it instead of tearing it
//! s.handle_line("INSERT Follows(4, 12)").unwrap();
//! let r = s.handle_line("FETCH 0 1").unwrap();
//! assert!(r.terminal.starts_with("ERR stale-cursor:"));
//! ```
//!
//! `cqsh` wraps the loop as `FETCHALL <id> [page]`, and the
//! [`server::client::Client`] library exposes `cursor` / `fetch` /
//! `seek` / `for_each_page`. See the `DESIGN.md` "Streaming" section
//! for the cursor lifecycle, staleness rules, and memory bounds.
//!
//! See `examples/` for end-to-end scenarios and `DESIGN.md` §3 for the
//! theorem → evidence map.

pub use cq_core as core;
pub use cq_data as data;
pub use cq_engine as engine;
pub use cq_matrix as matrix;
pub use cq_planner as planner;
pub use cq_problems as problems;
pub use cq_reductions as reductions;
pub use cq_server as server;
pub use cq_storage as storage;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use cq_core::classify::{
        classify, classify_direct_access_lex, classify_direct_access_sum, Profile,
        Structure, Verdict,
    };
    pub use cq_core::query::zoo;
    pub use cq_core::{parse_query, ConjunctiveQuery, Hypothesis, QueryBuilder, Var};
    pub use cq_data::{DataStats, Database, IndexCatalog, Relation, Val};
    pub use cq_engine::direct_access::{DirectAccess, LexDirectAccess};
    pub use cq_engine::{enumerate, Answers, EvalError, ExecCtx};
    pub use cq_planner::{EvalCtx, Op, Planner, QueryPlan, Source, Task};
    pub use cq_reductions::sum_order::SumOrderAccess;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn doc_example_compiles_and_runs() {
        let q = parse_query("q(x, z) :- R(x, y), S(y, z)").unwrap();
        let profile = classify(&q);
        assert!(profile.structure.acyclic && !profile.structure.free_connex);
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 10), (2, 10)]));
        db.insert("S", Relation::from_pairs(vec![(10, 7)]));
        let (n, plan) = EvalCtx::new().count(&q, &db).unwrap();
        assert_eq!(n, 2);
        // this query is acyclic but not free-connex: the planner must
        // take the materialization baseline and cite SETH
        assert_eq!(plan.op.name(), "generic join + distinct-projection count");
        assert!(matches!(plan.lower_bound, Verdict::Hard { .. }));
    }
}
