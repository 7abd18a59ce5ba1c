//! # cq-planner — plan IR, cost-aware planning, and execution
//!
//! The paper's dichotomies say *which algorithm is optimal for which
//! query structure*; `cq_core::classify` decides them, and this crate
//! turns the verdict into an explicit, inspectable pipeline:
//!
//! ```text
//!   parse ──► structure ──────► verdict ─────► plan ────────► execute
//!   (cq-core)  (Structure,       (cq-core, one   (operator +    (cq-engine
//!               per statement)    per task)       order, cost)   algorithms)
//! ```
//!
//! * [`ir`] — the plan intermediate representation: [`QueryPlan`] over
//!   a physical operator [`Op`], a [`Source`] — the reduced tree `q'` or
//!   generic join — and the task it answers, each pair backed by one
//!   `cq-engine` algorithm, annotated with its cost estimate and the
//!   dichotomy's [`Verdict`] for the query and task.
//! * [`planner`] — [`choose`]: maps the verdict over a query's
//!   [`Structure`](cq_core::classify::Structure) to the operator
//!   implementing its side, and adds what the data statistics
//!   ([`cq_data::DataStats`]) decide — the generic-join order and the
//!   cost, nothing a plan's answers depend on, so a plan is correct on
//!   any database. [`Planner`] computes the structure and calls it; a
//!   caller that plans one query again keeps the structure and calls
//!   [`choose`] alone.
//! * [`mod@execute`] — the executor: one arm per source, one task end
//!   per arm, and a Boolean query's decision widened to the task asked.
//! * [`explain`] — EXPLAIN rendering with theorem citations and the
//!   hypothesis ruling out anything faster.
//! * [`ctx`] — [`EvalCtx`], the one way to evaluate: plan and run a
//!   task (`decide` / `count` / `answers`), or run a plan already made
//!   (`execute`). It runs cold, on a throwaway catalog, unless its
//!   caller hands it an [`IndexCatalog`](cq_data::IndexCatalog) to run
//!   warm on. [`EvalBudget`] holds the caps a caller admits a plan
//!   against.
//!
//! ## Example
//!
//! ```
//! use cq_planner::{explain, EvalCtx};
//! use cq_core::query::zoo;
//! use cq_data::{Database, Relation};
//!
//! let q = zoo::triangle_boolean();
//! let mut db = Database::new();
//! for r in ["R1", "R2", "R3"] {
//!     db.insert(r, Relation::from_pairs(vec![(1, 2), (2, 3)]));
//! }
//! let (nonempty, plan) = EvalCtx::new().decide(&q, &db).unwrap();
//! assert!(!nonempty);
//! // the plan knows what ran and why nothing faster exists:
//! let text = explain::render(&plan, &q);
//! assert!(text.contains("generic join"));
//! ```

pub mod ctx;
pub mod execute;
pub mod explain;
pub mod ir;
pub mod planner;

pub use ctx::{EvalBudget, EvalCtx};
pub use execute::Output;
pub use ir::{CostEstimate, Op, QueryPlan, Source, Task, Verdict};
pub use planner::{choose, Planner};
