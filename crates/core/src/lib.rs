//! # cq-core — structure theory for conjunctive queries
//!
//! This crate holds the *query-side* half of the reproduction of
//! S. Mengel, “Lower Bounds for Conjunctive Query Evaluation” (PODS 2025):
//! the conjunctive-query intermediate representation, the hypergraph
//! structure theory the paper's dichotomies are phrased in, and the
//! dichotomies themselves, stated once: [`classify::verdict`] maps a
//! (query, task) pair to its side, citing the hypothesis each
//! conditional lower bound rests on and exhibiting the witnessing
//! substructure — [`classify`](classify::classify) prints it for all
//! four tasks, `cq-planner` maps it to an operator.
//!
//! The main types are:
//!
//! * [`ConjunctiveQuery`] — queries `q(X) :- R1(X1), ..., Rl(Xl)`,
//!   buildable programmatically ([`QueryBuilder`]) or parsed from text
//!   ([`parse_query`]).
//! * [`Hypergraph`] — the query hypergraph, with GYO reduction
//!   ([`gyo`]), join trees ([`JoinTree`]), acyclicity and
//!   free-connexness tests.
//! * [`brault_baron::find_witness`] — Theorem 3.6 witnesses: every cyclic
//!   hypergraph contains an induced cycle or a near-uniform hyperclique
//!   (a search bounded in work, whatever the query's size).
//! * [`disruptive_trio::find_disruptive_trio`] — §3.4.1, hardness of
//!   lexicographic direct access.
//! * [`star_size::quantified_star_size`] — §4.4, the counting exponent.
//! * [`embedding::CliqueEmbedding`] — §4.2 clique embeddings, including
//!   the 5-clique-into-5-cycle embedding of Example 4.2 / Figure 1.
//! * [`classify::Structure`] and [`classify::verdict`] — what the
//!   theorems read off a query shape, and the verdict per task;
//!   [`classify::classify`] — the per-task complexity profile.
//!
//! Everything here is *data independent*: no relation instances appear.
//! The evaluation algorithms matching the upper bounds live in
//! `cq-engine`; the executable reductions matching the lower bounds live
//! in `cq-reductions`.

pub mod agm;
pub mod brault_baron;
pub mod classify;
pub mod cover;
pub mod disruptive_trio;
pub mod embedding;
pub mod free_connex;
pub mod gyo;
pub mod hypergraph;
pub mod hypotheses;
pub mod join_tree;
pub mod parser;
pub mod query;
pub mod star_size;

pub use embedding::CliqueEmbedding;
pub use hypergraph::Hypergraph;
pub use hypotheses::Hypothesis;
pub use join_tree::JoinTree;
pub use parser::{parse_query, ParseError};
pub use query::{Atom, ConjunctiveQuery, QueryBuilder, QueryError, Var};
