//! # cq-engine — conjunctive query evaluation algorithms
//!
//! The upper-bound half of the reproduction: every operator the planner
//! dispatches to, matched one-to-one to its theorem.
//!
//! | Task | Algorithm | Paper | Entry point |
//! |---|---|---|---|
//! | Boolean decision (acyclic) | Yannakakis' upward sweep: the fold over the join-tree links at the Boolean semiring | Thm 3.1 | [`yannakakis::decide_acyclic`] |
//! | Boolean decision (cyclic) | worst-case optimal generic join | §2.1 / Ex 3.4 | [`generic_join::decide`] |
//! | Counting (acyclic join) | the fold over the links at the counting semiring | Thm 3.8 | [`count::count_acyclic_join`] |
//! | Counting (free-connex) | the same DP over `q'`, the acyclic join over the free variables that projection elimination leaves: per subtree of the virtual free edge, the upward semijoin pass of the full reduction, projected onto the subtree's key | Thm 3.13 | [`count::count_free_connex`] |
//! | Counting / answers (hard side) | generic join + projection | Lem 3.9 | [`generic_join::count_distinct`], [`generic_join::answers`] |
//! | Enumeration | the constant-delay in-order walk of the reduced tree, each move into a child two array reads | Thm 3.17 | [`Enumerator::preprocess`] |
//! | Direct access, lex order | the reduced tree as rows + links: nodes sorted by parent key, then ⪯, each parent row linked to the child group it joins; mixed radix over lazy subtree weights | Thm 3.24 | [`LexDirectAccess::build`] |
//! | Direct access, free-connex + projections | that tree over `q'` in its DFS order | Thm 3.18 | [`FreeConnexDirectAccess::build`] |
//! | Direct access (hard side) | materialize + sort | Lem 3.9 / 3.23 | [`MaterializedDirectAccess::build`] |
//! | Triangle query (no plan yet: reserved for a degree-split operator) | AYZ degree split + BMM | Thm 3.2 | [`triangle_query::decide_triangle_ayz`] |
//!
//! The crate exports nothing else but their plumbing ([`ExecCtx`],
//! [`CancelToken`], [`AnswerStream`]s) and the brute-force oracles of
//! [`mod@bind`]. The join-tree links, the full reduction and projection
//! elimination behind them are crate-private. The algorithms that only
//! witness a lower-bound reduction — sum-order direct access (Thm 3.26),
//! the star tester and testing via direct access (Lem 3.20/3.21), the
//! tropical aggregate of Ex 4.3 — live beside their reductions in
//! `cq-reductions`.
//!
//! Each entry point is the *only* way to run its algorithm, and takes an
//! [`ExecCtx`] first: the [`cq_data::IndexCatalog`] its indexes and
//! preprocessing products are memoized in and the [`CancelToken`] its
//! loops poll. One-shot evaluation is [`ExecCtx::cold`] — a throwaway
//! catalog under the same code, not a second implementation.
//!
//! All algorithms are validated against the brute-force oracle in
//! [`mod@bind`] and against each other. Cross-algorithm *dispatch* — picking
//! the dichotomy-optimal algorithm for a query, and the generic-join
//! variable order — lives one layer up, in `cq-planner`: this crate
//! stays policy-free.

mod aggregate;
pub mod bind;
pub mod cancel;
pub mod count;
pub mod ctx;
pub mod direct_access;
pub mod enumerate;
pub mod fc_direct_access;
pub mod generic_join;
mod links;
pub mod stream;
pub mod triangle_query;
pub mod yannakakis;

pub use bind::EvalError;
pub use cancel::CancelToken;
pub use ctx::ExecCtx;
pub use direct_access::{DirectAccess, LexDirectAccess, MaterializedDirectAccess};
pub use enumerate::{Enumerator, EnumeratorStream};
pub use fc_direct_access::FreeConnexDirectAccess;
pub use stream::{AnswerStream, DirectAccessStream, RelationStream};
