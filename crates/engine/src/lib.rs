//! # cq-engine — conjunctive query evaluation algorithms
//!
//! The upper-bound half of the reproduction: every algorithm the paper's
//! dichotomies credit appears here, matched one-to-one to its theorem.
//!
//! | Task | Algorithm | Paper | Entry point |
//! |---|---|---|---|
//! | Join-tree links | per tree edge, each row's key group and its link into the child, memoized per query body | — | [`links::join_index`] |
//! | Boolean decision | Yannakakis' upward sweep: the fold over the links at the Boolean semiring | Thm 3.1 | [`yannakakis::decide_acyclic`] |
//! | Full reduction | two Boolean passes over the links, one filter per node | Thm 3.1 | [`yannakakis::full_reduce`] |
//! | Boolean decision (cyclic) | worst-case optimal generic join | §2.1 / Ex 3.4 | [`generic_join::decide`] |
//! | Triangle query | AYZ degree split + BMM | Thm 3.2 | [`triangle_query::decide_triangle_ayz`] |
//! | Counting (acyclic join) | the fold over the links at the counting semiring | Thm 3.8 | [`count::count_acyclic_join`] |
//! | Projection elimination | `q'`: an acyclic join over the free variables, memoized per subtree | [14, §4.1] | [`count::free_join`] |
//! | Counting (free-connex) | the DP over `q'` | Thm 3.13 | [`count::count_free_connex`] |
//! | Counting / answers (hard side) | generic join + projection | Lem 3.9 | [`generic_join::count_distinct`], [`generic_join::answers`] |
//! | Direct access, lex order | the reduced tree as rows + links: nodes sorted by parent key, then ⪯, each parent row linked to the child group it joins; mixed radix over lazy subtree weights | Thm 3.24 | [`LexDirectAccess::build`] |
//! | Direct access, free-connex + projections | that tree over `q'` in its DFS order | Thm 3.18 | [`FreeConnexDirectAccess::build`] |
//! | Enumeration | the constant-delay in-order walk of the same tree, each move into a child two array reads | Thm 3.17 | [`Enumerator::preprocess`] |
//! | Direct access (hard side) | materialize + sort | Lem 3.9 / 3.23 | [`MaterializedDirectAccess::build`] |
//! | Direct access, sum order | covering-atom sort | Thm 3.26 | [`SumOrderAccess::build_covering_atom`] |
//! | Testing | star tester, testing-via-DA | Lem 3.20/3.21 | [`testing`], [`direct_access::test_prefix`] |
//! | Semiring aggregation | the counting DP at any semiring / generic fold | §4.1.2, Ex 4.3 | [`aggregate`] |
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

pub mod aggregate;
pub mod bind;
pub mod cancel;
pub mod count;
pub mod ctx;
pub mod direct_access;
pub mod enumerate;
pub mod fc_direct_access;
pub mod generic_join;
pub mod links;
pub mod stream;
pub mod sum_order;
pub mod testing;
pub mod triangle_query;
pub mod yannakakis;

pub use bind::{bind, BoundAtom, EvalError};
pub use cancel::CancelToken;
pub use ctx::ExecCtx;
pub use direct_access::{DirectAccess, LexDirectAccess, MaterializedDirectAccess};
pub use enumerate::{Enumerator, EnumeratorStream};
pub use fc_direct_access::FreeConnexDirectAccess;
pub use stream::{AnswerStream, DirectAccessStream, RelationStream};
pub use sum_order::SumOrderAccess;
