//! # cq-reductions — the paper's lower-bound reductions, executable
//!
//! Every reduction in Mengel (PODS 2025) is implemented as a function
//! that really builds the instance and really runs the target algorithm,
//! so each one is (a) testable for correctness against the source
//! problem's reference solver and (b) benchmarkable for the size/cost
//! accounting the proof claims.
//!
//! | Module | Paper | Reduction |
//! |---|---|---|
//! | [`triangle_to_query`] | Prop 3.3 | triangle finding → any cyclic arity-2 Boolean CQ |
//! | [`hyperclique_to_lw`] | Thm 3.5 | (k−1)-uniform k-hyperclique → Loomis–Whitney q^LW_k |
//! | [`kds_to_star`] | Lemma 3.9 | k′-Dominating-Set → counting q*_k |
//! | [`sat_to_kds`] | Thm 3.10 | CNF-SAT → k-Dominating-Set (Pătraşcu–Williams) |
//! | [`bmm_to_star_enum`] | Thm 3.15 | sparse Boolean MM → enumerating q̄*_2 |
//! | [`triangle_to_testing`] | Lemma 3.21 / 3.23 | triangle → testing q*_2 / direct access for q̂*_2 |
//! | [`three_sum_to_sum_da`] | Lemma 3.25 | 3SUM → sum-order direct access |
//! | [`clique_to_triangle`] | Thm 4.1 | k-clique → triangle (Nešetřil–Poljak), with size accounting |
//! | [`clique_embedding_db`] | §4.2 / Ex 4.3 | K_ℓ-embeddings → databases; min-weight clique via cycle aggregation |
//! | [`selfjoin_interpolation`] | Thm 3.8 remark | self-join counting ↔ self-join-free counting via inclusion–exclusion |

pub mod bmm_to_star_enum;
pub mod clique_embedding_db;
pub mod clique_to_triangle;
pub mod hyperclique_to_lw;
pub mod kds_to_star;
pub mod sat_to_kds;
pub mod selfjoin_interpolation;
pub mod three_sum_to_sum_da;
pub mod triangle_to_query;
pub mod triangle_to_testing;

/// Decide a reduction's freshly constructed instance by the worst-case
/// optimal join, one-shot: the database was built for this one
/// evaluation, so there is nothing to keep warm or to cancel.
fn decide_by_generic_join(q: &cq_core::ConjunctiveQuery, db: &cq_data::Database) -> bool {
    use cq_engine::{generic_join, ExecCtx};
    let q = q.boolean_version();
    generic_join::decide(&ExecCtx::cold(), &q, db, &generic_join::default_order(&q))
        .expect("a constructed database binds its own query")
}
