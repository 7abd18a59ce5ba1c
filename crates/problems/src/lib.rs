//! # cq-problems — the fine-grained problem zoo
//!
//! Implementations of every problem the paper's hypotheses speak about,
//! each with its best known (practical) algorithm *and* the baseline the
//! hypothesis says cannot be beaten asymptotically:
//!
//! | Problem | Hypothesis | Module |
//! |---|---|---|
//! | Triangle detection | Hyp 2 | [`triangle`] (edge-iterator, BMM, AYZ degree split) |
//! | k-Clique | Hyp 6–8 | [`clique`] (backtracking, Nešetřil–Poljak via triangles) |
//! | (k,h)-Hyperclique | Hyp 3 | [`hyperclique`] |
//! | 3SUM | Hyp 5 | [`three_sum`] (n³, sort+two-pointer n²) |
//! | k-Dominating Set | via SETH (Thm 3.10) | [`dominating_set`] |
//! | k-SAT | Hyp 4 (SETH) | [`sat`] (DPLL with unit propagation) |
//! | Max-k-SAT | context for Hyp 3 (§3.1.2) | [`max_sat`] (2ⁿ enumeration, branch & bound) |
//! | Min-Weight / Zero k-Clique | Hyp 7/8 | [`weighted_clique`] |
//!
//! The executable reductions from these problems into query evaluation
//! live in `cq-reductions`; this crate is query-free.

pub mod clique;
pub mod dominating_set;
pub mod graph;
pub mod hyperclique;
pub mod max_sat;
pub mod sat;
pub mod three_sum;
pub mod triangle;
pub mod weighted_clique;

pub use graph::Graph;
pub use hyperclique::UniformHypergraph;
pub use sat::Cnf;
pub use weighted_clique::WeightedGraph;
