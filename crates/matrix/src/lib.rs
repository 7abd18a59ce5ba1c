//! # cq-matrix — Boolean matrix multiplication substrate
//!
//! The paper leans on matrix multiplication in three places: the
//! Alon–Yuster–Zwick triangle algorithm (Thm 3.2), the Nešetřil–Poljak
//! k-clique algorithm (Thm 4.1), and the sparse-BMM hypothesis behind the
//! enumeration lower bounds (Hypothesis 1, Thm 3.15). This crate builds
//! what those three run on, from scratch:
//!
//! * [`BitMatrix`] — dense Boolean matrices, one bit per entry;
//! * [`dense`] — naive cubic and word-parallel row-OR (n³/64) multiplies;
//! * [`sparse`] — sparse Boolean matrices with a hash SpGEMM and the
//!   **heavy/light output-sensitive algorithm** whose m^{4/3} shape is
//!   exactly what Hypothesis 1 conjectures optimal;
//! * [`omega`] — the log–log exponent fit and the AYZ degree threshold
//!   Δ = m^{(ω−1)/(ω+1)}.

pub mod bitmat;
pub mod dense;
pub mod omega;
pub mod sparse;

pub use bitmat::BitMatrix;
pub use sparse::SparseBoolMat;
