//! Theorem 3.15: sparse Boolean matrix multiplication reduces to
//! enumerating `q̄*_2(x1,x2) :- R1(x1,z), R2(x2,z)`.
//!
//! Set `R1 := A` and `R2 := Bᵀ`; then `q̄*_2(D)` is exactly the non-zero
//! set of the Boolean product `AB`. A constant-delay algorithm after
//! linear preprocessing for `q̄*_2` would therefore multiply sparse
//! matrices in time Õ(m) — refuting Hypothesis 1. Executably: we compute
//! products through the query's *materialization* algorithm (the best
//! available, since `q̄*_2` is not free-connex) and validate against the
//! direct SpGEMM.

use cq_core::query::zoo;
use cq_core::ConjunctiveQuery;
use cq_data::{Database, Relation, Val};
use cq_engine::{generic_join, ExecCtx};
use cq_matrix::SparseBoolMat;

/// Build the Theorem 3.15 database for two sparse matrices.
pub fn build(a: &SparseBoolMat, b: &SparseBoolMat) -> (ConjunctiveQuery, Database) {
    assert_eq!(a.n_cols(), b.n_rows(), "dimension mismatch");
    let r1 =
        Relation::from_pairs(a.entries().into_iter().map(|(i, k)| (i as Val, k as Val)));
    let r2 = Relation::from_pairs(
        b.entries().into_iter().map(|(k, j)| (j as Val, k as Val)), // transpose
    );
    let q = zoo::star_selfjoin_free(2);
    let mut db = Database::new();
    db.insert("R1", r1);
    db.insert("R2", r2);
    (q, db)
}

/// Multiply two sparse Boolean matrices by *evaluating the query*: the
/// answers of `q̄*_2` are the product's non-zeros.
pub fn multiply_via_query(a: &SparseBoolMat, b: &SparseBoolMat) -> SparseBoolMat {
    let (q, db) = build(a, b);
    let answers = generic_join::answers(
        &ExecCtx::cold(),
        &q,
        &db,
        &generic_join::default_order(&q),
    )
    .expect("instance must bind");
    SparseBoolMat::from_entries(
        a.n_rows(),
        b.n_cols(),
        answers.iter().map(|row| (row[0] as u32, row[1] as u32)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_data::generate::seeded_rng;
    use cq_matrix::sparse::spgemm;
    use rand::Rng;

    fn random_sparse(n: usize, m: usize, seed: u64) -> SparseBoolMat {
        let mut rng = seeded_rng(seed);
        SparseBoolMat::from_entries(
            n,
            n,
            (0..m).map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32))),
        )
    }

    #[test]
    fn product_matches_spgemm() {
        for seed in 0..6u64 {
            let a = random_sparse(30, 120, seed);
            let b = random_sparse(30, 120, seed + 50);
            assert_eq!(multiply_via_query(&a, &b), spgemm(&a, &b), "seed={seed}");
        }
    }

    #[test]
    fn rectangular_product() {
        let a = SparseBoolMat::from_entries(2, 3, [(0u32, 1u32), (1, 2)]);
        let b = SparseBoolMat::from_entries(3, 4, [(1u32, 3u32), (2, 0)]);
        let c = multiply_via_query(&a, &b);
        assert_eq!(c.entries(), vec![(0, 3), (1, 0)]);
    }

    #[test]
    fn zero_product() {
        let a = SparseBoolMat::from_entries(5, 5, [(0u32, 0u32)]);
        let b = SparseBoolMat::from_entries(5, 5, [(1u32, 1u32)]);
        assert_eq!(multiply_via_query(&a, &b).nnz(), 0);
    }

    #[test]
    fn database_size_is_input_nnz() {
        let a = random_sparse(20, 80, 9);
        let b = random_sparse(20, 70, 10);
        let (_, db) = build(&a, &b);
        assert_eq!(db.size(), a.nnz() + b.nnz());
    }

    #[test]
    fn query_is_not_free_connex() {
        // the reduction's point: q̄*_2 sits on the hard side
        let q = zoo::star_selfjoin_free(2);
        assert!(!cq_core::free_connex::is_free_connex(&q));
    }
}
