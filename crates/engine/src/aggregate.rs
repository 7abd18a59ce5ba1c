//! The two semirings of the one sum-product fold (paper §4.1.2).
//!
//! The FAQ view of query evaluation: every database tuple carries a
//! weight from a commutative semiring; the weight of an answer is the
//! ⊗-product of its atoms' tuple weights, and the query aggregate is the
//! ⊕-sum over all answers. The engine weighs every tuple
//! [`one`](Semiring::one), so the aggregate is a function of the join
//! alone: the Boolean semiring (∨, ∧) makes it `DECIDE` (Thm 3.1) and
//! the counting semiring (+, ×) makes it `COUNT` (Thm 3.8). One loop,
//! [`crate::count`]'s sum-product fold, computes both from the join-tree
//! links alone — never reading a row — a block of rows at a time: per
//! block it gathers the first child's messages through that child's
//! links, ⊗-multiplies each further child's in a pass of its own, and
//! ⊕-adds the block's products into the node's groups. It runs at the
//! Boolean semiring over the subtrees projection elimination reduces —
//! which is `DECIDE` — and at the counting one over `q'`; keeping its
//! per-row products, it is every semijoin (Boolean) and the
//! direct-access weights (counting). The tropical (min, +) aggregate of
//! Example 4.3 weighs tuples by their values; it is a reduction's
//! concern and lives beside it, in `cq-reductions`.

use crate::bind::EvalError;

/// A commutative semiring.
pub trait Semiring {
    /// Element type: plain data, so the fold keeps a block of them on
    /// the stack.
    type T: Copy + PartialEq + std::fmt::Debug;
    /// Additive identity (⊕).
    fn zero(&self) -> Self::T;
    /// Multiplicative identity (⊗): the weight of every tuple.
    fn one(&self) -> Self::T;
    /// ⊕.
    fn add(&self, a: &Self::T, b: &Self::T) -> Self::T;
    /// ⊗. The zero annihilates: `mul(zero, x) = zero`.
    fn mul(&self, a: &Self::T, b: &Self::T) -> Self::T;
    /// Is `a ⊕ x = a` for every `x`? A fold whose running sum is
    /// absorbing may stop early. No element is, by default.
    fn is_absorbing(&self, _a: &Self::T) -> bool {
        false
    }
    /// Vet a finished aggregate before it is reported. Every total is
    /// reportable by default.
    fn finish(&self, total: Self::T) -> Result<Self::T, EvalError> {
        Ok(total)
    }
}

/// The Boolean semiring ({false, true}, ∨, ∧), the one `DECIDE` and
/// every semijoin run at (Thm 3.1 as a sum-product): `true` is
/// absorbing, so a decision stops at the first root row that joins all
/// the way down — a semijoin, which keeps the root's rows, does not.
/// ⊕ and ⊗ are the branch-free `|` and `&`, which the fold's block
/// passes vectorize.
pub struct BooleanSemiring;

impl Semiring for BooleanSemiring {
    type T = bool;
    fn zero(&self) -> bool {
        false
    }
    fn one(&self) -> bool {
        true
    }
    fn add(&self, a: &bool, b: &bool) -> bool {
        *a | *b
    }
    fn mul(&self, a: &bool, b: &bool) -> bool {
        *a & *b
    }
    fn is_absorbing(&self, a: &bool) -> bool {
        *a
    }
}

/// The counting semiring (ℕ, +, ×), the one `COUNT` and the
/// direct-access weights run at: u128,
/// saturating, and a total that does not fit the `u64` every counting
/// surface reports — saturated or not — is [`EvalError::CountOverflow`].
pub struct CountingSemiring;

impl Semiring for CountingSemiring {
    type T = u128;
    fn zero(&self) -> u128 {
        0
    }
    fn one(&self) -> u128 {
        1
    }
    fn add(&self, a: &u128, b: &u128) -> u128 {
        a.saturating_add(*b)
    }
    fn mul(&self, a: &u128, b: &u128) -> u128 {
        // counts that fit u64 (nearly all) multiply in one widening
        // instruction, which cannot overflow
        match (u64::try_from(*a), u64::try_from(*b)) {
            (Ok(a), Ok(b)) => u128::from(a) * u128::from(b),
            _ => a.saturating_mul(*b),
        }
    }
    fn finish(&self, total: u128) -> Result<u128, EvalError> {
        u64::try_from(total).map(u128::from).map_err(|_| EvalError::CountOverflow)
    }
}

#[cfg(test)]
mod tests {
    use crate::bind::brute_force_count;
    use crate::count::count_free_connex;
    use crate::ExecCtx;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, seeded_rng};

    #[test]
    fn counting_semiring_recovers_counts() {
        let db = path_database(3, 60, &mut seeded_rng(1));
        let q = zoo::path_join(3);
        let n = brute_force_count(&q, &db).unwrap();
        assert_eq!(count_free_connex(&ExecCtx::cold(), &q, &db), Ok(n));
    }
}
