//! The sum-product fold at the two semirings the planner runs (paper
//! §4.1.2).
//!
//! The FAQ view of query evaluation: every database tuple carries a
//! weight from a commutative semiring; the weight of an answer is the
//! ⊗-product of its atoms' tuple weights, and the query aggregate is the
//! ⊕-sum over all answers. With unit weights, the Boolean semiring
//! (∨, ∧) makes the aggregate `DECIDE` (Thm 3.1) and the counting
//! semiring (+, ×) makes it `COUNT` (Thm 3.8): one loop,
//! [`crate::count`]'s sum-product fold over the memoized join index,
//! which [`fold_body`] runs under an [`ExecCtx`]. The tropical (min, +)
//! aggregate of Example 4.3 is a reduction's concern and lives beside
//! it, in `cq-reductions`.

use crate::bind::EvalError;
use crate::count::sum_product;
use crate::ctx::ExecCtx;
use crate::links::join_index;
use cq_core::ConjunctiveQuery;
use cq_data::{Database, Val};

/// A commutative semiring.
pub trait Semiring {
    /// Element type.
    type T: Clone + PartialEq + std::fmt::Debug;
    /// Additive identity (⊕).
    fn zero(&self) -> Self::T;
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

/// The Boolean semiring ({false, true}, ∨, ∧), the one `DECIDE` runs at
/// (Thm 3.1 as a sum-product): `true` is absorbing, so the fold stops at
/// the first root row that joins all the way down.
pub struct BooleanSemiring;

impl Semiring for BooleanSemiring {
    type T = bool;
    fn zero(&self) -> bool {
        false
    }
    fn add(&self, a: &bool, b: &bool) -> bool {
        *a || *b
    }
    fn mul(&self, a: &bool, b: &bool) -> bool {
        *a && *b
    }
    fn is_absorbing(&self, a: &bool) -> bool {
        *a
    }
}

/// The counting semiring (ℕ, +, ×), the one `COUNT` runs at: u128,
/// saturating, and a total that does not fit the `u64` every counting
/// surface reports — saturated or not — is [`EvalError::CountOverflow`].
pub struct CountingSemiring;

impl Semiring for CountingSemiring {
    type T = u128;
    fn zero(&self) -> u128 {
        0
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

/// The sum-product fold over the memoized join index of `q`'s body —
/// whatever the head: the aggregate and the fold's `steps`.
/// `weight(atom_index, bound_row)` weighs a tuple, where `bound_row` is
/// over the atom's *distinct* variables in bound order — for an atom
/// without repeated variables, the stored relation's rows, read in place.
pub(crate) fn fold_body<S: Semiring>(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    weight: impl Fn(usize, &[Val]) -> S::T,
    sr: &S,
) -> Result<(S::T, u64), EvalError> {
    let index = join_index(ctx, q, db)?;
    sum_product(ctx, &index.rels(q, db), index.links(), sr, weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::brute_force_count;
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, seeded_rng};

    fn count_fold(
        q: &ConjunctiveQuery,
        db: &Database,
        weight: impl Fn(usize, &[Val]) -> u128,
    ) -> u128 {
        fold_body(&ExecCtx::cold(), q, db, weight, &CountingSemiring).unwrap().0
    }

    #[test]
    fn counting_semiring_recovers_counts() {
        let db = path_database(3, 60, &mut seeded_rng(1));
        let q = zoo::path_join(3);
        let n = brute_force_count(&q, &db).unwrap();
        assert_eq!(count_fold(&q, &db, |_, _| 1), u128::from(n));
    }

    #[test]
    fn star_aggregation() {
        let q = parse_query("q(x1, x2, z) :- R1(x1, z), R2(x2, z)").unwrap();
        let mut db = Database::new();
        db.insert("R1", cq_data::Relation::from_pairs(vec![(1, 0), (5, 0)]));
        db.insert("R2", cq_data::Relation::from_pairs(vec![(2, 0), (7, 0)]));
        // weight = leaf value: Σ over answers of x1 · x2 = (1 + 5)(2 + 7)
        let got = count_fold(&q, &db, |_, row| u128::from(row[0]));
        assert_eq!(got, 54);
    }

    #[test]
    fn atom_index_passed_correctly() {
        let q = zoo::path_join(2);
        let db = path_database(2, 20, &mut seeded_rng(3));
        // only atom 1's tuples weigh 2: every answer counts twice
        let got = count_fold(&q, &db, |ai, _| if ai == 1 { 2 } else { 1 });
        assert_eq!(got, 2 * u128::from(brute_force_count(&q, &db).unwrap()));
    }
}
