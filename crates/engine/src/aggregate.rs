//! Semiring aggregation over conjunctive queries (paper §4.1.2).
//!
//! The FAQ view of query evaluation: every database tuple carries a
//! weight from a commutative semiring; the weight of an answer is the
//! ⊗-product of its atoms' tuple weights, and the query aggregate is the
//! ⊕-sum over all answers. Over the *tropical* semiring (min, +) this is
//! the minimum-weight answer — the setting where Min-Weight-k-Clique
//! hardness transfers through clique embeddings (Example 4.3). Over the
//! counting semiring (+, ×) with unit weights it *is* answer counting:
//! Theorem 3.8's DP and the acyclic aggregation below are one loop,
//! [`crate::count`]'s sum-product fold.
//!
//! * [`aggregate_acyclic_join`] — that linear-time fold over a join
//!   tree (acyclic join queries);
//! * [`aggregate_generic`] — generic-join enumeration + fold, the
//!   baseline for cyclic queries such as the 5-cycle of Example 4.3
//!   (runtime = AGM bound; the embedding says m^{5/4} is a conditional
//!   floor, so no algorithm here can be linear).
//!
//! Like every operator both take an [`ExecCtx`] first: the join index
//! and views come out of its catalog, and its token bounds the fold.

use crate::bind::{distinct_vars, EvalError};
use crate::count::sum_product;
use crate::ctx::ExecCtx;
use crate::generic_join;
use crate::links::join_index;
use cq_core::ConjunctiveQuery;
use cq_data::{Database, Val};

/// A commutative semiring.
pub trait Semiring {
    /// Element type.
    type T: Clone + PartialEq + std::fmt::Debug;
    /// Additive identity (⊕).
    fn zero(&self) -> Self::T;
    /// Multiplicative identity (⊗).
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

/// The tropical (min, +) semiring over `i64` with `i64::MAX` as +∞.
pub struct Tropical;

impl Semiring for Tropical {
    type T = i64;
    fn zero(&self) -> i64 {
        i64::MAX
    }
    fn one(&self) -> i64 {
        0
    }
    fn add(&self, a: &i64, b: &i64) -> i64 {
        *a.min(b)
    }
    fn mul(&self, a: &i64, b: &i64) -> i64 {
        if *a == i64::MAX || *b == i64::MAX {
            i64::MAX
        } else {
            a + b
        }
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
    fn one(&self) -> bool {
        true
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

/// Linear-time aggregation for acyclic join queries: the counting DP of
/// Theorem 3.8 at any semiring. `weight(atom_index, bound_row)` weighs a
/// tuple, where `bound_row` is over the atom's *distinct* variables in
/// bound order — for an atom without repeated variables, the stored
/// relation's rows, read in place. The join index is memoized in the
/// catalog: repeated aggregations pay for the fold only.
pub fn aggregate_acyclic_join<S: Semiring>(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    weight: impl Fn(usize, &[Val]) -> S::T,
    sr: &S,
) -> Result<S::T, EvalError> {
    if !q.is_join_query() {
        return Err(EvalError::NotJoinQuery);
    }
    fold_body(ctx, q, db, weight, sr).map(|(total, _)| total)
}

/// The sum-product fold over the memoized join index of `q`'s body —
/// whatever the head: the aggregate and the fold's `steps`.
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

/// Aggregation by generic-join enumeration — works for every join query
/// (including cyclic ones); runtime bounded by the AGM bound. Weights as
/// in [`aggregate_acyclic_join`].
pub fn aggregate_generic<S: Semiring>(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    weight: impl Fn(usize, &[Val]) -> S::T,
    sr: &S,
) -> Result<S::T, EvalError> {
    if !q.is_join_query() {
        return Err(EvalError::NotJoinQuery);
    }
    let order = generic_join::default_order(q);
    // per atom: projection of the global assignment onto its distinct
    // vars (the interning order puts `Var(i)` at position `i`)
    let projections: Vec<Vec<usize>> = q
        .atoms()
        .iter()
        .map(|a| distinct_vars(&a.vars).iter().map(|v| v.index()).collect())
        .collect();
    let mut total = sr.zero();
    let mut rowbuf: Vec<Val> = Vec::new();
    generic_join::visit(ctx, q, db, &order, &mut |assignment| {
        let mut w = sr.one();
        for (ai, proj) in projections.iter().enumerate() {
            rowbuf.clear();
            rowbuf.extend(proj.iter().map(|&p| assignment[p]));
            w = sr.mul(&w, &weight(ai, &rowbuf));
        }
        total = sr.add(&total, &w);
        true
    })?;
    sr.finish(total)
}

/// Convenience: minimum total answer weight where each *domain value*
/// carries a weight and an answer weighs the sum over its atom tuples of
/// their entry weights — the exact setting of §4.1.2 for edge-weighted
/// reductions (each atom tuple's weight = the edge weight it encodes).
pub fn min_weight_answer(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    weight: impl Fn(usize, &[Val]) -> i64,
) -> Result<Option<i64>, EvalError> {
    let w = aggregate_generic(ctx, q, db, weight, &Tropical)?;
    Ok((w != i64::MAX).then_some(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, seeded_rng, triangle_database};

    fn cold() -> ExecCtx<'static> {
        ExecCtx::cold()
    }

    #[test]
    fn counting_semiring_recovers_counts() {
        let db = path_database(3, 60, &mut seeded_rng(1));
        let q = zoo::path_join(3);
        let ones = |_: usize, _: &[Val]| 1u128;
        let agg =
            aggregate_acyclic_join(&cold(), &q, &db, ones, &CountingSemiring).unwrap();
        let n = crate::count::count_acyclic_join(&cold(), &q, &db).unwrap();
        assert_eq!(agg, u128::from(n));
        let agg2 = aggregate_generic(&cold(), &q, &db, ones, &CountingSemiring).unwrap();
        assert_eq!(agg2, agg);
    }

    #[test]
    fn tropical_matches_brute_force_on_path() {
        let db = path_database(2, 40, &mut seeded_rng(2));
        let q = zoo::path_join(2);
        // weight of a tuple = sum of its values (deterministic)
        let wf = |_: usize, row: &[Val]| row.iter().map(|&v| v as i64).sum::<i64>();
        let got = aggregate_acyclic_join(&cold(), &q, &db, wf, &Tropical).unwrap();
        // brute force
        let answers = crate::bind::brute_force_answers(&q, &db).unwrap();
        let mut best = i64::MAX;
        for row in answers.iter() {
            // x0,x1,x2: atoms R1(x0,x1), R2(x1,x2)
            let w = (row[0] + row[1]) as i64 + (row[1] + row[2]) as i64;
            best = best.min(w);
        }
        assert_eq!(got, best);
        assert_eq!(aggregate_generic(&cold(), &q, &db, wf, &Tropical).unwrap(), got);
    }

    #[test]
    fn tropical_empty_result_is_infinity() {
        let mut db = Database::new();
        db.insert("R1", cq_data::Relation::new(2));
        db.insert("R2", cq_data::Relation::new(2));
        let q = zoo::path_join(2);
        let wf = |_: usize, _: &[Val]| 0i64;
        assert_eq!(
            aggregate_acyclic_join(&cold(), &q, &db, wf, &Tropical).unwrap(),
            i64::MAX
        );
        assert_eq!(min_weight_answer(&cold(), &q, &db, wf).unwrap(), None);
    }

    #[test]
    fn generic_handles_cyclic_triangle() {
        let edges = cq_data::Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)]);
        let db = triangle_database(&edges);
        let q = zoo::triangle_join();
        let wf = |_: usize, _: &[Val]| 1i64; // each atom contributes 1
        let min = min_weight_answer(&cold(), &q, &db, wf).unwrap();
        assert_eq!(min, Some(3)); // 3 atoms × weight 1
                                  // cyclic query rejected by the acyclic DP
        assert!(matches!(
            aggregate_acyclic_join(&cold(), &q, &db, wf, &Tropical),
            Err(EvalError::NotAcyclic)
        ));
    }

    #[test]
    fn star_aggregation() {
        let q = parse_query("q(x1, x2, z) :- R1(x1, z), R2(x2, z)").unwrap();
        let mut db = Database::new();
        db.insert("R1", cq_data::Relation::from_pairs(vec![(1, 0), (5, 0)]));
        db.insert("R2", cq_data::Relation::from_pairs(vec![(2, 0), (7, 0)]));
        let wf = |_: usize, row: &[Val]| row[0] as i64; // weight = leaf value
        let got = aggregate_acyclic_join(&cold(), &q, &db, wf, &Tropical).unwrap();
        assert_eq!(got, 3); // 1 + 2
    }

    #[test]
    fn atom_index_passed_correctly() {
        let q = zoo::path_join(2);
        let db = path_database(2, 20, &mut seeded_rng(3));
        // weight only atom 1's tuples
        let wf = |ai: usize, _: &[Val]| if ai == 1 { 1i64 } else { 0 };
        let got = aggregate_acyclic_join(&cold(), &q, &db, wf, &Tropical).unwrap();
        if got != i64::MAX {
            assert_eq!(got, 1);
        }
    }
}
