//! Direct access in sum orders (paper §3.4.2, Theorem 3.26).
//!
//! Every domain value carries a weight; a tuple's weight is the sum of
//! its entries' weights, and the simulated array is sorted by tuple
//! weight. Theorem 3.26: for self-join-free acyclic join queries,
//! Õ(m) preprocessing is possible **iff one atom contains every
//! variable** — then the (reduced) covering atom *is* the result, and
//! sorting it by weight suffices. For every other query, Lemma 3.25
//! embeds 3SUM, and the only general algorithm is materialization
//! ([`SumOrderAccess::build_materialized`], Θ(|q(D)|) preprocessing —
//! the superlinear shape the hypothesis says is unavoidable).

use crate::bind::{bind, EvalError};
use crate::cancel::CancelToken;
use crate::ctx::ExecCtx;
use crate::direct_access::DirectAccess;
use crate::generic_join;
use crate::links::keep_linked;
use crate::yannakakis::shared_cols_of;
use cq_core::{ConjunctiveQuery, Var};
use cq_data::{Database, Relation, Val};

/// Direct access by ascending tuple weight (ties broken by value for
/// determinism). Answers are full assignments in variable interning
/// order.
pub struct SumOrderAccess {
    /// (weight, assignment) sorted ascending.
    rows: Vec<(i64, Vec<Val>)>,
}

/// The weight-independent preprocessing of the covering-atom algorithm:
/// the covering atom semijoined by every other atom, together with its
/// variables. Cacheable per database state; the weigh-and-sort step is
/// weight-specific and stays per call.
fn reduced_covering_atom(
    q: &ConjunctiveQuery,
    db: &Database,
    cancel: &CancelToken,
) -> Result<(Vec<Var>, Relation), EvalError> {
    let atoms = bind(q, db)?;
    let all = q.all_vars_mask();
    let cover = atoms.iter().position(|a| a.scope() == all).ok_or_else(|| {
        EvalError::Unsupported(
            "no atom contains all variables (Thm 3.26: sum-order direct \
                 access is then 3SUM-hard, Lemma 3.25)"
                .to_string(),
        )
    })?;
    let mut rel = atoms[cover].rel.clone();
    for (i, other) in atoms.iter().enumerate() {
        if i == cover {
            continue;
        }
        cancel.check_now()?;
        let (cc, co) = shared_cols_of(&atoms[cover].vars, &other.vars);
        rel = keep_linked(&rel, &cc, &other.rel, &co);
    }
    Ok((atoms[cover].vars.clone(), rel))
}

impl SumOrderAccess {
    /// Weigh and sort a reduced covering atom (the per-weight half of
    /// the covering-atom preprocessing).
    fn weigh(
        vars: &[Var],
        rel: &Relation,
        n_vars: usize,
        weight: &dyn Fn(Val) -> i64,
    ) -> Self {
        let mut rows: Vec<(i64, Vec<Val>)> = Vec::with_capacity(rel.len());
        for row in rel.iter() {
            let mut assignment = vec![0 as Val; n_vars];
            let mut w = 0i64;
            for (c, v) in vars.iter().enumerate() {
                assignment[v.index()] = row[c];
                w += weight(row[c]);
            }
            rows.push((w, assignment));
        }
        rows.sort();
        SumOrderAccess { rows }
    }

    /// The easy side of Theorem 3.26: the query has an atom covering all
    /// variables. Preprocessing: semijoin the covering atom by every
    /// other atom, weigh, sort — Õ(m). The weight-independent reduction
    /// is memoized in the catalog: repeated builds (e.g. re-weighings,
    /// or the same ranking re-requested) pay only the weigh-and-sort.
    pub fn build_covering_atom(
        ctx: &ExecCtx,
        q: &ConjunctiveQuery,
        db: &Database,
        weight: &dyn Fn(Val) -> i64,
    ) -> Result<Self, EvalError> {
        if !q.is_join_query() {
            return Err(EvalError::NotJoinQuery);
        }
        ctx.cancel().check_now()?;
        let reduced = ctx.catalog().artifact(
            db,
            "sum_cover",
            &q.to_string(),
            q.relations(),
            || reduced_covering_atom(q, db, ctx.cancel()),
        )?;
        let (vars, rel) = &*reduced;
        Ok(Self::weigh(vars, rel, q.n_vars(), weight))
    }

    /// The general fallback: materialize `q(D)` by generic join, weigh,
    /// sort. Θ(|q(D)| log |q(D)|) preprocessing — the cost Lemma 3.25
    /// says cannot be avoided in general.
    pub fn build_materialized(
        ctx: &ExecCtx,
        q: &ConjunctiveQuery,
        db: &Database,
        weight: &dyn Fn(Val) -> i64,
    ) -> Result<Self, EvalError> {
        if !q.is_join_query() {
            return Err(EvalError::NotJoinQuery);
        }
        let rel = generic_join::answers(ctx, q, db, &generic_join::default_order(q))?;
        let mut rows: Vec<(i64, Vec<Val>)> = rel
            .iter()
            .map(|row| (row.iter().map(|&v| weight(v)).sum(), row.to_vec()))
            .collect();
        rows.sort();
        Ok(SumOrderAccess { rows })
    }

    /// Does the result contain a tuple of exactly `w` total weight?
    /// Implemented with binary search over the simulated array, exactly
    /// as the 3SUM reduction of Lemma 3.25 uses it.
    pub fn has_weight(&self, w: i64) -> bool {
        let idx = self.rows.partition_point(|(rw, _)| *rw < w);
        idx < self.rows.len() && self.rows[idx].0 == w
    }

    /// The weight of the `i`-th answer.
    pub fn weight_at(&self, i: u64) -> Option<i64> {
        self.rows.get(i as usize).map(|(w, _)| *w)
    }
}

impl DirectAccess for SumOrderAccess {
    fn len(&self) -> u64 {
        self.rows.len() as u64
    }
    fn access_into(&self, i: u64, out: &mut Vec<Val>) -> bool {
        let Some((_, row)) = self.rows.get(i as usize) else { return false };
        out.clear();
        out.extend_from_slice(row);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_core::parse_query;
    use cq_data::generate::{random_weights, seeded_rng};
    use cq_data::{Database, Relation};

    fn weights_fn(ws: &[i64]) -> impl Fn(Val) -> i64 + '_ {
        move |v: Val| ws[v as usize]
    }

    type Built = Result<SumOrderAccess, EvalError>;

    fn covering_atom(q: &ConjunctiveQuery, db: &Database, ws: &[i64]) -> Built {
        SumOrderAccess::build_covering_atom(&ExecCtx::cold(), q, db, &weights_fn(ws))
    }

    fn materialized(q: &ConjunctiveQuery, db: &Database, ws: &[i64]) -> Built {
        SumOrderAccess::build_materialized(&ExecCtx::cold(), q, db, &weights_fn(ws))
    }

    #[test]
    fn covering_atom_sorted_by_weight() {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![vec![0, 1], vec![2, 3], vec![1, 1]]));
        db.insert("S", Relation::from_values(vec![0, 1, 2]));
        // q(a, b) :- R(a, b), S(a): covering atom R
        let q = parse_query("q(a, b) :- R(a, b), S(a)").unwrap();
        let ws = vec![0i64, 10, 100, 1000];
        let da = covering_atom(&q, &db, &ws).unwrap();
        // S filters out nothing (a ∈ {0,1,2} all present)
        assert_eq!(da.len(), 3);
        // weights: (0,1)=10, (1,1)=20, (2,3)=1100 → ascending
        assert_eq!(da.weight_at(0), Some(10));
        assert_eq!(da.weight_at(1), Some(20));
        assert_eq!(da.weight_at(2), Some(1100));
        assert!(da.has_weight(20));
        assert!(!da.has_weight(30));
    }

    #[test]
    fn covering_semijoin_filters() {
        let mut db = Database::new();
        db.insert("R", Relation::from_rows(2, vec![vec![0, 1], vec![2, 3]]));
        db.insert("S", Relation::from_values(vec![0]));
        let q = parse_query("q(a, b) :- R(a, b), S(a)").unwrap();
        let ws = vec![1i64, 1, 1, 1];
        let da = covering_atom(&q, &db, &ws).unwrap();
        assert_eq!(da.len(), 1);
        assert_eq!(da.access(0), Some(vec![0, 1]));
    }

    #[test]
    fn no_covering_atom_rejected() {
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(vec![(0, 1)]));
        db.insert("R2", Relation::from_pairs(vec![(1, 2)]));
        let q = parse_query("q(x,y,z) :- R1(x,y), R2(y,z)").unwrap();
        let ws = vec![0i64; 4];
        assert!(matches!(covering_atom(&q, &db, &ws), Err(EvalError::Unsupported(_))));
        // materialized fallback works
        let da = materialized(&q, &db, &ws).unwrap();
        assert_eq!(da.len(), 1);
        assert_eq!(da.access(0), Some(vec![0, 1, 2]));
    }

    #[test]
    fn reweighing_reuses_the_memoized_reduction() {
        let mut rng = seeded_rng(7);
        let mut db = Database::new();
        db.insert("R", cq_data::generate::random_pairs(60, 20, &mut rng));
        db.insert("S", Relation::from_values((0..20).collect::<Vec<_>>()));
        let q = parse_query("q(a, b) :- R(a, b), S(a)").unwrap();
        let cat = cq_data::IndexCatalog::new();
        let ctx = ExecCtx::warm(&cat);
        for seed in 0..3 {
            let ws = random_weights(20, 100, &mut seeded_rng(seed));
            let da = SumOrderAccess::build_covering_atom(&ctx, &q, &db, &weights_fn(&ws))
                .unwrap();
            for i in 1..da.len() {
                assert!(da.weight_at(i - 1).unwrap() <= da.weight_at(i).unwrap());
            }
        }
        // the reduction was built exactly once
        assert_eq!(cat.snapshot().misses, 1);
    }

    #[test]
    fn materialized_matches_covering_when_both_apply() {
        let mut rng = seeded_rng(1);
        let mut db = Database::new();
        db.insert("R", cq_data::generate::random_pairs(50, 20, &mut rng));
        let q = parse_query("q(a, b) :- R(a, b)").unwrap();
        let ws = random_weights(20, 100, &mut rng);
        let a = covering_atom(&q, &db, &ws).unwrap();
        let b = materialized(&q, &db, &ws).unwrap();
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.access(i), b.access(i), "i={i}");
        }
    }

    #[test]
    fn weights_ascending_always() {
        let mut rng = seeded_rng(2);
        let mut db = Database::new();
        db.insert("R", cq_data::generate::random_pairs(80, 30, &mut rng));
        let q = parse_query("q(a, b) :- R(a, b)").unwrap();
        let ws = random_weights(30, 50, &mut rng);
        let da = covering_atom(&q, &db, &ws).unwrap();
        for i in 1..da.len() {
            assert!(da.weight_at(i - 1).unwrap() <= da.weight_at(i).unwrap());
        }
    }

    #[test]
    fn negative_weights() {
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(0, 1), (1, 0)]));
        let q = parse_query("q(a, b) :- R(a, b)").unwrap();
        let ws = vec![-5i64, 3];
        let da = covering_atom(&q, &db, &ws).unwrap();
        // both tuples weigh -2; has_weight works on duplicates
        assert!(da.has_weight(-2));
        assert!(!da.has_weight(0));
    }
}
