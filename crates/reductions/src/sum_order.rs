//! Direct access in sum orders (paper §3.4.2, Theorem 3.26) — the upper
//! bound [`crate::three_sum_to_sum_da`] is a lower bound for.
//!
//! Every domain value carries a weight; a tuple's weight is the sum of
//! its entries' weights, and the simulated array is sorted by tuple
//! weight. Theorem 3.26: for self-join-free acyclic join queries,
//! Õ(m) preprocessing is possible **iff one atom contains every
//! variable** — then `|q(D)|` is at most that atom's relation, and
//! sorting the answers by weight suffices. For every other query, Lemma
//! 3.25 embeds 3SUM, and the only general algorithm is materialization
//! ([`SumOrderAccess::build_materialized`], Θ(|q(D)|) preprocessing —
//! the superlinear shape the hypothesis says is unavoidable).

use cq_core::ConjunctiveQuery;
use cq_data::{Database, Val};
use cq_engine::{enumerate, generic_join, Answers, DirectAccess, EvalError, ExecCtx};

/// Direct access by ascending tuple weight (ties broken by value for
/// determinism). Answers are full assignments in variable interning
/// order.
pub struct SumOrderAccess {
    /// (weight, assignment) sorted ascending.
    rows: Vec<(i64, Vec<Val>)>,
}

impl SumOrderAccess {
    /// Weigh every answer and sort.
    fn sorted(
        rows: impl IntoIterator<Item = Vec<Val>>,
        weight: &dyn Fn(Val) -> i64,
    ) -> Self {
        let mut rows: Vec<(i64, Vec<Val>)> = rows
            .into_iter()
            .map(|row| (row.iter().map(|&v| weight(v)).sum(), row))
            .collect();
        rows.sort();
        SumOrderAccess { rows }
    }

    /// The easy side of Theorem 3.26: the query has an atom covering all
    /// variables. Such a join query is acyclic, so Theorem 3.17's
    /// enumeration lists its answers after Õ(m) preprocessing — at most
    /// the covering relation's rows of them — and weighing and sorting
    /// them keeps the build Õ(m). The preprocessing is the engine's
    /// memoized tree: a re-weighing over a warm catalog pays only the
    /// walk, the weighing and the sort.
    pub fn build_covering_atom(
        ctx: &ExecCtx,
        q: &ConjunctiveQuery,
        db: &Database,
        weight: &dyn Fn(Val) -> i64,
    ) -> Result<Self, EvalError> {
        if !q.is_join_query() {
            return Err(EvalError::NotJoinQuery);
        }
        let scope = |vars: &[cq_core::Var]| vars.iter().fold(0, |m, v| m | v.mask());
        if !q.atoms().iter().any(|a| scope(&a.vars) == q.all_vars_mask()) {
            return Err(EvalError::Unsupported(
                "no atom contains all variables (Thm 3.26: sum-order direct \
                     access is then 3SUM-hard, Lemma 3.25)"
                    .to_string(),
            ));
        }
        let mut answers = Answers::walk(enumerate::preprocess(ctx, q, db)?);
        answers.set_cancel(ctx.cancel().clone());
        let mut rows = Vec::new();
        while let Some(row) = answers.next()? {
            rows.push(row.to_vec());
        }
        Ok(Self::sorted(rows, weight))
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
        Ok(Self::sorted(rel.iter().map(<[Val]>::to_vec), weight))
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
    use cq_data::generate::{random_pairs, random_weights, seeded_rng};
    use cq_data::{Database, IndexCatalog, Relation};
    use cq_engine::bind::brute_force_answers;

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

    /// Every position of a structure, with its weight.
    fn array(da: &SumOrderAccess) -> Vec<(i64, Vec<Val>)> {
        (0..da.len()).map(|i| (da.weight_at(i).unwrap(), da.access(i).unwrap())).collect()
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
        let Err(EvalError::Unsupported(msg)) = covering_atom(&q, &db, &ws) else {
            panic!("a path has no covering atom");
        };
        assert_eq!(
            msg,
            "no atom contains all variables (Thm 3.26: sum-order direct access is \
             then 3SUM-hard, Lemma 3.25)"
        );
        // ... whatever the data: the check comes before any relation is read
        let missing = covering_atom(&q, &Database::new(), &ws);
        assert_eq!(missing.err(), Some(EvalError::Unsupported(msg)));
        // materialized fallback works
        let da = materialized(&q, &db, &ws).unwrap();
        assert_eq!(da.len(), 1);
        assert_eq!(da.access(0), Some(vec![0, 1, 2]));
    }

    #[test]
    fn reweighing_reuses_the_memoized_reduction() {
        let mut rng = seeded_rng(7);
        let mut db = Database::new();
        db.insert("R", random_pairs(60, 20, &mut rng));
        db.insert("S", Relation::from_values((0..20).collect::<Vec<_>>()));
        let q = parse_query("q(a, b) :- R(a, b), S(a)").unwrap();
        let cat = IndexCatalog::new();
        let ctx = ExecCtx::warm(&cat);
        let mut misses = Vec::new();
        for seed in 0..3 {
            let ws = random_weights(20, 100, &mut seeded_rng(seed));
            let da = SumOrderAccess::build_covering_atom(&ctx, &q, &db, &weights_fn(&ws))
                .unwrap();
            for i in 1..da.len() {
                assert!(da.weight_at(i - 1).unwrap() <= da.weight_at(i).unwrap());
            }
            misses.push(cat.snapshot().misses);
        }
        // the first weighing built the reduced tree; the re-weighings hit it
        assert!(misses[0] > 0);
        assert!(misses.iter().all(|&m| m == misses[0]), "{misses:?}");
    }

    /// The rewritten covering-atom build ≡ materialization ≡ brute force
    /// sorted by (weight, row), on random covering-atom queries — a
    /// repeated variable and a self-join among them.
    #[test]
    fn covering_atom_is_materialization_and_brute_force() {
        let queries = [
            "q(a, b) :- R(a, b), S(a)",
            "q(a, b, c) :- T(a, b, c), R(a, b), S(c)",
            "q(a, b, c) :- T(a, b, c), R(b, c), R(c, a)",
            "q(a, b) :- R(a, b), R(b, a), S(b)",
            "q(a, b) :- R(a, b), R(a, a)",
            "q(a, b, c) :- T(a, b, c), T(a, a, b), S(a)",
        ];
        for seed in 0..4 {
            let mut rng = seeded_rng(seed);
            let mut db = Database::new();
            db.insert("R", random_pairs(40, 8, &mut rng));
            db.insert("S", Relation::from_values(vec![0, 2, 3, 5, 7]));
            db.insert("T", cq_data::generate::random_relation(3, 150, 8, &mut rng));
            let ws = random_weights(8, 20, &mut rng);
            for src in queries {
                let q = parse_query(src).unwrap();
                let mut want: Vec<(i64, Vec<Val>)> = brute_force_answers(&q, &db)
                    .unwrap()
                    .iter()
                    .map(|r| (r.iter().map(|&v| ws[v as usize]).sum(), r.to_vec()))
                    .collect();
                want.sort();
                let covering = array(&covering_atom(&q, &db, &ws).unwrap());
                assert_eq!(covering, want, "{src} (seed {seed})");
                assert_eq!(array(&materialized(&q, &db, &ws).unwrap()), want, "{src}");
            }
        }
    }

    #[test]
    fn materialized_matches_covering_when_both_apply() {
        let mut rng = seeded_rng(1);
        let mut db = Database::new();
        db.insert("R", random_pairs(50, 20, &mut rng));
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
        db.insert("R", random_pairs(80, 30, &mut rng));
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
