//! The Yannakakis algorithm (Theorem 3.1).
//!
//! For an acyclic Boolean conjunctive query, two semijoin sweeps over a
//! join tree decide the query in time O(m): the upward sweep filters each
//! parent by its children; the query is true iff the root stays
//! non-empty. A downward sweep afterwards makes every relation globally
//! consistent ([`full_reduce`]), the starting point for enumeration and
//! direct access. Decision needs the upward sweep only, and only its
//! verdict: [`decide_acyclic`] runs it as the sum-product fold at the
//! Boolean semiring, materialising no relation.

use crate::aggregate::{fold_body, BooleanSemiring};
use crate::bind::{BoundAtom, EvalError};
use crate::ctx::ExecCtx;
use crate::semijoin::semijoin;
use cq_core::hypergraph::mask_vertices;
use cq_core::{ConjunctiveQuery, JoinTree, Var};
use cq_data::Database;
use std::borrow::{Borrow, Cow};

/// Shared key columns between two variable lists (each distinct): for
/// each shared variable, the column index in `a` and in `b`.
pub fn shared_cols_of(a: &[Var], b: &[Var]) -> (Vec<usize>, Vec<usize>) {
    let ma = a.iter().fold(0u64, |m, v| m | v.mask());
    let mb = b.iter().fold(0u64, |m, v| m | v.mask());
    let mut ca = Vec::new();
    let mut cb = Vec::new();
    for v in mask_vertices(ma & mb) {
        let v = Var(v as u32);
        ca.push(a.iter().position(|&u| u == v).unwrap());
        cb.push(b.iter().position(|&u| u == v).unwrap());
    }
    (ca, cb)
}

/// Shared key columns between two bound atoms: for each shared variable,
/// the column index in `a` and in `b`.
pub fn shared_cols(a: &BoundAtom, b: &BoundAtom) -> (Vec<usize>, Vec<usize>) {
    shared_cols_of(&a.vars, &b.vars)
}

/// Build the join tree of `q`'s hypergraph (`Err(NotAcyclic)` if cyclic).
pub fn join_tree_of(q: &ConjunctiveQuery) -> Result<JoinTree, EvalError> {
    cq_core::gyo::join_tree(&q.hypergraph()).ok_or(EvalError::NotAcyclic)
}

/// The join tree of bound atoms over `n_vars` variables — how the
/// messages of projection elimination (an acyclic join query over the
/// free variables) get theirs. `None` if their hypergraph is cyclic.
pub(crate) fn join_tree_of_atoms(
    atoms: &[impl Borrow<BoundAtom>],
    n_vars: usize,
) -> Option<JoinTree> {
    let scopes: Vec<u64> = atoms.iter().map(|a| a.borrow().scope()).collect();
    cq_core::gyo::join_tree(&cq_core::Hypergraph::new(n_vars, scopes))
}

/// Full Yannakakis reduction of bound atoms over their join tree, in
/// place. Upward sweep: each parent is filtered by each child, children
/// first — afterwards the root is non-empty iff the join has an answer.
/// Downward sweep: each child is filtered by its (already consistent)
/// parent. After both, every tuple of every relation participates in at
/// least one answer (global consistency). Borrowed atoms (memoized
/// messages) are read where they are: only what a sweep filters is owned.
pub fn full_reduce(atoms: &mut [Cow<'_, BoundAtom>], tree: &JoinTree) {
    let filter = |atoms: &mut [Cow<'_, BoundAtom>], u: usize, by: usize| {
        let (cu, cb) = shared_cols(&atoms[u], &atoms[by]);
        let rel = semijoin(&atoms[u].rel, &cu, &atoms[by].rel, &cb);
        atoms[u] = Cow::Owned(BoundAtom { vars: atoms[u].vars.clone(), rel });
    };
    for u in tree.bottom_up() {
        if let Some(p) = tree.parent(u) {
            filter(atoms, p, u);
        }
    }
    for u in tree.top_down() {
        if let Some(p) = tree.parent(u) {
            filter(atoms, u, p);
        }
    }
}

/// Decide a Boolean acyclic query in O(m) (Theorem 3.1). Works for any
/// acyclic query (free variables are irrelevant to decision).
///
/// The upward sweep as a fold: a row is `true` iff each of its links
/// leads to a child group holding a `true` row, and the query is true
/// iff some root row is — the pass over the root stops at the first.
/// The links come from the memoized join index of the body (shared
/// with `COUNT` of the same body), so nothing is cloned, hashed or
/// materialised per call.
pub fn decide_acyclic(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<bool, EvalError> {
    let mut span = cq_obs::trace::span("op.yannakakis.decide");
    let (truth, steps) = fold_body(ctx, q, db, |_, _| true, &BooleanSemiring)?;
    span.attr("rows", u64::from(truth));
    span.attr("steps", steps);
    span.attr("cancel-polls", ctx.cancel().polls());
    Ok(truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{bind, brute_force_decide};
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, seeded_rng, star_database};
    use cq_data::Relation;

    fn owned(atoms: Vec<BoundAtom>) -> Vec<Cow<'static, BoundAtom>> {
        atoms.into_iter().map(Cow::Owned).collect()
    }

    #[test]
    fn decide_path_query() {
        let db = path_database(3, 200, &mut seeded_rng(1));
        let q = zoo::path_boolean(3);
        assert_eq!(
            decide_acyclic(&ExecCtx::cold(), &q, &db).unwrap(),
            brute_force_decide(&q, &db).unwrap()
        );
    }

    #[test]
    fn decide_empty_relation_false() {
        let mut db = path_database(2, 50, &mut seeded_rng(2));
        db.insert("R2", Relation::new(2));
        assert!(!decide_acyclic(&ExecCtx::cold(), &zoo::path_boolean(2), &db).unwrap());
    }

    #[test]
    fn decide_star_queries() {
        let db = star_database(3, 300, 4, &mut seeded_rng(3));
        let q = zoo::star_selfjoin_free(3).boolean_version();
        assert!(decide_acyclic(&ExecCtx::cold(), &q, &db).unwrap());
    }

    #[test]
    fn cyclic_rejected() {
        let db =
            cq_data::generate::triangle_database(&Relation::from_pairs(vec![(0, 1)]));
        assert_eq!(
            decide_acyclic(&ExecCtx::cold(), &zoo::triangle_boolean(), &db).unwrap_err(),
            EvalError::NotAcyclic
        );
    }

    #[test]
    fn chain_filtering_correct() {
        // R(1,2), S(2,3) joins; S(9,9) dangling
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 2), (5, 6)]));
        db.insert("S", Relation::from_pairs(vec![(2, 3), (9, 9)]));
        let q = parse_query("q() :- R(x,y), S(y,z)").unwrap();
        assert!(decide_acyclic(&ExecCtx::cold(), &q, &db).unwrap());
        let mut atoms =
            owned(bind(&q, db.clone().insert("T", Relation::new(1))).unwrap());
        full_reduce(&mut atoms, &join_tree_of(&q).unwrap());
        // after full reduction: R keeps (1,2) only; S keeps (2,3) only
        let r = &atoms[0].rel;
        let s = &atoms[1].rel;
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[1, 2]));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&[2, 3]));
    }

    #[test]
    fn full_reduce_global_consistency_random() {
        let db = path_database(4, 150, &mut seeded_rng(5));
        let q = zoo::path_join(4);
        let mut atoms = owned(bind(&q, &db).unwrap());
        full_reduce(&mut atoms, &join_tree_of(&q).unwrap());
        let answers = crate::bind::brute_force_answers(&q, &db).unwrap();
        // every remaining tuple appears in some answer
        for (i, a) in atoms.iter().enumerate() {
            let free: Vec<_> = q.free_vars();
            for row in a.rel.iter() {
                let participates = answers.iter().any(|ans| {
                    a.vars.iter().enumerate().all(|(c, v)| {
                        let pos = free.iter().position(|f| f == v).unwrap();
                        ans[pos] == row[c]
                    })
                });
                assert!(participates, "atom {i} row {row:?} is dangling");
            }
        }
    }

    #[test]
    fn disconnected_query_components() {
        // q() :- R(x,y), S(u,v): true iff both nonempty
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 1)]));
        db.insert("S", Relation::from_pairs(vec![(2, 2)]));
        let q = parse_query("q() :- R(x,y), S(u,v)").unwrap();
        assert!(decide_acyclic(&ExecCtx::cold(), &q, &db).unwrap());
        db.insert("S", Relation::new(2));
        assert!(!decide_acyclic(&ExecCtx::cold(), &q, &db).unwrap());
    }

    #[test]
    fn selfjoin_boolean_decide() {
        // q() :- R(x,y), R(y,x): needs a 2-cycle... wait that's cyclic?
        // hypergraph has one edge {x,y} twice → acyclic.
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 2), (3, 4), (4, 3)]));
        let q = parse_query("q() :- R(x,y), R(y,x)").unwrap();
        assert!(decide_acyclic(&ExecCtx::cold(), &q, &db).unwrap());
        db.insert("R", Relation::from_pairs(vec![(1, 2), (3, 4)]));
        assert!(!decide_acyclic(&ExecCtx::cold(), &q, &db).unwrap());
    }

    #[test]
    fn repeated_variable_atoms_memoize_their_collapsed_relation() {
        let cat = cq_data::IndexCatalog::new();
        let ctx = ExecCtx::warm(&cat);
        let q = parse_query("q() :- R(x, x), R(x, y)").unwrap();
        let mut db = Database::new();
        db.insert("R", Relation::from_pairs(vec![(1, 2), (3, 3)]));
        assert!(decide_acyclic(&ctx, &q, &db).unwrap());
        let before = cat.snapshot();
        assert!(decide_acyclic(&ctx, &q, &db).unwrap());
        assert_eq!(cat.snapshot().misses, before.misses, "second sweep builds nothing");
        db.insert("R", Relation::from_pairs(vec![(1, 2), (2, 3)]));
        assert!(!decide_acyclic(&ctx, &q, &db).unwrap());
    }

    #[test]
    fn missing_relation_is_reported() {
        assert_eq!(
            decide_acyclic(&ExecCtx::cold(), &zoo::path_boolean(2), &Database::new())
                .unwrap_err(),
            EvalError::MissingRelation("R1".into())
        );
    }

    #[test]
    fn matches_brute_force_random_acyclic() {
        let mut rng = seeded_rng(7);
        for trial in 0..10 {
            let db = path_database(3, 30 + trial, &mut rng);
            let q = zoo::path_boolean(3);
            assert_eq!(
                decide_acyclic(&ExecCtx::cold(), &q, &db).unwrap(),
                brute_force_decide(&q, &db).unwrap(),
                "trial {trial}"
            );
        }
    }
}
