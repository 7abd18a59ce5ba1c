//! The Yannakakis algorithm (Theorem 3.1).
//!
//! For an acyclic Boolean conjunctive query, two sweeps over a join tree
//! decide the query in time O(m): the upward sweep filters each parent by
//! its children; the query is true iff the root stays non-empty. A
//! downward sweep afterwards makes every relation globally consistent
//! (`full_reduce`), the starting point for enumeration and direct
//! access. Both run over the join-tree links of `crate::links`: the
//! reduction as two Boolean passes, decision — which needs the upward
//! sweep only, and only its verdict — as the sum-product fold at the
//! Boolean semiring ([`decide_acyclic`]), materialising no relation.

use crate::aggregate::{fold_body, BooleanSemiring};
use crate::bind::{BoundAtom, EvalError};
use crate::ctx::ExecCtx;
use crate::links::JoinLinks;
use cq_core::hypergraph::mask_vertices;
use cq_core::{ConjunctiveQuery, JoinTree, Var};
use cq_data::Database;
use std::borrow::{Borrow, Cow};

/// Shared key columns between two variable lists (each distinct): for
/// each shared variable, the column index in `a` and in `b`.
pub(crate) fn shared_cols_of(a: &[Var], b: &[Var]) -> (Vec<usize>, Vec<usize>) {
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

/// Build the join tree of `q`'s hypergraph (`Err(NotAcyclic)` if cyclic).
pub(crate) fn join_tree_of(q: &ConjunctiveQuery) -> Result<JoinTree, EvalError> {
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

/// The children of node `u` with the links of their edges.
fn kids_of(links: &JoinLinks, u: usize) -> Vec<(usize, &[u32])> {
    let link = |c| links.edge(c).expect("a child has a parent edge").link.as_slice();
    links.tree().children(u).iter().map(|&c| (c, link(c))).collect()
}

/// The upward pass of the full reduction — the one semijoin — along the
/// `links` of a tree whose node `u` holds `rows[u]` rows. Children first:
/// a row lives iff each of its links lands in a child group holding a
/// live row, so afterwards a node's live rows are those that join its
/// whole subtree, and the root has one iff the join has an answer.
/// Returns per node its live rows and which of its parent-key groups
/// hold one (`NONE` links land in a spare last slot that is never set),
/// with the steps: rows visited plus links followed.
pub(crate) fn semijoin_up(
    rows: &[usize],
    links: &JoinLinks,
) -> (Vec<Vec<bool>>, Vec<Vec<bool>>, u64) {
    let mut live: Vec<Vec<bool>> = rows.iter().map(|&n| vec![true; n]).collect();
    let mut groups: Vec<Vec<bool>> = (0..rows.len())
        .map(|u| vec![false; links.edge(u).map_or(1, |e| e.groups) + 1])
        .collect();
    let mut steps = 0u64;
    for u in links.tree().bottom_up() {
        let (kids, up) = (kids_of(links, u), links.edge(u));
        let mut rows = std::mem::take(&mut live[u]);
        steps += (rows.len() * (1 + kids.len())) as u64;
        for (i, alive) in rows.iter_mut().enumerate() {
            *alive = kids.iter().all(|&(c, link)| {
                let group = &groups[c];
                group[(link[i] as usize).min(group.len() - 1)]
            });
            if *alive {
                groups[u][up.map_or(0, |e| e.own[i] as usize)] = true;
            }
        }
        live[u] = rows;
    }
    (live, groups, steps)
}

/// Full Yannakakis reduction of bound atoms along the `links` of their
/// join tree, in place: [`semijoin_up`], then down — a group lives iff a
/// live parent row links to it, and a row dies with its group — and one
/// filter per node. After both, every remaining tuple participates in at
/// least one answer (global consistency). Borrowed atoms (memoized
/// messages) are read where they are: only a node that loses a row is
/// owned. Returns the `steps` of the two passes, counted as the fold
/// counts its own: rows visited plus links followed.
pub(crate) fn full_reduce(atoms: &mut [Cow<'_, BoundAtom>], links: &JoinLinks) -> u64 {
    let rows: Vec<usize> = atoms.iter().map(|a| a.rel.len()).collect();
    let (mut live, mut groups, mut steps) = semijoin_up(&rows, links);
    groups.iter_mut().for_each(|group| group.fill(false));
    for u in links.tree().top_down() {
        let (kids, up) = (kids_of(links, u), links.edge(u));
        let mut rows = std::mem::take(&mut live[u]);
        steps += (rows.len() * (1 + kids.len())) as u64;
        for (i, alive) in rows.iter_mut().enumerate() {
            *alive &= up.is_none_or(|e| groups[u][e.own[i] as usize]);
            if *alive {
                // it survived the upward pass: every link is a group
                for &(c, link) in &kids {
                    groups[c][link[i] as usize] = true;
                }
            }
        }
        live[u] = rows;
    }
    for (atom, live) in atoms.iter_mut().zip(&live) {
        if live.contains(&false) {
            let mut live = live.iter();
            let rel = atom.rel.filter(|_| *live.next().expect("one flag per row"));
            *atom = Cow::Owned(BoundAtom { vars: atom.vars.clone(), rel });
        }
    }
    steps
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
    use crate::links::JoinLinks;
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, seeded_rng, star_database};
    use cq_data::Relation;

    /// The atoms of `q` over `db`, fully reduced along links built for
    /// the call over `q`'s join tree rooted at atom 0, with the steps.
    fn reduced(
        q: &ConjunctiveQuery,
        db: &Database,
    ) -> (Vec<Cow<'static, BoundAtom>>, u64) {
        let mut atoms: Vec<Cow<BoundAtom>> =
            bind(q, db).unwrap().into_iter().map(Cow::Owned).collect();
        let tree = join_tree_of(q).unwrap().rerooted(0);
        let links = JoinLinks::of(&tree, |u| (&atoms[u].vars, &atoms[u].rel));
        let steps = full_reduce(&mut atoms, &links);
        (atoms, steps)
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
        let (atoms, _) = reduced(&q, &db);
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
        let (atoms, _) = reduced(&q, &db);
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
    fn a_row_can_die_in_the_downward_pass_only() {
        // rooted at A the tree is the chain A → B → C. C is a leaf: no
        // link of its rows can fail, so all of C survives the upward
        // pass. B(7,8) joins C(8,0) and survives it too; both die only
        // when no live row of A links to B's group y = 7
        let mut db = Database::new();
        db.insert("A", Relation::from_pairs(vec![(1, 2), (4, 5)]));
        db.insert("B", Relation::from_pairs(vec![(2, 3), (5, 6), (7, 8)]));
        db.insert("C", Relation::from_pairs(vec![(3, 9), (8, 0)]));
        let q = parse_query("q(x, y, z, w) :- A(x, y), B(y, z), C(z, w)").unwrap();
        let (atoms, steps) = reduced(&q, &db);
        let rows = |i: usize| atoms[i].rel.iter().map(<[_]>::to_vec).collect::<Vec<_>>();
        assert_eq!(
            (rows(0), rows(1), rows(2)),
            (vec![vec![1, 2]], vec![vec![2, 3]], vec![vec![3, 9]])
        );
        // two passes, each visiting a row once and following its links:
        // A and B have one child, C none
        assert_eq!(steps, 2 * (2 * 2 + 3 * 2 + 2));
        // a node that loses nothing is read where it is
        db.insert("C", Relation::from_pairs(vec![(3, 9)]));
        let bound = bind(&q, &db).unwrap();
        let mut atoms: Vec<_> = bound.iter().map(Cow::Borrowed).collect();
        let tree = join_tree_of(&q).unwrap().rerooted(0);
        let links = JoinLinks::of(&tree, |u| (&atoms[u].vars, &atoms[u].rel));
        full_reduce(&mut atoms, &links);
        assert!(
            matches!(atoms[2], Cow::Borrowed(_)) && matches!(atoms[1], Cow::Owned(_))
        );
    }

    #[test]
    fn a_reduction_with_no_answer_empties_every_node() {
        // B and C join, A and B do not: rooted at A, B and C survive the
        // upward pass whole and the downward pass empties them
        let mut db = Database::new();
        db.insert("A", Relation::from_pairs(vec![(1, 2)]));
        db.insert("B", Relation::from_pairs(vec![(3, 4), (5, 4)]));
        db.insert("C", Relation::from_pairs(vec![(4, 5)]));
        let q = parse_query("q(x, y, z, w) :- A(x, y), B(y, z), C(z, w)").unwrap();
        assert!(reduced(&q, &db).0.iter().all(|a| a.rel.is_empty()));
        // ... and so does an empty relation anywhere, a disconnected
        // component included
        db.insert("A", Relation::from_pairs(vec![(1, 3)]));
        assert!(reduced(&q, &db).0.iter().all(|a| !a.rel.is_empty()));
        db.insert("D", Relation::new(2));
        let q = parse_query("q(x, y, z, w, u, v) :- A(x, y), B(y, z), C(z, w), D(u, v)")
            .unwrap();
        assert!(reduced(&q, &db).0.iter().all(|a| a.rel.is_empty()));
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
