//! The Yannakakis algorithm (Theorem 3.1).
//!
//! For an acyclic Boolean conjunctive query, two sweeps over a join tree
//! decide the query in time O(m): the upward sweep filters each parent by
//! its children; the query is true iff the root stays non-empty. A
//! downward sweep afterwards makes every relation globally consistent
//! (`full_reduce`), the starting point for enumeration and direct
//! access. Both run over the join-tree links of `crate::links`, and
//! both sweep upward by the one sum-product fold at the Boolean
//! semiring. Decision is projection elimination with no free variable
//! ([`decide_acyclic`]): each subtree of the virtual root sends it a
//! nullary message, its upward sweep stopping at the first live root
//! row, and the query holds iff none is empty — memoized as the Boolean
//! query's `q'`, so a repeated decision is one lookup.

use crate::aggregate::BooleanSemiring;
use crate::bind::{BoundAtom, EvalError};
use crate::cancel::CancelToken;
use crate::count::{free_links, sum_product};
use crate::ctx::ExecCtx;
use crate::links::JoinLinks;
use cq_core::hypergraph::mask_vertices;
use cq_core::{ConjunctiveQuery, JoinTree, Var};
use cq_data::Database;
use std::borrow::Cow;

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

/// Full Yannakakis reduction of bound atoms along the `links` of their
/// join tree, in place: up — the fold at the Boolean semiring, keeping
/// every row's product: a row lives iff each of its links lands in a
/// child group holding a live row — then down — a group lives iff a live
/// parent row links to it, and a row dies with its group — and one
/// filter per node. After both, every remaining tuple participates in at
/// least one answer (global consistency). Borrowed rows (a stored
/// relation, a memoized message) are read where they are: only a node
/// that loses a row is owned. Returns the `steps` of the two passes, counted as the fold
/// counts its own: rows visited plus links followed. The token is polled
/// on the fold's schedule, and once per node on the way down.
pub(crate) fn full_reduce(
    cancel: &CancelToken,
    atoms: &mut [BoundAtom<'_>],
    links: &JoinLinks,
) -> Result<u64, EvalError> {
    let tree = links.tree();
    let node = |u: usize| (atoms[u].rel.len(), links.edge(u));
    let up = sum_product(cancel, tree, node, &BooleanSemiring, |_| true);
    let (_, mut live, mut steps) = up?;
    let mut groups: Vec<Vec<bool>> = (0..live.len())
        .map(|u| vec![false; links.edge(u).map_or(0, |e| e.groups)])
        .collect();
    for u in tree.top_down() {
        cancel.check_now()?;
        let (rows, kids) = (&mut live[u], tree.children(u));
        steps += (rows.len() * (1 + kids.len())) as u64;
        if let Some(e) = links.edge(u) {
            for (alive, &g) in rows.iter_mut().zip(e.own) {
                *alive &= groups[u][g as usize];
            }
        }
        for &c in kids {
            let link = links.edge(c).expect("a child has a parent edge").link;
            // a live row survived the upward pass: every link is a group
            for (_, &g) in rows.iter().zip(link).filter(|(alive, _)| **alive) {
                groups[c][g as usize] = true;
            }
        }
    }
    for (atom, live) in atoms.iter_mut().zip(&live) {
        if live.contains(&false) {
            let mut live = live.iter();
            let rel = atom.rel.filter(|_| *live.next().expect("one flag per row"));
            atom.rel = Cow::Owned(rel);
        }
    }
    Ok(steps)
}

/// Decide a Boolean acyclic query in O(m) (Theorem 3.1). Works for any
/// acyclic query (free variables are irrelevant to decision).
///
/// The query holds iff the `q'` of its Boolean version exists: the
/// upward sweep of each subtree of the virtual root as a fold — a row is
/// `true` iff each of its links leads to a child group holding a `true`
/// row, and the subtree is satisfiable iff some root row is, the pass
/// over the root stopping at the first. `q'` is memoized, so a repeated
/// decision on unchanged relations folds nothing; the span's `steps` are
/// the sweeps' rows visited plus links followed, 0 on a hit.
pub fn decide_acyclic(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<bool, EvalError> {
    let mut span = cq_obs::trace::span("op.yannakakis.decide");
    let boolean;
    let q = match q.is_boolean() {
        true => q,
        false => {
            boolean = q.boolean_version();
            &boolean
        }
    };
    let mut built = None;
    let truth = free_links(ctx, q, db, &mut built)?.is_some();
    span.attr("rows", u64::from(truth));
    span.attr("steps", built.unwrap_or(0));
    span.attr("cancel-polls", ctx.cancel().polls());
    Ok(truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{bind, brute_force_decide};
    use crate::links::{JoinLinks, Named};
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, seeded_rng, star_database};
    use cq_data::Relation;
    use cq_obs::trace::{self, TraceSink};

    /// The atoms of `q` over `db`, fully reduced along links built for
    /// the call over `q`'s join tree rooted at atom 0, with the steps.
    fn reduced<'a>(q: &ConjunctiveQuery, db: &'a Database) -> (Vec<BoundAtom<'a>>, u64) {
        let mut atoms = bind(q, db).unwrap();
        let tree = join_tree_of(q).unwrap().rerooted(0);
        let named = |u: usize| Named::atom(q, u, &atoms[u]);
        let (links, _) = JoinLinks::memoized(&ExecCtx::cold(), db, &tree, named).unwrap();
        let steps = full_reduce(&CancelToken::never(), &mut atoms, &links).unwrap();
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
        let (atoms, _) = reduced(&q, &db);
        assert!(
            matches!(atoms[2].rel, Cow::Borrowed(_))
                && matches!(atoms[1].rel, Cow::Owned(_))
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

    /// A warm decision is one lookup of its memoized `q'`: it reports 0
    /// steps and misses nothing in the catalog, whatever the head.
    #[test]
    fn a_warm_decision_is_one_lookup() {
        let db = path_database(3, 200, &mut seeded_rng(1));
        for q in [zoo::path_boolean(3), zoo::path_join(3), zoo::star_selfjoin_free(2)] {
            let catalog = cq_data::IndexCatalog::new();
            let ctx = ExecCtx::warm(&catalog);
            let decide = || {
                let sink = TraceSink::enabled();
                let truth = trace::with(&sink, || decide_acyclic(&ctx, &q, &db).unwrap());
                let mut steps = None;
                sink.finish("test", "decide").expect("enabled").visit(|_, span| {
                    if span.name == "op.yannakakis.decide" {
                        steps = span.attr("steps");
                    }
                });
                (truth, steps.expect("the span reports its steps"))
            };
            let (truth, cold) = decide();
            assert_eq!(truth, brute_force_decide(&q, &db).unwrap(), "{q}");
            assert!(cold > 0, "{q}: a cold decision folds");
            let misses = catalog.snapshot().misses;
            assert_eq!(decide(), (truth, 0), "{q}: a warm decision folds nothing");
            assert_eq!(catalog.snapshot().misses, misses, "{q}: and builds nothing");
        }
    }
}
