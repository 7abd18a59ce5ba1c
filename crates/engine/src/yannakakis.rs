//! The Yannakakis algorithm (Theorem 3.1).
//!
//! For an acyclic Boolean conjunctive query, two sweeps over a join tree
//! decide the query in time O(m): the upward sweep filters each parent by
//! its children; the query is true iff the root stays non-empty. A
//! downward sweep afterwards makes every relation globally consistent
//! (`full_reduce`): `reduce_q_prime` runs it on `q'`, the starting point
//! of every reduced tree — enumeration and direct access, in any order.
//! Both run over the join-tree links of `crate::links`, and
//! both sweep upward by the one sum-product fold at the Boolean
//! semiring. Decision is projection elimination with no free variable
//! ([`decide_acyclic`]): each subtree of the virtual root sends it a
//! nullary message, its upward sweep stopping at the first live root
//! row, and the query holds iff none is empty — memoized as the Boolean
//! query's `q'`, so a repeated decision is one lookup.

use crate::aggregate::BooleanSemiring;
use crate::bind::{BoundAtom, EvalError};
use crate::cancel::CancelToken;
use crate::count::{free_links, sum_product, FreeLinks};
use crate::ctx::ExecCtx;
use crate::links::JoinLinks;
use cq_core::hypergraph::mask_vertices;
use cq_core::{ConjunctiveQuery, JoinTree, Var};
use cq_data::{Database, Relation};
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
fn full_reduce(
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

/// **The** reduction behind every reduced tree: `q'` — `linked`, which
/// [`free_links`] derived for `q` over `db` — bound as its messages' rows,
/// read where they are, and fully reduced along the links of its tree.
/// Returns the reduced atoms, that tree and the reduction's steps; a `q`
/// without answers reduces to one empty atom over its free variables.
/// `q` has some: a Boolean query's `q'` has no atoms, and its tree is its
/// decision.
pub(crate) fn reduce_q_prime<'a>(
    cancel: &CancelToken,
    q: &ConjunctiveQuery,
    db: &'a Database,
    linked: &'a FreeLinks,
) -> Result<(Vec<BoundAtom<'a>>, JoinTree, u64), EvalError> {
    let Some((msgs, links)) = linked else {
        let vars = q.free_vars();
        let rel = Cow::Owned(Relation::new(vars.len()));
        let tree = JoinTree::from_parents(vec![q.free_mask()], vec![None], 0);
        return Ok((vec![BoundAtom { vars, rel }], tree, 0));
    };
    let links = links.as_ref().expect("free variables give q' atoms");
    let mut atoms: Vec<BoundAtom> = (msgs.iter())
        .map(|m| BoundAtom { vars: m.vars.clone(), rel: Cow::Borrowed(m.rel(q, db)) })
        .collect();
    let steps = full_reduce(cancel, &mut atoms, links)?;
    Ok((atoms, links.tree().clone(), steps))
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
    use crate::bind::brute_force_decide;
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{path_database, seeded_rng, star_database};
    use cq_data::Relation;
    use cq_obs::trace::{self, TraceSink};

    /// `f` of the atoms of `q'` of `q` over `db`, fully reduced, of their
    /// tree and of the reduction's steps.
    fn reduced<T>(
        q: &ConjunctiveQuery,
        db: &Database,
        f: impl FnOnce(&[BoundAtom], &JoinTree, u64) -> T,
    ) -> T {
        let linked = free_links(&ExecCtx::cold(), q, db, &mut None).unwrap();
        let (atoms, tree, steps) =
            reduce_q_prime(&CancelToken::never(), q, db, &linked).unwrap();
        f(&atoms, &tree, steps)
    }

    /// The reduced atom of `q'` over `vars`.
    fn over<'a>(atoms: &'a [BoundAtom<'a>], vars: &[Var]) -> &'a BoundAtom<'a> {
        atoms.iter().find(|a| a.vars == vars).expect("an atom of q' over the variables")
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
        // after full reduction of the join's q': R keeps (1,2) only; S
        // keeps (2,3) only
        let join = q.join_version();
        let kept = reduced(&join, &db, |atoms, _, _| {
            [0, 1].map(|i| over(atoms, &join.atoms()[i].vars).rel.clone().into_owned())
        });
        assert_eq!(
            kept,
            [Relation::from_pairs(vec![(1, 2)]), Relation::from_pairs(vec![(2, 3)])]
        );
    }

    #[test]
    fn full_reduce_global_consistency_random() {
        let db = path_database(4, 150, &mut seeded_rng(5));
        let q = zoo::path_join(4);
        let answers = crate::bind::brute_force_answers(&q, &db).unwrap();
        let free: Vec<_> = q.free_vars();
        // every remaining tuple appears in some answer
        let check = |atoms: &[BoundAtom], _: &JoinTree, _| {
            for (i, a) in atoms.iter().enumerate() {
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
        };
        assert!(!answers.is_empty(), "the instance has answers");
        reduced(&q, &db, check);
    }

    #[test]
    fn a_row_can_die_in_the_downward_pass_only() {
        // q''s tree is the chain C → B → A, rooted at C. A is a leaf: no
        // link of its rows can fail, so all of A survives the upward
        // pass. B(8,7) joins A(0,8) and survives it too; both die only
        // when no live row of C links to B's group z = 7
        let mut db = Database::new();
        db.insert("A", Relation::from_pairs(vec![(9, 3), (0, 8)]));
        db.insert("B", Relation::from_pairs(vec![(3, 2), (6, 5), (8, 7)]));
        db.insert("C", Relation::from_pairs(vec![(2, 1), (5, 4)]));
        let q = parse_query("q(x, y, z, w) :- A(x, y), B(y, z), C(z, w)").unwrap();
        let [a, b, c] = [0, 1, 2].map(|i| q.atoms()[i].vars.clone());
        let (rows, steps) = reduced(&q, &db, |atoms, tree, steps| {
            let node = |vars: &[Var]| atoms.iter().position(|a| a.vars == vars);
            let (a, b, c) = (node(&a).unwrap(), node(&b).unwrap(), node(&c).unwrap());
            assert_eq!(
                (tree.root(), tree.parent(b), tree.parent(a)),
                (c, Some(c), Some(b))
            );
            let rows =
                |u: usize| atoms[u].rel.iter().map(<[_]>::to_vec).collect::<Vec<_>>();
            ((rows(a), rows(b), rows(c)), steps)
        });
        assert_eq!(rows, (vec![vec![9, 3]], vec![vec![3, 2]], vec![vec![2, 1]]));
        // two passes, each visiting a row once and following its links:
        // C and B have one child, A none
        assert_eq!(steps, 2 * (2 * 2 + 3 * 2 + 2));
        // a node that loses nothing is read where it is
        db.insert("A", Relation::from_pairs(vec![(9, 3)]));
        let read_in_place = reduced(&q, &db, |atoms, _, _| {
            [&a, &b].map(|vars| matches!(over(atoms, vars).rel, Cow::Borrowed(_)))
        });
        assert_eq!(read_in_place, [true, false]);
    }

    #[test]
    fn a_reduction_with_no_answer_empties_every_node() {
        // A and B join, B and C do not: rooted at C, A and B survive the
        // upward pass whole and the downward pass empties them
        let mut db = Database::new();
        db.insert("A", Relation::from_pairs(vec![(5, 4)]));
        db.insert("B", Relation::from_pairs(vec![(4, 3), (4, 5)]));
        db.insert("C", Relation::from_pairs(vec![(2, 1)]));
        let q = parse_query("q(x, y, z, w) :- A(x, y), B(y, z), C(z, w)").unwrap();
        let emptied = |atoms: &[BoundAtom], _: &JoinTree, _| {
            atoms.iter().map(|a| a.rel.is_empty()).collect::<Vec<_>>()
        };
        assert_eq!(reduced(&q, &db, emptied), vec![true; 3]);
        db.insert("C", Relation::from_pairs(vec![(3, 1)]));
        assert_eq!(reduced(&q, &db, emptied), vec![false; 3]);
        // an empty relation anywhere, a disconnected component included,
        // leaves no q' to reduce: one empty atom over the free variables
        // stands for it, reduced in no step
        db.insert("D", Relation::new(2));
        let q = parse_query("q(x, y, z, w, u, v) :- A(x, y), B(y, z), C(z, w), D(u, v)")
            .unwrap();
        let empty = reduced(&q, &db, |atoms, tree, steps| {
            (atoms.len(), atoms[0].vars == q.free_vars(), tree.n_nodes(), steps)
        });
        assert_eq!((empty, reduced(&q, &db, emptied)), ((1, true, 1, 0), vec![true]));
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
