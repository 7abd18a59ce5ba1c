//! Join-tree links: the index the join-tree folds run on.
//!
//! Every linear-time algorithm over a join tree (Thms 3.1, 3.8, 3.13)
//! asks the same two questions of each row: which group of its node's
//! parent key is it in, and which group of each child does it join? Both
//! answers depend on the data and the tree edge only — not on the head,
//! the semiring or the weights — so they are computed once per edge, as
//! dense `u32` group ids ([`EdgeLinks`]), and memoized: the fold itself
//! ([`crate::count`]) is then array passes with no hashing and no key
//! copies, at 4 bytes per row per edge end.
//!
//! [`join_index`] memoizes one [`JoinIndex`] per query *body* (`COUNT`
//! and `DECIDE` of one body share it). It holds `Arc`s to one artifact
//! per tree edge, each reading only the two relations of its edge: a
//! write to a relation outside the body invalidates nothing, a write to
//! `R1` rebuilds the edges `R1` is an end of.

use crate::bind::{collapse_rel, distinct_vars, validate_atom, EvalError};
use crate::ctx::ExecCtx;
use crate::yannakakis::{join_tree_of, shared_cols_of};
use cq_core::{ConjunctiveQuery, JoinTree, Var};
use cq_data::{Database, FxHashMap, Relation, Val};
use std::fmt::Write;
use std::sync::Arc;

/// The link of a parent row that joins no row of the child.
pub(crate) const NONE: u32 = u32::MAX;

/// The links of one tree edge parent → child, keyed on the variables the
/// two share. Group ids are dense: `0..groups`, numbered in the order
/// the child's rows first show each key — so over a child sorted by its
/// key columns the groups are runs and `own` is monotone.
#[derive(Debug)]
pub(crate) struct EdgeLinks {
    /// Per child row (the bound relation's own order): its key group.
    pub(crate) own: Vec<u32>,
    /// Number of distinct keys among the child's rows.
    pub(crate) groups: usize,
    /// Per parent row: the child group of the same key, or `NONE`.
    pub(crate) link: Vec<u32>,
}

impl EdgeLinks {
    /// Link `parent`'s rows (key columns `pcols`) to the key groups of
    /// `child`'s (key columns `ccols`, pairwise the same variables). A
    /// nullary key puts every child row in one group. Keys are folded in
    /// one column at a time — (group so far, next value) → next group —
    /// through one transient table, so any key width runs the same code
    /// and nothing is boxed.
    pub(crate) fn build(
        parent: &Relation,
        pcols: &[usize],
        child: &Relation,
        ccols: &[usize],
    ) -> EdgeLinks {
        assert_eq!(pcols.len(), ccols.len(), "key length mismatch");
        assert!(
            u32::try_from(child.len()).is_ok_and(|n| n != NONE),
            "links index groups with u32"
        );
        let mut own = vec![0u32; child.len()];
        let mut groups = usize::from(!child.is_empty());
        let mut link = vec![if groups == 0 { NONE } else { 0 }; parent.len()];
        let mut ids: FxHashMap<(u32, Val), u32> = FxHashMap::default();
        for (&pc, &cc) in pcols.iter().zip(ccols) {
            ids.clear();
            // transient, so sized for the worst case up front: growing
            // by rehash costs a third of the build
            ids.reserve(child.len());
            for (i, g) in own.iter_mut().enumerate() {
                let next = ids.len() as u32;
                *g = *ids.entry((*g, child.row(i)[cc])).or_insert(next);
            }
            groups = ids.len();
            for (i, g) in link.iter_mut().enumerate() {
                if *g != NONE {
                    *g = ids.get(&(*g, parent.row(i)[pc])).copied().unwrap_or(NONE);
                }
            }
        }
        EdgeLinks { own, groups, link }
    }
}

/// One tree edge as the fold ([`crate::count::sum_product`]) reads it:
/// [`EdgeLinks`]' three fields, borrowed — from a [`JoinLinks`], or from
/// a node of the reduced tree, whose groups are runs of its rows.
#[derive(Clone, Copy)]
pub(crate) struct Edge<'a> {
    pub(crate) own: &'a [u32],
    pub(crate) groups: usize,
    pub(crate) link: &'a [u32],
}

/// A join tree with the links of its every edge.
#[derive(Debug)]
pub(crate) struct JoinLinks {
    tree: JoinTree,
    /// Per node: the edge from its parent (`None` at the root).
    edges: Vec<Option<Arc<EdgeLinks>>>,
}

impl JoinLinks {
    /// The links of `tree` whose node `u` has the distinct variables and
    /// the rows `node(u)`, built now and kept by nobody (a body's memoized
    /// links are [`join_index`]'s).
    pub(crate) fn of<'a>(
        tree: &JoinTree,
        node: impl Fn(usize) -> (&'a [Var], &'a Relation),
    ) -> Self {
        let edge = |c: usize| {
            let ((pvars, prel), (cvars, crel)) = (node(tree.parent(c)?), node(c));
            let (pcols, ccols) = shared_cols_of(pvars, cvars);
            Some(Arc::new(EdgeLinks::build(prel, &pcols, crel, &ccols)))
        };
        JoinLinks { edges: (0..tree.n_nodes()).map(edge).collect(), tree: tree.clone() }
    }

    /// The tree the links run along.
    pub(crate) fn tree(&self) -> &JoinTree {
        &self.tree
    }

    /// The links of the edge from `u`'s parent to `u` (`None` at the
    /// root).
    pub(crate) fn edge(&self, u: usize) -> Option<Edge<'_>> {
        let e = self.edges[u].as_deref()?;
        Some(Edge { own: &e.own, groups: e.groups, link: &e.link })
    }
}

/// The memoized join index of a query body: its join tree, the links of
/// every edge, and the collapsed relation of each atom with repeated
/// variables. Atoms without repeats read the stored relation in place.
#[derive(Debug)]
pub(crate) struct JoinIndex {
    links: JoinLinks,
    collapsed: Vec<Option<Arc<Relation>>>,
}

impl JoinIndex {
    /// The tree and its links.
    pub(crate) fn links(&self) -> &JoinLinks {
        &self.links
    }

    /// The bound relation of every atom of `q`, in atom order, over
    /// `db` — the database this index was just looked up for, so every
    /// atom is present.
    pub(crate) fn rels<'a>(
        &'a self,
        q: &ConjunctiveQuery,
        db: &'a Database,
    ) -> Vec<&'a Relation> {
        bound_rels(&self.collapsed, q, db)
    }
}

fn bound_rels<'a>(
    collapsed: &'a [Option<Arc<Relation>>],
    q: &ConjunctiveQuery,
    db: &'a Database,
) -> Vec<&'a Relation> {
    let stored =
        |atom: &cq_core::Atom| db.get(&atom.relation).expect("validated at build");
    let bound = collapsed.iter().zip(q.atoms());
    bound.map(|(c, atom)| c.as_deref().unwrap_or_else(|| stored(atom))).collect()
}

/// The [`JoinIndex`] of `q`'s body over `db`, memoized in `ctx`'s
/// catalog: a warm call is one lookup. Atoms are validated in atom
/// order first, so a missing relation or an arity mismatch is reported
/// exactly as [`crate::bind()`] reports it; a cyclic body is
/// [`EvalError::NotAcyclic`].
pub(crate) fn join_index(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<Arc<JoinIndex>, EvalError> {
    let catalog = ctx.catalog();
    // the body with variables by index: what the tree and the key
    // columns are functions of
    let mut body = String::new();
    for atom in q.atoms() {
        let _ = write!(body, "{}{:?}", atom.relation, atom.vars);
    }
    catalog.artifact(db, "join_index", &body, q.relations(), || {
        // per atom: what names its rows in an edge key, its distinct
        // variables, and its collapsed relation if it repeats one
        let mut ids: Vec<String> = Vec::new();
        let mut vars_of: Vec<Vec<Var>> = Vec::new();
        let mut collapsed: Vec<Option<Arc<Relation>>> = Vec::new();
        for atom in q.atoms() {
            let rel = validate_atom(&atom.relation, &atom.vars, db)?;
            let vars = distinct_vars(&atom.vars);
            if vars.len() == atom.vars.len() {
                ids.push(atom.relation.clone());
                collapsed.push(None);
            } else {
                let id = format!("{}|{:?}", atom.relation, atom.vars);
                let reads = [atom.relation.as_str()];
                let bound = catalog.artifact(db, "bound_rel", &id, reads, || {
                    Ok::<_, EvalError>(collapse_rel(&atom.vars, &vars, rel))
                })?;
                ids.push(id);
                collapsed.push(Some(bound));
            }
            vars_of.push(vars);
        }
        let tree = join_tree_of(q)?;
        let rels = bound_rels(&collapsed, q, db);
        let mut edges = Vec::with_capacity(rels.len());
        for c in 0..rels.len() {
            let Some(p) = tree.parent(c) else {
                edges.push(None);
                continue;
            };
            ctx.cancel().check_now()?;
            let (pcols, ccols) = shared_cols_of(&vars_of[p], &vars_of[c]);
            let key = format!("{}{pcols:?}>{}{ccols:?}", ids[p], ids[c]);
            let reads = [q.atoms()[p].relation.as_str(), q.atoms()[c].relation.as_str()];
            let edge = catalog.artifact(db, "join_link", &key, reads, || {
                Ok::<_, EvalError>(EdgeLinks::build(rels[p], &pcols, rels[c], &ccols))
            })?;
            edges.push(Some(edge));
        }
        Ok(JoinIndex { links: JoinLinks { tree, edges }, collapsed })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{
        bind, brute_force_answers, brute_force_count, brute_force_decide, BoundAtom,
    };
    use crate::cancel::{CancelToken, STRIDE};
    use crate::count::{self, count_acyclic_join, count_free_connex};
    use crate::yannakakis::{decide_acyclic, full_reduce};
    use cq_core::parse_query;
    use cq_data::IndexCatalog;
    use std::borrow::Cow;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// `COUNT` (of a join query) and `DECIDE` of `src` over `db` equal
    /// brute force: one-shot, then cold and warm over one catalog; and
    /// the full reduction along the body's tree keeps exactly the rows
    /// of each atom that extend to an answer of the join.
    fn check(src: &str, db: &Database) {
        let q = parse_query(src).unwrap();
        let (boolean, join) = (q.boolean_version(), q.join_version());
        let all = brute_force_answers(&join, db).unwrap();
        let truth = !all.is_empty();
        let n = brute_force_count(&q, db).unwrap();
        let catalog = IndexCatalog::new();
        for ctx in [ExecCtx::cold(), ExecCtx::warm(&catalog), ExecCtx::warm(&catalog)] {
            assert_eq!(decide_acyclic(&ctx, &boolean, db), Ok(truth), "{src}");
            if q.is_join_query() {
                assert_eq!(count_acyclic_join(&ctx, &q, db), Ok(n), "{src}");
            } else {
                assert_eq!(count_free_connex(&ctx, &q, db), Ok(n), "{src}");
            }
        }
        let built = catalog.snapshot().misses;
        assert!(decide_acyclic(&ExecCtx::warm(&catalog), &boolean, db).is_ok());
        assert_eq!(catalog.snapshot().misses, built, "{src}: a warm fold builds nothing");

        let mut atoms: Vec<Cow<BoundAtom>> =
            bind(&join, db).unwrap().into_iter().map(Cow::Owned).collect();
        let tree = join_tree_of(&join).unwrap();
        let links = JoinLinks::of(&tree, |u| (&atoms[u].vars, &atoms[u].rel));
        full_reduce(&CancelToken::never(), &mut atoms, &links).unwrap();
        let free = join.free_vars();
        for atom in &atoms {
            let cols: Vec<usize> = (atom.vars.iter())
                .map(|v| free.iter().position(|f| f == v).unwrap())
                .collect();
            let want: BTreeSet<Vec<Val>> =
                all.iter().map(|a| cols.iter().map(|&c| a[c]).collect()).collect();
            let kept: BTreeSet<Vec<Val>> = atom.rel.iter().map(<[Val]>::to_vec).collect();
            assert_eq!(kept, want, "{src}: the rows of {:?} that join", atom.vars);
        }
    }

    fn db(rels: &[(&str, Vec<(Val, Val)>)]) -> Database {
        let mut db = Database::new();
        for (name, pairs) in rels {
            db.insert(name, Relation::from_pairs(pairs.clone()));
        }
        db
    }

    #[test]
    fn an_edge_groups_the_child_and_links_the_parent() {
        let parent =
            Relation::from_rows(3, vec![vec![1, 7, 5], vec![2, 8, 5], vec![3, 9, 6]]);
        let child =
            Relation::from_rows(2, vec![vec![5, 7], vec![5, 7], vec![5, 8], vec![4, 9]]);
        // one column: the child's keys 4, 5 in row order
        let e = EdgeLinks::build(&parent, &[2], &child, &[0]);
        assert_eq!((e.own.as_slice(), e.groups), ([0, 1, 1].as_slice(), 2));
        assert_eq!(e.link, [1, 1, NONE]);
        // two columns, listed in different orders on the two sides
        let e = EdgeLinks::build(&parent, &[1, 2], &child, &[1, 0]);
        assert_eq!((e.own.as_slice(), e.groups), ([0, 1, 2].as_slice(), 3));
        assert_eq!(e.link, [1, 2, NONE]);
        // a nullary key: one group, which every parent row links to
        let e = EdgeLinks::build(&parent, &[], &child, &[]);
        assert_eq!((e.own.as_slice(), e.groups), ([0, 0, 0].as_slice(), 1));
        assert_eq!(e.link, [0, 0, 0]);
        // ... unless the child is empty
        let e = EdgeLinks::build(&parent, &[], &Relation::new(2), &[]);
        assert_eq!((e.own.len(), e.groups), (0, 0));
        assert_eq!(e.link, [NONE, NONE, NONE]);
        let e = EdgeLinks::build(&Relation::new(3), &[2], &child, &[0]);
        assert_eq!((e.groups, e.link.len()), (2, 0));
    }

    /// What the reduced tree relies on: over a child sorted by its key
    /// columns the groups are runs, numbered in row order.
    #[test]
    fn a_child_sorted_by_its_key_has_its_groups_as_runs() {
        let parent = Relation::from_rows(
            4,
            vec![vec![0, 3, 1, 2], vec![1, 3, 1, 2], vec![2, 9, 1, 1], vec![3, 1, 1, 1]],
        );
        let child = Relation::from_rows(
            4,
            vec![
                vec![1, 1, 1, 7],
                vec![1, 1, 1, 8],
                vec![1, 1, 2, 0],
                vec![1, 2, 3, 0],
                vec![1, 2, 3, 4],
                vec![1, 2, 3, 5],
                vec![2, 0, 0, 0],
            ],
        );
        // a three-column key: the child's columns 0, 1, 2 are the parent's
        // 2, 3, 1 — and a relation is sorted by its columns in order
        let e = EdgeLinks::build(&parent, &[2, 3, 1], &child, &[0, 1, 2]);
        assert_eq!((e.own.as_slice(), e.groups), ([0, 0, 1, 2, 2, 2, 3].as_slice(), 4));
        assert!(e.own.is_sorted());
        // `starts` = the run boundaries: rows 0, 2, 3, 6
        let starts: Vec<usize> =
            (0..e.own.len()).filter(|&i| i == 0 || e.own[i] != e.own[i - 1]).collect();
        assert_eq!(starts, [0, 2, 3, 6]);
        assert_eq!(e.link, [2, 2, NONE, 0]);
        // keyed on a non-prefix column the same rows are not runs
        let e = EdgeLinks::build(&parent, &[0], &child, &[3]);
        assert_eq!(e.own, [0, 1, 2, 2, 3, 4, 2]);
        assert_eq!(e.link, [2, NONE, NONE, NONE]);
    }

    /// `q(x, y) :- A(x), B(y)`: the tree edge of a disconnected body has
    /// a nullary key — every row of `B` is the one group every row of
    /// `A` links to, and the walk is the cross product, in access order.
    #[test]
    fn a_disconnected_body_walks_the_one_group_of_its_nullary_key() {
        let q = parse_query("q(x, y) :- A(x), B(y)").unwrap();
        let mut data = Database::new();
        data.insert("A", Relation::from_values(vec![3, 1, 2]));
        data.insert("B", Relation::from_values(vec![8, 9]));
        let walk = |data: &Database| {
            let da = crate::enumerate::preprocess(&ExecCtx::cold(), &q, data).unwrap();
            let mut stream = crate::Answers::walk(Arc::clone(&da));
            let rows: Vec<Vec<Val>> =
                std::iter::from_fn(|| stream.next().unwrap().map(<[Val]>::to_vec))
                    .collect();
            let accessed: Vec<Vec<Val>> = (0..crate::DirectAccess::len(&*da))
                .map(|i| crate::DirectAccess::access(&*da, i).unwrap())
                .collect();
            assert_eq!(rows, accessed);
            rows
        };
        // in the order the tree chose: its root's variable first
        let mut rows = walk(&data);
        assert!(rows.is_sorted() || rows.is_sorted_by_key(|r| (r[1], r[0])));
        rows.sort();
        assert_eq!(rows, [[1, 8], [1, 9], [2, 8], [2, 9], [3, 8], [3, 9]]);
        check("q(x, y) :- A(x), B(y)", &data);
        // an empty child links every parent row to `NONE`
        data.insert("B", Relation::new(1));
        assert!(walk(&data).is_empty());
        check("q(x, y) :- A(x), B(y)", &data);
    }

    /// `left ⋉ right` read off one edge's links: the rows of `left` whose
    /// `lcols` link to a group of `right` by its `rcols`.
    fn linked_rows(
        left: &Relation,
        lcols: &[usize],
        right: &Relation,
        rcols: &[usize],
    ) -> Relation {
        let mut link = EdgeLinks::build(left, lcols, right, rcols).link.into_iter();
        left.filter(|_| link.next() != Some(NONE))
    }

    fn left() -> Relation {
        Relation::from_rows(2, vec![vec![1, 10], vec![2, 20], vec![3, 30]])
    }

    #[test]
    fn keep_linked_is_the_semijoin() {
        let right = Relation::from_rows(2, vec![vec![99, 1], vec![98, 3]]);
        let out = linked_rows(&left(), &[0], &right, &[1]);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&[1, 10]) && out.contains(&[3, 30]));
    }

    #[test]
    fn keep_linked_on_multi_column_keys() {
        let right = Relation::from_rows(2, vec![vec![1, 10]]);
        let out = linked_rows(&left(), &[0, 1], &right, &[0, 1]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn keep_linked_on_the_empty_key_is_the_cross_filter() {
        let l = left();
        let nonempty = Relation::from_values(vec![7]);
        let empty = Relation::new(1);
        assert_eq!(linked_rows(&l, &[], &nonempty, &[]).len(), 3);
        assert_eq!(linked_rows(&l, &[], &empty, &[]).len(), 0);
    }

    #[test]
    fn keep_linked_with_an_empty_right_side() {
        let right = Relation::new(1);
        assert!(linked_rows(&left(), &[0], &right, &[0]).is_empty());
    }

    #[test]
    #[should_panic(expected = "key length mismatch")]
    fn an_edge_checks_the_key_length() {
        let rel = Relation::from_pairs(vec![(1, 10), (2, 20)]);
        let _ = EdgeLinks::build(&rel, &[0, 1], &rel, &[0]);
    }

    #[test]
    fn nullary_keys_join_disconnected_bodies_through_one_group() {
        let data = db(&[
            ("R", vec![(1, 2), (3, 4), (5, 6)]),
            ("S", vec![(7, 8), (9, 9)]),
            ("T", vec![(8, 1), (2, 2)]),
        ]);
        check("q(x, y, u, v) :- R(x, y), S(u, v)", &data);
        check("q(x, y, u, v, w) :- R(x, y), S(u, v), T(v, w)", &data);
        check("q(x, y, u, v, a, b) :- R(x, y), S(u, v), T(a, b)", &data);
    }

    #[test]
    fn an_empty_relation_anywhere_in_the_tree_empties_the_answer() {
        for empty in ["R1", "R2", "R3"] {
            let mut data = db(&[
                ("R1", vec![(1, 2), (2, 2)]),
                ("R2", vec![(2, 3), (2, 4)]),
                ("R3", vec![(3, 5), (4, 5)]),
            ]);
            data.insert(empty, Relation::new(2));
            check("q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)", &data);
            check("q(a, b, c, d, e) :- R1(a, b), R2(b, c), R3(d, e)", &data);
            check("q(a) :- R1(a, b), R2(a, c), R3(a, d)", &data);
        }
    }

    #[test]
    fn repeated_variables_link_over_the_collapsed_relation() {
        let data = db(&[
            ("R", vec![(1, 1), (1, 2), (2, 2), (3, 4), (4, 4)]),
            ("S", vec![(1, 5), (2, 6), (4, 4), (9, 9)]),
        ]);
        check("q(x, y) :- R(x, x), S(x, y)", &data);
        check("q(x, y) :- R(x, x), R(x, y)", &data);
        check("q(x, y) :- R(x, y), S(y, y)", &data);
        check("q(x) :- R(x, x), S(x, x)", &data);
        // the stored relation is read in place, the collapsed one is not it
        let q = parse_query("q(x, y) :- R(x, x), S(x, y)").unwrap();
        let catalog = IndexCatalog::new();
        let index = join_index(&ExecCtx::warm(&catalog), &q, &data).unwrap();
        let rels = index.rels(&q, &data);
        assert_eq!(rels[0].len(), 3, "R(x, x) keeps (1), (2), (4)");
        assert!(std::ptr::eq(rels[1], data.get("S").unwrap()));
    }

    #[test]
    fn self_joins_link_a_relation_to_itself() {
        let data = db(&[("R", vec![(1, 2), (2, 3), (3, 1), (3, 3), (7, 8)])]);
        check("q(x, y, z) :- R(x, y), R(y, z)", &data);
        check("q(x, y, z, w) :- R(x, y), R(y, z), R(z, w)", &data);
        check("q(x, y) :- R(x, y), R(y, x)", &data);
        check("q(x, y) :- R(x, y), R(x, y)", &data);
    }

    #[test]
    fn a_dangling_only_child_links_nothing() {
        let data = db(&[
            ("R1", vec![(1, 2), (2, 3)]),
            ("R2", vec![(7, 1), (8, 1)]),
            ("R3", vec![(1, 4)]),
        ]);
        check("q(a, b, c) :- R1(a, b), R2(b, c)", &data);
        check("q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)", &data);
        let q = parse_query("q(a, b, c) :- R1(a, b), R2(b, c)").unwrap();
        let index = join_index(&ExecCtx::cold(), &q, &data).unwrap();
        let links = index.links();
        let child = (0..2).find(|&u| links.tree().parent(u).is_some()).unwrap();
        assert!(links.edge(child).unwrap().link.iter().all(|&g| g == NONE));
    }

    /// `m` distinct rows of `arity` columns for relation number `r`: a
    /// core of at most `core` random rows over four values, which join
    /// the other relations' cores, and noise rows that join nothing —
    /// each repeats a value no other relation holds. Core values are spread
    /// over the noise's range, so in sorted order the joining rows fall
    /// in different blocks of a large relation.
    fn cored(r: u64, arity: usize, m: usize, core: usize) -> Relation {
        use rand::Rng;
        let mut rng = cq_data::generate::seeded_rng(r + 10 * m as u64);
        let step = 8 * (m as Val / 4);
        let core: BTreeSet<Vec<Val>> = (0..m.min(core))
            .map(|_| (0..arity).map(|_| step * rng.gen_range(0..4 as Val)).collect())
            .collect();
        let noise = (0..m - core.len()).map(|i| vec![8 * i as Val + 1 + r; arity]);
        Relation::from_rows(arity, core.into_iter().chain(noise))
    }

    /// The fold's block passes against brute force at every fill of a
    /// block — one row, one short of a block, exactly one, one over, and
    /// many — over a path (nodes of at most two children) and a star
    /// whose centre has three, each node with rows that dangle, rows that
    /// link, and groups of several rows; then with a relation of each
    /// query all noise, so that nothing joins.
    #[test]
    fn every_block_fill_folds_like_brute_force() {
        let path = "q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)";
        let star = "q(x, y, z, a, b, c) :- A(x, a), B(y, b), D(z, c), C(x, y, z)";
        let kids = |src: &str| {
            let tree = join_tree_of(&parse_query(src).unwrap()).unwrap();
            (0..tree.n_nodes()).map(|u| tree.children(u).len()).max()
        };
        assert_eq!(kids(star), Some(3), "the centre is the root");
        for m in [1, 255, 256, 257, 5_000] {
            let mut data = Database::new();
            for (r, name) in ["R1", "R2", "R3", "A", "B", "D"].into_iter().enumerate() {
                data.insert(name, cored(r as u64, 2, m, 10));
            }
            data.insert("C", cored(6, 3, m, 10));
            assert!(data.iter().all(|(_, rel)| rel.len() == m));
            check(path, &data);
            check(star, &data);
            data.insert("R2", cored(1, 2, m, 0));
            data.insert("D", cored(5, 2, m, 0));
            check(path, &data);
            check(star, &data);
        }
    }

    #[test]
    fn a_deadline_tripping_mid_pass_cancels_the_fold() {
        // three relations of ten blocks each; the probe lets the first
        // consultations through — the build's and the first node's —
        // and trips inside a later pass
        let rows = 10 * STRIDE as Val;
        let chain = || (0..rows).map(|i| (i, i)).collect::<Vec<_>>();
        let data = db(&[("R1", chain()), ("R2", chain()), ("R3", chain())]);
        let q = parse_query("q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)").unwrap();
        let catalog = IndexCatalog::new();
        assert_eq!(count_acyclic_join(&ExecCtx::warm(&catalog), &q, &data), Ok(rows));
        for budget in [0u32, 1, 5, 17, 29] {
            let consulted = AtomicU32::new(0);
            let token = CancelToken::never()
                .with_probe(move || consulted.fetch_add(1, Ordering::Relaxed) >= budget);
            let ctx = ExecCtx::new(&catalog, &token);
            assert_eq!(count_acyclic_join(&ctx, &q, &data), Err(EvalError::Cancelled));
            // at most one block of rows was polled past the trip
            let polled = token.polls();
            assert!(
                polled <= u64::from(budget + 1) * u64::from(STRIDE),
                "{budget}: {polled}"
            );
            assert!(token.is_cancelled());
        }
        // the same passes run to the end under a token that never trips
        let token = CancelToken::never();
        let ctx = ExecCtx::new(&catalog, &token);
        assert_eq!(count_acyclic_join(&ctx, &q, &data), Ok(rows));
        assert_eq!(token.polls(), 3 * rows);
        assert_eq!(decide_acyclic(&ctx, &q.boolean_version(), &data), Ok(true));
    }

    /// The join index of a body is one entry holding one link artifact per
    /// tree edge, each reading the two relations of its edge only: `COUNT`
    /// and `DECIDE` of one body share the entry, a write to a relation
    /// outside the body moves nothing, and a write to `R1` rebuilds the
    /// edge `R1` is an end of — the other stays pointer-equal.
    #[test]
    fn a_write_rebuilds_only_the_links_of_the_edges_it_touches() {
        let count = parse_query("q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)").unwrap();
        let decide = parse_query("q() :- R1(a, b), R2(b, c), R3(c, d)").unwrap();
        let mut db = Database::new();
        for (i, name) in ["R1", "R2", "R3"].into_iter().enumerate() {
            db.insert(name, random_rel(2, 30, 40 + i as u64));
        }
        db.insert("Log", Relation::new(2));
        let catalog = IndexCatalog::new();
        let ctx = ExecCtx::warm(&catalog);
        // the link artifact between two atoms' relations, whichever is parent
        let link = |db: &Database, a: &str, b: &str| -> Arc<EdgeLinks> {
            let index = join_index(&ctx, &count, db).unwrap();
            let links = index.links();
            let name = |u: usize| count.atoms()[u].relation.as_str();
            let edge = (0..3).find(|&u| {
                let ends = links.tree().parent(u).map(|p| [name(p), name(u)]);
                ends.is_some_and(|ends| ends == [a, b] || ends == [b, a])
            });
            let edge = edge.expect("a path's neighbours share an edge");
            Arc::clone(links.edges[edge].as_ref().unwrap())
        };
        let check = |db: &Database| {
            assert_eq!(
                count::count_acyclic_join(&ctx, &count, db).unwrap(),
                brute_force_count(&count, db).unwrap()
            );
            assert_eq!(
                crate::yannakakis::decide_acyclic(&ctx, &decide, db).unwrap(),
                brute_force_decide(&decide, db).unwrap()
            );
        };
        check(&db);
        let cold = catalog.snapshot();
        assert_eq!((cold.misses, cold.artifacts), (3, 3), "one body entry, two edges");
        let whole = join_index(&ctx, &decide, &db).unwrap();
        assert!(Arc::ptr_eq(&whole, &join_index(&ctx, &count, &db).unwrap()));
        let (r12, r23) = (link(&db, "R1", "R2"), link(&db, "R2", "R3"));

        db.get_mut("Log").unwrap().insert_row(&[1, 1]);
        check(&db);
        assert!(Arc::ptr_eq(&whole, &join_index(&ctx, &count, &db).unwrap()));
        assert!(Arc::ptr_eq(&r12, &link(&db, "R1", "R2")));
        assert!(Arc::ptr_eq(&r23, &link(&db, "R2", "R3")));
        assert_eq!(
            catalog.snapshot().misses,
            cold.misses,
            "a `Log` write builds nothing"
        );

        db.get_mut("R1").unwrap().insert_row(&[7, 7]);
        check(&db);
        assert!(!Arc::ptr_eq(&whole, &join_index(&ctx, &count, &db).unwrap()));
        assert!(!Arc::ptr_eq(&r12, &link(&db, "R1", "R2")));
        assert!(Arc::ptr_eq(&r23, &link(&db, "R2", "R3")));
        let rebuilt = catalog.snapshot();
        assert_eq!(rebuilt.misses, cold.misses + 2, "the body entry and R1's edge");
        assert_eq!(rebuilt.artifacts, 3, "rebuilt entries replace");
    }

    fn random_rel(arity: usize, rows: usize, seed: u64) -> Relation {
        let mut rng = cq_data::generate::seeded_rng(seed);
        use rand::Rng;
        Relation::from_rows(
            arity,
            (0..rows)
                .map(|_| (0..arity).map(|_| rng.gen_range(0..8 as Val)).collect())
                .collect::<Vec<_>>(),
        )
    }
}
