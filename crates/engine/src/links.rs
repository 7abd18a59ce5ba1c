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
//! [`JoinLinks::memoized`] keeps one artifact per tree edge, keyed by
//! the names of its two ends' rows and read from their relations only:
//! the links of `q'` and of the subtrees projection elimination folds
//! (`count::free_links`) are built once per edge, every verb over `q'` —
//! `DECIDE`, `COUNT`, `ANSWERS` and `ACCESS` in any order — shares the
//! edges it has in common with the others, and a write to `R1` rebuilds
//! the edges `R1` is an end of.

use crate::bind::{BoundAtom, EvalError};
use crate::ctx::ExecCtx;
use crate::yannakakis::shared_cols_of;
use cq_core::{ConjunctiveQuery, JoinTree, Var};
use cq_data::{Database, FxHashMap, Relation, Val};
use std::borrow::Cow;
use std::fmt;
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
    /// The links of `tree` whose node `u` is `node(u)`, each edge looked
    /// up in — or built into — `ctx`'s catalog, keyed by the names of its
    /// ends' rows and their key columns, and reading their relations.
    /// With the rows the edges built here visited (a parent's and a
    /// child's per edge). The token is polled per edge.
    pub(crate) fn memoized<'a>(
        ctx: &ExecCtx,
        db: &Database,
        tree: &JoinTree,
        node: impl Fn(usize) -> Named<'a>,
    ) -> Result<(Self, u64), EvalError> {
        let mut steps = 0;
        let mut edges = Vec::with_capacity(tree.n_nodes());
        for c in 0..tree.n_nodes() {
            let Some(p) = tree.parent(c) else {
                edges.push(None);
                continue;
            };
            ctx.cancel().check_now()?;
            let (parent, child) = (node(p), node(c));
            let (pcols, ccols) = shared_cols_of(parent.vars, child.vars);
            let key = format_args!("{}{pcols:?}>{}{ccols:?}", parent.id, child.id);
            let reads = parent.reads.iter().chain(&child.reads).copied();
            let edge = ctx.catalog().artifact(db, "join_link", key, reads, || {
                steps += (parent.rel.len() + child.rel.len()) as u64;
                Ok::<_, EvalError>(EdgeLinks::build(
                    parent.rel, &pcols, child.rel, &ccols,
                ))
            })?;
            edges.push(Some(edge));
        }
        Ok((JoinLinks { tree: tree.clone(), edges }, steps))
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

/// A tree node as [`JoinLinks::memoized`] names it: `id` names its rows
/// — a stored relation, or a product derived from the relations `reads`
/// — which are `rel`, over the distinct variables `vars`.
pub(crate) struct Named<'a> {
    pub(crate) id: Id<'a>,
    pub(crate) reads: Vec<&'a str>,
    pub(crate) vars: &'a [Var],
    pub(crate) rel: &'a Relation,
}

impl<'a> Named<'a> {
    /// Atom `u` of `q`, bound as `atom`: named by its relation, and a
    /// collapse of one by the atom's variables too.
    pub(crate) fn atom(q: &'a ConjunctiveQuery, u: usize, atom: &'a BoundAtom) -> Self {
        let a = &q.atoms()[u];
        let id = match atom.rel {
            Cow::Borrowed(_) => Id::Stored(&a.relation),
            Cow::Owned(_) => Id::Collapse(&a.relation, &a.vars),
        };
        Named { id, reads: vec![a.relation.as_str()], vars: &atom.vars, rel: &atom.rel }
    }
}

/// What a node's rows are, as the keys of its edges' links name them.
#[derive(Clone, Copy)]
pub(crate) enum Id<'a> {
    /// A stored relation, read in place.
    Stored(&'a str),
    /// A relation collapsed by an atom's repeated variables.
    Collapse(&'a str, &'a [Var]),
    /// The message of child `.1` of the elimination tree's root of `.0`.
    Msg(&'a ConjunctiveQuery, usize),
}

impl fmt::Display for Id<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Id::Stored(name) => f.write_str(name),
            Id::Collapse(name, vars) => write!(f, "{name}|{vars:?}"),
            Id::Msg(q, c) => write!(f, "{q}|{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{brute_force_answers, brute_force_count, brute_force_decide};
    use crate::cancel::{CancelToken, STRIDE};
    use crate::count::{count_free_connex, free_links, FreeLinks};
    use crate::yannakakis::{decide_acyclic, reduce_q_prime};
    use cq_core::{parse_query, ConjunctiveQuery};
    use cq_data::IndexCatalog;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// `COUNT` and `DECIDE` of `src` over `db` equal brute force:
    /// one-shot, then cold and warm over one catalog; and the full
    /// reduction of the join's `q'` keeps exactly the rows of each of its
    /// atoms that extend to an answer of the join.
    fn check(src: &str, db: &Database) {
        let q = parse_query(src).unwrap();
        let (boolean, join) = (q.boolean_version(), q.join_version());
        let all = brute_force_answers(&join, db).unwrap();
        let truth = !all.is_empty();
        let n = brute_force_count(&q, db).unwrap();
        let catalog = IndexCatalog::new();
        for ctx in [ExecCtx::cold(), ExecCtx::warm(&catalog), ExecCtx::warm(&catalog)] {
            assert_eq!(decide_acyclic(&ctx, &boolean, db), Ok(truth), "{src}");
            assert_eq!(count_free_connex(&ctx, &q, db), Ok(n), "{src}");
        }
        let built = catalog.snapshot().misses;
        assert!(decide_acyclic(&ExecCtx::warm(&catalog), &boolean, db).is_ok());
        assert_eq!(catalog.snapshot().misses, built, "{src}: a warm fold builds nothing");

        let linked = free_links(&ExecCtx::cold(), &join, db, &mut None).unwrap();
        let (atoms, _, _) =
            reduce_q_prime(&CancelToken::never(), &join, db, &linked).unwrap();
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

    /// The `q'` of `src` over `db`, satisfiable and with atoms.
    fn q_prime(ctx: &ExecCtx, q: &ConjunctiveQuery, db: &Database) -> Arc<FreeLinks> {
        let linked = free_links(ctx, q, db, &mut None).unwrap();
        assert!(matches!(&*linked, Some((_, Some(_)))), "{q}: q' has atoms");
        linked
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
        // R(x, x) under S: S's message is S ⋉ R(x, x), which drops (9, 9)
        let ctx = ExecCtx::cold();
        let q = parse_query("q(x, y) :- R(x, x), S(x, y)").unwrap();
        let linked = q_prime(&ctx, &q, &data);
        let Some((msgs, _)) = &*linked else { unreachable!() };
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].rel(&q, &data).len(), 3);
        // both children of the free edge: S is read in place, R(x, x) as
        // its collapse, (1), (2), (4)
        let q = parse_query("q(x, y) :- S(x, y), R(x, x)").unwrap();
        let linked = q_prime(&ctx, &q, &data);
        let Some((msgs, _)) = &*linked else { unreachable!() };
        let rels: Vec<&Relation> = msgs.iter().map(|m| m.rel(&q, &data)).collect();
        assert!(std::ptr::eq(rels[0], data.get("S").unwrap()));
        assert_eq!(rels[1], &Relation::from_values(vec![1, 2, 4]));
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
        let linked = q_prime(&ExecCtx::cold(), &q, &data);
        let Some((_, Some(links))) = &*linked else { unreachable!() };
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
        for m in [1, 255, 256, 257, 5_000] {
            let mut data = Database::new();
            for (r, name) in ["R1", "R2", "R3", "A", "B", "D"].into_iter().enumerate() {
                data.insert(name, cored(r as u64, 2, m, 10));
            }
            data.insert("C", cored(6, 3, m, 10));
            assert!(data.iter().all(|(_, rel)| rel.len() == m));
            if m == 1 {
                // one row of zeros each: everything joins, and the centre
                // of the star is the root of q''s tree
                let q = parse_query(star).unwrap();
                let linked = q_prime(&ExecCtx::cold(), &q, &data);
                let Some((_, Some(links))) = &*linked else { unreachable!() };
                let tree = links.tree();
                let kids = (0..tree.n_nodes()).map(|u| tree.children(u).len()).max();
                assert_eq!(kids, Some(3));
            }
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
        // q' is warm, the count is not: every count below folds
        let catalog = IndexCatalog::new();
        q_prime(&ExecCtx::warm(&catalog), &q, &data);
        for budget in [0u32, 1, 5, 17, 29] {
            let consulted = AtomicU32::new(0);
            let token = CancelToken::never()
                .with_probe(move || consulted.fetch_add(1, Ordering::Relaxed) >= budget);
            let ctx = ExecCtx::new(&catalog, &token);
            assert_eq!(count_free_connex(&ctx, &q, &data), Err(EvalError::Cancelled));
            // at most one block of rows was polled past the trip
            let polled = token.polls();
            assert!(
                polled <= u64::from(budget + 1) * u64::from(STRIDE),
                "{budget}: {polled}"
            );
            assert!(token.is_cancelled());
        }
        // a cancelled count left no entry: the same passes run to the end
        // under a token that never trips
        let token = CancelToken::never();
        let ctx = ExecCtx::new(&catalog, &token);
        assert_eq!(count_free_connex(&ctx, &q, &data), Ok(rows));
        assert_eq!(token.polls(), 3 * rows);
        assert_eq!(decide_acyclic(&ctx, &q.boolean_version(), &data), Ok(true));
    }

    /// Every edge of `q'`'s tree and of the subtrees elimination folds is
    /// an artifact of its own, reading the two relations of its edge only:
    /// `COUNT` and `DECIDE` of one body share the edges they have in
    /// common, a write to a relation outside the body builds nothing, and a
    /// write to `R1` rebuilds `q'`, the message of `R1`'s subtree and
    /// `R1`'s edge — the other edge stays pointer-equal.
    #[test]
    fn a_write_rebuilds_only_the_links_of_the_edges_it_touches() {
        let count = parse_query("q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)").unwrap();
        let decide = count.boolean_version();
        let mut data = Database::new();
        for (i, name) in ["R1", "R2", "R3"].into_iter().enumerate() {
            data.insert(name, random_rel(2, 30, 40 + i as u64));
        }
        data.insert("Log", Relation::new(2));
        // the links of q' for COUNT: R1 under R2 under R3, in place
        let edges = |ctx: &ExecCtx, db: &Database| -> [Arc<EdgeLinks>; 2] {
            let linked = q_prime(ctx, &count, db);
            let Some((_, Some(links))) = &*linked else { unreachable!() };
            assert_eq!(
                (links.tree().parent(0), links.tree().parent(1)),
                (Some(1), Some(2))
            );
            [0, 1].map(|u| Arc::clone(links.edges[u].as_ref().unwrap()))
        };
        // COUNT: q', its two edges and the count; DECIDE: q', the message
        // of the one subtree, and the same two edges; both: the edges once.
        // After a write to R1 each rebuilds q', COUNT its count, DECIDE its
        // message, and R1's edge is rebuilt once.
        for (verbs, cold, rebuilt) in
            [(&["COUNT"][..], 4, 3), (&["DECIDE"], 4, 3), (&["COUNT", "DECIDE"], 6, 5)]
        {
            let mut db = data.clone();
            let catalog = IndexCatalog::new();
            let ctx = ExecCtx::warm(&catalog);
            let run = |db: &Database| {
                for &verb in verbs {
                    match verb {
                        "COUNT" => assert_eq!(
                            count_free_connex(&ctx, &count, db),
                            brute_force_count(&count, db)
                        ),
                        _ => assert_eq!(
                            decide_acyclic(&ctx, &decide, db),
                            brute_force_decide(&decide, db)
                        ),
                    }
                }
            };
            run(&db);
            let built = catalog.snapshot();
            assert_eq!((built.misses, built.artifacts as u64), (cold, cold), "{verbs:?}");
            let [r12, r23] = edges(&ExecCtx::warm(&catalog), &db);
            let before = catalog.snapshot();

            db.get_mut("Log").unwrap().insert_row(&[1, 1]);
            run(&db);
            assert_eq!(
                catalog.snapshot().misses,
                before.misses,
                "{verbs:?}: a `Log` write"
            );

            db.get_mut("R1").unwrap().insert_row(&[7, 7]);
            run(&db);
            let after = catalog.snapshot();
            assert_eq!(after.misses, before.misses + rebuilt, "{verbs:?}");
            assert_eq!(
                after.artifacts, before.artifacts,
                "{verbs:?}: rebuilt entries replace"
            );
            let [n12, n23] = edges(&ExecCtx::warm(&catalog), &db);
            assert!(!Arc::ptr_eq(&r12, &n12), "{verbs:?}: R1's edge is rebuilt");
            assert!(Arc::ptr_eq(&r23, &n23), "{verbs:?}: R2–R3 is untouched");
        }
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
