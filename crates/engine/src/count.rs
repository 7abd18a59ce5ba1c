//! Counting query answers (Theorems 3.8 and 3.13) — and `q'`, the one
//! product the whole easy side runs on.
//!
//! `free_links` is projection elimination: it eliminates the quantified
//! variables along a join tree of `H ∪ {free}` rooted at the virtual
//! free edge, producing `q'`, an acyclic join query over exactly the
//! free variables (see the discussion in [14, §4.1]), with the links of
//! its join tree. Each child of the virtual root sends its rows that
//! join its subtree — found by the upward pass of the full reduction,
//! which is the one fold, `sum_product`, at the Boolean semiring —
//! projected onto its key; a child that keeps every row over all of its
//! variables is its atom's relation, read in place. `q'` is derived
//! once, memoized, and read five ways: `DECIDE` (Thm 3.1,
//! [`crate::yannakakis::decide_acyclic`]) asks whether the Boolean
//! version has one — its free edge is empty, so every message is
//! nullary; [`count_free_connex`] runs the counting DP over it, for a
//! join query (Thm 3.8, whose `q'` is its atoms) and a projection
//! (Thm 3.13) alike; [`crate::LexDirectAccess::free_connex`] reduces
//! and sorts it into the tree that enumeration walks (Thm 3.17) and
//! direct access descends (Thm 3.18); and [`crate::LexDirectAccess::build`]
//! reduces a join query's the same way, sorting it into its order's
//! layered tree (Thm 3.24).
//!
//! Cross-algorithm dispatch lives in `cq-planner`, which picks between
//! these entry points and the generic-join materialization baseline of
//! Lemma 3.9 / Cor 3.11 from the query's classification.

use crate::aggregate::{BooleanSemiring, CountingSemiring, Semiring};
use crate::bind::{bind_atom, distinct_vars, validate_atom, EvalError};
use crate::cancel::{CancelToken, STRIDE};
use crate::ctx::ExecCtx;
use crate::links::{Edge, Id, JoinLinks, Named};
use cq_core::{ConjunctiveQuery, Hypergraph, JoinTree, Var};
use cq_data::{Database, Relation};
use std::borrow::Cow;
use std::mem::take;
use std::sync::Arc;

/// What [`sum_product`] returns: the aggregate, per node the products of
/// its rows it kept, and the steps it took.
pub(crate) type Folded<T> = (T, Vec<Vec<T>>, u64);

/// **The** bottom-up pass over a join tree — the sum-product DP at
/// semiring `sr` behind `DECIDE`, `COUNT`, every semijoin and the
/// direct-access weights: each node aggregates, per parent-key group,
/// the ⊕-sum over its rows of the row's product, the ⊗-product of its
/// children's aggregates at the groups the row links to —
/// `acc[own[i]] ⊕= ∏ msg_c[link_c[i]]`, [`one`](Semiring::one) at a
/// leaf. Every tuple weighs `one`, so the fold reads row counts and
/// links, never a row. Every message ends in a spare slot holding the
/// zero, where `NONE` links land: a row that fails to join is
/// annihilated, not tested for, so no prior semijoin reduction is
/// required. `node(u)` is node `u`'s row count and the edge from its
/// parent (`None` at the root, whose key is nullary: one group).
///
/// A node's rows are folded a block of [`STRIDE`] at a time, in tight
/// passes over one buffer `w` of the block's products: gather the first
/// child's message through its link (`w[k] = msg[link[i]]`) — at a leaf
/// `w` is a block of `one`s, kept beside it; ⊗ each further child in, a
/// pass per child; ⊕ `w` into `acc` by `own` (at the root, into its one
/// slot); append `w` to the kept products. Both buffers are on the
/// stack, so the fold allocates per node, not per block.
///
/// Returns the aggregate, per node that `keep`s them the products of its
/// rows in row order (empty for the others), and the `steps` taken: rows
/// visited plus links followed. The root's pass stops at a block boundary
/// once its sum [is absorbing](Semiring::is_absorbing), unless its rows'
/// products are kept. The token is consulted once per node and once per
/// block — `check`'s cadence, without an atomic per row.
pub(crate) fn sum_product<'a, S: Semiring>(
    cancel: &CancelToken,
    tree: &JoinTree,
    node: impl Fn(usize) -> (usize, Option<Edge<'a>>),
    sr: &S,
    keep: impl Fn(usize) -> bool,
) -> Result<Folded<S::T>, EvalError> {
    const BLOCK: usize = STRIDE as usize;
    let mut msgs: Vec<Vec<S::T>> = vec![Vec::new(); tree.n_nodes()];
    let mut products = msgs.clone();
    let mut steps = 0u64;
    let (mut buf, ones) = ([sr.zero(); BLOCK], [sr.one(); BLOCK]);
    for u in tree.bottom_up() {
        cancel.check_now()?;
        let (rows, up) = node(u);
        let mut acc = vec![sr.zero(); up.map_or(1, |e| e.groups) + 1];
        // a child's message is read by this pass only
        let link = |c: usize| node(c).1.expect("a child has a parent edge").link;
        let kids: Vec<_> =
            tree.children(u).iter().map(|&c| (link(c), take(&mut msgs[c]))).collect();
        let kept = keep(u);
        let out = &mut products[u];
        out.reserve_exact(if kept { rows } else { 0 });
        for start in (0..rows).step_by(BLOCK) {
            let end = rows.min(start + BLOCK);
            cancel.check_many((end - start) as u32)?;
            steps += ((end - start) * (1 + kids.len())) as u64;
            let w: &[S::T] = match kids.split_first() {
                None => &ones[..end - start],
                Some(((link, msg), rest)) => {
                    let w = &mut buf[..end - start];
                    for (x, &g) in w.iter_mut().zip(&link[start..end]) {
                        *x = at(msg, g);
                    }
                    for (link, msg) in rest {
                        for (x, &g) in w.iter_mut().zip(&link[start..end]) {
                            *x = sr.mul(x, &at(msg, g));
                        }
                    }
                    w
                }
            };
            match up {
                Some(e) => {
                    for (x, &g) in w.iter().zip(&e.own[start..end]) {
                        let sum = &mut acc[g as usize];
                        *sum = sr.add(sum, x);
                    }
                }
                None => acc[0] = w.iter().fold(acc[0], |sum, x| sr.add(&sum, x)),
            }
            if kept {
                out.extend_from_slice(w);
            }
            if up.is_none() && !kept && sr.is_absorbing(&acc[0]) {
                break;
            }
        }
        msgs[u] = acc;
    }
    let total = sr.finish(msgs[tree.root()].swap_remove(0))?;
    Ok((total, products, steps))
}

/// A child's aggregate at group `g`; a `NONE` link reads the spare zero
/// at the end of the message.
#[inline]
fn at<T: Copy>(msg: &[T], g: u32) -> T {
    msg[(g as usize).min(msg.len() - 1)]
}

/// The join tree projection elimination runs on: `H ∪ {free}` rooted at
/// the virtual free edge (node `q.atoms().len()`, the tree's root) —
/// empty for a Boolean query, which GYO hangs the whole body from.
/// Every atom is validated first, in atom order, so a missing relation
/// or an arity mismatch is reported exactly as [`bind`] reports it.
///
/// [`bind`]: crate::bind::bind
fn elimination_tree(q: &ConjunctiveQuery, db: &Database) -> Result<JoinTree, EvalError> {
    for atom in q.atoms() {
        validate_atom(&atom.relation, &atom.vars, db)?;
    }
    let h = q.hypergraph();
    if !h.is_acyclic() {
        return Err(EvalError::NotAcyclic);
    }
    let virt = q.atoms().len();
    match cq_core::gyo::join_tree(&h.with_edge(q.free_mask())) {
        Some(t) => Ok(t.rerooted(virt)),
        None => Err(EvalError::NotFreeConnex),
    }
}

/// The nodes of the subtree rooted at `c`, `c` first, each before its
/// children.
fn subtree(tree: &JoinTree, c: usize) -> Vec<usize> {
    let (mut nodes, mut stack) = (Vec::new(), vec![c]);
    while let Some(u) = stack.pop() {
        nodes.push(u);
        stack.extend_from_slice(tree.children(u));
    }
    nodes
}

/// A node of `q'`: what the child `atom` of the elimination tree's root
/// sends it — its rows over `vars`, or `None` when they are the atom's
/// stored relation, read in place.
#[derive(Debug)]
pub(crate) struct Msg {
    atom: usize,
    pub(crate) vars: Vec<Var>,
    rel: Option<Relation>,
}

impl Msg {
    /// The message's rows: its own, or its atom's relation in `db` — the
    /// database `q'` was just looked up for.
    pub(crate) fn rel<'a>(
        &'a self,
        q: &ConjunctiveQuery,
        db: &'a Database,
    ) -> &'a Relation {
        let stored = || db.expect(&q.atoms()[self.atom].relation);
        self.rel.as_ref().unwrap_or_else(stored)
    }

    fn scope(&self) -> u64 {
        self.vars.iter().fold(0, |m, v| m | v.mask())
    }
}

/// The message the elimination tree's root child `nodes[0]` sends the
/// virtual root, with the steps of the fold it ran and of the links it
/// built. The atoms of its subtree `nodes` are bound, linked along the
/// subtree and reduced by the fold at the Boolean semiring; the child's
/// live rows — the products the fold kept of the subtree's root — are
/// projected onto its key, the free variables it shares with the root.
/// (The reduction's downward pass would move no row of the child, so it
/// is not run; nor is the fold of a lone leaf, whose rows all live.) A
/// child that keeps every row over all of its variables sends its bound
/// relation: `None`, the stored one, unless it repeats a variable. A
/// nullary key gives the nullary relation, `{()}` iff the subtree has an
/// answer — the fold stops at the first; an **empty** message means the
/// query has none. The token is polled on the fold's schedule.
fn root_child_message(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    tree: &JoinTree,
    nodes: &[usize],
) -> Result<(Msg, u64, u64), EvalError> {
    ctx.cancel().check_now()?;
    let bound = nodes.iter().map(|&u| bind_atom(&q.atoms()[u], db));
    let mut atoms = bound.collect::<Result<Vec<_>, _>>()?;
    let (c, key) = (nodes[0], tree.key_mask(nodes[0]));
    let (mut truth, mut live) = (!atoms[0].rel.is_empty(), Vec::new());
    let (mut folded, mut linked) = (0, 0);
    if nodes.len() > 1 {
        let local = |u: usize| nodes.iter().position(|&x| x == u);
        let parents = nodes.iter().map(|&u| tree.parent(u).and_then(local)).collect();
        let scopes = nodes.iter().map(|&u| tree.scope(u)).collect();
        let sub = JoinTree::from_parents(scopes, parents, 0);
        let named = |i: usize| Named::atom(q, nodes[i], &atoms[i]);
        let (links, built) = JoinLinks::memoized(ctx, db, &sub, named)?;
        let node = |u: usize| (atoms[u].rel.len(), links.edge(u));
        let keep = |u: usize| u == 0 && key != 0;
        let (any, mut kept, steps) =
            sum_product(ctx.cancel(), &sub, node, &BooleanSemiring, keep)?;
        (truth, live, folded, linked) = (any, take(&mut kept[0]), steps, built);
    }
    let child = atoms.swap_remove(0);
    let cols: Vec<usize> =
        (0..child.vars.len()).filter(|&i| key & child.vars[i].mask() != 0).collect();
    let vars: Vec<Var> = cols.iter().map(|&i| child.vars[i]).collect();
    let rel = if key == 0 {
        Some(Relation::nullary(truth))
    } else {
        // the child's rows that join its subtree, then onto its key
        let joined = match live.contains(&false) {
            true => {
                let mut live = live.iter();
                Cow::Owned(child.rel.filter(|_| *live.next().expect("one flag per row")))
            }
            false => child.rel,
        };
        match (joined, cols.len() == child.vars.len()) {
            (Cow::Borrowed(_), true) => None,
            (joined, true) => Some(joined.into_owned()),
            (joined, false) => Some(joined.project(&cols)),
        }
    };
    Ok((Msg { atom: c, vars, rel }, folded, linked))
}

/// `q'`, the product of projection elimination — its atoms, bound over
/// *exactly the free variables* so that their join equals `q(D)` (`q'`
/// is an acyclic join query, [14, §4.1]; a Boolean query's has none),
/// and the links of their join tree, `None` without atoms — or `None` if
/// the query is unsatisfiable (a body relation is empty, or some subtree
/// has no answer).
pub(crate) type FreeLinks = Option<(Vec<Arc<Msg>>, Option<JoinLinks>)>;

/// **The** projection elimination, shared by decision, counting,
/// enumeration and direct access of every acyclic query (free-connex,
/// unless Boolean), memoized with the links of `q'`'s tree: what `COUNT`
/// folds over and what the tree of `ANSWERS` / `ACCESS` is reduced
/// along. Construction: the join tree of `H ∪ {free}` rooted at the
/// virtual free edge; each child of that root sends
/// [`root_child_message`]; the messages are the atoms of `q'`, satisfied
/// nullary ones dropped.
///
/// A message that costs work is memoized on its own, depending on the
/// relations of its subtree only, and so is each edge of `q'`'s tree
/// and of the subtrees (see [`JoinLinks::memoized`]). The semijoins (the
/// bulk of the linear-time preprocessing) therefore run once per state
/// of *those* relations, whichever verb asks first: a write to `R1`
/// re-assembles `q'` from one rebuilt message and the memoized others,
/// and relinks `R1`'s edges only. A build reports the folds' rows
/// visited plus links followed, and the rows the edges it built visited,
/// as the `steps` of its `op.free-connex.eliminate` span (a hit opens no
/// span), and sets `*built` to the folds' part when it derived anything.
pub(crate) fn free_links(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    built: &mut Option<u64>,
) -> Result<Arc<FreeLinks>, EvalError> {
    ctx.memo(db, "free_links", q, &[], || {
        let mut span = cq_obs::trace::span("op.free-connex.eliminate");
        let tree = elimination_tree(q, db)?;
        // an empty body relation empties `q'` before any fold: O(#atoms)
        if q.relations().any(|r| db.get(r).is_some_and(Relation::is_empty)) {
            return Ok(None);
        }
        let (mut folded, mut linked) = (0u64, 0u64);
        // per atom of q': the message, its name and what it reads
        let (mut msgs, mut names) = (Vec::new(), Vec::new());
        for &c in tree.children(tree.root()) {
            let nodes = subtree(&tree, c);
            let reads: Vec<&str> =
                nodes.iter().map(|&u| q.atoms()[u].relation.as_str()).collect();
            let atom = &q.atoms()[c];
            // a lone leaf over all of its variables, none repeated, sends
            // its stored relation: nothing to derive
            let whole = nodes.len() == 1
                && tree.key_mask(c) == tree.scope(c)
                && distinct_vars(&atom.vars).len() == atom.vars.len();
            let msg = match whole {
                true => Arc::new(Msg { atom: c, vars: atom.vars.clone(), rel: None }),
                false => {
                    let derive = || {
                        let (msg, f, l) = root_child_message(ctx, q, db, &tree, &nodes)?;
                        (folded, linked) = (folded + f, linked + l);
                        Ok::<_, EvalError>(msg)
                    };
                    let (id, reads) = (Id::Msg(q, c), reads.iter().copied());
                    ctx.catalog().artifact(db, "elim_msg", id, reads, derive)?
                }
            };
            span.attr("steps", folded + linked);
            if msg.rel(q, db).is_empty() {
                *built = Some(folded);
                return Ok(None);
            }
            if !msg.vars.is_empty() {
                // rows read in place are named, and read, as their relation
                names.push(match msg.rel {
                    None => (Id::Stored(&atom.relation), vec![atom.relation.as_str()]),
                    Some(_) => (Id::Msg(q, c), reads),
                });
                msgs.push(msg);
            }
        }
        let links = match msgs.is_empty() {
            true => None,
            false => {
                let scopes = msgs.iter().map(|m| m.scope()).collect();
                let tree = cq_core::gyo::join_tree(&Hypergraph::new(q.n_vars(), scopes))
                    .ok_or(EvalError::NotFreeConnex)?;
                let named = |u: usize| {
                    let (id, reads) = &names[u];
                    let (vars, rel) = (&msgs[u].vars, msgs[u].rel(q, db));
                    Named { id: *id, reads: reads.clone(), vars, rel }
                };
                let (links, l) = JoinLinks::memoized(ctx, db, &tree, named)?;
                linked += l;
                Some(links)
            }
        };
        span.attr("steps", folded + linked);
        *built = Some(folded);
        Ok(Some((msgs, links)))
    })
}

/// Count answers of an acyclic query in O(m) — a join query (Thm 3.8)
/// and a free-connex projection (Thm 3.13) alike: the counting DP over
/// `q'` and the links of its tree, memoized by `free_links`; a join
/// query's `q'` is its atoms, read in place. The count itself is
/// memoized (`ExecCtx::memo`): a repeat on unchanged relations is
/// one lookup, and its span reports the count as `rows` with 0 `steps`
/// and no cold build. The counting semiring's `finish` refuses what does
/// not fit u64. Both phases poll the token.
pub fn count_free_connex(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<u64, EvalError> {
    let mut span = cq_obs::trace::span("op.count-free-connex");
    let (mut built, mut steps) = (None, 0);
    let n = *ctx.memo(db, "fc_count", q, &[], || {
        let n = match &*free_links(ctx, q, db, &mut built)? {
            None => 0,
            // a satisfied Boolean query: the empty join has one answer
            Some((_, None)) => 1,
            Some((msgs, Some(links))) => {
                let node = |u: usize| (msgs[u].rel(q, db).len(), links.edge(u));
                let sr = &CountingSemiring;
                let (n, _, folded) =
                    sum_product(ctx.cancel(), links.tree(), node, sr, |_| false)?;
                steps = folded;
                n
            }
        };
        // `CountingSemiring::finish` refused what does not fit
        Ok(n as u64)
    })?;
    span.attr("cold-build", u64::from(built.is_some()));
    span.attr("rows", n);
    span.attr("steps", steps);
    span.attr("cancel-polls", ctx.cancel().polls());
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{brute_force_answers, brute_force_count};
    use crate::{count, enumerate, Answers, DirectAccess, LexDirectAccess};
    use cq_core::query::zoo;
    use cq_core::{parse_query, QueryBuilder};
    use cq_data::generate::{
        path_database, random_pairs, seeded_rng, star_database, triangle_database,
    };
    use cq_data::{IndexCatalog, Relation, Val};
    use std::collections::HashSet;

    /// The materialization baseline, one-shot in interning order.
    fn count_distinct(q: &ConjunctiveQuery, db: &Database) -> u64 {
        let order = crate::generic_join::default_order(q);
        crate::generic_join::count_distinct(&ExecCtx::cold(), q, db, &order).unwrap()
    }

    #[test]
    fn count_path_join_matches_brute_force() {
        for k in 2..=4 {
            let db = path_database(k, 60, &mut seeded_rng(k as u64));
            let q = zoo::path_join(k);
            assert_eq!(
                count_free_connex(&ExecCtx::cold(), &q, &db).unwrap(),
                brute_force_count(&q, &db).unwrap(),
                "k={k}"
            );
        }
    }

    #[test]
    fn count_star_full_matches() {
        let db = star_database(3, 100, 6, &mut seeded_rng(9));
        let q = zoo::star_full(3);
        assert_eq!(
            count_free_connex(&ExecCtx::cold(), &q, &db).unwrap(),
            brute_force_count(&q, &db).unwrap()
        );
    }

    /// The 2-star's endpoints are acyclic but not free-connex: their
    /// count is the hard side's, which `q'` does not reach.
    #[test]
    fn count_join_rejects_projection() {
        let db = star_database(2, 10, 2, &mut seeded_rng(1));
        assert_eq!(
            count_free_connex(&ExecCtx::cold(), &zoo::star_selfjoin(2), &db).unwrap_err(),
            EvalError::NotFreeConnex
        );
    }

    #[test]
    fn count_free_connex_matches_brute_force() {
        // free-connex: q(x0,x1) :- R1(x0,x1), R2(x1,x2)
        let db = path_database(2, 80, &mut seeded_rng(2));
        let q = parse_query("q(x0, x1) :- R1(x0, x1), R2(x1, x2)").unwrap();
        assert!(cq_core::free_connex::is_free_connex(&q));
        assert_eq!(
            count_free_connex(&ExecCtx::cold(), &q, &db).unwrap(),
            brute_force_count(&q, &db).unwrap()
        );
    }

    #[test]
    fn count_free_connex_path_projections() {
        // project a 4-path onto a prefix: free-connex
        let db = path_database(4, 70, &mut seeded_rng(3));
        let q =
            parse_query("q(x0, x1, x2) :- R1(x0,x1), R2(x1,x2), R3(x2,x3), R4(x3,x4)")
                .unwrap();
        assert!(cq_core::free_connex::is_free_connex(&q));
        assert_eq!(
            count_free_connex(&ExecCtx::cold(), &q, &db).unwrap(),
            brute_force_count(&q, &db).unwrap()
        );
    }

    #[test]
    fn count_boolean_query() {
        let db = path_database(3, 40, &mut seeded_rng(4));
        let q = zoo::path_boolean(3);
        let c = count_free_connex(&ExecCtx::cold(), &q, &db).unwrap();
        assert!(c <= 1);
        assert_eq!(c == 1, crate::bind::brute_force_decide(&q, &db).unwrap());
    }

    #[test]
    fn count_distinct_matches_on_the_hard_side() {
        // the materialization baseline the planner falls back to on the
        // hard side of the counting dichotomy
        let db2 = star_database(2, 50, 4, &mut seeded_rng(6));
        let c = count_distinct(&zoo::star_selfjoin(2), &db2);
        assert_eq!(c, brute_force_count(&zoo::star_selfjoin(2), &db2).unwrap());
    }

    #[test]
    fn count_triangle_via_materialization() {
        let edges = random_pairs(50, 12, &mut seeded_rng(7));
        let db = triangle_database(&edges);
        let q = zoo::triangle_join();
        assert_eq!(count_distinct(&q, &db), brute_force_count(&q, &db).unwrap());
    }

    #[test]
    fn unsatisfiable_quantified_component_gives_zero() {
        // q(x) :- R(x), S(y, z): S empty → 0 answers
        let mut db = Database::new();
        db.insert("R", Relation::from_values(vec![1, 2]));
        db.insert("S", Relation::new(2));
        let q = parse_query("q(x) :- R(x), S(y, z)").unwrap();
        assert_eq!(count_free_connex(&ExecCtx::cold(), &q, &db).unwrap(), 0);
        // S nonempty → |R| answers
        db.insert("S", Relation::from_pairs(vec![(7, 8)]));
        assert_eq!(count_free_connex(&ExecCtx::cold(), &q, &db).unwrap(), 2);
    }

    #[test]
    fn star_counting_matches_for_small_k() {
        for k in 1..=3usize {
            let db = star_database(k, 40, 3, &mut seeded_rng(10 + k as u64));
            let q = zoo::star_selfjoin_free(k);
            // k = 1 is free-connex; k ≥ 2 takes the materialization baseline
            let c = if cq_core::free_connex::is_free_connex(&q) {
                count_free_connex(&ExecCtx::cold(), &q, &db).unwrap()
            } else {
                count_distinct(&q, &db)
            };
            assert_eq!(c, brute_force_count(&q, &db).unwrap(), "k={k}");
        }
    }

    #[test]
    fn count_overflow_is_an_error_not_a_panic() {
        // five relations sharing one hub value: (2^13)^5 = 2^65 answers
        let n: Val = 1 << 13;
        let spokes = Relation::from_pairs((0..n).map(|a| (a, 0)));
        let mut db = Database::new();
        for i in 1..=5 {
            db.insert(&format!("R{i}"), spokes.clone());
        }
        let q =
            parse_query("q(a,b,c,d,e,z) :- R1(a,z), R2(b,z), R3(c,z), R4(d,z), R5(e,z)")
                .unwrap();
        let ctx = ExecCtx::cold();
        assert_eq!(count_free_connex(&ctx, &q, &db), Err(EvalError::CountOverflow));
        // one spoke fewer fits: 2^52
        let q4 =
            parse_query("q(a,b,c,d,z) :- R1(a,z), R2(b,z), R3(c,z), R4(d,z)").unwrap();
        assert_eq!(count_free_connex(&ctx, &q4, &db), Ok(1 << 52));
        // ten spokes saturate the u128 accumulator itself (2^130): still
        // an error, and a dangling hub above the saturated subtree still
        // counts zero
        let body: Vec<String> = (1..=10).map(|i| format!("S{i}(x{i}, z)")).collect();
        let head: Vec<String> = (1..=10).map(|i| format!("x{i}")).collect();
        let q10 = parse_query(&format!(
            "q({}, z, w) :- {}, T(z, w)",
            head.join(", "),
            body.join(", ")
        ))
        .unwrap();
        for i in 1..=10 {
            db.insert(&format!("S{i}"), spokes.clone());
        }
        db.insert("T", Relation::from_pairs(vec![(0, 7)]));
        assert_eq!(count_free_connex(&ctx, &q10, &db), Err(EvalError::CountOverflow));
        db.insert("T", Relation::from_pairs(vec![(1, 7)]));
        assert_eq!(count_free_connex(&ctx, &q10, &db), Ok(0));
    }

    #[test]
    fn dp_handles_unreduced_inputs() {
        // dangling tuples must contribute 0 without prior semijoins
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(vec![(1, 2), (9, 9)]));
        db.insert("R2", Relation::from_pairs(vec![(2, 3)]));
        let q = zoo::path_join(2);
        assert_eq!(count_free_connex(&ExecCtx::cold(), &q, &db).unwrap(), 1);
    }

    #[test]
    fn free_connex_star1() {
        let db = star_database(1, 30, 3, &mut seeded_rng(11));
        let q = zoo::star_selfjoin(1); // q(x1) :- R(x1, z): free-connex
        assert_eq!(
            count_free_connex(&ExecCtx::cold(), &q, &db).unwrap(),
            brute_force_count(&q, &db).unwrap()
        );
    }

    /// Every root child's message is the projection of its subtree's join
    /// onto its key, whatever the key's width, the subtree's shape or its
    /// data: checked against brute force over the subtree's atoms — on a
    /// two-column key, a component sharing no free variable (a nullary key:
    /// `{()}` or `{}`), an empty subtree, and repeated variables.
    #[test]
    fn every_elimination_message_is_its_subtree_join_projected_onto_its_key() {
        let mut db = Database::new();
        db.insert(
            "R",
            Relation::from_rows(3, vec![vec![1, 1, 2], vec![1, 2, 2], vec![3, 4, 5]]),
        );
        db.insert("S", Relation::from_pairs(vec![(2, 7), (2, 8), (5, 5), (6, 6)]));
        db.insert("T", Relation::from_pairs(vec![(7, 1), (9, 9)]));
        db.insert("U", Relation::from_values(vec![1, 3, 4]));
        db.insert("E", Relation::new(2));
        let queries = [
            // a two-column key above a chain
            "q(a, b) :- R(a, b, c), S(c, d), T(d, e)",
            "q(a, b) :- U(a), S(c, d), R(a, b, c)",
            // components without a free variable, satisfied and not
            "q(x) :- U(x), S(y, z), T(z, w)",
            "q(x) :- U(x), S(y, z), E(z, w)",
            "q(x, y) :- E(x, y), R(a, b, c)",
            // repeated variables
            "q(a, c) :- R(a, a, c), S(c, c), U(a)",
            "q(a) :- R(a, b, b), S(b, d), T(d, d)",
        ];
        let (mut widths, mut empty) = (HashSet::new(), 0);
        for src in queries {
            let q = parse_query(src).unwrap();
            let tree = elimination_tree(&q, &db).unwrap();
            for &c in tree.children(tree.root()) {
                let nodes = subtree(&tree, c);
                let (msg, _, _) =
                    root_child_message(&ExecCtx::cold(), &q, &db, &tree, &nodes).unwrap();
                // the subtree's atoms, headed by the message's variables
                let mut b = QueryBuilder::new("m");
                let head: Vec<Var> =
                    msg.vars.iter().map(|&v| b.var(q.var_name(v))).collect();
                for &u in &nodes {
                    let atom = &q.atoms()[u];
                    let vars: Vec<Var> =
                        atom.vars.iter().map(|&v| b.var(q.var_name(v))).collect();
                    b.atom(&atom.relation, &vars);
                }
                b.free(&head);
                let want = brute_force_answers(&b.build().unwrap(), &db).unwrap();
                let rel = msg.rel(&q, &db);
                assert_eq!(rel, &want, "{src}: the message of atom {c}");
                assert_eq!(msg.vars.len(), rel.arity(), "{src}: atom {c}");
                assert_eq!(msg.scope(), tree.key_mask(c), "{src}: atom {c}");
                widths.insert(msg.vars.len());
                empty += usize::from(rel.is_empty());
            }
        }
        assert!(widths.is_superset(&HashSet::from([0, 1, 2])), "{widths:?}");
        assert!(empty >= 2, "an empty nullary message and an empty keyed one");
    }

    /// One preprocessing for the easy side: over one catalog `COUNT`,
    /// `ANSWERS` and `ACCESS` of a projected free-connex query — in every
    /// order of the three — derive each elimination message that costs
    /// work, `q'` and each link of its tree once (`COUNT` folds over them,
    /// the other two reduce along them), and sort the reduced tree once,
    /// which the stream and the access structure then both hold; a write
    /// to one relation rebuilds exactly its subtree's message, its edge and
    /// what is assembled from them.
    #[test]
    fn count_answers_and_access_share_one_elimination_and_one_tree() {
        const VERBS: [&str; 3] = ["COUNT", "ANSWERS", "ACCESS"];
        // q' has one node per atom: R1 itself, in place, and the messages
        // {a} from R2 and {b} from R3, each linked to R1
        let q = parse_query("q(a, b) :- R1(a, b), R2(a, c), R3(b, d)").unwrap();
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(vec![(1, 1), (2, 1), (3, 2), (4, 2)]));
        db.insert("R2", Relation::from_pairs(vec![(1, 5), (2, 5), (2, 6)]));
        db.insert("R3", Relation::from_pairs(vec![(1, 7), (2, 8)]));
        // each verb's answer count, checked against brute force on the way
        let run = |verb: &str, ctx: &ExecCtx, db: &Database| -> u64 {
            let want = brute_force_answers(&q, db).unwrap();
            match verb {
                "COUNT" => count::count_free_connex(ctx, &q, db).unwrap(),
                "ANSWERS" => {
                    let tree = enumerate::preprocess(ctx, &q, db).unwrap();
                    assert_eq!(Answers::walk(tree).collect().unwrap(), want);
                    want.len() as u64
                }
                _ => {
                    let da = LexDirectAccess::free_connex(ctx, &q, db).unwrap();
                    let rows = (0..da.len()).map(|i| da.access(i).unwrap());
                    assert_eq!(Relation::from_rows(2, rows), want);
                    da.len()
                }
            }
        };
        for first in 0..3 {
            for second in (0..3).filter(|&v| v != first) {
                let order = [first, second, 3 - first - second].map(|v| VERBS[v]);
                let catalog = IndexCatalog::new();
                let ctx = ExecCtx::warm(&catalog);
                let mut built = Vec::new();
                for verb in order {
                    let before = catalog.snapshot().misses;
                    assert_eq!(run(verb, &ctx, &db), 2, "{verb} in {order:?}");
                    built.push(catalog.snapshot().misses - before);
                }
                // two messages, q' and its two links for whoever comes
                // first, the tree for the first of ANSWERS / ACCESS, the
                // count for COUNT, and nothing otherwise
                let tree_at = order.iter().position(|&v| v != "COUNT").unwrap();
                let count_at = order.iter().position(|&v| v == "COUNT").unwrap();
                let mut want = [0; 3];
                want[0] = 5;
                want[tree_at] += 1;
                want[count_at] += 1;
                assert_eq!(built, want, "misses per verb of {order:?}");
                assert_eq!(catalog.snapshot().artifacts, 7, "{order:?}");

                // the walk and the array are one structure
                let tree = enumerate::preprocess(&ctx, &q, &db).unwrap();
                let da = LexDirectAccess::free_connex(&ctx, &q, &db).unwrap();
                assert!(Arc::ptr_eq(&tree, &da), "{order:?}");
                let warm = catalog.snapshot();
                assert_eq!(warm.misses, 7, "{order:?}: the lookups above are hits");

                // a write to R2 re-derives R2's message, its link, q', the
                // tree and the count
                let mut db = db.clone();
                let old = count::free_links(&ctx, &q, &db, &mut None).unwrap();
                db.get_mut("R2").unwrap().insert_row(&[3, 9]);
                for verb in order {
                    assert_eq!(run(verb, &ctx, &db), 3, "{verb} after the write");
                }
                let rebuilt = catalog.snapshot();
                assert_eq!(rebuilt.misses, warm.misses + 5, "{order:?}");
                assert_eq!(rebuilt.invalidations, warm.invalidations + 5, "{order:?}");
                assert_eq!(rebuilt.artifacts, 7, "{order:?}: rebuilt entries replace");
                let new = count::free_links(&ctx, &q, &db, &mut None).unwrap();
                let (Some((old, Some(was))), Some((new, Some(now)))) = (&*old, &*new)
                else {
                    panic!("q' is satisfiable before and after the write");
                };
                let r2 = db.get("R2").unwrap().project(&[0]);
                let moved: Vec<bool> = new
                    .iter()
                    .map(|n| n.rel.is_some() && n.rel(&q, &db) == &r2)
                    .collect();
                assert_eq!(moved.iter().filter(|&&m| m).count(), 1);
                for (u, (o, n)) in old.iter().zip(new).enumerate() {
                    match n.rel {
                        None => {
                            assert!(std::ptr::eq(n.rel(&q, &db), db.get("R1").unwrap()))
                        }
                        Some(_) => assert_eq!(Arc::ptr_eq(o, n), !moved[u], "{order:?}"),
                    }
                    // a memoized edge is the same array, or a new one
                    let own = |l: &JoinLinks| l.edge(u).map(|e| e.own.as_ptr());
                    if let Some(p) = now.tree().parent(u) {
                        let same = own(was) == own(now);
                        assert_eq!(
                            same,
                            !moved[u] && !moved[p],
                            "{order:?}: edge {p}→{u}"
                        );
                    }
                }
                let da_now = LexDirectAccess::free_connex(&ctx, &q, &db).unwrap();
                assert!(!Arc::ptr_eq(&da, &da_now), "{order:?}: the tree was rebuilt");
            }
        }
    }

    /// A join query's `q'` is its atoms read in place: every node is the
    /// database's own relation, so no copy of a relation is kept beside
    /// the sorted tree — also where an atom's subtree holds a smaller atom
    /// that removes none of its rows, and for a self-join.
    #[test]
    fn a_join_querys_q_prime_reads_every_relation_in_place() {
        let queries = [
            zoo::path_join(3),
            zoo::star_full(3),
            zoo::star_selfjoin_free(3).join_version(),
            parse_query("q(x, y, u, v) :- R(x, y), S(u, v)").unwrap(),
            parse_query("q(x, y, z) :- R(x, y), R(y, z)").unwrap(),
            parse_query("q(x, y) :- R(x, y), U(x)").unwrap(),
        ];
        for q in queries {
            let mut db = Database::new();
            for (i, atom) in q.atoms().iter().enumerate() {
                let rel = match atom.arity() {
                    1 => Relation::from_values((0..8).collect::<Vec<Val>>()),
                    _ => random_pairs(40, 8, &mut seeded_rng(i as u64)),
                };
                db.insert(&atom.relation, rel);
            }
            let ctx = ExecCtx::cold();
            let linked = free_links(&ctx, &q, &db, &mut None).unwrap();
            let Some((msgs, _)) = &*linked else { panic!("{q}: satisfiable") };
            for m in msgs {
                let stored = db.get(&q.atoms()[m.atom].relation).unwrap();
                assert!(std::ptr::eq(m.rel(&q, &db), stored), "{q}: atom {}", m.atom);
            }
            let covered = msgs.iter().fold(0, |mask, m| mask | m.scope());
            assert_eq!(covered, q.free_mask(), "{q}");
            let n = count_free_connex(&ctx, &q, &db).unwrap();
            assert_eq!(n, brute_force_count(&q, &db).unwrap(), "{q}");
        }
    }
}
