//! Counting query answers (Theorems 3.8 and 3.13) — and `q'`, the first
//! stage of the whole easy side.
//!
//! * [`count_acyclic_join`] — the counting Yannakakis DP for acyclic
//!   *join* queries: weights propagate bottom-up along the join tree in
//!   O(m) (Thm 3.8). The DP is the sum-product fold of §4.1.2 at the
//!   counting semiring, the loop `DECIDE` runs at the Boolean one;
//! * `free_links` — projection elimination for free-connex queries:
//!   eliminate the quantified variables along a join tree of
//!   `H ∪ {free}` rooted at the virtual free-edge, producing `q'`, an
//!   acyclic join query over exactly the free variables (see the
//!   discussion in [14, §4.1]), with the links of its join tree. Each
//!   child of the virtual root sends its rows that join its subtree —
//!   found by the one semijoin, `yannakakis::semijoin_up`, the upward
//!   pass of the full reduction — projected onto its key. Derived once,
//!   memoized per subtree, and read three ways: [`count_free_connex`]
//!   runs the DP over it (Thm 3.13), and [`crate::FreeConnexDirectAccess`]
//!   reduces and sorts it into the tree that enumeration walks
//!   (Thm 3.17) and direct access descends (Thm 3.18).
//!
//! Cross-algorithm dispatch (formerly a `count_answers` facade here)
//! lives in `cq-planner`, which picks between these entry points and
//! the generic-join materialization baseline of Lemma 3.9 / Cor 3.11
//! from the query's classification.

use crate::aggregate::{fold_body, CountingSemiring, Semiring};
use crate::bind::{bind_atom, validate_atom, BoundAtom, EvalError};
use crate::cancel::STRIDE;
use crate::ctx::ExecCtx;
use crate::links::JoinLinks;
use crate::yannakakis;
use cq_core::hypergraph::mask_vertices;
use cq_core::{ConjunctiveQuery, JoinTree, Var};
use cq_data::{Database, Relation, Val};
use std::borrow::{Borrow, Cow};
use std::sync::Arc;

/// The sum-product DP over a join tree, at semiring `sr`: each node
/// aggregates, per parent-key group, the ⊕-sum over its rows of the
/// row's `weight` ⊗ its children's aggregates at the groups the row
/// links to — `acc[own[i]] ⊕= weight(u, rowᵢ) ⊗ ∏ msg_c[link_c[i]]`, one
/// sequential, branch-free pass per node over plain vectors. Every
/// message ends in a spare slot holding the zero, where `NONE` links
/// land: a row that fails to join is annihilated, not tested for, so no
/// prior semijoin reduction is required. `rels[u]` are node `u`'s rows,
/// in the order `links` were built over. The root's pass stops at a
/// block boundary once its sum [is absorbing](Semiring::is_absorbing).
///
/// Returns the aggregate and the `steps` taken: rows visited plus links
/// followed. The token is consulted once per node and once per block of
/// [`STRIDE`] rows — `check`'s cadence, without an atomic per row.
pub(crate) fn sum_product<S: Semiring>(
    ctx: &ExecCtx,
    rels: &[&Relation],
    links: &JoinLinks,
    sr: &S,
    weight: impl Fn(usize, &[Val]) -> S::T,
) -> Result<(S::T, u64), EvalError> {
    let (cancel, tree) = (ctx.cancel(), links.tree());
    let mut msgs: Vec<Vec<S::T>> = Vec::new();
    msgs.resize_with(rels.len(), Vec::new);
    let mut steps = 0u64;
    for u in tree.bottom_up() {
        cancel.check_now()?;
        let rel = rels[u];
        // the root's key is nullary: one group
        let up = links.edge(u);
        let own = up.map(|e| e.own.as_slice());
        let mut acc = vec![sr.zero(); up.map_or(1, |e| e.groups) + 1];
        let kids: Vec<(&[u32], &[S::T])> = tree
            .children(u)
            .iter()
            .map(|&c| {
                let edge = links.edge(c).expect("a child has a parent edge");
                (edge.link.as_slice(), msgs[c].as_slice())
            })
            .collect();
        for start in (0..rel.len()).step_by(STRIDE as usize) {
            let end = rel.len().min(start + STRIDE as usize);
            cancel.check_many((end - start) as u32)?;
            steps += ((end - start) * (1 + kids.len())) as u64;
            for i in start..end {
                let mut w = weight(u, rel.row(i));
                for (link, msg) in &kids {
                    let g = (link[i] as usize).min(msg.len() - 1);
                    w = sr.mul(&w, &msg[g]);
                }
                let sum = &mut acc[own.map_or(0, |own| own[i] as usize)];
                *sum = sr.add(sum, &w);
            }
            if own.is_none() && sr.is_absorbing(&acc[0]) {
                break;
            }
        }
        drop(kids);
        msgs[u] = acc;
    }
    Ok((sr.finish(msgs[tree.root()].swap_remove(0))?, steps))
}

/// The unit-weight count over `atoms` along `links`, and its steps.
fn count_over(
    ctx: &ExecCtx,
    atoms: &[impl Borrow<BoundAtom>],
    links: &JoinLinks,
) -> Result<(u64, u64), EvalError> {
    let rels: Vec<&Relation> = atoms.iter().map(|a| &a.borrow().rel).collect();
    // `CountingSemiring::finish` refused what does not fit
    let (n, steps) = sum_product(ctx, &rels, links, &CountingSemiring, |_, _| 1)?;
    Ok((n as u64, steps))
}

/// Count answers of an acyclic *join* query in O(m) (Theorem 3.8): the
/// aggregate of unit weights at the counting semiring, whose `finish`
/// refuses what does not fit u64. The join index is memoized, so
/// repeated counts of the same body pay for the array passes only.
pub fn count_acyclic_join(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<u64, EvalError> {
    if !q.is_join_query() {
        return Err(EvalError::NotJoinQuery);
    }
    let mut span = cq_obs::trace::span("op.count-acyclic");
    let (n, steps) = fold_body(ctx, q, db, |_, _| 1, &CountingSemiring)?;
    span.attr("rows", n as u64);
    span.attr("steps", steps);
    span.attr("cancel-polls", ctx.cancel().polls());
    Ok(n as u64)
}

/// The join tree projection elimination runs on: `H ∪ {free}` rooted at
/// the virtual free edge (node `q.atoms().len()`, the tree's root).
/// Every atom is validated first, in atom order, so a missing relation
/// or an arity mismatch is reported exactly as [`bind`] reports it.
fn elimination_tree(q: &ConjunctiveQuery, db: &Database) -> Result<JoinTree, EvalError> {
    for atom in q.atoms() {
        validate_atom(&atom.relation, &atom.vars, db)?;
    }
    let free = q.free_mask();
    assert!(free != 0, "projection elimination needs free variables");
    let h = q.hypergraph();
    if !h.is_acyclic() {
        return Err(EvalError::NotAcyclic);
    }
    let virt = q.atoms().len();
    match cq_core::gyo::join_tree(&h.with_edge(free)) {
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

/// The message the elimination tree's root child `nodes[0]` sends the
/// virtual root: the atoms of its subtree `nodes`, bound and linked along
/// the subtree, reduced by the one semijoin, and the child's live rows
/// projected onto its key, the free variables it shares with the root.
/// (The reduction's downward pass would move no row of the child, so it
/// is not run.) A nullary key gives the nullary relation, `{()}` iff the
/// subtree has an answer; an **empty** message means the query has none.
/// With the semijoin's steps.
fn root_child_message(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    tree: &JoinTree,
    nodes: &[usize],
) -> Result<(BoundAtom, u64), EvalError> {
    ctx.cancel().check_now()?;
    let bound = nodes.iter().map(|&u| bind_atom(&q.atoms()[u], db));
    let (vars, rels): (Vec<_>, Vec<_>) =
        bound.collect::<Result<Vec<_>, _>>()?.into_iter().unzip();
    let local = |u: usize| nodes.iter().position(|&x| x == u);
    let parents = nodes.iter().map(|&u| tree.parent(u).and_then(local)).collect();
    let scopes = nodes.iter().map(|&u| tree.scope(u)).collect();
    let sub = JoinTree::from_parents(scopes, parents, 0);
    let links = JoinLinks::of(&sub, |i| (&vars[i], &rels[i]));
    let rows: Vec<usize> = rels.iter().map(|rel| rel.len()).collect();
    let (live, _, steps) = yannakakis::semijoin_up(&rows, &links);
    let key: Vec<Var> =
        mask_vertices(tree.key_mask(nodes[0])).map(|v| Var(v as u32)).collect();
    let cols: Vec<usize> = key
        .iter()
        .map(|v| vars[0].iter().position(|x| x == v).expect("key ⊆ scope"))
        .collect();
    // the child's rows that join its subtree: all of them unless one died
    let joined = match live[0].contains(&false) {
        true => {
            let mut live = live[0].iter();
            Cow::Owned(rels[0].filter(|_| *live.next().expect("one flag per row")))
        }
        false => Cow::Borrowed(&*rels[0]),
    };
    Ok((BoundAtom { rel: joined.project(&cols), vars: key }, steps))
}

/// `q'`, the product of projection elimination — bound atoms over
/// *exactly the free variables* whose join equals `q(D)` (`q'` is an
/// acyclic join query, [14, §4.1]) — with the links of its join tree;
/// `None` if the query is unsatisfiable (some subtree has no answer).
pub(crate) type FreeLinks = Option<(Vec<Arc<BoundAtom>>, JoinLinks)>;

/// **The** projection elimination, shared by counting, enumeration and
/// direct access for (non-Boolean) free-connex queries, memoized with
/// the links of `q'`'s tree: what `COUNT` folds over and what the tree
/// of `ANSWERS` / `ACCESS` is reduced along. Construction: the join tree
/// of `H ∪ {free}` rooted at the virtual free edge; each child of that
/// root sends [`root_child_message`]; the messages are the atoms of
/// `q'`, satisfied nullary ones dropped.
///
/// Each message is memoized on its own, depending on the relations of
/// its subtree only. The semijoins (the bulk of the linear-time
/// preprocessing) therefore run once per state of *those* relations,
/// whichever of the three verbs asks first: a write to `R1` re-assembles
/// `q'` from one rebuilt message and the memoized others. A build
/// reports the semijoins' rows visited plus links followed as the
/// `steps` of its `op.free-connex.eliminate` span (0 when every message
/// is memoized; a hit opens no span), and sets `*cold` when it derived a
/// message (what the callers' spans report as `cold-build`).
pub(crate) fn free_links(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    cold: &mut bool,
) -> Result<Arc<FreeLinks>, EvalError> {
    let catalog = ctx.catalog();
    let text = q.to_string();
    catalog.artifact(db, "free_links", &text, q.relations(), || {
        let mut span = cq_obs::trace::span("op.free-connex.eliminate");
        let tree = elimination_tree(q, db)?;
        let (mut msgs, mut covered, mut steps) = (Vec::new(), 0u64, 0u64);
        for &c in tree.children(tree.root()) {
            let nodes = subtree(&tree, c);
            let reads = nodes.iter().map(|&u| q.atoms()[u].relation.as_str());
            let key = format!("{text}|{c}");
            let msg = catalog.artifact(db, "elim_msg", &key, reads, || {
                *cold = true;
                let built = root_child_message(ctx, q, db, &tree, &nodes);
                built.map(|(msg, reduced)| {
                    steps += reduced;
                    msg
                })
            })?;
            span.attr("steps", steps);
            if msg.rel.is_empty() {
                return Ok(None);
            }
            if !msg.vars.is_empty() {
                covered |= msg.scope();
                msgs.push(msg);
            }
        }
        debug_assert_eq!(
            covered,
            q.free_mask(),
            "messages must cover all free variables"
        );
        let tree = yannakakis::join_tree_of_atoms(&msgs, q.n_vars())
            .ok_or(EvalError::NotFreeConnex)?;
        let links = JoinLinks::of(&tree, |u| (&msgs[u].vars, &msgs[u].rel));
        Ok(Some((msgs, links)))
    })
}

/// Count answers of a free-connex query in O(m) (Theorem 3.13): the
/// counting DP over `q'` and the links of its tree, memoized by
/// `free_links` — repeated counts pay for the array passes over the
/// (typically smaller) messages only. Both phases poll the token.
pub fn count_free_connex(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<u64, EvalError> {
    if q.is_boolean() {
        return Ok(u64::from(yannakakis::decide_acyclic(ctx, q, db)?));
    }
    let mut span = cq_obs::trace::span("op.count-free-connex");
    let mut cold = false;
    let linked = free_links(ctx, q, db, &mut cold)?;
    span.attr("cold-build", u64::from(cold));
    let (n, steps) = match &*linked {
        Some((msgs, links)) => count_over(ctx, msgs, links)?,
        None => (0, 0),
    };
    span.attr("rows", n);
    span.attr("steps", steps);
    span.attr("cancel-polls", ctx.cancel().polls());
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{brute_force_answers, brute_force_count};
    use crate::{count, DirectAccess, Enumerator, FreeConnexDirectAccess};
    use cq_core::query::zoo;
    use cq_core::{parse_query, QueryBuilder};
    use cq_data::generate::{
        path_database, random_pairs, seeded_rng, star_database, triangle_database,
    };
    use cq_data::{IndexCatalog, Relation};
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
                count_acyclic_join(&ExecCtx::cold(), &q, &db).unwrap(),
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
            count_acyclic_join(&ExecCtx::cold(), &q, &db).unwrap(),
            brute_force_count(&q, &db).unwrap()
        );
    }

    #[test]
    fn count_join_rejects_projection() {
        let db = star_database(2, 10, 2, &mut seeded_rng(1));
        assert_eq!(
            count_acyclic_join(&ExecCtx::cold(), &zoo::star_selfjoin(2), &db)
                .unwrap_err(),
            EvalError::NotJoinQuery
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
        assert_eq!(count_acyclic_join(&ctx, &q, &db), Err(EvalError::CountOverflow));
        // one spoke fewer fits: 2^52
        let q4 =
            parse_query("q(a,b,c,d,z) :- R1(a,z), R2(b,z), R3(c,z), R4(d,z)").unwrap();
        assert_eq!(count_acyclic_join(&ctx, &q4, &db), Ok(1 << 52));
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
        assert_eq!(count_acyclic_join(&ctx, &q10, &db), Err(EvalError::CountOverflow));
        db.insert("T", Relation::from_pairs(vec![(1, 7)]));
        assert_eq!(count_acyclic_join(&ctx, &q10, &db), Ok(0));
    }

    #[test]
    fn dp_handles_unreduced_inputs() {
        // dangling tuples must contribute 0 without prior semijoins
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(vec![(1, 2), (9, 9)]));
        db.insert("R2", Relation::from_pairs(vec![(2, 3)]));
        let q = zoo::path_join(2);
        assert_eq!(count_acyclic_join(&ExecCtx::cold(), &q, &db).unwrap(), 1);
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
                let (msg, _) =
                    root_child_message(&ExecCtx::cold(), &q, &db, &tree, &nodes).unwrap();
                // the subtree's atoms, headed by the key in index order
                let mut b = QueryBuilder::new("m");
                let key = mask_vertices(tree.key_mask(c)).map(|v| Var(v as u32));
                let head: Vec<Var> = key.map(|v| b.var(q.var_name(v))).collect();
                for &u in &nodes {
                    let atom = &q.atoms()[u];
                    let vars: Vec<Var> =
                        atom.vars.iter().map(|&v| b.var(q.var_name(v))).collect();
                    b.atom(&atom.relation, &vars);
                }
                b.free(&head);
                let want = brute_force_answers(&b.build().unwrap(), &db).unwrap();
                assert_eq!(msg.rel, want, "{src}: the message of atom {c}");
                assert_eq!(msg.vars.len(), msg.rel.arity(), "{src}: atom {c}");
                assert_eq!(msg.scope(), tree.key_mask(c), "{src}: atom {c}");
                widths.insert(msg.vars.len());
                empty += usize::from(msg.rel.is_empty());
            }
        }
        assert!(widths.is_superset(&HashSet::from([0, 1, 2])), "{widths:?}");
        assert!(empty >= 2, "an empty nullary message and an empty keyed one");
    }

    /// One preprocessing for the easy side: over one catalog `COUNT`,
    /// `ANSWERS` and `ACCESS` of a projected free-connex query — in every
    /// order of the three — derive each elimination message and `q'` with the
    /// links of its tree once (`COUNT` folds over them, the other two reduce
    /// along them), and sort the reduced tree once, which the stream and the
    /// access structure then both hold; a write to one relation rebuilds
    /// exactly its subtree's message and what is assembled from it.
    #[test]
    fn count_answers_and_access_share_one_elimination_and_one_tree() {
        const VERBS: [&str; 3] = ["COUNT", "ANSWERS", "ACCESS"];
        // q' has one message per atom: {a, b} from R1, {a} from R2, {b} from R3
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
                    let mut e = Enumerator::preprocess(ctx, &q, db).unwrap();
                    assert_eq!(e.to_relation(), want);
                    want.len() as u64
                }
                _ => {
                    let da = FreeConnexDirectAccess::build(ctx, &q, db).unwrap();
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
                // three messages and q' with its links for whoever comes first,
                // the tree for the first of ANSWERS / ACCESS, and nothing
                // otherwise
                let tree_at = order.iter().position(|&v| v != "COUNT").unwrap();
                let mut want = [0; 3];
                want[0] = 4;
                want[tree_at] += 1;
                assert_eq!(built, want, "misses per verb of {order:?}");
                assert_eq!(catalog.snapshot().artifacts, 5, "{order:?}");

                // the walk and the array are one structure
                let e = Enumerator::preprocess(&ctx, &q, &db).unwrap();
                let da = FreeConnexDirectAccess::build(&ctx, &q, &db).unwrap();
                assert!(Arc::ptr_eq(e.direct_access(), &da), "{order:?}");
                let warm = catalog.snapshot();
                assert_eq!(warm.misses, 5, "{order:?}: the lookups above are hits");

                // a write to R2 re-derives R2's message, q' with its links
                // and the tree
                let mut db = db.clone();
                let old = count::free_links(&ctx, &q, &db, &mut false).unwrap();
                db.get_mut("R2").unwrap().insert_row(&[3, 9]);
                for verb in order {
                    assert_eq!(run(verb, &ctx, &db), 3, "{verb} after the write");
                }
                let rebuilt = catalog.snapshot();
                assert_eq!(rebuilt.misses, warm.misses + 3, "{order:?}");
                assert_eq!(rebuilt.invalidations, warm.invalidations + 3, "{order:?}");
                assert_eq!(rebuilt.artifacts, 5, "{order:?}: rebuilt entries replace");
                let new = count::free_links(&ctx, &q, &db, &mut false).unwrap();
                let (Some((old, _)), Some((new, _))) = (&*old, &*new) else {
                    panic!("q' is satisfiable before and after the write");
                };
                let r2 = db.get("R2").unwrap().project(&[0]);
                for (o, n) in old.iter().zip(new) {
                    assert_eq!(
                        Arc::ptr_eq(o, n),
                        n.rel != r2,
                        "{order:?}: only R2's moved"
                    );
                }
                let da_now = FreeConnexDirectAccess::build(&ctx, &q, &db).unwrap();
                assert!(!Arc::ptr_eq(&da, &da_now), "{order:?}: the tree was rebuilt");
            }
        }
    }
}
