//! Counting query answers (Theorems 3.8 and 3.13) — and `q'`, the first
//! stage of the whole easy side.
//!
//! * [`count_acyclic_join`] — the counting Yannakakis DP for acyclic
//!   *join* queries: weights propagate bottom-up along the join tree in
//!   O(m) (Thm 3.8). The DP is the sum-product fold of §4.1.2 at the
//!   counting semiring, the loop `DECIDE` runs at the Boolean one;
//! * `free_join` — projection elimination for free-connex queries:
//!   eliminate the quantified variables along a join tree of
//!   `H ∪ {free}` rooted at the virtual free-edge, producing `q'`, an
//!   acyclic join query over exactly the free variables (see the
//!   discussion in [14, §4.1]). Derived once, memoized per subtree, and
//!   read three ways: [`count_free_connex`] runs the DP over it
//!   (Thm 3.13), and [`crate::FreeConnexDirectAccess`] reduces and sorts
//!   it into the tree that enumeration walks (Thm 3.17) and direct
//!   access descends (Thm 3.18).
//!
//! Cross-algorithm dispatch (formerly a `count_answers` facade here)
//! lives in `cq-planner`, which picks between these entry points and
//! the generic-join materialization baseline of Lemma 3.9 / Cor 3.11
//! from the query's classification.

use crate::aggregate::{fold_body, CountingSemiring, Semiring};
use crate::bind::{collapse_rel, distinct_vars, validate_atom, BoundAtom, EvalError};
use crate::cancel::{CancelToken, STRIDE};
use crate::ctx::ExecCtx;
use crate::links::{keep_linked, JoinLinks};
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

/// The relation symbols of the atoms in the subtree rooted at `u` —
/// everything [`subtree_message`] of `u` reads.
fn subtree_relations<'a>(
    q: &'a ConjunctiveQuery,
    tree: &'a JoinTree,
    u: usize,
) -> impl Iterator<Item = &'a str> {
    let mut stack = vec![u];
    std::iter::from_fn(move || {
        let u = stack.pop()?;
        stack.extend_from_slice(tree.children(u));
        Some(q.atoms()[u].relation.as_str())
    })
}

/// The message node `u` of the elimination tree sends its parent: `u`'s
/// bound relation, semijoined by its children's messages and projected
/// onto `key(u)`. A nullary key encodes satisfiability as the unary
/// relation `{0}` / `{}` over no variables. An **empty** message means
/// the subtree — hence the query — has no answer. The token is polled
/// once per node, between the semijoin/projection passes.
fn subtree_message(
    cancel: &CancelToken,
    q: &ConjunctiveQuery,
    db: &Database,
    tree: &JoinTree,
    u: usize,
) -> Result<BoundAtom, EvalError> {
    cancel.check_now()?;
    let atom = &q.atoms()[u];
    let base = validate_atom(&atom.relation, &atom.vars, db)?;
    let vars = distinct_vars(&atom.vars);
    let mut rel = if vars.len() == atom.vars.len() {
        Cow::Borrowed(base)
    } else {
        Cow::Owned(collapse_rel(&atom.vars, &vars, base))
    };
    let key_vars: Vec<Var> =
        mask_vertices(tree.key_mask(u)).map(|v| Var(v as u32)).collect();
    // what an unsatisfiable subtree sends
    let empty = |key_vars: Vec<Var>| {
        let rel = Relation::new(key_vars.len().max(1));
        BoundAtom { vars: key_vars, rel }
    };
    for &c in tree.children(u) {
        let msg = subtree_message(cancel, q, db, tree, c)?;
        if msg.rel.is_empty() {
            return Ok(empty(key_vars));
        }
        if msg.vars.is_empty() {
            continue; // satisfied nullary message: no constraint
        }
        let (cu, cm) = yannakakis::shared_cols_of(&vars, &msg.vars);
        rel = Cow::Owned(keep_linked(&rel, &cu, &msg.rel, &cm));
        if rel.is_empty() {
            break;
        }
    }
    if rel.is_empty() {
        return Ok(empty(key_vars));
    }
    if key_vars.is_empty() {
        return Ok(BoundAtom { vars: key_vars, rel: Relation::from_values(vec![0]) });
    }
    let cols: Vec<usize> = key_vars
        .iter()
        .map(|&v| vars.iter().position(|&x| x == v).expect("key ⊆ scope"))
        .collect();
    Ok(BoundAtom { rel: rel.project(&cols), vars: key_vars })
}

/// `q'`, the product of projection elimination: bound atoms over
/// *exactly the free variables* whose join equals `q(D)`, with their
/// join tree (`q'` is an acyclic join query, [14, §4.1]) — or `None` if
/// the query is unsatisfiable (some subtree has no answer).
pub(crate) type FreeJoin = Option<(Vec<Arc<BoundAtom>>, JoinTree)>;

/// **The** projection elimination, shared by counting, enumeration and
/// direct access for (non-Boolean) free-connex queries. Construction:
/// join tree of `H ∪ {free}` rooted at the virtual free edge; bottom-up,
/// each node is semijoined with its children's messages and projected
/// onto its parent key; the messages of the root's children are the
/// atoms of `q'`, satisfied nullary ones dropped.
///
/// Memoized in the catalog — `q'` whole, and beneath it each message on
/// its own, depending on the relations of its subtree only. The
/// semijoin/projection phase (the bulk of the linear-time preprocessing)
/// therefore runs once per state of *those* relations, whichever of the
/// three asks first: a write to `R1` re-assembles `q'` from one rebuilt
/// message and the memoized others. The token is polled per node, and
/// `*cold` is set when this call derived a message (what the callers'
/// spans report as `cold-build`).
pub(crate) fn free_join(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    cold: &mut bool,
) -> Result<Arc<FreeJoin>, EvalError> {
    let catalog = ctx.catalog();
    let text = q.to_string();
    catalog.artifact(db, "elim_msgs", &text, q.relations(), || {
        let tree = elimination_tree(q, db)?;
        let mut msgs = Vec::new();
        let mut covered = 0u64;
        for &c in tree.children(tree.root()) {
            let reads = subtree_relations(q, &tree, c);
            let msg = catalog.artifact(
                db,
                "elim_msg",
                &format!("{text}|{c}"),
                reads,
                || {
                    *cold = true;
                    subtree_message(ctx.cancel(), q, db, &tree, c)
                },
            )?;
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
        match yannakakis::join_tree_of_atoms(&msgs, q.n_vars()) {
            Some(tree) => Ok(Some((msgs, tree))),
            None => Err(EvalError::NotFreeConnex),
        }
    })
}

/// `q'` with the links of its join tree, or `None` where `q'` is.
pub(crate) type LinkedFreeJoin = Option<(Vec<Arc<BoundAtom>>, JoinLinks)>;

/// The atoms of [`free_join`] (shared with its own entry) and the links
/// of their tree, memoized together: what `COUNT` folds over and what
/// the tree of `ANSWERS` / `ACCESS` is reduced along. `*cold` as there.
pub(crate) fn free_links(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    cold: &mut bool,
) -> Result<Arc<LinkedFreeJoin>, EvalError> {
    ctx.catalog().artifact(db, "free_links", &q.to_string(), q.relations(), || {
        let free = free_join(ctx, q, db, cold)?;
        let linked = (*free).as_ref();
        Ok(linked.map(|(msgs, tree)| (msgs.clone(), JoinLinks::of_atoms(msgs, tree))))
    })
}

/// Count answers of a free-connex query in O(m) (Theorem 3.13): the
/// counting DP over the memoized `free_join` and the links of its
/// tree — repeated counts pay for the array passes over the (typically
/// smaller) messages only. Both phases poll the token.
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
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{
        path_database, random_pairs, seeded_rng, star_database, triangle_database,
    };
    use cq_data::{IndexCatalog, Relation};

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

    /// One preprocessing for the easy side: over one catalog `COUNT`,
    /// `ANSWERS` and `ACCESS` of a projected free-connex query — in every
    /// order of the three — derive each elimination message, `q'` and the
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
                // three messages, q' and its links for whoever comes first,
                // the tree for the first of ANSWERS / ACCESS, and nothing
                // otherwise
                let tree_at = order.iter().position(|&v| v != "COUNT").unwrap();
                let mut want = [0; 3];
                want[0] = 5;
                want[tree_at] += 1;
                assert_eq!(built, want, "misses per verb of {order:?}");
                assert_eq!(catalog.snapshot().artifacts, 6, "{order:?}");

                // the walk and the array are one structure
                let e = Enumerator::preprocess(&ctx, &q, &db).unwrap();
                let da = FreeConnexDirectAccess::build(&ctx, &q, &db).unwrap();
                assert!(Arc::ptr_eq(e.direct_access(), &da), "{order:?}");
                let warm = catalog.snapshot();
                assert_eq!(warm.misses, 6, "{order:?}: the lookups above are hits");

                // a write to R2 re-derives R2's message, q', its links and
                // the tree
                let mut db = db.clone();
                let old = count::free_join(&ctx, &q, &db, &mut false).unwrap();
                db.get_mut("R2").unwrap().insert_row(&[3, 9]);
                for verb in order {
                    assert_eq!(run(verb, &ctx, &db), 3, "{verb} after the write");
                }
                let rebuilt = catalog.snapshot();
                assert_eq!(rebuilt.misses, warm.misses + 4, "{order:?}");
                assert_eq!(rebuilt.invalidations, warm.invalidations + 4, "{order:?}");
                assert_eq!(rebuilt.artifacts, 6, "{order:?}: rebuilt entries replace");
                let new = count::free_join(&ctx, &q, &db, &mut false).unwrap();
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
