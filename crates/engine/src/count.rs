//! Counting query answers (Theorems 3.8 and 3.13).
//!
//! * [`count_acyclic_join`] — the counting Yannakakis DP for acyclic
//!   *join* queries: weights propagate bottom-up along the join tree in
//!   O(m) (Thm 3.8);
//! * [`count_free_connex`] — free-connex queries: eliminate the
//!   quantified variables along a join tree of `H ∪ {free}` rooted at
//!   the virtual free-edge, producing an acyclic join query over exactly
//!   the free variables, then run the DP (Thm 3.13, see the discussion in
//!   [14, §4.1]).
//!
//! Cross-algorithm dispatch (formerly a `count_answers` facade here)
//! lives in `cq-planner`, which picks between these entry points and
//! the generic-join materialization baseline of Lemma 3.9 / Cor 3.11
//! from the query's classification.

use crate::bind::{bind, BoundAtom, EvalError};
use crate::semijoin::semijoin;
use crate::yannakakis;
use cq_core::hypergraph::mask_vertices;
use cq_core::{ConjunctiveQuery, JoinTree, Var};
use cq_data::{Database, FxHashMap, Val};

/// The counting DP over a join tree: each node aggregates, per parent
/// key, the semiring-weighted count of its subtree's joinable tuples.
/// Tuples that fail to join get weight 0 automatically, so no prior
/// semijoin reduction is required.
///
/// Counts are accumulated in u128 and must fit u64 at the root.
pub fn count_dp(atoms: &[BoundAtom], tree: &JoinTree) -> u64 {
    count_dp_cancel(atoms, tree, &crate::cancel::CancelToken::never())
        .expect("a never-token cannot cancel")
}

/// [`count_dp`] polling `cancel` once per aggregated row: the DP is
/// O(m) per node, so the row loop is where a deadline must be able to
/// interrupt it.
pub fn count_dp_cancel(
    atoms: &[BoundAtom],
    tree: &JoinTree,
    cancel: &crate::cancel::CancelToken,
) -> Result<u64, EvalError> {
    // per node: map from parent-key values to summed subtree weights
    let mut msgs: Vec<Option<FxHashMap<Box<[Val]>, u128>>> = vec![None; atoms.len()];
    let mut total: u128 = 1;
    let order = tree.bottom_up();
    for &u in &order {
        cancel.check_now()?;
        let a = &atoms[u];
        // columns of this node's parent key
        let key_cols: Vec<usize> = mask_vertices(tree.key_mask(u))
            .map(|v| a.col_of(Var(v as u32)).unwrap())
            .collect();
        // children keys: (child, columns in u for child's key)
        let kids: Vec<(usize, Vec<usize>)> = tree
            .children(u)
            .iter()
            .map(|&c| {
                let cols: Vec<usize> = mask_vertices(tree.key_mask(c))
                    .map(|v| a.col_of(Var(v as u32)).unwrap())
                    .collect();
                (c, cols)
            })
            .collect();
        let mut msg: FxHashMap<Box<[Val]>, u128> = FxHashMap::default();
        let mut keybuf: Vec<Val> = Vec::new();
        for row in a.rel.iter() {
            cancel.check()?;
            let mut w: u128 = 1;
            for (c, cols) in &kids {
                keybuf.clear();
                keybuf.extend(cols.iter().map(|&cc| row[cc]));
                let child_msg = msgs[*c].as_ref().unwrap();
                match child_msg.get(keybuf.as_slice()) {
                    Some(&s) => w = w.saturating_mul(s),
                    None => {
                        w = 0;
                        break;
                    }
                }
            }
            if w == 0 {
                continue;
            }
            keybuf.clear();
            keybuf.extend(key_cols.iter().map(|&cc| row[cc]));
            // box the key only the first time it is seen
            if let Some(sum) = msg.get_mut(keybuf.as_slice()) {
                *sum += w;
            } else {
                msg.insert(keybuf.as_slice().into(), w);
            }
        }
        if u == tree.root() {
            total = msg.values().sum();
        }
        msgs[u] = Some(msg);
    }
    Ok(u64::try_from(total).expect("answer count exceeds u64"))
}

/// Count answers of an acyclic *join* query in O(m) (Theorem 3.8).
pub fn count_acyclic_join(q: &ConjunctiveQuery, db: &Database) -> Result<u64, EvalError> {
    if !q.is_join_query() {
        return Err(EvalError::NotJoinQuery);
    }
    let atoms = bind(q, db)?;
    let tree = yannakakis::join_tree_of(q)?;
    Ok(count_dp(&atoms, &tree))
}

/// [`count_acyclic_join`] with the bound atoms memoized in the catalog:
/// repeated counts of the same query skip the bind (relation clones and
/// repeated-variable collapsing) and pay for the DP only.
pub fn count_acyclic_join_with_catalog(
    q: &ConjunctiveQuery,
    db: &Database,
    catalog: &cq_data::IndexCatalog,
) -> Result<u64, EvalError> {
    count_acyclic_join_with_catalog_cancel(
        q,
        db,
        catalog,
        &crate::cancel::CancelToken::never(),
    )
}

/// [`count_acyclic_join_with_catalog`] under a
/// [`CancelToken`](crate::cancel::CancelToken).
pub fn count_acyclic_join_with_catalog_cancel(
    q: &ConjunctiveQuery,
    db: &Database,
    catalog: &cq_data::IndexCatalog,
    cancel: &crate::cancel::CancelToken,
) -> Result<u64, EvalError> {
    if !q.is_join_query() {
        return Err(EvalError::NotJoinQuery);
    }
    let mut span = cq_obs::trace::span("op.count-acyclic");
    let atoms = catalog.artifact(db, "bound_atoms", &q.to_string(), || bind(q, db))?;
    let tree = yannakakis::join_tree_of(q)?;
    let n = count_dp_cancel(&atoms, &tree, cancel)?;
    span.attr("rows", n);
    span.attr("cancel-polls", cancel.polls());
    Ok(n)
}

/// The projection-elimination step shared by counting, enumeration, and
/// direct access for free-connex queries: returns bound atoms over
/// *exactly the free variables* whose join equals `q(D)`, or `None` if
/// the query is unsatisfiable because of a fully quantified component.
///
/// Construction: join tree of `H ∪ {free}` rooted at the virtual free
/// edge; bottom-up, each node is semijoined with its children's messages
/// and projected onto its parent key. The root's children's messages are
/// the new atoms (the "q' is an acyclic join query" of [14, §4.1]).
pub fn eliminate_projections(
    q: &ConjunctiveQuery,
    db: &Database,
) -> Result<Option<Vec<BoundAtom>>, EvalError> {
    eliminate_projections_cancel(q, db, &crate::cancel::CancelToken::never())
}

/// [`eliminate_projections`] polling `cancel` between per-node
/// semijoin/projection passes.
pub fn eliminate_projections_cancel(
    q: &ConjunctiveQuery,
    db: &Database,
    cancel: &crate::cancel::CancelToken,
) -> Result<Option<Vec<BoundAtom>>, EvalError> {
    let atoms = bind(q, db)?;
    let free = q.free_mask();
    assert!(free != 0, "projection elimination needs free variables");
    let h = q.hypergraph();
    if !h.is_acyclic() {
        return Err(EvalError::NotAcyclic);
    }
    let hf = h.with_edge(free);
    let virt = atoms.len(); // index of the virtual free-edge node
    let tree = match cq_core::gyo::join_tree(&hf) {
        Some(t) => t.rerooted(virt),
        None => return Err(EvalError::NotFreeConnex),
    };

    // bottom-up messages: None until computed. Message of node u = its
    // relation, semijoined by children messages, projected to key(u).
    let mut msgs: Vec<Option<BoundAtom>> = vec![None; tree.n_nodes()];
    for u in tree.bottom_up() {
        cancel.check_now()?;
        if u == virt {
            continue; // root: children messages are the result
        }
        let mut rel = atoms[u].rel.clone();
        let vars = atoms[u].vars.clone();
        for &c in tree.children(u) {
            let msg = msgs[c].take().unwrap();
            if msg.vars.is_empty() {
                // nullary message: empty = unsatisfiable component
                if msg.rel.arity() == 1 && msg.rel.is_empty() {
                    return Ok(None);
                }
                continue; // satisfied: no constraint
            }
            let here = BoundAtom { vars: vars.clone(), rel };
            let (cu, cm) = yannakakis::shared_cols(&here, &msg);
            rel = semijoin(&here.rel, &cu, &msg.rel, &cm);
            if rel.is_empty() {
                return Ok(None);
            }
        }
        // project to key(u)
        let key_vars: Vec<Var> =
            mask_vertices(tree.key_mask(u)).map(|v| Var(v as u32)).collect();
        if key_vars.is_empty() {
            // nullary: encode satisfiability as a unary relation {0} / {}
            let marker = if rel.is_empty() {
                cq_data::Relation::new(1)
            } else {
                cq_data::Relation::from_values(vec![0])
            };
            msgs[u] = Some(BoundAtom { vars: Vec::new(), rel: marker });
        } else {
            let cols: Vec<usize> = key_vars
                .iter()
                .map(|&v| vars.iter().position(|&x| x == v).unwrap())
                .collect();
            let projected = rel.project(&cols);
            msgs[u] = Some(BoundAtom { vars: key_vars, rel: projected });
        }
    }

    let mut out: Vec<BoundAtom> = Vec::new();
    let mut covered = 0u64;
    for &c in tree.children(virt) {
        let msg = msgs[c].take().unwrap();
        if msg.vars.is_empty() {
            if msg.rel.is_empty() {
                return Ok(None);
            }
            continue;
        }
        covered |= msg.scope();
        out.push(msg);
    }
    debug_assert_eq!(covered, free, "messages must cover all free variables");
    Ok(Some(out))
}

/// Count answers of a free-connex query in O(m) (Theorem 3.13).
pub fn count_free_connex(q: &ConjunctiveQuery, db: &Database) -> Result<u64, EvalError> {
    if q.is_boolean() {
        return Ok(if yannakakis::decide_acyclic(q, db)? { 1 } else { 0 });
    }
    let msgs = match eliminate_projections(q, db)? {
        Some(m) => m,
        None => return Ok(0),
    };
    count_eliminated(q, &msgs)
}

/// [`count_free_connex`] with the projection-elimination messages
/// memoized in the catalog: the semijoin/projection phase (the bulk of
/// the linear-time preprocessing) runs once per database state, and
/// repeated counts pay for the DP over the (typically smaller) messages
/// only.
pub fn count_free_connex_with_catalog(
    q: &ConjunctiveQuery,
    db: &Database,
    catalog: &cq_data::IndexCatalog,
) -> Result<u64, EvalError> {
    count_free_connex_with_catalog_cancel(
        q,
        db,
        catalog,
        &crate::cancel::CancelToken::never(),
    )
}

/// [`count_free_connex_with_catalog`] under a
/// [`CancelToken`](crate::cancel::CancelToken): both the
/// projection-elimination preprocessing (when cold) and the DP poll it.
pub fn count_free_connex_with_catalog_cancel(
    q: &ConjunctiveQuery,
    db: &Database,
    catalog: &cq_data::IndexCatalog,
    cancel: &crate::cancel::CancelToken,
) -> Result<u64, EvalError> {
    if q.is_boolean() {
        let res = yannakakis::decide_acyclic_with_catalog_cancel(q, db, catalog, cancel)?;
        return Ok(u64::from(res));
    }
    let mut span = cq_obs::trace::span("op.count-free-connex");
    let mut cold = false;
    let msgs = catalog.artifact(db, "elim_msgs", &q.to_string(), || {
        cold = true;
        eliminate_projections_cancel(q, db, cancel)
    })?;
    span.attr("cold-build", u64::from(cold));
    let n = match &*msgs {
        Some(m) => count_eliminated_cancel(q, m, cancel)?,
        None => 0,
    };
    span.attr("rows", n);
    span.attr("cancel-polls", cancel.polls());
    Ok(n)
}

/// The shared DP over projection-elimination messages: `q'` is an
/// acyclic join query over the free variables.
fn count_eliminated(q: &ConjunctiveQuery, msgs: &[BoundAtom]) -> Result<u64, EvalError> {
    count_eliminated_cancel(q, msgs, &crate::cancel::CancelToken::never())
}

fn count_eliminated_cancel(
    q: &ConjunctiveQuery,
    msgs: &[BoundAtom],
    cancel: &crate::cancel::CancelToken,
) -> Result<u64, EvalError> {
    let scopes: Vec<u64> = msgs.iter().map(BoundAtom::scope).collect();
    let h = cq_core::Hypergraph::new(q.n_vars(), scopes);
    let tree = cq_core::gyo::join_tree(&h).ok_or(EvalError::NotFreeConnex)?;
    count_dp_cancel(msgs, &tree, cancel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::brute_force_count;
    use cq_core::parse_query;
    use cq_core::query::zoo;
    use cq_data::generate::{
        path_database, random_pairs, seeded_rng, star_database, triangle_database,
    };
    use cq_data::Relation;

    #[test]
    fn count_path_join_matches_brute_force() {
        for k in 2..=4 {
            let db = path_database(k, 60, &mut seeded_rng(k as u64));
            let q = zoo::path_join(k);
            assert_eq!(
                count_acyclic_join(&q, &db).unwrap(),
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
            count_acyclic_join(&q, &db).unwrap(),
            brute_force_count(&q, &db).unwrap()
        );
    }

    #[test]
    fn count_join_rejects_projection() {
        let db = star_database(2, 10, 2, &mut seeded_rng(1));
        assert_eq!(
            count_acyclic_join(&zoo::star_selfjoin(2), &db).unwrap_err(),
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
            count_free_connex(&q, &db).unwrap(),
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
            count_free_connex(&q, &db).unwrap(),
            brute_force_count(&q, &db).unwrap()
        );
    }

    #[test]
    fn count_boolean_query() {
        let db = path_database(3, 40, &mut seeded_rng(4));
        let q = zoo::path_boolean(3);
        let c = count_free_connex(&q, &db).unwrap();
        assert!(c <= 1);
        assert_eq!(c == 1, crate::bind::brute_force_decide(&q, &db).unwrap());
    }

    #[test]
    fn count_distinct_matches_on_the_hard_side() {
        // the materialization baseline the planner falls back to on the
        // hard side of the counting dichotomy
        let db2 = star_database(2, 50, 4, &mut seeded_rng(6));
        let c =
            crate::generic_join::count_distinct(&zoo::star_selfjoin(2), &db2).unwrap();
        assert_eq!(c, brute_force_count(&zoo::star_selfjoin(2), &db2).unwrap());
    }

    #[test]
    fn count_triangle_via_materialization() {
        let edges = random_pairs(50, 12, &mut seeded_rng(7));
        let db = triangle_database(&edges);
        let q = zoo::triangle_join();
        let c = crate::generic_join::count_distinct(&q, &db).unwrap();
        assert_eq!(c, brute_force_count(&q, &db).unwrap());
    }

    #[test]
    fn unsatisfiable_quantified_component_gives_zero() {
        // q(x) :- R(x), S(y, z): S empty → 0 answers
        let mut db = Database::new();
        db.insert("R", Relation::from_values(vec![1, 2]));
        db.insert("S", Relation::new(2));
        let q = parse_query("q(x) :- R(x), S(y, z)").unwrap();
        assert_eq!(count_free_connex(&q, &db).unwrap(), 0);
        // S nonempty → |R| answers
        db.insert("S", Relation::from_pairs(vec![(7, 8)]));
        assert_eq!(count_free_connex(&q, &db).unwrap(), 2);
    }

    #[test]
    fn star_counting_matches_for_small_k() {
        for k in 1..=3usize {
            let db = star_database(k, 40, 3, &mut seeded_rng(10 + k as u64));
            let q = zoo::star_selfjoin_free(k);
            // k = 1 is free-connex; k ≥ 2 takes the materialization baseline
            let c = if cq_core::free_connex::is_free_connex(&q) {
                count_free_connex(&q, &db).unwrap()
            } else {
                crate::generic_join::count_distinct(&q, &db).unwrap()
            };
            assert_eq!(c, brute_force_count(&q, &db).unwrap(), "k={k}");
        }
    }

    #[test]
    fn catalog_counting_matches_plain() {
        let cat = cq_data::IndexCatalog::new();
        let db = path_database(3, 60, &mut seeded_rng(21));
        let q = zoo::path_join(3);
        let want = count_acyclic_join(&q, &db).unwrap();
        assert_eq!(count_acyclic_join_with_catalog(&q, &db, &cat).unwrap(), want);
        let before = cat.snapshot();
        assert_eq!(count_acyclic_join_with_catalog(&q, &db, &cat).unwrap(), want);
        assert_eq!(cat.snapshot().misses, before.misses, "bound atoms memoized");

        let fc = parse_query("q(x0, x1) :- R1(x0, x1), R2(x1, x2)").unwrap();
        let db = path_database(2, 80, &mut seeded_rng(22));
        let want = count_free_connex(&fc, &db).unwrap();
        assert_eq!(count_free_connex_with_catalog(&fc, &db, &cat).unwrap(), want);
        let before = cat.snapshot();
        assert_eq!(count_free_connex_with_catalog(&fc, &db, &cat).unwrap(), want);
        assert_eq!(cat.snapshot().misses, before.misses, "messages memoized");

        // boolean routes through the catalog decide
        let qb = zoo::path_boolean(2);
        assert_eq!(
            count_free_connex_with_catalog(&qb, &db, &cat).unwrap(),
            count_free_connex(&qb, &db).unwrap()
        );
    }

    #[test]
    fn dp_handles_unreduced_inputs() {
        // dangling tuples must contribute 0 without prior semijoins
        let mut db = Database::new();
        db.insert("R1", Relation::from_pairs(vec![(1, 2), (9, 9)]));
        db.insert("R2", Relation::from_pairs(vec![(2, 3)]));
        let q = zoo::path_join(2);
        assert_eq!(count_acyclic_join(&q, &db).unwrap(), 1);
    }

    #[test]
    fn free_connex_star1() {
        let db = star_database(1, 30, 3, &mut seeded_rng(11));
        let q = zoo::star_selfjoin(1); // q(x1) :- R(x1, z): free-connex
        assert_eq!(
            count_free_connex(&q, &db).unwrap(),
            brute_force_count(&q, &db).unwrap()
        );
    }
}
