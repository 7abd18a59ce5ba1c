//! Catalog staleness safety: across arbitrary mutate → query
//! interleavings, catalog-backed evaluation must equal a fresh
//! evaluation and the brute-force oracle — per-relation version
//! validation can never serve a stale view, stale statistics, or a
//! stale preprocessing artifact, through whichever mutator the write
//! came — and must keep what a write did not touch.

use cq_core::query::zoo;
use cq_core::{parse_query, ConjunctiveQuery};
use cq_data::{DataStats, Database, IndexCatalog, Relation, SortedView, Val};
use cq_engine::bind::{brute_force_answers, brute_force_count, brute_force_decide};
use cq_engine::links::{join_index, EdgeLinks};
use cq_engine::{
    count, generic_join, DirectAccess, Enumerator, ExecCtx, FreeConnexDirectAccess,
};
use cq_planner::{eval, EvalCtx};
use proptest::prelude::*;
use std::sync::Arc;

/// One step of the interleaving: mutate one relation, or query.
#[derive(Clone, Debug)]
enum Step {
    /// Mutate relation `R{i}`: replace it with fresh random rows
    /// through `insert` (`how` 0) or `remove` + `insert` (1), or add
    /// one random row in place through `get_mut` (2).
    Mutate { rel: usize, seed: u64, rows: usize, how: usize },
    /// Evaluate one task (0 = decide, 1 = count, 2 = answers).
    Query { task: usize },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..10, any::<u64>(), 0usize..30, 0usize..3).prop_map(
        |(sel, seed, rows, task)| {
            if sel < 4 {
                Step::Mutate { rel: sel % 3, seed, rows, how: task }
            } else {
                Step::Query { task }
            }
        },
    )
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

/// Drive an interleaving against one query shape with a single
/// long-lived catalog, checking every query step against a
/// fresh evaluation and brute force.
fn drive(
    q: &ConjunctiveQuery,
    rel_names: &[&str],
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let mut db = Database::new();
    for (i, name) in rel_names.iter().enumerate() {
        db.insert(name, random_rel(2, 6 + i, 1000 + i as u64));
    }
    let catalog = IndexCatalog::new();
    for step in steps {
        match step {
            Step::Mutate { rel, seed, rows, how } => {
                let name = rel_names[rel % rel_names.len()];
                match how {
                    0 => {
                        db.insert(name, random_rel(2, *rows, *seed));
                    }
                    1 => {
                        db.remove(name).expect("every relation stays present");
                        db.insert(name, random_rel(2, *rows, *seed));
                    }
                    _ => {
                        let row = random_rel(2, 1, *seed);
                        db.get_mut(name).unwrap().insert_row(row.row(0));
                    }
                }
            }
            Step::Query { task } => match task {
                0 => {
                    let ctx = EvalCtx::new().with_catalog(&catalog);
                    let (got, _) = ctx.decide(q, &db).unwrap();
                    prop_assert_eq!(got, brute_force_decide(q, &db).unwrap());
                    let cold = IndexCatalog::new();
                    let fresh =
                        EvalCtx::new().with_catalog(&cold).decide(q, &db).unwrap().0;
                    prop_assert_eq!(got, fresh);
                }
                1 => {
                    let ctx = EvalCtx::new().with_catalog(&catalog);
                    let (got, _) = ctx.count(q, &db).unwrap();
                    prop_assert_eq!(got, brute_force_count(q, &db).unwrap());
                    let cold = IndexCatalog::new();
                    let fresh =
                        EvalCtx::new().with_catalog(&cold).count(q, &db).unwrap().0;
                    prop_assert_eq!(got, fresh);
                    prop_assert_eq!(&*catalog.stats(&db), &DataStats::collect(&db));
                }
                _ => {
                    let ctx = EvalCtx::new().with_catalog(&catalog);
                    let (got, _) = ctx.answers(q, &db).unwrap();
                    if !q.is_boolean() {
                        prop_assert_eq!(&got, &brute_force_answers(q, &db).unwrap());
                    }
                    let cold = IndexCatalog::new();
                    let fresh =
                        EvalCtx::new().with_catalog(&cold).answers(q, &db).unwrap().0;
                    prop_assert_eq!(got, fresh);
                }
            },
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Acyclic free-connex shape: decide routes through the catalog
    /// semijoin sweep, answers through the memoized reduced tree.
    #[test]
    fn path3_interleavings(steps in proptest::collection::vec(step_strategy(), 4..=14)) {
        drive(&zoo::path_join(3), &["R1", "R2", "R3"], &steps)?;
        drive(&zoo::path_boolean(3), &["R1", "R2", "R3"], &steps)?;
    }

    /// Cyclic shape: everything routes through catalog generic join.
    #[test]
    fn triangle_interleavings(steps in proptest::collection::vec(step_strategy(), 4..=12)) {
        drive(&zoo::triangle_join(), &["R1", "R2", "R3"], &steps)?;
    }

    /// Acyclic, not free-connex: counting takes the materialization
    /// baseline (catalog views), answers the materialize-project path.
    #[test]
    fn star2_interleavings(steps in proptest::collection::vec(step_strategy(), 4..=10)) {
        drive(&zoo::star_selfjoin_free(2), &["R1", "R2"], &steps)?;
    }

    /// Free-connex projection: one elimination message per subtree is
    /// memoized, each invalidated by its own relations only.
    #[test]
    fn star3_projection_interleavings(
        steps in proptest::collection::vec(step_strategy(), 4..=14),
    ) {
        let star = parse_query("q(a) :- R1(a, b), R2(a, c), R3(a, d)").unwrap();
        drive(&star, &["R1", "R2", "R3"], &steps)?;
        let chain = parse_query("q(a, b) :- R1(a, b), R2(b, c), R3(c, d)").unwrap();
        drive(&chain, &["R1", "R2", "R3"], &steps)?;
    }

    /// Self-joins and repeated-variable atoms: the `bound_rel` /
    /// `join_link` (join-tree folds) and `bound_view` (generic join)
    /// artifacts, whose keys name a relation more than once or not at
    /// all in the query text's first atom.
    #[test]
    fn self_join_and_repeated_variable_interleavings(
        steps in proptest::collection::vec(step_strategy(), 4..=12),
    ) {
        for src in [
            "q() :- R1(x, x), R1(x, y), R2(y, z)",
            "q(x, y, z) :- R1(x, y), R1(y, z)",
            "q(x, y, z) :- R1(x, y), R2(y, z), R3(z, x), R1(x, x)",
            "q(x, y) :- R2(x, x), R1(x, y), R2(y, x)",
        ] {
            drive(&parse_query(src).unwrap(), &["R1", "R2", "R3"], &steps)?;
        }
    }
}

/// Two queries over one long-lived catalog: a write to `R` must rebuild
/// what the `R ⋈ S` query reads of `R` and nothing of `S` — the entries
/// the `S`-only query reads stay *pointer-equal* across it, and reading
/// them again builds nothing.
#[test]
fn a_write_keeps_the_entries_of_relations_it_did_not_touch() {
    let rs = parse_query("q(x, y, z) :- R(x, y), S(y, z), R(z, x)").unwrap();
    let s_only = parse_query("q(x, y, z) :- S(x, y), S(y, z), S(z, x)").unwrap();
    let mut db = Database::new();
    db.insert("R", random_rel(2, 20, 1));
    db.insert("S", random_rel(2, 20, 2));
    let catalog = IndexCatalog::new();
    let check = |q: &ConjunctiveQuery, db: &Database| {
        let ctx = EvalCtx::new().with_catalog(&catalog);
        let (n, _) = ctx.count(q, db).unwrap();
        assert_eq!(n, brute_force_count(q, db).unwrap());
        let (rows, _) = ctx.answers(q, db).unwrap();
        assert_eq!(rows, brute_force_answers(q, db).unwrap());
        let cold = IndexCatalog::new();
        let cold = EvalCtx::new().with_catalog(&cold);
        assert_eq!(rows, cold.answers(q, db).unwrap().0);
    };
    for round in 0..6u64 {
        check(&rs, &db);
        check(&s_only, &db);
        // the views of S the triangle over S joins through
        let s_views = |db: &Database| {
            [[0, 1], [1, 0]].map(|cols| catalog.sorted_view(db, "S", &cols).unwrap())
        };
        let before = s_views(&db);
        let warm = catalog.snapshot();

        // write R (alternating mutators): S's entries are untouched
        if round % 2 == 0 {
            db.get_mut("R").unwrap().insert_row(&[round % 8, (round + 3) % 8]);
        } else {
            db.remove("R");
            db.insert("R", random_rel(2, 15 + round as usize, 10 + round));
        }
        // (the statistics are the one whole-database product: R's part
        // is re-collected by the first lookup after the write)
        assert_eq!(*catalog.stats(&db), DataStats::collect(&db));
        check(&s_only, &db);
        let after = s_views(&db);
        assert!(before.iter().zip(&after).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(
            catalog.snapshot().misses,
            warm.misses + 1,
            "S-only reads build nothing"
        );
        // ... and the query over both sees the new R
        check(&rs, &db);
        let rebuilt = catalog.snapshot();
        assert!(
            rebuilt.misses > warm.misses && rebuilt.invalidations > warm.invalidations
        );
        // rebuilt entries replaced their predecessors
        assert_eq!((rebuilt.views, rebuilt.artifacts), (warm.views, warm.artifacts));

        // write S: now the S-only query rebuilds too
        db.insert("S", random_rel(2, 18 + round as usize, 20 + round));
        check(&rs, &db);
        check(&s_only, &db);
        assert!(!Arc::ptr_eq(&after[0], &s_views(&db)[0]));
    }
}

/// A view's bitmaps live and die with it: an `INSERT` into `E` rebuilds
/// them — ranked inner levels included — under the same key, and the new
/// edge is a bit of the new views on every level it adds to, while a
/// write to a relation the join never reads leaves the view, bitmaps and
/// byte count included, pointer-equal. The bytes move by DESIGN.md's
/// formula, level by level.
#[test]
fn a_write_rebuilds_the_bitmaps_with_the_view_and_nothing_else_does() {
    let q = parse_query("q(x, y, z) :- E(x, y), E(y, z), E(z, x)").unwrap();
    // 40 vertices of out-degree 26 or 27: every adjacency list is dense,
    // and so are the 40 vertices under the root
    let edges = (0..40).flat_map(|a| (0..40).map(move |b| (a, b)));
    let mut db = Database::new();
    db.insert("E", Relation::from_pairs(edges.filter(|(a, b)| (a + b) % 3 != 0)));
    db.insert("Log", Relation::from_values(vec![1]));
    let catalog = IndexCatalog::new();
    let ctx = ExecCtx::warm(&catalog);
    let order = generic_join::default_order(&q);
    let check = |db: &Database| {
        let n = generic_join::count_distinct(&ctx, &q, db, &order).unwrap();
        assert_eq!(n, brute_force_count(&q, db).unwrap());
    };
    // the two views the triangle reads: E by (source, target), and by
    // (target, source) for `E(z, x)` under the order x, y, z
    let views = |db: &Database| {
        [[0, 1], [1, 0]].map(|cols| catalog.sorted_view(db, "E", &cols).unwrap())
    };
    let vertices = (1u64 << 40) - 1;
    // vertex 0's successors — and predecessors — as a word: no multiple of 3
    let word = (0..40).filter(|b| b % 3 != 0).fold(0u64, |w, b| w | 1 << b);
    check(&db);
    let before = views(&db);
    for v in &before {
        assert_eq!(v.bitmaps(0).of(0), (&[vertices][..], &[0][..]));
        assert_eq!(v.bitmaps(1).of(0), (&[word][..], &[][..]));
    }
    let warm = catalog.snapshot();
    assert_eq!(warm.view_bytes, before.iter().map(|v| formula(v)).sum::<usize>());

    db.get_mut("Log").unwrap().insert_row(&[2]);
    check(&db);
    assert!(before.iter().zip(views(&db)).all(|(b, a)| Arc::ptr_eq(b, &a)));
    let kept = catalog.snapshot();
    assert_eq!((kept.misses, kept.view_bytes), (warm.misses, warm.view_bytes));

    // a new source vertex 63 with the one successor 0
    db.get_mut("E").unwrap().insert_row(&[63, 0]);
    check(&db);
    let after = views(&db);
    assert!(before.iter().zip(&after).all(|(b, a)| !Arc::ptr_eq(b, a)));
    let [by_source, by_target] = &after;
    // a bit of the ranked root, over a singleton kept as a slice ...
    assert_eq!(by_source.bitmaps(0).of(0), (&[vertices | 1 << 63][..], &[0][..]));
    assert_eq!(by_source.bitmaps(1).of(40), (&[][..], &[][..]));
    // ... and a bit of vertex 0's predecessors
    assert_eq!(by_target.bitmaps(0).of(0), (&[vertices][..], &[0][..]));
    assert_eq!(by_target.bitmaps(1).of(0), (&[word | 1 << 63][..], &[][..]));
    let rebuilt = catalog.snapshot();
    assert_eq!((rebuilt.views, rebuilt.invalidations), (warm.views, 2));
    // by source a vertex (8), its child offset (4), its value on level 1
    // (8) and its start there (4) — the root's word holds bit 63; by
    // target one value on level 1 (8)
    assert_eq!(rebuilt.view_bytes, warm.view_bytes + (8 + 4 + 8 + 4) + 8);
    assert_eq!(rebuilt.view_bytes, after.iter().map(|v| formula(v)).sum::<usize>());
}

/// `SortedView::heap_bytes` as DESIGN.md states it, from what the view
/// shows: values, child offsets, and on each level with a dense
/// set its words and starts — and ranks, but on the last level.
fn formula(v: &SortedView) -> usize {
    let (k, mut bytes) = (v.n_key(), 0);
    for d in 0..k {
        let (p, sets) = (v.level(d).len(), if d == 0 { 1 } else { v.level(d - 1).len() });
        let w: usize = (0..sets).map(|i| v.bitmaps(d).of(i).0.len()).sum();
        let ranks = if d + 1 < k { w } else { 0 };
        bytes += 8 * p + if d + 1 < k { 4 * (p + 1) } else { 0 };
        bytes += if w > 0 { 8 * w + 4 * ranks + 4 * (sets + 1) } else { 0 };
    }
    bytes
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
                assert_eq!(Arc::ptr_eq(o, n), n.rel != r2, "{order:?}: only R2's moved");
            }
            let da_now = FreeConnexDirectAccess::build(&ctx, &q, &db).unwrap();
            assert!(!Arc::ptr_eq(&da, &da_now), "{order:?}: the tree was rebuilt");
        }
    }
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
        Arc::clone(links.edge(edge.expect("a path's neighbours share an edge")).unwrap())
    };
    let check = |db: &Database| {
        assert_eq!(
            count::count_acyclic_join(&ctx, &count, db).unwrap(),
            brute_force_count(&count, db).unwrap()
        );
        assert_eq!(
            cq_engine::yannakakis::decide_acyclic(&ctx, &decide, db).unwrap(),
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
    assert_eq!(catalog.snapshot().misses, cold.misses, "a `Log` write builds nothing");

    db.get_mut("R1").unwrap().insert_row(&[7, 7]);
    check(&db);
    assert!(!Arc::ptr_eq(&whole, &join_index(&ctx, &count, &db).unwrap()));
    assert!(!Arc::ptr_eq(&r12, &link(&db, "R1", "R2")));
    assert!(Arc::ptr_eq(&r23, &link(&db, "R2", "R3")));
    let rebuilt = catalog.snapshot();
    assert_eq!(rebuilt.misses, cold.misses + 2, "the body entry and R1's edge");
    assert_eq!(rebuilt.artifacts, 3, "rebuilt entries replace");
}

/// Diverging clones against one catalog: after `clone()` the two sides
/// share every version; each then mutates a different relation.
/// Alternating lookups must serve each side its own content — shared
/// entries for what neither wrote, rebuilt ones for what one did.
#[test]
fn diverging_clones_share_one_catalog_safely() {
    let q = zoo::path_join(2);
    let mut a = Database::new();
    a.insert("R1", random_rel(2, 12, 1));
    a.insert("R2", random_rel(2, 12, 2));
    let catalog = IndexCatalog::new();
    let ctx = EvalCtx::new().with_catalog(&catalog);
    let (common, _) = ctx.answers(&q, &a).unwrap();
    let mut b = a.clone();
    let r2_of_a = catalog.sorted_view(&a, "R2", &[0, 1]).unwrap();
    assert!(Arc::ptr_eq(&r2_of_a, &catalog.sorted_view(&b, "R2", &[0, 1]).unwrap()));
    a.get_mut("R1").unwrap().insert_row(&[1, 1]);
    b.insert("R2", random_rel(2, 9, 3));
    for round in 0..4 {
        for db in [&a, &b] {
            let (got, _) = ctx.answers(&q, db).unwrap();
            assert_eq!(got, brute_force_answers(&q, db).unwrap(), "round {round}");
            let (n, _) = ctx.count(&q, db).unwrap();
            assert_eq!(n, got.len() as u64, "round {round}");
            assert_eq!(*catalog.stats(db), DataStats::collect(db), "round {round}");
        }
        // a never wrote R2: its view of R2 is still the shared one
        // whenever a was the last to ask for it
        let again = catalog.sorted_view(&a, "R2", &[0, 1]).unwrap();
        assert_eq!(again.level(1), r2_of_a.level(1));
    }
    assert_ne!(brute_force_answers(&q, &a).unwrap(), common);
}

/// The same staleness argument for the facade's one process-wide
/// catalog: entries validate against per-relation versions, so facade
/// calls can never see a previous state's indexes — and a write keeps
/// warm what it did not touch. (No other test of this binary uses the
/// process-wide catalog, so its counters are this test's own.)
#[test]
fn facade_registry_interleaving() {
    let q = zoo::path_join(2);
    let mut db = Database::new();
    db.insert("R1", random_rel(2, 8, 1));
    db.insert("R2", random_rel(2, 8, 2));
    db.insert("Log", random_rel(2, 8, 3));
    for round in 0..20u64 {
        let (got, _) = eval::answers(&q, &db).unwrap();
        assert_eq!(got, brute_force_answers(&q, &db).unwrap(), "round {round}");
        if round % 3 == 0 {
            db.insert("R1", random_rel(2, 4 + round as usize % 9, 100 + round));
        }
        if round % 4 == 1 {
            db.insert("R2", random_rel(2, 3 + round as usize % 7, 200 + round));
        }
    }
    // a write to a relation the query does not read moves the database's
    // generation and nothing the query's evaluation was built from
    let (want, _) = eval::count(&q, &db).unwrap();
    let built = eval::catalog().snapshot().misses;
    db.get_mut("Log").unwrap().insert_row(&[1, 1]);
    let (got, _) = eval::count(&q, &db).unwrap();
    assert_eq!(got, want);
    let rebuilt = eval::catalog().snapshot().misses - built;
    assert_eq!(rebuilt, 1, "only the statistics (of `Log`) are collected again");
}
