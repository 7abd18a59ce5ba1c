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
use cq_engine::{generic_join, ExecCtx};
use cq_planner::EvalCtx;
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

    /// Self-joins and repeated-variable atoms: the `elim_msg` /
    /// `join_link` (`q'` and its links) and `bound_view` (generic join)
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

/// The same staleness argument for task methods over one catalog:
/// entries validate against per-relation versions, so a warm call can
/// never see a previous state's indexes — and a write keeps warm what it
/// did not touch.
#[test]
fn facade_registry_interleaving() {
    let catalog = IndexCatalog::new();
    let ctx = EvalCtx::new().with_catalog(&catalog);
    let q = zoo::path_join(2);
    let mut db = Database::new();
    db.insert("R1", random_rel(2, 8, 1));
    db.insert("R2", random_rel(2, 8, 2));
    db.insert("Log", random_rel(2, 8, 3));
    for round in 0..20u64 {
        let (got, _) = ctx.answers(&q, &db).unwrap();
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
    let (want, _) = ctx.count(&q, &db).unwrap();
    let built = catalog.snapshot().misses;
    db.get_mut("Log").unwrap().insert_row(&[1, 1]);
    let (got, _) = ctx.count(&q, &db).unwrap();
    assert_eq!(got, want);
    let rebuilt = catalog.snapshot().misses - built;
    assert_eq!(rebuilt, 1, "only the statistics (of `Log`) are collected again");
}
