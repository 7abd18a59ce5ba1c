//! Integration tests: every algorithm in the engine — and the planner
//! routing between them — must agree with every other algorithm (and
//! the brute-force oracle) on a shared suite of queries and random
//! databases. The operator table below is where an entry point's
//! cold/warm/cancelled behaviour is pinned; per-module unit tests cover
//! what is particular to one algorithm.

use cq_engine::bind::{brute_force_answers, brute_force_count, brute_force_decide};
use cq_engine::CancelToken;
use cq_engine::{count, generic_join, yannakakis};
use cq_lower_bounds::prelude::*;
use cq_reductions::sum_order::SumOrderAccess;
use queries::sorted_by;

mod queries;

/// The query suite: one representative per dichotomy class.
fn suite() -> Vec<ConjunctiveQuery> {
    vec![
        zoo::path_join(2),
        zoo::path_join(3),
        zoo::path_boolean(4),
        zoo::star_full(2),
        zoo::star_full(3),
        zoo::star_selfjoin(2),
        zoo::star_selfjoin_free(2),
        zoo::star_selfjoin_free(3),
        zoo::matmul_projection(),
        zoo::triangle_boolean(),
        zoo::triangle_join(),
        zoo::cycle_join(4),
        parse_query("q(x0, x1) :- R1(x0, x1), R2(x1, x2)").unwrap(),
        parse_query("q(a) :- R1(a, b), R2(b, c), R3(c, d)").unwrap(),
        parse_query("q(a, c) :- R1(a, b), R2(b, c), R3(c, d)").unwrap(),
        // an atom covering every variable (Thm 3.26's easy side), and a
        // repeated variable
        parse_query("q(a, b) :- R1(a, b), R2(b, a)").unwrap(),
        parse_query("q(a, b) :- R1(a, a), R2(a, b)").unwrap(),
        // join-tree links at their corners: a nullary parent key (a
        // disconnected body) and an edge whose two ends are one relation
        parse_query("q(a, b, c, d) :- R1(a, b), R2(c, d)").unwrap(),
        parse_query("q(x, y, z) :- R(x, y), R(y, z)").unwrap(),
    ]
}

/// A database covering every relation name the suite uses, with small
/// domains so joins are non-trivial.
fn random_db(seed: u64, m: usize) -> Database {
    let mut rng = cq_data::generate::seeded_rng(seed);
    let mut db = Database::new();
    for name in ["R", "R1", "R2", "R3", "R4"] {
        db.insert(name, cq_data::generate::random_pairs(m, 12, &mut rng));
    }
    db
}

/// What an entry point computed, in a form two runs (and brute force)
/// can be compared in.
#[derive(PartialEq, Debug)]
enum Out {
    Decision(bool),
    Count(u64),
    /// An answer set.
    Set(Relation),
    /// A simulated sorted array, position by position.
    Array(Vec<Vec<Val>>),
}

type Run = fn(&ExecCtx, &ConjunctiveQuery, &Database) -> Result<Out, EvalError>;

/// One row of the operator table: an entry point, the queries it
/// serves, and the brute-force value it must produce.
struct EntryPoint {
    name: &'static str,
    serves: fn(&ConjunctiveQuery) -> bool,
    run: Run,
    oracle: fn(&ConjunctiveQuery, &Database) -> Out,
}

fn any_query(_: &ConjunctiveQuery) -> bool {
    true
}
fn acyclic(q: &ConjunctiveQuery) -> bool {
    q.hypergraph().is_acyclic()
}
fn acyclic_join(q: &ConjunctiveQuery) -> bool {
    acyclic(q) && q.is_join_query()
}
fn free_connex(q: &ConjunctiveQuery) -> bool {
    cq_core::free_connex::is_free_connex(q)
}
fn free_connex_with_output(q: &ConjunctiveQuery) -> bool {
    free_connex(q) && !q.is_boolean()
}
fn join_query(q: &ConjunctiveQuery) -> bool {
    q.is_join_query()
}
fn has_trio_free_order(q: &ConjunctiveQuery) -> bool {
    acyclic_join(q) && lex_order(q).is_some()
}
fn has_covering_atom(q: &ConjunctiveQuery) -> bool {
    q.is_join_query()
        && q.atoms()
            .iter()
            .any(|a| a.vars.iter().fold(0, |m, v| m | v.mask()) == q.all_vars_mask())
}

/// The lexicographic order [`LexDirectAccess`] is exercised under: the
/// query's first trio-free order.
fn lex_order(q: &ConjunctiveQuery) -> Option<Vec<Var>> {
    cq_core::disruptive_trio::trio_free_orders(q).into_iter().next()
}

/// Every position of a direct-access structure, in order.
fn array_of(da: &dyn DirectAccess) -> Out {
    assert_eq!(da.access(da.len()), None);
    Out::Array((0..da.len()).map(|i| da.access(i).unwrap()).collect())
}

/// The weight of a domain value in the sum-order rows.
fn weight(v: Val) -> i64 {
    (v as i64 * 7) % 5
}

fn decision_oracle(q: &ConjunctiveQuery, db: &Database) -> Out {
    Out::Decision(brute_force_decide(q, db).unwrap())
}
fn count_oracle(q: &ConjunctiveQuery, db: &Database) -> Out {
    Out::Count(brute_force_count(q, db).unwrap())
}
fn set_oracle(q: &ConjunctiveQuery, db: &Database) -> Out {
    Out::Set(brute_force_answers(q, db).unwrap())
}
/// Brute-force answers of a join query as an array sorted by `key`.
fn sorted_oracle<K: Ord>(
    q: &ConjunctiveQuery,
    db: &Database,
    key: impl Fn(&[Val]) -> K,
) -> Out {
    let mut rows: Vec<Vec<Val>> =
        brute_force_answers(q, db).unwrap().iter().map(<[Val]>::to_vec).collect();
    rows.sort_by_key(|r| key(r));
    Out::Array(rows)
}
fn lex_oracle(q: &ConjunctiveQuery, db: &Database) -> Out {
    let order = lex_order(q).unwrap();
    sorted_oracle(q, db, |r| order.iter().map(|v| r[v.index()]).collect::<Vec<_>>())
}
fn interning_order_oracle(q: &ConjunctiveQuery, db: &Database) -> Out {
    sorted_oracle(q, db, <[Val]>::to_vec)
}
fn sum_order_oracle(q: &ConjunctiveQuery, db: &Database) -> Out {
    sorted_oracle(q, db, |r| (r.iter().map(|&v| weight(v)).sum::<i64>(), r.to_vec()))
}

/// A planner round trip under the engine context's catalog and token.
fn planned(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    task: Task,
) -> Result<cq_planner::Output, EvalError> {
    let plan = Planner::new().plan(q, task, &ctx.catalog().stats(db));
    cq_planner::EvalCtx::new()
        .with_catalog(ctx.catalog())
        .with_cancel(ctx.cancel().clone())
        .execute(&plan, q, db)
}

/// Every public entry point of the engine, the sum-order structures of
/// `cq-reductions` on top of its operators, and the planner's three
/// tasks.
fn entry_points() -> Vec<EntryPoint> {
    use generic_join::default_order as order;
    vec![
        EntryPoint {
            name: "yannakakis::decide_acyclic",
            serves: acyclic,
            run: |ctx, q, db| yannakakis::decide_acyclic(ctx, q, db).map(Out::Decision),
            oracle: decision_oracle,
        },
        EntryPoint {
            name: "generic_join::decide",
            serves: any_query,
            run: |ctx, q, db| {
                generic_join::decide(ctx, q, db, &order(q)).map(Out::Decision)
            },
            oracle: decision_oracle,
        },
        EntryPoint {
            name: "generic_join::count_distinct",
            serves: any_query,
            run: |ctx, q, db| {
                generic_join::count_distinct(ctx, q, db, &order(q)).map(Out::Count)
            },
            oracle: count_oracle,
        },
        EntryPoint {
            name: "generic_join::answers",
            serves: any_query,
            run: |ctx, q, db| generic_join::answers(ctx, q, db, &order(q)).map(Out::Set),
            oracle: set_oracle,
        },
        EntryPoint {
            name: "generic_join::visit",
            serves: any_query,
            run: |ctx, q, db| {
                let free = q.free_vars();
                let mut rows = Vec::new();
                generic_join::visit(ctx, q, db, &order(q), &mut |a| {
                    rows.push(free.iter().map(|v| a[v.index()]).collect());
                    true
                })?;
                Ok(Out::Set(Relation::from_rows(free.len(), rows)))
            },
            oracle: set_oracle,
        },
        EntryPoint {
            name: "count::count_free_connex",
            serves: free_connex,
            run: |ctx, q, db| count::count_free_connex(ctx, q, db).map(Out::Count),
            oracle: count_oracle,
        },
        EntryPoint {
            name: "enumerate::preprocess",
            serves: free_connex,
            run: |ctx, q, db| {
                Ok(Out::Set(Answers::walk(enumerate::preprocess(ctx, q, db)?).collect()?))
            },
            oracle: set_oracle,
        },
        EntryPoint {
            name: "LexDirectAccess::build",
            serves: has_trio_free_order,
            run: |ctx, q, db| {
                let da = LexDirectAccess::build(ctx, q, db, &lex_order(q).unwrap())?;
                Ok(array_of(&*da))
            },
            oracle: lex_oracle,
        },
        EntryPoint {
            name: "LexDirectAccess::materialized",
            serves: join_query,
            run: |ctx, q, db| {
                Ok(array_of(&*LexDirectAccess::materialized(ctx, q, db, &order(q))?))
            },
            oracle: interning_order_oracle,
        },
        EntryPoint {
            name: "LexDirectAccess::free_connex",
            serves: free_connex_with_output,
            run: |ctx, q, db| {
                // the order is the structure's own choice: compare as a set
                // (`enumeration_order_is_the_direct_access_order` has the array)
                let da = LexDirectAccess::free_connex(ctx, q, db)?;
                let Out::Array(rows) = array_of(&*da) else { unreachable!() };
                Ok(Out::Set(Relation::from_rows(da.schema().len(), rows)))
            },
            oracle: set_oracle,
        },
        EntryPoint {
            name: "SumOrderAccess::build_covering_atom",
            serves: has_covering_atom,
            run: |ctx, q, db| {
                Ok(array_of(&SumOrderAccess::build_covering_atom(ctx, q, db, &weight)?))
            },
            oracle: sum_order_oracle,
        },
        EntryPoint {
            name: "SumOrderAccess::build_materialized",
            serves: join_query,
            run: |ctx, q, db| {
                Ok(array_of(&SumOrderAccess::build_materialized(ctx, q, db, &weight)?))
            },
            oracle: sum_order_oracle,
        },
        EntryPoint {
            name: "planner: Task::Decide",
            serves: any_query,
            run: |ctx, q, db| {
                let out = planned(ctx, q, db, Task::Decide)?;
                Ok(Out::Decision(out.as_decision().unwrap()))
            },
            oracle: decision_oracle,
        },
        EntryPoint {
            name: "planner: Task::Count",
            serves: any_query,
            run: |ctx, q, db| {
                Ok(Out::Count(planned(ctx, q, db, Task::Count)?.as_count().unwrap()))
            },
            oracle: count_oracle,
        },
        EntryPoint {
            name: "planner: Task::Answers",
            serves: any_query,
            run: |ctx, q, db| match planned(ctx, q, db, Task::Answers)? {
                cq_planner::Output::Answers(a) => a.collect().map(Out::Set),
                other => panic!("answers plan yielded {other:?}"),
            },
            oracle: set_oracle,
        },
    ]
}

/// The operator table: for every entry point × suite query, one-shot
/// evaluation ≡ a warm context's first call ≡ its second call (which
/// builds nothing in the catalog) ≡ brute force — and a token cancelled
/// beforehand yields `Cancelled` instead of an answer.
#[test]
fn every_entry_point_agrees_cold_warm_and_with_brute_force() {
    let entry_points = entry_points();
    for ep in &entry_points {
        assert!(suite().iter().any(ep.serves), "no suite query exercises {}", ep.name);
    }
    for seed in 0..3u64 {
        let db = random_db(seed, 30);
        for q in suite() {
            let mut served = 0;
            for ep in entry_points.iter().filter(|ep| (ep.serves)(&q)) {
                served += 1;
                let at = format!("{} on {q} (seed {seed})", ep.name);
                let want = (ep.oracle)(&q, &db);
                assert_eq!(
                    (ep.run)(&ExecCtx::cold(), &q, &db).unwrap(),
                    want,
                    "cold {at}"
                );

                let catalog = IndexCatalog::new();
                let warm = ExecCtx::warm(&catalog);
                assert_eq!((ep.run)(&warm, &q, &db).unwrap(), want, "first warm {at}");
                let built = catalog.snapshot().misses;
                assert_eq!((ep.run)(&warm, &q, &db).unwrap(), want, "second warm {at}");
                assert_eq!(catalog.snapshot().misses, built, "second warm {at} built");

                let token = CancelToken::never();
                token.cancel();
                let cancelled =
                    (ep.run)(&ExecCtx::new(&IndexCatalog::new(), &token), &q, &db);
                assert_eq!(cancelled, Err(EvalError::Cancelled), "pre-cancelled {at}");
            }
            assert!(served >= 6, "{q} is served by only {served} entry points");
        }
    }
}

/// `q` under other variable names, interned in reverse — an isomorphic
/// query whose every variable index (and witness mask) differs.
fn renamed(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    let mut b = QueryBuilder::new("renamed");
    let n = q.n_vars();
    let fresh: Vec<Var> = (0..n).rev().map(|i| b.var(&format!("w{i}"))).collect();
    let to = |vars: &[Var]| -> Vec<Var> {
        vars.iter().map(|v| fresh[n - 1 - v.index()]).collect()
    };
    for atom in q.atoms() {
        b.atom(&atom.relation, &to(&atom.vars));
    }
    b.free(&to(&q.free_vars()));
    b.build().unwrap()
}

/// One verdict per (query, task): what a plan cites is the classifier's
/// field for that task, through either planning entry point — and an
/// isomorphic query under other names gets the verdict rendered in *its*
/// names.
#[test]
fn plans_cite_the_classifiers_verdict() {
    let mut queries = suite();
    queries.extend([
        zoo::path_boolean(3),
        zoo::cycle_boolean(4),
        zoo::cycle_boolean(5),
        zoo::loomis_whitney_boolean(3),
        zoo::loomis_whitney_boolean(4),
        zoo::clique_join(3),
        zoo::clique_join(3).boolean_version(),
    ]);
    let stats = DataStats::collect(&Database::new());
    for q in &queries {
        for q in [q.clone(), renamed(q)] {
            let profile = classify(&q);
            let fields = [
                (Task::Decide, &profile.decision),
                (Task::Count, &profile.counting),
                (Task::Answers, &profile.enumeration),
                (Task::Access, &profile.direct_access_unordered),
            ];
            for (task, want) in fields {
                let plan = Planner::new().plan(&q, task, &stats);
                assert_eq!(&plan.lower_bound, want, "{task} of {q}");
                assert_eq!(
                    plan,
                    Planner::plan_uncached(&q, task, &stats),
                    "{task} of {q}"
                );
            }
        }
    }
}

#[test]
fn direct_access_agrees_on_all_trio_free_orders() {
    // exhaustively: for small join queries, every trio-free order the
    // builder accepts must simulate the brute-force answers sorted by it
    // — and so must the materialized structure on a disrupted order,
    // q̂*_2 in (x1, x2, z), which the builder refuses
    let queries = vec![zoo::path_join(2), zoo::star_full(2), zoo::path_join(3)];
    let star2 = zoo::star_full(2);
    let disrupted: Vec<Var> =
        ["x1", "x2", "z"].iter().map(|n| star2.var_by_name(n).unwrap()).collect();
    for seed in 0..3u64 {
        let db = random_db(seed, 25);
        for q in &queries {
            for order in cq_core::disruptive_trio::trio_free_orders(q) {
                let ctx = ExecCtx::cold();
                match LexDirectAccess::build(&ctx, q, &db, &order) {
                    Ok(lex) => {
                        let want = Out::Array(sorted_by(q, &db, &order));
                        assert_eq!(array_of(&*lex), want, "{q} order {order:?}");
                    }
                    Err(EvalError::Unsupported(_)) => {
                        // The builder's sufficient condition is allowed to
                        // be incomplete; correctness is what we verify.
                    }
                    Err(other) => panic!("unexpected error on {q}: {other}"),
                }
            }
        }
        let ctx = ExecCtx::cold();
        assert!(LexDirectAccess::build(&ctx, &star2, &db, &disrupted).is_err());
        let mat = LexDirectAccess::materialized(&ctx, &star2, &db, &disrupted).unwrap();
        let want = sorted_by(&star2, &db, &disrupted);
        assert!(!want.is_empty(), "seed {seed}");
        assert_eq!(array_of(&*mat), Out::Array(want), "seed {seed}");
    }
}

#[test]
fn builder_covers_all_trio_free_orders_of_paper_examples() {
    // On the paper's example families the builder should succeed on
    // *every* trio-free order (and fail on every disrupted one).
    let db = random_db(99, 25);
    for q in [zoo::star_full(2), zoo::star_full(3), zoo::path_join(2), zoo::path_join(3)]
    {
        let mut n_free = 0;
        let mut n_built = 0;
        let all_orders = {
            // enumerate all permutations
            fn perms(vs: &[Var]) -> Vec<Vec<Var>> {
                if vs.len() <= 1 {
                    return vec![vs.to_vec()];
                }
                let mut out = Vec::new();
                for i in 0..vs.len() {
                    let mut rest = vs.to_vec();
                    let v = rest.remove(i);
                    for mut p in perms(&rest) {
                        p.insert(0, v);
                        out.push(p);
                    }
                }
                out
            }
            perms(&q.vars().collect::<Vec<_>>())
        };
        for order in all_orders {
            let trio_free =
                cq_core::disruptive_trio::find_disruptive_trio(&q, &order).is_none();
            let built = LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &order).is_ok();
            if trio_free {
                n_free += 1;
            }
            if built {
                n_built += 1;
            }
            assert_eq!(
                built,
                trio_free,
                "{q}: order {:?} trio_free={trio_free} but built={built}",
                order.iter().map(|&v| q.var_name(v)).collect::<Vec<_>>()
            );
        }
        assert!(n_free > 0 && n_built == n_free, "{q}");
    }
}

/// The order contract: enumeration order *is* the free-connex
/// direct-access order — the stream's `i`-th row is position `i` of the
/// simulated array (compared as arrays, not sets), sorted by the
/// structure's chosen order — on every free-connex query with output.
#[test]
fn enumeration_order_is_the_direct_access_order() {
    let queries: Vec<_> = suite().into_iter().filter(free_connex_with_output).collect();
    assert!(queries.len() >= 7, "only {} free-connex queries", queries.len());
    for seed in 0..3u64 {
        let db = random_db(seed, 30);
        for q in &queries {
            let catalog = IndexCatalog::new();
            let ctx = ExecCtx::warm(&catalog);
            let mut stream = Answers::walk(enumerate::preprocess(&ctx, q, &db).unwrap());
            let mut streamed = Vec::new();
            while let Some(row) = stream.next().unwrap() {
                streamed.push(row.to_vec());
            }
            let da = LexDirectAccess::free_connex(&ctx, q, &db).unwrap();
            let Out::Array(array) = array_of(&*da) else { unreachable!() };
            assert_eq!(streamed, array, "{q} (seed {seed})");
            let slot = |v: &Var| da.schema().iter().position(|s| s == v).unwrap();
            let key = |row: &Vec<Val>| -> Vec<Val> {
                da.order().iter().map(|v| row[slot(v)]).collect()
            };
            assert!(array.windows(2).all(|w| key(&w[0]) < key(&w[1])), "{q}: unsorted");
        }
    }
}

/// The reduced tree is rows + links, and nothing about its answers
/// moved: on the shapes that lean on the links — a disconnected body
/// (a nullary key: one group), dangling rows on both sides of an edge
/// (rows the reduction must drop before a group is a run), and a
/// lexicographic order that interleaves the star's spokes (its layered
/// tree links each spoke to the one before by the hub) — the walk,
/// `access(0..n)` and the rows the
/// key-searching tree produced (recorded at the commit before it went)
/// are one sequence.
#[test]
fn the_linked_tree_walks_and_accesses_the_recorded_rows() {
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs(vec![(1, 2), (2, 2), (3, 9), (4, 5)]));
    db.insert("S", Relation::from_pairs(vec![(2, 6), (2, 7), (5, 1), (8, 8)]));
    db.insert("T", Relation::from_pairs(vec![(7, 8), (5, 6)]));
    let recorded: [(&str, &[&[Val]]); 3] = [
        (
            "q(x, y, u, v) :- R(x, y), T(u, v)",
            &[
                &[1, 2, 5, 6],
                &[2, 2, 5, 6],
                &[3, 9, 5, 6],
                &[4, 5, 5, 6],
                &[1, 2, 7, 8],
                &[2, 2, 7, 8],
                &[3, 9, 7, 8],
                &[4, 5, 7, 8],
            ],
        ),
        (
            "q(x, y, z) :- R(x, y), S(y, z)",
            &[&[1, 2, 6], &[2, 2, 6], &[1, 2, 7], &[2, 2, 7], &[4, 5, 1]],
        ),
        ("q(y, x) :- R(x, y), S(y, z)", &[&[2, 1], &[2, 2], &[5, 4]]),
    ];
    for (src, want) in recorded {
        let q = parse_query(src).unwrap();
        let ctx = ExecCtx::cold();
        let mut stream = Answers::walk(enumerate::preprocess(&ctx, &q, &db).unwrap());
        let mut walked = Vec::new();
        while let Some(row) = stream.next().unwrap() {
            walked.push(row.to_vec());
        }
        let da = LexDirectAccess::free_connex(&ctx, &q, &db).unwrap();
        assert_eq!(array_of(&*da), Out::Array(walked.clone()), "{src}");
        assert_eq!(walked, want, "{src}");
    }
    // q̂*_3 under (z, x1, x3, x2): one layer per variable, each spoke
    // keyed by z
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs(vec![(1, 0), (2, 0), (3, 1), (4, 1)]));
    let q = zoo::star_full(3);
    let order: Vec<Var> =
        ["z", "x1", "x3", "x2"].iter().map(|n| q.var_by_name(n).unwrap()).collect();
    let lex = LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &order).unwrap();
    // z, then x1, then x3, then x2 — in columns (x1, x2, x3, z)
    let mut want = Vec::new();
    for (z, xs) in [(0, [1, 2]), (1, [3, 4])] {
        for x1 in xs {
            for x3 in xs {
                want.extend(xs.map(|x2| vec![x1, x2, x3, z]));
            }
        }
    }
    assert_eq!(want.len(), 16);
    assert_eq!(array_of(&*lex), Out::Array(want));
}
