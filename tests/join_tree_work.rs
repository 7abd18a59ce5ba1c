//! Linear work as an invariant, not a stopwatch.
//!
//! Theorems 3.1, 3.8 and 3.13 promise O(m) for deciding an acyclic
//! query, counting an acyclic join and counting a free-connex query.
//! The three operators report their work on a `steps` span attribute —
//! rows visited plus links followed by the sum-product fold — and this
//! table holds them to the promise the way `generic_join_kernel.rs`
//! holds generic join to the AGM bound: within a constant times the
//! input size, one constant per shape across sizes; exactly repeatable
//! (a counter, no clock); and *growing* like m — the exponent fitted to
//! (m, steps) over four doubling sizes is 1 ± 0.05. The linear
//! preprocessing of Thms 3.17 / 3.18 is the fourth row: the reduction of
//! `q'` along the same links reports the same kind of `steps`.

use cq_engine::{count, generic_join, yannakakis, Enumerator, ExecCtx};
use cq_lower_bounds::prelude::*;
use cq_obs::trace::{self, TraceSink};

/// Run `f` traced and return its result with the `steps` of the one
/// span named `op` it recorded.
fn traced<T>(op: &str, q: &ConjunctiveQuery, f: impl FnOnce() -> T) -> (T, u64) {
    let sink = TraceSink::enabled();
    let out = trace::with(&sink, f);
    let mut steps = None;
    sink.finish("test", &q.to_string()).expect("the sink is enabled").visit(|_, span| {
        if span.name == op {
            // a fold reports its output and its polls beside its work
            let fold = span.attr("rows").is_some() && span.attr("cancel-polls").is_some();
            assert!(fold || op == PREPROCESS);
            steps = span.attr("steps");
        }
    });
    (out, steps.unwrap_or_else(|| panic!("`{op}` carries a `steps` attribute")))
}

/// One relation of `m` random pairs over `0..m` per symbol of `q`. With
/// `joining` false the first atom's relation moves out of every other's
/// domain: nothing joins, so no verdict is reached before the last row.
fn instance(q: &ConjunctiveQuery, m: usize, joining: bool) -> Database {
    let mut db = Database::new();
    for (i, atom) in q.atoms().iter().enumerate() {
        let mut rng = cq_data::generate::seeded_rng((m + i) as u64);
        let rel = cq_data::generate::random_pairs(m, m as Val, &mut rng);
        let shift = if i == 0 && !joining { m as Val } else { 0 };
        let rows = rel.iter().map(|r| (r[0] + shift, r[1] + shift));
        db.insert(&atom.relation, Relation::from_pairs(rows.collect::<Vec<_>>()));
    }
    db
}

const SIZES: [usize; 4] = [2_000, 4_000, 8_000, 16_000];
const PREPROCESS: &str = "op.enumerate.preprocess";

/// The count by an algorithm that shares no code with the fold: generic
/// join, most-shared variables first (a star's hub before its spokes).
fn join_count(q: &ConjunctiveQuery, db: &Database) -> u64 {
    let mut order: Vec<Var> = q.vars().collect();
    let atoms_with = |v: &Var| q.atoms().iter().filter(|a| a.vars.contains(v)).count();
    order.sort_by_key(|v| std::cmp::Reverse(atoms_with(v)));
    generic_join::count_distinct(&ExecCtx::cold(), q, db, &order).unwrap()
}

/// `steps` of `run` over `q` at every size: within `c · Σ|Rᵢ|`, the same
/// on a second (warm) run over the same catalog, and fitted to m^1.
fn assert_linear(
    what: &str,
    op: &str,
    q: &ConjunctiveQuery,
    c: u64,
    joining: bool,
    run: impl Fn(&ExecCtx, &Database) -> u64,
) {
    let points = SIZES.map(|m| {
        let db = instance(q, m, joining);
        let catalog = IndexCatalog::new();
        let ctx = ExecCtx::warm(&catalog);
        let (cold, steps) = traced(op, q, || run(&ctx, &db));
        let built = catalog.snapshot().misses;
        let (warm, again) = traced(op, q, || run(&ctx, &db));
        assert_eq!((warm, again), (cold, steps), "{what} m={m}: must repeat");
        assert_eq!(catalog.snapshot().misses, built, "{what} m={m}: warm builds nothing");
        let input = db.size() as u64;
        assert!(steps <= c * input, "{what} m={m}: {steps} steps > {c} · {input}");
        (m as f64, steps as f64)
    });
    let fit = cq_matrix::omega::fit_exponent(&points).expect("four sizes");
    assert!((fit - 1.0).abs() <= 0.05, "{what}: steps grow as m^{fit:.3}, promised m^1");
}

/// Every node visits its rows once and follows one link per child: a
/// tree of `n` equal relations takes `(2n − 1) · m` steps, under `2 · Σ`.
#[test]
fn acyclic_counting_and_decision_take_linear_steps() {
    let star = |k| zoo::star_selfjoin_free(k).join_version();
    let shapes = [
        ("path2", zoo::path_join(2)),
        ("path3", zoo::path_join(3)),
        ("path4", zoo::path_join(4)),
        ("star2", star(2)),
        ("star3", star(3)),
    ];
    for (name, q) in &shapes {
        assert_linear(
            &format!("COUNT {name}"),
            "op.count-acyclic",
            q,
            2,
            true,
            |ctx, db| {
                let n = count::count_acyclic_join(ctx, q, db).unwrap();
                assert_eq!(n, join_count(q, db), "{name}");
                n
            },
        );
        // a true instance stops at the root's first block; a false one
        // must read everything — Thm 3.1's worst case
        let boolean = q.boolean_version();
        let decide = |ctx: &ExecCtx, db: &Database| {
            u64::from(yannakakis::decide_acyclic(ctx, &boolean, db).unwrap())
        };
        let what = format!("DECIDE {name}");
        assert_linear(&what, "op.yannakakis.decide", &boolean, 2, false, |ctx, db| {
            assert_eq!(decide(ctx, db), 0, "{name}: nothing joins");
            0
        });
        let db = instance(q, SIZES[0], true);
        let ctx = ExecCtx::cold();
        let (truth, early) =
            traced("op.yannakakis.decide", &boolean, || decide(&ctx, &db));
        assert_eq!(truth == 1, join_count(q, &db) > 0, "{name}");
        assert!(
            early <= 2 * db.size() as u64,
            "{name}: {early} steps on a true instance"
        );
    }
}

/// Thm 3.13: the fold runs over `q'`, whose messages are projections of
/// semijoin-reduced relations — never larger than the input.
#[test]
fn free_connex_counting_takes_linear_steps() {
    let q =
        cq_core::parse_query("q(x0, x1) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)").unwrap();
    assert!(cq_core::free_connex::is_free_connex(&q) && !q.is_join_query());
    assert_linear(
        "COUNT path3 prefix",
        "op.count-free-connex",
        &q,
        2,
        true,
        |ctx, db| {
            let n = count::count_free_connex(ctx, &q, db).unwrap();
            assert_eq!(n, join_count(&q, db));
            n
        },
    );
}

/// Thms 3.17 / 3.18: a cold preprocessing reduces `q'` in two passes
/// along the links of its tree — a tree of `n` equal relations takes
/// `2 · (2n − 1) · m` steps, under `4 · Σ` — the same on every fresh
/// catalog; a warm one finds the tree, builds nothing and reports 0.
#[test]
fn enumeration_preprocessing_takes_linear_steps() {
    let prefix =
        cq_core::parse_query("q(x0, x1) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)").unwrap();
    let star3 = zoo::star_selfjoin_free(3).join_version();
    for (name, q) in
        [("path3", zoo::path_join(3)), ("star3", star3), ("path3 prefix", prefix)]
    {
        let points = SIZES.map(|m| {
            let db = instance(&q, m, true);
            let preprocess = |catalog: &IndexCatalog| {
                let ctx = ExecCtx::warm(catalog);
                traced(PREPROCESS, &q, || Enumerator::preprocess(&ctx, &q, &db).unwrap())
                    .1
            };
            let catalog = IndexCatalog::new();
            let steps = preprocess(&catalog);
            let input = db.size() as u64;
            assert!(steps > 0 && steps <= 4 * input, "{name} m={m}: {steps} steps");
            assert_eq!(
                preprocess(&IndexCatalog::new()),
                steps,
                "{name} m={m}: must repeat"
            );
            let built = catalog.snapshot().misses;
            assert_eq!(preprocess(&catalog), 0, "{name} m={m}: a warm hit does no work");
            assert_eq!(
                catalog.snapshot().misses,
                built,
                "{name} m={m}: warm builds nothing"
            );
            (m as f64, steps as f64)
        });
        let fit = cq_matrix::omega::fit_exponent(&points).expect("four sizes");
        assert!(
            (fit - 1.0).abs() <= 0.05,
            "{name}: steps grow as m^{fit:.3}, promised m^1"
        );
    }
}
