//! The exponent table: every plan's cost exponent, checked on its
//! operator's work counter.
//!
//! `EXPLAIN` prints one exponent per plan, `plan.cost.exponent`: the
//! upper bound of the theorem whose algorithm the operator runs, which
//! the paper's lower bounds say no plan beats. A row of this table plans
//! a zoo query through the planner (`choose`, or `plan_lex_access` for an
//! ordered `ACCESS`), asserts the operator it picked, runs the plan
//! traced and reads the operator span's work counter: exact, no clock.
//! Over sizes spanning at least 4× in m (the plan's `cost.m`), the work
//! stays within `c · m^e`, one constant per row, and the exponent fitted
//! to (m, work) is at most `e` plus a slack — within the slack of `e` on
//! a family that makes the bound tight. A count ANDs whole words, so only
//! its upper bound is asserted; the answers span adds the rows handed
//! over, which no word takes below m^ρ* on AGM-tight instances.
//!
//! The operators that run over `q'` — deciding an acyclic query,
//! counting, enumerating and accessing a free-connex one, and accessing a
//! join query in a trio-free order — first derive it, on a cold build,
//! under an `op.free-connex.eliminate` span: its
//! `steps` are fitted on each of their rows too, at most m^1 plus the
//! slack and under `4 · Σ|Rᵢ|`.
//!
//! One test runs each operator's rows, named in [`probe`]: [`run`] is
//! all a test file calls.

#![allow(dead_code)] // each test file uses its own part of the harness

use cq_engine::{generic_join, ExecCtx};
use cq_lower_bounds::prelude::*;
use cq_obs::trace::{self, Span, TraceSink};
use cq_planner::{choose, EvalCtx, Op, Output, Source};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex, OnceLock};

/// One instance of a row's query per size parameter, with its answer
/// count when that has a closed form.
type Family = fn(&ConjunctiveQuery, u64) -> (Database, Option<u64>);

/// One row: a query and task the planner serves with `op` (a variable
/// `order` plans an ordered `ACCESS`), the constant of `work ≤ c · m^e`,
/// and an instance family at `sizes`, `tight` when it meets the bound.
pub struct Row {
    pub name: &'static str,
    pub query: ConjunctiveQuery,
    pub task: Task,
    order: Option<Vec<Var>>,
    op: Op,
    c: f64,
    family: Family,
    sizes: &'static [u64],
    tight: bool,
}

/// Each operator's span, the attributes summed into its work, whether a
/// warm run finds its product memoized and does no work, and the test
/// that runs its rows. Exhaustive: a new operator does not compile
/// without an arm here, and then needs a row. `steps` grow within 0.05
/// of the plan's exponent, `seeks` within 0.1.
fn probe(op: &Op) -> Probe {
    const STEPS: &[&str] = &["steps"];
    const SEEKS: &[&str] = &["seeks"];
    // the work of handing every answer over
    const ANSWERS: &[&str] = &["seeks", "rows"];
    const FOLDS: &str = "acyclic_counting_and_decision_take_linear_steps";
    const FREE_CONNEX: &str = "free_connex_counting_takes_linear_steps";
    // the linear preprocessing of enumeration and of direct access
    const PREPROCESS: &str = "enumeration_preprocessing_takes_linear_steps";
    const AGM: &str = "seeks_stay_within_the_agm_bound";
    const EVERY: &str = "every_plan_meets_its_exponent";
    match (&op.source, op.task) {
        // a decision is the Boolean `q'`, and a count a scalar entry of
        // its own: memoized, a warm one is a lookup
        (Source::QPrime { .. }, Task::Decide) => {
            ("op.yannakakis.decide", STEPS, true, FOLDS)
        }
        (Source::QPrime { join_query: true, .. }, Task::Count) => {
            ("op.count-free-connex", STEPS, true, FOLDS)
        }
        (Source::QPrime { .. }, Task::Count) => {
            ("op.count-free-connex", STEPS, true, FREE_CONNEX)
        }
        (Source::QPrime { .. }, Task::Answers) => {
            ("op.enumerate.preprocess", STEPS, true, PREPROCESS)
        }
        (Source::QPrime { order: Some(_), .. }, Task::Access) => {
            ("op.lex-access.build", STEPS, true, PREPROCESS)
        }
        (Source::QPrime { .. }, Task::Access) => {
            ("op.fc-access.build", STEPS, true, PREPROCESS)
        }
        (Source::GenericJoin { .. }, Task::Decide) => {
            ("op.generic-join.decide", SEEKS, true, EVERY)
        }
        (Source::GenericJoin { .. }, Task::Count) => {
            ("op.generic-join.count", SEEKS, true, AGM)
        }
        (Source::GenericJoin { .. }, Task::Answers) => {
            ("op.generic-join.answers", ANSWERS, false, AGM)
        }
        (Source::GenericJoin { .. }, Task::Access) => {
            ("op.generic-join.answers", ANSWERS, true, EVERY)
        }
    }
}

/// An operator's span, work attributes, memoization and test.
type Probe = (&'static str, &'static [&'static str], bool, &'static str);

/// The span a cold derivation of `q'` opens, beneath the span of the
/// operator that runs over it; its work is its `steps`.
const ELIMINATE: &str = "op.free-connex.eliminate";

/// Whether the operator runs over `q'`, derived by projection
/// elimination (a join query's too, and a Boolean query's).
fn derives_q_prime(op: &Op) -> bool {
    matches!(op.source, Source::QPrime { .. })
}

/// Run `f` under a trace sink: its result and, per name, the one span of
/// that name it recorded, if any.
fn traced<T, const N: usize>(
    names: [&str; N],
    f: impl FnOnce() -> T,
) -> (T, [Option<Span>; N]) {
    let sink = TraceSink::enabled();
    let out = trace::with(&sink, f);
    let mut found = [const { None }; N];
    if let Some(trace) = sink.finish("test", names[0]) {
        trace.visit(|_, s| {
            if let Some(i) = names.iter().position(|&name| s.name == name) {
                assert!(found[i].replace(s.clone()).is_none(), "one `{}` span", s.name);
            }
        });
    }
    (out, found)
}

/// The number of answers an execution produced: a decision's 0 or 1, a
/// count, or the rows of a stream.
fn answers(out: Output) -> u64 {
    match out {
        Output::Decision(truth) => u64::from(truth),
        Output::Count(n) => n,
        Output::Answers(mut a) => a.size_hint().unwrap_or_else(|| {
            std::iter::from_fn(|| a.next().unwrap().map(drop)).count() as u64
        }),
    }
}

/// The count by an algorithm that shares no code with the folds and
/// takes no order from the planner: generic join, most-shared variables
/// first (a star's hub before its spokes).
fn join_count(q: &ConjunctiveQuery, db: &Database) -> u64 {
    let mut order: Vec<Var> = q.vars().collect();
    let atoms_with = |v: &Var| q.atoms().iter().filter(|a| a.vars.contains(v)).count();
    order.sort_by_key(|v| std::cmp::Reverse(atoms_with(v)));
    let ctx = ExecCtx::cold();
    match q.is_boolean() {
        true => u64::from(generic_join::decide(&ctx, q, db, &order).unwrap()),
        false => generic_join::count_distinct(&ctx, q, db, &order).unwrap(),
    }
}

/// Plan `row` on `db` and run the plan cold, warm and — when the warm
/// run finds its product memoized, or the operator derives `q'` — cold
/// again on a fresh catalog. The planner picks the row's operator; it
/// finds `want` answers; an operator's span reports them and its polls
/// beside its work; the work repeats exactly, a warm run builds nothing,
/// and the work is within `c · m^e`. An operator over `q'` eliminates
/// under `4 · m` steps cold, the same again fresh, and not at all warm.
/// Returns `(m, work, e)` and the elimination's steps, if it ran.
pub fn measure(
    row: &Row,
    db: &Database,
    stats: &DataStats,
    want: u64,
) -> (f64, f64, f64, Option<f64>) {
    let (q, name) = (&row.query, format!("{:?} {}", row.task, row.name));
    let plan = match &row.order {
        Some(order) => Planner::plan_lex_access(q, order, stats),
        None => choose(q, row.task, &Structure::of(q), stats),
    };
    let (m, e) = (plan.cost.m as f64, plan.cost.exponent);
    assert_eq!(plan.op.name(), row.op.name(), "{name}: {plan:?}");
    let (op_span, attrs, memoized, _) = probe(&plan.op);
    let work = |span: &Span| attrs.iter().map(|a| span.attr(a).unwrap()).sum::<u64>();
    // the answers, the operator's span and the elimination's steps
    let run = |catalog: &IndexCatalog| {
        let ctx = EvalCtx::new().with_catalog(catalog);
        let run = || answers(ctx.execute(&plan, q, db).unwrap());
        let (n, [span, eliminate]) = traced([op_span, ELIMINATE], run);
        (n, span, eliminate.map(|span| span.attr("steps").unwrap()))
    };
    let catalog = IndexCatalog::new();
    let (n, span, eliminated) = run(&catalog);
    let span = span.unwrap_or_else(|| panic!("{name} m={m}: no `{op_span}` span"));
    let cold = work(&span);
    assert_eq!(n, want, "{name} m={m}");
    match span.attr("rows") {
        Some(rows) => assert!(rows == n && span.attr("cancel-polls").is_some(), "{name}"),
        None => assert!(memoized, "{name}: an operator reports its rows"),
    }
    let built = catalog.snapshot().misses;
    let (again, warm, warm_eliminated) = run(&catalog);
    assert_eq!(catalog.snapshot().misses, built, "{name} m={m}: warm builds nothing");
    let warm = warm.map_or(0, |span| work(&span));
    // a memoized product costs nothing warm, and repeats on a fresh catalog
    let fresh = (memoized || eliminated.is_some()).then(|| run(&IndexCatalog::new()));
    let (repeat, repeat_eliminated) = match fresh {
        Some((_, span, eliminated)) => (span.map_or(0, |span| work(&span)), eliminated),
        None => (cold, None),
    };
    let (free, repeat) = if memoized { (0, repeat) } else { (cold, warm) };
    assert_eq!((again, warm, repeat), (n, free, cold), "{name} m={m}: must repeat");
    let bound = row.c * m.powf(e);
    assert!(cold as f64 <= bound, "{name} m={m}: {cold} > {} · m^{e} = {bound}", row.c);
    let derives = derives_q_prime(&plan.op);
    assert_eq!(eliminated.is_some(), derives, "{name} m={m}: a cold `{ELIMINATE}`");
    assert_eq!(warm_eliminated, None, "{name} m={m}: a warm run eliminates nothing");
    assert_eq!(repeat_eliminated, eliminated, "{name} m={m}: elimination must repeat");
    let eliminated = eliminated.map(|steps| steps as f64);
    if let Some(steps) = eliminated {
        assert!(steps <= 4.0 * m, "{name} m={m}: eliminates in {steps} > 4 · m steps");
    }
    (m, cold as f64, e, eliminated)
}

/// The instance of `row`'s family at `side`, built once per test file:
/// the rows of one query share a database, its statistics and its answer
/// count — the family's closed form, else [`join_count`]'s.
fn instance(row: &Row, side: u64) -> Arc<OnceLock<Instance>> {
    type Key = (usize, u64, String);
    static INSTANCES: Mutex<BTreeMap<Key, Arc<OnceLock<Instance>>>> =
        Mutex::new(BTreeMap::new());
    let key = (row.family as usize, side, row.query.to_string());
    Arc::clone(INSTANCES.lock().unwrap().entry(key).or_default())
}
type Instance = (DataStats, Database, u64);

/// Fit the work of `row` over its sizes: at most the plan's exponent plus
/// the operator's slack, and within the slack when the family is tight;
/// an elimination's steps at most m^1 plus the `steps` slack. Returns
/// the fitted and the plan's exponent, and the elimination's fit.
fn fit(row: &Row) -> (f64, f64, Option<f64>) {
    let (q, name) = (&row.query, format!("{:?} {}", row.task, row.name));
    let (mut points, mut eliminations) = (Vec::new(), Vec::new());
    for &side in row.sizes {
        let slot = instance(row, side);
        let (stats, db, want) = slot.get_or_init(|| {
            let (db, closed) = (row.family)(q, side);
            let want = closed.unwrap_or_else(|| join_count(q, &db));
            (DataStats::collect(&db), db, want)
        });
        let (m, work, e, eliminated) = measure(row, db, stats, *want);
        points.push((m, work, e));
        eliminations.extend(eliminated.map(|steps| (m, steps)));
    }
    let e = points[0].2;
    let (first, last) = (points[0].0, points[points.len() - 1].0);
    assert!(points.len() >= 3 && last >= 4.0 * first, "{name}: sizes span 4×");
    let fit_of = |xy: &[(f64, f64)]| {
        cq_matrix::omega::fit_exponent(xy).expect("positive work at distinct sizes")
    };
    let xy: Vec<_> = points.iter().map(|&(m, work, _)| (m, work)).collect();
    let fit = fit_of(&xy);
    let slack = if probe(&row.op).1 == ["steps"] { 0.05 } else { 0.1 };
    assert!(fit <= e + slack, "{name}: work grows as m^{fit:.3}, plan m^{e}");
    assert!(!row.tight || fit >= e - slack, "{name}: m^{fit:.3} < plan m^{e}");
    let eliminate = (!eliminations.is_empty()).then(|| fit_of(&eliminations));
    if let Some(fit) = eliminate {
        assert!(fit <= 1.05, "{name}: elimination grows as m^{fit:.3}");
    }
    (fit, e, eliminate)
}

const LINEAR: &[u64] = &[2_000, 4_000, 8_000, 16_000];

/// `m` random pairs over `0..m` per relation symbol of `q` — the `i`-th
/// atom's drawn once per thread and size, whatever the query — the first
/// atom's moved up by `shift`.
fn random(q: &ConjunctiveQuery, m: u64, shift: Val) -> Database {
    thread_local!(static DRAWN: RefCell<HashMap<(u64, u64), Relation>> = RefCell::default());
    let mut db = Database::new();
    for (i, atom) in (0..).zip(q.atoms()) {
        let mut rel = DRAWN.with(|drawn| {
            let mut rng = cq_data::generate::seeded_rng(m + i);
            let draw = || cq_data::generate::random_pairs(m as usize, m, &mut rng);
            drawn.borrow_mut().entry((m, i)).or_insert_with(draw).clone()
        });
        if i == 0 && shift > 0 {
            let rows: Vec<_> = rel.iter().map(|r| (r[0] + shift, r[1] + shift)).collect();
            rel = Relation::from_pairs(rows);
        }
        db.insert(&atom.relation, rel);
    }
    db
}

/// `rel` under every relation symbol of `q`.
pub fn every_atom(q: &ConjunctiveQuery, rel: Relation) -> Database {
    let mut db = Database::new();
    for atom in q.atoms() {
        db.insert(&atom.relation, rel.clone());
    }
    db
}

/// Every atom over the full `[d]^arity`: every assignment is an answer,
/// `m^ρ*` of them for Loomis–Whitney joins and cycles.
pub fn full(q: &ConjunctiveQuery, d: u64) -> (Database, Option<u64>) {
    let rel = cq_data::generate::full_relation(q.atoms()[0].arity(), d);
    (every_atom(q, rel), Some(d.pow(q.free_vars().len() as u32)))
}

/// A star over `m` spokes on a single hub: every tuple of spokes is an
/// answer (the hub instance behind Lemma 3.9's `m^k`).
fn one_hub(q: &ConjunctiveQuery, m: u64) -> (Database, Option<u64>) {
    let spokes = Relation::from_pairs((0..m).map(|i| (i, 0)));
    (every_atom(q, spokes), Some(m.pow(q.atoms().len() as u32)))
}

/// `q_mm` with `x` and `z` over `m` values and `y` over 4 hubs: `x` and
/// `z` pair up iff they share a hub, `m²/4` times (Thm 3.12's `m²`).
fn four_hubs(_: &ConjunctiveQuery, m: u64) -> (Database, Option<u64>) {
    let mut db = Database::new();
    db.insert("R1", Relation::from_pairs((0..m).map(|i| (i, i % 4))));
    db.insert("R2", Relation::from_pairs((0..m).map(|i| (i % 4, i))));
    (db, Some(m * m / 4))
}

/// Every relation the complete bipartite graph between `d` even and `d`
/// odd vertices, both ways: no triangle closes, and a decision must
/// intersect the neighbourhoods of both ends of every edge.
fn bipartite(q: &ConjunctiveQuery, d: u64) -> (Database, Option<u64>) {
    let edges = (0..2 * d).flat_map(|a| (0..d).map(move |i| (a, 2 * i + 1 - a % 2)));
    (every_atom(q, Relation::from_pairs(edges.collect::<Vec<_>>())), Some(0))
}

/// The table. Linear rows: a tree of `n` equal relations folds in
/// `(2n − 1) · m` steps, under `2 · Σ|Rᵢ|`, and its reduction takes two
/// passes, under `4 · Σ|Rᵢ|`. Generic-join rows: Thm 3.2's m^{3/2} for
/// the triangle, Thm 3.5's m^{1+1/(k−1)} for Loomis–Whitney joins,
/// m^{k/2} for cycles, Lemma 3.9's m^k for `q*_k` and Thm 3.12's m² for
/// `q_mm`, on instances where they are tight.
pub fn table() -> Vec<Row> {
    // random pairs that join, with no closed form for the count; and with
    // the first atom's out of every other's domain: nothing joins, so no
    // verdict is reached before the last row — Thm 3.1's worst case
    let joining: Family = |q, m| (random(q, m, 0), None);
    let disjoint: Family = |q, m| (random(q, m, m), Some(0));
    let mut rows = Vec::new();
    let mut add = |name, query, task, source, c, family: Family, sizes, tight| {
        let op = Op { source, task };
        rows.push(Row { name, query, task, order: None, op, c, family, sizes, tight })
    };
    let q_prime = |join_query| Source::QPrime { join_query, order: None };
    let generic_join = || Source::GenericJoin { order: vec![] };
    let star = |k| zoo::star_selfjoin_free(k).join_version();
    let prefix = parse_query("q(x0, x1) :- R1(x0, x1), R2(x1, x2), R3(x2, x3)").unwrap();
    let (path3, star3) = (zoo::path_join(3), star(3));
    for (name, q) in
        [("path2", zoo::path_join(2)), ("path3", path3.clone())].into_iter().chain([
            ("path4", zoo::path_join(4)),
            ("star2", star(2)),
            ("star3", star3.clone()),
        ])
    {
        // a false instance reads everything; a true one stops early
        let (yes, sweep) = (q.boolean_version(), q_prime(false));
        add(name, yes.clone(), Task::Decide, sweep.clone(), 2.0, disjoint, LINEAR, true);
        add(name, yes, Task::Decide, sweep, 2.0, joining, &[500, 1_000, 2_000], false);
        add(name, q, Task::Count, q_prime(true), 2.0, joining, LINEAR, true);
    }
    let p = "path3 prefix";
    add(p, prefix.clone(), Task::Count, q_prime(false), 2.0, joining, LINEAR, true);
    add(p, prefix.clone(), Task::Access, q_prime(false), 4.0, joining, LINEAR, true);
    for (name, q, join) in
        [("path3", path3, true), ("star3", star3, true), (p, prefix, false)]
    {
        add(name, q, Task::Answers, q_prime(join), 4.0, joining, LINEAR, true);
    }

    let lw = |k| zoo::loomis_whitney_boolean(k).join_version();
    let triangle = parse_query("q(x, y, z) :- E(x, y), E(y, z), E(z, x)").unwrap();
    // the constants of the count — per relation as before, over Σ|Rᵢ| now:
    // c / n^ρ* for n equal relations — and of the answers
    let agm: [(_, _, Family, &[u64], _); 9] = [
        ("triangle", triangle, full, &[16, 23, 32], (2.5, 2.2)),
        ("lw3", lw(3), full, &[16, 23, 32], (0.48, 0.45)),
        ("lw4", lw(4), full, &[8, 10, 13], (0.55, 0.4)),
        ("lw5", lw(5), full, &[6, 8, 10], (0.73, 0.4)),
        ("c4", zoo::cycle_join(4), full, &[8, 11, 16], (0.15, 0.15)),
        ("c5", zoo::cycle_join(5), full, &[6, 8, 12], (0.044, 0.045)),
        ("star2", zoo::star_selfjoin(2), one_hub, &[100, 200, 400], (3.5, 2.1)),
        ("star3", zoo::star_selfjoin(3), one_hub, &[16, 32, 64], (4.5, 2.1)),
        ("q_mm", zoo::matmul_projection(), four_hubs, &[200, 400, 800], (0.075, 0.13)),
    ];
    for (name, q, family, sizes, (count, answers)) in agm {
        add(name, q.clone(), Task::Count, generic_join(), count, family, sizes, false);
        add(name, q, Task::Answers, generic_join(), answers, family, sizes, true);
    }
    let (tri, decide) = (zoo::triangle_boolean(), generic_join());
    add("triangle", tri, Task::Decide, decide, 0.01, bipartite, &[32, 64, 128], false);

    // ordered access, in the interning order: trio-free for a path, and
    // disrupted by (x1, x2, z) for the full 2-star
    let ordered = |name, query: ConjunctiveQuery, source, c, family, sizes| {
        let (order, op) =
            (Some(query.vars().collect()), Op { source, task: Task::Access });
        Row { name, query, task: Task::Access, order, op, c, family, sizes, tight: true }
    };
    let lex = Source::QPrime { join_query: true, order: Some(vec![]) };
    rows.push(ordered("path3", zoo::path_join(3), lex, 4.0, joining, LINEAR));
    let (star2, materialized) = (zoo::star_full(2), generic_join());
    rows.push(ordered("star2", star2, materialized, 4.2, one_hub, &[50, 100, 200]));
    rows
}

/// Fit every row whose operator [`probe`] assigns to the test named
/// `test`.
pub fn run(test: &str) {
    let rows = table().into_iter().filter(|row| probe(&row.op).3 == test);
    let mut ran = 0;
    for row in rows {
        let (fit, e, eliminate) = fit(&row);
        print!("{:?} {}: plan m^{e:.3}, fitted m^{fit:.3}", row.task, row.name);
        match eliminate {
            Some(eliminate) => println!("; elimination m^{eliminate:.3}"),
            None => println!(),
        }
        ran += 1;
    }
    assert!(ran > 0, "`{test}` runs no row");
}

/// The operators the table has rows for, by name.
pub fn operators() -> HashSet<&'static str> {
    table().iter().map(|row| row.op.name()).collect()
}
