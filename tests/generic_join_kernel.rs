//! The generic-join kernel's work counter against the AGM bound — the
//! theorem the algorithm is named for — and its cancellation.
//!
//! Every other oracle in the repository that sees a generic-join answer
//! (the planner consistency tests' zoo, cqbench's mirror) runs the same
//! engine in-process, so only brute force can catch a kernel bug: the
//! kernel's answers, counts and morsel splits are checked against it on
//! random queries, under every variable order, by the unit tests of
//! `cq_engine::generic_join`.

use cq_engine::{generic_join, CancelToken, ExecCtx};
use cq_lower_bounds::prelude::*;
use cq_obs::trace::{self, TraceSink};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(rows, seeks)` of the one span named `name` that `run` records.
fn traced(name: &str, run: impl FnOnce()) -> (u64, u64) {
    let sink = TraceSink::enabled();
    trace::with(&sink, run);
    let trace = sink.finish("test", name).expect("the sink is enabled");
    let mut found = None;
    trace.visit(|_, span| {
        if span.name == name {
            found = span.attr("rows").zip(span.attr("seeks"));
        }
    });
    found.unwrap_or_else(|| panic!("a `{name}` span with `rows` and `seeks`"))
}

/// The count of `q` and the `seeks` of the `op.generic-join.count` span
/// a catalog count records.
fn traced_count(
    q: &ConjunctiveQuery,
    db: &Database,
    catalog: &IndexCatalog,
) -> (u64, u64) {
    let order = generic_join::default_order(q);
    let ctx = ExecCtx::warm(catalog);
    let mut n = 0;
    let (rows, seeks) = traced("op.generic-join.count", || {
        n = generic_join::count_distinct(&ctx, q, db, &order).unwrap();
    });
    assert_eq!(rows, n);
    (n, seeks)
}

/// `seeks + rows` of the `op.generic-join.answers` span: the work of a
/// join that hands over every answer, which no word-parallelism can take
/// below the number of answers.
fn traced_answers_work(
    q: &ConjunctiveQuery,
    db: &Database,
    catalog: &IndexCatalog,
) -> u64 {
    let order = generic_join::default_order(q);
    let ctx = ExecCtx::warm(catalog);
    let (rows, seeks) = traced("op.generic-join.answers", || {
        generic_join::answers(&ctx, q, db, &order).unwrap();
    });
    rows + seeks
}

/// One row of the seeks table: a query and its ρ*, the constant `c` of
/// its bound `seeks ≤ c · m^ρ*`, and an instance family `side ↦
/// (database, closed-form count)` on which the AGM bound is tight, at
/// three sides that about double `m` (the size of each relation) or more
/// from one to the next.
struct Shape {
    name: &'static str,
    q: ConjunctiveQuery,
    rho: f64,
    c: f64,
    sides: [u64; 3],
    instance: fn(&ConjunctiveQuery, u64) -> (Database, u64),
}

/// Every atom over the full `[d]^arity`: all `d^{#vars}` assignments
/// are answers, `m^ρ*` of them for Loomis–Whitney joins and cycles.
fn full(q: &ConjunctiveQuery, d: u64) -> (Database, u64) {
    let mut db = Database::new();
    for atom in q.atoms() {
        db.insert(&atom.relation, cq_data::generate::full_relation(atom.arity(), d));
    }
    (db, d.pow(q.n_vars() as u32))
}

/// `q*_k` over `m` spokes on a single hub: every `k`-tuple of spokes is
/// an answer (the hub instance behind Lemma 3.9's `m^k`).
fn one_hub(q: &ConjunctiveQuery, m: u64) -> (Database, u64) {
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs((0..m).map(|i| (i, 0))));
    (db, m.pow(q.free_vars().len() as u32))
}

/// `q_mm` with `x` and `z` over `m` values and `y` over 4 hubs: `x` and
/// `z` pair up iff they share a hub, `m²/4` times (Thm 3.12's `m²`).
fn four_hubs(_: &ConjunctiveQuery, m: u64) -> (Database, u64) {
    let mut db = Database::new();
    db.insert("R1", Relation::from_pairs((0..m).map(|i| (i, i % 4))));
    db.insert("R2", Relation::from_pairs((0..m).map(|i| (i % 4, i))));
    (db, m * m / 4)
}

/// Count `q` on `db` twice over one catalog: the count is `want`, the
/// seeks stay within `c · m^ρ*`, and the counter — exact, no clock —
/// repeats. Returns `m`, the count's seeks and the catalog.
fn seeks_within(shape: &Shape, db: &Database, want: u64) -> (f64, f64, IndexCatalog) {
    let Shape { name, q, rho, c, .. } = shape;
    let m = db.expect(&q.atoms()[0].relation).len();
    let catalog = IndexCatalog::new();
    let (n, seeks) = traced_count(q, db, &catalog);
    assert_eq!(n, want, "{name} m={m}");
    let bound = c * (m as f64).powf(*rho);
    assert!(
        seeks as f64 <= bound,
        "{name} m={m}: {seeks} seeks > {c} · m^{rho} = {bound}"
    );
    assert_eq!(traced_count(q, db, &catalog), (n, seeks), "{name} m={m}: must repeat");
    (m as f64, seeks as f64, catalog)
}

/// The work counter is a theorem check. On AGM-tight instances generic
/// join's seeks stay within a constant times m^ρ* — one constant per
/// shape across sizes — and the work of handing over the m^ρ* answers
/// *grows* like m^ρ*: the exponent fitted to (m, seeks + rows) of the
/// answers span is within 0.1 of ρ*. A count hands nothing over, so word
/// ANDs may take its seeks below that: its fitted exponent is only held
/// to at most ρ* + 0.1. That is Thm 3.2's m^{3/2} for the triangle, Thm
/// 3.5's m^{1+1/(k−1)} for Loomis–Whitney joins, m^{k/2} for cycles,
/// Lemma 3.9's m^k for counting `q*_k` and Thm 3.12's m² for `q_mm`,
/// both through the projection-deduplicating count.
#[test]
fn seeks_stay_within_the_agm_bound() {
    let lw = |k| zoo::loomis_whitney_boolean(k).join_version();
    let triangle =
        cq_core::parse_query("q(x, y, z) :- E(x, y), E(y, z), E(z, x)").unwrap();
    let shape = |name, q, c, sides, instance| {
        let rho = cq_core::agm::agm_exponent(&q).expect("no isolated variables");
        Shape { name, q, rho, c, sides, instance }
    };
    let table = [
        shape("triangle", triangle, 2.5, [16, 23, 32], full),
        shape("lw3", lw(3), 2.5, [16, 23, 32], full),
        shape("lw4", lw(4), 3.5, [8, 10, 13], full),
        shape("lw5", lw(5), 5.5, [6, 8, 10], full),
        shape("c4", zoo::cycle_join(4), 2.5, [8, 11, 16], full),
        shape("c5", zoo::cycle_join(5), 2.5, [6, 8, 11], full),
        shape("star2", zoo::star_selfjoin(2), 3.5, [100, 200, 400], one_hub),
        shape("star3", zoo::star_selfjoin(3), 4.5, [16, 32, 64], one_hub),
        shape("q_mm", zoo::matmul_projection(), 0.3, [200, 400, 800], four_hubs),
    ];
    let fit = |points: &[(f64, f64)]| {
        cq_matrix::omega::fit_exponent(points).expect("three sizes")
    };
    for shape in &table {
        let Shape { name, q, rho, .. } = shape;
        let points = shape.sides.map(|side| {
            let (db, want) = (shape.instance)(q, side);
            let (m, seeks, catalog) = seeks_within(shape, &db, want);
            [(m, seeks), (m, traced_answers_work(q, &db, &catalog) as f64)]
        });
        let counting = fit(&points.map(|p| p[0]));
        assert!(counting <= rho + 0.1, "{name}: count seeks grow as m^{counting:.3}");
        let answering = fit(&points.map(|p| p[1]));
        assert!(
            (answering - rho).abs() <= 0.1,
            "{name}: answers' seeks + rows grow as m^{answering:.3}, ρ* = {rho}"
        );
    }

    // the word as work, not wall-clock: where every last-column node is
    // dense, a count ANDs 64 candidates at a time and the answers must
    // still be handed over one by one
    for shape in &table[..2] {
        for d in [64, 96] {
            let (db, want) = full(&shape.q, d);
            let (_, seeks, catalog) = seeks_within(shape, &db, want);
            let answering = traced_answers_work(&shape.q, &db, &catalog);
            assert!(
                8.0 * seeks <= answering as f64,
                "{} d={d}: {seeks} count seeks, {answering} to answer",
                shape.name
            );
        }
    }

    // off the worst case: sparser random instances of the two ρ* = 3/2
    // shapes stay under the same constants, counts by adjacency lists
    for shape in &table[..2] {
        for m in [1000usize, 2000, 4000] {
            let side = (m as f64).sqrt();
            for domain in [(2.0 * side) as u64, (6.0 * side) as u64] {
                let mut rng = cq_data::generate::seeded_rng(m as u64 + domain);
                let rel = cq_data::generate::random_pairs(m, domain, &mut rng);
                let mut db = Database::new();
                for atom in shape.q.atoms() {
                    db.insert(&atom.relation, rel.clone());
                }
                seeks_within(shape, &db, brute_force_triangles(&rel, &shape.q));
            }
        }
    }
}

/// Triangles of `rel` as both shapes above see them, by adjacency lists:
/// the cyclic `E(x,y), E(y,z), E(z,x)` and Loomis–Whitney's
/// `R1(x2,x3), R2(x1,x3), R3(x1,x2)` over the same pairs.
fn brute_force_triangles(rel: &Relation, q: &ConjunctiveQuery) -> u64 {
    let cyclic = q.atoms()[0].relation == "E";
    let mut n = 0;
    for ab in rel.iter() {
        for i in rel.prefix_range(&[ab[1]]) {
            let bc = rel.row(i);
            let closing = if cyclic { [bc[1], ab[0]] } else { [ab[0], bc[1]] };
            n += u64::from(rel.contains(&closing));
        }
    }
    n
}

#[test]
fn an_expired_deadline_trips_before_any_work() {
    let q = zoo::triangle_join();
    let db = cq_data::generate::triangle_database(&cq_data::generate::random_pairs(
        200,
        30,
        &mut cq_data::generate::seeded_rng(1),
    ));
    let order = generic_join::default_order(&q);
    let catalog = IndexCatalog::new();
    // a fresh token per call: only a token's first poll is unstrided
    let expired = || CancelToken::with_timeout(Duration::ZERO);
    let token = expired();
    let mut visits = 0;
    let got = generic_join::visit(
        &ExecCtx::new(&catalog, &token),
        &q,
        &db,
        &order,
        &mut |_| {
            visits += 1;
            true
        },
    );
    assert_eq!(got, Err(EvalError::Cancelled));
    assert_eq!(visits, 0);
    assert_eq!(token.polls(), 1, "the join's first poll is a real one");
    let token = expired();
    assert_eq!(
        generic_join::count_distinct(&ExecCtx::new(&catalog, &token), &q, &db, &order),
        Err(EvalError::Cancelled)
    );
    let token = expired();
    assert_eq!(
        generic_join::decide(&ExecCtx::new(&catalog, &token), &q, &db, &order),
        Err(EvalError::Cancelled)
    );
}

#[test]
fn a_deadline_passing_mid_join_aborts_lw4() {
    // LW4 over the full [12]^3: 12^4 = 20 736 answers, far more than one
    // poll stride, so the join cannot finish before it notices — and
    // dense: every node at every column is a bitmap, so every depth ANDs
    // words, and all but the last descend by rank
    let d = 12u64;
    let q = zoo::loomis_whitney_boolean(4).join_version();
    let db = cq_data::generate::lw_database(4, &cq_data::generate::full_relation(3, d));
    let order = generic_join::default_order(&q);
    let catalog = IndexCatalog::new();
    // build the views first: the deadline is to pass inside the join
    assert!(generic_join::decide(&ExecCtx::warm(&catalog), &q, &db, &order).unwrap());
    for atom in q.atoms() {
        let view = catalog.sorted_view(&db, &atom.relation, &[0, 1, 2]).unwrap();
        for level in 0..3 {
            let (words, rank) = view.bitmaps(level).of(0);
            assert_eq!(words, &[(1 << d) - 1], "{} level {level}", atom.relation);
            assert_eq!(rank.len(), usize::from(level < 2), "ranked above the last level");
        }
    }

    let deadline = Instant::now() + Duration::from_millis(250);
    let token = CancelToken::with_deadline(deadline);
    let mut visits = 0u32;
    let ctx = ExecCtx::new(&catalog, &token);
    let got = generic_join::visit(&ctx, &q, &db, &order, &mut |_| {
        if visits == 0 {
            // sit on the first answer until the deadline has passed
            std::thread::sleep(
                deadline.saturating_duration_since(Instant::now())
                    + Duration::from_millis(2),
            );
        }
        visits += 1;
        true
    });
    assert_eq!(got, Err(EvalError::Cancelled));
    assert!(visits >= 1, "the token must trip inside the join, not before it");
    assert!(
        visits <= cq_engine::cancel::STRIDE + 1,
        "{visits} answers after the deadline: the join polls at least once per answer"
    );
    assert!(token.is_cancelled());
    // the counting sink takes the same exit
    assert_eq!(
        generic_join::count_distinct(&ctx, &q, &db, &order),
        Err(EvalError::Cancelled)
    );

    // a count hands no answer over, so its polls are its nodes: one each,
    // a node that is a single word AND included ...
    let nodes = 1 + d + d * d + d * d * d;
    let token = CancelToken::never();
    let ctx = ExecCtx::new(&catalog, &token);
    assert_eq!(generic_join::count_distinct(&ctx, &q, &db, &order), Ok(d.pow(4)));
    assert_eq!(token.polls(), nodes);
    // ... and a token that trips at its third consultation stops the
    // count at that node: not one more is expanded
    let consulted = Arc::new(AtomicU32::new(0));
    let seen = Arc::clone(&consulted);
    let token = CancelToken::never()
        .with_probe(move || seen.fetch_add(1, Ordering::Relaxed) == 2);
    assert_eq!(
        generic_join::count_distinct(&ExecCtx::new(&catalog, &token), &q, &db, &order),
        Err(EvalError::Cancelled)
    );
    assert_eq!(token.polls(), 2 * u64::from(cq_engine::cancel::STRIDE) + 1);
    assert_eq!(consulted.load(Ordering::Relaxed), 3);
}
