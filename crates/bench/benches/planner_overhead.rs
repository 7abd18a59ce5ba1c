//! Planner dispatch-cost benchmarks: what does routing through
//! `cq-planner` cost on top of calling the engine directly?
//!
//! Three rungs per query shape:
//!   * `cold_plan`     — classification + canonicalization + choice
//!     (fresh planner every iteration: no cache effects);
//!   * `cache_hit`     — canonicalization + cache lookup + choice
//!     (warm planner: the steady-state dispatch cost);
//!   * `plan_uncached` — classification + choice without any cache
//!     bookkeeping (the floor planning can reach without shape reuse).
//!
//! Also measures the end-to-end dispatch (`plan + execute`, warm cache)
//! against the direct engine call on a small database, so regressions
//! in dispatch cost show up in wall-clock context.

use cq_core::query::zoo;
use cq_core::ConjunctiveQuery;
use cq_data::generate as gen;
use cq_data::{DataStats, Database};
use cq_engine::ExecCtx;
use cq_planner::{execute, Planner, Task};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn shapes() -> Vec<(&'static str, ConjunctiveQuery, Task)> {
    vec![
        ("path3_decide", zoo::path_boolean(3), Task::Decide),
        ("path3_count", zoo::path_join(3), Task::Count),
        ("triangle_decide", zoo::triangle_boolean(), Task::Decide),
        ("star3_count", zoo::star_selfjoin_free(3), Task::Count),
        ("matmul_answers", zoo::matmul_projection(), Task::Answers),
        ("lw4_decide", zoo::loomis_whitney_boolean(4), Task::Decide),
    ]
}

fn db_for(q: &ConjunctiveQuery, rows: usize) -> Database {
    let mut rng = gen::seeded_rng(42);
    let mut db = Database::new();
    for atom in q.atoms() {
        db.insert(
            &atom.relation,
            gen::random_relation(atom.vars.len(), rows, 64, &mut rng),
        );
    }
    db
}

/// Planning cost alone: cold (fresh planner) vs. cache hit (warm
/// planner) vs. the uncached classification floor.
fn bench_planning_cost(c: &mut Criterion) {
    let mut g = c.benchmark_group("planner_overhead");
    for (name, q, task) in shapes() {
        let db = db_for(&q, 1_000);
        let stats = DataStats::collect(&db);

        g.bench_function(format!("{name}/cold_plan"), |b| {
            b.iter(|| {
                let mut p = Planner::new();
                black_box(p.plan(black_box(&q), task, &stats))
            })
        });

        let mut warm = Planner::new();
        warm.plan(&q, task, &stats);
        g.bench_function(format!("{name}/cache_hit"), |b| {
            b.iter(|| black_box(warm.plan(black_box(&q), task, &stats)))
        });

        g.bench_function(format!("{name}/plan_uncached"), |b| {
            b.iter(|| black_box(Planner::plan_uncached(black_box(&q), task, &stats)))
        });
    }
    g.finish();
}

/// End-to-end dispatch: planner (plan + execute, warm cache) vs. the
/// direct engine call the plan resolves to.
fn bench_dispatch_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("planner_dispatch");
    let rows = 2_000;
    let mut planner = Planner::new();

    // acyclic decision: planner vs. yannakakis directly
    let q = zoo::path_boolean(3);
    let db = db_for(&q, rows);
    let stats = DataStats::collect(&db);
    planner.plan(&q, Task::Decide, &stats);
    g.bench_function("path3_decide/via_planner", |b| {
        b.iter(|| {
            let plan = planner.plan(&q, Task::Decide, &stats);
            execute(&plan, &q, &db).unwrap()
        })
    });
    g.bench_function("path3_decide/direct_engine", |b| {
        b.iter(|| {
            cq_engine::yannakakis::decide_acyclic(&ExecCtx::cold(), &q, &db).unwrap()
        })
    });

    // acyclic join counting: planner vs. counting DP directly
    let q = zoo::path_join(3);
    let db = db_for(&q, rows);
    let stats = DataStats::collect(&db);
    planner.plan(&q, Task::Count, &stats);
    g.bench_function("path3_count/via_planner", |b| {
        b.iter(|| {
            let plan = planner.plan(&q, Task::Count, &stats);
            execute(&plan, &q, &db).unwrap()
        })
    });
    g.bench_function("path3_count/direct_engine", |b| {
        b.iter(|| {
            cq_engine::count::count_acyclic_join(&ExecCtx::cold(), &q, &db).unwrap()
        })
    });

    // cyclic decision: planner vs. generic join directly
    let q = zoo::triangle_boolean();
    let db = db_for(&q, rows);
    let stats = DataStats::collect(&db);
    planner.plan(&q, Task::Decide, &stats);
    g.bench_function("triangle_decide/via_planner", |b| {
        b.iter(|| {
            let plan = planner.plan(&q, Task::Decide, &stats);
            execute(&plan, &q, &db).unwrap()
        })
    });
    let order = cq_engine::generic_join::default_order(&q);
    g.bench_function("triangle_decide/direct_engine", |b| {
        b.iter(|| {
            cq_engine::generic_join::decide(&ExecCtx::cold(), &q, &db, &order).unwrap()
        })
    });

    // statistics collection, the per-database planning input
    g.bench_function("stats_collect/m2000", |b| {
        b.iter(|| DataStats::collect(black_box(&db)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_planning_cost, bench_dispatch_end_to_end
}
criterion_main!(benches);
