//! Cold vs. warm repeated-query evaluation: what does the per-database
//! [`IndexCatalog`] buy?
//!
//! Each shape is evaluated two ways through the planner's catalog-aware
//! executor:
//!   * `cold` — a fresh catalog every iteration: every sorted view,
//!     hash index, statistics pass, and preprocessing artifact is
//!     rebuilt, which is what every facade call paid before the
//!     catalog existed;
//!   * `warm` — one shared catalog across iterations: the steady state
//!     of a server or batch workload repeating query shapes against an
//!     unchanged database, where evaluation is index-build-free and
//!     pays for the join/walk itself only.
//!
//! The planner is shared in both rungs (plans come from the shape
//! cache either way), so the difference isolates index/preprocessing
//! reuse. The headline acceptance numbers are `path3_answers` and
//! `triangle_decide`: warm must be ≥ 5× cold there.

use cq_bench::workloads::headline_shapes;
use cq_core::query::zoo;
use cq_core::ConjunctiveQuery;
use cq_data::generate as gen;
use cq_data::{Database, IndexCatalog};
use cq_engine::ExecCtx;
use cq_planner::{build_lex_access, EvalCtx, Planner, Task};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn run(
    planner: &mut Planner,
    q: &ConjunctiveQuery,
    db: &Database,
    task: Task,
    cat: &IndexCatalog,
) -> u64 {
    let ctx = EvalCtx::new().with_catalog(cat);
    match task {
        Task::Decide => u64::from(ctx.decide(planner, q, db).unwrap().0),
        Task::Count => ctx.count(planner, q, db).unwrap().0,
        Task::Answers => ctx.answers(planner, q, db).unwrap().0.len() as u64,
        Task::Access => unreachable!("access shapes use build_lex_access"),
    }
}

/// The two acceptance-criterion shapes (shared with `parallel_scaling`
/// via `cq_bench::workloads`) plus supporting coverage across the
/// executor's operator kinds.
fn shapes() -> Vec<(&'static str, ConjunctiveQuery, Task, Database)> {
    let mut rng = gen::seeded_rng(43);
    let mut shapes = headline_shapes();
    shapes.extend([
        (
            "path3_decide",
            zoo::path_boolean(3),
            Task::Decide,
            gen::path_database(3, 10_000, &mut rng),
        ),
        (
            "path3_count",
            zoo::path_join(3),
            Task::Count,
            gen::path_database(3, 10_000, &mut rng),
        ),
        (
            "star2_count",
            zoo::star_selfjoin_free(2),
            Task::Count,
            gen::star_database(2, 3_000, 64, &mut rng),
        ),
    ]);
    shapes
}

/// Cold (fresh catalog per iteration) vs. warm (shared catalog).
fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_reuse");
    for (name, q, task, db) in shapes() {
        let mut planner = Planner::new();
        // settle the plan cache so both rungs dispatch identically
        run(&mut planner, &q, &db, task, &IndexCatalog::new());

        g.bench_function(format!("{name}/cold"), |b| {
            b.iter(|| {
                let cat = IndexCatalog::new();
                black_box(run(&mut planner, &q, &db, task, &cat))
            })
        });

        let warm = IndexCatalog::new();
        run(&mut planner, &q, &db, task, &warm);
        g.bench_function(format!("{name}/warm"), |b| {
            b.iter(|| black_box(run(&mut planner, &q, &db, task, &warm)))
        });
    }
    g.finish();
}

/// Ranked (direct) access: preprocessing once vs. per request.
fn bench_access_reuse(c: &mut Criterion) {
    let mut g = c.benchmark_group("index_reuse_access");
    let q = zoo::star_full(2);
    let z = q.var_by_name("z").unwrap();
    let x1 = q.var_by_name("x1").unwrap();
    let x2 = q.var_by_name("x2").unwrap();
    let order = vec![z, x1, x2];
    let db = gen::star_database(2, 20_000, 128, &mut gen::seeded_rng(7));
    let stats = cq_data::DataStats::collect(&db);
    let plan = Planner::plan_lex_access(&q, &order, &stats);

    g.bench_function("star2_lex_build_and_probe/cold", |b| {
        b.iter(|| {
            let da = build_lex_access(&ExecCtx::cold(), &plan, &q, &db).unwrap();
            black_box(da.access(da.len() / 2))
        })
    });
    let catalog = IndexCatalog::new();
    let warm = ExecCtx::warm(&catalog);
    build_lex_access(&warm, &plan, &q, &db).unwrap();
    g.bench_function("star2_lex_build_and_probe/warm", |b| {
        b.iter(|| {
            let da = build_lex_access(&warm, &plan, &q, &db).unwrap();
            black_box(da.access(da.len() / 2))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800));
    targets = bench_cold_vs_warm, bench_access_reuse
}
criterion_main!(benches);
