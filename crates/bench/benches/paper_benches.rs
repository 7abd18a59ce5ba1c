//! Criterion micro-benchmarks, one group per experiment of DESIGN.md §3.
//!
//! These complement the `experiments` binary: the binary runs the size
//! sweeps and exponent fits for EXPERIMENTS.md; these benches give
//! statistically robust single-size timings for regression tracking of
//! every algorithm the paper credits.

use cq_core::query::zoo;
use cq_data::generate as gen;
use cq_data::{Database, Relation, Val};
use cq_engine::{generic_join, DirectAccess, ExecCtx};
use cq_problems::Graph;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;

/// E1 — Yannakakis Boolean decision (Thm 3.1).
fn bench_e01_yannakakis(c: &mut Criterion) {
    let mut g = c.benchmark_group("e01_yannakakis");
    for m in [50_000usize, 100_000] {
        let db = gen::path_database(3, m / 3, &mut gen::seeded_rng(m as u64));
        let q = zoo::path_boolean(3);
        g.bench_with_input(BenchmarkId::new("path3_decide", m), &m, |b, _| {
            b.iter(|| {
                cq_engine::yannakakis::decide_acyclic(&ExecCtx::cold(), &q, &db).unwrap()
            })
        });
    }
    g.finish();
}

/// E2 — triangle detection (Thm 3.2).
fn bench_e02_triangle(c: &mut Criterion) {
    let mut g = c.benchmark_group("e02_triangle");
    let m = 40_000;
    let n = 2 * (m as f64).sqrt() as usize + 2;
    let graph = Graph::random_bipartite(n, m, &mut gen::seeded_rng(1));
    let delta = cq_matrix::omega::ayz_delta(m, 2.5);
    g.bench_function("edge_iterator", |b| {
        b.iter(|| cq_problems::triangle::find_triangle_edge_iterator(&graph))
    });
    g.bench_function("ayz_split", |b| {
        b.iter(|| cq_problems::triangle::find_triangle_ayz(&graph, delta))
    });
    g.bench_function("dense_bmm", |b| {
        b.iter(|| cq_problems::triangle::find_triangle_bmm(&graph))
    });
    // the relational variant of Thm 3.2
    let edges = cq_reductions::triangle_to_testing::edge_relation(&graph);
    let db = gen::triangle_database(&edges);
    g.bench_function("query_ayz", |b| {
        b.iter(|| {
            cq_engine::triangle_query::decide_triangle_ayz(&ExecCtx::cold(), &db, delta)
                .unwrap()
        })
    });
    g.bench_function("query_generic_join", |b| {
        b.iter(|| {
            cq_engine::triangle_query::decide_triangle_generic(&ExecCtx::cold(), &db)
                .unwrap()
        })
    });
    g.finish();
}

/// E3 — Prop 3.3 reduction + evaluation.
fn bench_e03_cyclic(c: &mut Criterion) {
    let mut g = c.benchmark_group("e03_cyclic_embedding");
    let m = 10_000;
    let n = 2 * (m as f64).sqrt() as usize + 2;
    let graph = Graph::random_bipartite(n, m, &mut gen::seeded_rng(2));
    let q = zoo::cycle_boolean(4);
    g.bench_function("build_c4_db", |b| {
        b.iter(|| cq_reductions::triangle_to_query::build(&q, &graph).unwrap())
    });
    let db = cq_reductions::triangle_to_query::build(&q, &graph).unwrap();
    let order = generic_join::default_order(&q);
    g.bench_function("evaluate_c4", |b| {
        b.iter(|| generic_join::decide(&ExecCtx::cold(), &q, &db, &order).unwrap())
    });
    g.finish();
}

/// E4 — Loomis–Whitney joins (Ex 3.4 / Thm 3.5).
fn bench_e04_lw(c: &mut Criterion) {
    let mut g = c.benchmark_group("e04_loomis_whitney");
    for (k, d) in [(3usize, 60u64), (4, 16), (5, 8)] {
        let rel = gen::full_relation(k - 1, d);
        let db = gen::lw_database(k, &rel);
        let q = zoo::loomis_whitney_boolean(k).join_version();
        let order = generic_join::default_order(&q);
        g.bench_with_input(BenchmarkId::new("enumerate_all", k), &k, |b, _| {
            b.iter(|| {
                let mut count = 0u64;
                generic_join::visit(&ExecCtx::cold(), &q, &db, &order, &mut |_| {
                    count += 1;
                    true
                })
                .unwrap();
                count
            })
        });
    }
    g.finish();
}

/// E5 — star counting baseline (Lemma 3.9).
fn bench_e05_star_count(c: &mut Criterion) {
    let mut g = c.benchmark_group("e05_star_counting");
    let q = zoo::star_selfjoin(2);
    let db = gen::star_database(2, 1_000, 1, &mut gen::seeded_rng(3));
    let order = generic_join::default_order(&q);
    g.bench_function("count_qstar2_m1000", |b| {
        b.iter(|| {
            generic_join::count_distinct(&ExecCtx::cold(), &q, &db, &order).unwrap()
        })
    });
    g.finish();
}

/// E6 — counting dichotomy (Thm 3.8 / 3.13).
fn bench_e06_count(c: &mut Criterion) {
    let mut g = c.benchmark_group("e06_counting");
    let db = gen::path_database(3, 50_000, &mut gen::seeded_rng(4));
    let join = zoo::path_join(3);
    g.bench_function("acyclic_join_dp", |b| {
        b.iter(|| {
            cq_engine::count::count_acyclic_join(&ExecCtx::cold(), &join, &db).unwrap()
        })
    });
    let fc =
        cq_core::parse_query("q(x0, x1) :- R1(x0,x1), R2(x1,x2), R3(x2,x3)").unwrap();
    g.bench_function("free_connex", |b| {
        b.iter(|| {
            cq_engine::count::count_free_connex(&ExecCtx::cold(), &fc, &db).unwrap()
        })
    });
    let qmm = zoo::matmul_projection();
    let mut rng = gen::seeded_rng(5);
    let mut db2 = Database::new();
    db2.insert(
        "R1",
        Relation::from_pairs((0..2_000).map(|i| (i as Val, rng.gen_range(0..4u64)))),
    );
    db2.insert(
        "R2",
        Relation::from_pairs((0..2_000).map(|i| (rng.gen_range(0..4u64), i as Val))),
    );
    let order = generic_join::default_order(&qmm);
    g.bench_function("materialization_qmm", |b| {
        b.iter(|| {
            generic_join::count_distinct(&ExecCtx::cold(), &qmm, &db2, &order).unwrap()
        })
    });
    g.finish();
}

/// E7 — enumeration (Thm 3.17).
fn bench_e07_enumeration(c: &mut Criterion) {
    let mut g = c.benchmark_group("e07_enumeration");
    let q = zoo::star_full(2);
    let db = gen::star_database(2, 100_000, 64, &mut gen::seeded_rng(6));
    g.bench_function("preprocess_qhat2", |b| {
        b.iter(|| cq_engine::Enumerator::preprocess(&ExecCtx::cold(), &q, &db).unwrap())
    });
    g.bench_function("enumerate_100k_answers", |b| {
        b.iter(|| {
            let mut e =
                cq_engine::Enumerator::preprocess(&ExecCtx::cold(), &q, &db).unwrap();
            let mut count = 0u64;
            e.for_each(|_| {
                count += 1;
                count < 100_000
            });
            count
        })
    });
    g.finish();
}

/// E8/E9 — direct access (Thm 3.18 / 3.24).
fn bench_e08_e09_direct_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("e08_e09_direct_access");
    let q = zoo::star_full(2);
    let db = gen::star_database(2, 50_000, 128, &mut gen::seeded_rng(7));
    let z = q.var_by_name("z").unwrap();
    let x1 = q.var_by_name("x1").unwrap();
    let x2 = q.var_by_name("x2").unwrap();
    let good = vec![z, x1, x2];
    g.bench_function("build_trio_free", |b| {
        b.iter(|| {
            cq_engine::LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &good).unwrap()
        })
    });
    let da = cq_engine::LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &good).unwrap();
    let n = da.len();
    g.bench_function("access_random", |b| {
        let mut rng = gen::seeded_rng(8);
        b.iter(|| da.access(rng.gen_range(0..n)))
    });
    let small = gen::star_database(2, 2_000, 16, &mut gen::seeded_rng(9));
    let bad = vec![x1, x2, z];
    g.bench_function("build_disrupted_materialize", |b| {
        b.iter(|| {
            cq_engine::MaterializedDirectAccess::build(&ExecCtx::cold(), &q, &small, &bad)
                .unwrap()
        })
    });
    g.finish();
}

/// E10 — sum orders (Thm 3.26).
fn bench_e10_sum_order(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_sum_order");
    let q = cq_core::parse_query("q(a, b, c) :- R(a, b, c)").unwrap();
    let mut rng = gen::seeded_rng(10);
    let rel = gen::random_relation(3, 100_000, 400_000, &mut rng);
    let mut db = Database::new();
    db.insert("R", rel);
    let ws: Vec<i64> = (0..400_000).map(|_| rng.gen_range(0..1000)).collect();
    let wf = |v: Val| ws[v as usize];
    g.bench_function("covering_atom_build", |b| {
        b.iter(|| {
            cq_engine::SumOrderAccess::build_covering_atom(&ExecCtx::cold(), &q, &db, &wf)
                .unwrap()
        })
    });
    let inst =
        cq_problems::three_sum::ThreeSumInstance::random(400, 1_000_000, false, &mut rng);
    g.bench_function("three_sum_two_pointer", |b| {
        b.iter(|| cq_problems::three_sum::three_sum_sorted(&inst))
    });
    g.finish();
}

/// E11 — k-clique via triangles (Thm 4.1).
fn bench_e11_kclique(c: &mut Criterion) {
    let mut g = c.benchmark_group("e11_kclique");
    // complete tripartite: K4-free worst case
    let per = 12;
    let mut edges = Vec::new();
    for pa in 0..3usize {
        for pb in (pa + 1)..3 {
            for i in 0..per {
                for j in 0..per {
                    edges.push(((pa * per + i) as u32, (pb * per + j) as u32));
                }
            }
        }
    }
    let graph = Graph::from_edges(3 * per, edges);
    g.bench_function("backtracking_k4", |b| {
        b.iter(|| cq_problems::clique::find_k_clique_backtracking(&graph, 4))
    });
    g.bench_function("nesetril_poljak_k4", |b| {
        b.iter(|| cq_problems::clique::find_k_clique_np(&graph, 4))
    });
    g.finish();
}

/// E12 — clique embedding (Ex 4.3 / Fig 1).
fn bench_e12_embedding(c: &mut Criterion) {
    let mut g = c.benchmark_group("e12_clique_embedding");
    let wg = cq_problems::weighted_clique::WeightedGraph::random_complete(
        8,
        100,
        &mut gen::seeded_rng(11),
    );
    g.bench_function("min_weight_5clique_via_c5", |b| {
        b.iter(|| cq_reductions::clique_embedding_db::min_weight_clique_via_cycle(5, &wg))
    });
    g.bench_function("min_weight_5clique_brute", |b| {
        b.iter(|| cq_problems::weighted_clique::min_weight_k_clique(&wg, 5))
    });
    g.finish();
}

/// E13 — star size computation (Thm 4.6).
fn bench_e13_star_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_star_size");
    let q = cq_core::parse_query(
        "q(x1,x2,x3) :- R1(x1,y1), R2(y1,y2), R3(x2,y2), R4(y2,y3), R5(x3,y3)",
    )
    .unwrap();
    g.bench_function("quantified_star_size", |b| {
        b.iter(|| cq_core::star_size::quantified_star_size(&q))
    });
    g.bench_function("classify_full_profile", |b| {
        b.iter(|| cq_core::classify::classify(&q))
    });
    g.finish();
}

/// E14 — sparse BMM (Hypothesis 1).
fn bench_e14_sparse_bmm(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_sparse_bmm");
    use cq_matrix::sparse::{default_delta, spgemm, spgemm_heavy_light};
    use cq_matrix::SparseBoolMat;
    let m = 20_000;
    let n = 2 * (m as f64).sqrt() as usize;
    let hubs = 27;
    let mut rng = gen::seeded_rng(12);
    let ea: Vec<(u32, u32)> = (0..m)
        .map(|i| {
            if i % 2 == 0 {
                (rng.gen_range(0..n as u32), rng.gen_range(0..hubs))
            } else {
                (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32))
            }
        })
        .collect();
    let eb: Vec<(u32, u32)> = ea.iter().map(|&(x, y)| (y, x)).collect();
    let a = SparseBoolMat::from_entries(n, n, ea);
    let b_mat = SparseBoolMat::from_entries(n, n, eb);
    g.bench_function("spgemm_hash", |bch| bch.iter(|| spgemm(&a, &b_mat)));
    g.bench_function("heavy_light", |bch| {
        bch.iter(|| spgemm_heavy_light(&a, &b_mat, default_delta(m)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    // bounded runtime: 10 samples, short measurement windows — the
    // exponent sweeps live in the `experiments` binary, these benches
    // are for regression tracking.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500));
    targets =
    bench_e01_yannakakis,
    bench_e02_triangle,
    bench_e03_cyclic,
    bench_e04_lw,
    bench_e05_star_count,
    bench_e06_count,
    bench_e07_enumeration,
    bench_e08_e09_direct_access,
    bench_e10_sum_order,
    bench_e11_kclique,
    bench_e12_embedding,
    bench_e13_star_size,
    bench_e14_sparse_bmm
}
criterion_main!(benches);
