//! The seventeen experiments of the reproduction (see DESIGN.md §3).
//!
//! Conventions: every workload is seeded; sizes shrink under `quick`;
//! exponents are least-squares fits of log(time) against log(size) via
//! [`cq_matrix::omega::fit_exponent`]. Timings are single-shot on
//! release builds — exponent fits over 4× size ranges dominate noise.

use crate::table::{fmt_exp, fmt_secs, Table};
use cq_core::query::zoo;
use cq_data::generate as gen;
use cq_data::{Database, Relation, Val};
use cq_engine::direct_access::{test_prefix, DirectAccess};
use cq_engine::{
    generic_join, ExecCtx, LexDirectAccess, MaterializedDirectAccess, SumOrderAccess,
};
use cq_matrix::omega::{ayz_delta, ayz_exponent, fit_exponent, time_secs};
use cq_problems::Graph;
use rand::Rng;

/// All experiments, in order.
/// An experiment: its id and the function running it (`quick` shrinks sizes).
pub type Experiment = (&'static str, fn(bool) -> Table);

pub static ALL: &[Experiment] = &[
    ("e1", e01_yannakakis),
    ("e2", e02_triangle),
    ("e3", e03_cyclic_embedding),
    ("e4", e04_loomis_whitney),
    ("e5", e05_star_counting),
    ("e6", e06_counting_dichotomy),
    ("e7", e07_enumeration),
    ("e8", e08_direct_access),
    ("e9", e09_disruptive_trio),
    ("e10", e10_sum_order),
    ("e11", e11_kclique),
    ("e12", e12_clique_embedding),
    ("e13", e13_star_size),
    ("e14", e14_sparse_bmm),
    ("e15", e15_sat_chain),
    ("e16", e16_index_reuse),
    ("e17", e17_parallel_scaling),
];

fn sweep(quick: bool, full: &[usize], small: &[usize]) -> Vec<usize> {
    if quick {
        small.to_vec()
    } else {
        full.to_vec()
    }
}

// ---------------------------------------------------------------------
// E1 — Theorem 3.1: Yannakakis decides acyclic Boolean queries in Õ(m).
// ---------------------------------------------------------------------
pub fn e01_yannakakis(quick: bool) -> Table {
    let mut t = Table::new(
        "E1",
        "Yannakakis linear-time Boolean evaluation",
        "Theorem 3.1",
        "runtime exponent ≈ 1.0 in m for acyclic Boolean queries",
    );
    t.columns(&["query", "m", "time", "answer"]);
    let sizes =
        sweep(quick, &[100_000, 200_000, 400_000, 800_000], &[20_000, 40_000, 80_000]);
    for (name, k) in [("path-3", 3usize), ("path-5", 5)] {
        let q = zoo::path_boolean(k);
        let mut pts = Vec::new();
        for &m in &sizes {
            let db = gen::path_database(k, m / k, &mut gen::seeded_rng(m as u64));
            let (dt, res) = time_secs(|| {
                cq_engine::yannakakis::decide_acyclic(&ExecCtx::cold(), &q, &db).unwrap()
            });
            pts.push((db.size() as f64, dt.max(1e-9)));
            t.row(vec![
                name.into(),
                db.size().to_string(),
                fmt_secs(dt),
                res.to_string(),
            ]);
        }
        t.finding(format!("{name}: fitted exponent {}", fmt_exp(fit_exponent(&pts))));
    }
    t
}

// ---------------------------------------------------------------------
// E2 — Theorem 3.2: the AYZ triangle algorithm vs the m^{3/2} baseline.
// ---------------------------------------------------------------------
pub fn e02_triangle(quick: bool) -> Table {
    let mut t = Table::new(
        "E2",
        "Triangle detection: edge-iterator vs AYZ degree split",
        "Theorem 3.2 / Hypothesis 2",
        "edge-iterator ~ m^1.5; AYZ ~ m^{2ω/(ω+1)} with the effective ω; AYZ wins on dense worst cases",
    );
    let omega_eff = cq_matrix::omega::calibrate_effective_omega(if quick {
        &[128, 192, 256]
    } else {
        &[256, 384, 512, 768]
    })
    .unwrap_or(3.0);
    t.columns(&["m", "Δ (calibrated)", "edge-iterator", "AYZ", "dense BMM"]);
    let sizes =
        sweep(quick, &[20_000, 40_000, 80_000, 160_000], &[5_000, 10_000, 20_000]);
    let (mut p_edge, mut p_ayz, mut p_bmm) = (Vec::new(), Vec::new(), Vec::new());
    for &m in &sizes {
        // triangle-free bipartite worst case: the detector must do all
        // the work and answer "no".
        let n = 2 * (m as f64).sqrt() as usize + 2;
        let g = Graph::random_bipartite(n, m, &mut gen::seeded_rng(m as u64));
        let delta = ayz_delta(m, omega_eff);
        let (t_edge, r1) =
            time_secs(|| cq_problems::triangle::find_triangle_edge_iterator(&g));
        let (t_ayz, r2) =
            time_secs(|| cq_problems::triangle::find_triangle_ayz(&g, delta));
        let (t_bmm, r3) = time_secs(|| cq_problems::triangle::find_triangle_bmm(&g));
        assert!(r1.is_none() && r2.is_none() && r3.is_none());
        p_edge.push((m as f64, t_edge.max(1e-9)));
        p_ayz.push((m as f64, t_ayz.max(1e-9)));
        p_bmm.push((m as f64, t_bmm.max(1e-9)));
        t.row(vec![
            m.to_string(),
            delta.to_string(),
            fmt_secs(t_edge),
            fmt_secs(t_ayz),
            fmt_secs(t_bmm),
        ]);
    }
    t.finding(format!(
        "effective ω = {omega_eff:.2} ⇒ theoretical AYZ exponent 2ω/(ω+1) = {:.2}",
        ayz_exponent(omega_eff)
    ));
    t.finding(format!(
        "fitted exponents: edge-iterator {}, AYZ {}, dense BMM {}",
        fmt_exp(fit_exponent(&p_edge)),
        fmt_exp(fit_exponent(&p_ayz)),
        fmt_exp(fit_exponent(&p_bmm))
    ));
    let wins = p_edge.iter().zip(&p_ayz).filter(|((_, e), (_, a))| a < e).count();
    t.finding(format!("AYZ faster than edge-iterator on {wins}/{} sizes", p_edge.len()));
    t
}

// ---------------------------------------------------------------------
// E3 — Proposition 3.3: triangles embed into every cyclic arity-2 query.
// ---------------------------------------------------------------------
pub fn e03_cyclic_embedding(quick: bool) -> Table {
    let mut t = Table::new(
        "E3",
        "Triangle finding through cyclic queries (C4, C5)",
        "Proposition 3.3",
        "reduction is correct; database size stays O(m + n); evaluating the cyclic query is superlinear while acyclic queries stay linear (E1)",
    );
    t.columns(&["query", "graph m", r"\|D\|", "build", "evaluate", "triangle?"]);
    for cyc in [4usize, 5] {
        // C5's generic-join evaluation is ~m^2.5-shaped (that slope is
        // the measurement); keep its sizes smaller than C4's.
        let sizes = if cyc == 4 {
            sweep(quick, &[10_000, 20_000, 40_000], &[2_000, 4_000, 8_000])
        } else {
            sweep(quick, &[2_000, 4_000, 8_000], &[1_000, 2_000, 4_000])
        };
        let q = zoo::cycle_boolean(cyc);
        let order = generic_join::default_order(&q);
        let mut pts = Vec::new();
        for &m in &sizes {
            let n = 2 * (m as f64).sqrt() as usize + 2;
            let g = Graph::random_bipartite(n, m, &mut gen::seeded_rng(m as u64));
            let (t_build, db) =
                time_secs(|| cq_reductions::triangle_to_query::build(&q, &g).unwrap());
            let (t_eval, res) = time_secs(|| {
                generic_join::decide(&ExecCtx::cold(), &q, &db, &order).unwrap()
            });
            assert!(!res, "bipartite graphs are triangle-free");
            pts.push((db.size() as f64, t_eval.max(1e-9)));
            t.row(vec![
                format!("C{cyc}"),
                m.to_string(),
                db.size().to_string(),
                fmt_secs(t_build),
                fmt_secs(t_eval),
                res.to_string(),
            ]);
        }
        t.finding(format!(
            "C{cyc}: evaluation exponent {} in |D| (superlinear, consistent with the Triangle Hypothesis floor)",
            fmt_exp(fit_exponent(&pts))
        ));
    }
    t
}

// ---------------------------------------------------------------------
// E4 — Example 3.4 / Theorem 3.5: Loomis–Whitney joins at m^{1+1/(k−1)}.
// ---------------------------------------------------------------------
pub fn e04_loomis_whitney(quick: bool) -> Table {
    let mut t = Table::new(
        "E4",
        "Loomis–Whitney joins on AGM-tight instances",
        "Example 3.4 / Theorem 3.5 / Hypothesis 3",
        "generic join enumerates q^LW_k in m^{1+1/(k−1)}: exponents 1.50 (k=3), 1.33 (k=4), 1.25 (k=5), decreasing in k",
    );
    t.columns(&["k", "d", "m", "answers", "time"]);
    for (k, ds_full, ds_quick) in [
        (3usize, vec![40usize, 60, 90, 135], vec![20usize, 30, 45]),
        (4, vec![12, 16, 22, 30], vec![8, 10, 14]),
        (5, vec![6, 8, 10, 13], vec![4, 5, 7]),
    ] {
        let ds = if quick { ds_quick } else { ds_full };
        let q = zoo::loomis_whitney_boolean(k).join_version();
        let mut pts = Vec::new();
        for &d in &ds {
            let rel = gen::full_relation(k - 1, d as Val);
            let db = gen::lw_database(k, &rel);
            let order = generic_join::default_order(&q);
            let (dt, count) = time_secs(|| {
                let mut c = 0u64;
                generic_join::visit(&ExecCtx::cold(), &q, &db, &order, &mut |_| {
                    c += 1;
                    true
                })
                .unwrap();
                c
            });
            assert_eq!(count, (d as u64).pow(k as u32), "AGM-tight instance");
            pts.push((db.size() as f64, dt.max(1e-9)));
            t.row(vec![
                k.to_string(),
                d.to_string(),
                db.size().to_string(),
                count.to_string(),
                fmt_secs(dt),
            ]);
        }
        t.finding(format!(
            "k={k}: fitted exponent {} (theory: {:.2})",
            fmt_exp(fit_exponent(&pts)),
            1.0 + 1.0 / (k as f64 - 1.0)
        ));
    }
    t
}

// ---------------------------------------------------------------------
// E5 — Lemma 3.9 / Corollary 3.11: counting q*_k costs ~ m^k.
// ---------------------------------------------------------------------
pub fn e05_star_counting(quick: bool) -> Table {
    let mut t = Table::new(
        "E5",
        "Counting star queries q*_k: the m^k materialization baseline",
        "Lemma 3.9 / Corollary 3.11 / SETH",
        "the best generic counting algorithm behaves like m^k on hub instances; k′-DS reduces correctly to star counting",
    );
    t.columns(&["k", "m", "count", "time"]);
    for (k, ms_full, ms_quick) in [
        (2usize, vec![400usize, 800, 1600, 3200], vec![200usize, 400, 800]),
        (3, vec![60, 120, 240], vec![30, 60, 120]),
    ] {
        let q = zoo::star_selfjoin(k);
        let order = generic_join::default_order(&q);
        let mut pts = Vec::new();
        for &m in if quick { &ms_quick } else { &ms_full } {
            // single hub: every pair/triple of left values is an answer
            let db = gen::star_database(k, m, 1, &mut gen::seeded_rng(m as u64));
            // warmup run: the first execution after a large drop pays
            // allocator/page-reclaim costs that would pollute the fit
            let count_cold = || {
                generic_join::count_distinct(&ExecCtx::cold(), &q, &db, &order).unwrap()
            };
            std::hint::black_box(count_cold());
            let (dt, count) = time_secs(count_cold);
            pts.push((db.size() as f64, dt.max(1e-9)));
            t.row(vec![
                k.to_string(),
                db.size().to_string(),
                count.to_string(),
                fmt_secs(dt),
            ]);
        }
        t.finding(format!(
            "k={k}: fitted exponent {} (conditional floor: k = {k})",
            fmt_exp(fit_exponent(&pts))
        ));
    }
    // reduction correctness spot check
    let mut rng = gen::seeded_rng(5);
    let mut ok = 0;
    let trials = 6;
    for _ in 0..trials {
        let g = Graph::random_gnp(7, 0.3, &mut rng);
        let expected = cq_problems::dominating_set::find_dominating_set(&g, 2).is_some();
        let (got, _, _) = cq_reductions::kds_to_star::kds_via_star_counting(&g, 2, 2);
        ok += usize::from(got == expected);
    }
    t.finding(format!(
        "k′-DS → star-counting reduction correct on {ok}/{trials} random graphs"
    ));
    t
}

// ---------------------------------------------------------------------
// E6 — Theorems 3.8 / 3.12 / 3.13: the counting dichotomy.
// ---------------------------------------------------------------------
pub fn e06_counting_dichotomy(quick: bool) -> Table {
    let mut t = Table::new(
        "E6",
        "Counting dichotomy: linear for free-connex, quadratic beyond",
        "Theorems 3.8, 3.12, 3.13",
        "acyclic join & free-connex queries count in ~m; the acyclic non-free-connex q_mm needs ~m² (SETH floor m^{2−ε})",
    );
    t.columns(&["query", "class", "m", "count", "time"]);

    // linear side: join query + free-connex projection
    let sizes =
        sweep(quick, &[50_000, 100_000, 200_000, 400_000], &[10_000, 20_000, 40_000]);
    let path = zoo::path_join(3);
    let fc =
        cq_core::parse_query("q(x0, x1) :- R1(x0,x1), R2(x1,x2), R3(x2,x3)").unwrap();
    for (label, q, class) in
        [("path-3 join", &path, "acyclic join"), ("path-3 prefix", &fc, "free-connex")]
    {
        let mut pts = Vec::new();
        for &m in &sizes {
            let db = gen::path_database(3, m / 3, &mut gen::seeded_rng(m as u64));
            let (dt, c) = time_secs(|| cq_planner::eval::count(q, &db).unwrap().0);
            pts.push((db.size() as f64, dt.max(1e-9)));
            t.row(vec![
                label.into(),
                class.into(),
                db.size().to_string(),
                c.to_string(),
                fmt_secs(dt),
            ]);
        }
        t.finding(format!("{label}: fitted exponent {}", fmt_exp(fit_exponent(&pts))));
    }

    // hard side: q_mm(x,z) :- R1(x,y), R2(y,z) with tiny y-domain
    let qmm = zoo::matmul_projection();
    let sizes = sweep(quick, &[1_000, 2_000, 4_000, 8_000], &[500, 1_000, 2_000]);
    let mut pts = Vec::new();
    for &m in &sizes {
        let mut rng = gen::seeded_rng(m as u64);
        let mut db = Database::new();
        // x, z range over ~m values; y over 4 hubs → output ~ (m)²-ish
        let r1 = Relation::from_pairs((0..m).map(|i| (i as Val, rng.gen_range(0..4u64))));
        let r2 = Relation::from_pairs((0..m).map(|i| (rng.gen_range(0..4u64), i as Val)));
        db.insert("R1", r1);
        db.insert("R2", r2);
        let (dt, c) = time_secs(|| cq_planner::eval::count(&qmm, &db).unwrap().0);
        pts.push((db.size() as f64, dt.max(1e-9)));
        t.row(vec![
            "q_mm".into(),
            "acyclic, not free-connex".into(),
            db.size().to_string(),
            c.to_string(),
            fmt_secs(dt),
        ]);
    }
    t.finding(format!(
        "q_mm: fitted exponent {} (floor 2.0 under SETH, Thm 3.12)",
        fmt_exp(fit_exponent(&pts))
    ));
    t
}

// ---------------------------------------------------------------------
// E7 — Theorems 3.15–3.17: the enumeration dichotomy.
// ---------------------------------------------------------------------
pub fn e07_enumeration(quick: bool) -> Table {
    let mut t = Table::new(
        "E7",
        "Enumeration: constant delay for free-connex, BMM-hard beyond",
        "Theorems 3.15, 3.16, 3.17 / Hypothesis 1",
        "free-connex q̂*_2: ~m preprocessing, max delay flat in m; non-free-connex q̄*_2 must pay for the whole (quadratic-size) output",
    );
    t.columns(&["query", "m", "preprocessing", "#answers", "max delay", "total enum"]);

    // easy side: q̂*_2
    let sizes = sweep(quick, &[50_000, 100_000, 200_000], &[10_000, 20_000, 40_000]);
    let q = zoo::star_full(2);
    let mut prep_pts = Vec::new();
    for &m in &sizes {
        let db = gen::star_database(2, m, 64, &mut gen::seeded_rng(m as u64));
        let (t_prep, mut e) = time_secs(|| {
            cq_engine::Enumerator::preprocess(&ExecCtx::cold(), &q, &db).unwrap()
        });
        let mut max_delay = 0f64;
        let mut last = std::time::Instant::now();
        let mut count = 0u64;
        let cap = 200_000;
        let (t_enum, _) = time_secs(|| {
            e.for_each(|_| {
                let now = std::time::Instant::now();
                max_delay = max_delay.max(now.duration_since(last).as_secs_f64());
                last = now;
                count += 1;
                count < cap
            })
        });
        prep_pts.push((db.size() as f64, t_prep.max(1e-9)));
        t.row(vec![
            "q̂*_2 (free-connex)".into(),
            db.size().to_string(),
            fmt_secs(t_prep),
            format!("{count}{}", if count == cap { "+" } else { "" }),
            fmt_secs(max_delay),
            fmt_secs(t_enum),
        ]);
    }
    t.finding(format!(
        "free-connex preprocessing exponent {} (theory 1.0); max delay stays microseconds across m",
        fmt_exp(fit_exponent(&prep_pts))
    ));

    // hard side: q̄*_2 through materialization
    let qh = zoo::star_selfjoin_free(2);
    let order = generic_join::default_order(&qh);
    let sizes = sweep(quick, &[1_000, 2_000, 4_000, 8_000], &[500, 1_000, 2_000]);
    let mut pts = Vec::new();
    for &m in &sizes {
        let db = gen::star_database(2, m, 8, &mut gen::seeded_rng(m as u64));
        let (dt, rel) = time_secs(|| {
            generic_join::answers(&ExecCtx::cold(), &qh, &db, &order).unwrap()
        });
        pts.push((db.size() as f64, dt.max(1e-9)));
        t.row(vec![
            "q̄*_2 (not free-connex)".into(),
            db.size().to_string(),
            fmt_secs(dt),
            rel.len().to_string(),
            "—".into(),
            fmt_secs(dt),
        ]);
    }
    t.finding(format!(
        "q̄*_2 materialization exponent {} — enumerating it with constant delay would do sparse BMM in Õ(m) (Thm 3.15)",
        fmt_exp(fit_exponent(&pts))
    ));
    t
}

// ---------------------------------------------------------------------
// E8 — Thm 3.18 / Lemmas 3.20, 3.21: direct access + testing.
// ---------------------------------------------------------------------
pub fn e08_direct_access(quick: bool) -> Table {
    let mut t = Table::new(
        "E8",
        "Lexicographic direct access: linear preprocessing, log access",
        "Theorem 3.18 / Corollary 3.22 / Lemmas 3.20, 3.21",
        "build ~m, access ~log m (flat µs); testing via binary search over the array; triangle→testing reduction correct",
    );
    t.columns(&["m", "#answers", "build", "avg access", "avg test_prefix"]);
    let q = zoo::star_full(2);
    let z = q.var_by_name("z").unwrap();
    let x1 = q.var_by_name("x1").unwrap();
    let x2 = q.var_by_name("x2").unwrap();
    let order = vec![z, x1, x2];
    let sizes =
        sweep(quick, &[50_000, 100_000, 200_000, 400_000], &[10_000, 20_000, 40_000]);
    let mut build_pts = Vec::new();
    for &m in &sizes {
        let db = gen::star_database(2, m, 256, &mut gen::seeded_rng(m as u64));
        let (t_build, da) = time_secs(|| {
            LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &order).unwrap()
        });
        let n = da.len();
        let probes = 1_000u64;
        let mut rng = gen::seeded_rng(m as u64 + 1);
        let (t_acc, _) = time_secs(|| {
            for _ in 0..probes {
                let i = rng.gen_range(0..n);
                std::hint::black_box(da.access(i));
            }
        });
        let (t_test, _) = time_secs(|| {
            for _ in 0..probes {
                let zz = rng.gen_range(0..256u64);
                let xx = rng.gen_range(0..m as u64);
                std::hint::black_box(test_prefix(&da, &order, &[zz, xx]));
            }
        });
        build_pts.push((db.size() as f64, t_build.max(1e-9)));
        t.row(vec![
            db.size().to_string(),
            n.to_string(),
            fmt_secs(t_build),
            fmt_secs(t_acc / probes as f64),
            fmt_secs(t_test / probes as f64),
        ]);
    }
    t.finding(format!(
        "build exponent {} (theory ~1.0); per-access cost stays in the µs range (log m)",
        fmt_exp(fit_exponent(&build_pts))
    ));
    // Lemma 3.21 correctness
    let mut rng = gen::seeded_rng(77);
    let trials = 8;
    let mut ok = 0;
    for _ in 0..trials {
        let g = Graph::random_gnm(14, 24, &mut rng);
        let expected = cq_problems::triangle::find_triangle_edge_iterator(&g).is_some();
        ok += usize::from(
            cq_reductions::triangle_to_testing::triangle_via_star_testing(&g) == expected,
        );
    }
    t.finding(format!(
        "triangle → star-testing reduction correct on {ok}/{trials} graphs"
    ));
    t
}

// ---------------------------------------------------------------------
// E9 — Lemma 3.23 / Theorem 3.24: the disruptive-trio dichotomy.
// ---------------------------------------------------------------------
pub fn e09_disruptive_trio(quick: bool) -> Table {
    let mut t = Table::new(
        "E9",
        "Direct access for q̂*_2: trio-free vs disrupted orders",
        "Lemma 3.23 / Theorem 3.24",
        "order (z,x1,x2): ~m preprocessing; order (x1,x2,z) has a disruptive trio — the only structure is materialization at ~m² preprocessing",
    );
    t.columns(&["m", "good order build", "bad order build (materialize)", "|q(D)|"]);
    let q = zoo::star_full(2);
    let z = q.var_by_name("z").unwrap();
    let x1 = q.var_by_name("x1").unwrap();
    let x2 = q.var_by_name("x2").unwrap();
    let good = vec![z, x1, x2];
    let bad = vec![x1, x2, z];
    let sizes = sweep(quick, &[1_000, 2_000, 4_000, 8_000], &[500, 1_000, 2_000]);
    let (mut p_good, mut p_bad) = (Vec::new(), Vec::new());
    for &m in &sizes {
        let db = gen::star_database(2, m, 16, &mut gen::seeded_rng(m as u64));
        let ctx = ExecCtx::cold();
        let (t_good, da) =
            time_secs(|| LexDirectAccess::build(&ctx, &q, &db, &good).unwrap());
        assert!(
            LexDirectAccess::build(&ctx, &q, &db, &bad).is_err(),
            "trio must be rejected"
        );
        let (t_bad, mat) =
            time_secs(|| MaterializedDirectAccess::build(&ctx, &q, &db, &bad).unwrap());
        assert_eq!(da.len(), mat.len());
        p_good.push((db.size() as f64, t_good.max(1e-9)));
        p_bad.push((db.size() as f64, t_bad.max(1e-9)));
        t.row(vec![
            db.size().to_string(),
            fmt_secs(t_good),
            fmt_secs(t_bad),
            da.len().to_string(),
        ]);
    }
    t.finding(format!(
        "fitted exponents: trio-free {} vs disrupted {} — the dichotomy gap of Thm 3.24",
        fmt_exp(fit_exponent(&p_good)),
        fmt_exp(fit_exponent(&p_bad))
    ));
    t
}

// ---------------------------------------------------------------------
// E10 — Lemma 3.25 / Theorem 3.26: sum orders and 3SUM.
// ---------------------------------------------------------------------
pub fn e10_sum_order(quick: bool) -> Table {
    let mut t = Table::new(
        "E10",
        "Sum-order direct access: covering atom vs 3SUM-hard shape",
        "Lemma 3.25 / Theorem 3.26 / Hypothesis 5",
        "single covering atom: ~m log m preprocessing; the two-atom 3SUM query: ~n² materialization; 3SUM reduction agrees with the two-pointer algorithm",
    );
    t.columns(&["instance", "size", "build", "answers"]);
    // easy side
    let q1 = cq_core::parse_query("q(a, b, c) :- R(a, b, c)").unwrap();
    let sizes = sweep(quick, &[100_000, 200_000, 400_000], &[20_000, 40_000, 80_000]);
    let mut p_easy = Vec::new();
    for &m in &sizes {
        let mut rng = gen::seeded_rng(m as u64);
        let rel = gen::random_relation(3, m, (4 * m) as Val, &mut rng);
        let mut db = Database::new();
        db.insert("R", rel);
        let ws: Vec<i64> = (0..4 * m).map(|_| rng.gen_range(0..1000)).collect();
        let wf = |v: Val| ws[v as usize];
        let (dt, da) = time_secs(|| {
            SumOrderAccess::build_covering_atom(&ExecCtx::cold(), &q1, &db, &wf).unwrap()
        });
        p_easy.push((m as f64, dt.max(1e-9)));
        t.row(vec![
            "covering atom".into(),
            m.to_string(),
            fmt_secs(dt),
            da.len().to_string(),
        ]);
    }
    t.finding(format!("covering atom exponent {}", fmt_exp(fit_exponent(&p_easy))));

    // hard side: the Lemma 3.25 query on 3SUM instances
    let ns = sweep(quick, &[400, 800, 1600], &[100, 200, 400]);
    let mut p_hard = Vec::new();
    for &n in &ns {
        let mut rng = gen::seeded_rng(n as u64);
        let inst = cq_problems::three_sum::ThreeSumInstance::random(
            n, 1_000_000, false, &mut rng,
        );
        let red = cq_reductions::three_sum_to_sum_da::build(&inst);
        let wf = |v: Val| red.weights[v as usize];
        let (dt, da) = time_secs(|| {
            SumOrderAccess::build_materialized(&ExecCtx::cold(), &red.query, &red.db, &wf)
                .unwrap()
        });
        p_hard.push((n as f64, dt.max(1e-9)));
        t.row(vec![
            "3SUM query (no covering atom)".into(),
            format!("n={n} (|D|={})", red.db.size()),
            fmt_secs(dt),
            da.len().to_string(),
        ]);
    }
    t.finding(format!(
        "3SUM-shape exponent {} in n (floor 2−ε under Hypothesis 5)",
        fmt_exp(fit_exponent(&p_hard))
    ));
    // reduction correctness
    let mut rng = gen::seeded_rng(123);
    let trials = 10;
    let mut ok = 0;
    for i in 0..trials {
        let inst = cq_problems::three_sum::ThreeSumInstance::random(
            20,
            40,
            i % 2 == 0,
            &mut rng,
        );
        let expected = cq_problems::three_sum::three_sum_sorted(&inst).is_some();
        ok += usize::from(
            cq_reductions::three_sum_to_sum_da::three_sum_via_sum_order_da(&inst)
                == expected,
        );
    }
    t.finding(format!(
        "3SUM → sum-order DA reduction correct on {ok}/{trials} instances"
    ));
    t
}

// ---------------------------------------------------------------------
// E11 — Theorem 4.1: k-clique via triangles (Nešetřil–Poljak).
// ---------------------------------------------------------------------
pub fn e11_kclique(quick: bool) -> Table {
    let mut t = Table::new(
        "E11",
        "k-clique: backtracking vs the triangle (Nešetřil–Poljak) route",
        "Theorem 4.1",
        "the derived graph has O(n^{⌈k/3⌉}) vertices and its triangles are exactly the k-cliques; with fast MM the exponent drops below k (here: word-parallel BMM gives the constant-factor form of that win)",
    );
    t.columns(&[
        "k",
        "n",
        "derived vertices",
        "backtracking",
        "via triangle",
        "k-clique?",
    ]);
    // complete (k−1)-partite graphs: dense and K_k-free — the worst case
    // for detection (answer "no" with maximum density).
    for k in [4usize, 5, 6] {
        let parts = k - 1;
        let ns = if quick { vec![12, 18, 24] } else { vec![24, 36, 48] };
        let (mut p_bt, mut p_np) = (Vec::new(), Vec::new());
        for &n in &ns {
            let n = n - n % parts;
            let per = n / parts;
            let mut edges = Vec::new();
            for pa in 0..parts {
                for pb in (pa + 1)..parts {
                    for i in 0..per {
                        for j in 0..per {
                            edges.push(((pa * per + i) as u32, (pb * per + j) as u32));
                        }
                    }
                }
            }
            let g = Graph::from_edges(n, edges);
            let ds = cq_reductions::clique_to_triangle::derived_size(&g, k);
            let (t_bt, r1) =
                time_secs(|| cq_problems::clique::find_k_clique_backtracking(&g, k));
            let (t_np, r2) = time_secs(|| cq_problems::clique::find_k_clique_np(&g, k));
            assert!(r1.is_none() && r2.is_none(), "complete (k−1)-partite is K_k-free");
            p_bt.push((n as f64, t_bt.max(1e-9)));
            p_np.push((n as f64, t_np.max(1e-9)));
            t.row(vec![
                k.to_string(),
                n.to_string(),
                ds.n_vertices.to_string(),
                fmt_secs(t_bt),
                fmt_secs(t_np),
                "no".into(),
            ]);
        }
        t.finding(format!(
            "k={k}: fitted exponents in n — backtracking {}, triangle route {}",
            fmt_exp(fit_exponent(&p_bt)),
            fmt_exp(fit_exponent(&p_np))
        ));
    }
    t
}

// ---------------------------------------------------------------------
// E12 — Example 4.2/4.3 + Figure 1: clique embeddings.
// ---------------------------------------------------------------------
pub fn e12_clique_embedding(quick: bool) -> Table {
    let mut t = Table::new(
        "E12",
        "K5 → C5 embedding: min-weight clique via tropical cycle aggregation",
        "Example 4.2 / Example 4.3 / Figure 1 / Hypothesis 7",
        "database size Θ(n⁴) per relation (weak edge depth 4, power 5/4); aggregation result equals brute-force Min-Weight-5-Clique",
    );
    t.columns(&[
        "n",
        r"\|D\|",
        "build",
        "aggregate (tropical)",
        "brute force",
        "min weight",
    ]);
    let ns = if quick { vec![6usize, 7, 8] } else { vec![7usize, 8, 9, 10] };
    let mut agree = 0;
    for &n in &ns {
        let mut rng = gen::seeded_rng(n as u64);
        let g = cq_problems::weighted_clique::WeightedGraph::random_complete(
            n, 100, &mut rng,
        );
        let (t_build, inst) =
            time_secs(|| cq_reductions::clique_embedding_db::build(5, &g));
        let (t_agg, min_via_cycle) = time_secs(|| {
            cq_reductions::clique_embedding_db::min_weight_clique_via_cycle(5, &g)
        });
        let (t_bf, min_bf) = time_secs(|| {
            cq_problems::weighted_clique::min_weight_k_clique(&g, 5).map(|(w, _)| w)
        });
        agree += usize::from(min_via_cycle == min_bf);
        t.row(vec![
            n.to_string(),
            inst.db.size().to_string(),
            fmt_secs(t_build),
            fmt_secs(t_agg),
            fmt_secs(t_bf),
            format!("{min_via_cycle:?}"),
        ]);
    }
    t.finding(format!(
        "cycle-aggregation minimum equals brute force on {agree}/{} sizes",
        ns.len()
    ));
    let (h, emb) = cq_core::embedding::k5_into_c5();
    t.finding(format!(
        "Figure 1 reproduced in code: max weak edge depth {} ⇒ |relation| ≤ n⁴, embedding power {} ⇒ conditional floor m^1.25",
        emb.max_weak_edge_depth(&h),
        emb.power(&h)
    ));
    t
}

// ---------------------------------------------------------------------
// E13 — Theorem 4.6: quantified star size drives the counting exponent.
// ---------------------------------------------------------------------
pub fn e13_star_size(quick: bool) -> Table {
    let mut t = Table::new(
        "E13",
        "Quantified star size: counting cost grows with the star size k",
        "Theorem 4.6 / §4.4",
        "computed star sizes match the paper's examples; measured counting time at fixed m grows sharply with k (the m^k family)",
    );
    t.columns(&["query", "star size", "m", "count time"]);
    let m = if quick { 300 } else { 600 };
    for k in 1..=3usize {
        let q = zoo::star_selfjoin_free(k);
        let s = cq_core::star_size::quantified_star_size(&q);
        assert_eq!(s, k);
        let db = gen::star_database(k, m, 1, &mut gen::seeded_rng(k as u64));
        let (dt, _) = time_secs(|| cq_planner::eval::count(&q, &db).unwrap().0);
        t.row(vec![
            format!("q̄*_{k}"),
            s.to_string(),
            db.size().to_string(),
            fmt_secs(dt),
        ]);
    }
    // structural spot checks from the paper
    for (src, expect) in [
        ("q(x, z) :- R1(x, y), R2(y, z)", 2usize),
        ("q(x0, x1) :- R1(x0, x1), R2(x1, x2)", 1),
        ("q(x1,x2,x3) :- R1(x1,y1), R2(y1,y2), R3(x2,y2), R4(y2,y3), R5(x3,y3)", 3),
    ] {
        let q = cq_core::parse_query(src).unwrap();
        let s = cq_core::star_size::quantified_star_size(&q);
        assert_eq!(s, expect);
        t.row(vec![src.into(), s.to_string(), "—".into(), "—".into()]);
    }
    t.finding("star sizes match the paper's examples; counting time grows superlinearly in k at fixed m".into());
    t
}

// ---------------------------------------------------------------------
// E14 — §2.3 / Hypothesis 1: sparse Boolean matrix multiplication.
// ---------------------------------------------------------------------
pub fn e14_sparse_bmm(quick: bool) -> Table {
    let mut t = Table::new(
        "E14",
        "Sparse BMM: hash SpGEMM vs the heavy/light output-sensitive split",
        "§2.3 / Hypothesis 1",
        "on hub-structured inputs plain SpGEMM pays the hubs' quadratic flops; the heavy/light split (Δ = m^{1/3}) reroutes hubs through dense word-parallel BMM and wins; both stay superlinear (the hypothesis floor is m^{4/3} at ω = 2)",
    );
    t.columns(&["m (nnz)", "spgemm", "heavy/light (Δ=m^⅓)", "output nnz"]);
    use cq_matrix::sparse::{default_delta, spgemm, spgemm_heavy_light};
    use cq_matrix::SparseBoolMat;

    // hub-structured inputs: √m hub middle indices with high in/out degree
    fn hubby(m: usize, seed: u64) -> (SparseBoolMat, SparseBoolMat) {
        let n = (2.0 * (m as f64).sqrt()) as usize + 2;
        let hubs = ((m as f64).powf(1.0 / 3.0) as usize).max(1);
        let mut rng = gen::seeded_rng(seed);
        let mut ea = Vec::with_capacity(m);
        let mut eb = Vec::with_capacity(m);
        for _ in 0..m / 2 {
            // hub column in A, hub row in B
            ea.push((rng.gen_range(0..n as u32), rng.gen_range(0..hubs as u32)));
            eb.push((rng.gen_range(0..hubs as u32), rng.gen_range(0..n as u32)));
        }
        for _ in 0..m / 2 {
            ea.push((rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
            eb.push((rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)));
        }
        (SparseBoolMat::from_entries(n, n, ea), SparseBoolMat::from_entries(n, n, eb))
    }

    let sizes = sweep(quick, &[10_000, 20_000, 40_000, 80_000], &[2_000, 4_000, 8_000]);
    let (mut p_sp, mut p_hl) = (Vec::new(), Vec::new());
    for &m in &sizes {
        let (a, b) = hubby(m, m as u64);
        let (t_sp, c1) = time_secs(|| spgemm(&a, &b));
        let delta = default_delta(m);
        let (t_hl, (c2, _)) = time_secs(|| spgemm_heavy_light(&a, &b, delta));
        assert_eq!(c1, c2);
        p_sp.push((m as f64, t_sp.max(1e-9)));
        p_hl.push((m as f64, t_hl.max(1e-9)));
        t.row(vec![m.to_string(), fmt_secs(t_sp), fmt_secs(t_hl), c1.nnz().to_string()]);
    }
    t.finding(format!(
        "fitted exponents: spgemm {}, heavy/light {}",
        fmt_exp(fit_exponent(&p_sp)),
        fmt_exp(fit_exponent(&p_hl))
    ));

    // Δ ablation at a fixed size
    let m = if quick { 8_000 } else { 40_000 };
    let (a, b) = hubby(m, 999);
    let mut ablation = Vec::new();
    for delta in [
        1usize,
        default_delta(m) / 4 + 1,
        default_delta(m),
        default_delta(m) * 4,
        usize::MAX,
    ] {
        let (dt, _) = time_secs(|| spgemm_heavy_light(&a, &b, delta));
        ablation.push(format!(
            "Δ={}: {}",
            if delta == usize::MAX { "∞".into() } else { delta.to_string() },
            fmt_secs(dt)
        ));
    }
    t.finding(format!("Δ ablation at m={m}: {}", ablation.join(", ")));

    // dense calibration
    let sizes: &[usize] = if quick { &[128, 256] } else { &[256, 512, 1024] };
    let mut cal = Vec::new();
    for &n in sizes {
        let mut rng = gen::seeded_rng(n as u64);
        let x = cq_matrix::BitMatrix::random(n, n, 0.5, &mut rng);
        let y = cq_matrix::BitMatrix::random(n, n, 0.5, &mut rng);
        let (t_row, _) = time_secs(|| cq_matrix::dense::multiply_rowwise(&x, &y));
        let (t_4r, _) =
            time_secs(|| cq_matrix::four_russians::multiply_four_russians(&x, &y, 0));
        let (t_str, _) =
            time_secs(|| cq_matrix::strassen::bool_multiply_strassen(&x, &y, 64));
        cal.push(format!(
            "n={n}: rowwise {}, four-russians {}, strassen {}",
            fmt_secs(t_row),
            fmt_secs(t_4r),
            fmt_secs(t_str)
        ));
    }
    t.finding(format!("dense BMM calibration: {}", cal.join("; ")));
    t
}

// ---------------------------------------------------------------------
// E15 — Theorem 3.10: SAT → k-DS accounting.
// ---------------------------------------------------------------------
pub fn e15_sat_chain(quick: bool) -> Table {
    let mut t = Table::new(
        "E15",
        "SAT → k-Dominating-Set (Pătraşcu–Williams), end to end",
        "Theorem 3.10",
        "reduction is correct against DPLL; the instance has k·2^{n/k} + #clauses + k vertices — the accounting behind the SETH transfer of Lemma 3.9",
    );
    t.columns(&["n vars", "clauses", "k", "graph vertices", "SAT?", "k-DS agrees"]);
    let mut rng = gen::seeded_rng(15);
    let trials = if quick { 6 } else { 12 };
    let mut all_ok = true;
    for i in 0..trials {
        let n = 4 + i % 3;
        let m = 6 + 2 * (i % 5);
        let cnf = cq_problems::sat::Cnf::random_ksat(n, m, 3, &mut rng);
        let expected = cq_problems::sat::dpll(&cnf).is_some();
        let k = 2 + i % 2;
        let inst = cq_reductions::sat_to_kds::build(&cnf, k);
        let got =
            cq_problems::dominating_set::find_dominating_set(&inst.graph, k).is_some();
        all_ok &= got == expected;
        t.row(vec![
            n.to_string(),
            m.to_string(),
            k.to_string(),
            inst.graph.n().to_string(),
            expected.to_string(),
            (got == expected).to_string(),
        ]);
    }
    t.finding(format!("reduction agreed with DPLL on all {trials} instances: {all_ok}"));
    t
}

// ---------------------------------------------------------------------
// E16 — warm-path evaluation: the per-database index catalog.
// ---------------------------------------------------------------------
pub fn e16_index_reuse(quick: bool) -> Table {
    use cq_data::IndexCatalog;
    use cq_planner::{EvalCtx, Planner, Task};

    let mut t = Table::new(
        "E16",
        "Repeated-query evaluation: cold vs warm index catalog",
        "preprocessing/enumeration split (Thm 3.17 / §3.4 operationalized)",
        "with a warm per-database catalog, repeated evaluation is index-build-free: statistics, sorted views, hash indexes, and preprocessing artifacts are reused, so the warm path pays for the join/walk only",
    );
    t.columns(&["query", "task", "m", "cold", "warm", "speedup"]);

    let scale = if quick { 1 } else { 4 };
    let mut rng = gen::seeded_rng(16);
    let path_m = 8_000 * scale;
    let mut path_db = gen::path_database(3, path_m, &mut rng);
    let head = cq_data::Relation::from_row_slices(
        2,
        path_db.expect("R1").iter().take(path_m / 10),
    );
    path_db.insert("R1", head);
    let shapes: Vec<(&str, cq_core::ConjunctiveQuery, Task, Database)> = vec![
        ("path-3 join", zoo::path_join(3), Task::Answers, path_db.clone()),
        ("path-3 boolean", zoo::path_boolean(3), Task::Decide, path_db),
        (
            "triangle",
            zoo::triangle_boolean(),
            Task::Decide,
            gen::triangle_database(&gen::random_pairs(10_000 * scale, 800, &mut rng)),
        ),
        (
            "star-2 count",
            zoo::star_selfjoin_free(2),
            Task::Count,
            gen::star_database(2, 1_500 * scale, 64, &mut rng),
        ),
    ];

    let mut speedups: Vec<(String, f64)> = Vec::new();
    for (name, q, task, db) in shapes {
        let mut planner = Planner::new();
        let run = |planner: &mut Planner, cat: &IndexCatalog| {
            let ctx = EvalCtx::new().with_catalog(cat);
            match task {
                Task::Decide => ctx.decide(planner, &q, &db).unwrap().0 as u64,
                Task::Count => ctx.count(planner, &q, &db).unwrap().0,
                Task::Answers => ctx.answers(planner, &q, &db).unwrap().0.len() as u64,
                Task::Access => unreachable!(),
            }
        };
        // settle the plan cache, then best-of-k both ways
        run(&mut planner, &IndexCatalog::new());
        let reps = 5;
        let mut cold = f64::INFINITY;
        for _ in 0..reps {
            let (dt, _) = time_secs(|| {
                let cat = IndexCatalog::new();
                run(&mut planner, &cat)
            });
            cold = cold.min(dt.max(1e-9));
        }
        let warm_cat = IndexCatalog::new();
        run(&mut planner, &warm_cat);
        let mut warm = f64::INFINITY;
        for _ in 0..reps {
            let (dt, _) = time_secs(|| run(&mut planner, &warm_cat));
            warm = warm.min(dt.max(1e-9));
        }
        let speedup = cold / warm;
        speedups.push((name.to_string(), speedup));
        t.row(vec![
            name.into(),
            format!("{task}"),
            db.size().to_string(),
            fmt_secs(cold),
            fmt_secs(warm),
            format!("{speedup:.1}×"),
        ]);
    }
    let line = speedups
        .iter()
        .map(|(n, s)| format!("{n} {s:.1}×"))
        .collect::<Vec<_>>()
        .join(", ");
    t.finding(format!("warm/cold speedups: {line}"));
    t.finding(
        "the warm path acquires every index through the per-database catalog; \
         generation stamps guarantee no stale index is ever served"
            .into(),
    );
    t
}

// ---------------------------------------------------------------------
// E17 — batch evaluation: threads × cold/warm throughput over one
// shared database.
// ---------------------------------------------------------------------

/// The cold rung of E17: one planner pass, then scoped workers pulling
/// items off a shared cursor — but every execution runs against a
/// throwaway catalog, re-paying all preprocessing per item.
fn parallel_cold_batch(
    items: &[(&cq_core::ConjunctiveQuery, cq_planner::Task)],
    db: &Database,
    workers: usize,
) -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let stats = cq_data::DataStats::collect(db);
    let mut planner = cq_planner::Planner::new();
    let plans: Vec<_> =
        items.iter().map(|(q, task)| planner.plan(q, *task, &stats)).collect();
    let cursor = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let (q, _) = items[i];
                std::hint::black_box(cq_planner::execute(&plans[i], q, db).unwrap());
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    done.load(Ordering::Relaxed)
}

pub fn e17_parallel_scaling(quick: bool) -> Table {
    use cq_core::ConjunctiveQuery;
    use cq_planner::{eval, Task};

    let mut t = Table::new(
        "E17",
        "Batch evaluation over one shared database: threads × cold/warm throughput",
        "preprocessing/enumeration split under concurrency (Thm 3.17 / §3.4 operationalized)",
        "all workers share one internally-locked catalog and no lock is held across an execution, so warm batch throughput scales with available cores; the cold path re-pays every index build per item at any thread count",
    );
    t.columns(&[
        "workload",
        "threads",
        "warm batch",
        "warm q/s",
        "cold batch",
        "cold q/s",
    ]);

    let scale = if quick { 1 } else { 4 };
    let batch = if quick { 16 } else { 32 };
    let mut rng = gen::seeded_rng(17);
    let path_m = 8_000 * scale;
    let mut path_db = gen::path_database(3, path_m, &mut rng);
    let head =
        Relation::from_row_slices(2, path_db.expect("R1").iter().take(path_m / 10));
    path_db.insert("R1", head);
    let shapes: Vec<(&str, ConjunctiveQuery, Task, Database)> = vec![
        ("path-3 answers", zoo::path_join(3), Task::Answers, path_db),
        (
            "triangle decide",
            zoo::triangle_boolean(),
            Task::Decide,
            gen::triangle_database(&gen::random_pairs(10_000 * scale, 800, &mut rng)),
        ),
    ];

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut scaling: Vec<String> = Vec::new();
    for (name, q, task, db) in &shapes {
        let items: Vec<(&ConjunctiveQuery, Task)> = vec![(q, *task); batch];
        // settle the plan cache and warm the registry catalog
        eval::batch_tasks_with_workers(items.iter().copied(), db, 1);
        let mut warm_1thread = f64::NAN;
        let mut warm_max = f64::INFINITY;
        for threads in [1usize, 2, 4, 8] {
            let (t_warm, _) = time_secs(|| {
                eval::batch_tasks_with_workers(items.iter().copied(), db, threads)
            });
            let t_warm = t_warm.max(1e-9);
            let (t_cold, n) = time_secs(|| parallel_cold_batch(&items, db, threads));
            let t_cold = t_cold.max(1e-9);
            assert_eq!(n, batch, "cold batch must complete every item");
            if threads == 1 {
                warm_1thread = t_warm;
            }
            warm_max = warm_max.min(t_warm);
            t.row(vec![
                (*name).into(),
                threads.to_string(),
                fmt_secs(t_warm),
                format!("{:.0}", batch as f64 / t_warm),
                fmt_secs(t_cold),
                format!("{:.0}", batch as f64 / t_cold),
            ]);
        }
        scaling.push(format!("{name} {:.1}×", warm_1thread / warm_max));
    }
    t.finding(format!(
        "best warm speedup over 1 thread: {} (available_parallelism = {cores} — \
         thread counts beyond the core count cannot scale)",
        scaling.join(", ")
    ));
    t.finding(
        "the batch shares one catalog and one planner pass; workers pull items \
         off an atomic cursor and never hold a lock while executing"
            .into(),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment must run in quick mode and produce a non-empty
    /// table (this is the harness's own smoke test). The full sweep only
    /// runs under optimization — debug builds check a single cheap
    /// experiment so `cargo test` stays fast.
    #[test]
    fn all_experiments_run_quick() {
        let to_run: &[Experiment] = if cfg!(debug_assertions) { &ALL[..1] } else { ALL };
        for (name, f) in to_run {
            let table = f(true);
            assert!(!table.rows.is_empty(), "{name} produced no rows");
            assert!(!table.findings.is_empty(), "{name} produced no findings");
            assert!(!table.to_string().is_empty());
        }
    }

    #[test]
    fn registry_is_complete() {
        assert_eq!(ALL.len(), 17);
        let ids: Vec<&str> = ALL.iter().map(|(n, _)| *n).collect();
        assert_eq!(ids[0], "e1");
        assert_eq!(ids[16], "e17");
    }
}
