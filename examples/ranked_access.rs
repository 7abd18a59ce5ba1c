//! Ranked and random access to query answers without materialization —
//! a product-catalog scenario for direct access (paper §3.4).
//!
//! Run with `cargo run --release --example ranked_access`.

use cq_lower_bounds::prelude::*;
use rand::Rng;

fn main() {
    let mut rng = cq_data::generate::seeded_rng(11);

    // Catalog: Product(product, category), Stock(category, warehouse).
    // The join lists every (product, category, warehouse) availability.
    let n_products = 50_000;
    let n_categories = 500;
    let n_warehouses = 40;
    let products = cq_data::Relation::from_pairs(
        (0..n_products as u64).map(|p| (p, rng.gen_range(0..n_categories as u64))),
    );
    let stock = cq_data::Relation::from_pairs((0..n_categories as u64).flat_map(|c| {
        let mut rng = cq_data::generate::seeded_rng(c);
        (0..3).map(move |_| (c, rng.gen_range(0..n_warehouses as u64)))
    }));
    let mut db = Database::new();
    db.insert("Product", products);
    db.insert("Stock", stock);

    let q = parse_query("avail(p, c, w) :- Product(p, c), Stock(c, w)").unwrap();
    let profile = classify(&q);
    println!("{profile}");

    // ------------------------------------------------------------------
    // Lexicographic direct access: jump straight to any rank.
    // ------------------------------------------------------------------
    let order: Vec<Var> =
        ["c", "p", "w"].iter().map(|n| q.var_by_name(n).unwrap()).collect();
    let stats = DataStats::collect(&db);
    let plan = Planner::plan_lex_access(&q, &order, &stats);
    println!("\n{}", cq_lower_bounds::planner::explain::render(&plan, &q));
    let t0 = std::time::Instant::now();
    let da = LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &order).unwrap();
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let total = da.len();
    println!(
        "lexicographic order (c ≺ p ≺ w): {total} answers, built in {build_ms:.1} ms"
    );

    let t0 = std::time::Instant::now();
    let mut probes = 0u64;
    for i in [0, total / 4, total / 2, 3 * total / 4, total - 1] {
        let row = da.access(i).unwrap();
        probes += 1;
        println!(
            "  rank {i:>9}: product={} category={} warehouse={}",
            row[q.var_by_name("p").unwrap().index()],
            row[q.var_by_name("c").unwrap().index()],
            row[q.var_by_name("w").unwrap().index()]
        );
    }
    println!(
        "  {} random accesses in {:.2} ms total — no materialization of the {} answers",
        probes,
        t0.elapsed().as_secs_f64() * 1e3,
        total
    );

    // Disrupted order: the efficient builder refuses, and says why; the
    // planner falls back to the materialize + sort baseline instead.
    let bad: Vec<Var> =
        ["p", "w", "c"].iter().map(|n| q.var_by_name(n).unwrap()).collect();
    match LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &bad) {
        Err(e) => println!("\norder (p ≺ w ≺ c) rejected: {e}"),
        Ok(_) => unreachable!(),
    }
    println!("  -> {}", classify_direct_access_lex(&q, &profile.structure, &bad));
    let bad_plan = Planner::plan_lex_access(&q, &bad, &stats);
    println!("  planner fallback: {}", bad_plan.op.name());

    // ------------------------------------------------------------------
    // Sum-order direct access (Thm 3.26): cheapest availability first.
    // ------------------------------------------------------------------
    // Make a *single-atom* catalog so the easy side of Thm 3.26 applies.
    let q1 = parse_query("avail(p, c, w) :- Avail(p, c, w)").unwrap();
    let mut flat = cq_data::Relation::new(3);
    for i in 0..total.min(200_000) {
        flat.push_row(&da.access(i).unwrap());
    }
    flat.normalize();
    let mut db1 = Database::new();
    db1.insert("Avail", flat);
    let weights: Vec<i64> = (0..n_products as usize + n_categories + n_warehouses)
        .map(|_| rng.gen_range(0..1_000))
        .collect();
    let wf = |v: Val| weights[v as usize];
    let sda =
        SumOrderAccess::build_covering_atom(&ExecCtx::cold(), &q1, &db1, &wf).unwrap();
    println!("\nsum order (cheapest first): {} answers", sda.len());
    for i in 0..5.min(sda.len()) {
        println!(
            "  #{i}: weight {}  tuple {:?}",
            sda.weight_at(i).unwrap(),
            sda.access(i).unwrap()
        );
    }
    println!(
        "  (for multi-atom queries without a covering atom this is 3SUM-hard, Thm 3.26)"
    );
}
