//! Quickstart: parse, classify, and evaluate conjunctive queries.
//!
//! Run with `cargo run --release --example quickstart`.

use cq_lower_bounds::planner::explain;
use cq_lower_bounds::prelude::*;

fn main() {
    // ------------------------------------------------------------------
    // 1. Parse queries in the textual syntax.
    // ------------------------------------------------------------------
    let queries = [
        "path(x, y, z) :- Follows(x, y), Follows2(y, z)",
        "common(x1, x2) :- Likes1(x1, z), Likes2(x2, z)",
        "tri() :- R1(x, y), R2(y, z), R3(z, x)",
        "lw4() :- A(x2,x3,x4), B(x1,x3,x4), C(x1,x2,x4), D(x1,x2,x3)",
    ];
    println!("=== classification (the paper's dichotomies, executable) ===\n");
    for src in queries {
        let q = parse_query(src).unwrap();
        println!("{}", classify(&q));
        println!();
    }

    // ------------------------------------------------------------------
    // 2. Evaluate an acyclic query the Yannakakis way (Thm 3.1/3.8).
    // ------------------------------------------------------------------
    let q = parse_query("path(x, y, z) :- Follows(x, y), Follows2(y, z)").unwrap();
    let mut db = Database::new();
    db.insert("Follows", Relation::from_pairs(vec![(1, 2), (1, 3), (2, 3), (4, 1)]));
    db.insert("Follows2", Relation::from_pairs(vec![(2, 5), (3, 5), (3, 6)]));

    let (count, plan) = EvalCtx::new().count(&q, &db).unwrap();
    println!("=== evaluation ===\n");
    println!("{q}");
    println!("  |answers| = {count}   (operator: {})", plan.op.name());
    print!("{}", explain::render(&plan, &q));

    let mut e = Answers::walk(enumerate::preprocess(&ExecCtx::cold(), &q, &db).unwrap());
    println!("  constant-delay enumeration:");
    while let Some(row) = e.next().unwrap() {
        println!("    {row:?}");
    }

    // ------------------------------------------------------------------
    // 3. Direct access in lexicographic order (Thm 3.24).
    // ------------------------------------------------------------------
    let order: Vec<Var> =
        ["x", "y", "z"].iter().map(|n| q.var_by_name(n).unwrap()).collect();
    let da = LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &order).unwrap();
    println!("\n=== direct access (order x ≺ y ≺ z) ===");
    println!("  simulated array length: {}", da.len());
    for i in 0..da.len() {
        println!("  answer[{i}] = {:?}", da.access(i).unwrap());
    }

    // An order with a disruptive trio is rejected by the efficient
    // builder — exactly the Thm 3.24 dichotomy.
    let common = parse_query("common(x1, x2, z) :- L1(x1, z), L2(x2, z)").unwrap();
    let bad_order: Vec<Var> =
        ["x1", "x2", "z"].iter().map(|n| common.var_by_name(n).unwrap()).collect();
    println!(
        "\n  q̂*_2 with order (x1, x2, z): {}",
        classify_direct_access_lex(&common, &Structure::of(&common), &bad_order)
    );
}
