//! A social-network analytics scenario: triangles, mutual interests, and
//! why some of these queries are fast while others provably are not.
//!
//! Run with `cargo run --release --example social_network`.

use cq_lower_bounds::planner::explain;
use cq_lower_bounds::prelude::*;
use cq_lower_bounds::problems::triangle;
use cq_lower_bounds::problems::Graph;
use cq_matrix::omega::{ayz_delta, fit_exponent};
use std::time::Instant;

fn main() {
    let mut rng = cq_data::generate::seeded_rng(2025);

    // A random "friendship" graph.
    let n = 3_000;
    let m = 30_000;
    let g = Graph::random_gnm(n, m, &mut rng);
    println!("social graph: {} users, {} friendships", g.n(), g.m());

    // ------------------------------------------------------------------
    // Triangle counting: the canonical cyclic query (paper §3.1.1).
    // ------------------------------------------------------------------
    let t0 = Instant::now();
    let tri_count = triangle::count_triangles(&g);
    println!(
        "\nfriend triangles: {tri_count}  (edge-iterator, {:.1} ms — an O(m^1.5) algorithm)",
        t0.elapsed().as_secs_f64() * 1e3
    );

    let delta = ayz_delta(g.m(), 2.7);
    let t0 = Instant::now();
    let found = triangle::find_triangle_ayz(&g, delta);
    println!(
        "triangle detection via AYZ degree split (Δ = {delta}): {:?} in {:.1} ms (Thm 3.2)",
        found.is_some(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    // ------------------------------------------------------------------
    // "Users with a common interest" — the star query q̄*_2 (paper §3.3).
    // ------------------------------------------------------------------
    let likes = cq_data::generate::random_pairs(20_000, 2_000, &mut rng);
    let mut db = Database::new();
    db.insert("L1", likes.clone());
    db.insert("L2", likes);

    let q = parse_query("common(u1, u2) :- L1(u1, i), L2(u2, i)").unwrap();
    println!("\n{}", classify(&q));

    let t0 = Instant::now();
    let (pairs, plan) = EvalCtx::new().answers(&q, &db).unwrap();
    println!(
        "\ncommon-interest pairs: {} (operator: {}, {:.1} ms — the output can be \
         quadratic, which is exactly why Thm 3.16 forbids constant delay)",
        pairs.len(),
        plan.op.name(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    println!("\nEXPLAIN says why nothing faster exists:");
    print!("{}", explain::render(&plan, &q));

    // The full version q̂*_2 (interest kept in the output) IS free-connex:
    let q_full = parse_query("common(u1, u2, i) :- L1(u1, i), L2(u2, i)").unwrap();
    let t0 = Instant::now();
    let mut e =
        Answers::walk(enumerate::preprocess(&ExecCtx::cold(), &q_full, &db).unwrap());
    let mut first_10 = Vec::new();
    while first_10.len() < 10 {
        let Some(row) = e.next().unwrap() else { break };
        first_10.push(row.to_vec());
    }
    println!(
        "keeping the interest column makes it free-connex: first 10 answers in {:.2} ms \
         without materializing anything (Thm 3.17)",
        t0.elapsed().as_secs_f64() * 1e3
    );
    for row in &first_10 {
        println!("    (u1={}, u2={}, interest={})", row[0], row[1], row[2]);
    }

    // ------------------------------------------------------------------
    // Measured scaling: is triangle detection really superlinear here?
    // ------------------------------------------------------------------
    println!(
        "\nscaling check (edge-iterator triangle detection on bipartite worst cases):"
    );
    let mut points = Vec::new();
    for &mm in &[20_000usize, 40_000, 80_000, 160_000] {
        let g =
            Graph::random_bipartite(2 * (mm as f64).sqrt() as usize + 2, mm, &mut rng);
        let t0 = Instant::now();
        let res = triangle::find_triangle_edge_iterator(&g);
        let dt = t0.elapsed().as_secs_f64();
        assert!(res.is_none());
        points.push((mm as f64, dt.max(1e-9)));
        println!("  m = {mm:>7}: {:.2} ms", dt * 1e3);
    }
    if let Some(e) = fit_exponent(&points) {
        println!("  fitted exponent: m^{e:.2} (the hypothesis floor is m^1.0, the algorithm is m^1.5)");
    }
}
