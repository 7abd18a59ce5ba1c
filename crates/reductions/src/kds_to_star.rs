//! Lemma 3.9: k′-Dominating-Set reduces to counting the star query
//! `q*_k`.
//!
//! Vertices are grouped into blocks of `k′/k`; the relation
//! `R = {(u⃗, v) : ∀i. uᵢv ∉ E ∧ uᵢ ≠ v}` (here `u⃗` is a block of
//! vertex choices, encoded into a single value so `q*_k` keeps binary
//! atoms). An assignment to `(x₁..x_k)` corresponds to a choice `S` of at
//! most `k′` vertices, and it is an **answer** iff some `v` is neither in
//! `S` nor dominated by it — i.e. iff `S` is *not* a dominating set. So:
//!
//! > `G` has a dominating set of size ≤ k′ ⟺ #answers < n^{k′}.
//!
//! The relation has ≤ n^{k′/k + 1} tuples, which is the size accounting
//! that turns an O(m^{k−ε}) star-counting algorithm into an
//! O(n^{k′−ε′}) k′-DS algorithm, refuting SETH via Theorem 3.10.

use cq_core::query::zoo;
use cq_core::ConjunctiveQuery;
use cq_data::{Database, Relation, Val};
use cq_problems::Graph;

/// Encode a block `u⃗ ∈ V^b` as a single value (base-n).
pub fn encode_block(block: &[u32], n: usize) -> Val {
    block.iter().fold(0u64, |acc, &u| acc * n as u64 + u as u64)
}

/// Build the Lemma 3.9 instance: the star query `q*_k` (with self-joins,
/// as in the paper) and the database with the single relation `R`.
///
/// # Panics
/// If `kprime` is not a positive multiple of `k`.
pub fn build(g: &Graph, k: usize, kprime: usize) -> (ConjunctiveQuery, Database) {
    assert!(
        k >= 1 && kprime >= k && kprime.is_multiple_of(k),
        "k′ must be a multiple of k"
    );
    let b = kprime / k; // block length
    let n = g.n();
    let mut rel = Relation::new(2);
    // enumerate all blocks u⃗ ∈ V^b and all v with ∀i: uᵢ ≁ v, uᵢ ≠ v
    let mut block = vec![0u32; b];
    loop {
        'v: for v in 0..n as u32 {
            for &u in &block {
                if u == v || g.has_edge(u as usize, v as usize) {
                    continue 'v;
                }
            }
            rel.push_row(&[encode_block(&block, n), v as Val + u64::MAX / 2]);
            // NOTE: v is shifted into a disjoint value range so block
            // encodings and vertex ids cannot collide.
        }
        // next block (odometer)
        let mut i = b;
        loop {
            if i == 0 {
                rel.normalize();
                let q = zoo::star_selfjoin(k);
                let mut db = Database::new();
                db.insert("R", rel);
                return (q, db);
            }
            i -= 1;
            block[i] += 1;
            if (block[i] as usize) < n {
                break;
            }
            block[i] = 0;
        }
    }
}

/// End-to-end: decide k′-DS by counting `q*_k` answers.
///
/// Returns `(has_dominating_set, answers, total)` where
/// `has_dominating_set = answers < total = n^{k′}`.
pub fn kds_via_star_counting(g: &Graph, k: usize, kprime: usize) -> (bool, u64, u64) {
    let (q, db) = build(g, k, kprime);
    let (count, _) =
        cq_planner::EvalCtx::new().count(&q, &db).expect("instance must bind");
    let total = (g.n() as u64).pow(kprime as u32);
    (count < total, count, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_data::generate::seeded_rng;
    use cq_problems::dominating_set::find_dominating_set;

    fn check(g: &Graph, k: usize, kprime: usize) {
        let expected = find_dominating_set(g, kprime).is_some();
        let (got, count, total) = kds_via_star_counting(g, k, kprime);
        assert_eq!(got, expected, "k={k} k'={kprime}: count={count}/{total}");
    }

    #[test]
    fn star_center_dominates() {
        let g = Graph::from_edges(5, (1..5).map(|i| (0u32, i as u32)));
        check(&g, 2, 2); // DS of size 1 exists → also size ≤ 2
    }

    #[test]
    fn path_graphs() {
        // P6: γ = 2: k'=2 yes
        let g = Graph::from_edges(6, (0..5).map(|i| (i as u32, i as u32 + 1)));
        check(&g, 2, 2);
        // empty graph on 6 vertices: γ = 6 > 4
        let g2 = Graph::from_edges(6, Vec::<(u32, u32)>::new());
        check(&g2, 2, 4);
    }

    #[test]
    fn random_agreement_k2() {
        let mut rng = seeded_rng(1);
        for trial in 0..8 {
            let g = Graph::random_gnp(7, 0.25 + 0.05 * (trial % 3) as f64, &mut rng);
            check(&g, 2, 2);
        }
    }

    #[test]
    fn random_agreement_blocks() {
        // k=2, k'=4: blocks of 2 — exercises the encoding
        let mut rng = seeded_rng(2);
        for trial in 0..4 {
            let g = Graph::random_gnp(5, 0.3, &mut rng);
            check(&g, 2, 4);
            let _ = trial;
        }
    }

    #[test]
    fn k3_star() {
        let mut rng = seeded_rng(3);
        let g = Graph::random_gnp(5, 0.4, &mut rng);
        check(&g, 3, 3);
    }

    #[test]
    fn relation_size_bound() {
        // |R| ≤ n^{k'/k + 1}
        let mut rng = seeded_rng(4);
        let g = Graph::random_gnp(6, 0.3, &mut rng);
        let (_, db) = build(&g, 2, 4);
        let r = db.expect("R");
        assert!(r.len() <= 6usize.pow(3));
    }

    #[test]
    #[should_panic(expected = "multiple of k")]
    fn kprime_divisibility_checked() {
        let g = Graph::from_edges(3, vec![(0, 1)]);
        let _ = build(&g, 2, 3);
    }
}
