//! Theorem 3.5: hyperclique finding embeds into Loomis–Whitney queries.
//!
//! Given a `(k−1)`-uniform hypergraph `H`, the relation `R` contains all
//! permutations of each edge; every atom of `q^LW_k` is bound to `R`.
//! Then `q^LW_k` is true iff `H` has a hyperclique of size `k`. The
//! relation size is at most `(k−1)!·|E| ≤ n^{k−1}` — the accounting that
//! turns an `m^{1+1/(k−1)−ε}` LW algorithm into an `n^{k−(k−1)ε}`
//! hyperclique algorithm, contradicting Hypothesis 3.

use cq_core::query::zoo;
use cq_core::ConjunctiveQuery;
use cq_data::{Database, Relation, Val};
use cq_problems::hyperclique::UniformHypergraph;

/// All permutations of `items`, by Heap's algorithm.
pub fn permutations(items: &[Val]) -> Vec<Vec<Val>> {
    let mut a = items.to_vec();
    let n = a.len();
    let mut out = Vec::new();
    fn heap(a: &mut Vec<Val>, k: usize, out: &mut Vec<Vec<Val>>) {
        if k <= 1 {
            out.push(a.clone());
            return;
        }
        for i in 0..k {
            heap(a, k - 1, out);
            if k.is_multiple_of(2) {
                a.swap(i, k - 1);
            } else {
                a.swap(0, k - 1);
            }
        }
    }
    heap(&mut a, n, &mut out);
    out
}

/// Build the LW database from a `(k−1)`-uniform hypergraph: every atom's
/// relation is the permutation closure of the edge set.
pub fn build(h: &UniformHypergraph, k: usize) -> (ConjunctiveQuery, Database) {
    assert_eq!(h.h(), k - 1, "hypergraph must be (k−1)-uniform for q^LW_k");
    let mut rel = Relation::new(k - 1);
    for e in h.edges() {
        let vals: Vec<Val> = e.iter().map(|&v| v as Val).collect();
        for p in permutations(&vals) {
            rel.push_row(&p);
        }
    }
    rel.normalize();
    let q = zoo::loomis_whitney_boolean(k);
    let mut db = Database::new();
    for i in 1..=k {
        db.insert(&format!("R{i}"), rel.clone());
    }
    (q, db)
}

/// End-to-end: decide `k`-hyperclique existence through the LW query
/// (evaluated by the worst-case optimal join, the Õ(m^{1+1/(k−1)})
/// algorithm of NPRR).
pub fn hyperclique_via_lw(h: &UniformHypergraph, k: usize) -> bool {
    let (q, db) = build(h, k);
    crate::decide_by_generic_join(&q, &db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_data::generate::seeded_rng;
    use cq_problems::hyperclique::find_hyperclique;

    #[test]
    fn permutations_count() {
        assert_eq!(permutations(&[1, 2, 3]).len(), 6);
        let mut ps = permutations(&[1, 2]);
        ps.sort();
        assert_eq!(ps, vec![vec![1, 2], vec![2, 1]]);
        assert_eq!(permutations(&[7]).len(), 1);
    }

    #[test]
    fn planted_hyperclique_detected() {
        let mut rng = seeded_rng(1);
        let mut h = UniformHypergraph::random(10, 3, 25, &mut rng);
        assert_eq!(hyperclique_via_lw(&h, 4), find_hyperclique(&h, 4).is_some());
        h.plant_hyperclique(4);
        assert!(hyperclique_via_lw(&h, 4));
    }

    #[test]
    fn agreement_on_random_instances() {
        let mut rng = seeded_rng(2);
        for trial in 0..10 {
            let h = UniformHypergraph::random(8, 3, 30 + trial * 3, &mut rng);
            assert_eq!(
                hyperclique_via_lw(&h, 4),
                find_hyperclique(&h, 4).is_some(),
                "trial={trial}"
            );
        }
    }

    #[test]
    fn lw5_with_4_uniform() {
        let mut rng = seeded_rng(3);
        for trial in 0..5 {
            let mut h = UniformHypergraph::random(8, 4, 40, &mut rng);
            if trial % 2 == 0 {
                h.plant_hyperclique(5);
            }
            assert_eq!(
                hyperclique_via_lw(&h, 5),
                find_hyperclique(&h, 5).is_some(),
                "trial={trial}"
            );
        }
    }

    #[test]
    fn size_accounting() {
        // |R| ≤ (k−1)! · |E|
        let mut rng = seeded_rng(4);
        let h = UniformHypergraph::random(12, 3, 50, &mut rng);
        let (_, db) = build(&h, 4);
        let r = db.expect("R1");
        assert!(r.len() <= 6 * h.m());
        assert_eq!(r.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "uniform")]
    fn uniformity_checked() {
        let h = UniformHypergraph::from_edges(4, 2, vec![vec![0, 1]]);
        let _ = build(&h, 4);
    }
}
