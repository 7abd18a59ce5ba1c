//! Lemma 3.21 and Lemma 3.23: triangle finding through testing / direct
//! access for star queries.
//!
//! * Lemma 3.21: set `R := E`; then `(a,b) ∈ q*_2(D)` iff `a` and `b`
//!   have a common neighbor, so probing every edge `(a,b) ∈ E` detects a
//!   triangle with |E| probes after one preprocessing pass. Õ(m)
//!   preprocessing + Õ(1) probes would refute the Triangle Hypothesis —
//!   so the star tester's per-probe degree cost is conditionally
//!   necessary.
//! * Lemma 3.23 = Lemma 3.20 ∘ Lemma 3.21: a direct-access structure for
//!   `q̂*_2` in the lexicographic order `x1 > x2 > z` yields exactly such
//!   a tester through binary search on the simulated array.
//!
//! Both testers live here, beside the reduction they witness:
//! [`StarTester`] answers the testing problem for the star query `q*_k`
//! (test `(a1..ak)`: is there a `z` with `R(ai, z)` for all `i`?) by
//! intersecting the sorted `z`-lists of the `ai` — O(min-degree) per
//! probe after O(m) preprocessing — and [`test_prefix`] is Lemma 3.20:
//! testing through any direct-access structure, with a log-factor loss.

use cq_core::query::zoo;
use cq_core::Var;
use cq_data::{Database, FxHashMap, Relation, Val};
use cq_engine::{DirectAccess, ExecCtx, MaterializedDirectAccess};
use cq_problems::Graph;

/// Preprocessed tester for `q*_k(x1..xk) :- ⋀ R(xi, z)` over a single
/// binary relation `R` (paper §3.4.1).
pub struct StarTester {
    /// sorted z-lists per left value
    adj: FxHashMap<Val, Vec<Val>>,
}

impl StarTester {
    /// O(m) preprocessing: bucket and sort the z-lists.
    pub fn preprocess(r: &Relation) -> Self {
        assert_eq!(r.arity(), 2, "star tester needs a binary relation");
        let mut adj: FxHashMap<Val, Vec<Val>> = FxHashMap::default();
        for row in r.iter() {
            adj.entry(row[0]).or_default().push(row[1]);
        }
        for l in adj.values_mut() {
            l.sort_unstable();
            l.dedup();
        }
        StarTester { adj }
    }

    /// Is `(a_1, ..., a_k) ∈ q*_k(D)`? Intersects the z-lists smallest
    /// first; cost O(k · min_i deg(a_i)) with galloping membership tests.
    pub fn test(&self, a: &[Val]) -> bool {
        if a.is_empty() {
            return true;
        }
        let mut lists: Vec<&[Val]> = Vec::with_capacity(a.len());
        for &ai in a {
            match self.adj.get(&ai) {
                Some(l) => lists.push(l),
                None => return false,
            }
        }
        lists.sort_by_key(|l| l.len());
        let (smallest, rest) = lists.split_first().unwrap();
        'candidates: for &z in smallest.iter() {
            for l in rest {
                if l.binary_search(&z).is_err() {
                    continue 'candidates;
                }
            }
            return true;
        }
        false
    }

    /// Degree of a left value (probe cost indicator).
    pub fn degree(&self, a: Val) -> usize {
        self.adj.get(&a).map_or(0, Vec::len)
    }
}

/// Lemma 3.20: testing via direct access. Given a direct-access
/// structure whose order starts with the variables of `prefix_vals`
/// (a ⪯-prefix of `order`), decide whether some answer extends the
/// assignment `prefix_vals` — with O(log |q(D)|) accesses.
pub fn test_prefix(da: &dyn DirectAccess, order: &[Var], prefix_vals: &[Val]) -> bool {
    let n = da.len();
    if n == 0 {
        return false;
    }
    let cmp = |row: &[Val]| -> std::cmp::Ordering {
        for (k, &v) in order.iter().take(prefix_vals.len()).enumerate() {
            match row[v.index()].cmp(&prefix_vals[k]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    };
    // binary search for the first row with prefix >= target
    let (mut lo, mut hi) = (0u64, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let row = da.access(mid).unwrap();
        if cmp(&row) == std::cmp::Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo >= n {
        return false;
    }
    cmp(&da.access(lo).unwrap()) == std::cmp::Ordering::Equal
}

/// The symmetric edge relation of `g`.
pub fn edge_relation(g: &Graph) -> Relation {
    let mut pairs = Vec::with_capacity(2 * g.m());
    for (a, b) in g.edges() {
        pairs.push((a as Val, b as Val));
        pairs.push((b as Val, a as Val));
    }
    Relation::from_pairs(pairs)
}

/// Lemma 3.21, executable: detect a triangle by |E| star-tester probes.
pub fn triangle_via_star_testing(g: &Graph) -> bool {
    let r = edge_relation(g);
    let tester = StarTester::preprocess(&r);
    g.edges().any(|(a, b)| tester.test(&[a as Val, b as Val]))
}

/// Lemma 3.23, executable: detect a triangle through direct access for
/// `q̂*_2` under the order `x1, x2, z` (the disrupted order — only the
/// materialization structure supports it, which is the lemma's point).
pub fn triangle_via_qhat_direct_access(g: &Graph) -> bool {
    let q = zoo::star_full(2);
    let mut db = Database::new();
    db.insert("R", edge_relation(g));
    let x1 = q.var_by_name("x1").unwrap();
    let x2 = q.var_by_name("x2").unwrap();
    let z = q.var_by_name("z").unwrap();
    let order: Vec<Var> = vec![x1, x2, z];
    let ctx = ExecCtx::cold();
    // The efficient builder must refuse this order (disruptive trio)…
    debug_assert!(
        cq_engine::LexDirectAccess::build(&ctx, &q, &db, &order).is_err(),
        "x1,x2,z order must be rejected by the compatible-tree builder"
    );
    // …so the only structure is the materialized one.
    let da = MaterializedDirectAccess::build(&ctx, &q, &db, &order).expect("join query");
    if da.is_empty() {
        return false;
    }
    g.edges().any(|(a, b)| test_prefix(&da, &order, &[a as Val, b as Val]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_data::generate::{random_pairs, seeded_rng, star_database};
    use cq_engine::LexDirectAccess;
    use cq_problems::triangle::find_triangle_edge_iterator;

    #[test]
    fn star_testing_agrees_with_reference() {
        let mut rng = seeded_rng(1);
        for trial in 0..15 {
            let g = Graph::random_gnm(16, 20 + 2 * trial, &mut rng);
            assert_eq!(
                triangle_via_star_testing(&g),
                find_triangle_edge_iterator(&g).is_some(),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn direct_access_agrees_with_reference() {
        let mut rng = seeded_rng(2);
        for trial in 0..10 {
            let g = Graph::random_gnm(12, 14 + 2 * trial, &mut rng);
            assert_eq!(
                triangle_via_qhat_direct_access(&g),
                find_triangle_edge_iterator(&g).is_some(),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn triangle_free_cases() {
        let mut rng = seeded_rng(3);
        let g = Graph::random_bipartite(20, 50, &mut rng);
        assert!(!triangle_via_star_testing(&g));
        assert!(!triangle_via_qhat_direct_access(&g));
    }

    #[test]
    fn single_triangle() {
        let g = Graph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        assert!(triangle_via_star_testing(&g));
        assert!(triangle_via_qhat_direct_access(&g));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(5, Vec::<(u32, u32)>::new());
        assert!(!triangle_via_star_testing(&g));
        assert!(!triangle_via_qhat_direct_access(&g));
    }

    #[test]
    fn basic_star_tests() {
        let r = Relation::from_pairs(vec![(1, 10), (2, 10), (3, 11), (1, 11)]);
        let t = StarTester::preprocess(&r);
        assert!(t.test(&[1, 2])); // share z=10
        assert!(t.test(&[1, 3])); // share z=11
        assert!(!t.test(&[2, 3])); // no common z
        assert!(t.test(&[1])); // unary: any z
        assert!(!t.test(&[9])); // absent value
        assert!(t.test(&[])); // empty tuple: vacuous
    }

    #[test]
    fn triple_star() {
        let r = Relation::from_pairs(vec![(1, 5), (2, 5), (3, 5), (1, 6), (2, 6)]);
        let t = StarTester::preprocess(&r);
        assert!(t.test(&[1, 2, 3]));
        assert!(t.test(&[1, 2]));
        let r2 = Relation::from_pairs(vec![(1, 5), (2, 5), (3, 6)]);
        let t2 = StarTester::preprocess(&r2);
        assert!(!t2.test(&[1, 2, 3]));
    }

    #[test]
    fn repeated_entries_ok() {
        let r = Relation::from_pairs(vec![(1, 5)]);
        let t = StarTester::preprocess(&r);
        assert!(t.test(&[1, 1, 1]));
    }

    #[test]
    fn matches_brute_force_random() {
        let mut rng = seeded_rng(1);
        let r = random_pairs(150, 20, &mut rng);
        let t = StarTester::preprocess(&r);
        for a1 in 0..20u64 {
            for a2 in 0..20u64 {
                let expected =
                    (0..20u64).any(|z| r.contains(&[a1, z]) && r.contains(&[a2, z]));
                assert_eq!(t.test(&[a1, a2]), expected, "({a1},{a2})");
            }
        }
    }

    #[test]
    fn degree_reporting() {
        let r = Relation::from_pairs(vec![(1, 5), (1, 6), (2, 5)]);
        let t = StarTester::preprocess(&r);
        assert_eq!(t.degree(1), 2);
        assert_eq!(t.degree(2), 1);
        assert_eq!(t.degree(3), 0);
    }

    #[test]
    fn testing_via_direct_access() {
        // Lemma 3.20 applied to q̂*_2 with order (z, x1, x2): test
        // membership of (z, x1) prefixes.
        let db = star_database(2, 60, 5, &mut seeded_rng(8));
        let q = zoo::star_full(2);
        let order: Vec<Var> =
            ["z", "x1", "x2"].iter().map(|n| q.var_by_name(n).unwrap()).collect();
        let lex = LexDirectAccess::build(&ExecCtx::cold(), &q, &db, &order).unwrap();
        let mat =
            MaterializedDirectAccess::build(&ExecCtx::cold(), &q, &db, &order).unwrap();
        // collect true prefixes
        let mut true_prefixes = std::collections::BTreeSet::new();
        for i in 0..mat.len() {
            let row = mat.access(i).unwrap();
            true_prefixes.insert((row[order[0].index()], row[order[1].index()]));
        }
        for z in 0..6u64 {
            for x1 in 0..20u64 {
                let expected = true_prefixes.contains(&(z, x1));
                assert_eq!(test_prefix(&lex, &order, &[z, x1]), expected, "({z},{x1})");
            }
        }
        // an empty structure extends no prefix
        let mut empty = Database::new();
        empty.insert("R", Relation::new(2));
        let lex = LexDirectAccess::build(&ExecCtx::cold(), &q, &empty, &order).unwrap();
        assert!(!test_prefix(&lex, &order, &[1]));
    }
}
