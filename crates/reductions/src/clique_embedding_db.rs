//! Clique embeddings, executable (paper §4.2, Example 4.2/4.3, Fig. 1).
//!
//! Given the window embedding `ψ: K_k → C_k` (Example 4.2 for k = 5) and
//! a (weighted) graph `G`, build the database for the cycle join query
//! `q◦_k` whose answers are exactly the k-cliques of `G`:
//!
//! * the value of cycle variable `v_t` encodes the vertex choices of all
//!   clique vertices whose image contains `v_t` (base-n tuple encoding);
//! * the relation of atom `R_t(v_t, v_{t+1})` contains one tuple per
//!   choice of vertices for the clique vertices *touching* the atom's
//!   edge, restricted to pairwise-adjacent choices — so the relation has
//!   ≤ n^{wed(e)} tuples (n⁴ for Example 4.3);
//! * for the weighted variant each K_k-pair `{i, j}` is charged to
//!   exactly one atom that witnesses their touching, so the tropical
//!   (min,+) aggregate of the query equals the minimum-weight k-clique —
//!   transferring Min-Weight-k-Clique hardness (Hypothesis 7) to cycle
//!   aggregation at exponent `k / max wed = 5/4` for the 5-cycle.

use cq_core::embedding::{clique_into_cycle, CliqueEmbedding};
use cq_core::hypergraph::mask_vertices;
use cq_core::query::zoo;
use cq_core::ConjunctiveQuery;
use cq_data::{Database, FxHashMap, Relation, Val};
use cq_engine::{generic_join, EvalError, ExecCtx};
use cq_problems::weighted_clique::WeightedGraph;

/// A built embedding instance.
pub struct CycleEmbeddingInstance {
    /// The cycle join query `q◦_k(v1..vk)`.
    pub query: ConjunctiveQuery,
    pub db: Database,
    /// Per atom: tuple → charged weight (sum of the atom's assigned
    /// clique-pair edge weights).
    pub weight_tables: Vec<FxHashMap<(Val, Val), i64>>,
    /// The embedding used.
    pub embedding: CliqueEmbedding,
}

/// Build the §4.2 database for the k-cycle (odd `k ≥ 3`) over a weighted
/// graph.
pub fn build(k: usize, g: &WeightedGraph) -> CycleEmbeddingInstance {
    let (h, emb) = clique_into_cycle(k);
    debug_assert!(emb.validate(&h).is_ok());
    let n = g.n();

    // touching sets per cycle edge t: clique vertices i with ψ(xᵢ) ∩ eₜ ≠ ∅
    let edges: Vec<u64> = h.edges().to_vec();
    let touching: Vec<Vec<usize>> = edges
        .iter()
        .map(|&e| (0..k).filter(|&i| emb.psi[i] & e != 0).collect())
        .collect();
    // images per cycle vertex t: clique vertices i with v_t ∈ ψ(xᵢ)
    let images: Vec<Vec<usize>> = (0..k)
        .map(|t| (0..k).filter(|&i| emb.psi[i] & (1u64 << t) != 0).collect())
        .collect();

    // charge each clique pair {i, j} to the first edge touching both
    let mut charged: Vec<Vec<(usize, usize)>> = vec![Vec::new(); edges.len()];
    for i in 0..k {
        for j in (i + 1)..k {
            let t = (0..edges.len())
                .find(|&t| touching[t].contains(&i) && touching[t].contains(&j))
                .expect("embedding property (2): every pair touches some edge");
            charged[t].push((i, j));
        }
    }

    let encode = |ids: &[usize], choice: &FxHashMap<usize, u32>| -> Val {
        ids.iter().fold(0u64, |acc, &i| acc * n as u64 + choice[&i] as u64)
    };

    let query = zoo::cycle_join(k);
    let mut db = Database::new();
    let mut weight_tables: Vec<FxHashMap<(Val, Val), i64>> =
        vec![FxHashMap::default(); edges.len()];

    for (t, tset) in touching.iter().enumerate() {
        // cycle edge t joins v_t and v_{(t+1) % k} by construction of
        // `clique_into_cycle` (edge masks are {t, t+1 mod k})
        let e = edges[t];
        let mut vs = mask_vertices(e);
        let a = vs.next().unwrap();
        let b = vs.next().unwrap();
        // orient: atom R_{t+1} in zoo::cycle_join has vars (v_{t}, v_{t+1});
        // edge mask {t, (t+1)%k} — identify which of (a, b) is v_t.
        let (first, second) = if (a + 1) % k == b { (a, b) } else { (b, a) };

        let mut rel = Relation::new(2);
        let mut choice: FxHashMap<usize, u32> = FxHashMap::default();
        // enumerate vertex choices for the touching set, requiring all
        // pairs adjacent
        let mut stack: Vec<u32> = vec![0; tset.len()];
        let mut depth = 0usize;
        loop {
            if depth == tset.len() {
                // all chosen: record tuple
                choice.clear();
                for (d, &i) in tset.iter().enumerate() {
                    choice.insert(i, stack[d]);
                }
                let va = encode(&images[first], &choice);
                let vb = encode(&images[second], &choice);
                let w: i64 = charged[t]
                    .iter()
                    .map(|&(i, j)| {
                        g.weight(choice[&i] as usize, choice[&j] as usize)
                            .expect("pairwise adjacency was checked")
                    })
                    .sum();
                rel.push_row(&[va, vb]);
                weight_tables[t].insert((va, vb), w);
                // backtrack to advance
                depth -= 1;
                stack[depth] += 1;
                continue;
            }
            if stack[depth] as usize >= n {
                if depth == 0 {
                    break;
                }
                stack[depth] = 0;
                depth -= 1;
                stack[depth] += 1;
                continue;
            }
            // adjacency check against earlier choices
            let v = stack[depth] as usize;
            let ok = (0..depth).all(|d| {
                g.weight(stack[d] as usize, v).is_some() && stack[d] as usize != v
            });
            if ok {
                depth += 1;
            } else {
                stack[depth] += 1;
            }
        }
        rel.normalize();
        db.insert(&format!("R{}", t + 1), rel);
    }

    CycleEmbeddingInstance { query, db, weight_tables, embedding: emb }
}

/// The tropical (min, +) aggregate of a join query without repeated
/// variables: the least answer weight, where an answer weighs the sum of
/// its atoms' tuple weights `weight(atom_index, tuple)` — or `None` if
/// `q(D)` is empty. A minimum over generic join's assignments, so its
/// runtime is the AGM bound: for the 5-cycle of Example 4.3 the
/// embedding makes m^{5/4} a conditional floor, so no algorithm here
/// can be linear.
pub fn min_weight_answer(
    ctx: &ExecCtx,
    q: &ConjunctiveQuery,
    db: &Database,
    weight: impl Fn(usize, &[Val]) -> i64,
) -> Result<Option<i64>, EvalError> {
    if !q.is_join_query() {
        return Err(EvalError::NotJoinQuery);
    }
    let mut best: Option<i64> = None;
    let mut tuple: Vec<Val> = Vec::new();
    let order = generic_join::default_order(q);
    // in interning order, `Var(i)` is the assignment's position `i`
    generic_join::visit(ctx, q, db, &order, &mut |assignment| {
        let mut w = 0;
        for (i, atom) in q.atoms().iter().enumerate() {
            tuple.clear();
            tuple.extend(atom.vars.iter().map(|v| assignment[v.index()]));
            w += weight(i, &tuple);
        }
        best = Some(best.map_or(w, |b| b.min(w)));
        true
    })?;
    Ok(best)
}

/// Minimum-weight k-clique through tropical aggregation of the cycle
/// query (Example 4.3's pipeline). Returns `None` if `G` has no
/// k-clique.
pub fn min_weight_clique_via_cycle(k: usize, g: &WeightedGraph) -> Option<i64> {
    let inst = build(k, g);
    let tables = &inst.weight_tables;
    let weight = |ai: usize, row: &[Val]| {
        *tables[ai]
            .get(&(row[0], row[1]))
            .expect("every relation tuple has a charged weight")
    };
    min_weight_answer(&ExecCtx::cold(), &inst.query, &inst.db, weight)
        .expect("instance must bind")
}

/// Decision version: does `G` (as an unweighted graph) contain a
/// k-clique? Evaluates the Boolean cycle query on the embedding
/// database.
pub fn has_clique_via_cycle(k: usize, g: &WeightedGraph) -> bool {
    let inst = build(k, g);
    crate::decide_by_generic_join(&inst.query, &inst.db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_data::generate::{path_database, seeded_rng, triangle_database};
    use cq_engine::bind::brute_force_answers;
    use cq_problems::clique::find_k_clique_backtracking;
    use cq_problems::weighted_clique::min_weight_k_clique;
    use cq_problems::Graph;

    #[test]
    fn min_weight_5clique_matches_brute_force() {
        let mut rng = seeded_rng(1);
        for trial in 0..5 {
            let g = WeightedGraph::random_complete(8, 50, &mut rng);
            let via_cycle = min_weight_clique_via_cycle(5, &g);
            let brute = min_weight_k_clique(&g, 5).map(|(w, _)| w);
            assert_eq!(via_cycle, brute, "trial={trial}");
        }
    }

    #[test]
    fn min_weight_3clique_matches() {
        let mut rng = seeded_rng(2);
        let g = WeightedGraph::random_complete(10, 100, &mut rng);
        assert_eq!(
            min_weight_clique_via_cycle(3, &g),
            min_weight_k_clique(&g, 3).map(|(w, _)| w)
        );
    }

    #[test]
    fn decision_on_incomplete_graphs() {
        let mut rng = seeded_rng(3);
        for trial in 0..5 {
            // random graph with 0-weight edges
            let plain = Graph::random_gnp(9, 0.6, &mut rng);
            let wg =
                WeightedGraph::from_edges(9, plain.edges().map(|(a, b)| (a, b, 0i64)));
            assert_eq!(
                has_clique_via_cycle(5, &wg),
                find_k_clique_backtracking(&plain, 5).is_some(),
                "trial={trial}"
            );
        }
    }

    #[test]
    fn no_clique_gives_none() {
        // a 5-cycle graph has no 5-clique
        let wg = WeightedGraph::from_edges(
            5,
            (0..5).map(|i| (i as u32, ((i + 1) % 5) as u32, 1i64)),
        );
        assert_eq!(min_weight_clique_via_cycle(5, &wg), None);
        assert!(!has_clique_via_cycle(5, &wg));
    }

    #[test]
    fn relation_size_accounting() {
        // Example 4.3: each relation ≤ n^4 tuples (n^{wed(e)}, wed = 4)
        let mut rng = seeded_rng(4);
        let g = WeightedGraph::random_complete(6, 10, &mut rng);
        let inst = build(5, &g);
        for i in 1..=5 {
            let r = inst.db.expect(&format!("R{i}"));
            assert!(r.len() <= 6usize.pow(4), "R{i} has {} tuples", r.len());
        }
        assert_eq!(inst.embedding.max_weak_edge_depth(&clique_into_cycle(5).0), 4);
    }

    #[test]
    fn every_pair_charged_exactly_once() {
        // On a complete graph with every edge weighing 1, the minimum
        // 5-clique weight is C(5,2) = 10 — which holds iff each clique
        // pair is charged to exactly one atom.
        let g = WeightedGraph::from_edges(
            7,
            (0..7u32).flat_map(|a| ((a + 1)..7).map(move |b| (a, b, 1i64))),
        );
        assert_eq!(min_weight_clique_via_cycle(5, &g), Some(10));
        assert_eq!(min_weight_clique_via_cycle(3, &g), Some(3));
    }

    #[test]
    fn min_weight_matches_brute_force_on_path() {
        let db = path_database(2, 40, &mut seeded_rng(2));
        let q = zoo::path_join(2);
        // weight of a tuple = sum of its values (deterministic)
        let wf = |_: usize, row: &[Val]| row.iter().map(|&v| v as i64).sum::<i64>();
        let got = min_weight_answer(&ExecCtx::cold(), &q, &db, wf).unwrap();
        // brute force: x0, x1, x2 over atoms R1(x0, x1), R2(x1, x2)
        let answers = brute_force_answers(&q, &db).unwrap();
        let best = answers.iter().map(|r| (r[0] + 2 * r[1] + r[2]) as i64).min();
        assert_eq!(got, best);
    }

    #[test]
    fn min_weight_of_an_empty_result_is_none() {
        let mut db = Database::new();
        db.insert("R1", Relation::new(2));
        db.insert("R2", Relation::new(2));
        let wf = |_: usize, _: &[Val]| 0i64;
        let got = min_weight_answer(&ExecCtx::cold(), &zoo::path_join(2), &db, wf);
        assert_eq!(got, Ok(None));
    }

    #[test]
    fn min_weight_handles_the_cyclic_triangle() {
        let edges = Relation::from_pairs(vec![(0, 1), (1, 2), (2, 0)]);
        let db = triangle_database(&edges);
        let wf = |_: usize, _: &[Val]| 1i64; // each atom contributes 1
        let got = min_weight_answer(&ExecCtx::cold(), &zoo::triangle_join(), &db, wf);
        assert_eq!(got, Ok(Some(3))); // 3 atoms × weight 1
    }
}
