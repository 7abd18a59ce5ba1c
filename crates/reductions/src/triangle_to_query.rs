//! Proposition 3.3: triangle finding embeds into every cyclic arity-2
//! self-join-free Boolean conjunctive query.
//!
//! Given the query's induced cycle (a Brault-Baron witness), three
//! consecutive cycle edges carry the input graph's edge relation; the
//! remaining cycle edges carry the equality relation on `V` (contracting
//! the cycle to a triangle); atoms touching the cycle in one variable are
//! padded with a dummy element, and atoms disjoint from the cycle get
//! the all-dummy tuple. The query is then true iff the graph has a
//! triangle.

use cq_core::hypergraph::mask_vertices;
use cq_core::{ConjunctiveQuery, Var};
use cq_data::{Database, Relation, Val};
use cq_problems::Graph;

/// Errors of the construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReductionError {
    /// The query must be cyclic with all atoms of arity 2.
    NotCyclicBinary,
    /// The query must be self-join free (each atom gets its own relation).
    NotSelfJoinFree,
}

/// The symmetric edge relation of `g` (both orientations), with vertex
/// `v` encoded as value `v`.
pub fn edge_relation(g: &Graph) -> Relation {
    let mut pairs = Vec::with_capacity(2 * g.m());
    for (a, b) in g.edges() {
        pairs.push((a as Val, b as Val));
        pairs.push((b as Val, a as Val));
    }
    Relation::from_pairs(pairs)
}

/// Build the Proposition 3.3 database: `q` must be a cyclic self-join
/// free query with binary atoms. `D ⊨ q` iff `g` has a triangle.
///
/// The dummy element is `g.n()` (outside the vertex range).
pub fn build(q: &ConjunctiveQuery, g: &Graph) -> Result<Database, ReductionError> {
    if q.atoms().iter().any(|a| a.vars.len() != 2) {
        return Err(ReductionError::NotCyclicBinary);
    }
    if !q.is_self_join_free() {
        return Err(ReductionError::NotSelfJoinFree);
    }
    let h = q.hypergraph();
    let witness = cq_core::brault_baron::find_witness(&h)
        .witness
        .ok_or(ReductionError::NotCyclicBinary)?;
    if witness.kind != cq_core::brault_baron::WitnessKind::Cycle {
        // arity-2 cyclic queries always contain an induced cycle
        return Err(ReductionError::NotCyclicBinary);
    }
    let s = witness.vertices;

    // order the cycle: walk the maximal induced edges
    let cycle_edges: Vec<u64> = h.induced(s).maximal_edges();
    let start = mask_vertices(s).next().unwrap();
    let mut walk: Vec<usize> = vec![start];
    let mut used = vec![false; cycle_edges.len()];
    while walk.len() < s.count_ones() as usize {
        let cur = *walk.last().unwrap();
        let (ei, &e) = cycle_edges
            .iter()
            .enumerate()
            .find(|&(i, &e)| !used[i] && e & (1u64 << cur) != 0)
            .expect("cycle walk must continue");
        used[ei] = true;
        let nxt = mask_vertices(e & !(1u64 << cur)).next().unwrap();
        walk.push(nxt);
    }
    // the cycle edge pairs in walk order
    let l = walk.len();
    let ordered_edges: Vec<u64> =
        (0..l).map(|i| (1u64 << walk[i]) | (1u64 << walk[(i + 1) % l])).collect();

    let n = g.n() as Val;
    let dummy = n;
    let edges = edge_relation(g);
    let equality = Relation::from_pairs((0..n).map(|v| (v, v)));
    let v_cross_dummy = Relation::from_pairs((0..n).map(|v| (v, dummy)));
    let dummy_cross_v = Relation::from_pairs((0..n).map(|v| (dummy, v)));
    let dummy_pair = Relation::from_pairs(vec![(dummy, dummy)]);
    let on_cycle = |v: Var| s & v.mask() != 0;

    let mut db = Database::new();
    for atom in q.atoms() {
        let pair_mask = atom.scope() & s;
        let rel = if let Some(pos) = ordered_edges
            .iter()
            .position(|&e| e == pair_mask && pair_mask.count_ones() == 2)
        {
            // a cycle atom: first three walk edges carry E, the rest are
            // equality. E is symmetric and equality is symmetric, so the
            // atom's orientation does not matter.
            if pos < 3 {
                edges.clone()
            } else {
                equality.clone()
            }
        } else if pair_mask.count_ones() == 2 {
            // both endpoints on the cycle but not a cycle edge — cannot
            // happen for an *induced* cycle
            unreachable!("induced cycle witness has a chord");
        } else if on_cycle(atom.vars[0]) && !on_cycle(atom.vars[1]) {
            v_cross_dummy.clone()
        } else if !on_cycle(atom.vars[0]) && on_cycle(atom.vars[1]) {
            dummy_cross_v.clone()
        } else {
            dummy_pair.clone()
        };
        db.insert(&atom.relation, rel);
    }
    Ok(db)
}

/// End-to-end: decide triangle existence in `g` through evaluating the
/// cyclic query `q` on the constructed database.
pub fn triangle_via_query(
    q: &ConjunctiveQuery,
    g: &Graph,
) -> Result<bool, ReductionError> {
    let db = build(q, g)?;
    Ok(crate::decide_by_generic_join(q, &db))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_core::query::zoo;
    use cq_data::generate::seeded_rng;
    use cq_problems::triangle::find_triangle_edge_iterator;

    fn check_on_graphs(q: &ConjunctiveQuery) {
        let mut rng = seeded_rng(42);
        for trial in 0..12 {
            let g = Graph::random_gnm(14, 18 + trial * 2, &mut rng);
            let expected = find_triangle_edge_iterator(&g).is_some();
            assert_eq!(
                triangle_via_query(q, &g).unwrap(),
                expected,
                "query {q}, trial {trial}"
            );
        }
    }

    #[test]
    fn triangle_query_itself() {
        check_on_graphs(&zoo::triangle_boolean());
    }

    #[test]
    fn four_cycle() {
        check_on_graphs(&zoo::cycle_boolean(4));
    }

    #[test]
    fn five_cycle() {
        check_on_graphs(&zoo::cycle_boolean(5));
    }

    #[test]
    fn six_cycle() {
        check_on_graphs(&zoo::cycle_boolean(6));
    }

    #[test]
    fn cycle_with_pendant_atoms() {
        // triangle plus pendant edges and a far-away atom
        let q = cq_core::parse_query("q() :- A(x,y), B(y,z), C(z,x), P(x,w), Q(u,t)")
            .unwrap();
        check_on_graphs(&q);
    }

    #[test]
    fn database_size_linear() {
        // |D| = O(m + n): 3 edge relations of size 2m, equality/padding O(n)
        let mut rng = seeded_rng(7);
        let g = Graph::random_gnm(40, 120, &mut rng);
        let q = zoo::cycle_boolean(5);
        let db = build(&q, &g).unwrap();
        // 3 relations of 2m, 2 equality of n
        assert_eq!(db.size(), 3 * 2 * g.m() + 2 * g.n());
    }

    #[test]
    fn rejects_acyclic_and_selfjoin() {
        let g = Graph::from_edges(3, vec![(0, 1)]);
        assert_eq!(
            build(&zoo::path_boolean(3), &g).unwrap_err(),
            ReductionError::NotCyclicBinary
        );
        // self-join cyclic query
        let q = cq_core::parse_query("q() :- R(x,y), R(y,z), R(z,x)").unwrap();
        assert_eq!(build(&q, &g).unwrap_err(), ReductionError::NotSelfJoinFree);
        // non-binary atoms
        let q3 = cq_core::parse_query("q() :- R(x,y,z), S(z,x)").unwrap();
        assert_eq!(build(&q3, &g).unwrap_err(), ReductionError::NotCyclicBinary);
    }

    #[test]
    fn triangle_free_graph_false() {
        let mut rng = seeded_rng(3);
        let g = Graph::random_bipartite(20, 60, &mut rng);
        for k in [4, 5] {
            assert!(!triangle_via_query(&zoo::cycle_boolean(k), &g).unwrap(), "C{k}");
        }
    }
}
