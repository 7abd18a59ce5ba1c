//! Brault-Baron witnesses for cyclic hypergraphs (Theorem 3.6).
//!
//! Theorem 3.6 ([Brault-Baron 2013]): if `H` is not acyclic, there is a
//! vertex set `S` such that the induced hypergraph `H[S]` is a cycle, or
//! becomes a `(|S|−1)`-uniform hyperclique after deleting edges contained
//! in other edges. The witness kind determines *which* hypothesis the
//! Boolean lower bound rests on (Thm 3.7): cycles embed triangle finding
//! (Triangle Hypothesis, Prop 3.3), near-uniform hypercliques embed
//! hyperclique finding through Loomis–Whitney queries (Hyperclique
//! Hypothesis, Thm 3.5).
//!
//! The search is bounded in *work*, not in query size: a polynomial pass
//! finds a shortest cycle of the primal graph (from four vertices up it
//! is chordless, hence an induced cycle of `H`, and nothing smaller is
//! a witness), then vertex subsets are examined by increasing size — so
//! the witness is minimum-cardinality, and the numerically smallest such
//! set — until [`WITNESS_SEARCH_BUDGET`] subsets have been looked at.

use crate::hypergraph::{mask_vertices, Hypergraph};

/// The kind of hard substructure found.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WitnessKind {
    /// `H[S]` is an (induced, chordless) cycle on `|S|` vertices.
    Cycle,
    /// `H[S]`, after removing subsumed edges, is the `(|S|−1)`-uniform
    /// hyperclique on `S` — i.e. the Loomis–Whitney pattern `q^LW_{|S|}`.
    NearUniformHyperclique,
}

/// A Theorem 3.6 witness.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Witness {
    /// Vertex set `S` (bitmask).
    pub vertices: u64,
    /// Which hard pattern `H[S]` exhibits. When a set is both (|S| = 3:
    /// a triangle is both a cycle and a 2-uniform hyperclique), we report
    /// [`WitnessKind::Cycle`].
    pub kind: WitnessKind,
}

/// Subsets [`find_witness`] examines before giving up: 2^16, so every
/// hypergraph on at most 16 vertices is searched exhaustively, and no
/// input — wire input included — costs more than this many
/// [`Hypergraph::induced_is_cycle`] /
/// [`Hypergraph::induced_is_near_uniform_hyperclique`] checks.
pub const WITNESS_SEARCH_BUDGET: u64 = 1 << 16;

/// What [`find_witness`] found and what it cost.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WitnessSearch {
    /// The witness. `None` for an acyclic hypergraph — and for a cyclic
    /// one whose search ran out of budget: Theorem 3.6 still guarantees
    /// one of the two kinds, the search just did not exhibit it.
    pub witness: Option<Witness>,
    /// Vertex subsets examined, at most [`WITNESS_SEARCH_BUDGET`].
    pub examined: u64,
}

/// Find a minimum-cardinality Theorem 3.6 witness in `h`: `None` if `h`
/// is acyclic, or if `h` is cyclic and no witness turned up within
/// [`WITNESS_SEARCH_BUDGET`] subsets (more than 16 vertices only).
pub fn find_witness(h: &Hypergraph) -> WitnessSearch {
    let mut search = WitnessSearch { witness: None, examined: 0 };
    if h.is_acyclic() {
        return search;
    }
    let n = h.n_vertices();
    let full = Hypergraph::full_mask(n);
    // A hyperclique witness puts a triangle in the primal graph, so
    // below the girth there is nothing to find.
    let shortest = shortest_primal_cycle(h);
    let girth = shortest.map_or(3, |c| c.count_ones() as usize);
    'sizes: for size in girth..=n {
        // Gosper's hack over the `size`-subsets of 0..n, in numeric order
        let mut s = Hypergraph::full_mask(size);
        while s <= full {
            if search.examined == WITNESS_SEARCH_BUDGET {
                break 'sizes;
            }
            search.examined += 1;
            // |S| = 3 is both patterns: the triangle reports as a cycle
            let kind = if h.induced_is_cycle(s) {
                Some(WitnessKind::Cycle)
            } else if h.induced_is_near_uniform_hyperclique(s) {
                Some(WitnessKind::NearUniformHyperclique)
            } else {
                None
            };
            if let Some(kind) = kind {
                search.witness = Some(Witness { vertices: s, kind });
                return search;
            }
            let c = s & s.wrapping_neg();
            let Some(r) = s.checked_add(c) else { break };
            s = (((r ^ s) >> 2) / c) | r;
        }
    }
    // out of budget: the shortest primal cycle is still a witness when
    // it is chordless (always, from four vertices up)
    search.witness = shortest
        .filter(|&c| h.induced_is_cycle(c))
        .map(|c| Witness { vertices: c, kind: WitnessKind::Cycle });
    search
}

/// The vertex set of a shortest cycle of `h`'s primal graph (two
/// vertices adjacent when some edge holds both), by breadth-first
/// search from every vertex: O(n·(n + edges)).
fn shortest_primal_cycle(h: &Hypergraph) -> Option<u64> {
    let n = h.n_vertices();
    let adj: Vec<u64> = (0..n).map(|v| h.closed_neighborhood(v) & !(1u64 << v)).collect();
    let mut best: Option<(usize, u64)> = None;
    for root in 0..n {
        let mut dist = vec![usize::MAX; n];
        let mut parent = vec![root; n];
        let mut queue = std::collections::VecDeque::from([root]);
        dist[root] = 0;
        while let Some(u) = queue.pop_front() {
            for w in mask_vertices(adj[u]) {
                if dist[w] == usize::MAX {
                    dist[w] = dist[u] + 1;
                    parent[w] = u;
                    queue.push_back(w);
                } else if parent[u] != w {
                    // a non-tree edge closes a cycle through the root —
                    // exactly so when the length is the girth
                    let len = dist[u] + dist[w] + 1;
                    if best.is_none_or(|(l, _)| len < l) {
                        let mut cycle = 0u64;
                        for mut v in [u, w] {
                            while v != root {
                                cycle |= 1u64 << v;
                                v = parent[v];
                            }
                        }
                        best = Some((len, cycle | 1u64 << root));
                    }
                }
            }
        }
    }
    best.map(|(_, cycle)| cycle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::mask_of;
    use crate::query::zoo;

    #[test]
    fn acyclic_has_no_witness() {
        assert!(find_witness(&zoo::path_boolean(4).hypergraph()).witness.is_none());
        assert!(find_witness(&zoo::star_selfjoin(3).hypergraph()).witness.is_none());
    }

    #[test]
    fn triangle_witness_is_cycle() {
        let w = find_witness(&zoo::triangle_boolean().hypergraph()).witness.unwrap();
        assert_eq!(w.kind, WitnessKind::Cycle);
        assert_eq!(w.vertices.count_ones(), 3);
    }

    #[test]
    fn long_cycle_witness() {
        let w = find_witness(&zoo::cycle_boolean(6).hypergraph()).witness.unwrap();
        assert_eq!(w.kind, WitnessKind::Cycle);
        assert_eq!(w.vertices.count_ones(), 6);
    }

    #[test]
    fn lw_witness_is_hyperclique() {
        for k in 4..=6 {
            let w = find_witness(&zoo::loomis_whitney_boolean(k).hypergraph())
                .witness
                .unwrap();
            assert_eq!(w.kind, WitnessKind::NearUniformHyperclique, "LW_{k}");
            assert_eq!(w.vertices.count_ones() as usize, k);
        }
    }

    #[test]
    fn lw3_witness_is_triangle_cycle() {
        // LW_3's hypergraph is the triangle: the cycle witness wins.
        let w =
            find_witness(&zoo::loomis_whitney_boolean(3).hypergraph()).witness.unwrap();
        assert_eq!(w.kind, WitnessKind::Cycle);
    }

    #[test]
    fn cycle_inside_bigger_query() {
        // triangle on {0,1,2} plus a pendant edge {2,3}: witness must be
        // the triangle, not include vertex 3.
        let h = Hypergraph::new(
            4,
            vec![mask_of(&[0, 1]), mask_of(&[1, 2]), mask_of(&[2, 0]), mask_of(&[2, 3])],
        );
        let w = find_witness(&h).witness.unwrap();
        assert_eq!(w.vertices, mask_of(&[0, 1, 2]));
        assert_eq!(w.kind, WitnessKind::Cycle);
    }

    #[test]
    fn witness_is_minimum_cardinality() {
        // 4-cycle and a triangle far apart: witness must be the triangle.
        let h = Hypergraph::new(
            7,
            vec![
                // 4-cycle on 0..4
                mask_of(&[0, 1]),
                mask_of(&[1, 2]),
                mask_of(&[2, 3]),
                mask_of(&[3, 0]),
                // triangle on 4..7
                mask_of(&[4, 5]),
                mask_of(&[5, 6]),
                mask_of(&[6, 4]),
            ],
        );
        let w = find_witness(&h).witness.unwrap();
        assert_eq!(w.vertices, mask_of(&[4, 5, 6]));
    }

    #[test]
    fn chorded_cycle_has_smaller_witness() {
        // 4-cycle with a chord {0,2}: H[{0,1,2,3}] is not an induced
        // cycle, but H[{0,1,2}] is a triangle.
        let h = Hypergraph::new(
            4,
            vec![
                mask_of(&[0, 1]),
                mask_of(&[1, 2]),
                mask_of(&[2, 3]),
                mask_of(&[3, 0]),
                mask_of(&[0, 2]),
            ],
        );
        let w = find_witness(&h).witness.unwrap();
        assert_eq!(w.vertices.count_ones(), 3);
        assert_eq!(w.kind, WitnessKind::Cycle);
    }

    #[test]
    fn long_cycles_and_lw6_cost_a_bounded_number_of_subsets() {
        // the shortest-cycle pass starts the search at the girth, where
        // a chordless cycle is the first subset looked at
        for k in [24, 26, 64] {
            let search = find_witness(&zoo::cycle_boolean(k).hypergraph());
            let w = search.witness.unwrap();
            assert_eq!(
                (w.kind, w.vertices.count_ones() as usize),
                (WitnessKind::Cycle, k)
            );
            assert_eq!(search.examined, 1, "C{k}");
        }
        let search = find_witness(&zoo::loomis_whitney_boolean(6).hypergraph());
        assert_eq!(search.witness.unwrap().kind, WitnessKind::NearUniformHyperclique);
        assert!(search.examined < 1 << 6, "LW6 has 2^6 vertex subsets");
    }

    #[test]
    fn budget_cuts_the_search_and_keeps_what_the_cycle_pass_found() {
        // a far, long cycle behind a ternary edge (whose primal triangle
        // is no witness): the subsets below the cycle's size outrun the
        // budget, and the shortest primal cycle is that triangle
        let ring = |k: usize, at: fn(usize) -> usize| {
            (0..k).map(move |i| mask_of(&[at(i), at((i + 1) % k)]))
        };
        let mut edges = vec![mask_of(&[0, 1, 2])];
        edges.extend(ring(20, |i| 3 + i));
        let search = find_witness(&Hypergraph::new(23, edges));
        assert_eq!(
            search,
            WitnessSearch { witness: None, examined: WITNESS_SEARCH_BUDGET }
        );

        // two interleaved 30-cycles, on the even and on the odd
        // vertices: the 30-subsets before the first cycle outrun the
        // budget — and the cycle pass's own find is returned
        let edges: Vec<u64> =
            ring(30, |i| 2 * i).chain(ring(30, |i| 2 * i + 1)).collect();
        let search = find_witness(&Hypergraph::new(60, edges));
        assert_eq!(search.examined, WITNESS_SEARCH_BUDGET);
        let evens = (0..30).fold(0u64, |m, i| m | 1 << (2 * i));
        assert_eq!(
            search.witness,
            Some(Witness { vertices: evens, kind: WitnessKind::Cycle })
        );
    }

    /// The search this module ran before the shortest-cycle pass: every
    /// subset from three vertices up, by size then numeric value.
    fn exhaustive(h: &Hypergraph) -> Option<Witness> {
        let n = h.n_vertices();
        (3..=n).find_map(|size| {
            (0..1u64 << n).filter(|s| s.count_ones() as usize == size).find_map(|s| {
                let kind = if h.induced_is_cycle(s) {
                    WitnessKind::Cycle
                } else if h.induced_is_near_uniform_hyperclique(s) {
                    WitnessKind::NearUniformHyperclique
                } else {
                    return None;
                };
                Some(Witness { vertices: s, kind })
            })
        })
    }

    #[test]
    fn starting_at_the_girth_skips_no_witness() {
        // random hypergraphs on up to 8 vertices, sparse enough that
        // girths of four and more occur
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = |bound: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % bound
        };
        let (mut cyclic, mut long_girth) = (0, 0);
        for _ in 0..2000 {
            let n = 4 + next(5) as usize;
            let edges: Vec<u64> = (0..3 + next(6))
                .map(|_| {
                    let arity = 2 + (next(4) == 0) as u64;
                    (0..arity).fold(0u64, |e, _| e | 1 << next(n as u64))
                })
                .collect();
            let h = Hypergraph::new(n, edges);
            let search = find_witness(&h);
            assert_eq!(search.witness, exhaustive(&h), "{h}");
            cyclic += search.witness.is_some() as usize;
            long_girth +=
                search.witness.is_some_and(|w| w.vertices.count_ones() > 3) as usize;
        }
        assert!(cyclic > 200 && long_girth > 20, "{cyclic} cyclic, {long_girth} long");
    }
}
