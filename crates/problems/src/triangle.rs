//! Triangle detection (Hypothesis 2, Theorem 3.2).
//!
//! Four algorithms, spanning the paper's discussion:
//!
//! * [`find_triangle_edge_iterator`] — the classical combinatorial
//!   O(m^{3/2}) algorithm (intersect the sorted neighborhoods of every
//!   edge's endpoints, cheapest endpoint first);
//! * [`find_triangle_bmm`] — dense `A² ∧ A` via word-parallel BMM;
//! * [`find_triangle_ayz`] — the Alon–Yuster–Zwick degree split that
//!   Theorem 3.2's query algorithm is built on: light vertices are
//!   handled by neighborhood enumeration (cost m·Δ), the heavy-induced
//!   subgraph (≤ 2m/Δ vertices) by one dense BMM;
//! * [`count_triangles`] — exact counting, the ground truth in tests.

use crate::graph::Graph;
use cq_matrix::dense::multiply_rowwise;

/// Find a triangle by the edge-iterator method: for every edge `(u,v)`,
/// merge-intersect `N(u)` and `N(v)`. O(Σ_(u,v)∈E min(deg u, deg v)) ⊆
/// O(m^{3/2}).
pub fn find_triangle_edge_iterator(g: &Graph) -> Option<(u32, u32, u32)> {
    for (u, v) in g.edges() {
        let (nu, nv) = (g.neighbors(u as usize), g.neighbors(v as usize));
        // merge intersection
        let (mut i, mut j) = (0usize, 0usize);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return Some((u, v, nu[i])),
            }
        }
    }
    None
}

/// Triangle detection by Boolean matrix squaring: a triangle exists iff
/// `(A²) ∧ A` has a one-entry. Returns a witness triangle.
pub fn find_triangle_bmm(g: &Graph) -> Option<(u32, u32, u32)> {
    let a = g.adjacency_matrix();
    let sq = multiply_rowwise(&a, &a);
    for u in 0..g.n() {
        for &v in g.neighbors(u) {
            if sq.get(u, v as usize) {
                // find the middle vertex
                for &w in g.neighbors(u) {
                    if w != v && g.has_edge(w as usize, v as usize) {
                        return Some((u as u32, w, v));
                    }
                }
            }
        }
    }
    None
}

/// Alon–Yuster–Zwick degree-split triangle detection (the engine of
/// Theorem 3.2). `delta` is the light/heavy degree threshold; pass
/// `cq_matrix::omega::ayz_delta(m, ω)` for the theorem's balance point.
pub fn find_triangle_ayz(g: &Graph, delta: usize) -> Option<(u32, u32, u32)> {
    let delta = delta.max(1);
    // Phase 1: triangles containing a light vertex. For each light v,
    // check all pairs of its neighbors: cost Σ_light deg(v)² ≤ m·Δ.
    for v in 0..g.n() {
        if g.degree(v) > delta {
            continue;
        }
        let nb = g.neighbors(v);
        for i in 0..nb.len() {
            for j in (i + 1)..nb.len() {
                if g.has_edge(nb[i] as usize, nb[j] as usize) {
                    return Some((v as u32, nb[i], nb[j]));
                }
            }
        }
    }
    // Phase 2: all-heavy triangles by dense BMM on the heavy-induced
    // subgraph (at most 2m/Δ heavy vertices).
    let heavy: Vec<u32> =
        (0..g.n()).filter(|&v| g.degree(v) > delta).map(|v| v as u32).collect();
    if heavy.len() < 3 {
        return None;
    }
    let (hg, ids) = g.induced(&heavy);
    find_triangle_bmm(&hg)
        .map(|(a, b, c)| (ids[a as usize], ids[b as usize], ids[c as usize]))
}

/// Exact triangle count by the edge-iterator (each triangle counted once
/// per edge, divided by 3).
pub fn count_triangles(g: &Graph) -> u64 {
    let mut count = 0u64;
    for (u, v) in g.edges() {
        let (nu, nv) = (g.neighbors(u as usize), g.neighbors(v as usize));
        let (mut i, mut j) = (0usize, 0usize);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    count / 3
}

/// Is `(a, b, c)` a triangle of `g`?
pub fn is_triangle(g: &Graph, t: (u32, u32, u32)) -> bool {
    let (a, b, c) = (t.0 as usize, t.1 as usize, t.2 as usize);
    a != b && b != c && a != c && g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn triangle_graph() -> Graph {
        Graph::from_edges(5, vec![(0, 1), (1, 2), (2, 0), (3, 4)])
    }

    fn path_graph() -> Graph {
        Graph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn all_detectors_agree_on_basics() {
        let yes = triangle_graph();
        let no = path_graph();
        type Finder = fn(&Graph) -> Option<(u32, u32, u32)>;
        for (name, f) in [
            ("edge", find_triangle_edge_iterator as Finder),
            ("bmm", find_triangle_bmm as Finder),
        ] {
            let t = f(&yes).unwrap_or_else(|| panic!("{name} missed triangle"));
            assert!(is_triangle(&yes, t), "{name} returned non-triangle {t:?}");
            assert!(f(&no).is_none(), "{name} hallucinated");
        }
        for delta in [1usize, 2, 100] {
            let t = find_triangle_ayz(&yes, delta).unwrap();
            assert!(is_triangle(&yes, t), "ayz delta={delta}");
            assert!(find_triangle_ayz(&no, delta).is_none());
        }
    }

    #[test]
    fn detectors_agree_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let n = 30;
            let m = 20 + trial * 5;
            let g = Graph::random_gnm(n, m.min(n * (n - 1) / 2), &mut rng);
            let expected = count_triangles(&g) > 0;
            assert_eq!(find_triangle_edge_iterator(&g).is_some(), expected);
            assert_eq!(find_triangle_bmm(&g).is_some(), expected);
            for delta in [1usize, 3, 10, 1000] {
                assert_eq!(
                    find_triangle_ayz(&g, delta).is_some(),
                    expected,
                    "trial={trial} delta={delta}"
                );
            }
        }
    }

    #[test]
    fn witnesses_are_real_triangles() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = Graph::random_gnp(40, 0.2, &mut rng);
        if let Some(t) = find_triangle_edge_iterator(&g) {
            assert!(is_triangle(&g, t));
        }
        if let Some(t) = find_triangle_ayz(&g, 4) {
            assert!(is_triangle(&g, t));
        }
        if let Some(t) = find_triangle_bmm(&g) {
            assert!(is_triangle(&g, t));
        }
    }

    #[test]
    fn counting_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Graph::random_gnp(15, 0.4, &mut rng);
        let mut brute = 0u64;
        for a in 0..15 {
            for b in (a + 1)..15 {
                for c in (b + 1)..15 {
                    if g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c) {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(count_triangles(&g), brute);
    }

    #[test]
    fn bipartite_always_triangle_free() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = Graph::random_bipartite(30, 100, &mut rng);
        assert_eq!(count_triangles(&g), 0);
        assert!(find_triangle_edge_iterator(&g).is_none());
        assert!(find_triangle_bmm(&g).is_none());
        assert!(find_triangle_ayz(&g, 5).is_none());
    }

    #[test]
    fn heavy_only_triangle_found() {
        // K4: with delta=1 every vertex is heavy → exercises phase 2.
        let g =
            Graph::from_edges(4, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let t = find_triangle_ayz(&g, 1).unwrap();
        assert!(is_triangle(&g, t));
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Graph::from_edges(0, Vec::<(u32, u32)>::new());
        assert!(find_triangle_edge_iterator(&g).is_none());
        assert!(find_triangle_bmm(&g).is_none());
        assert!(find_triangle_ayz(&g, 2).is_none());
        let g1 = Graph::from_edges(2, vec![(0, 1)]);
        assert!(find_triangle_ayz(&g1, 2).is_none());
    }
}
