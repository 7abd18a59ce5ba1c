//! k-Clique detection (Theorem 4.1, Hypotheses 6–8 context).
//!
//! * [`find_k_clique_backtracking`] — ordered backtracking with bitset
//!   neighborhood intersection: the O(n^k)-style combinatorial baseline
//!   (with strong practical pruning);
//! * [`find_k_clique_np`] — the Nešetřil–Poljak reduction: vertices of
//!   the derived graph are the `⌈k/3⌉`-ish cliques of `G`, edges join
//!   disjoint cliques whose union is again a clique, and triangles of the
//!   derived graph are exactly the k-cliques of `G` (proof of Thm 4.1);
//!   the triangle is then found by BMM. Runtime Õ(n^{ω⌈k/3⌉+i}).
//! * [`count_k_cliques`] — exact counting for ground truth.

use crate::graph::Graph;
use crate::triangle::find_triangle_bmm;

/// Find a k-clique by backtracking over vertices in increasing order,
/// maintaining the bitset of common neighbors. Returns the clique sorted
/// ascending.
pub fn find_k_clique_backtracking(g: &Graph, k: usize) -> Option<Vec<u32>> {
    assert!(k >= 1);
    if k == 1 {
        return if g.n() > 0 { Some(vec![0]) } else { None };
    }
    let bits = g.adjacency_bitsets();
    let words = g.n().div_ceil(64);
    let mut full = vec![u64::MAX; words];
    if !g.n().is_multiple_of(64) && words > 0 {
        full[words - 1] = (1u64 << (g.n() % 64)) - 1;
    }
    let mut chosen: Vec<u32> = Vec::with_capacity(k);

    fn rec(
        g: &Graph,
        bits: &[Vec<u64>],
        cands: &[u64],
        from: usize,
        k: usize,
        chosen: &mut Vec<u32>,
    ) -> bool {
        if chosen.len() == k {
            return true;
        }
        // remaining candidates must suffice
        let remaining: usize = cands.iter().map(|w| w.count_ones() as usize).sum();
        if remaining + chosen.len() < k {
            return false;
        }
        for v in from..g.n() {
            if cands[v / 64] >> (v % 64) & 1 == 0 {
                continue;
            }
            let mut next: Vec<u64> = cands.to_vec();
            for (w, b) in next.iter_mut().zip(&bits[v]) {
                *w &= b;
            }
            chosen.push(v as u32);
            if rec(g, bits, &next, v + 1, k, chosen) {
                return true;
            }
            chosen.pop();
        }
        false
    }

    if rec(g, &bits, &full, 0, k, &mut chosen) {
        Some(chosen)
    } else {
        None
    }
}

/// Split `k` into three nearly equal parts `r1 ≥ r2 ≥ r3 ≥ 1` (Thm 4.1's
/// `⌊k/3⌋` plus the remainder spread over the first parts).
pub fn np_split(k: usize) -> (usize, usize, usize) {
    assert!(k >= 3);
    let r = k / 3;
    match k % 3 {
        0 => (r, r, r),
        1 => (r + 1, r, r),
        _ => (r + 1, r + 1, r),
    }
}

/// All cliques of `g` of exactly `size` vertices (ascending within each).
pub fn enumerate_cliques(g: &Graph, size: usize) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut cur: Vec<u32> = Vec::with_capacity(size);
    fn rec(
        g: &Graph,
        size: usize,
        from: usize,
        cur: &mut Vec<u32>,
        out: &mut Vec<Vec<u32>>,
    ) {
        if cur.len() == size {
            out.push(cur.clone());
            return;
        }
        for v in from..g.n() {
            if cur.iter().all(|&u| g.has_edge(u as usize, v)) {
                cur.push(v as u32);
                rec(g, size, v + 1, cur, out);
                cur.pop();
            }
        }
    }
    rec(g, size, 0, &mut cur, &mut out);
    out
}

/// Nešetřil–Poljak k-clique via triangle detection (Theorem 4.1): build
/// the tripartite "clique graph" over the r₁-, r₂-, r₃-cliques of `G`
/// and look for a triangle with one vertex per part. Returns a k-clique
/// of `G` (sorted) if one exists.
pub fn find_k_clique_np(g: &Graph, k: usize) -> Option<Vec<u32>> {
    assert!(k >= 3);
    let (r1, r2, r3) = np_split(k);
    let parts: Vec<Vec<Vec<u32>>> = {
        let c1 = enumerate_cliques(g, r1);
        let c2 = if r2 == r1 { c1.clone() } else { enumerate_cliques(g, r2) };
        let c3 = if r3 == r2 { c2.clone() } else { enumerate_cliques(g, r3) };
        vec![c1, c2, c3]
    };
    let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
    if sizes.contains(&0) {
        return None;
    }
    let offset = [0usize, sizes[0], sizes[0] + sizes[1]];
    let total: usize = sizes.iter().sum();

    // joinable: disjoint and fully connected across
    let joinable = |a: &[u32], b: &[u32]| -> bool {
        for &x in a {
            for &y in b {
                if x == y || !g.has_edge(x as usize, y as usize) {
                    return false;
                }
            }
        }
        true
    };

    let mut edges: Vec<(u32, u32)> = Vec::new();
    for p in 0..3usize {
        let q = (p + 1) % 3;
        for (i, a) in parts[p].iter().enumerate() {
            for (j, b) in parts[q].iter().enumerate() {
                if joinable(a, b) {
                    edges.push(((offset[p] + i) as u32, (offset[q] + j) as u32));
                }
            }
        }
    }
    let derived = Graph::from_edges(total, edges);
    let (a, b, c) = find_triangle_bmm(&derived)?;
    // map back: each derived vertex belongs to a part
    let resolve = |v: u32| -> &Vec<u32> {
        let v = v as usize;
        if v < offset[1] {
            &parts[0][v]
        } else if v < offset[2] {
            &parts[1][v - offset[1]]
        } else {
            &parts[2][v - offset[2]]
        }
    };
    let mut clique: Vec<u32> = Vec::with_capacity(k);
    clique.extend_from_slice(resolve(a));
    clique.extend_from_slice(resolve(b));
    clique.extend_from_slice(resolve(c));
    clique.sort_unstable();
    clique.dedup();
    debug_assert_eq!(clique.len(), k);
    Some(clique)
}

/// Exact number of k-cliques (backtracking).
pub fn count_k_cliques(g: &Graph, k: usize) -> u64 {
    enumerate_cliques(g, k).len() as u64
}

/// Is `vs` a clique of `g` with the expected size (distinct vertices)?
pub fn is_clique(g: &Graph, vs: &[u32], k: usize) -> bool {
    if vs.len() != k {
        return false;
    }
    let mut sorted = vs.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() != k {
        return false;
    }
    for i in 0..vs.len() {
        for j in (i + 1)..vs.len() {
            if !g.has_edge(vs[i] as usize, vs[j] as usize) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn k5_plus_noise() -> Graph {
        let mut edges = vec![];
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        edges.push((5, 6));
        edges.push((6, 7));
        Graph::from_edges(8, edges)
    }

    #[test]
    fn np_split_cases() {
        assert_eq!(np_split(3), (1, 1, 1));
        assert_eq!(np_split(4), (2, 1, 1));
        assert_eq!(np_split(5), (2, 2, 1));
        assert_eq!(np_split(6), (2, 2, 2));
        assert_eq!(np_split(7), (3, 2, 2));
    }

    #[test]
    fn backtracking_finds_k5() {
        let g = k5_plus_noise();
        for k in 1..=5 {
            let c = find_k_clique_backtracking(&g, k).unwrap();
            assert!(is_clique(&g, &c, k), "k={k}: {c:?}");
        }
        assert!(find_k_clique_backtracking(&g, 6).is_none());
    }

    #[test]
    fn np_finds_k5() {
        let g = k5_plus_noise();
        for k in 3..=5 {
            let c = find_k_clique_np(&g, k).unwrap();
            assert!(is_clique(&g, &c, k), "k={k}: {c:?}");
        }
        assert!(find_k_clique_np(&g, 6).is_none());
    }

    #[test]
    fn np_matches_backtracking_on_random() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..15 {
            let g = Graph::random_gnp(18, 0.4 + 0.02 * (trial % 5) as f64, &mut rng);
            for k in 3..=6 {
                let bt = find_k_clique_backtracking(&g, k).is_some();
                let np = find_k_clique_np(&g, k).is_some();
                assert_eq!(bt, np, "trial={trial} k={k}");
            }
        }
    }

    #[test]
    fn count_matches_known_values() {
        // K5 has C(5,3)=10 triangles, C(5,4)=5 4-cliques, 1 5-clique.
        let g = k5_plus_noise();
        assert_eq!(count_k_cliques(&g, 3), 10);
        assert_eq!(count_k_cliques(&g, 4), 5);
        assert_eq!(count_k_cliques(&g, 5), 1);
        assert_eq!(count_k_cliques(&g, 6), 0);
    }

    #[test]
    fn triangle_free_graph_no_3clique() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = Graph::random_bipartite(30, 120, &mut rng);
        assert!(find_k_clique_backtracking(&g, 3).is_none());
        assert!(find_k_clique_np(&g, 3).is_none());
    }

    #[test]
    fn complete_multipartite_graphs_stop_one_short() {
        // complete (k−1)-partite: as dense as a K_k-free graph gets, the
        // detectors' worst "no"
        for k in 4..=6usize {
            let (per, n) = (3, 3 * (k - 1));
            let edges = (0..n)
                .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
                .filter(|(u, v)| u / per != v / per)
                .map(|(u, v)| (u as u32, v as u32));
            let g = Graph::from_edges(n, edges.collect::<Vec<_>>());
            assert!(find_k_clique_backtracking(&g, k).is_none(), "k={k}");
            assert!(find_k_clique_np(&g, k).is_none(), "k={k}");
            assert!(find_k_clique_np(&g, k - 1).is_some(), "k={k}");
        }
    }

    #[test]
    fn k1_k2_edge_cases() {
        let g = Graph::from_edges(3, vec![(0, 1)]);
        assert!(find_k_clique_backtracking(&g, 1).is_some());
        let c2 = find_k_clique_backtracking(&g, 2).unwrap();
        assert!(is_clique(&g, &c2, 2));
        let empty = Graph::from_edges(0, Vec::<(u32, u32)>::new());
        assert!(find_k_clique_backtracking(&empty, 1).is_none());
    }

    #[test]
    fn enumerate_cliques_sorted_distinct() {
        let g = k5_plus_noise();
        let cs = enumerate_cliques(&g, 3);
        for c in &cs {
            assert!(c.windows(2).all(|w| w[0] < w[1]));
            assert!(is_clique(&g, c, 3));
        }
    }
}
