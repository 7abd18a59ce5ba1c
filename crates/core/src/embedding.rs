//! Clique embeddings (paper §4.2, after Fan–Koutris–Zhao).
//!
//! A clique embedding `ψ: K_ℓ → H` assigns to every vertex `x_i` of the
//! ℓ-clique a non-empty, connected set `ψ(x_i)` of vertices of the query
//! hypergraph `H`, such that every two clique vertices *touch*: their
//! images share a vertex, or some edge of `H` intersects both images.
//!
//! Given such an embedding, a graph `G` is encoded into a database for
//! the query such that query answers correspond to ℓ-cliques of `G`
//! (the executable encoding lives in `cq-reductions`). The size of the
//! relation for edge `e` is `n^{wed(e)}` where `wed(e)` — the *weak edge
//! depth* — counts the clique vertices whose image intersects `e`. The
//! resulting conditional lower bound for the query is
//! `m^{ℓ / max_e wed(e) − ε}` under the corresponding clique hypothesis
//! (Example 4.3); `ℓ / max_e wed(e)` is the embedding's *power*.
//!
//! [`k5_into_c5`] is the worked Example 4.2 / **Figure 1** of the paper,
//! and [`render_figure1`] reprints the figure from the data structure.

use crate::hypergraph::Hypergraph;

/// A clique embedding ψ from `K_ℓ` into a hypergraph.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CliqueEmbedding {
    /// `psi[i]` = image of clique vertex `x_{i+1}` as a vertex bitmask.
    pub psi: Vec<u64>,
}

/// Why an embedding is invalid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EmbeddingError {
    /// Some image is empty.
    EmptyImage(usize),
    /// Some image is not connected in the hypergraph.
    DisconnectedImage(usize),
    /// Two images neither intersect nor are joined by an edge.
    NotTouching(usize, usize),
}

impl CliqueEmbedding {
    /// The clique size ℓ.
    pub fn clique_size(&self) -> usize {
        self.psi.len()
    }

    /// Validate properties (1) and (2) of §4.2 against `h`.
    pub fn validate(&self, h: &Hypergraph) -> Result<(), EmbeddingError> {
        for (i, &img) in self.psi.iter().enumerate() {
            if img == 0 {
                return Err(EmbeddingError::EmptyImage(i));
            }
            if !h.is_connected_within(img) {
                return Err(EmbeddingError::DisconnectedImage(i));
            }
        }
        for i in 0..self.psi.len() {
            for j in (i + 1)..self.psi.len() {
                let (a, b) = (self.psi[i], self.psi[j]);
                let touching =
                    a & b != 0 || h.edges().iter().any(|&e| e & a != 0 && e & b != 0);
                if !touching {
                    return Err(EmbeddingError::NotTouching(i, j));
                }
            }
        }
        Ok(())
    }

    /// Weak edge depth of edge `e`: number of clique vertices whose image
    /// intersects `e`. Determines the relation size `n^{wed(e)}` in the
    /// reduction.
    pub fn weak_edge_depth(&self, e: u64) -> usize {
        self.psi.iter().filter(|&&img| img & e != 0).count()
    }

    /// Maximum weak edge depth over the hypergraph's edges.
    pub fn max_weak_edge_depth(&self, h: &Hypergraph) -> usize {
        h.edges().iter().map(|&e| self.weak_edge_depth(e)).max().unwrap_or(0)
    }

    /// The embedding power `ℓ / max_e wed(e)`: aggregation over the query
    /// cannot run in `m^{power − ε}` under the matching clique hypothesis
    /// (Example 4.3).
    pub fn power(&self, h: &Hypergraph) -> f64 {
        self.clique_size() as f64 / self.max_weak_edge_depth(h) as f64
    }
}

/// The embedding of `K_ℓ` into the `k`-cycle by windows of length
/// `(k+1)/2` (odd `k = ℓ`), generalizing Example 4.2. Cycle vertices are
/// `0..k`; clique vertex `x_{i+1}` maps to the window
/// `{v_i, v_{i+1}, ..., v_{i+(k−1)/2}}` (indices mod k).
///
/// For `k = 5` this is exactly the paper's Example 4.2 / Figure 1.
pub fn clique_into_cycle(k: usize) -> (Hypergraph, CliqueEmbedding) {
    assert!(k >= 3 && k % 2 == 1, "window embedding requires odd k ≥ 3");
    let edges: Vec<u64> = (0..k).map(|i| (1u64 << i) | (1u64 << ((i + 1) % k))).collect();
    let h = Hypergraph::new(k, edges);
    let w = k.div_ceil(2);
    let psi: Vec<u64> = (0..k)
        .map(|start| (0..w).fold(0u64, |m, d| m | (1u64 << ((start + d) % k))))
        .collect();
    (h, CliqueEmbedding { psi })
}

/// Example 4.2: the 5-clique into the 5-cycle query `q◦_5`.
pub fn k5_into_c5() -> (Hypergraph, CliqueEmbedding) {
    clique_into_cycle(5)
}

/// Reprint Figure 1 of the paper from the embedding data: each cycle node
/// annotated with the clique vertices mapped to it.
pub fn render_figure1() -> String {
    let (h, emb) = k5_into_c5();
    debug_assert!(emb.validate(&h).is_ok());
    let mut lines = Vec::new();
    lines.push("Figure 1: embedding of K5 into the 5-cycle query q°5".to_string());
    lines.push(String::new());
    for v in 0..5 {
        let xs: Vec<String> = (0..5)
            .filter(|&i| emb.psi[i] & (1u64 << v) != 0)
            .map(|i| format!("x{}", i + 1))
            .collect();
        lines.push(format!("  v{}: {}", v + 1, xs.join(", ")));
    }
    lines.push(String::new());
    lines.push(format!(
        "  max weak edge depth = {} (database size O(n^{})), clique size = 5, power = {}",
        emb.max_weak_edge_depth(&h),
        emb.max_weak_edge_depth(&h),
        emb.power(&h)
    ));
    lines.join("\n")
}

/// The trivial embedding of `K_ℓ` into the ℓ-clique query `q_ℓ`
/// (one clique vertex per query variable), used to sanity-check the
/// machinery: its power is ℓ/2 on the binary-edge clique query.
pub fn identity_embedding(l: usize) -> (Hypergraph, CliqueEmbedding) {
    assert!(l >= 2);
    let mut edges = Vec::new();
    for i in 0..l {
        for j in (i + 1)..l {
            edges.push((1u64 << i) | (1u64 << j));
        }
    }
    let h = Hypergraph::new(l, edges);
    let psi = (0..l).map(|i| 1u64 << i).collect();
    (h, CliqueEmbedding { psi })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::mask_of;

    #[test]
    fn figure1_embedding_matches_paper() {
        let (h, emb) = k5_into_c5();
        emb.validate(&h).unwrap();
        // ψ(x1) = {v1, v2, v3} — zero-based {0,1,2}, etc.
        assert_eq!(emb.psi[0], mask_of(&[0, 1, 2]));
        assert_eq!(emb.psi[1], mask_of(&[1, 2, 3]));
        assert_eq!(emb.psi[2], mask_of(&[2, 3, 4]));
        assert_eq!(emb.psi[3], mask_of(&[3, 4, 0]));
        assert_eq!(emb.psi[4], mask_of(&[4, 0, 1]));
    }

    #[test]
    fn figure1_weak_edge_depth_is_four() {
        // "exactly 4 variables are mapped to every edge, so the database
        // has size O(n^4)" (Example 4.3).
        let (h, emb) = k5_into_c5();
        for &e in h.edges() {
            assert_eq!(emb.weak_edge_depth(e), 4);
        }
        assert_eq!(emb.max_weak_edge_depth(&h), 4);
        assert!((emb.power(&h) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn window_embeddings_valid_for_odd_cycles() {
        for k in [3usize, 5, 7, 9, 11] {
            let (h, emb) = clique_into_cycle(k);
            emb.validate(&h).unwrap();
            // power = 2k/(k+3)
            let expect = 2.0 * k as f64 / (k as f64 + 3.0);
            assert!((emb.power(&h) - expect).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn identity_embedding_valid() {
        let (h, emb) = identity_embedding(4);
        emb.validate(&h).unwrap();
        assert_eq!(emb.max_weak_edge_depth(&h), 2);
        assert!((emb.power(&h) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_embeddings_rejected() {
        let (h, mut emb) = k5_into_c5();
        emb.psi[0] = 0;
        assert_eq!(emb.validate(&h), Err(EmbeddingError::EmptyImage(0)));

        let (h, mut emb) = k5_into_c5();
        emb.psi[0] = mask_of(&[0, 2]); // v1 and v3 not adjacent in C5
        assert_eq!(emb.validate(&h), Err(EmbeddingError::DisconnectedImage(0)));

        // two singleton images on opposite sides of a path, no touching
        let h = Hypergraph::new(3, vec![mask_of(&[0, 1]), mask_of(&[1, 2])]);
        let emb = CliqueEmbedding { psi: vec![mask_of(&[0]), mask_of(&[2])] };
        assert_eq!(emb.validate(&h), Err(EmbeddingError::NotTouching(0, 1)));
    }

    #[test]
    fn touching_via_edge_counts() {
        let h = Hypergraph::new(2, vec![mask_of(&[0, 1])]);
        let emb = CliqueEmbedding { psi: vec![mask_of(&[0]), mask_of(&[1])] };
        emb.validate(&h).unwrap();
    }

    #[test]
    fn figure1_render_mentions_all_nodes() {
        let s = render_figure1();
        for v in 1..=5 {
            assert!(s.contains(&format!("v{v}:")), "{s}");
        }
        assert!(s.contains("power = 1.25"));
    }
}
