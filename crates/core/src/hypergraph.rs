//! Hypergraphs of conjunctive queries.
//!
//! Vertices are `0..n` (query variables); edges are vertex sets stored as
//! `u64` bitmasks (queries have ≤ 64 variables, enforced by
//! [`crate::QueryBuilder`]). All structural algorithms of the paper —
//! GYO reduction, acyclicity, free-connexness, Brault-Baron witnesses,
//! star size — operate on this type.

use std::fmt;

/// A hypergraph with vertex set `0..n` and edges as bitmasks.
///
/// Edges may repeat and may be subsets of one another (as happens for
/// queries with repeated or subsumed atom scopes); the algorithms handle
/// this. The empty hypergraph (no vertices, no edges) is acyclic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Hypergraph {
    n: usize,
    edges: Vec<u64>,
}

impl Hypergraph {
    /// Create a hypergraph on `n ≤ 64` vertices with the given edges.
    ///
    /// # Panics
    /// If `n > 64` or an edge mentions a vertex `≥ n`.
    pub fn new(n: usize, edges: Vec<u64>) -> Self {
        assert!(n <= 64, "hypergraphs support at most 64 vertices");
        let all = Self::full_mask(n);
        for (i, &e) in edges.iter().enumerate() {
            assert_eq!(e & !all, 0, "edge {i} mentions vertices outside 0..{n}");
        }
        Hypergraph { n, edges }
    }

    /// Bitmask of all `n` vertices.
    pub fn full_mask(n: usize) -> u64 {
        if n == 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// The edges as bitmasks.
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Mask of all vertices.
    pub fn vertices_mask(&self) -> u64 {
        Self::full_mask(self.n)
    }

    /// Mask of vertices covered by at least one edge.
    pub fn covered_mask(&self) -> u64 {
        self.edges.iter().fold(0, |m, &e| m | e)
    }

    /// Add an edge, returning the new hypergraph.
    pub fn with_edge(&self, e: u64) -> Hypergraph {
        assert_eq!(e & !self.vertices_mask(), 0);
        let mut g = self.clone();
        g.edges.push(e);
        g
    }

    /// All vertices adjacent to `v` (sharing an edge with it), as a mask
    /// *including* `v` itself if `v` occurs in any edge.
    pub fn closed_neighborhood(&self, v: usize) -> u64 {
        let vm = 1u64 << v;
        self.edges.iter().filter(|&&e| e & vm != 0).fold(0, |m, &e| m | e)
    }

    /// Do vertices `a` and `b` co-occur in some edge?
    pub fn adjacent(&self, a: usize, b: usize) -> bool {
        let m = (1u64 << a) | (1u64 << b);
        self.edges.iter().any(|&e| e & m == m)
    }

    /// The sub-hypergraph induced by the vertex set `s` (a mask): each edge
    /// is intersected with `s`; empty intersections are dropped; duplicate
    /// induced edges are dropped.
    pub fn induced(&self, s: u64) -> Hypergraph {
        let mut edges: Vec<u64> =
            self.edges.iter().map(|&e| e & s).filter(|&e| e != 0).collect();
        edges.sort_unstable();
        edges.dedup();
        Hypergraph { n: self.n, edges }
    }

    /// Remove edges that are strictly or equally contained in another edge
    /// (keeping one copy of each maximal edge).
    pub fn maximal_edges(&self) -> Vec<u64> {
        let mut es = self.edges.clone();
        es.sort_unstable_by_key(|e| std::cmp::Reverse(e.count_ones()));
        let mut out: Vec<u64> = Vec::with_capacity(es.len());
        for e in es {
            if !out.iter().any(|&f| e & !f == 0) {
                out.push(e);
            }
        }
        out
    }

    /// Connected components of the vertex set `within` (a mask), where two
    /// vertices are connected if some edge contains both. Vertices of
    /// `within` not covered by any edge form singleton components.
    pub fn components(&self, within: u64) -> Vec<u64> {
        let mut remaining = within;
        let mut comps = Vec::new();
        while remaining != 0 {
            let seed = remaining & remaining.wrapping_neg(); // lowest bit
            let mut comp = seed;
            loop {
                let mut grew = comp;
                for &e in &self.edges {
                    let es = e & within;
                    if es & comp != 0 {
                        grew |= es;
                    }
                }
                if grew == comp {
                    break;
                }
                comp = grew;
            }
            comps.push(comp);
            remaining &= !comp;
        }
        comps
    }

    /// Is the vertex set `s` connected (via edges restricted to `s`)?
    /// The empty set and singletons are connected.
    pub fn is_connected_within(&self, s: u64) -> bool {
        if s == 0 {
            return true;
        }
        self.components(s).len() == 1
    }

    /// Is the hypergraph acyclic (α-acyclic), per the GYO characterization
    /// in the paper §2.1?
    pub fn is_acyclic(&self) -> bool {
        crate::gyo::gyo_reduce(self).is_acyclic
    }

    /// Is the (sub-)hypergraph induced by `s`, after removing subsumed
    /// edges, exactly a graph cycle on the vertices of `s`?
    ///
    /// Used for Brault-Baron witnesses (Theorem 3.6): “the induced
    /// hypergraph `H[S]` is a cycle”.
    pub fn induced_is_cycle(&self, s: u64) -> bool {
        let k = s.count_ones() as usize;
        if k < 3 {
            return false;
        }
        let ind = self.induced(s);
        let maximal = ind.maximal_edges();
        // A cycle on k vertices has exactly k edges, all of size 2, and
        // every vertex has degree exactly 2, and it is connected.
        if maximal.len() != k {
            return false;
        }
        if !maximal.iter().all(|e| e.count_ones() == 2) {
            return false;
        }
        let mut v = s;
        while v != 0 {
            let bit = v & v.wrapping_neg();
            let deg = maximal.iter().filter(|&&e| e & bit != 0).count();
            if deg != 2 {
                return false;
            }
            v &= !bit;
        }
        Hypergraph { n: self.n, edges: maximal }.is_connected_within(s)
    }

    /// Does the sub-hypergraph induced by `s` become a `(|s|−1)`-uniform
    /// hyperclique after deleting edges completely contained in other
    /// edges (Theorem 3.6, second witness kind)?
    ///
    /// A `(k−1)`-uniform hyperclique on `k` vertices contains *all*
    /// `(k−1)`-subsets of `s` as edges.
    pub fn induced_is_near_uniform_hyperclique(&self, s: u64) -> bool {
        let k = s.count_ones() as usize;
        if k < 3 {
            return false;
        }
        let ind = self.induced(s);
        let maximal = ind.maximal_edges();
        if !maximal.iter().all(|e| e.count_ones() as usize == k - 1) {
            return false;
        }
        // all (k-1)-subsets of s must be present: these are s minus one bit.
        let mut v = s;
        while v != 0 {
            let bit = v & v.wrapping_neg();
            let subset = s & !bit;
            if !maximal.contains(&subset) {
                return false;
            }
            v &= !bit;
        }
        true
    }
}

impl fmt::Display for Hypergraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H(V=0..{}, E={{", self.n)?;
        for (i, &e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{{")?;
            let mut first = true;
            let mut m = e;
            while m != 0 {
                let v = m.trailing_zeros();
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{v}")?;
                first = false;
                m &= m - 1;
            }
            write!(f, "}}")?;
        }
        write!(f, "}})")
    }
}

/// Convenience: mask from a list of vertex indices.
pub fn mask_of(vs: &[usize]) -> u64 {
    vs.iter().fold(0u64, |m, &v| {
        assert!(v < 64);
        m | (1u64 << v)
    })
}

/// Iterate the vertex indices of a mask in increasing order.
pub fn mask_vertices(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if m == 0 {
            None
        } else {
            let v = m.trailing_zeros() as usize;
            m &= m - 1;
            Some(v)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::zoo;

    fn triangle() -> Hypergraph {
        Hypergraph::new(3, vec![mask_of(&[0, 1]), mask_of(&[1, 2]), mask_of(&[2, 0])])
    }

    #[test]
    fn masks() {
        assert_eq!(mask_of(&[0, 2]), 0b101);
        assert_eq!(mask_vertices(0b1011).collect::<Vec<_>>(), vec![0, 1, 3]);
        assert_eq!(Hypergraph::full_mask(0), 0);
        assert_eq!(Hypergraph::full_mask(64), u64::MAX);
    }

    #[test]
    fn adjacency_and_neighborhood() {
        let h = triangle();
        assert!(h.adjacent(0, 1));
        assert!(h.adjacent(1, 2));
        assert_eq!(h.closed_neighborhood(0), mask_of(&[0, 1, 2]));
    }

    #[test]
    fn components_basic() {
        // two disjoint edges
        let h = Hypergraph::new(4, vec![mask_of(&[0, 1]), mask_of(&[2, 3])]);
        let comps = h.components(h.vertices_mask());
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&mask_of(&[0, 1])));
        assert!(comps.contains(&mask_of(&[2, 3])));
        assert!(h.is_connected_within(mask_of(&[0, 1])));
        assert!(!h.is_connected_within(mask_of(&[0, 2])));
    }

    #[test]
    fn isolated_vertices_are_singleton_components() {
        let h = Hypergraph::new(3, vec![mask_of(&[0, 1])]);
        let comps = h.components(h.vertices_mask());
        assert_eq!(comps.len(), 2);
        assert!(comps.contains(&mask_of(&[2])));
    }

    #[test]
    fn induced_and_maximal() {
        let h = triangle();
        let ind = h.induced(mask_of(&[0, 1]));
        // edges {0,1}, {1}, {0} → maximal: just {0,1}
        assert_eq!(ind.maximal_edges(), vec![mask_of(&[0, 1])]);
    }

    #[test]
    fn triangle_is_cycle_witness() {
        let h = triangle();
        assert!(h.induced_is_cycle(mask_of(&[0, 1, 2])));
        assert!(!h.induced_is_cycle(mask_of(&[0, 1])));
        // triangle = 2-uniform hyperclique on 3 vertices too
        assert!(h.induced_is_near_uniform_hyperclique(mask_of(&[0, 1, 2])));
    }

    #[test]
    fn lw_is_hyperclique_not_cycle() {
        let q = zoo::loomis_whitney_boolean(4);
        let h = q.hypergraph();
        let all = h.vertices_mask();
        assert!(h.induced_is_near_uniform_hyperclique(all));
        assert!(!h.induced_is_cycle(all));
    }

    #[test]
    fn path_not_cycle() {
        let q = zoo::path_boolean(3);
        let h = q.hypergraph();
        assert!(!h.induced_is_cycle(h.vertices_mask()));
        assert!(h.is_acyclic());
    }

    #[test]
    fn acyclicity_examples() {
        assert!(!triangle().is_acyclic());
        assert!(zoo::star_selfjoin(3).hypergraph().is_acyclic());
        assert!(zoo::path_join(5).hypergraph().is_acyclic());
        assert!(!zoo::cycle_boolean(5).hypergraph().is_acyclic());
        assert!(!zoo::loomis_whitney_boolean(4).hypergraph().is_acyclic());
        // LW_3 is the triangle's hypergraph? No: LW_3 has edges of size 2:
        // {x2,x3}, {x1,x3}, {x1,x2} — exactly a triangle, cyclic.
        assert!(!zoo::loomis_whitney_boolean(3).hypergraph().is_acyclic());
    }

    #[test]
    fn display_readable() {
        let h = Hypergraph::new(2, vec![mask_of(&[0, 1])]);
        assert_eq!(h.to_string(), "H(V=0..2, E={{0,1}})");
    }

    #[test]
    #[should_panic]
    fn edge_out_of_range_panics() {
        Hypergraph::new(2, vec![mask_of(&[0, 5])]);
    }
}
