//! The AGM bound: fractional edge cover numbers (paper §2.1).
//!
//! For a join query with hypergraph `H`, the AGM bound says
//! `|q(D)| ≤ m^{ρ*(H)}` where `ρ*` is the *fractional edge cover
//! number* — the optimum of the LP
//!
//! ```text
//! minimize   Σ_e x_e
//! subject to Σ_{e ∋ v} x_e ≥ 1   for every vertex v
//!            x_e ≥ 0
//! ```
//!
//! and worst-case optimal join algorithms run in Õ(m^{ρ*}). We solve the
//! LP exactly (queries are tiny) through its dual — the fractional
//! independent set LP `max Σ_v y_v  s.t. Σ_{v ∈ e} y_v ≤ 1, y ≥ 0` —
//! with a dense tableau simplex using Bland's rule. By LP duality both
//! optima coincide, and the dual is immediately feasible at `y = 0`,
//! so no phase-1 is needed.
//!
//! `ρ*(triangle) = 3/2` is the `m^{3/2}` of §3.1.1;
//! `ρ*(q^LW_k) = 1 + 1/(k−1)` is Example 3.4's exponent;
//! `ρ*(C_k) = k/2` is the cycle bound behind §4.2.

use crate::hypergraph::{mask_vertices, Hypergraph};

/// Numerical tolerance for the simplex.
const EPS: f64 = 1e-9;

/// Maximize `1ᵀy` subject to `Ay ≤ 1`, `y ≥ 0`, by tableau simplex with
/// Bland's rule (anti-cycling). `a[r]` is row `r` of `A`. Returns the
/// optimum (the problem is always bounded here: every variable appears
/// in some constraint row with coefficient 1 for query hypergraphs
/// without isolated vertices; unbounded inputs return `f64::INFINITY`).
fn simplex_max_ones(a: &[Vec<f64>], n_vars: usize) -> f64 {
    let m = a.len();
    // tableau: columns = n_vars original + m slacks + 1 rhs; rows = m + objective
    let cols = n_vars + m + 1;
    let mut t = vec![vec![0.0f64; cols]; m + 1];
    for (r, row) in a.iter().enumerate() {
        assert_eq!(row.len(), n_vars);
        t[r][..n_vars].copy_from_slice(row);
        t[r][n_vars + r] = 1.0; // slack
        t[r][cols - 1] = 1.0; // rhs
    }
    // objective row: maximize Σ y  ⇒ row = -1 for each y (standard form)
    for cell in t[m].iter_mut().take(n_vars) {
        *cell = -1.0;
    }
    let mut basis: Vec<usize> = (n_vars..n_vars + m).collect();

    // entering: first column with negative objective coefficient (Bland)
    while let Some(enter) = (0..cols - 1).find(|&c| t[m][c] < -EPS) {
        // leaving: min ratio, ties by smallest basis index (Bland)
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..m {
            if t[r][enter] > EPS {
                let ratio = t[r][cols - 1] / t[r][enter];
                let better = ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leave.is_some_and(|l| basis[r] < basis[l]));
                if better {
                    best_ratio = ratio;
                    leave = Some(r);
                }
            }
        }
        let leave = match leave {
            Some(r) => r,
            None => return f64::INFINITY, // unbounded
        };
        // pivot
        let piv = t[leave][enter];
        for cell in t[leave].iter_mut().take(cols) {
            *cell /= piv;
        }
        let pivot_row = t[leave].clone();
        for (r, row) in t.iter_mut().enumerate().take(m + 1) {
            if r != leave {
                let f = row[enter];
                if f.abs() > EPS {
                    for (cell, &p) in row.iter_mut().zip(&pivot_row) {
                        *cell -= f * p;
                    }
                }
            }
        }
        basis[leave] = enter;
    }
    t[m][cols - 1]
}

/// The fractional edge cover number `ρ*(H)` — the AGM exponent of the
/// join query with hypergraph `H`.
///
/// Vertices covered by no edge make the cover infeasible; for such
/// hypergraphs (impossible for well-formed queries) the result is
/// `f64::INFINITY`.
pub fn fractional_edge_cover_number(h: &Hypergraph) -> f64 {
    let covered = h.covered_mask();
    let verts: Vec<usize> = mask_vertices(h.vertices_mask()).collect();
    if verts.iter().any(|&v| covered & (1u64 << v) == 0) {
        return f64::INFINITY;
    }
    if verts.is_empty() {
        return 0.0;
    }
    // dual variables: one per (covered) vertex; constraints: one per edge
    let vert_index: Vec<usize> = verts.clone();
    let edges = h.maximal_edges();
    if edges.is_empty() {
        return 0.0;
    }
    let a: Vec<Vec<f64>> = edges
        .iter()
        .map(|&e| {
            vert_index
                .iter()
                .map(|&v| if e & (1u64 << v) != 0 { 1.0 } else { 0.0 })
                .collect()
        })
        .collect();
    simplex_max_ones(&a, vert_index.len())
}

/// The AGM exponent ρ* of a query: finite, since the query builder
/// rejects a variable that no atom contains.
pub fn agm_exponent(q: &crate::ConjunctiveQuery) -> f64 {
    let rho = fractional_edge_cover_number(&q.hypergraph());
    debug_assert!(rho.is_finite(), "{q} has a variable in no atom");
    rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::mask_of;
    use crate::query::zoo;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn triangle_is_three_halves() {
        let rho = fractional_edge_cover_number(&zoo::triangle_boolean().hypergraph());
        assert!(close(rho, 1.5), "ρ*(triangle) = {rho}");
    }

    #[test]
    fn cycles_are_k_over_two() {
        for k in [4usize, 5, 6, 7] {
            let rho = fractional_edge_cover_number(&zoo::cycle_boolean(k).hypergraph());
            assert!(close(rho, k as f64 / 2.0), "ρ*(C{k}) = {rho}");
        }
    }

    #[test]
    fn loomis_whitney_exponent() {
        // Example 3.4: ρ*(q^LW_k) = 1 + 1/(k−1) (uniform weight 1/(k−1))
        for k in [3usize, 4, 5, 6] {
            let rho = fractional_edge_cover_number(
                &zoo::loomis_whitney_boolean(k).hypergraph(),
            );
            assert!(close(rho, 1.0 + 1.0 / (k as f64 - 1.0)), "ρ*(LW_{k}) = {rho}");
        }
    }

    #[test]
    fn paths_forced_endpoints() {
        // path with k edges: endpoints force their edges to 1
        assert!(close(
            fractional_edge_cover_number(&zoo::path_join(2).hypergraph()),
            2.0
        ));
        assert!(close(
            fractional_edge_cover_number(&zoo::path_join(3).hypergraph()),
            2.0
        ));
        assert!(close(
            fractional_edge_cover_number(&zoo::path_join(4).hypergraph()),
            3.0
        ));
    }

    #[test]
    fn stars_need_every_edge() {
        for k in [2usize, 3, 5] {
            let rho =
                fractional_edge_cover_number(&zoo::star_selfjoin_free(k).hypergraph());
            assert!(close(rho, k as f64), "ρ*(star_{k}) = {rho}");
        }
    }

    #[test]
    fn clique_queries_are_k_over_two() {
        for k in [3usize, 4, 5] {
            let rho = fractional_edge_cover_number(&zoo::clique_join(k).hypergraph());
            assert!(close(rho, k as f64 / 2.0), "ρ*(K{k}) = {rho}");
        }
    }

    #[test]
    fn single_covering_atom_is_one() {
        let h = Hypergraph::new(4, vec![mask_of(&[0, 1, 2, 3])]);
        assert!(close(fractional_edge_cover_number(&h), 1.0));
        // subsumed edges don't change it
        let h2 = h.with_edge(mask_of(&[0, 1]));
        assert!(close(fractional_edge_cover_number(&h2), 1.0));
    }

    #[test]
    fn isolated_vertex_infeasible() {
        let h = Hypergraph::new(3, vec![mask_of(&[0, 1])]);
        assert_eq!(fractional_edge_cover_number(&h), f64::INFINITY);
        assert!(close(agm_exponent(&zoo::triangle_join()), 1.5));
    }

    #[test]
    fn fractional_at_most_integral_cover() {
        use crate::cover::min_edge_cover;
        for q in [
            zoo::triangle_boolean(),
            zoo::cycle_boolean(5),
            zoo::loomis_whitney_boolean(4),
            zoo::path_join(4),
            zoo::star_selfjoin_free(3),
        ] {
            let h = q.hypergraph();
            let rho = fractional_edge_cover_number(&h);
            assert!(
                rho <= min_edge_cover(&h) as f64 + 1e-9,
                "{q}: ρ* = {rho} > integral cover"
            );
            // and at least n / max-edge-size
            let max_edge = h.edges().iter().map(|e| e.count_ones()).max().unwrap() as f64;
            assert!(rho + 1e-9 >= h.n_vertices() as f64 / max_edge, "{q}");
        }
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::new(0, vec![]);
        assert!(close(fractional_edge_cover_number(&h), 0.0));
    }
}
