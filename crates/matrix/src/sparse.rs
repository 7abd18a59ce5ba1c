//! Sparse Boolean matrix multiplication (paper §2.3, Hypothesis 1).
//!
//! Runtime here is measured in `m` = non-zeros of inputs + output. The
//! crate provides:
//!
//! * [`spgemm`] — classical row-wise SpGEMM with a sparse accumulator:
//!   O(flops) where flops = Σ_k deg_out_A(k)·deg_in_B(k), up to m² in the
//!   worst case;
//! * [`spgemm_heavy_light`] — the output-sensitive degree-split
//!   algorithm: *light* middle indices (min degree ≤ Δ) go through the
//!   accumulator at cost O(m·Δ); *heavy* middle indices (both degrees
//!   exceeding Δ; at most 2m/Δ of them) are compacted and handled by one
//!   dense word-parallel product. With Δ ≈ m^{1/3} the shape is the
//!   m^{4/3} bound the Sparse BMM Hypothesis conjectures optimal (paper
//!   §2.3: "the general belief … is that O(m^{4/3}) can likely not be
//!   beaten").

use crate::bitmat::BitMatrix;
use crate::dense::multiply_rowwise;

/// A sparse Boolean matrix in CSR-like form: per-row sorted column lists.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SparseBoolMat {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<Vec<u32>>,
}

impl SparseBoolMat {
    /// Build from (row, col) entries (deduplicated).
    pub fn from_entries(
        n_rows: usize,
        n_cols: usize,
        entries: impl IntoIterator<Item = (u32, u32)>,
    ) -> Self {
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n_rows];
        for (r, c) in entries {
            assert!((r as usize) < n_rows && (c as usize) < n_cols);
            rows[r as usize].push(c);
        }
        for r in rows.iter_mut() {
            r.sort_unstable();
            r.dedup();
        }
        SparseBoolMat { n_rows, n_cols, rows }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Sorted column indices of row `r`.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.rows[r]
    }

    /// Number of non-zeros.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// All (row, col) entries in row-major order.
    pub fn entries(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.nnz());
        for (r, cols) in self.rows.iter().enumerate() {
            for &c in cols {
                out.push((r as u32, c));
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> SparseBoolMat {
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); self.n_cols];
        for (r, cols) in self.rows.iter().enumerate() {
            for &c in cols {
                rows[c as usize].push(r as u32);
            }
        }
        // already sorted because we sweep rows in order
        SparseBoolMat { n_rows: self.n_cols, n_cols: self.n_rows, rows }
    }

    /// Column degrees (number of non-zeros per column).
    pub fn col_degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.n_cols];
        for cols in &self.rows {
            for &c in cols {
                deg[c as usize] += 1;
            }
        }
        deg
    }

    /// Densify (for testing / the heavy part of the split).
    pub fn to_dense(&self) -> BitMatrix {
        let mut m = BitMatrix::zero(self.n_rows, self.n_cols);
        for (r, cols) in self.rows.iter().enumerate() {
            for &c in cols {
                m.set(r, c as usize, true);
            }
        }
        m
    }

    /// From a dense matrix.
    pub fn from_dense(m: &BitMatrix) -> Self {
        Self::from_entries(
            m.rows(),
            m.cols(),
            m.entries().into_iter().map(|(r, c)| (r as u32, c as u32)),
        )
    }
}

/// Row-wise SpGEMM with a sparse accumulator (dense `seen` array reused
/// across rows + touched list, so each row costs its flops, not n).
pub fn spgemm(a: &SparseBoolMat, b: &SparseBoolMat) -> SparseBoolMat {
    assert_eq!(a.n_cols, b.n_rows, "dimension mismatch");
    let mut seen = vec![false; b.n_cols];
    let mut touched: Vec<u32> = Vec::new();
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); a.n_rows];
    for (i, arow) in a.rows.iter().enumerate() {
        for &k in arow {
            for &j in &b.rows[k as usize] {
                if !seen[j as usize] {
                    seen[j as usize] = true;
                    touched.push(j);
                }
            }
        }
        touched.sort_unstable();
        rows[i] = touched.clone();
        for &j in &touched {
            seen[j as usize] = false;
        }
        touched.clear();
    }
    SparseBoolMat { n_rows: a.n_rows, n_cols: b.n_cols, rows }
}

/// Work done by each side of the heavy/light multiply.
#[derive(Clone, Copy, Debug, Default)]
pub struct HeavyLightStats {
    /// Middle indices routed to the light (join) side.
    pub light_indices: usize,
    /// Middle indices routed to the heavy (dense) side.
    pub heavy_indices: usize,
    /// Flops spent in the light side.
    pub light_flops: usize,
}

/// Output-sensitive sparse BMM by degree splitting.
///
/// A middle index `k` is *light* if `min(deg_A-col(k), deg_B-row(k)) ≤ Δ`;
/// light indices are processed by the accumulator at total cost
/// `O(Δ·(nnz A + nnz B))`. The remaining heavy indices number at most
/// `(nnz A + nnz B)/Δ`; they are compacted and multiplied densely. With
/// `Δ = m^{1/3}` and the word-parallel dense multiply, the total is the
/// m^{4/3}-shaped bound of Hypothesis 1 (exactly the structure of the
/// AYZ argument in Thm 3.2).
pub fn spgemm_heavy_light(
    a: &SparseBoolMat,
    b: &SparseBoolMat,
    delta: usize,
) -> (SparseBoolMat, HeavyLightStats) {
    assert_eq!(a.n_cols, b.n_rows, "dimension mismatch");
    assert!(delta >= 1);
    let deg_a_col = a.col_degrees(); // out-degree of middle index in A
    let deg_b_row: Vec<u32> = b.rows.iter().map(|r| r.len() as u32).collect();

    let mut stats = HeavyLightStats::default();

    // --- light side ---
    // For middle index k light by B (deg_B ≤ Δ): every pair (i,k)∈A,
    // (k,j)∈B costs one op; iterate A's entries and expand via B.
    // For k light by A only: iterate B's entries and expand via A^T.
    let at = a.transpose(); // rows of A^T = columns of A
    let mut out_rows: Vec<Vec<u32>> = vec![Vec::new(); a.n_rows];
    let mut heavy: Vec<u32> = Vec::new();
    for k in 0..a.n_cols {
        let da = deg_a_col[k] as usize;
        let db = deg_b_row[k] as usize;
        if da == 0 || db == 0 {
            continue;
        }
        if da.min(db) <= delta {
            stats.light_indices += 1;
            stats.light_flops += da * db;
            for &i in &at.rows[k] {
                for &j in &b.rows[k] {
                    // duplicate suppression happens at the end; rows stay
                    // small because flops are bounded
                    out_rows[i as usize].push(j);
                }
            }
        } else {
            heavy.push(k as u32);
        }
    }
    stats.heavy_indices = heavy.len();

    // --- heavy side: compact and densify ---
    if !heavy.is_empty() {
        let h = heavy.len();
        let mut heavy_pos = vec![u32::MAX; a.n_cols];
        for (p, &k) in heavy.iter().enumerate() {
            heavy_pos[k as usize] = p as u32;
        }
        // A restricted to heavy columns: n_rows × h
        let mut ah = BitMatrix::zero(a.n_rows, h);
        for (i, arow) in a.rows.iter().enumerate() {
            for &k in arow {
                let p = heavy_pos[k as usize];
                if p != u32::MAX {
                    ah.set(i, p as usize, true);
                }
            }
        }
        // B restricted to heavy rows: h × n_cols
        let mut bh = BitMatrix::zero(h, b.n_cols);
        for (p, &k) in heavy.iter().enumerate() {
            for &j in &b.rows[k as usize] {
                bh.set(p, j as usize, true);
            }
        }
        let ch = multiply_rowwise(&ah, &bh);
        for (i, out_row) in out_rows.iter_mut().enumerate().take(a.n_rows) {
            for j in ch.row_ones(i) {
                out_row.push(j as u32);
            }
        }
    }

    // dedup rows
    for row in out_rows.iter_mut() {
        row.sort_unstable();
        row.dedup();
    }
    (SparseBoolMat { n_rows: a.n_rows, n_cols: b.n_cols, rows: out_rows }, stats)
}

/// The Δ used by default for inputs with `m` total non-zeros: `m^{1/3}`,
/// the balance point when the dense side behaves quadratically in its
/// dimension (ω → 2 word-parallel regime).
pub fn default_delta(m: usize) -> usize {
    ((m as f64).powf(1.0 / 3.0).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sparse(n: usize, m: usize, seed: u64) -> SparseBoolMat {
        let mut rng = StdRng::seed_from_u64(seed);
        let entries: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        SparseBoolMat::from_entries(n, n, entries)
    }

    #[test]
    fn dense_roundtrip() {
        let s = random_sparse(50, 200, 1);
        assert_eq!(SparseBoolMat::from_dense(&s.to_dense()), s);
    }

    #[test]
    fn transpose_involution() {
        let s = random_sparse(30, 100, 2);
        assert_eq!(s.transpose().transpose(), s);
    }

    #[test]
    fn spgemm_matches_dense() {
        for seed in 0..5u64 {
            let a = random_sparse(40, 120, seed);
            let b = random_sparse(40, 120, seed + 100);
            let want = SparseBoolMat::from_dense(&multiply_rowwise(
                &a.to_dense(),
                &b.to_dense(),
            ));
            assert_eq!(spgemm(&a, &b), want, "seed={seed}");
        }
    }

    #[test]
    fn heavy_light_matches_spgemm() {
        for seed in 0..5u64 {
            let a = random_sparse(60, 400, seed);
            let b = random_sparse(60, 400, seed + 7);
            let want = spgemm(&a, &b);
            for delta in [1usize, 2, 5, 100] {
                let (got, _) = spgemm_heavy_light(&a, &b, delta);
                assert_eq!(got, want, "seed={seed} delta={delta}");
            }
        }
    }

    #[test]
    fn heavy_light_routes_hub_to_dense() {
        // star: middle index 0 has degree n on both sides → heavy for
        // small delta.
        let n = 50;
        let a = SparseBoolMat::from_entries(n, n, (0..n as u32).map(|i| (i, 0)));
        let b = SparseBoolMat::from_entries(n, n, (0..n as u32).map(|j| (0, j)));
        let (c, stats) = spgemm_heavy_light(&a, &b, 3);
        assert_eq!(stats.heavy_indices, 1);
        assert_eq!(stats.light_indices, 0);
        assert_eq!(c.nnz(), n * n);
    }

    #[test]
    fn light_side_flops_bounded() {
        let a = random_sparse(100, 500, 11);
        let b = random_sparse(100, 500, 12);
        let delta = 4;
        let (_, stats) = spgemm_heavy_light(&a, &b, delta);
        // Σ_light da·db ≤ Δ·Σ max(da,db) ≤ Δ·(nnzA + nnzB)
        assert!(stats.light_flops <= delta * (a.nnz() + b.nnz()));
        // a heavy index has da, db > Δ, and the degrees sum to the nnz
        assert!(stats.heavy_indices > 0, "Δ = {delta} must split this input");
        assert!(stats.heavy_indices <= (a.nnz() + b.nnz()) / delta);
    }

    #[test]
    fn rectangular_spgemm() {
        let a = SparseBoolMat::from_entries(2, 3, [(0u32, 1u32), (1, 2)]);
        let b = SparseBoolMat::from_entries(3, 4, [(1u32, 3u32), (2, 0)]);
        let c = spgemm(&a, &b);
        assert_eq!(c.entries(), vec![(0, 3), (1, 0)]);
    }

    #[test]
    fn default_delta_scaling() {
        assert_eq!(default_delta(1), 1);
        assert_eq!(default_delta(1000), 10);
        assert_eq!(default_delta(1_000_000), 100);
    }

    #[test]
    fn empty_matrices() {
        let a = SparseBoolMat::from_entries(5, 5, std::iter::empty());
        let b = random_sparse(5, 10, 3);
        assert_eq!(spgemm(&a, &b).nnz(), 0);
        let (c, _) = spgemm_heavy_light(&a, &b, 2);
        assert_eq!(c.nnz(), 0);
    }
}
