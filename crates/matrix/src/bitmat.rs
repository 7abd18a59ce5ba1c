//! Dense Boolean matrices, one bit per entry.

use rand::rngs::StdRng;
use rand::Rng;

/// A dense `rows × cols` Boolean matrix stored row-major, 64 entries per
/// word.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// All-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        BitMatrix { rows, cols, words_per_row, bits: vec![0; rows * words_per_row] }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Random matrix where each entry is 1 with probability `density`.
    pub fn random(rows: usize, cols: usize, density: f64, rng: &mut StdRng) -> Self {
        let mut m = Self::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if rng.gen_bool(density) {
                    m.set(i, j, true);
                }
            }
        }
        m
    }

    /// Build from a list of (row, col) one-entries.
    pub fn from_entries(rows: usize, cols: usize, entries: &[(usize, usize)]) -> Self {
        let mut m = Self::zero(rows, cols);
        for &(i, j) in entries {
            m.set(i, j, true);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Get entry (i, j).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        debug_assert!(i < self.rows && j < self.cols);
        let w = self.bits[i * self.words_per_row + j / 64];
        (w >> (j % 64)) & 1 == 1
    }

    /// Set entry (i, j).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: bool) {
        debug_assert!(i < self.rows && j < self.cols);
        let w = &mut self.bits[i * self.words_per_row + j / 64];
        if v {
            *w |= 1u64 << (j % 64);
        } else {
            *w &= !(1u64 << (j % 64));
        }
    }

    /// The words of row `i`.
    #[inline]
    pub fn row_words(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// OR `src`'s row words into row `i` (both matrices must have the same
    /// column count).
    #[inline]
    pub fn or_row_from(&mut self, i: usize, src: &BitMatrix, src_row: usize) {
        debug_assert_eq!(self.cols, src.cols);
        let dst = &mut self.bits[i * self.words_per_row..(i + 1) * self.words_per_row];
        let s = &src.bits[src_row * src.words_per_row..(src_row + 1) * src.words_per_row];
        for (d, &w) in dst.iter_mut().zip(s) {
            *d |= w;
        }
    }

    /// Number of one-entries.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Column indices of the ones in row `i`, ascending.
    pub fn row_ones(&self, i: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for (wi, &w) in self.row_words(i).iter().enumerate() {
            let mut w = w;
            while w != 0 {
                out.push(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> BitMatrix {
        let mut t = BitMatrix::zero(self.cols, self.rows);
        for i in 0..self.rows {
            for j in self.row_ones(i) {
                t.set(j, i, true);
            }
        }
        t
    }

    /// Is any entry set?
    pub fn any(&self) -> bool {
        self.bits.iter().any(|&w| w != 0)
    }

    /// Does this matrix intersect `other` anywhere (entrywise AND ≠ 0)?
    pub fn intersects(&self, other: &BitMatrix) -> bool {
        debug_assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.bits.iter().zip(&other.bits).any(|(&a, &b)| a & b != 0)
    }

    /// List of (row, col) one-entries, row-major order.
    pub fn entries(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.count_ones());
        for i in 0..self.rows {
            for j in self.row_ones(i) {
                out.push((i, j));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn set_get_roundtrip() {
        let mut m = BitMatrix::zero(3, 130); // multi-word rows
        m.set(1, 100, true);
        m.set(2, 63, true);
        m.set(2, 64, true);
        assert!(m.get(1, 100));
        assert!(!m.get(1, 99));
        assert!(m.get(2, 63) && m.get(2, 64));
        m.set(1, 100, false);
        assert!(!m.get(1, 100));
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn identity_and_transpose() {
        let id = BitMatrix::identity(10);
        assert_eq!(id.count_ones(), 10);
        assert_eq!(id.transpose(), id);
        let mut m = BitMatrix::zero(2, 3);
        m.set(0, 2, true);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert!(t.get(2, 0));
    }

    #[test]
    fn row_ones_ascending() {
        let mut m = BitMatrix::zero(1, 200);
        for j in [5usize, 64, 65, 190] {
            m.set(0, j, true);
        }
        assert_eq!(m.row_ones(0), vec![5, 64, 65, 190]);
    }

    #[test]
    fn or_row_from_merges() {
        let mut a = BitMatrix::zero(2, 70);
        a.set(0, 69, true);
        let mut b = BitMatrix::zero(2, 70);
        b.set(1, 3, true);
        a.or_row_from(0, &b, 1);
        assert!(a.get(0, 3) && a.get(0, 69));
    }

    #[test]
    fn random_density() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = BitMatrix::random(100, 100, 0.3, &mut rng);
        let ones = m.count_ones();
        assert!((2000..4000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn entries_roundtrip() {
        let entries = vec![(0, 1), (2, 2), (1, 0)];
        let m = BitMatrix::from_entries(3, 3, &entries);
        let mut got = m.entries();
        got.sort_unstable();
        let mut want = entries;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn any_and_intersects() {
        let z = BitMatrix::zero(2, 2);
        assert!(!z.any());
        let id = BitMatrix::identity(2);
        assert!(id.any());
        assert!(!z.intersects(&id));
        assert!(id.intersects(&id));
    }
}
