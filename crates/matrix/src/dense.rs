//! Dense Boolean matrix multiplication.
//!
//! Over the Boolean semiring, `C[i][j] = ⋁_k A[i][k] ∧ B[k][j]`
//! (paper §2.3). Two implementations with different constants:
//!
//! * [`multiply_naive`] — bit-at-a-time O(n³), the correctness reference;
//! * [`multiply_rowwise`] — for every 1 in `A`'s row, OR the matching row
//!   of `B` into the output row: O(n³ / 64) word-parallel, what triangle
//!   BMM and the heavy part of the sparse product run.

use crate::bitmat::BitMatrix;

/// Reference O(n³) multiply, one bit at a time. Use only in tests.
pub fn multiply_naive(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
    assert_eq!(a.cols(), b.rows(), "dimension mismatch");
    let mut c = BitMatrix::zero(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut v = false;
            for k in 0..a.cols() {
                if a.get(i, k) && b.get(k, j) {
                    v = true;
                    break;
                }
            }
            if v {
                c.set(i, j, true);
            }
        }
    }
    c
}

/// Word-parallel multiply: for each set bit `k` of `A`'s row `i`, OR row
/// `k` of `B` into row `i` of the result. O(n²·(n/64)) worst case, and
/// output-sensitive in the ones of `A`.
pub fn multiply_rowwise(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
    assert_eq!(a.cols(), b.rows(), "dimension mismatch");
    let mut c = BitMatrix::zero(a.rows(), b.cols());
    for i in 0..a.rows() {
        for (wi, &w) in a.row_words(i).iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let k = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                c.or_row_from(i, b, k);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random(n: usize, seed: u64, d: f64) -> BitMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        BitMatrix::random(n, n, d, &mut rng)
    }

    #[test]
    fn rowwise_matches_naive() {
        for n in [1usize, 7, 64, 65, 100] {
            let a = random(n, n as u64, 0.1);
            let b = random(n, n as u64 + 1, 0.1);
            assert_eq!(multiply_rowwise(&a, &b), multiply_naive(&a, &b), "n={n}");
        }
    }

    #[test]
    fn rectangular_multiply() {
        let mut a = BitMatrix::zero(2, 3);
        a.set(0, 1, true);
        let mut b = BitMatrix::zero(3, 4);
        b.set(1, 3, true);
        let c = multiply_rowwise(&a, &b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 4);
        assert!(c.get(0, 3));
        assert_eq!(c.count_ones(), 1);
    }

    #[test]
    fn identity_is_neutral() {
        let a = random(50, 9, 0.2);
        let id = BitMatrix::identity(50);
        assert_eq!(multiply_rowwise(&a, &id), a);
        assert_eq!(multiply_rowwise(&id, &a), a);
    }

    #[test]
    fn square_triangle_detection() {
        // path 0-1-2: A² has (0,2) via 1, but A ∧ A² empty → no triangle
        let path = BitMatrix::from_entries(3, 3, &[(0, 1), (1, 0), (1, 2), (2, 1)]);
        let sq = multiply_rowwise(&path, &path);
        assert!(sq.get(0, 2));
        // triangle 0-1-2-0: A ∧ A² nonzero
        let tri = BitMatrix::from_entries(
            3,
            3,
            &[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)],
        );
        assert!(multiply_rowwise(&tri, &tri).intersects(&tri));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let a = BitMatrix::zero(2, 3);
        let b = BitMatrix::zero(4, 2);
        let _ = multiply_rowwise(&a, &b);
    }
}
