//! 3SUM (Hypothesis 5, §3.4.2).
//!
//! Given lists `A`, `B`, `C` of `n` integers in `{−n⁴, …, n⁴}`: decide
//! whether there are `a ∈ A`, `b ∈ B`, `c ∈ C` with `a + b = c`. The
//! paper's easy Õ(n²) algorithm ([`three_sum_sorted`]) is implemented,
//! plus the cubic reference; the 3SUM Hypothesis says the quadratic one
//! is essentially optimal, which is what makes sum-order direct access
//! hard (Lemma 3.25).

use rand::rngs::StdRng;
use rand::Rng;

/// A 3SUM instance.
#[derive(Clone, Debug)]
pub struct ThreeSumInstance {
    pub a: Vec<i64>,
    pub b: Vec<i64>,
    pub c: Vec<i64>,
}

impl ThreeSumInstance {
    /// Random instance with values in `±bound`; if `plant`, force a
    /// solution by appending `c = a₀ + b₀`.
    pub fn random(n: usize, bound: i64, plant: bool, rng: &mut StdRng) -> Self {
        assert!(n >= 1 && bound >= 1);
        let gen = |rng: &mut StdRng| -> Vec<i64> {
            (0..n).map(|_| rng.gen_range(-bound..=bound)).collect()
        };
        let a = gen(rng);
        let b = gen(rng);
        let mut c = gen(rng);
        if plant {
            let i = rng.gen_range(0..n);
            let j = rng.gen_range(0..n);
            let k = rng.gen_range(0..n);
            c[k] = a[i] + b[j];
        }
        ThreeSumInstance { a, b, c }
    }

    /// Instance size n (max list length).
    pub fn n(&self) -> usize {
        self.a.len().max(self.b.len()).max(self.c.len())
    }
}

/// A witness `(a, b, c)` with `a + b = c`.
pub type Witness = (i64, i64, i64);

/// Cubic reference algorithm.
pub fn three_sum_naive(inst: &ThreeSumInstance) -> Option<Witness> {
    for &a in &inst.a {
        for &b in &inst.b {
            for &c in &inst.c {
                if a + b == c {
                    return Some((a, b, c));
                }
            }
        }
    }
    None
}

/// The paper's Õ(n²) algorithm: sort `A` and `B`; for each target
/// `c ∈ C`, sweep two pointers (A ascending, B descending) looking for
/// `a + b = c` in linear time per target.
pub fn three_sum_sorted(inst: &ThreeSumInstance) -> Option<Witness> {
    if inst.a.is_empty() || inst.b.is_empty() {
        return None;
    }
    let mut a = inst.a.clone();
    let mut b = inst.b.clone();
    a.sort_unstable();
    b.sort_unstable();
    for &c in &inst.c {
        let mut i = 0usize;
        let mut j = b.len();
        while i < a.len() && j > 0 {
            let s = a[i] + b[j - 1];
            match s.cmp(&c) {
                std::cmp::Ordering::Equal => return Some((a[i], b[j - 1], c)),
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j -= 1,
            }
        }
    }
    None
}

/// Validate a witness against the instance.
pub fn check_witness(inst: &ThreeSumInstance, w: Witness) -> bool {
    let (a, b, c) = w;
    a + b == c && inst.a.contains(&a) && inst.b.contains(&b) && inst.c.contains(&c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn planted_instances_found_by_all() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let inst = ThreeSumInstance::random(40, 1000, true, &mut rng);
            for (name, f) in [
                ("naive", three_sum_naive as fn(&ThreeSumInstance) -> Option<Witness>),
                ("sorted", three_sum_sorted as fn(&ThreeSumInstance) -> Option<Witness>),
            ] {
                let w =
                    f(&inst).unwrap_or_else(|| panic!("{name} missed planted solution"));
                assert!(check_witness(&inst, w), "{name} returned bad witness");
            }
        }
    }

    #[test]
    fn algorithms_agree_on_random() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let inst = ThreeSumInstance::random(25, 50, false, &mut rng);
            let expected = three_sum_naive(&inst).is_some();
            assert_eq!(three_sum_sorted(&inst).is_some(), expected);
        }
    }

    #[test]
    fn no_solution_case() {
        // all of C far below any a + b
        let inst =
            ThreeSumInstance { a: vec![100, 200], b: vec![300, 400], c: vec![0, 1, 2] };
        assert!(three_sum_naive(&inst).is_none());
        assert!(three_sum_sorted(&inst).is_none());
    }

    #[test]
    fn negatives_handled() {
        let inst = ThreeSumInstance { a: vec![-5], b: vec![3], c: vec![-2] };
        assert!(three_sum_sorted(&inst).is_some());
    }

    #[test]
    fn duplicate_values_fine() {
        let inst = ThreeSumInstance { a: vec![1, 1, 1], b: vec![1, 1], c: vec![2] };
        let w = three_sum_sorted(&inst).unwrap();
        assert!(check_witness(&inst, w));
    }

    #[test]
    fn empty_lists() {
        let inst = ThreeSumInstance { a: vec![], b: vec![1], c: vec![1] };
        assert!(three_sum_sorted(&inst).is_none());
        assert!(three_sum_naive(&inst).is_none());
    }
}
