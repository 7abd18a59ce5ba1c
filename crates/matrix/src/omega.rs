//! The exponent arithmetic the ω-parameterized claims need.
//!
//! [`fit_exponent`] is the log–log regression every scaling check uses
//! (over deterministic work counters in `tests/`, over wall-clock in
//! `examples/`); [`ayz_delta`] is the degree threshold
//! Δ = m^{(ω−1)/(ω+1)} of Thm 3.2's proof. The ω is the caller's: the
//! word-parallel multiply here is Θ(n³/64), so ω = 3 is its asymptotic
//! value and anything lower is a statement about the constant at the
//! sizes at hand.

/// Least-squares slope of `log y` against `log x` — the fitted runtime
/// exponent of a size sweep. Returns `None` with fewer than two points or
/// non-positive values.
pub fn fit_exponent(points: &[(f64, f64)]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    if points.iter().any(|&(x, y)| x <= 0.0 || y <= 0.0) {
        return None;
    }
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let lx = x.ln();
        let ly = y.ln();
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

/// The AYZ degree threshold `Δ = m^{(ω−1)/(ω+1)}` (proof of Thm 3.2),
/// instantiated with the caller's ω.
pub fn ayz_delta(m: usize, omega_eff: f64) -> usize {
    let exp = (omega_eff - 1.0) / (omega_eff + 1.0);
    ((m as f64).powf(exp).round() as usize).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_known_slope() {
        let pts: Vec<(f64, f64)> =
            (1..10).map(|i| (i as f64, (i as f64).powi(3) * 2.0)).collect();
        let e = fit_exponent(&pts).unwrap();
        assert!((e - 3.0).abs() < 1e-9, "e={e}");
    }

    #[test]
    fn fit_rejects_degenerate() {
        assert!(fit_exponent(&[]).is_none());
        assert!(fit_exponent(&[(1.0, 1.0)]).is_none());
        assert!(fit_exponent(&[(1.0, 0.0), (2.0, 1.0)]).is_none());
        assert!(fit_exponent(&[(2.0, 1.0), (2.0, 5.0)]).is_none());
    }

    #[test]
    fn ayz_formulas_at_known_omegas() {
        // ω = 2 → Δ = m^{1/3}; ω = 3 → Δ = m^{1/2}
        assert_eq!(ayz_delta(1_000_000, 2.0), 100);
        assert_eq!(ayz_delta(1_000_000, 3.0), 1000);
    }
}
