//! Order statistics and the log–log fit.

/// Samples a tail percentile needs before it is reported: below this a
/// p99 has fewer than ten samples beyond it and is noise.
pub const P99_MIN_SAMPLES: usize = 1000;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1).
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median of unsorted values (mean of the middle two when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// p50 always; p99 only from [`P99_MIN_SAMPLES`] samples up.
pub fn p50_p99(values: &mut [f64]) -> (Option<f64>, Option<f64>) {
    sort(values);
    let p99 =
        if values.len() >= P99_MIN_SAMPLES { percentile(values, 0.99) } else { None };
    (percentile(values, 0.50), p99)
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the driver's rule), so the
/// spread this benchmark reports about itself is the one it is judged by.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile distance as a share of the median; 0 for fewer than
/// two values (a single run has no spread to report).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, _, q3)) => {
            let med = median(values).unwrap_or(0.0);
            if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            }
        }
        None => 0.0,
    }
}

/// `t ≈ constant · m^exponent`, least squares in log–log space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fit {
    pub exponent: f64,
    /// In the time unit of the input (the callers pass nanoseconds).
    pub constant: f64,
    /// Worst ratio between an observed point and the fitted line, taken
    /// the larger way round (≥ 1); a cell that falls off the plan's
    /// curve shows here even though least squares bends towards it.
    pub residual_max: f64,
}

pub fn loglog_fit(points: &[(f64, f64)]) -> Option<Fit> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(m, t)| *m > 0.0 && *t > 0.0)
        .map(|(m, t)| (m.ln(), t.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let exponent = sxy / sxx;
    let intercept = my - exponent * mx;
    let residual_max = pts
        .iter()
        .map(|(x, y)| (y - (intercept + exponent * x)).abs().exp())
        .fold(1.0, f64::max);
    Some(Fit { exponent, constant: intercept.exp(), residual_max })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let mut few: Vec<f64> = (0..999).map(f64::from).collect();
        let (p50, p99) = p50_p99(&mut few);
        assert_eq!(p50, Some(499.0));
        assert_eq!(p99, None);
        let mut enough: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let (p50, p99) = p50_p99(&mut enough);
        assert_eq!(p50, Some(499.0));
        assert_eq!(p99, Some(989.0));
        assert_eq!(p50_p99(&mut []), (None, None));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 0.5), Some(2.0));
        assert_eq!(percentile(&v, 0.75), Some(3.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 20, 40, 45, 100], n=4) == [15.0, 40.0, 72.5]
        assert_eq!(quartiles(&[100.0, 10.0, 45.0, 20.0, 40.0]), Some((15.0, 40.0, 72.5)));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn fit_recovers_a_planted_exponent() {
        // t = 7 ns · m^1.5, with ±3 % multiplicative jitter
        let jitter = [1.03, 0.97, 1.02, 0.98];
        let pts: Vec<(f64, f64)> = [4000.0, 8000.0, 16000.0, 32000.0]
            .iter()
            .zip(jitter)
            .map(|(&m, j): (&f64, f64)| (m, 7.0 * m.powf(1.5) * j))
            .collect();
        let fit = loglog_fit(&pts).unwrap();
        assert!((fit.exponent - 1.5).abs() < 0.05, "{fit:?}");
        assert!((fit.constant / 7.0 - 1.0).abs() < 0.5, "{fit:?}");
        assert!(fit.residual_max < 1.1, "{fit:?}");
    }

    #[test]
    fn a_cell_off_the_curve_shows_in_the_residual() {
        // linear but for one 400x cliff at m = 4000
        let pts = [(1000.0, 1e6), (2000.0, 2e6), (4000.0, 1.6e9), (8000.0, 8e6)];
        let fit = loglog_fit(&pts).unwrap();
        assert!(fit.residual_max > 20.0, "{fit:?}");
        assert!(loglog_fit(&[(1000.0, 5.0)]).is_none());
        assert!(loglog_fit(&[(1000.0, 5.0), (1000.0, 6.0)]).is_none());
    }
}
