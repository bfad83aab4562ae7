//! Summary statistics used by the evaluation harness.
//!
//! The paper reports a Pearson correlation between BLEU and win rate
//! (ρ ≈ 0.47 with a vanishing p-value), R² of the accuracy-prediction
//! models, and mean metric values over document collections. This module
//! implements those statistics from scratch (no external stats crate).

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Pearson correlation coefficient of two equally-long samples.
///
/// Returns `0.0` when either sample is constant or the lengths differ.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    if x.len() != y.len() || x.len() < 2 {
        return 0.0;
    }
    let mx = mean(x);
    let my = mean(y);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&a, &b) in x.iter().zip(y.iter()) {
        cov += (a - mx) * (b - my);
        vx += (a - mx) * (a - mx);
        vy += (b - my) * (b - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        0.0
    } else {
        (cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0)
    }
}

/// Coefficient of determination of predictions against observations.
///
/// `R² = 1 − SS_res / SS_tot`; can be negative when predictions are worse
/// than predicting the mean. Returns `0.0` for degenerate inputs.
pub fn r_squared(predicted: &[f64], observed: &[f64]) -> f64 {
    if predicted.len() != observed.len() || observed.len() < 2 {
        return 0.0;
    }
    let m = mean(observed);
    let ss_tot: f64 = observed.iter().map(|y| (y - m) * (y - m)).sum();
    if ss_tot <= 0.0 {
        return 0.0;
    }
    let ss_res: f64 = predicted.iter().zip(observed.iter()).map(|(p, y)| (y - p) * (y - p)).sum();
    1.0 - ss_res / ss_tot
}

/// Two-sided p-value for the null hypothesis ρ = 0, using the t-statistic
/// `t = r·sqrt((n−2)/(1−r²))` and a normal approximation to the t
/// distribution (adequate for the large n used in the paper's study).
pub fn correlation_p_value(r: f64, n: usize) -> f64 {
    if n < 3 || r.abs() >= 1.0 {
        return if r.abs() >= 1.0 && n >= 3 { 0.0 } else { 1.0 };
    }
    let dof = (n - 2) as f64;
    let t = r * (dof / (1.0 - r * r)).sqrt();
    2.0 * (1.0 - standard_normal_cdf(t.abs()))
}

/// Standard normal cumulative distribution function via the Abramowitz &
/// Stegun erf approximation (absolute error < 1.5e-7).
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function approximation (Abramowitz & Stegun 7.1.26).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let a1 = 0.254829592;
    let a2 = -0.284496736;
    let a3 = 1.421413741;
    let a4 = -1.453152027;
    let a5 = 1.061405429;
    let p = 0.3275911;
    let t = 1.0 / (1.0 + p * x);
    let y = 1.0 - (((((a5 * t + a4) * t) + a3) * t + a2) * t + a1) * t * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_a_sample() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0, 6.0]), 4.0);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y_pos = [2.0, 4.0, 6.0, 8.0];
        let y_neg = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&x, &y_pos) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &y_neg) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[1.0, 1.0, 1.0, 1.0]), 0.0);
        assert_eq!(pearson(&x, &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn r_squared_behaviour() {
        let obs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((r_squared(&obs, &obs) - 1.0).abs() < 1e-12);
        let mean_pred = [3.0; 5];
        assert!(r_squared(&mean_pred, &obs).abs() < 1e-12);
        let bad = [10.0, -3.0, 8.0, 0.0, 99.0];
        assert!(r_squared(&bad, &obs) < 0.0);
    }

    #[test]
    fn p_value_decreases_with_sample_size() {
        let p_small = correlation_p_value(0.47, 10);
        let p_large = correlation_p_value(0.47, 2000);
        assert!(p_large < p_small);
        assert!(p_large < 1e-6);
        assert_eq!(correlation_p_value(0.9, 2), 1.0);
    }

    #[test]
    fn normal_cdf_sanity() {
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!(standard_normal_cdf(3.0) > 0.998);
        assert!(standard_normal_cdf(-3.0) < 0.002);
        assert!((erf(0.0)).abs() < 1e-6);
    }
}
