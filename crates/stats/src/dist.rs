//! Probability distributions with CDFs and quantile functions.
//!
//! The ANOVA F-tests and t-based confidence intervals in the
//! *Diversify!* pipeline reduce to evaluations of the three distributions
//! defined here.

use crate::error::StatsError;
use crate::special::{erf, inc_beta, ln_gamma};

/// A univariate continuous distribution.
///
/// The trait is deliberately minimal: the assessment pipeline only needs
/// densities, CDFs and quantiles.
pub trait Distribution {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;
    /// Cumulative distribution function at `x`.
    fn cdf(&self, x: f64) -> f64;
    /// Quantile (inverse CDF) at probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    fn quantile(&self, p: f64) -> f64;
}

/// Generic bisection-based quantile inversion for a monotone CDF.
///
/// Used by distributions without a closed-form inverse. Accurate to ~1e-10
/// which is far below Monte-Carlo noise in the experiments.
fn invert_cdf<F: Fn(f64) -> f64>(cdf: F, p: f64, mut lo: f64, mut hi: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    // Expand the bracket until it contains the target probability.
    let mut guard = 0;
    while cdf(hi) < p {
        hi *= 2.0;
        guard += 1;
        assert!(guard < 200, "quantile bracket expansion failed (hi)");
    }
    guard = 0;
    while cdf(lo) > p {
        lo = if lo > 0.0 { lo / 2.0 } else { lo * 2.0 - 1.0 };
        guard += 1;
        assert!(guard < 200, "quantile bracket expansion failed (lo)");
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if cdf(mid) < p {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo).abs() < 1e-12 * (1.0 + hi.abs()) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// The normal (Gaussian) distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `sd` is not strictly
    /// positive or either parameter is non-finite.
    pub fn new(mean: f64, sd: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() || !sd.is_finite() || sd <= 0.0 {
            return Err(StatsError::InvalidParameter {
                what: "normal requires finite mean and sd > 0",
            });
        }
        Ok(Normal { mean, sd })
    }

    /// The standard normal N(0, 1).
    #[must_use]
    pub fn standard() -> Self {
        Normal { mean: 0.0, sd: 1.0 }
    }

    /// The mean parameter.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard-deviation parameter.
    #[must_use]
    pub fn sd(&self) -> f64 {
        self.sd
    }
}

impl Distribution for Normal {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.sd;
        (-0.5 * z * z).exp() / (self.sd * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.sd * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        // Acklam's rational approximation, then one Newton refinement.
        let x = acklam_inverse_normal(p);
        let refined = x - (self.cdf_std(x) - p) / std_normal_pdf(x);
        self.mean + self.sd * refined
    }
}

impl Normal {
    fn cdf_std(&self, z: f64) -> f64 {
        0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
    }
}

fn std_normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Acklam's inverse-normal approximation (relative error < 1.15e-9).
fn acklam_inverse_normal(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Student's t distribution with `df` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    df: f64,
}

impl StudentT {
    /// Creates a Student-t distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `df <= 0` or non-finite.
    pub fn new(df: f64) -> Result<Self, StatsError> {
        if !df.is_finite() || df <= 0.0 {
            return Err(StatsError::InvalidParameter {
                what: "student-t requires df > 0",
            });
        }
        Ok(StudentT { df })
    }

    /// Degrees of freedom.
    #[must_use]
    pub fn df(&self) -> f64 {
        self.df
    }
}

impl Distribution for StudentT {
    fn pdf(&self, x: f64) -> f64 {
        let v = self.df;
        let ln = ln_gamma((v + 1.0) / 2.0)
            - ln_gamma(v / 2.0)
            - 0.5 * (v * std::f64::consts::PI).ln()
            - ((v + 1.0) / 2.0) * (1.0 + x * x / v).ln();
        ln.exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        let v = self.df;
        if x == 0.0 {
            return 0.5;
        }
        let ib = inc_beta(v / (v + x * x), v / 2.0, 0.5);
        if x > 0.0 {
            1.0 - 0.5 * ib
        } else {
            0.5 * ib
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        if (p - 0.5).abs() < 1e-16 {
            return 0.0;
        }
        invert_cdf(|x| self.cdf(x), p, -1.0, 1.0)
    }
}

/// Fisher's F distribution with `(d1, d2)` degrees of freedom — the
/// reference distribution for every ANOVA test in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FisherF {
    d1: f64,
    d2: f64,
}

impl FisherF {
    /// Creates an F distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if either degrees-of-freedom
    /// parameter is not strictly positive.
    pub fn new(d1: f64, d2: f64) -> Result<Self, StatsError> {
        if !d1.is_finite() || !d2.is_finite() || d1 <= 0.0 || d2 <= 0.0 {
            return Err(StatsError::InvalidParameter {
                what: "fisher-f requires d1, d2 > 0",
            });
        }
        Ok(FisherF { d1, d2 })
    }

    /// Numerator degrees of freedom.
    #[must_use]
    pub fn d1(&self) -> f64 {
        self.d1
    }

    /// Denominator degrees of freedom.
    #[must_use]
    pub fn d2(&self) -> f64 {
        self.d2
    }

    /// Upper-tail probability P(F > x) — the ANOVA p-value.
    #[must_use]
    pub fn sf(&self, x: f64) -> f64 {
        1.0 - self.cdf(x)
    }
}

impl Distribution for FisherF {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let (d1, d2) = (self.d1, self.d2);
        let ln = 0.5 * (d1 * (d1 * x).ln() + d2 * d2.ln() - (d1 + d2) * (d1 * x + d2).ln())
            - x.ln()
            - crate::special::ln_beta(d1 / 2.0, d2 / 2.0);
        ln.exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let (d1, d2) = (self.d1, self.d2);
        inc_beta(d1 * x / (d1 * x + d2), d1 / 2.0, d2 / 2.0)
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
        invert_cdf(|x| self.cdf(x), p, 0.0, 4.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn normal_cdf_reference() {
        let n = Normal::standard();
        assert!(close(n.cdf(0.0), 0.5, 1e-14));
        assert!(close(n.cdf(1.959_963_984_540_054), 0.975, 1e-9));
        assert!(close(n.cdf(-1.644_853_626_951_472), 0.05, 1e-9));
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        let n = Normal::new(3.0, 2.0).unwrap();
        for &p in &[0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999] {
            let x = n.quantile(p);
            assert!(close(n.cdf(x), p, 1e-9), "p={p}");
        }
    }

    #[test]
    fn normal_pdf_integrates_to_one() {
        let n = Normal::standard();
        let mut sum = 0.0;
        let h = 0.001;
        let mut x = -8.0;
        while x < 8.0 {
            sum += n.pdf(x) * h;
            x += h;
        }
        assert!(close(sum, 1.0, 1e-4));
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn t_cdf_reference() {
        // t(10): P(T < 1.812) ≈ 0.95 (critical value t_{0.95,10} = 1.8125).
        let t = StudentT::new(10.0).unwrap();
        assert!(close(t.cdf(1.812_461_122_811_676), 0.95, 1e-6));
        assert!(close(t.cdf(0.0), 0.5, 1e-14));
        // Symmetry.
        assert!(close(t.cdf(-1.5) + t.cdf(1.5), 1.0, 1e-12));
    }

    #[test]
    fn t_quantile_reference_values() {
        // Classic table: t_{0.975, 5} = 2.570582, t_{0.975, 30} = 2.042272.
        let t5 = StudentT::new(5.0).unwrap();
        assert!(close(t5.quantile(0.975), 2.570_582, 1e-4));
        let t30 = StudentT::new(30.0).unwrap();
        assert!(close(t30.quantile(0.975), 2.042_272, 1e-4));
    }

    #[test]
    fn t_approaches_normal_for_large_df() {
        let t = StudentT::new(1e6).unwrap();
        let n = Normal::standard();
        for &x in &[-2.0, -0.5, 0.7, 1.8] {
            assert!(close(t.cdf(x), n.cdf(x), 1e-5));
        }
    }

    #[test]
    fn f_cdf_reference() {
        // F(1, 1): cdf(1) = 0.5.
        let f = FisherF::new(1.0, 1.0).unwrap();
        assert!(close(f.cdf(1.0), 0.5, 1e-12));
        // F_{0.95}(2, 10) = 4.10282 (critical value).
        let f210 = FisherF::new(2.0, 10.0).unwrap();
        assert!(close(f210.cdf(4.102_821), 0.95, 1e-5));
    }

    #[test]
    fn f_quantile_reference_values() {
        // F_{0.95}(5, 20) = 2.71089; F_{0.99}(3, 12) = 5.95254.
        let f = FisherF::new(5.0, 20.0).unwrap();
        assert!(close(f.quantile(0.95), 2.710_89, 1e-3));
        let f2 = FisherF::new(3.0, 12.0).unwrap();
        assert!(close(f2.quantile(0.99), 5.952_54, 1e-3));
    }

    #[test]
    fn f_sf_complements_cdf() {
        let f = FisherF::new(4.0, 16.0).unwrap();
        for &x in &[0.5, 1.0, 2.0, 5.0] {
            assert!(close(f.sf(x) + f.cdf(x), 1.0, 1e-12));
        }
    }

    #[test]
    fn f_relates_to_t_squared() {
        // If T ~ t(v) then T² ~ F(1, v).
        let v = 7.0;
        let t = StudentT::new(v).unwrap();
        let f = FisherF::new(1.0, v).unwrap();
        for &x in &[0.5, 1.0, 2.0] {
            let p_t = t.cdf(x) - t.cdf(-x);
            let p_f = f.cdf(x * x);
            assert!(close(p_t, p_f, 1e-10));
        }
    }

    #[test]
    fn parameter_validation_errors() {
        assert!(StudentT::new(0.0).is_err());
        assert!(FisherF::new(0.0, 5.0).is_err());
        assert!(FisherF::new(5.0, -1.0).is_err());
    }

    #[test]
    #[should_panic(expected = "(0,1)")]
    fn quantile_rejects_zero() {
        Normal::standard().quantile(0.0);
    }

    #[test]
    fn distribution_trait_is_object_safe() {
        let dists: Vec<Box<dyn Distribution>> = vec![
            Box::new(Normal::standard()),
            Box::new(StudentT::new(5.0).unwrap()),
            Box::new(FisherF::new(2.0, 8.0).unwrap()),
        ];
        for d in &dists {
            let p = d.cdf(d.quantile(0.7));
            assert!(close(p, 0.7, 1e-8));
        }
    }
}
