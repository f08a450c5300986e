//! Activities: timed and instantaneous transitions with case distributions
//! and gates.

use crate::error::SanError;
use crate::model::{Marking, PlaceId};
use diversify_des::RngStream;
use std::fmt;

/// The firing-time distribution of a timed activity.
///
/// Time-to-compromise literature commonly uses exponential (memoryless
/// exploitation), Weibull (increasing/decreasing hazard as attacker tooling
/// matures) and log-normal (heavy-tailed human-driven stages) models; all
/// are supported, plus deterministic and uniform delays for protocol and
/// scan-cycle modeling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FiringDistribution {
    /// Fires exactly `delay` after enabling.
    Deterministic {
        /// The fixed delay in seconds.
        delay: f64,
    },
    /// Exponential with the given rate λ (mean 1/λ).
    Exponential {
        /// Rate parameter λ > 0.
        rate: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound (≥ 0).
        lo: f64,
        /// Upper bound (≥ lo).
        hi: f64,
    },
    /// Weibull with shape k and scale λ.
    Weibull {
        /// Shape parameter k > 0.
        shape: f64,
        /// Scale parameter λ > 0.
        scale: f64,
    },
    /// Log-normal parameterized by the underlying normal's μ and σ.
    LogNormal {
        /// Location parameter of the underlying normal.
        mu: f64,
        /// Scale parameter (σ ≥ 0) of the underlying normal.
        sigma: f64,
    },
}

impl FiringDistribution {
    /// Samples a firing delay in seconds.
    pub fn sample(&self, rng: &mut RngStream) -> f64 {
        match *self {
            FiringDistribution::Deterministic { delay } => delay,
            FiringDistribution::Exponential { rate } => rng.exponential(rate),
            FiringDistribution::Uniform { lo, hi } => rng.uniform_range(lo, hi),
            FiringDistribution::Weibull { shape, scale } => rng.weibull(shape, scale),
            FiringDistribution::LogNormal { mu, sigma } => rng.lognormal(mu, sigma),
        }
    }

    /// The distribution's mean, used for documentation and sanity checks.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            FiringDistribution::Deterministic { delay } => delay,
            FiringDistribution::Exponential { rate } => 1.0 / rate,
            FiringDistribution::Uniform { lo, hi } => 0.5 * (lo + hi),
            FiringDistribution::Weibull { shape, scale } => {
                // λ Γ(1 + 1/k) via Stirling-free small-argument gamma:
                // use ln_gamma-quality approximation through the identity
                // Γ(1+x) = x Γ(x); for sanity checks a direct series is
                // unnecessary — delegate to the exact formula with libm.
                scale * gamma_1p(1.0 / shape)
            }
            FiringDistribution::LogNormal { mu, sigma } => (mu + 0.5 * sigma * sigma).exp(),
        }
    }

    /// Validates parameters.
    pub(crate) fn validate(&self) -> Result<(), SanError> {
        let ok = match *self {
            FiringDistribution::Deterministic { delay } => delay.is_finite() && delay >= 0.0,
            FiringDistribution::Exponential { rate } => rate.is_finite() && rate > 0.0,
            FiringDistribution::Uniform { lo, hi } => {
                lo.is_finite() && hi.is_finite() && 0.0 <= lo && lo <= hi
            }
            FiringDistribution::Weibull { shape, scale } => {
                shape.is_finite() && scale.is_finite() && shape > 0.0 && scale > 0.0
            }
            FiringDistribution::LogNormal { mu, sigma } => {
                mu.is_finite() && sigma.is_finite() && sigma >= 0.0
            }
        };
        if ok {
            Ok(())
        } else {
            Err(SanError::BadDistribution {
                what: "parameter out of domain (see FiringDistribution docs)",
            })
        }
    }
}

/// Γ(1 + x) for x > 0, delegating to the workspace's single Lanczos
/// implementation in `diversify-stats` (one coefficient table to
/// maintain instead of two).
fn gamma_1p(x: f64) -> f64 {
    diversify_stats::special::ln_gamma(1.0 + x).exp()
}

/// How an activity completes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActivityTiming {
    /// Completes after a sampled delay.
    Timed(FiringDistribution),
    /// Completes immediately upon enabling (zero time), with the given
    /// priority weight when several instantaneous activities are enabled
    /// simultaneously.
    Instantaneous {
        /// Selection weight among simultaneously enabled instantaneous
        /// activities.
        weight: f64,
    },
}

impl ActivityTiming {
    pub(crate) fn validate(&self) -> Result<(), SanError> {
        match self {
            ActivityTiming::Timed(d) => d.validate(),
            ActivityTiming::Instantaneous { weight } => {
                if weight.is_finite() && *weight > 0.0 {
                    Ok(())
                } else {
                    Err(SanError::BadDistribution {
                        what: "instantaneous weight must be positive",
                    })
                }
            }
        }
    }
}

/// An input gate: an arbitrary enabling predicate plus a marking update
/// applied when the owning activity fires. The simulator re-evaluates
/// every predicate against the current marking after each event, so a
/// gate may read and write any place.
pub struct InputGate {
    /// Enabling predicate evaluated against the current marking.
    pub predicate: Box<dyn Fn(&Marking) -> bool + Send + Sync>,
    /// Marking transformation applied on firing (before output effects).
    pub effect: Box<dyn Fn(&mut Marking) + Send + Sync>,
}

impl fmt::Debug for InputGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("InputGate")
    }
}

/// An output gate: a marking update applied when the owning case is chosen.
pub struct OutputGate {
    /// Marking transformation applied on firing (after output arcs).
    pub effect: Box<dyn Fn(&mut Marking) + Send + Sync>,
}

impl fmt::Debug for OutputGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("OutputGate")
    }
}

/// One case of an activity's case distribution: a weighted output effect.
#[derive(Debug)]
pub struct Case {
    /// Relative selection weight (normalized at firing time).
    pub weight: f64,
    /// Token additions applied when this case is selected.
    pub output_arcs: Vec<(PlaceId, u32)>,
    /// Output gates applied when this case is selected.
    pub output_gates: Vec<OutputGate>,
}

/// A SAN activity: timing, enabling structure and output cases.
#[derive(Debug)]
pub struct Activity {
    /// Human-readable activity name (unique within a model by convention).
    pub name: String,
    /// Timing semantics.
    pub timing: ActivityTiming,
    /// Token requirements consumed on firing.
    pub input_arcs: Vec<(PlaceId, u32)>,
    /// Additional enabling predicates / firing effects.
    pub input_gates: Vec<InputGate>,
    /// The case distribution (at least one case).
    pub cases: Vec<Case>,
    /// Case selection weights, gathered once at model-build time so firing
    /// never re-collects them (kept in case order).
    pub(crate) case_weights: Vec<f64>,
}

impl Activity {
    /// Whether this activity is instantaneous.
    #[must_use]
    pub fn is_instantaneous(&self) -> bool {
        matches!(self.timing, ActivityTiming::Instantaneous { .. })
    }

    /// The selection weight when instantaneous, or `None` for timed
    /// activities.
    #[must_use]
    pub fn instantaneous_weight(&self) -> Option<f64> {
        match self.timing {
            ActivityTiming::Instantaneous { weight } => Some(weight),
            ActivityTiming::Timed(_) => None,
        }
    }

    /// Case selection weights in case order (precomputed at build time).
    #[must_use]
    pub fn case_weights(&self) -> &[f64] {
        &self.case_weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversify_des::{RngStream, StreamId};

    fn rng() -> RngStream {
        RngStream::new(7, StreamId(0))
    }

    #[test]
    fn deterministic_sampling() {
        let d = FiringDistribution::Deterministic { delay: 2.5 };
        assert_eq!(d.sample(&mut rng()), 2.5);
        assert_eq!(d.mean(), 2.5);
    }

    #[test]
    fn exponential_sample_mean() {
        let d = FiringDistribution::Exponential { rate: 4.0 };
        let mut r = rng();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
        assert_eq!(d.mean(), 0.25);
    }

    #[test]
    fn uniform_sample_in_range() {
        let d = FiringDistribution::Uniform { lo: 1.0, hi: 3.0 };
        let mut r = rng();
        for _ in 0..1000 {
            let s = d.sample(&mut r);
            assert!((1.0..=3.0).contains(&s));
        }
        assert_eq!(d.mean(), 2.0);
    }

    #[test]
    fn weibull_mean_formula() {
        // k = 1 reduces to exponential: mean = scale.
        let d = FiringDistribution::Weibull {
            shape: 1.0,
            scale: 3.0,
        };
        assert!((d.mean() - 3.0).abs() < 1e-9);
        // k = 2: mean = λ √π / 2.
        let d2 = FiringDistribution::Weibull {
            shape: 2.0,
            scale: 1.0,
        };
        assert!((d2.mean() - std::f64::consts::PI.sqrt() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_mean_formula() {
        let d = FiringDistribution::LogNormal {
            mu: 0.0,
            sigma: 0.5,
        };
        assert!((d.mean() - (0.125f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(FiringDistribution::Exponential { rate: 0.0 }
            .validate()
            .is_err());
        assert!(FiringDistribution::Deterministic { delay: -1.0 }
            .validate()
            .is_err());
        assert!(FiringDistribution::Uniform { lo: 3.0, hi: 1.0 }
            .validate()
            .is_err());
        assert!(FiringDistribution::Weibull {
            shape: -1.0,
            scale: 1.0
        }
        .validate()
        .is_err());
        assert!(FiringDistribution::LogNormal {
            mu: f64::NAN,
            sigma: 1.0
        }
        .validate()
        .is_err());
        assert!(ActivityTiming::Instantaneous { weight: 0.0 }
            .validate()
            .is_err());
        assert!(ActivityTiming::Instantaneous { weight: 1.0 }
            .validate()
            .is_ok());
    }

    #[test]
    fn gamma_1p_reference_points() {
        // Γ(1) = 1, Γ(2) = 1, Γ(1.5) = √π/2.
        assert!((gamma_1p(0.0_f64.max(1e-12)) - 1.0).abs() < 1e-6);
        assert!((gamma_1p(1.0) - 1.0).abs() < 1e-9);
        assert!((gamma_1p(0.5) - std::f64::consts::PI.sqrt() / 2.0).abs() < 1e-9);
    }
}
