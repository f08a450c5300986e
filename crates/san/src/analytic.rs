//! Exact transient evaluation of SAN reward variables —
//! the analytic counterpart of the Monte-Carlo
//! [`TransientSolver`](crate::TransientSolver).
//!
//! The solver explores the tangible state space
//! ([`statespace`](crate::statespace)), solves the resulting CTMC by
//! uniformization ([`ctmc`](crate::ctmc)), and evaluates the same
//! [`RewardSpec`] variants the simulation path accepts:
//!
//! * **Rate** — `E[(1/T) ∫ f(X_t) dt]`, from the integrated transient
//!   distribution;
//! * **FirstPassage** — the predicate's target states are made absorbing
//!   (the standard first-passage transformation); the absorbed mass at
//!   the horizon is the hit probability and the absorbed-mass integral
//!   gives the conditional mean hitting time, matching the Monte-Carlo
//!   estimator (mean over replications that reached the target);
//! * **Impulse** — `∫ Σ_s π_s(t) λ_a(s) dt`, from the per-state firing
//!   intensities tracked during exploration.
//!
//! Results come back in the same [`TransientResult`] shape the
//! Monte-Carlo solver produces, so callers switch backends without
//! changing how they read indicators.

use crate::ctmc::Ctmc;
use crate::error::SanError;
use crate::model::{ActivityId, SanModel};
use crate::solver::{RewardEstimate, RewardSpec, TransientResult};
use crate::statespace::{explore, ExploreOptions, StateSpace};
use diversify_des::SimTime;
use diversify_stats::StreamingSummary;

/// Hit probabilities below this are treated as "never reached": the
/// conditional mean would divide by (numerical) zero.
const MIN_HIT_PROBABILITY: f64 = 1e-12;

/// Exact transient solver over the reachable CTMC of an all-exponential
/// SAN.
///
/// # Examples
///
/// ```
/// use diversify_san::{AnalyticSolver, FiringDistribution, RewardSpec, SanBuilder};
/// use diversify_des::SimTime;
///
/// let mut b = SanBuilder::new();
/// let up = b.place("up", 1);
/// let down = b.place("down", 0);
/// b.timed_activity("fail", FiringDistribution::Exponential { rate: 1.0 })
///     .input_arc(up, 1)
///     .output_arc(down, 1)
///     .build();
/// let model = b.build().unwrap();
///
/// let solver = AnalyticSolver::new(SimTime::from_secs(1.0), 1e-10);
/// let r = solver
///     .solve(&model, &[RewardSpec::first_passage("hit", move |m| m.tokens(down) == 1)])
///     .unwrap();
/// let hit = r.estimate("hit").unwrap();
/// // P(Exp(1) <= 1) = 1 - e^-1, to analytic precision.
/// assert!((hit.probability(0) - (1.0 - (-1.0f64).exp())).abs() < 1e-8);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AnalyticSolver {
    horizon: SimTime,
    tol: f64,
    options: ExploreOptions,
}

impl AnalyticSolver {
    /// Creates a solver for the given horizon and truncation tolerance,
    /// with default exploration limits.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is not in `(0, 1)` or the horizon is not finite.
    #[must_use]
    pub fn new(horizon: SimTime, tol: f64) -> Self {
        assert!(tol > 0.0 && tol < 1.0, "tol must be in (0, 1)");
        assert!(horizon.is_finite(), "analytic horizon must be finite");
        AnalyticSolver {
            horizon,
            tol,
            options: ExploreOptions::default(),
        }
    }

    /// Overrides the tangible-state cap.
    #[must_use]
    pub fn with_max_states(mut self, max_states: usize) -> Self {
        self.options.max_states = max_states;
        self
    }

    /// Overrides all exploration limits.
    #[must_use]
    pub fn with_options(mut self, options: ExploreOptions) -> Self {
        self.options = options;
        self
    }

    /// The configured horizon.
    #[must_use]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Explores the model's tangible state space, tracking the firing
    /// intensities the given rewards need.
    ///
    /// # Errors
    ///
    /// See [`explore`].
    pub fn explore(
        &self,
        model: &SanModel,
        rewards: &[RewardSpec],
    ) -> Result<StateSpace, SanError> {
        explore(model, &impulse_targets(rewards), self.options)
    }

    /// Solves every reward exactly over `[0, horizon]`.
    ///
    /// The returned [`TransientResult`] has `replications = 0` (no
    /// sampling was involved); each estimate's `stats` holds the exact
    /// value as a single observation and
    /// [`RewardEstimate::probability`] returns the exact hit
    /// probability.
    ///
    /// # Errors
    ///
    /// Propagates exploration failures ([`SanError::NotExponential`],
    /// [`SanError::StateSpaceCap`], [`SanError::VanishingLoop`]), and
    /// returns [`SanError::AnalyticUnsupported`] when `horizon ×
    /// max-exit-rate` exceeds ~10⁹ — uniformization would need that many
    /// matrix-vector steps, so such horizons belong to the Monte-Carlo
    /// path instead.
    pub fn solve(
        &self,
        model: &SanModel,
        rewards: &[RewardSpec],
    ) -> Result<TransientResult, SanError> {
        let space = self.explore(model, rewards)?;
        let horizon = self.horizon.as_secs();
        let max_exit = (0..space.state_count())
            .map(|s| space.exit_rate(s))
            .fold(0.0f64, f64::max);
        if max_exit * horizon > 1.0e9 {
            return Err(SanError::AnalyticUnsupported {
                what: "a horizon requiring over ~1e9 uniformization steps \
                       (use Monte-Carlo)",
            });
        }
        let tracked = space.tracked().to_vec();
        // The unmodified chain serves every Rate and Impulse reward; each
        // FirstPassage reward gets its own absorbing transformation.
        let needs_base = rewards
            .iter()
            .any(|r| !matches!(r, RewardSpec::FirstPassage { .. }));
        let base = needs_base
            .then(|| Ctmc::from_state_space(&space).transient(space.initial(), horizon, self.tol));

        let mut estimates = Vec::with_capacity(rewards.len());
        for spec in rewards {
            let estimate = match spec {
                RewardSpec::Rate { name, f } => {
                    let sol = base.as_ref().expect("base chain solved for rate rewards");
                    let value = if horizon > 0.0 {
                        (0..space.state_count())
                            .map(|s| f(space.state(s)) * sol.integral[s])
                            .sum::<f64>()
                            / horizon
                    } else {
                        space
                            .initial()
                            .iter()
                            .map(|&(s, p)| f(space.state(s)) * p)
                            .sum()
                    };
                    exact_estimate(name, Some(value), 1.0)
                }
                RewardSpec::Impulse { name, activity } => {
                    let sol = base
                        .as_ref()
                        .expect("base chain solved for impulse rewards");
                    let k = tracked
                        .iter()
                        .position(|&t| t == *activity)
                        .expect("impulse activity was tracked");
                    let value = (0..space.state_count())
                        .map(|s| space.impulse_intensity(s, k) * sol.integral[s])
                        .sum::<f64>();
                    exact_estimate(name, Some(value), 1.0)
                }
                RewardSpec::FirstPassage { name, pred } => {
                    let absorbing: Vec<bool> = (0..space.state_count())
                        .map(|s| pred(space.state(s)))
                        .collect();
                    let chain = Ctmc::from_state_space_absorbing(&space, &absorbing);
                    let sol = chain.transient(space.initial(), horizon, self.tol);
                    let hit: f64 = absorbing
                        .iter()
                        .enumerate()
                        .filter(|&(_, &a)| a)
                        .map(|(s, _)| sol.pi[s])
                        .sum();
                    let hit = hit.clamp(0.0, 1.0);
                    // E[τ·1{τ≤T}] = T·F(T) − ∫₀ᵀ F(t) dt, where F(t) is
                    // the absorbed mass; conditioning on the hit matches
                    // the Monte-Carlo estimator.
                    let absorbed_integral: f64 = absorbing
                        .iter()
                        .enumerate()
                        .filter(|&(_, &a)| a)
                        .map(|(s, _)| sol.integral[s])
                        .sum();
                    let mean = (hit > MIN_HIT_PROBABILITY)
                        .then(|| ((horizon * hit - absorbed_integral) / hit).max(0.0));
                    exact_estimate(name, mean, hit)
                }
            };
            estimates.push(estimate);
        }
        Ok(TransientResult {
            estimates,
            replications: 0,
            horizon: self.horizon,
        })
    }
}

/// Activities named by Impulse rewards, deduped in spec order.
fn impulse_targets(rewards: &[RewardSpec]) -> Vec<ActivityId> {
    let mut targets = Vec::new();
    for spec in rewards {
        if let RewardSpec::Impulse { activity, .. } = spec {
            if !targets.contains(activity) {
                targets.push(*activity);
            }
        }
    }
    targets
}

/// Packs an exact value into the Monte-Carlo result shape: the value (if
/// any) becomes a single streamed observation, and the probability is
/// recorded exactly.
fn exact_estimate(name: &str, value: Option<f64>, probability: f64) -> RewardEstimate {
    let mut stats = StreamingSummary::new();
    if let Some(v) = value {
        stats.push(v);
    }
    RewardEstimate {
        name: name.to_string(),
        stats,
        occurrences: 0,
        exact_probability: Some(probability),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::FiringDistribution;
    use crate::builder::SanBuilder;

    /// Exp(λ) single-failure model.
    fn failure_model(rate: f64) -> SanModel {
        let mut b = SanBuilder::new();
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        b.timed_activity("fail", FiringDistribution::Exponential { rate })
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build();
        b.build().unwrap()
    }

    #[test]
    fn first_passage_probability_and_mean() {
        let model = failure_model(1.0);
        let down = model.place_by_name("down").unwrap();
        let t = 1.0;
        let solver = AnalyticSolver::new(SimTime::from_secs(t), 1e-12);
        let r = solver
            .solve(
                &model,
                &[RewardSpec::first_passage("hit", move |m| {
                    m.tokens(down) == 1
                })],
            )
            .unwrap();
        let e = r.estimate("hit").unwrap();
        let f = 1.0 - (-t).exp();
        assert!((e.probability(0) - f).abs() < 1e-9);
        // E[τ | τ ≤ 1] = (1 − 2e^{-1})/(1 − e^{-1}) for Exp(1).
        let expect = (1.0 - 2.0 * (-1.0f64).exp()) / f;
        assert!(
            (e.stats.mean() - expect).abs() < 1e-8,
            "{} vs {expect}",
            e.stats.mean()
        );
    }

    #[test]
    fn rate_reward_availability() {
        // E[(1/t) ∫ up] = (1 − e^{-t})/t for Exp(1).
        let model = failure_model(1.0);
        let up = model.place_by_name("up").unwrap();
        let t = 1.0;
        let solver = AnalyticSolver::new(SimTime::from_secs(t), 1e-12);
        let r = solver
            .solve(
                &model,
                &[RewardSpec::rate("avail", move |m| f64::from(m.tokens(up)))],
            )
            .unwrap();
        let expect = (1.0 - (-t).exp()) / t;
        let got = r.estimate("avail").unwrap().stats.mean();
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn impulse_expected_firings() {
        // Failure/repair cycle: firing rate of "fail" under the transient
        // over a long window approaches the stationary rate μλ/(λ+μ).
        let mut b = SanBuilder::new();
        let up = b.place("up", 1);
        let down = b.place("down", 0);
        b.timed_activity("fail", FiringDistribution::Exponential { rate: 2.0 })
            .input_arc(up, 1)
            .output_arc(down, 1)
            .build();
        b.timed_activity("repair", FiringDistribution::Exponential { rate: 3.0 })
            .input_arc(down, 1)
            .output_arc(up, 1)
            .build();
        let model = b.build().unwrap();
        let fail = model.activity_by_name("fail").unwrap();
        let t = 200.0;
        let solver = AnalyticSolver::new(SimTime::from_secs(t), 1e-10);
        let r = solver
            .solve(&model, &[RewardSpec::impulse("fires", fail)])
            .unwrap();
        // Stationary: P(up) = 0.6, so rate ≈ 1.2 firings per unit time.
        let got = r.estimate("fires").unwrap().stats.mean();
        assert!((got / t - 1.2).abs() < 0.01, "rate {}", got / t);
    }

    #[test]
    fn huge_horizon_is_rejected_not_hung() {
        let model = failure_model(1.0);
        let down = model.place_by_name("down").unwrap();
        let solver = AnalyticSolver::new(SimTime::from_secs(1e16), 1e-10);
        let err = solver
            .solve(
                &model,
                &[RewardSpec::first_passage("hit", move |m| {
                    m.tokens(down) == 1
                })],
            )
            .unwrap_err();
        assert!(matches!(err, SanError::AnalyticUnsupported { .. }));
    }

    #[test]
    fn unreached_first_passage_has_empty_stats() {
        // Predicate can never hold (needs 2 tokens in a 1-token model).
        let model = failure_model(1.0);
        let down = model.place_by_name("down").unwrap();
        let solver = AnalyticSolver::new(SimTime::from_secs(5.0), 1e-10);
        let r = solver
            .solve(
                &model,
                &[RewardSpec::first_passage("never", move |m| {
                    m.tokens(down) >= 2
                })],
            )
            .unwrap();
        let e = r.estimate("never").unwrap();
        assert_eq!(e.probability(0), 0.0);
        assert_eq!(e.stats.count(), 0);
    }
}
