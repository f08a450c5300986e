//! Transient solution of SAN reward variables: Monte-Carlo replication
//! ([`TransientSolver`]) and the exact CTMC backend
//! ([`Method::Analytic`], via [`AnalyticSolver`](crate::AnalyticSolver)),
//! behind one [`solve`] entry point with one result shape.

use crate::error::SanError;
use crate::model::{ActivityId, Marking, SanModel};
use crate::reward::{FirstPassage, ImpulseReward, Observer, RateReward};
use crate::sim::{SimState, Simulator};
use diversify_des::{derive_seed, SimTime, StreamId};
use diversify_stats::StreamingSummary;
use std::sync::Arc;

/// A reward variable to estimate across replications.
#[derive(Clone)]
pub enum RewardSpec {
    /// Time-averaged marking function (e.g. compromised ratio).
    Rate {
        /// Metric name in the result.
        name: String,
        /// The marking function.
        f: Arc<dyn Fn(&Marking) -> f64 + Send + Sync>,
    },
    /// First time a predicate holds (e.g. time-to-attack). Replications
    /// where the predicate never holds contribute to the miss count rather
    /// than the time statistics.
    FirstPassage {
        /// Metric name in the result.
        name: String,
        /// The target predicate.
        pred: Arc<dyn Fn(&Marking) -> bool + Send + Sync>,
    },
    /// Firing count of an activity.
    Impulse {
        /// Metric name in the result.
        name: String,
        /// The observed activity.
        activity: ActivityId,
    },
}

impl std::fmt::Debug for RewardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewardSpec::Rate { name, .. } => write!(f, "Rate({name})"),
            RewardSpec::FirstPassage { name, .. } => write!(f, "FirstPassage({name})"),
            RewardSpec::Impulse { name, .. } => write!(f, "Impulse({name})"),
        }
    }
}

impl RewardSpec {
    /// Convenience constructor for a rate reward.
    pub fn rate<F>(name: impl Into<String>, f: F) -> Self
    where
        F: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        RewardSpec::Rate {
            name: name.into(),
            f: Arc::new(f),
        }
    }

    /// Convenience constructor for a first-passage reward.
    pub fn first_passage<P>(name: impl Into<String>, pred: P) -> Self
    where
        P: Fn(&Marking) -> bool + Send + Sync + 'static,
    {
        RewardSpec::FirstPassage {
            name: name.into(),
            pred: Arc::new(pred),
        }
    }

    /// Convenience constructor for an impulse reward.
    pub fn impulse(name: impl Into<String>, activity: ActivityId) -> Self {
        RewardSpec::Impulse {
            name: name.into(),
            activity,
        }
    }

    /// The metric name.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            RewardSpec::Rate { name, .. }
            | RewardSpec::FirstPassage { name, .. }
            | RewardSpec::Impulse { name, .. } => name,
        }
    }
}

/// Estimates for one reward variable across replications.
#[derive(Debug, Clone)]
pub struct RewardEstimate {
    /// Metric name.
    pub name: String,
    /// Statistics over replications that produced a value (for
    /// first-passage rewards: only replications where the event occurred).
    /// The analytic backend stores its exact value as a single
    /// observation.
    pub stats: StreamingSummary,
    /// For first-passage rewards: how many replications reached the
    /// target. Equal to the replication count for other reward kinds.
    pub occurrences: u32,
    /// Set by the analytic backend: the exact occurrence probability
    /// (the hit probability for first-passage rewards, 1 otherwise).
    /// `None` on Monte-Carlo estimates.
    pub exact_probability: Option<f64>,
}

impl RewardEstimate {
    /// Occurrence probability: the exact value when the analytic backend
    /// produced this estimate, otherwise occurrences / replications.
    #[must_use]
    pub fn probability(&self, replications: u32) -> f64 {
        match self.exact_probability {
            Some(p) => p,
            None => f64::from(self.occurrences) / f64::from(replications),
        }
    }
}

/// Result of a transient solution.
#[derive(Debug, Clone)]
pub struct TransientResult {
    /// Per-reward estimates, in spec order.
    pub estimates: Vec<RewardEstimate>,
    /// Number of replications performed.
    pub replications: u32,
    /// Horizon used for each replication.
    pub horizon: SimTime,
}

impl TransientResult {
    /// Looks up an estimate by name.
    #[must_use]
    pub fn estimate(&self, name: &str) -> Option<&RewardEstimate> {
        self.estimates.iter().find(|e| e.name == name)
    }
}

/// How to solve a transient reward problem: by Monte-Carlo replication
/// or by the exact CTMC backend.
#[derive(Debug, Clone, Copy)]
pub enum Method {
    /// Replicated simulation ([`TransientSolver`]): works for every
    /// firing distribution; estimates carry sampling error.
    MonteCarlo {
        /// Horizon of each replication.
        horizon: SimTime,
        /// Number of replications (must be positive).
        replications: u32,
        /// Master seed.
        seed: u64,
    },
    /// Exact solution ([`AnalyticSolver`](crate::AnalyticSolver)):
    /// requires every timed activity to be exponential and a reachable
    /// state space within `max_states`; values are exact to `tol`.
    Analytic {
        /// Transient horizon.
        horizon: SimTime,
        /// Uniformization truncation tolerance (e.g. `1e-10`).
        tol: f64,
        /// Tangible-state cap — larger models fail with
        /// [`SanError::StateSpaceCap`] and should route to Monte-Carlo.
        max_states: usize,
    },
}

/// Solves the rewards with the chosen [`Method`], returning the same
/// [`TransientResult`] shape either way.
///
/// # Errors
///
/// The Monte-Carlo path is infallible; the analytic path reports
/// non-exponential timing, state-space blow-up, or vanishing loops as a
/// [`SanError`].
pub fn solve(
    model: &SanModel,
    rewards: &[RewardSpec],
    method: Method,
) -> Result<TransientResult, SanError> {
    match method {
        Method::MonteCarlo {
            horizon,
            replications,
            seed,
        } => Ok(TransientSolver::new(horizon, replications, seed).solve(model, rewards)),
        Method::Analytic {
            horizon,
            tol,
            max_states,
        } => crate::analytic::AnalyticSolver::new(horizon, tol)
            .with_max_states(max_states)
            .solve(model, rewards),
    }
}

/// Replicated Monte-Carlo transient solver.
///
/// # Examples
///
/// ```
/// use diversify_san::{SanBuilder, FiringDistribution, TransientSolver, RewardSpec};
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
/// let solver = TransientSolver::new(SimTime::from_secs(100.0), 2000, 42);
/// let result = solver.solve(
///     &model,
///     &[RewardSpec::first_passage("ttf", move |m| m.tokens(down) == 1)],
/// );
/// let ttf = result.estimate("ttf").unwrap();
/// // Mean time to failure of an Exp(1) component is 1.
/// assert!((ttf.stats.mean() - 1.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TransientSolver {
    horizon: SimTime,
    replications: u32,
    master_seed: u64,
}

impl TransientSolver {
    /// Creates a solver with the given horizon, replication count and
    /// master seed.
    ///
    /// # Panics
    ///
    /// Panics if `replications` is zero.
    #[must_use]
    pub fn new(horizon: SimTime, replications: u32, master_seed: u64) -> Self {
        assert!(replications > 0, "at least one replication required");
        TransientSolver {
            horizon,
            replications,
            master_seed,
        }
    }

    /// The replication count.
    #[must_use]
    pub fn replications(&self) -> u32 {
        self.replications
    }

    /// Runs all replications and aggregates the reward estimates.
    ///
    /// The replication loop is workspace-reusing: one [`SimState`] and
    /// one set of reward observers are built up front and recycled
    /// through every replication ([`Simulator::with_state`] +
    /// `Observer::reset`), so the steady state performs no allocation —
    /// only the RNG seeds change from replication to replication, and
    /// trajectories stay bit-identical to fresh-`Simulator` runs.
    #[must_use]
    pub fn solve(&self, model: &SanModel, rewards: &[RewardSpec]) -> TransientResult {
        let mut acc: Vec<(StreamingSummary, u32)> = rewards
            .iter()
            .map(|_| (StreamingSummary::new(), 0))
            .collect();
        let mut tracker = RewardTracker::new(rewards);
        let mut values: Vec<Option<f64>> = vec![None; rewards.len()];
        let mut state = SimState::new(model);
        for rep in 0..self.replications {
            let seed = derive_seed(self.master_seed, StreamId(0x7A_0000 + u64::from(rep)));
            tracker.reset();
            let mut sim = Simulator::with_state(model, seed, state);
            sim.run_until_observed(self.horizon, &mut tracker);
            state = sim.into_state();
            tracker.collect_into(&mut values);
            for (slot, value) in acc.iter_mut().zip(&values) {
                if let Some(v) = value {
                    slot.0.push(*v);
                    slot.1 += 1;
                }
            }
        }
        TransientResult {
            estimates: rewards
                .iter()
                .zip(acc)
                .map(|(spec, (stats, occurrences))| RewardEstimate {
                    name: spec.name().to_string(),
                    stats,
                    occurrences,
                    exact_probability: None,
                })
                .collect(),
            replications: self.replications,
            horizon: self.horizon,
        }
    }
}

/// The solver's reusable observer set: one observer per reward spec,
/// built once per `solve` call and reset between replications, fanning
/// trajectory callbacks out to all of them without any per-replication
/// allocation.
struct RewardTracker {
    rates: Vec<(usize, RateReward)>,
    passages: Vec<(usize, FirstPassage)>,
    impulses: Vec<(usize, ImpulseReward)>,
}

impl RewardTracker {
    fn new(rewards: &[RewardSpec]) -> Self {
        let mut rates: Vec<(usize, RateReward)> = Vec::new();
        let mut passages: Vec<(usize, FirstPassage)> = Vec::new();
        let mut impulses: Vec<(usize, ImpulseReward)> = Vec::new();
        for (i, spec) in rewards.iter().enumerate() {
            match spec {
                RewardSpec::Rate { f, .. } => {
                    let f = Arc::clone(f);
                    rates.push((i, RateReward::new(move |m| f(m))));
                }
                RewardSpec::FirstPassage { pred, .. } => {
                    let p = Arc::clone(pred);
                    passages.push((i, FirstPassage::new(move |m| p(m))));
                }
                RewardSpec::Impulse { activity, .. } => {
                    impulses.push((i, ImpulseReward::new(*activity, 1.0)));
                }
            }
        }
        RewardTracker {
            rates,
            passages,
            impulses,
        }
    }

    /// Prepares every observer for a fresh trajectory.
    fn reset(&mut self) {
        for (_, r) in &mut self.rates {
            r.reset();
        }
        for (_, p) in &mut self.passages {
            p.reset();
        }
        for (_, im) in &mut self.impulses {
            im.reset();
        }
    }

    /// Writes per-reward values into `out` (`None` for an unreached
    /// first passage), indexed by reward-spec position.
    fn collect_into(&self, out: &mut [Option<f64>]) {
        for (i, r) in &self.rates {
            out[*i] = r.mean();
        }
        for (i, p) in &self.passages {
            out[*i] = p.time().map(SimTime::as_secs);
        }
        for (i, im) in &self.impulses {
            out[*i] = Some(im.count() as f64);
        }
    }
}

impl Observer for RewardTracker {
    fn on_marking(&mut self, now: SimTime, marking: &Marking) {
        for (_, r) in &mut self.rates {
            r.on_marking(now, marking);
        }
        for (_, p) in &mut self.passages {
            p.on_marking(now, marking);
        }
    }

    fn on_fire(&mut self, now: SimTime, activity: ActivityId, case: usize, marking: &Marking) {
        for (_, im) in &mut self.impulses {
            im.on_fire(now, activity, case, marking);
        }
    }

    fn on_end(&mut self, now: SimTime, marking: &Marking) {
        for (_, r) in &mut self.rates {
            r.on_end(now, marking);
        }
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
    fn first_passage_mean_matches_exponential() {
        let model = failure_model(2.0);
        let down = model.place_by_name("down").unwrap();
        let solver = TransientSolver::new(SimTime::from_secs(1000.0), 4000, 9);
        let r = solver.solve(
            &model,
            &[RewardSpec::first_passage("ttf", move |m| {
                m.tokens(down) == 1
            })],
        );
        let e = r.estimate("ttf").unwrap();
        assert!(
            (e.stats.mean() - 0.5).abs() < 0.03,
            "mean {}",
            e.stats.mean()
        );
        assert_eq!(e.occurrences, 4000);
        assert!((e.probability(r.replications) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn short_horizon_gives_partial_occurrence() {
        // P(Exp(1) <= 1) = 1 - e^-1 ≈ 0.632.
        let model = failure_model(1.0);
        let down = model.place_by_name("down").unwrap();
        let solver = TransientSolver::new(SimTime::from_secs(1.0), 5000, 3);
        let r = solver.solve(
            &model,
            &[RewardSpec::first_passage("hit", move |m| {
                m.tokens(down) == 1
            })],
        );
        let p = r.estimate("hit").unwrap().probability(r.replications);
        assert!((p - 0.632).abs() < 0.03, "p {p}");
    }

    #[test]
    fn rate_reward_availability() {
        // Availability of an Exp(1) failure over [0, 1]:
        // E[time-average of up] = (1/t)∫ P(up at s) ds = (1 - e^-1)/1 ≈ 0.632.
        let model = failure_model(1.0);
        let up = model.place_by_name("up").unwrap();
        let solver = TransientSolver::new(SimTime::from_secs(1.0), 5000, 17);
        let r = solver.solve(
            &model,
            &[RewardSpec::rate("avail", move |m| f64::from(m.tokens(up)))],
        );
        let mean = r.estimate("avail").unwrap().stats.mean();
        assert!((mean - 0.632).abs() < 0.03, "avail {mean}");
    }

    #[test]
    fn impulse_counts_firings() {
        let model = failure_model(1.0);
        let fail = model.activity_by_name("fail").unwrap();
        let solver = TransientSolver::new(SimTime::from_secs(1000.0), 500, 5);
        let r = solver.solve(&model, &[RewardSpec::impulse("fires", fail)]);
        let e = r.estimate("fires").unwrap();
        assert_eq!(e.stats.mean(), 1.0); // exactly one firing per replication
    }

    #[test]
    fn results_deterministic_per_seed() {
        let model = failure_model(1.0);
        let down = model.place_by_name("down").unwrap();
        let run = |seed| {
            TransientSolver::new(SimTime::from_secs(10.0), 200, seed)
                .solve(
                    &model,
                    &[RewardSpec::first_passage("t", move |m| m.tokens(down) == 1)],
                )
                .estimate("t")
                .unwrap()
                .stats
                .mean()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn multiple_rewards_in_one_pass() {
        let model = failure_model(1.0);
        let up = model.place_by_name("up").unwrap();
        let down = model.place_by_name("down").unwrap();
        let fail = model.activity_by_name("fail").unwrap();
        let solver = TransientSolver::new(SimTime::from_secs(2.0), 300, 11);
        let r = solver.solve(
            &model,
            &[
                RewardSpec::rate("avail", move |m| f64::from(m.tokens(up))),
                RewardSpec::first_passage("ttf", move |m| m.tokens(down) == 1),
                RewardSpec::impulse("fires", fail),
            ],
        );
        assert_eq!(r.estimates.len(), 3);
        assert!(r.estimate("avail").is_some());
        assert!(r.estimate("ttf").is_some());
        assert!(r.estimate("fires").is_some());
        assert!(r.estimate("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_panics() {
        let _ = TransientSolver::new(SimTime::from_secs(1.0), 0, 0);
    }
}
