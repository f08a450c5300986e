//! Reward variables: observers that measure a SAN trajectory.
//!
//! The paper's security indicators map directly onto SAN reward variables:
//!
//! * **Time-To-Attack / Time-To-Security-Failure** — [`FirstPassage`]
//!   rewards (time until a marking predicate first holds);
//! * **compromised ratio** — a [`RateReward`] (time-weighted marking
//!   function);
//! * attack-step counts — [`ImpulseReward`]s on activity firings.

use crate::model::{ActivityId, Marking};
use diversify_des::{SimTime, TimeWeighted};

/// Receives trajectory callbacks from the simulator.
///
/// All methods have empty default bodies so implementors override only
/// what they need.
pub trait Observer {
    /// Called whenever the marking may have changed (including once at
    /// simulation start), with the current time.
    fn on_marking(&mut self, _now: SimTime, _marking: &Marking) {}
    /// Called after each activity firing with the chosen case index and
    /// the post-firing marking.
    fn on_fire(&mut self, _now: SimTime, _activity: ActivityId, _case: usize, _marking: &Marking) {}
    /// Called once when the run ends (horizon, quiescence or error).
    fn on_end(&mut self, _now: SimTime, _marking: &Marking) {}
}

/// An observer that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Time-averaged rate reward: integrates `f(marking)` over time.
///
/// # Examples
///
/// Measuring the mean number of compromised nodes:
///
/// ```no_run
/// # use diversify_san::{RateReward, Marking, PlaceId};
/// # let compromised_place: PlaceId = unimplemented!();
/// let reward = RateReward::new(move |m: &Marking| m.tokens(compromised_place) as f64);
/// ```
pub struct RateReward {
    f: Box<dyn Fn(&Marking) -> f64 + Send + Sync>,
    acc: Option<TimeWeighted>,
    final_mean: Option<f64>,
    last_value: f64,
}

impl std::fmt::Debug for RateReward {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RateReward")
            .field("final_mean", &self.final_mean)
            .finish()
    }
}

impl RateReward {
    /// Creates a rate reward for the marking function `f`.
    #[must_use]
    pub fn new<F>(f: F) -> Self
    where
        F: Fn(&Marking) -> f64 + Send + Sync + 'static,
    {
        RateReward {
            f: Box::new(f),
            acc: None,
            final_mean: None,
            last_value: 0.0,
        }
    }

    /// The time-weighted mean after the run ended, if the run produced any
    /// observation window.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        self.final_mean
    }

    /// The most recent instantaneous value of the reward function.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// Clears all accumulated state so the observer can watch a fresh
    /// trajectory — the reuse hook for replication loops that keep their
    /// observers alive instead of reallocating them per replication.
    pub fn reset(&mut self) {
        self.acc = None;
        self.final_mean = None;
        self.last_value = 0.0;
    }
}

impl Observer for RateReward {
    fn on_marking(&mut self, now: SimTime, marking: &Marking) {
        let v = (self.f)(marking);
        self.last_value = v;
        match &mut self.acc {
            None => self.acc = Some(TimeWeighted::new(now, v)),
            Some(acc) => acc.record(now, v),
        }
    }

    fn on_end(&mut self, now: SimTime, marking: &Marking) {
        let v = (self.f)(marking);
        self.last_value = v;
        match &mut self.acc {
            None => self.final_mean = Some(v),
            Some(acc) => {
                acc.record(now, v);
                self.final_mean = Some(acc.mean_until(now));
            }
        }
    }
}

/// Impulse reward: accumulates a value each time a specific activity fires.
#[derive(Debug)]
pub struct ImpulseReward {
    target: ActivityId,
    per_firing: f64,
    total: f64,
    count: u64,
}

impl ImpulseReward {
    /// Counts firings of `target`, adding `per_firing` to the total each
    /// time.
    #[must_use]
    pub fn new(target: ActivityId, per_firing: f64) -> Self {
        ImpulseReward {
            target,
            per_firing,
            total: 0.0,
            count: 0,
        }
    }

    /// Accumulated reward.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of firings of the target activity.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Clears the accumulated total and count for a fresh trajectory.
    pub fn reset(&mut self) {
        self.total = 0.0;
        self.count = 0;
    }
}

impl Observer for ImpulseReward {
    fn on_fire(&mut self, _now: SimTime, activity: ActivityId, _case: usize, _m: &Marking) {
        if activity == self.target {
            self.total += self.per_firing;
            self.count += 1;
        }
    }
}

/// First-passage reward: the first time a marking predicate holds.
///
/// This is the mechanism behind both *Time-To-Attack* (predicate = attack
/// success marking) and *Time-To-Security-Failure* (predicate = detection /
/// perceived-manifestation marking).
pub struct FirstPassage {
    pred: Box<dyn Fn(&Marking) -> bool + Send + Sync>,
    hit: Option<SimTime>,
}

impl std::fmt::Debug for FirstPassage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FirstPassage")
            .field("hit", &self.hit)
            .finish()
    }
}

impl FirstPassage {
    /// Creates a first-passage observer for `pred`.
    #[must_use]
    pub fn new<P>(pred: P) -> Self
    where
        P: Fn(&Marking) -> bool + Send + Sync + 'static,
    {
        FirstPassage {
            pred: Box::new(pred),
            hit: None,
        }
    }

    /// The first time the predicate held, if it ever did.
    #[must_use]
    pub fn time(&self) -> Option<SimTime> {
        self.hit
    }

    /// Whether the predicate ever held.
    #[must_use]
    pub fn reached(&self) -> bool {
        self.hit.is_some()
    }

    /// Forgets the recorded passage for a fresh trajectory.
    pub fn reset(&mut self) {
        self.hit = None;
    }
}

impl Observer for FirstPassage {
    fn on_marking(&mut self, now: SimTime, marking: &Marking) {
        if self.hit.is_none() && (self.pred)(marking) {
            self.hit = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::FiringDistribution;
    use crate::builder::SanBuilder;
    use crate::sim::Simulator;

    /// A place that gains one token per second for `n` seconds.
    fn counter_model(n: u32) -> crate::model::SanModel {
        let mut b = SanBuilder::new();
        let count = b.place("count", 0);
        let fuel = b.place("fuel", n);
        b.timed_activity("tick", FiringDistribution::Deterministic { delay: 1.0 })
            .input_arc(fuel, 1)
            .output_arc(count, 1)
            .build();
        b.build().unwrap()
    }

    #[test]
    fn rate_reward_time_average() {
        let model = counter_model(4);
        let count = model.place_by_name("count").unwrap();
        let mut reward = RateReward::new(move |m| f64::from(m.tokens(count)));
        let mut sim = Simulator::new(&model, 1);
        sim.run_until_observed(SimTime::from_secs(4.0), &mut reward);
        // count(t) = floor(t) on [0,4): time average = (0+1+2+3)/4 = 1.5.
        let mean = reward.mean().unwrap();
        assert!((mean - 1.5).abs() < 1e-9, "mean {mean}");
        assert_eq!(reward.current(), 4.0);
    }

    #[test]
    fn impulse_reward_counts_firings() {
        let model = counter_model(5);
        let tick = model.activity_by_name("tick").unwrap();
        let mut imp = ImpulseReward::new(tick, 2.0);
        let mut sim = Simulator::new(&model, 1);
        sim.run_until_observed(SimTime::from_secs(100.0), &mut imp);
        assert_eq!(imp.count(), 5);
        assert_eq!(imp.total(), 10.0);
    }

    #[test]
    fn first_passage_records_first_hit_only() {
        let model = counter_model(10);
        let count = model.place_by_name("count").unwrap();
        let mut fp = FirstPassage::new(move |m| m.tokens(count) >= 3);
        let mut sim = Simulator::new(&model, 1);
        sim.run_until_observed(SimTime::from_secs(100.0), &mut fp);
        assert_eq!(fp.time(), Some(SimTime::from_secs(3.0)));
        assert!(fp.reached());
    }

    #[test]
    fn first_passage_unreached_is_none() {
        let model = counter_model(2);
        let count = model.place_by_name("count").unwrap();
        let mut fp = FirstPassage::new(move |m| m.tokens(count) >= 5);
        let mut sim = Simulator::new(&model, 1);
        sim.run_until_observed(SimTime::from_secs(100.0), &mut fp);
        assert!(!fp.reached());
        assert_eq!(fp.time(), None);
    }

    #[test]
    fn rate_reward_with_zero_window() {
        // Model quiesces instantly (no enabled activities).
        let mut b = SanBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.instantaneous_activity("i")
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build();
        let model = b.build().unwrap();
        let mut reward = RateReward::new(move |m| f64::from(m.tokens(q)));
        let mut sim = Simulator::new(&model, 1);
        sim.run_until_observed(SimTime::from_secs(10.0), &mut reward);
        // Window is [0, 0]; mean should equal the (constant) value 1.
        assert_eq!(reward.mean(), Some(1.0));
    }
}
