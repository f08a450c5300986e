//! Discrete-event execution of a SAN (race policy with resampling).
//!
//! After every event the simulator settles the instantaneous activities
//! with an index-order scan, then reconciles every timed activity in
//! index order: a disabled one loses its scheduled completion, a newly
//! enabled one samples a delay. Index order fixes the RNG draw schedule,
//! so a `(model, seed)` pair determines the whole trajectory. The steady
//! state allocates nothing: scratch buffers live in a recyclable
//! [`SimState`], and case weights are precomputed at model build.

use crate::activity::ActivityTiming;
use crate::error::SanError;
use crate::model::{ActivityId, Marking, SanModel};
use crate::reward::Observer;
use diversify_des::{Calendar, EventToken, RngStream, SimTime, StreamId};

/// Maximum number of instantaneous firings allowed at a single instant
/// before the simulator reports a livelock.
const INSTANTANEOUS_LIMIT: u32 = 100_000;

/// RNG stream namespaces inside one replication.
const STREAM_DELAYS: u64 = 1;
const STREAM_CASES: u64 = 2;
const STREAM_INSTANT: u64 = 3;

/// Executes one trajectory of a [`SanModel`].
///
/// Execution policy:
///
/// * **Timed activities** race: each enabled activity holds a sampled
///   completion time; the earliest fires. An activity that becomes
///   disabled loses its sample; when re-enabled it samples afresh
///   (resampling / restart memory policy, the Möbius default).
/// * **Instantaneous activities** fire before any time elapses. When
///   several are enabled at once, one is chosen with probability
///   proportional to its weight, and the cascade repeats until no
///   instantaneous activity is enabled.
/// * **Cases** are selected with probability proportional to weight at
///   firing time.
pub struct Simulator<'m> {
    model: &'m SanModel,
    st: SimState,
    now: SimTime,
    delay_rng: RngStream,
    case_rng: RngStream,
    instant_rng: RngStream,
    firings: u64,
    error: Option<SanError>,
}

/// The recyclable per-replication state of a [`Simulator`]: the marking,
/// the event calendar, the activity schedule and the cascade scratch —
/// everything that owns heap memory.
///
/// A Monte-Carlo loop creates one `SimState` per worker and threads it
/// through its replications:
///
/// ```
/// use diversify_san::{FiringDistribution, SanBuilder, SimState, Simulator};
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
/// let mut state = SimState::new(&model);
/// for seed in 0..100 {
///     let mut sim = Simulator::with_state(&model, seed, state);
///     sim.run_until(SimTime::from_secs(10.0));
///     state = sim.into_state(); // buffers survive for the next seed
/// }
/// ```
///
/// [`SimState::reset`] (called by [`Simulator::with_state`]) clears the
/// buffers without releasing their capacity, so after the first
/// replication over a given model the steady state allocates nothing
/// (`tests/zero_alloc.rs` asserts this).
pub struct SimState {
    marking: Marking,
    calendar: Calendar<ActivityId>,
    scheduled: Vec<Option<EventToken>>,
    /// Cascade scratch: the enabled instantaneous activities, in index
    /// order.
    enabled: Vec<usize>,
    /// Cascade scratch: their selection weights.
    weights: Vec<f64>,
}

impl std::fmt::Debug for SimState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimState")
            .field("marking", &self.marking)
            .field("pending_events", &self.calendar.len())
            .finish()
    }
}

impl SimState {
    /// State sized for `model`, in its initial marking.
    #[must_use]
    pub fn new(model: &SanModel) -> Self {
        let mut st = SimState {
            marking: Marking::new(Vec::new()),
            calendar: Calendar::new(),
            scheduled: Vec::new(),
            enabled: Vec::new(),
            weights: Vec::new(),
        };
        st.reset(model);
        st
    }

    /// Returns the state to `model`'s initial marking with an empty
    /// calendar and fresh scratch, reusing every buffer. After the state
    /// has been sized for a model once, resetting for that model (or any
    /// model no larger) allocates nothing.
    pub fn reset(&mut self, model: &SanModel) {
        model.copy_initial_marking(&mut self.marking);
        self.calendar.clear();
        self.scheduled.clear();
        self.scheduled.resize(model.activity_count(), None);
        self.enabled.clear();
        self.weights.clear();
    }
}

impl<'m> std::fmt::Debug for Simulator<'m> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("marking", &self.st.marking)
            .field("firings", &self.firings)
            .finish()
    }
}

impl<'m> Simulator<'m> {
    /// Creates a simulator in the model's initial marking with the given
    /// replication seed.
    #[must_use]
    pub fn new(model: &'m SanModel, seed: u64) -> Self {
        Simulator::with_state(model, seed, SimState::new(model))
    }

    /// Creates a simulator that recycles `state` — the workspace-reuse
    /// entry point for replication loops. The state is [`reset`] for
    /// `model`, so trajectories are bit-identical to a simulator built
    /// by [`Simulator::new`]; only the allocations differ. Reclaim the
    /// state with [`Simulator::into_state`] when the replication is
    /// done.
    ///
    /// [`reset`]: SimState::reset
    #[must_use]
    pub fn with_state(model: &'m SanModel, seed: u64, mut state: SimState) -> Self {
        state.reset(model);
        let mut sim = Simulator {
            model,
            st: state,
            now: SimTime::ZERO,
            delay_rng: RngStream::new(seed, StreamId(STREAM_DELAYS)),
            case_rng: RngStream::new(seed, StreamId(STREAM_CASES)),
            instant_rng: RngStream::new(seed, StreamId(STREAM_INSTANT)),
            firings: 0,
            error: None,
        };
        sim.settle_instantaneous(&mut crate::reward::NullObserver);
        sim.reconcile_schedules();
        sim
    }

    /// Consumes the simulator, handing its [`SimState`] back for reuse by
    /// the next replication.
    #[must_use]
    pub fn into_state(self) -> SimState {
        self.st
    }

    /// The current marking.
    #[must_use]
    pub fn marking(&self) -> &Marking {
        &self.st.marking
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total activity firings so far (timed + instantaneous).
    #[must_use]
    pub fn firings(&self) -> u64 {
        self.firings
    }

    /// The first execution error encountered, if any (e.g. an
    /// instantaneous livelock).
    #[must_use]
    pub fn error(&self) -> Option<&SanError> {
        self.error.as_ref()
    }

    /// Runs until `horizon` or until no activity is enabled.
    pub fn run_until(&mut self, horizon: SimTime) {
        self.run_until_observed(horizon, &mut crate::reward::NullObserver);
    }

    /// Runs until `horizon` (or quiescence), reporting marking changes and
    /// firings to `observer`.
    pub fn run_until_observed(&mut self, horizon: SimTime, observer: &mut dyn Observer) {
        observer.on_marking(self.now, &self.st.marking);
        while self.error.is_none() {
            let Some(next) = self.st.calendar.peek_time() else {
                // Quiescent: the marking is frozen, so transient rewards
                // over [0, horizon] are well-defined — advance the clock.
                if horizon.is_finite() {
                    self.now = self.now.max(horizon);
                }
                break;
            };
            if next > horizon {
                self.now = horizon;
                break;
            }
            self.step(observer);
            observer.on_marking(self.now, &self.st.marking);
        }
        observer.on_end(self.now, &self.st.marking);
    }

    /// Runs until `pred` holds on the marking, the horizon passes, or the
    /// network quiesces. Returns the time at which the predicate first
    /// held, if it did.
    pub fn run_until_condition<P>(&mut self, horizon: SimTime, pred: P) -> Option<SimTime>
    where
        P: Fn(&Marking) -> bool,
    {
        if pred(&self.st.marking) {
            return Some(self.now);
        }
        while self.error.is_none() {
            let next = self.st.calendar.peek_time()?;
            if next > horizon {
                self.now = horizon;
                return None;
            }
            self.step(&mut crate::reward::NullObserver);
            if pred(&self.st.marking) {
                return Some(self.now);
            }
        }
        None
    }

    /// Fires the calendar's earliest event, settles the instantaneous
    /// cascade it starts and reconciles the timed schedule.
    fn step(&mut self, observer: &mut dyn Observer) {
        let (time, activity) = self.st.calendar.pop().expect("peeked event exists");
        self.now = time;
        self.st.scheduled[activity.index()] = None;
        // Every event ends with a reconciliation, so the calendar only
        // ever holds activities enabled in the current marking.
        debug_assert!(self.model.is_enabled(activity, &self.st.marking));
        self.fire(activity, observer);
        self.settle_instantaneous(observer);
        self.reconcile_schedules();
    }

    /// Fires one activity: consume inputs, apply gates, select a case,
    /// apply outputs. Allocation-free: case weights come from the model's
    /// precomputed table.
    fn fire(&mut self, activity: ActivityId, observer: &mut dyn Observer) {
        let a = self.model.activity(activity);
        for &(p, n) in &a.input_arcs {
            self.st.marking.remove_tokens(p, n);
        }
        for g in &a.input_gates {
            (g.effect)(&mut self.st.marking);
        }
        let case_idx = if a.cases.len() == 1 {
            0
        } else {
            self.case_rng.discrete(a.case_weights())
        };
        let case = &a.cases[case_idx];
        for &(p, n) in &case.output_arcs {
            self.st.marking.add_tokens(p, n);
        }
        for g in &case.output_gates {
            (g.effect)(&mut self.st.marking);
        }
        self.firings += 1;
        observer.on_fire(self.now, activity, case_idx, &self.st.marking);
    }

    /// Fires enabled instantaneous activities until none remain (or the
    /// livelock limit trips). Each step scans the activities in index
    /// order into the reused `enabled`/`weights` scratch.
    fn settle_instantaneous(&mut self, observer: &mut dyn Observer) {
        let model = self.model;
        let mut count = 0u32;
        loop {
            self.st.enabled.clear();
            self.st.weights.clear();
            for (idx, a) in model.activities.iter().enumerate() {
                if let ActivityTiming::Instantaneous { weight } = a.timing {
                    if model.is_enabled(ActivityId(idx), &self.st.marking) {
                        self.st.enabled.push(idx);
                        self.st.weights.push(weight);
                    }
                }
            }
            if self.st.enabled.is_empty() {
                return;
            }
            count += 1;
            if count > INSTANTANEOUS_LIMIT {
                self.error = Some(SanError::InstantaneousLivelock {
                    limit: INSTANTANEOUS_LIMIT,
                });
                return;
            }
            let pick = if self.st.enabled.len() == 1 {
                0
            } else {
                self.instant_rng.discrete(&self.st.weights)
            };
            self.fire(ActivityId(self.st.enabled[pick]), observer);
        }
    }

    /// Brings the timed-activity schedule in line with the current
    /// marking, in activity-index order: cancel the disabled, sample the
    /// newly enabled.
    fn reconcile_schedules(&mut self) {
        let model = self.model;
        for (idx, a) in model.activities.iter().enumerate() {
            let ActivityTiming::Timed(dist) = &a.timing else {
                continue;
            };
            let id = ActivityId(idx);
            let enabled = model.is_enabled(id, &self.st.marking);
            match (enabled, self.st.scheduled[idx]) {
                (true, None) => {
                    let delay = dist.sample(&mut self.delay_rng);
                    let token = self
                        .st
                        .calendar
                        .push(self.now + SimTime::from_secs(delay), id);
                    self.st.scheduled[idx] = Some(token);
                }
                (false, Some(token)) => {
                    self.st.calendar.cancel(token);
                    self.st.scheduled[idx] = None;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::FiringDistribution;
    use crate::builder::SanBuilder;

    /// initial --activate--> activated --escalate--> root
    fn chain_model() -> SanModel {
        let mut b = SanBuilder::new();
        let initial = b.place("initial", 1);
        let activated = b.place("activated", 0);
        let root = b.place("root", 0);
        b.timed_activity("activate", FiringDistribution::Deterministic { delay: 1.0 })
            .input_arc(initial, 1)
            .output_arc(activated, 1)
            .build();
        b.timed_activity("escalate", FiringDistribution::Deterministic { delay: 2.0 })
            .input_arc(activated, 1)
            .output_arc(root, 1)
            .build();
        b.build().unwrap()
    }

    #[test]
    fn deterministic_chain_completes_at_three_seconds() {
        let model = chain_model();
        let mut sim = Simulator::new(&model, 1);
        let root = model.place_by_name("root").unwrap();
        let t = sim.run_until_condition(SimTime::from_secs(100.0), |m| m.tokens(root) == 1);
        assert_eq!(t, Some(SimTime::from_secs(3.0)));
        assert_eq!(sim.firings(), 2);
    }

    #[test]
    fn quiescence_advances_clock_to_horizon() {
        let model = chain_model();
        let mut sim = Simulator::new(&model, 1);
        sim.run_until(SimTime::from_secs(1e9));
        // After both firings nothing is enabled; the transient window still
        // extends to the horizon.
        assert_eq!(sim.now(), SimTime::from_secs(1e9));
        assert_eq!(sim.firings(), 2);
    }

    #[test]
    fn horizon_cuts_run_short() {
        let model = chain_model();
        let mut sim = Simulator::new(&model, 1);
        sim.run_until(SimTime::from_secs(1.5));
        let activated = model.place_by_name("activated").unwrap();
        let root = model.place_by_name("root").unwrap();
        assert_eq!(sim.marking().tokens(activated), 1);
        assert_eq!(sim.marking().tokens(root), 0);
        assert_eq!(sim.now(), SimTime::from_secs(1.5));
    }

    #[test]
    fn case_distribution_frequencies() {
        // One activity with a 0.8/0.2 case split, repeated via a self-loop.
        let mut b = SanBuilder::new();
        let tok = b.place("tok", 1);
        let heads = b.place("heads", 0);
        let tails = b.place("tails", 0);
        b.timed_activity("flip", FiringDistribution::Deterministic { delay: 1.0 })
            .input_arc(tok, 1)
            .case(0.8, vec![(heads, 1), (tok, 1)])
            .case(0.2, vec![(tails, 1), (tok, 1)])
            .build();
        let model = b.build().unwrap();
        let mut sim = Simulator::new(&model, 99);
        sim.run_until(SimTime::from_secs(10_000.5));
        let h = sim.marking().tokens(heads) as f64;
        let t = sim.marking().tokens(tails) as f64;
        let frac = h / (h + t);
        assert!((frac - 0.8).abs() < 0.02, "heads fraction {frac}");
    }

    #[test]
    fn instantaneous_cascade_fires_at_time_zero() {
        let mut b = SanBuilder::new();
        let a = b.place("a", 1);
        let c = b.place("c", 0);
        let d = b.place("d", 0);
        b.instantaneous_activity("i1")
            .input_arc(a, 1)
            .output_arc(c, 1)
            .build();
        b.instantaneous_activity("i2")
            .input_arc(c, 1)
            .output_arc(d, 1)
            .build();
        let model = b.build().unwrap();
        let sim = Simulator::new(&model, 5);
        assert_eq!(sim.marking().tokens(d), 1);
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.firings(), 2);
    }

    #[test]
    fn instantaneous_livelock_detected() {
        // i: a -> a, always enabled: classic zero-time loop.
        let mut b = SanBuilder::new();
        let a = b.place("a", 1);
        b.instantaneous_activity("loop")
            .input_arc(a, 1)
            .output_arc(a, 1)
            .build();
        let model = b.build().unwrap();
        let sim = Simulator::new(&model, 5);
        assert!(matches!(
            sim.error(),
            Some(SanError::InstantaneousLivelock { .. })
        ));
    }

    #[test]
    fn disabled_activity_is_cancelled() {
        // Two activities compete for one token; only one fires.
        let mut b = SanBuilder::new();
        let src = b.place("src", 1);
        let fast = b.place("fast", 0);
        let slow = b.place("slow", 0);
        b.timed_activity("f", FiringDistribution::Deterministic { delay: 1.0 })
            .input_arc(src, 1)
            .output_arc(fast, 1)
            .build();
        b.timed_activity("s", FiringDistribution::Deterministic { delay: 2.0 })
            .input_arc(src, 1)
            .output_arc(slow, 1)
            .build();
        let model = b.build().unwrap();
        let mut sim = Simulator::new(&model, 1);
        sim.run_until(SimTime::from_secs(10.0));
        assert_eq!(sim.marking().tokens(fast), 1);
        assert_eq!(sim.marking().tokens(slow), 0);
        assert_eq!(sim.firings(), 1);
    }

    #[test]
    fn exponential_race_probabilities() {
        // Two exponential activities racing for a token: P(fast wins) =
        // λf / (λf + λs) = 3/(3+1) = 0.75. Token regenerates so the race
        // repeats.
        let mut b = SanBuilder::new();
        let src = b.place("src", 1);
        let fwin = b.place("fwin", 0);
        let swin = b.place("swin", 0);
        b.timed_activity("f", FiringDistribution::Exponential { rate: 3.0 })
            .input_arc(src, 1)
            .output_arc(fwin, 1)
            .output_arc(src, 1)
            .build();
        b.timed_activity("s", FiringDistribution::Exponential { rate: 1.0 })
            .input_arc(src, 1)
            .output_arc(swin, 1)
            .output_arc(src, 1)
            .build();
        let model = b.build().unwrap();
        let mut sim = Simulator::new(&model, 7);
        sim.run_until(SimTime::from_secs(5000.0));
        let f = sim.marking().tokens(fwin) as f64;
        let s = sim.marking().tokens(swin) as f64;
        let frac = f / (f + s);
        assert!((frac - 0.75).abs() < 0.02, "fast fraction {frac}");
    }

    #[test]
    fn reproducible_per_seed() {
        let model = chain_model();
        let run = |seed: u64| {
            let mut sim = Simulator::new(&model, seed);
            sim.run_until(SimTime::from_secs(100.0));
            (sim.now(), sim.firings())
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn gate_effects_apply_on_fire() {
        // Input gate consumes *all* tokens of a place on firing.
        let mut b = SanBuilder::new();
        let pool = b.place("pool", 7);
        let done = b.place("done", 0);
        b.timed_activity("drain", FiringDistribution::Deterministic { delay: 1.0 })
            .input_gate(move |m| m.tokens(pool) > 0, move |m| m.set_tokens(pool, 0))
            .output_arc(done, 1)
            .build();
        let model = b.build().unwrap();
        let mut sim = Simulator::new(&model, 1);
        sim.run_until(SimTime::from_secs(10.0));
        assert_eq!(sim.marking().tokens(pool), 0);
        assert_eq!(sim.marking().tokens(done), 1);
    }

    #[test]
    fn source_activity_without_inputs_keeps_firing() {
        // An always-enabled timed source: the fired activity itself must
        // be rescheduled after each firing.
        let mut b = SanBuilder::new();
        let sink = b.place("sink", 0);
        b.timed_activity("tick", FiringDistribution::Deterministic { delay: 1.0 })
            .output_arc(sink, 1)
            .build();
        let model = b.build().unwrap();
        let mut sim = Simulator::new(&model, 3);
        sim.run_until(SimTime::from_secs(10.5));
        assert_eq!(sim.marking().tokens(sink), 10);
    }
}
