//! Breadth-first reachability exploration of a SAN into an exact CTMC.
//!
//! When every timed activity is exponential, a SAN is a continuous-time
//! Markov chain over its reachable markings. [`explore`] enumerates the
//! *tangible* markings (those with no instantaneous activity enabled),
//! collapsing zero-time instantaneous cascades by **vanishing-state
//! elimination**: each timed firing is expanded into a probability
//! distribution over the tangible markings its cascade can settle in,
//! and the branch probabilities multiply into the transition rates.
//!
//! The result is a sparse infinitesimal generator in CSR form plus the
//! initial tangible distribution — exactly what the
//! [`ctmc`](crate::ctmc) solvers consume. Exploration is capped by
//! [`ExploreOptions::max_states`] so models with unbounded or huge
//! reachability sets fail fast with [`SanError::StateSpaceCap`] instead
//! of exhausting memory; such models route to the Monte-Carlo backend.

use crate::activity::ActivityTiming;
use crate::error::SanError;
use crate::model::{ActivityId, Marking, SanModel};
use crate::FiringDistribution;
use std::collections::HashMap;
use std::rc::Rc;

/// Limits for [`explore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreOptions {
    /// Maximum number of tangible states before exploration aborts with
    /// [`SanError::StateSpaceCap`].
    pub max_states: usize,
    /// Maximum instantaneous-cascade depth per firing. Genuine zero-time
    /// loops are caught exactly (a marking revisited within one cascade);
    /// this bound only guards cascades whose markings grow without ever
    /// repeating. The default matches the simulator's
    /// instantaneous-livelock limit, so the two backends agree on which
    /// deep-but-finite cascades are valid.
    pub max_vanishing_depth: u32,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 100_000,
            max_vanishing_depth: 100_000,
        }
    }
}

/// The reachable tangible state space of an all-exponential SAN, with its
/// sparse infinitesimal generator.
///
/// Row `i` of the generator holds the off-diagonal rates `q_ij` (CSR);
/// the diagonal is implied: `q_ii = -exit_rate(i)`. Self-loop jump rates
/// (a firing whose cascade settles back in the same marking) carry no
/// probability flow and are kept separately for diagnostics — together
/// with the off-diagonal row sum they reconstruct the total exponential
/// rate enabled in the state, which is what the generator-consistency
/// property tests check.
#[derive(Debug)]
pub struct StateSpace {
    states: Vec<Marking>,
    initial: Vec<(usize, f64)>,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    rates: Vec<f64>,
    exit: Vec<f64>,
    self_rate: Vec<f64>,
    tracked: Vec<ActivityId>,
    /// `impulse[s][k]`: expected firings of `tracked[k]` per unit time in
    /// state `s` (timed firings plus the instantaneous firings their
    /// cascades trigger).
    impulse: Vec<Vec<f64>>,
}

impl StateSpace {
    /// Number of tangible states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The marking of tangible state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn state(&self, i: usize) -> &Marking {
        &self.states[i]
    }

    /// The initial probability distribution over tangible states (the
    /// model's initial marking with any instantaneous cascade resolved).
    /// Probabilities sum to 1.
    #[must_use]
    pub fn initial(&self) -> &[(usize, f64)] {
        &self.initial
    }

    /// Off-diagonal generator row `i` as `(target state, rate)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn transitions(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.cols[lo..hi]
            .iter()
            .zip(&self.rates[lo..hi])
            .map(|(&c, &r)| (c, r))
    }

    /// Total off-diagonal rate out of state `i` (`-q_ii`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn exit_rate(&self, i: usize) -> f64 {
        self.exit[i]
    }

    /// Rate of jumps from state `i` that settle back in state `i` (e.g. a
    /// failed attempt that returns its token). These carry no probability
    /// flow and are excluded from the generator.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn self_loop_rate(&self, i: usize) -> f64 {
        self.self_rate[i]
    }

    /// The activities whose firing intensities were tracked during
    /// exploration (for impulse rewards).
    #[must_use]
    pub fn tracked(&self) -> &[ActivityId] {
        &self.tracked
    }

    /// Expected firings per unit time of tracked activity `k` while the
    /// chain sojourns in state `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `k` is out of range.
    #[must_use]
    pub fn impulse_intensity(&self, i: usize, k: usize) -> f64 {
        self.impulse[i][k]
    }

    /// Dense CSR view `(row_ptr, cols, rates, exit_rates)` for solvers.
    #[must_use]
    pub fn generator(&self) -> (&[usize], &[usize], &[f64], &[f64]) {
        (&self.row_ptr, &self.cols, &self.rates, &self.exit)
    }
}

/// One resolved branch of a vanishing cascade: a tangible marking, the
/// probability of settling there, and how often each tracked activity
/// fired on the way.
struct Branch {
    marking: Marking,
    prob: f64,
    counts: Vec<f64>,
}

/// Fires `activity`/`case` on a copy of `marking` (input arcs, input-gate
/// effects, output arcs, output gates) — the simulator's firing semantics
/// without time or randomness.
fn apply_firing(
    model: &SanModel,
    activity: ActivityId,
    case_idx: usize,
    marking: &Marking,
) -> Marking {
    let a = model.activity(activity);
    let mut m = marking.clone();
    for &(p, n) in &a.input_arcs {
        m.remove_tokens(p, n);
    }
    for g in &a.input_gates {
        (g.effect)(&mut m);
    }
    let case = &a.cases[case_idx];
    for &(p, n) in &case.output_arcs {
        m.add_tokens(p, n);
    }
    for g in &case.output_gates {
        (g.effect)(&mut m);
    }
    m
}

/// Cache slot for one vanishing (or tangible) marking's settling
/// distribution.
enum Settled {
    /// Currently on the recursion stack: reaching it again is a genuine
    /// zero-time loop.
    InProgress,
    /// Fully resolved: the distribution over tangible markings, with
    /// expected tracked-firing counts *from this marking onward*.
    Done(Rc<Vec<Branch>>),
}

/// Vanishing-state elimination context: resolves the instantaneous
/// cascade reachable from a marking into a distribution over tangible
/// markings.
///
/// Settling distributions are memoized per marking — concurrent
/// instantaneous activities would otherwise expand every interleaving
/// (factorial in the number of simultaneously enabled activities), and
/// the in-progress markers double as exact zero-time-loop detection.
struct Resolver<'a> {
    model: &'a SanModel,
    tracked: &'a [ActivityId],
    max_depth: u32,
    cache: HashMap<Vec<u32>, Settled>,
}

/// One suspended cascade marking on the explicit DFS stack: the marking
/// being eliminated, the instantaneous activities enabled in it, the
/// `(activity, case)` edge currently being expanded, and the branches
/// accumulated so far.
struct Frame {
    key: Vec<u32>,
    marking: Marking,
    enabled: Vec<ActivityId>,
    total_weight: f64,
    /// Index into `enabled` of the edge being expanded.
    ai: usize,
    /// Case index of the edge being expanded.
    ci: usize,
    acc: Vec<Branch>,
    slot_of: HashMap<Vec<u32>, usize>,
}

impl Frame {
    /// Moves to the next `(activity, case)` edge.
    fn advance(&mut self, model: &SanModel) {
        self.ci += 1;
        if self.ci >= model.activity(self.enabled[self.ai]).case_weights().len() {
            self.ci = 0;
            self.ai += 1;
        }
    }

    /// Folds a fully settled child distribution into the accumulator with
    /// edge probability `p_branch`, merging duplicate tangible markings:
    /// probabilities add, counts combine probability-weighted so
    /// Σ prob·counts (all the impulse math uses) is preserved.
    /// `tracked_idx` is the fired activity's slot in the tracked list.
    fn merge(&mut self, child: &[Branch], p_branch: f64, tracked_idx: Option<usize>) {
        for b in child {
            let p = p_branch * b.prob;
            let count_of = |k: usize| b.counts[k] + f64::from(tracked_idx == Some(k));
            match self.slot_of.get(b.marking.as_slice()) {
                Some(&i) => {
                    let e = &mut self.acc[i];
                    for k in 0..e.counts.len() {
                        e.counts[k] = (e.counts[k] * e.prob + count_of(k) * p) / (e.prob + p);
                    }
                    e.prob += p;
                }
                None => {
                    self.slot_of
                        .insert(b.marking.as_slice().to_vec(), self.acc.len());
                    self.acc.push(Branch {
                        marking: b.marking.clone(),
                        prob: p,
                        counts: (0..b.counts.len()).map(count_of).collect(),
                    });
                }
            }
        }
    }
}

/// Either an immediately settled marking (tangible, or cache hit) or a
/// new frame to expand.
enum Opened {
    Done(Rc<Vec<Branch>>),
    Frame(Box<Frame>),
}

impl Resolver<'_> {
    /// Prepares `marking` for elimination: tangible markings settle to
    /// themselves immediately; vanishing markings become a frame and are
    /// marked in-progress. Assumes the marking is not in the cache.
    fn open(&mut self, marking: Marking) -> Opened {
        let model = self.model;
        let key = marking.as_slice().to_vec();
        let enabled: Vec<ActivityId> = model
            .activity_ids()
            .filter(|&a| model.activity(a).is_instantaneous() && model.is_enabled(a, &marking))
            .collect();
        if enabled.is_empty() {
            let done = Rc::new(vec![Branch {
                marking,
                prob: 1.0,
                counts: vec![0.0; self.tracked.len()],
            }]);
            self.cache.insert(key, Settled::Done(Rc::clone(&done)));
            return Opened::Done(done);
        }
        self.cache.insert(key.clone(), Settled::InProgress);
        let total_weight: f64 = enabled
            .iter()
            .map(|&a| {
                model
                    .activity(a)
                    .instantaneous_weight()
                    .expect("filtered to instantaneous")
            })
            .sum();
        Opened::Frame(Box::new(Frame {
            key,
            marking,
            enabled,
            total_weight,
            ai: 0,
            ci: 0,
            acc: Vec::new(),
            slot_of: HashMap::new(),
        }))
    }

    /// Resolves the cascade from `marking` into its settling
    /// distribution: `(tangible marking, probability, expected tracked
    /// firings on the way)` branches summing to probability 1.
    ///
    /// Iterative depth-first elimination with an explicit stack, so
    /// cascade depth is bounded by `max_depth` rather than the thread
    /// stack.
    fn settle(&mut self, marking: Marking) -> Result<Rc<Vec<Branch>>, SanError> {
        let model = self.model;
        if let Some(Settled::Done(r)) = self.cache.get(marking.as_slice()) {
            return Ok(Rc::clone(r));
        }
        let mut stack: Vec<Box<Frame>> = match self.open(marking) {
            Opened::Done(done) => return Ok(done),
            Opened::Frame(f) => vec![f],
        };
        loop {
            let depth = stack.len() as u32;
            let frame = stack.last_mut().expect("loop invariant: non-empty stack");
            if frame.ai >= frame.enabled.len() {
                // Every edge expanded: this marking is settled.
                let frame = stack.pop().expect("frame just inspected");
                let done = Rc::new(frame.acc);
                self.cache
                    .insert(frame.key, Settled::Done(Rc::clone(&done)));
                let Some(parent) = stack.last_mut() else {
                    return Ok(done);
                };
                let (p_branch, tracked_idx) = self.edge(parent);
                parent.merge(&done, p_branch, tracked_idx);
                parent.advance(model);
                continue;
            }
            let a = frame.enabled[frame.ai];
            let act = model.activity(a);
            let case_total: f64 = act.case_weights().iter().sum();
            if act.case_weights()[frame.ci] / case_total == 0.0 {
                frame.advance(model);
                continue;
            }
            let next = apply_firing(model, a, frame.ci, &frame.marking);
            match self.cache.get(next.as_slice()) {
                Some(Settled::Done(r)) => {
                    let child = Rc::clone(r);
                    let (p_branch, tracked_idx) = self.edge(frame);
                    frame.merge(&child, p_branch, tracked_idx);
                    frame.advance(model);
                }
                Some(Settled::InProgress) => {
                    // The cascade re-entered a marking still being
                    // eliminated: a genuine zero-time loop.
                    return Err(SanError::VanishingLoop { depth });
                }
                None => {
                    if depth >= self.max_depth {
                        return Err(SanError::VanishingLoop {
                            depth: self.max_depth,
                        });
                    }
                    match self.open(next) {
                        Opened::Done(child) => {
                            let (p_branch, tracked_idx) = self.edge(frame);
                            frame.merge(&child, p_branch, tracked_idx);
                            frame.advance(model);
                        }
                        Opened::Frame(f) => stack.push(f),
                    }
                }
            }
        }
    }

    /// Probability and tracked-slot of the frame's current edge.
    fn edge(&self, frame: &Frame) -> (f64, Option<usize>) {
        let a = frame.enabled[frame.ai];
        let act = self.model.activity(a);
        let weight = act
            .instantaneous_weight()
            .expect("enabled holds instantaneous activities");
        let case_total: f64 = act.case_weights().iter().sum();
        let p_branch = (weight / frame.total_weight) * (act.case_weights()[frame.ci] / case_total);
        let tracked_idx = self.tracked.iter().position(|&t| t == a);
        (p_branch, tracked_idx)
    }
}

/// Explores the tangible reachable state space of `model` and assembles
/// its sparse infinitesimal generator.
///
/// `tracked` names the activities whose firing intensities the caller
/// needs (impulse rewards); pass `&[]` when none are needed.
///
/// # Errors
///
/// * [`SanError::NotExponential`] — a timed activity has a non-exponential
///   firing distribution (the model is not a CTMC).
/// * [`SanError::StateSpaceCap`] — more than
///   [`ExploreOptions::max_states`] tangible states are reachable.
/// * [`SanError::VanishingLoop`] — instantaneous activities form a
///   zero-time loop.
pub fn explore(
    model: &SanModel,
    tracked: &[ActivityId],
    options: ExploreOptions,
) -> Result<StateSpace, SanError> {
    // Gather (activity, rate) for every timed activity up front; reject
    // non-exponential timing before any exploration work.
    let mut timed: Vec<(ActivityId, f64)> = Vec::new();
    for idx in 0..model.activity_count() {
        let id = ActivityId(idx);
        match model.activity(id).timing {
            ActivityTiming::Instantaneous { .. } => {}
            ActivityTiming::Timed(FiringDistribution::Exponential { rate }) => {
                timed.push((id, rate));
            }
            ActivityTiming::Timed(_) => {
                return Err(SanError::NotExponential {
                    activity: model.activity(id).name.clone(),
                });
            }
        }
    }

    let mut space = StateSpace {
        states: Vec::new(),
        initial: Vec::new(),
        row_ptr: vec![0],
        cols: Vec::new(),
        rates: Vec::new(),
        exit: Vec::new(),
        self_rate: Vec::new(),
        tracked: tracked.to_vec(),
        impulse: Vec::new(),
    };
    let mut index: HashMap<Vec<u32>, usize> = HashMap::new();
    let intern = |space: &mut StateSpace,
                  index: &mut HashMap<Vec<u32>, usize>,
                  m: Marking|
     -> Result<usize, SanError> {
        let key = m.as_slice().to_vec();
        if let Some(&i) = index.get(&key) {
            return Ok(i);
        }
        if space.states.len() >= options.max_states {
            return Err(SanError::StateSpaceCap {
                cap: options.max_states,
            });
        }
        let i = space.states.len();
        index.insert(key, i);
        space.states.push(m);
        Ok(i)
    };

    // Resolve the initial marking's cascade into the initial tangible
    // distribution. Firing counts during this settling are discarded —
    // the Monte-Carlo solver attaches its observers only after the
    // simulator's constructor has settled, so impulse semantics match.
    let mut resolver = Resolver {
        model,
        tracked,
        max_depth: options.max_vanishing_depth,
        cache: HashMap::new(),
    };
    let initial_branches = resolver.settle(model.initial_marking())?;
    let mut initial_acc: HashMap<usize, f64> = HashMap::new();
    for b in initial_branches.iter() {
        let i = intern(&mut space, &mut index, b.marking.clone())?;
        *initial_acc.entry(i).or_insert(0.0) += b.prob;
    }
    let mut initial: Vec<(usize, f64)> = initial_acc.into_iter().collect();
    initial.sort_unstable_by_key(|&(i, _)| i);
    space.initial = initial;

    // Breadth-first expansion; states are expanded in index order, so the
    // CSR rows are emitted in order too.
    let mut frontier = 0usize;
    let mut row: Vec<(usize, f64)> = Vec::new();
    while frontier < space.states.len() {
        row.clear();
        let mut self_rate = 0.0;
        let mut impulse_row = vec![0.0; tracked.len()];
        let marking = space.states[frontier].clone();
        for &(id, rate) in &timed {
            if !model.is_enabled(id, &marking) {
                continue;
            }
            let act = model.activity(id);
            let case_total: f64 = act.case_weights().iter().sum();
            let tracked_idx = tracked.iter().position(|&t| t == id);
            for (ci, &cw) in act.case_weights().iter().enumerate() {
                let p_case = cw / case_total;
                if p_case == 0.0 {
                    continue;
                }
                let fired = apply_firing(model, id, ci, &marking);
                let settled = resolver.settle(fired)?;
                for b in settled.iter() {
                    let r = rate * p_case * b.prob;
                    let j = intern(&mut space, &mut index, b.marking.clone())?;
                    if j == frontier {
                        self_rate += r;
                    } else {
                        row.push((j, r));
                    }
                    for (k, c) in b.counts.iter().enumerate() {
                        impulse_row[k] += r * c;
                    }
                }
            }
            if let Some(k) = tracked_idx {
                // The timed firing itself, independent of case and branch.
                impulse_row[k] += rate;
            }
        }
        // Merge duplicate targets and append the CSR row.
        row.sort_unstable_by_key(|&(j, _)| j);
        let mut exit = 0.0;
        let mut last: Option<usize> = None;
        for &(j, r) in &row {
            exit += r;
            if last == Some(j) {
                *space.rates.last_mut().expect("row entry exists") += r;
            } else {
                space.cols.push(j);
                space.rates.push(r);
                last = Some(j);
            }
        }
        space.row_ptr.push(space.cols.len());
        space.exit.push(exit);
        space.self_rate.push(self_rate);
        space.impulse.push(impulse_row);
        frontier += 1;
    }
    Ok(space)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SanBuilder;

    /// up --Exp(2)--> down, down --Exp(3)--> up.
    fn two_state() -> SanModel {
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
        b.build().unwrap()
    }

    #[test]
    fn two_state_generator() {
        let model = two_state();
        let ss = explore(&model, &[], ExploreOptions::default()).unwrap();
        assert_eq!(ss.state_count(), 2);
        assert_eq!(ss.initial(), &[(0, 1.0)]);
        let t0: Vec<_> = ss.transitions(0).collect();
        assert_eq!(t0, vec![(1, 2.0)]);
        let t1: Vec<_> = ss.transitions(1).collect();
        assert_eq!(t1, vec![(0, 3.0)]);
        assert_eq!(ss.exit_rate(0), 2.0);
        assert_eq!(ss.exit_rate(1), 3.0);
    }

    #[test]
    fn case_split_divides_rate() {
        // src --Exp(4), cases {0.75 -> a, 0.25 -> b}.
        let mut b = SanBuilder::new();
        let src = b.place("src", 1);
        let pa = b.place("a", 0);
        let pb = b.place("b", 0);
        b.timed_activity("t", FiringDistribution::Exponential { rate: 4.0 })
            .input_arc(src, 1)
            .case(0.75, vec![(pa, 1)])
            .case(0.25, vec![(pb, 1)])
            .build();
        let model = b.build().unwrap();
        let ss = explore(&model, &[], ExploreOptions::default()).unwrap();
        assert_eq!(ss.state_count(), 3);
        let t0: Vec<_> = ss.transitions(0).collect();
        assert_eq!(t0.len(), 2);
        let total: f64 = t0.iter().map(|&(_, r)| r).sum();
        assert!((total - 4.0).abs() < 1e-12);
        assert!((t0[0].1 - 3.0).abs() < 1e-12);
        assert!((t0[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_loop_case_leaves_generator() {
        // Failed attempts return the token: rate p*λ forward, (1-p)*λ as
        // a self-loop that must not enter the generator.
        let mut b = SanBuilder::new();
        let s0 = b.place("s0", 1);
        let s1 = b.place("s1", 0);
        b.timed_activity("try", FiringDistribution::Exponential { rate: 2.0 })
            .input_arc(s0, 1)
            .case(0.25, vec![(s1, 1)])
            .case(0.75, vec![(s0, 1)])
            .build();
        let model = b.build().unwrap();
        let ss = explore(&model, &[], ExploreOptions::default()).unwrap();
        assert_eq!(ss.state_count(), 2);
        assert!((ss.exit_rate(0) - 0.5).abs() < 1e-12);
        assert!((ss.self_loop_rate(0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn vanishing_states_are_eliminated() {
        // pump moves a token into a stage place where two instantaneous
        // routes (weights 3 and 1) race; tangible states never hold a
        // stage token.
        let mut b = SanBuilder::new();
        let fuel = b.place("fuel", 1);
        let stage = b.place("stage", 0);
        let out_a = b.place("out_a", 0);
        let out_b = b.place("out_b", 0);
        b.timed_activity("pump", FiringDistribution::Exponential { rate: 1.0 })
            .input_arc(fuel, 1)
            .output_arc(stage, 1)
            .build();
        b.instantaneous_activity("route_a")
            .input_arc(stage, 1)
            .output_arc(out_a, 1)
            .build();
        b.instantaneous_activity("route_b")
            .input_arc(stage, 1)
            .output_arc(out_b, 1)
            .build();
        let model = b.build().unwrap();
        let ss = explore(&model, &[], ExploreOptions::default()).unwrap();
        let stage_id = model.place_by_name("stage").unwrap();
        for i in 0..ss.state_count() {
            assert_eq!(ss.state(i).tokens(stage_id), 0, "state {i} is vanishing");
        }
        // fuel -> {out_a, out_b} each at rate 0.5.
        let t0: Vec<_> = ss.transitions(0).collect();
        assert_eq!(t0.len(), 2);
        assert!((t0[0].1 - 0.5).abs() < 1e-12);
        assert!((t0[1].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn non_exponential_rejected() {
        let mut b = SanBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.timed_activity("t", FiringDistribution::Deterministic { delay: 1.0 })
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build();
        let model = b.build().unwrap();
        assert!(matches!(
            explore(&model, &[], ExploreOptions::default()),
            Err(SanError::NotExponential { .. })
        ));
    }

    #[test]
    fn state_cap_enforced() {
        // An unbounded counter: tokens accumulate forever.
        let mut b = SanBuilder::new();
        let sink = b.place("sink", 0);
        b.timed_activity("tick", FiringDistribution::Exponential { rate: 1.0 })
            .output_arc(sink, 1)
            .build();
        let model = b.build().unwrap();
        let err = explore(
            &model,
            &[],
            ExploreOptions {
                max_states: 50,
                ..ExploreOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, SanError::StateSpaceCap { cap: 50 });
    }

    #[test]
    fn concurrent_instantaneous_settle_in_polynomial_time() {
        // One timed firing enables 12 independent instantaneous movers at
        // once. Without memoized settling this expands 12! ≈ 4.8e8
        // interleavings; with it, only the 2^12 distinct vanishing
        // markings are visited.
        let k = 12usize;
        let mut b = SanBuilder::new();
        let src = b.place("src", 1);
        let stages: Vec<_> = (0..k).map(|i| b.place(format!("stage{i}"), 0)).collect();
        let outs: Vec<_> = (0..k).map(|i| b.place(format!("out{i}"), 0)).collect();
        let mut fire = b.timed_activity("go", FiringDistribution::Exponential { rate: 1.0 });
        fire = fire.input_arc(src, 1);
        for &s in &stages {
            fire = fire.output_arc(s, 1);
        }
        fire.build();
        for i in 0..k {
            b.instantaneous_activity(format!("route{i}"))
                .input_arc(stages[i], 1)
                .output_arc(outs[i], 1)
                .build();
        }
        let model = b.build().unwrap();
        let ss = explore(&model, &[], ExploreOptions::default()).unwrap();
        // src-held and all-routed: two tangible states, one transition.
        assert_eq!(ss.state_count(), 2);
        let t0: Vec<_> = ss.transitions(0).collect();
        assert_eq!(t0.len(), 1);
        assert_eq!(t0[0].0, 1);
        assert!((t0[0].1 - 1.0).abs() < 1e-12, "rate {}", t0[0].1);
    }

    #[test]
    fn deep_finite_cascade_is_not_a_loop() {
        // A 1500-hop instantaneous chain: deeper than the old 1000-step
        // bound but loop-free; both backends must accept it (the
        // simulator's livelock limit is 100k firings).
        let n = 1_500usize;
        let mut b = SanBuilder::new();
        let hops: Vec<_> = (0..=n)
            .map(|i| b.place(format!("h{i}"), u32::from(i == 0)))
            .collect();
        b.timed_activity("kick", FiringDistribution::Exponential { rate: 1.0 })
            .input_arc(hops[n], 1)
            .output_arc(hops[n], 1)
            .build();
        for i in 0..n {
            b.instantaneous_activity(format!("hop{i}"))
                .input_arc(hops[i], 1)
                .output_arc(hops[i + 1], 1)
                .build();
        }
        let model = b.build().unwrap();
        let ss = explore(&model, &[], ExploreOptions::default()).unwrap();
        assert_eq!(ss.state_count(), 1);
        assert_eq!(ss.state(0).tokens(hops[n]), 1);
    }

    #[test]
    fn vanishing_loop_detected() {
        let mut b = SanBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.instantaneous_activity("spin")
            .input_arc(p, 1)
            .output_arc(p, 1)
            .build();
        b.timed_activity("t", FiringDistribution::Exponential { rate: 1.0 })
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build();
        let model = b.build().unwrap();
        assert!(matches!(
            explore(&model, &[], ExploreOptions::default()),
            Err(SanError::VanishingLoop { .. })
        ));
    }

    #[test]
    fn impulse_intensity_counts_cascade_firings() {
        // pump (tracked) fires at rate 1; each firing triggers exactly one
        // instantaneous route firing (also tracked).
        let mut b = SanBuilder::new();
        let fuel = b.place("fuel", 3);
        let stage = b.place("stage", 0);
        let out = b.place("out", 0);
        b.timed_activity("pump", FiringDistribution::Exponential { rate: 1.0 })
            .input_arc(fuel, 1)
            .output_arc(stage, 1)
            .build();
        b.instantaneous_activity("route")
            .input_arc(stage, 1)
            .output_arc(out, 1)
            .build();
        let model = b.build().unwrap();
        let pump = model.activity_by_name("pump").unwrap();
        let route = model.activity_by_name("route").unwrap();
        let ss = explore(&model, &[pump, route], ExploreOptions::default()).unwrap();
        // In every state with fuel left, both intensities are 1.0.
        let fuel_id = model.place_by_name("fuel").unwrap();
        for i in 0..ss.state_count() {
            let expected = if ss.state(i).tokens(fuel_id) > 0 {
                1.0
            } else {
                0.0
            };
            assert!((ss.impulse_intensity(i, 0) - expected).abs() < 1e-12);
            assert!((ss.impulse_intensity(i, 1) - expected).abs() < 1e-12);
        }
    }
}
