//! Fluent construction of SAN models.

use crate::activity::{Activity, ActivityTiming, Case, FiringDistribution, InputGate, OutputGate};
use crate::error::SanError;
use crate::model::{Marking, PlaceId, SanModel};
use std::fmt;

/// Builder for [`SanModel`].
///
/// # Examples
///
/// See the crate-level documentation for a two-stage attack model.
#[derive(Default)]
pub struct SanBuilder {
    place_names: Vec<String>,
    initial: Vec<u32>,
    activities: Vec<Activity>,
}

impl fmt::Debug for SanBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SanBuilder")
            .field("places", &self.place_names.len())
            .field("activities", &self.activities.len())
            .finish()
    }
}

impl SanBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        SanBuilder::default()
    }

    /// Adds a place with an initial token count and returns its id.
    pub fn place(&mut self, name: impl Into<String>, initial_tokens: u32) -> PlaceId {
        self.place_names.push(name.into());
        self.initial.push(initial_tokens);
        PlaceId(self.place_names.len() - 1)
    }

    /// Starts a timed activity definition.
    pub fn timed_activity(
        &mut self,
        name: impl Into<String>,
        dist: FiringDistribution,
    ) -> ActivityBuilder<'_> {
        ActivityBuilder::new(self, name.into(), ActivityTiming::Timed(dist))
    }

    /// Starts an instantaneous activity definition with selection weight 1.
    pub fn instantaneous_activity(&mut self, name: impl Into<String>) -> ActivityBuilder<'_> {
        ActivityBuilder::new(
            self,
            name.into(),
            ActivityTiming::Instantaneous { weight: 1.0 },
        )
    }

    /// Finalizes and validates the model.
    ///
    /// # Errors
    ///
    /// Returns a [`SanError`] describing the first structural problem
    /// found (no activities, dangling place references, bad case weights,
    /// invalid distribution parameters).
    pub fn build(self) -> Result<SanModel, SanError> {
        SanModel::from_parts(self.place_names, self.initial, self.activities)
    }
}

/// Builder for one activity; obtained from [`SanBuilder::timed_activity`]
/// or [`SanBuilder::instantaneous_activity`].
///
/// An activity accumulates input arcs/gates and either simple output arcs
/// (which become a single implicit case) or explicit weighted cases.
pub struct ActivityBuilder<'a> {
    parent: &'a mut SanBuilder,
    name: String,
    timing: ActivityTiming,
    input_arcs: Vec<(PlaceId, u32)>,
    input_gates: Vec<InputGate>,
    default_case_arcs: Vec<(PlaceId, u32)>,
    default_case_gates: Vec<OutputGate>,
    cases: Vec<Case>,
}

impl<'a> fmt::Debug for ActivityBuilder<'a> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ActivityBuilder")
            .field("name", &self.name)
            .finish()
    }
}

impl<'a> ActivityBuilder<'a> {
    fn new(parent: &'a mut SanBuilder, name: String, timing: ActivityTiming) -> Self {
        ActivityBuilder {
            parent,
            name,
            timing,
            input_arcs: Vec::new(),
            input_gates: Vec::new(),
            default_case_arcs: Vec::new(),
            default_case_gates: Vec::new(),
            cases: Vec::new(),
        }
    }

    /// Adds an input arc consuming `tokens` from `place`.
    #[must_use]
    pub fn input_arc(mut self, place: PlaceId, tokens: u32) -> Self {
        self.input_arcs.push((place, tokens));
        self
    }

    /// Adds an input gate with an enabling `predicate` and a firing
    /// `effect`.
    #[must_use]
    pub fn input_gate<P, E>(mut self, predicate: P, effect: E) -> Self
    where
        P: Fn(&Marking) -> bool + Send + Sync + 'static,
        E: Fn(&mut Marking) + Send + Sync + 'static,
    {
        self.input_gates.push(InputGate {
            predicate: Box::new(predicate),
            effect: Box::new(effect),
        });
        self
    }

    /// Adds an enabling-only input gate (no marking effect on firing).
    #[must_use]
    pub fn guard<P>(self, predicate: P) -> Self
    where
        P: Fn(&Marking) -> bool + Send + Sync + 'static,
    {
        self.input_gate(predicate, |_| {})
    }

    /// Adds an output arc to the implicit default case.
    #[must_use]
    pub fn output_arc(mut self, place: PlaceId, tokens: u32) -> Self {
        self.default_case_arcs.push((place, tokens));
        self
    }

    /// Adds an output gate to the implicit default case.
    #[must_use]
    pub fn output_gate<E>(mut self, effect: E) -> Self
    where
        E: Fn(&mut Marking) + Send + Sync + 'static,
    {
        self.default_case_gates.push(OutputGate {
            effect: Box::new(effect),
        });
        self
    }

    /// Adds an explicit weighted case with output arcs.
    #[must_use]
    pub fn case(mut self, weight: f64, output_arcs: Vec<(PlaceId, u32)>) -> Self {
        self.cases.push(Case {
            weight,
            output_arcs,
            output_gates: Vec::new(),
        });
        self
    }

    /// Adds an explicit weighted case whose effect is a gate function.
    #[must_use]
    pub fn case_with_gate<E>(mut self, weight: f64, effect: E) -> Self
    where
        E: Fn(&mut Marking) + Send + Sync + 'static,
    {
        self.cases.push(Case {
            weight,
            output_arcs: Vec::new(),
            output_gates: vec![OutputGate {
                effect: Box::new(effect),
            }],
        });
        self
    }

    /// Finalizes the activity and registers it with the parent builder.
    ///
    /// If no explicit cases were added, the accumulated output arcs/gates
    /// become a single case with weight 1 (an activity with no outputs at
    /// all becomes a pure sink).
    pub fn build(self) {
        let mut cases = self.cases;
        if cases.is_empty() {
            cases.push(Case {
                weight: 1.0,
                output_arcs: self.default_case_arcs,
                output_gates: self.default_case_gates,
            });
        } else {
            debug_assert!(
                self.default_case_arcs.is_empty() && self.default_case_gates.is_empty(),
                "activity '{}' mixes explicit cases with default-case outputs",
                self.name
            );
        }
        self.parent.activities.push(Activity {
            name: self.name,
            timing: self.timing,
            input_arcs: self.input_arcs,
            input_gates: self.input_gates,
            cases,
            case_weights: Vec::new(), // filled by SanModel::from_parts
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_chain() {
        let mut b = SanBuilder::new();
        let p = b.place("a", 1);
        let q = b.place("b", 0);
        b.timed_activity("t", FiringDistribution::Exponential { rate: 1.0 })
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build();
        let m = b.build().unwrap();
        assert_eq!(m.place_count(), 2);
        assert_eq!(m.activity_count(), 1);
        assert_eq!(m.initial_marking().tokens(p), 1);
    }

    #[test]
    fn explicit_cases_are_kept() {
        let mut b = SanBuilder::new();
        let p = b.place("src", 1);
        let ok = b.place("ok", 0);
        let fail = b.place("fail", 0);
        b.timed_activity("try", FiringDistribution::Exponential { rate: 1.0 })
            .input_arc(p, 1)
            .case(0.7, vec![(ok, 1)])
            .case(0.3, vec![(fail, 1)])
            .build();
        let m = b.build().unwrap();
        let a = m.activity_by_name("try").unwrap();
        assert_eq!(m.activity(a).cases.len(), 2);
    }

    #[test]
    fn bad_case_weight_rejected() {
        let mut b = SanBuilder::new();
        let p = b.place("p", 1);
        b.timed_activity("t", FiringDistribution::Exponential { rate: 1.0 })
            .input_arc(p, 1)
            .case(-1.0, vec![])
            .build();
        assert!(matches!(b.build(), Err(SanError::BadCaseWeights { .. })));
    }

    #[test]
    fn bad_distribution_rejected() {
        let mut b = SanBuilder::new();
        let p = b.place("p", 1);
        b.timed_activity("t", FiringDistribution::Exponential { rate: -2.0 })
            .input_arc(p, 1)
            .build();
        assert!(matches!(b.build(), Err(SanError::BadDistribution { .. })));
    }

    #[test]
    fn instantaneous_activity_builds() {
        let mut b = SanBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.instantaneous_activity("now")
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build();
        let m = b.build().unwrap();
        let a = m.activity_by_name("now").unwrap();
        assert!(m.activity(a).is_instantaneous());
    }

    #[test]
    fn guard_only_gate() {
        let mut b = SanBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.timed_activity("t", FiringDistribution::Deterministic { delay: 1.0 })
            .input_arc(p, 1)
            .guard(move |m| m.tokens(q) == 0)
            .output_arc(q, 1)
            .build();
        let m = b.build().unwrap();
        let a = m.activity_by_name("t").unwrap();
        assert!(m.is_enabled(a, &m.initial_marking()));
    }
}
