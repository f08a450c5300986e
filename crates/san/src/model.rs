//! Core SAN structure: places, markings and the immutable model.

use crate::activity::Activity;
use crate::error::SanError;
use std::fmt;

/// Identifies a place within one [`SanModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) usize);

impl PlaceId {
    /// The underlying index (stable for the lifetime of the model).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifies an activity within one [`SanModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActivityId(pub(crate) usize);

impl ActivityId {
    /// The underlying index (stable for the lifetime of the model).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A token assignment to every place — the SAN state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marking {
    tokens: Vec<u32>,
}

impl Marking {
    /// Creates a marking with the given token counts.
    #[must_use]
    pub fn new(tokens: Vec<u32>) -> Self {
        Marking { tokens }
    }

    /// Token count of `place`.
    ///
    /// # Panics
    ///
    /// Panics if the place does not belong to this marking's model.
    #[must_use]
    pub fn tokens(&self, place: PlaceId) -> u32 {
        self.tokens[place.0]
    }

    /// Sets the token count of `place`.
    pub fn set_tokens(&mut self, place: PlaceId, count: u32) {
        self.tokens[place.0] = count;
    }

    /// Adds `n` tokens to `place`.
    pub fn add_tokens(&mut self, place: PlaceId, n: u32) {
        self.tokens[place.0] = self.tokens[place.0].saturating_add(n);
    }

    /// Removes `n` tokens from `place`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the place holds fewer than `n` tokens —
    /// enabling rules must prevent this.
    pub fn remove_tokens(&mut self, place: PlaceId, n: u32) {
        debug_assert!(
            self.tokens[place.0] >= n,
            "removing {n} tokens from place {} holding {}",
            place.0,
            self.tokens[place.0]
        );
        self.tokens[place.0] = self.tokens[place.0].saturating_sub(n);
    }

    /// Total tokens across all places.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.tokens.iter().sum()
    }

    /// Number of places.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the marking has no places.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Raw view of the token vector.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.tokens
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, t) in self.tokens.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "]")
    }
}

/// An immutable, validated stochastic activity network.
///
/// Build with [`SanBuilder`](crate::SanBuilder).
pub struct SanModel {
    pub(crate) place_names: Vec<String>,
    pub(crate) initial: Vec<u32>,
    pub(crate) activities: Vec<Activity>,
}

impl SanModel {
    /// Validates the parts, precomputes the per-activity case-weight
    /// tables, and assembles the model. Called by
    /// [`SanBuilder::build`](crate::SanBuilder::build).
    pub(crate) fn from_parts(
        place_names: Vec<String>,
        initial: Vec<u32>,
        activities: Vec<Activity>,
    ) -> Result<Self, SanError> {
        let mut model = SanModel {
            place_names,
            initial,
            activities,
        };
        model.validate()?;
        for a in &mut model.activities {
            a.case_weights = a.cases.iter().map(|c| c.weight).collect();
        }
        Ok(model)
    }

    /// Number of places.
    #[must_use]
    pub fn place_count(&self) -> usize {
        self.place_names.len()
    }

    /// Number of activities.
    #[must_use]
    pub fn activity_count(&self) -> usize {
        self.activities.len()
    }

    /// Name of a place.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model.
    #[must_use]
    pub fn place_name(&self, id: PlaceId) -> &str {
        &self.place_names[id.0]
    }

    /// Looks up a place id by name.
    #[must_use]
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.place_names.iter().position(|n| n == name).map(PlaceId)
    }

    /// Name of an activity.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model.
    #[must_use]
    pub fn activity_name(&self, id: ActivityId) -> &str {
        &self.activities[id.0].name
    }

    /// Looks up an activity id by name.
    #[must_use]
    pub fn activity_by_name(&self, name: &str) -> Option<ActivityId> {
        self.activities
            .iter()
            .position(|a| a.name == name)
            .map(ActivityId)
    }

    /// The activity with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this model.
    #[must_use]
    pub fn activity(&self, id: ActivityId) -> &Activity {
        &self.activities[id.0]
    }

    /// The initial marking.
    #[must_use]
    pub fn initial_marking(&self) -> Marking {
        Marking::new(self.initial.clone())
    }

    /// Overwrites `into` with the initial marking, reusing its buffer —
    /// the allocation-free reset used when simulation state is recycled
    /// across replications ([`SimState::reset`](crate::SimState::reset)).
    pub fn copy_initial_marking(&self, into: &mut Marking) {
        into.tokens.clear();
        into.tokens.extend_from_slice(&self.initial);
    }

    /// All activity ids, in index order.
    pub fn activity_ids(&self) -> impl Iterator<Item = ActivityId> {
        (0..self.activities.len()).map(ActivityId)
    }

    /// All place ids, in index order.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.place_names.len()).map(PlaceId)
    }

    /// Whether `activity` is enabled in `marking`: all input arcs are
    /// covered and every input-gate predicate holds.
    #[must_use]
    pub fn is_enabled(&self, activity: ActivityId, marking: &Marking) -> bool {
        let a = &self.activities[activity.0];
        a.input_arcs.iter().all(|&(p, n)| marking.tokens(p) >= n)
            && a.input_gates.iter().all(|g| (g.predicate)(marking))
    }

    /// Validates internal consistency; called by the builder.
    pub(crate) fn validate(&self) -> Result<(), SanError> {
        if self.activities.is_empty() {
            return Err(SanError::EmptyModel);
        }
        let np = self.place_names.len();
        for a in &self.activities {
            for &(p, _) in a.input_arcs.iter() {
                if p.0 >= np {
                    return Err(SanError::UnknownPlace { index: p.0 });
                }
            }
            if a.cases.is_empty() {
                return Err(SanError::NoCases {
                    activity: a.name.clone(),
                });
            }
            let mut total = 0.0;
            for c in &a.cases {
                if c.weight < 0.0 || !c.weight.is_finite() {
                    return Err(SanError::BadCaseWeights {
                        activity: a.name.clone(),
                    });
                }
                total += c.weight;
                for &(p, _) in c.output_arcs.iter() {
                    if p.0 >= np {
                        return Err(SanError::UnknownPlace { index: p.0 });
                    }
                }
            }
            if total <= 0.0 {
                return Err(SanError::BadCaseWeights {
                    activity: a.name.clone(),
                });
            }
            a.timing.validate()?;
        }
        Ok(())
    }
}

impl fmt::Debug for SanModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SanModel")
            .field("places", &self.place_names)
            .field("activities", &self.activities.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::FiringDistribution;
    use crate::builder::SanBuilder;

    #[test]
    fn marking_token_operations() {
        let mut m = Marking::new(vec![2, 0, 5]);
        let p0 = PlaceId(0);
        let p1 = PlaceId(1);
        assert_eq!(m.tokens(p0), 2);
        m.add_tokens(p1, 3);
        assert_eq!(m.tokens(p1), 3);
        m.remove_tokens(p0, 2);
        assert_eq!(m.tokens(p0), 0);
        assert_eq!(m.total(), 8);
        assert_eq!(m.len(), 3);
        m.set_tokens(p0, 7);
        assert_eq!(m.tokens(p0), 7);
    }

    #[test]
    fn marking_display() {
        let m = Marking::new(vec![1, 2, 3]);
        assert_eq!(m.to_string(), "[1 2 3]");
    }

    #[test]
    fn lookups_by_name() {
        let mut b = SanBuilder::new();
        let p = b.place("src", 1);
        let q = b.place("dst", 0);
        b.timed_activity("move", FiringDistribution::Deterministic { delay: 1.0 })
            .input_arc(p, 1)
            .output_arc(q, 1)
            .build();
        let m = b.build().unwrap();
        assert_eq!(m.place_by_name("src"), Some(p));
        assert_eq!(m.place_by_name("nope"), None);
        assert_eq!(m.place_name(q), "dst");
        let a = m.activity_by_name("move").unwrap();
        assert_eq!(m.activity_name(a), "move");
        assert!(m.activity_by_name("jump").is_none());
        assert_eq!(m.place_count(), 2);
        assert_eq!(m.activity_count(), 1);
    }

    #[test]
    fn enablement_respects_arcs() {
        let mut b = SanBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.timed_activity("t", FiringDistribution::Deterministic { delay: 1.0 })
            .input_arc(p, 2) // needs 2 tokens, only 1 available
            .output_arc(q, 1)
            .build();
        let m = b.build().unwrap();
        let a = m.activity_by_name("t").unwrap();
        assert!(!m.is_enabled(a, &m.initial_marking()));
        let mut marking = m.initial_marking();
        marking.add_tokens(p, 1);
        assert!(m.is_enabled(a, &marking));
    }

    #[test]
    fn enablement_respects_gates() {
        let mut b = SanBuilder::new();
        let p = b.place("p", 5);
        let q = b.place("q", 0);
        b.timed_activity("t", FiringDistribution::Deterministic { delay: 1.0 })
            .input_gate(
                move |m| m.tokens(p) >= 3 && m.tokens(q) == 0,
                move |m| m.remove_tokens(p, 3),
            )
            .output_arc(q, 1)
            .build();
        let m = b.build().unwrap();
        let a = m.activity_by_name("t").unwrap();
        assert!(m.is_enabled(a, &m.initial_marking()));
        let mut blocked = m.initial_marking();
        blocked.set_tokens(q, 1);
        assert!(!m.is_enabled(a, &blocked));
    }

    #[test]
    fn empty_model_rejected() {
        let b = SanBuilder::new();
        assert!(matches!(b.build(), Err(SanError::EmptyModel)));
    }
}
