//! # diversify-san
//!
//! A **Stochastic Activity Network (SAN)** formalism with a Monte-Carlo
//! transient solver — the modeling machinery the *Diversify!* paper (DSN
//! 2013) uses for its attack models: *"A system model encompassing
//! control/monitoring nodes and PLCs has been developed by means of the
//! stochastic activity networks (SAN) formalism."*
//!
//! SANs generalize stochastic Petri nets with:
//!
//! * **places** holding token counts (the [`Marking`]),
//! * **timed activities** with general firing-time distributions
//!   ([`FiringDistribution`]),
//! * **instantaneous activities** that fire as soon as they are enabled,
//! * **case distributions** — a firing probabilistically selects one of
//!   several output effects,
//! * **input gates** (arbitrary enabling predicates + marking updates) and
//!   **output gates** (arbitrary marking updates).
//!
//! The [`Simulator`] executes a SAN with the race execution policy
//! (enabled activities race; the earliest completion fires; activities
//! disabled by a firing are cancelled and re-sample when re-enabled),
//! re-checking every activity in index order after each event, and
//! [`TransientSolver`] estimates reward variables over independent
//! replications.
//!
//! When every timed activity is exponential, the same model is an exact
//! continuous-time Markov chain: [`explore`] enumerates its tangible
//! state space (with vanishing-state elimination), the [`ctmc`] module
//! solves it by uniformization, and
//! [`AnalyticSolver`] evaluates the same [`RewardSpec`]s exactly — a
//! second, independent oracle for every security indicator. Choose per
//! call with [`solver::Method`] / [`solve`].
//!
//! ## Example
//!
//! ```
//! use diversify_san::{SanBuilder, FiringDistribution, Simulator};
//! use diversify_des::SimTime;
//!
//! // A two-stage attack: initial -> activated -> root.
//! let mut b = SanBuilder::new();
//! let initial = b.place("initial", 1);
//! let activated = b.place("activated", 0);
//! let root = b.place("root", 0);
//! b.timed_activity("activate", FiringDistribution::Exponential { rate: 2.0 })
//!     .input_arc(initial, 1)
//!     .output_arc(activated, 1)
//!     .build();
//! b.timed_activity("escalate", FiringDistribution::Exponential { rate: 1.0 })
//!     .input_arc(activated, 1)
//!     .output_arc(root, 1)
//!     .build();
//! let model = b.build().unwrap();
//!
//! let mut sim = Simulator::new(&model, 42);
//! sim.run_until(SimTime::from_secs(1e6));
//! assert_eq!(sim.marking().tokens(root), 1);
//! ```

#![warn(missing_docs)]
// The unwrap/expect ban (clippy.toml `disallowed-methods`) is the
// fault-tolerance discipline of `diversify-des`/`diversify-core`; this
// crate predates it and is exercised through those hardened seams.
#![allow(clippy::disallowed_methods)]

pub mod activity;
pub mod analytic;
pub mod builder;
pub mod ctmc;
pub mod error;
pub mod model;
pub mod reward;
pub mod sim;
pub mod solver;
pub mod statespace;

pub use activity::{Activity, ActivityTiming, Case, FiringDistribution};
pub use analytic::AnalyticSolver;
pub use builder::{ActivityBuilder, SanBuilder};
pub use ctmc::{poisson_weights, Ctmc, PoissonWeights, TransientDistribution};
pub use error::SanError;
pub use model::{ActivityId, Marking, PlaceId, SanModel};
pub use reward::{FirstPassage, ImpulseReward, Observer, RateReward};
pub use sim::{SimState, Simulator};
pub use solver::{solve, Method, RewardSpec, TransientResult, TransientSolver};
pub use statespace::{explore, ExploreOptions, StateSpace};
