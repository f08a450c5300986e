//! # diversify-des
//!
//! A deterministic discrete-event simulation (DES) kernel.
//!
//! This crate is the bottom-most substrate of the *Diversify!* (DSN 2013)
//! reproduction. Every stochastic model in the workspace — the stochastic
//! activity network solver in `diversify-san`, the SCADA plant simulator in
//! `diversify-scada`, and the attack-campaign engine in `diversify-attack` —
//! advances virtual time through the [`Engine`] defined here.
//!
//! ## Design
//!
//! * **Event calendar** — a binary-heap [`Calendar`] with *stable*
//!   tie-breaking: events scheduled for the same instant fire in insertion
//!   order, which keeps replications bit-for-bit reproducible.
//! * **Virtual time** — [`SimTime`], a newtype over `f64` seconds that is
//!   totally ordered and rejects NaN at construction.
//! * **Deterministic randomness** — [`RngStream`]s derived from a single
//!   master seed with SplitMix64 so independent model components draw from
//!   independent, reproducible streams.
//! * **Stop conditions** — [`StopCondition`] values compose limits on time
//!   and event count.
//! * **Observation** — the [`TimeWeighted`] accumulator for
//!   piecewise-constant signals (moment accumulators live in
//!   `diversify-stats`).
//! * **Execution** — the [`exec`] layer: a [`ReplicationPlan`] describing
//!   seeds and batch structure, run by a serial or parallel [`Executor`]
//!   and folded by pluggable mergeable [`Collector`]s (streaming
//!   `empty`/`accumulate`/`merge`/`finish`, never a stored sample of
//!   every replication). [`Executor::execute`] runs a [`RunSpec`]: a
//!   fixed plan, or batch-sized rounds until a [`StopRule`] precision
//!   target is met, strict or under a [`RunPolicy`]. Every replication
//!   loop in the workspace goes through this one seam except the SAN
//!   transient solver's own two loops (`TransientSolver::solve` and
//!   `solve_budgeted` in `diversify-san`), which keep their additive
//!   seed schedule and a per-replication budget.
//! * **Rare events** — the [`splitting`] module: fixed-effort multilevel
//!   splitting (RESTART) over the monotone levels of a [`StagedTask`],
//!   estimating a rare probability as a product of per-level
//!   conditionals with the executor's deterministic seed schedule and
//!   serial ≡ parallel bit-identity intact.
//! * **Fault tolerance** — every replication executes unwind-caught; a
//!   run under a [`RunPolicy`] records failures ([`ReplicationFailure`]),
//!   retry them deterministically from their own seeds ([`RetryPolicy`]),
//!   bound work with a [`Budget`] (replication cap, wall-clock deadline,
//!   cooperative [`CancelToken`]) and degrade gracefully to a
//!   [`PartialRun`] over whatever completed — with surviving
//!   replications bit-identical to a fault-free run. The [`faults`]
//!   module provides the deterministic fault-injection harness that
//!   proves those guarantees.
//!
//! ## Example
//!
//! ```
//! use diversify_des::{Engine, Model, Context, SimTime};
//!
//! /// A counter that re-schedules itself every second, five times.
//! struct Ticker { ticks: u32 }
//!
//! #[derive(Debug, Clone, PartialEq)]
//! enum Ev { Tick }
//!
//! impl Model for Ticker {
//!     type Event = Ev;
//!     fn handle(&mut self, ctx: &mut Context<Ev>, _ev: Ev) {
//!         self.ticks += 1;
//!         if self.ticks < 5 {
//!             ctx.schedule_in(SimTime::from_secs(1.0), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Ticker { ticks: 0 }, 42);
//! engine.schedule_at(SimTime::ZERO, Ev::Tick);
//! engine.run();
//! assert_eq!(engine.model().ticks, 5);
//! assert_eq!(engine.now(), SimTime::from_secs(4.0));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod calendar;
pub mod engine;
pub mod exec;
pub mod faults;
pub mod observe;
pub mod rng;
pub mod splitting;
pub mod stop;
pub mod time;

pub use calendar::{Calendar, EventToken};
pub use engine::RunOutcome;
pub use engine::{Context, Engine, Model};
pub use exec::{
    Budget, BudgetOutcome, CancelToken, Collector, ExecMode, Executor, FailureCause, Monitor,
    PartialRun, PlanError, Precision, Replication, ReplicationFailure, ReplicationPlan, Reseed,
    RetryPolicy, RunPolicy, RunSpec, StopRule,
};
pub use faults::{FaultKind, FaultPlan, InjectedPanic};
pub use observe::TimeWeighted;
pub use rng::{derive_seed, IndexDraw, RngStream, StreamId};
pub use splitting::{
    LevelRun, LevelSummary, Splitting, SplittingRun, StagedTask, SPLITTING_STREAM_NAMESPACE,
};
pub use stop::StopCondition;
pub use time::SimTime;
