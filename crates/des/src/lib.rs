//! # diversify-des
//!
//! The deterministic simulation substrate of the *Diversify!* (DSN 2013)
//! reproduction: virtual time, an event calendar, stream-split
//! randomness, and the replication executor every Monte-Carlo workload
//! in the workspace runs on.
//!
//! ## Design
//!
//! * **Event calendar** — a binary-heap [`Calendar`] with *stable*
//!   tie-breaking: events scheduled for the same instant fire in insertion
//!   order, which keeps replications bit-for-bit reproducible. The SAN
//!   simulator in `diversify-san` schedules its activity completions on
//!   it.
//! * **Virtual time** — [`SimTime`], a newtype over `f64` seconds that is
//!   totally ordered and rejects NaN at construction.
//! * **Deterministic randomness** — [`RngStream`]s derived from a single
//!   master seed with SplitMix64 so independent model components draw from
//!   independent, reproducible streams.
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
//!   transient solver's own loop (`TransientSolver::solve` in
//!   `diversify-san`), which keeps its additive seed schedule.
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
//! use diversify_des::exec::MeanCollector;
//! use diversify_des::{Executor, Replication, ReplicationPlan, RngStream, StreamId};
//!
//! // 4 batches of 25 replications; each draws from its own seeded stream.
//! let plan = ReplicationPlan::new(4, 25, 42);
//! let task = |rep: Replication| RngStream::new(rep.seed, StreamId(0)).exponential(2.0);
//! let serial = Executor::serial().collect(&plan, task, &MeanCollector);
//! let default = Executor::default().collect(&plan, task, &MeanCollector);
//! // The fold order is fixed by the plan, so every executor returns the
//! // same bits.
//! assert_eq!(serial.to_bits(), default.to_bits());
//! assert!((serial - 0.5).abs() < 0.2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod calendar;
pub mod exec;
pub mod faults;
pub mod observe;
pub mod rng;
pub mod splitting;
pub mod time;

pub use calendar::{Calendar, EventToken};
pub use exec::{
    Budget, BudgetOutcome, CancelToken, Collector, ExecMode, Executor, FailureCause, Monitor,
    PartialRun, PlanError, Precision, Replication, ReplicationFailure, ReplicationPlan,
    RetryPolicy, RunPolicy, RunSpec, StopRule,
};
pub use faults::{FaultKind, FaultPlan, InjectedPanic};
pub use observe::TimeWeighted;
pub use rng::{derive_seed, IndexDraw, RngStream, StreamId};
pub use splitting::{
    LevelRun, LevelSummary, Splitting, SplittingRun, StagedTask, SPLITTING_STREAM_NAMESPACE,
};
pub use time::SimTime;
