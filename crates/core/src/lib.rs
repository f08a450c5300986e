//! # diversify-core
//!
//! The primary contribution of *"Towards Secure Monitoring and Control
//! Systems: Diversify!"* (DSN 2013) as a library: a three-step modeling
//! and evaluation pipeline that quantifies how component diversity changes
//! the effort a Stuxnet-like attack requires.
//!
//! The three steps (the paper's Figure 1):
//!
//! 1. **Attack Modeling** ([`pipeline::Pipeline::attack_modeling`]) —
//!    formalize the staged attack against the modeled system;
//! 2. **DoE & Measurements** ([`pipeline::Pipeline::doe_measurements`]) —
//!    choose a fractional-factorial set of diversity configurations and
//!    measure the security indicators on each by Monte-Carlo campaign
//!    simulation;
//! 3. **Diversity Assessment** ([`pipeline::Pipeline::assess`]) — ANOVA
//!    the measurements to allocate indicator variance to the component
//!    classes responsible, ranking what is worth diversifying.
//!
//! Security indicators ([`indicators`]): probability of successful attack,
//! **Time-To-Attack**, **Time-To-Security-Failure**, and the
//! **compromised ratio** — aggregated by streaming, mergeable
//! accumulators, so measurement can run under a fixed replication budget
//! or adaptively until a precision target is met
//! ([`runner::measure_configuration_run`],
//! [`PipelineConfig::precision`](pipeline::PipelineConfig::precision)),
//! or — for design points whose P_SA is too rare for plain Monte-Carlo —
//! by multilevel splitting over campaign milestones
//! ([`runner::measure_configuration_splitting`],
//! [`PipelineConfig::rare_event`](pipeline::PipelineConfig::rare_event)).
//!
//! ## Quick start
//!
//! ```no_run
//! use diversify_core::pipeline::{Pipeline, PipelineConfig};
//!
//! let pipeline = Pipeline::new(PipelineConfig::default());
//! let report = pipeline.run();
//! println!("{report}");
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod content;
pub mod error;
pub mod exec;
pub mod factors;
pub mod indicators;
pub mod pipeline;
pub mod report;
pub mod runner;

pub use content::ContentKey;
pub use diversify_attack::campaign::MilestonePlacement;
pub use error::PipelineError;
pub use exec::{
    Budget, BudgetOutcome, CancelToken, Collector, ExecMode, Executor, PartialRun, PlanError,
    Precision, ReplicationFailure, ReplicationPlan, RetryPolicy, RunPolicy, RunSpec, StopRule,
};
pub use factors::{factor_profile, FactorLevel};
pub use indicators::{IndicatorAccum, IndicatorSummary, PrecisionResponse};
pub use pipeline::{
    CellHealth, DoeMeasurements, Pipeline, PipelineConfig, PipelineReport, RareEventTarget,
};
pub use runner::{
    measure_configuration, measure_configuration_run, measure_configuration_splitting,
    measure_configuration_splitting_adaptive, measure_configuration_with, Measurements,
    PrecisionTarget, SplittingMeasurements,
};
