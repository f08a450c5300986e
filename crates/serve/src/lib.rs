//! # diversify-serve
//!
//! A fault-tolerant sharded indicator service over the campaign
//! measurement engine: a coordinator shards a sweep's design points
//! over supervised workers behind a [`Channel`]
//! abstraction, retries failed shards with capped exponential backoff,
//! and degrades gracefully to partial results plus a health table when
//! workers stay broken — never a hang, never a poisoned merge.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod channel;
pub mod coordinator;
pub mod protocol;
pub mod service;
pub mod wire;
pub mod worker;

pub use channel::{loopback_pair, Channel, ChannelError, LoopbackChannel, TcpChannel};
pub use coordinator::{Coordinator, ShardHealth, ShardState, SweepOptions, SweepReport};
pub use protocol::{BatchSnapshot, ShardOutcome, ShardSpec};
pub use service::{
    IndicatorRequest, IndicatorResponse, IndicatorService, PrecisionGoal, ServiceOptions,
};
pub use worker::{run_worker, WorkerOptions};
