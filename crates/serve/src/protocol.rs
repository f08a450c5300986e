//! The coordinator↔worker message vocabulary.
//!
//! Every type here is a plain serde-derived DTO. The wire carries
//! per-*batch* accumulators, the [`BatchSnapshot`]s of the local fold
//! (never pre-merged shard accumulators), because the Chan/Welford
//! merge is not associative in `f64`: only a coordinator-side left-fold
//! in global batch order reproduces the executor's exact fold tree and
//! keeps merged indicators bit-identical to a single-process run. See
//! [`crate::coordinator`].

use diversify_attack::campaign::{CampaignConfig, ThreatModel};
pub use diversify_core::exec::BatchSnapshot;
use diversify_des::exec::{Budget, BudgetOutcome, CancelToken, PlanError, ReplicationPlan};
use diversify_scada::scope::ScopeConfig;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A [`ReplicationPlan`] in wire form. `first_batch` is what makes a
/// spec a *shard*: seeds derive from global replication indices, so a
/// shard rerun on any worker is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanSpec {
    /// Batches in this shard.
    pub batches: u32,
    /// Replications per batch.
    pub batch_size: u32,
    /// The sweep's master seed.
    pub master_seed: u64,
    /// Seed-stream namespace.
    pub namespace: u64,
    /// Global index of the shard's first batch.
    pub first_batch: u32,
}

impl PlanSpec {
    /// Captures a plan's wire form.
    #[must_use]
    pub fn from_plan(plan: &ReplicationPlan) -> Self {
        PlanSpec {
            batches: plan.batches(),
            batch_size: plan.batch_size(),
            master_seed: plan.master_seed(),
            namespace: plan.namespace(),
            first_batch: plan.first_batch(),
        }
    }

    /// Rebuilds the plan, validating the spec's arithmetic (a hostile
    /// or corrupted spec must not panic the worker).
    pub fn to_plan(self) -> Result<ReplicationPlan, PlanError> {
        ReplicationPlan::try_new(self.batches, self.batch_size, self.master_seed)?
            .with_namespace(self.namespace)
            .try_with_first_batch(self.first_batch)
    }
}

/// A worker-side [`Budget`] in wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BudgetSpec {
    /// Replication ceiling, if any.
    pub max_replications: Option<u32>,
    /// Wall-clock deadline in milliseconds, if any.
    pub deadline_ms: Option<u64>,
}

impl BudgetSpec {
    /// Materializes the budget, wiring in the worker's cancel token so
    /// a coordinator-side cancel stops the shard at the next batch
    /// boundary.
    #[must_use]
    pub fn to_budget(self, cancel: &CancelToken) -> Budget {
        let mut budget = Budget::unlimited().with_cancel(cancel);
        if let Some(max) = self.max_replications {
            budget = budget.with_max_replications(max);
        }
        if let Some(ms) = self.deadline_ms {
            budget = budget.with_deadline(Duration::from_millis(ms));
        }
        budget
    }
}

/// One unit of work: measure one design cell's shard of batches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Index of the design cell this shard belongs to.
    pub cell: u32,
    /// Coordinator-assigned shard id, unique within a sweep.
    pub shard: u32,
    /// The plant configuration to simulate.
    pub scope: ScopeConfig,
    /// The threat model to run against it.
    pub threat: ThreatModel,
    /// Campaign horizon and detection policy.
    pub campaign: CampaignConfig,
    /// The shard's slice of the cell's replication plan.
    pub plan: PlanSpec,
    /// Execution budget for this lease.
    pub budget: BudgetSpec,
}

/// A replication that exhausted its retry attempts on the worker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardFailure {
    /// Global replication index.
    pub index: u32,
    /// Attempts consumed.
    pub attempts: u32,
    /// Stringified cause of the last attempt's failure.
    pub message: String,
}

/// Wire form of [`BudgetOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutcomeCode {
    /// The shard ran every batch.
    Completed,
    /// The replication ceiling cut the shard short.
    ReplicationBudget,
    /// The wall-clock deadline expired mid-shard.
    DeadlineExpired,
    /// The coordinator cancelled the shard.
    Cancelled,
}

impl From<BudgetOutcome> for OutcomeCode {
    fn from(outcome: BudgetOutcome) -> Self {
        match outcome {
            // Fixed shard plans have no precision target or stop rule;
            // those outcomes collapse to plain completion.
            BudgetOutcome::Completed | BudgetOutcome::PrecisionMet | BudgetOutcome::RuleCapped => {
                OutcomeCode::Completed
            }
            BudgetOutcome::ReplicationBudget => OutcomeCode::ReplicationBudget,
            BudgetOutcome::DeadlineExpired => OutcomeCode::DeadlineExpired,
            BudgetOutcome::Cancelled => OutcomeCode::Cancelled,
        }
    }
}

/// A worker's report for one shard lease: whatever clean prefix of
/// batches it finished, plus why it stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardOutcome {
    /// The shard id this outcome answers.
    pub shard: u32,
    /// Batch-sized rounds executed.
    pub rounds: u32,
    /// Replications attempted.
    pub attempted: u32,
    /// Replications that completed and folded.
    pub completed: u32,
    /// Why the shard stopped.
    pub outcome: OutcomeCode,
    /// Per-batch results in batch order.
    pub batches: Vec<BatchSnapshot>,
    /// Replications that exhausted retries.
    pub failures: Vec<ShardFailure>,
}

/// Coordinator → worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(clippy::large_enum_variant)]
pub enum ToWorker {
    /// Lease a shard to this worker.
    Run {
        /// The work.
        spec: ShardSpec,
    },
    /// Stop the named in-flight shard at the next batch boundary.
    Cancel {
        /// The shard to stop.
        shard: u32,
    },
    /// Drain and exit.
    Shutdown,
}

/// Worker → coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FromWorker {
    /// Liveness beacon while a shard runs; refreshes the lease.
    Heartbeat {
        /// The shard being worked.
        shard: u32,
    },
    /// The lease's result (possibly a truncated clean prefix).
    Done {
        /// The report.
        outcome: ShardOutcome,
    },
    /// The shard execution itself blew up (panic, invalid spec).
    Failed {
        /// The shard that failed.
        shard: u32,
        /// What happened.
        message: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_message, encode_message};

    fn sample_spec() -> ShardSpec {
        ShardSpec {
            cell: 3,
            shard: 7,
            scope: ScopeConfig::default(),
            threat: ThreatModel::stuxnet_like(),
            campaign: CampaignConfig {
                max_ticks: 240,
                detection_stops_attack: true,
            },
            plan: PlanSpec {
                batches: 2,
                batch_size: 4,
                master_seed: 0xD1CE,
                namespace: 0x4E_0000,
                first_batch: 6,
            },
            budget: BudgetSpec {
                max_replications: Some(8),
                deadline_ms: Some(5_000),
            },
        }
    }

    #[test]
    fn shard_spec_round_trips_over_the_wire() {
        let msg = ToWorker::Run {
            spec: sample_spec(),
        };
        let frame = encode_message(&msg);
        let back: ToWorker = decode_message(&frame).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn plan_spec_round_trips_through_a_plan() {
        let spec = sample_spec().plan;
        let plan = spec.to_plan().unwrap();
        assert_eq!(PlanSpec::from_plan(&plan), spec);
        assert_eq!(plan.first_replication(), 24);
    }

    #[test]
    fn hostile_plan_spec_is_a_typed_error() {
        let bad = PlanSpec {
            batches: u32::MAX,
            batch_size: u32::MAX,
            master_seed: 0,
            namespace: 0,
            first_batch: u32::MAX,
        };
        assert!(bad.to_plan().is_err());
    }

    #[test]
    fn outcome_codes_collapse_adaptive_variants() {
        assert_eq!(
            OutcomeCode::from(BudgetOutcome::PrecisionMet),
            OutcomeCode::Completed
        );
        assert_eq!(
            OutcomeCode::from(BudgetOutcome::Cancelled),
            OutcomeCode::Cancelled
        );
    }
}
