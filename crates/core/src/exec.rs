//! The unified execution layer, specialized for campaign measurement.
//!
//! Re-exports the generic engine from [`diversify_des::exec`] — a
//! [`ReplicationPlan`] (seeds + batch structure) run by a serial or
//! parallel [`Executor`] and folded by a mergeable [`Collector`] — and
//! adds the campaign-level pieces: [`MeasurementsCollector`], which
//! streams ordered campaign outcomes into the batched
//! [`Measurements`] the ANOVA stage consumes, [`IndicatorsCollector`]
//! for plain (unbatched) indicator summaries, and the stream namespace
//! campaign measurement has always used for its seed schedule. Both
//! collectors fold anything the scalar [`CampaignStats`] can be read
//! from: a materialized
//! [`CampaignOutcome`](diversify_attack::campaign::CampaignOutcome) or
//! the stats themselves (the allocation-free workspace path behind
//! `Executor::run_ws`).
//!
//! This is the seam every replication loop in the workspace goes
//! through: the `core::runner` measurements, the
//! [`Pipeline`](crate::pipeline::Pipeline) design-point sweep, the
//! serve crate's shard workers, the attack-crate Monte-Carlo helpers,
//! splitting levels and the bench experiments all build a plan and hand
//! it to an executor. The one exception is the SAN transient solver's
//! own loop (`TransientSolver::solve`), which keeps its additive seed
//! schedule.
//! Collectors are mergeable folds, so the same code path serves fixed
//! plans, parallel partial aggregation, and precision-targeted runs
//! ([`Executor::execute`] with a [`RunSpec`]).

pub use diversify_des::exec::{
    accept_all, Budget, BudgetOutcome, CancelToken, Collector, ExecMode, Executor, FailureCause,
    MeanCollector, Monitor, PartialRun, PlanError, Precision, Replication, ReplicationFailure,
    ReplicationPlan, Reseed, RetryPolicy, RunPolicy, RunSpec, StopRule, VecCollector,
    DEFAULT_STREAM_NAMESPACE,
};
pub use diversify_des::faults::{FaultKind, FaultPlan, InjectedPanic};

use crate::indicators::{IndicatorAccum, IndicatorSummary};
use crate::runner::Measurements;
use diversify_attack::campaign::CampaignStats;
use serde::{Deserialize, Serialize};

/// The stream namespace campaign measurement derives its per-replication
/// seeds under. The original hand-rolled loop used *additive* stream ids
/// (`0x4E_0000 + i`); the plan's XOR derivation reproduces that schedule
/// exactly for every index below 2^17 (the lowest set bit of the
/// namespace) — far above any plan size this workspace runs. Plans with
/// ≥ 2^17 replications get a valid but different (still
/// collision-free) schedule.
pub const CAMPAIGN_STREAM_NAMESPACE: u64 = 0x4E_0000;

/// A campaign-measurement plan: `batches × batch_size` replications
/// under the campaign stream namespace.
///
/// # Panics
///
/// Panics if `batches` or `batch_size` is zero.
#[must_use]
pub fn campaign_plan(batches: u32, batch_size: u32, master_seed: u64) -> ReplicationPlan {
    ReplicationPlan::new(batches, batch_size, master_seed).with_namespace(CAMPAIGN_STREAM_NAMESPACE)
}

/// Streaming accumulator behind [`MeasurementsCollector`]: the indicator
/// moments plus per-batch counters. O(batches) state — no campaign
/// outcome survives its own `accumulate` call.
#[derive(Debug, Clone, Default)]
pub struct MeasurementsAccum {
    /// Indicator moments over every folded replication.
    pub indicators: IndicatorAccum,
    /// Per-batch partial sums, in batch order.
    batches: Vec<BatchAccum>,
}

/// Running per-batch state: the counters batch means derive from.
/// `count` tracks how many replications actually folded into the batch —
/// equal to the plan's batch size on a fault-free run, smaller when the
/// a fault-tolerant run skipped failed replications, so batch means stay
/// means over *completed* replications instead of silently deflating.
#[derive(Debug, Clone, Copy)]
struct BatchAccum {
    batch: u32,
    count: u32,
    successes: u32,
    compromised_sum: f64,
}

/// One batch's wire-portable counters — the exported form of the
/// accumulator's private per-batch state, so shard workers can ship
/// batch-granular partial measurements and a coordinator can rebuild a
/// [`MeasurementsAccum`] bit-exactly with
/// [`MeasurementsAccum::from_parts`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchRecord {
    /// Global batch index (a shard reports `plan.first_batch() + local`).
    pub batch: u32,
    /// Replications folded into the batch.
    pub count: u32,
    /// Successful campaigns in the batch.
    pub successes: u32,
    /// Sum of final compromised ratios over the batch.
    pub compromised_sum: f64,
}

impl MeasurementsAccum {
    /// The per-batch counters, in fold order.
    pub fn batch_records(&self) -> impl Iterator<Item = BatchRecord> + '_ {
        self.batches.iter().map(|b| BatchRecord {
            batch: b.batch,
            count: b.count,
            successes: b.successes,
            compromised_sum: b.compromised_sum,
        })
    }

    /// Rebuilds an accumulator from transported parts. The caller owns
    /// the fold contract: `records` must be in batch order and
    /// `indicators` must cover exactly the replications the records
    /// count — the serve coordinator guarantees both by folding shard
    /// results in global batch order.
    pub fn from_parts(
        indicators: IndicatorAccum,
        records: impl IntoIterator<Item = BatchRecord>,
    ) -> Self {
        MeasurementsAccum {
            indicators,
            batches: records
                .into_iter()
                .map(|r| BatchAccum {
                    batch: r.batch,
                    count: r.count,
                    successes: r.successes,
                    compromised_sum: r.compromised_sum,
                })
                .collect(),
        }
    }
}

/// A [`Collector`] streaming campaign outcomes into [`Measurements`]:
/// the overall [`IndicatorSummary`] plus per-batch success fractions and
/// compromised ratios (the ANOVA replicate units).
///
/// Generic over the replication output: it folds anything the scalar
/// [`CampaignStats`] can be read from — a full
/// [`CampaignOutcome`](diversify_attack::campaign::CampaignOutcome)
/// (the materializing reference path) or `CampaignStats` itself (the
/// allocation-free workspace path). Both fold to bit-identical
/// [`Measurements`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MeasurementsCollector;

impl<T> Collector<T> for MeasurementsCollector
where
    T: Send,
    for<'a> CampaignStats: From<&'a T>,
{
    type Accum = MeasurementsAccum;
    type Output = Measurements;

    fn empty(&self) -> MeasurementsAccum {
        MeasurementsAccum::default()
    }

    fn accumulate(
        &self,
        plan: &ReplicationPlan,
        acc: &mut MeasurementsAccum,
        rep: Replication,
        outcome: T,
    ) {
        let stats = CampaignStats::from(&outcome);
        let batch = plan.batch_of(rep.index);
        match acc.batches.last_mut() {
            Some(last) if last.batch == batch => {
                last.count += 1;
                last.successes += u32::from(stats.succeeded());
                last.compromised_sum += stats.final_compromised_ratio;
            }
            _ => acc.batches.push(BatchAccum {
                batch,
                count: 1,
                successes: u32::from(stats.succeeded()),
                compromised_sum: stats.final_compromised_ratio,
            }),
        }
        acc.indicators.push_stats(&stats);
    }

    fn merge(&self, into: &mut MeasurementsAccum, other: MeasurementsAccum) {
        into.indicators.merge(&other.indicators);
        into.batches.extend(other.batches);
    }

    fn finish(&self, plan: &ReplicationPlan, acc: MeasurementsAccum) -> Measurements {
        // Budgeted runs may fold fewer batches (truncation) or fewer
        // replications per batch (isolated failures) than the plan.
        debug_assert!(acc.batches.len() <= plan.batches() as usize);
        // Divide by the folded count, so a degraded batch reports the
        // mean over its survivors. On a fault-free run every count
        // equals the plan's batch size and the division — and therefore
        // the output — is bit-identical to the pre-fault-tolerance
        // collector.
        let batch_p_success = acc
            .batches
            .iter()
            .map(|b| f64::from(b.successes) / f64::from(b.count))
            .collect();
        let batch_compromised = acc
            .batches
            .iter()
            .map(|b| b.compromised_sum / f64::from(b.count))
            .collect();
        Measurements {
            // The executor never calls `finish` on an empty fold
            // (a run that completed nothing returns `output: None`), so the
            // accumulator holds at least one replication here.
            #[allow(clippy::disallowed_methods)]
            summary: acc
                .indicators
                .finish()
                .expect("finish is never called on an empty fold"),
            batch_p_success,
            batch_compromised,
        }
    }
}

/// A [`Collector`] streaming campaign outcomes into a plain
/// [`IndicatorSummary`], ignoring batch structure — the fold behind
/// unbatched campaign sweeps such as the R6 threat-model comparison.
/// Like [`MeasurementsCollector`] it is generic over anything
/// [`CampaignStats`] can be read from.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndicatorsCollector;

impl<T> Collector<T> for IndicatorsCollector
where
    T: Send,
    for<'a> CampaignStats: From<&'a T>,
{
    type Accum = IndicatorAccum;
    type Output = IndicatorSummary;

    fn empty(&self) -> IndicatorAccum {
        IndicatorAccum::new()
    }

    fn accumulate(
        &self,
        _plan: &ReplicationPlan,
        acc: &mut IndicatorAccum,
        _rep: Replication,
        outcome: T,
    ) {
        acc.push_stats(&CampaignStats::from(&outcome));
    }

    fn merge(&self, into: &mut IndicatorAccum, other: IndicatorAccum) {
        into.merge(&other);
    }

    fn finish(&self, _plan: &ReplicationPlan, acc: IndicatorAccum) -> IndicatorSummary {
        // The executor never calls `finish` on an empty fold (budgeted
        // paths return `output: None` instead).
        #[allow(clippy::disallowed_methods)]
        acc.finish()
            .expect("finish is never called on an empty fold")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_plan_keeps_legacy_seed_schedule() {
        // The original loop seeded replication i with
        // derive_seed(master, StreamId(0x4E_0000 + i)).
        let plan = campaign_plan(4, 25, 0xD1CE);
        for i in 0..plan.total() {
            assert_eq!(
                plan.seed_for(i),
                diversify_des::derive_seed(
                    0xD1CE,
                    diversify_des::StreamId(0x4E_0000 + u64::from(i))
                )
            );
        }
    }
}
