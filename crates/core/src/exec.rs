//! The unified execution layer, specialized for campaign measurement.
//!
//! Re-exports the generic engine from [`diversify_des::exec`] — a
//! [`ReplicationPlan`] (seeds + batch structure) run by a serial or
//! parallel [`Executor`] and folded by a mergeable [`Collector`] — and
//! adds the campaign-level pieces: [`MeasurementsCollector`], the one
//! fold of campaign outcomes, which streams them into per-batch
//! [`BatchSnapshot`]s and closes those into the batched
//! [`Measurements`] the ANOVA stage consumes, and the stream namespace
//! campaign measurement has always used for its seed schedule. The
//! collector folds anything the scalar [`CampaignStats`] can be read
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
    ReplicationPlan, RetryPolicy, RunPolicy, RunSpec, StopRule, Unfinished, VecCollector,
    DEFAULT_STREAM_NAMESPACE,
};
pub use diversify_des::faults::{FaultKind, FaultPlan, InjectedPanic};

use crate::indicators::IndicatorAccum;
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

/// One batch's fold: the indicator accumulator over exactly the batch's
/// completed replications, plus the compromised-ratio sum its batch
/// mean divides. It is the element of [`MeasurementsAccum`], the unit a
/// shard worker ships and the unit the indicator service memoizes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchSnapshot {
    /// Global batch index: `plan.first_batch() + plan.batch_of(i)`.
    pub batch: u32,
    /// Sum of final compromised ratios over the batch.
    pub compromised_sum: f64,
    /// Indicator moments over the batch's completed replications.
    pub indicators: IndicatorAccum,
}

/// Streaming accumulator behind [`MeasurementsCollector`]: one
/// [`BatchSnapshot`] per batch, in batch order. O(batches) state — no
/// campaign outcome survives its own `accumulate` call.
#[derive(Debug, Clone, Default)]
pub struct MeasurementsAccum {
    /// The folded batches, in batch order. Whoever fills it directly
    /// (the serve coordinator, from shard reports) keeps that order.
    pub batches: Vec<BatchSnapshot>,
}

impl MeasurementsAccum {
    /// The indicator accumulator over every batch: the batches' own
    /// accumulators merged in batch order. That is the executor's fold
    /// tree, so the result is bit-identical wherever each batch ran.
    #[must_use]
    pub fn indicators(&self) -> IndicatorAccum {
        let mut total = IndicatorAccum::new();
        for b in &self.batches {
            total.merge(&b.indicators);
        }
        total
    }

    /// Closes the accumulator into [`Measurements`]: the overall
    /// [`IndicatorSummary`](crate::indicators::IndicatorSummary) plus
    /// one success fraction and one mean compromised ratio per batch.
    /// `None` when no replication folded.
    ///
    /// A batch mean divides by the replications that actually folded
    /// into the batch, so a batch that lost replications to isolated
    /// failures reports the mean over its survivors.
    #[must_use]
    pub fn measurements(&self) -> Option<Measurements> {
        Some(Measurements {
            summary: self.indicators().finish().ok()?,
            batch_p_success: self
                .batches
                .iter()
                .map(|b| b.indicators.p_success())
                .collect(),
            batch_compromised: self
                .batches
                .iter()
                .map(|b| b.compromised_sum / b.indicators.replications() as f64)
                .collect(),
        })
    }
}

/// A [`Collector`] streaming campaign outcomes into [`Measurements`]:
/// the overall [`IndicatorSummary`](crate::indicators::IndicatorSummary)
/// plus per-batch success fractions and compromised ratios (the ANOVA
/// replicate units).
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
        let batch = plan.first_batch() + plan.batch_of(rep.index);
        match acc.batches.last_mut() {
            Some(last) if last.batch == batch => {
                last.compromised_sum += stats.final_compromised_ratio;
                last.indicators.push_stats(&stats);
            }
            _ => {
                let mut indicators = IndicatorAccum::new();
                indicators.push_stats(&stats);
                acc.batches.push(BatchSnapshot {
                    batch,
                    compromised_sum: stats.final_compromised_ratio,
                    indicators,
                });
            }
        }
    }

    fn merge(&self, into: &mut MeasurementsAccum, other: MeasurementsAccum) {
        into.batches.extend(other.batches);
    }

    fn finish(&self, plan: &ReplicationPlan, acc: MeasurementsAccum) -> Measurements {
        // Budgeted runs may fold fewer batches (truncation) or fewer
        // replications per batch (isolated failures) than the plan.
        debug_assert!(acc.batches.len() <= plan.batches() as usize);
        // The executor never calls `finish` on an empty fold (a run that
        // completed nothing returns `output: None`), so the accumulator
        // holds at least one replication here.
        #[allow(clippy::disallowed_methods)]
        acc.measurements()
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
