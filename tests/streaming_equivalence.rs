//! Property tests for the streaming estimation path: streaming moments
//! must match their batch (stored-slice) counterparts under arbitrary
//! merge splits, and adaptive executor runs truncated at N replications
//! must be bit-identical to fixed plans of N.

// Test code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::des::exec::{
    accept_all, BudgetOutcome, Collector, Executor, MeanCollector, Replication, ReplicationPlan,
    RunSpec, StopRule,
};
use diversify::des::{RngStream, StreamId};
use diversify::stats::{BernoulliCounter, StreamingSummary, Summary};
use proptest::prelude::*;

/// Folds two scalar metrics per replication into one
/// [`StreamingSummary`] each.
struct PairMomentsCollector;

impl Collector<[f64; 2]> for PairMomentsCollector {
    type Accum = [StreamingSummary; 2];
    type Output = [StreamingSummary; 2];

    fn empty(&self) -> Self::Accum {
        [StreamingSummary::new(); 2]
    }

    fn accumulate(
        &self,
        _plan: &ReplicationPlan,
        acc: &mut Self::Accum,
        _rep: Replication,
        values: [f64; 2],
    ) {
        for (summary, value) in acc.iter_mut().zip(values) {
            summary.push(value);
        }
    }

    fn merge(&self, into: &mut Self::Accum, other: Self::Accum) {
        for (summary, part) in into.iter_mut().zip(&other) {
            summary.merge(part);
        }
    }

    fn finish(&self, _plan: &ReplicationPlan, acc: Self::Accum) -> Self::Output {
        acc
    }
}

/// Folds `data` into one accumulator through the segment boundaries in
/// `cuts` (arbitrary split positions), merging the partial accumulators
/// in order.
fn merged_through_splits(data: &[f64], cuts: &[usize]) -> StreamingSummary {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
    bounds.push(0);
    bounds.push(data.len());
    bounds.sort_unstable();
    let mut acc = StreamingSummary::new();
    for pair in bounds.windows(2) {
        let segment: StreamingSummary = data[pair[0]..pair[1]].iter().copied().collect();
        acc.merge(&segment);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming moments match the stored-slice summary to 1e-12, for
    /// every way of splitting the sample into merged sub-accumulators.
    #[test]
    fn streaming_summary_matches_batch_summary(
        data in prop::collection::vec(-1.0f64..1.0, 1..200),
        cuts in prop::collection::vec(0usize..256, 0..6),
    ) {
        let batch = Summary::from_slice(&data).expect("non-empty finite sample");
        let streamed = merged_through_splits(&data, &cuts);
        prop_assert_eq!(streamed.count() as usize, batch.count());
        prop_assert!((streamed.mean() - batch.mean()).abs() < 1e-12);
        prop_assert!((streamed.sample_sd() - batch.sd()).abs() < 1e-12);
        prop_assert_eq!(streamed.min(), batch.min());
        prop_assert_eq!(streamed.max(), batch.max());
    }

    /// The Bernoulli counter is exactly the count pair under any split.
    #[test]
    fn bernoulli_counter_matches_counts(
        outcomes in prop::collection::vec(any::<bool>(), 1..200),
        cut in 0usize..256,
    ) {
        let cut = cut % (outcomes.len() + 1);
        let mut merged: BernoulliCounter = outcomes[..cut].iter().copied().collect();
        let tail: BernoulliCounter = outcomes[cut..].iter().copied().collect();
        merged.merge(&tail);
        prop_assert_eq!(merged.trials() as usize, outcomes.len());
        prop_assert_eq!(
            merged.successes() as usize,
            outcomes.iter().filter(|&&b| b).count()
        );
    }

    /// An adaptive run that executes R rounds is bit-identical to the
    /// fixed plan of R batches — on both executors, for any batch size
    /// and master seed.
    #[test]
    fn adaptive_truncation_is_bit_identical_to_fixed_plan(
        master in any::<u64>(),
        batch in 1u32..8,
        rounds in 1u32..6,
        draws in 1u32..20,
    ) {
        let base = ReplicationPlan::new(1, batch, master);
        // A target no Monte-Carlo run meets: the run executes exactly
        // its replication cap, i.e. `rounds` rounds.
        let rule = StopRule::relative(1e-15, 1, batch * rounds);
        let task = |rep: diversify::des::Replication| {
            let mut rng = RngStream::new(rep.seed, StreamId(7));
            (0..draws).map(|_| rng.uniform()).sum::<f64>() / f64::from(draws)
        };
        let fixed_plan = base.with_batches(rounds);
        let fixed = Executor::serial().collect(&fixed_plan, task, &MeanCollector);
        let never = |_: &_, _| None;
        for exec in [Executor::serial(), Executor::parallel()] {
            let adaptive = exec.execute(
                &RunSpec::new(&base).until(&rule, &never),
                || (),
                |(): &mut (), rep| task(rep),
                &MeanCollector,
                accept_all,
            );
            prop_assert_eq!(adaptive.rounds, rounds);
            prop_assert_eq!(adaptive.attempted, batch * rounds);
            prop_assert_eq!(adaptive.plan, fixed_plan);
            prop_assert!(adaptive.budget_outcome != BudgetOutcome::PrecisionMet);
            prop_assert_eq!(adaptive.output.unwrap().to_bits(), fixed.to_bits());
        }
    }

    /// A two-metric streaming fold is scheduling-invariant: the serial
    /// and parallel executors give the same moments, bit for bit,
    /// because the Welford merge follows the executor's fixed per-round
    /// fold shape.
    #[test]
    fn metrics_fold_matches_across_executors(
        master in any::<u64>(),
        replications in 2u32..40,
    ) {
        let plan = ReplicationPlan::flat(replications, master);
        let experiment = |rep: Replication| {
            let mut rng = RngStream::new(rep.seed, StreamId(3));
            [rng.uniform(), rng.exponential(2.0)]
        };
        let serial = Executor::serial().collect(&plan, experiment, &PairMomentsCollector);
        let parallel = Executor::parallel().collect(&plan, experiment, &PairMomentsCollector);
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert_eq!(s.count(), p.count());
            prop_assert_eq!(s.mean().to_bits(), p.mean().to_bits());
            prop_assert_eq!(s.sample_variance().to_bits(), p.sample_variance().to_bits());
        }
    }
}
