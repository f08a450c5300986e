//! Tests of independent replications across the `des` and `stats`
//! crates: a plan's seed schedule, and the executor folding each
//! replication's metrics into one `StreamingSummary` per metric.

mod tests {
    use diversify_des::exec::{Collector, Executor, Replication, ReplicationPlan};
    use diversify_des::{RngStream, StreamId};
    use diversify_stats::StreamingSummary;

    /// Folds the metrics a replication reports, position by position,
    /// into one [`StreamingSummary`] per metric.
    struct MomentsCollector;

    impl Collector<Vec<f64>> for MomentsCollector {
        type Accum = Vec<StreamingSummary>;
        type Output = Vec<StreamingSummary>;

        fn empty(&self) -> Self::Accum {
            Vec::new()
        }

        fn accumulate(
            &self,
            _plan: &ReplicationPlan,
            acc: &mut Self::Accum,
            _rep: Replication,
            values: Vec<f64>,
        ) {
            if acc.len() < values.len() {
                acc.resize(values.len(), StreamingSummary::new());
            }
            for (summary, value) in acc.iter_mut().zip(values) {
                summary.push(value);
            }
        }

        fn merge(&self, into: &mut Self::Accum, other: Self::Accum) {
            if into.len() < other.len() {
                into.resize(other.len(), StreamingSummary::new());
            }
            for (summary, part) in into.iter_mut().zip(&other) {
                summary.merge(part);
            }
        }

        fn finish(&self, _plan: &ReplicationPlan, acc: Self::Accum) -> Self::Output {
            acc
        }
    }

    #[test]
    fn seeds_are_stable_per_index() {
        let a = ReplicationPlan::flat(10, 9);
        let b = ReplicationPlan::flat(10_000, 9);
        for i in 0..10 {
            assert_eq!(a.seed_for(i), b.seed_for(i));
        }
    }

    #[test]
    fn seeds_differ_between_indices() {
        let plan = ReplicationPlan::flat(100, 9);
        let seeds: std::collections::HashSet<u64> = (0..100).map(|i| plan.seed_for(i)).collect();
        assert_eq!(seeds.len(), 100);
    }

    #[test]
    fn aggregates_multiple_metrics() {
        let s = Executor::default().collect(
            &ReplicationPlan::flat(500, 5),
            |rep| {
                let mut rng = RngStream::new(rep.seed, StreamId(0));
                vec![rng.uniform(), 2.0 * rng.uniform()]
            },
            &MomentsCollector,
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].count(), 500);
        assert!((s[1].mean() - 1.0).abs() < 0.1);
        assert!(s.get(2).is_none());
    }

    #[test]
    fn serial_and_parallel_summaries_match() {
        let plan = ReplicationPlan::flat(300, 11);
        let experiment = |rep: Replication| {
            let mut rng = RngStream::new(rep.seed, StreamId(3));
            vec![rng.uniform()]
        };
        let parallel = Executor::default().collect(&plan, experiment, &MomentsCollector);
        let serial = Executor::serial().collect(&plan, experiment, &MomentsCollector);
        let (p, s) = (&parallel[0], &serial[0]);
        assert_eq!(p.count(), s.count());
        assert_eq!(p.mean().to_bits(), s.mean().to_bits());
        assert_eq!(p.sample_variance().to_bits(), s.sample_variance().to_bits());
    }

    #[test]
    fn run_ws_matches_run() {
        let plan = ReplicationPlan::flat(200, 21);
        let plain = Executor::default().collect(
            &plan,
            |rep| {
                let mut rng = RngStream::new(rep.seed, StreamId(7));
                vec![rng.uniform()]
            },
            &MomentsCollector,
        );
        let ws = Executor::default().run_ws(
            &plan,
            Vec::<f64>::new,
            |scratch, rep| {
                scratch.push(rep.seed as f64); // workspace history must not leak
                let mut rng = RngStream::new(rep.seed, StreamId(7));
                vec![rng.uniform()]
            },
            &MomentsCollector,
        );
        let (p, w) = (&plain[0], &ws[0]);
        assert_eq!(p.count(), w.count());
        assert_eq!(p.mean().to_bits(), w.mean().to_bits());
        assert_eq!(p.sample_variance().to_bits(), w.sample_variance().to_bits());
    }

    #[test]
    #[should_panic(expected = "non-empty batch plan required")]
    fn zero_replications_rejected() {
        let _ = ReplicationPlan::flat(0, 0);
    }
}
