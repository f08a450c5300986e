//! Tests of the Welford moment accumulator that every replicated
//! observation in the workspace folds into, `stats::StreamingSummary`.

mod tests {
    use diversify_stats::StreamingSummary;

    #[test]
    fn empty_welford_is_zeroish() {
        let w = StreamingSummary::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.standard_error(), 0.0);
    }

    #[test]
    fn single_observation() {
        let w: StreamingSummary = [5.0].into_iter().collect();
        assert_eq!(w.mean(), 5.0);
        assert_eq!(w.sample_variance(), 0.0);
        assert_eq!(w.min(), 5.0);
        assert_eq!(w.max(), 5.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let w: StreamingSummary = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-10);
        assert!((w.sample_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let full: StreamingSummary = xs.iter().copied().collect();
        let a: StreamingSummary = xs[..200].iter().copied().collect();
        let b: StreamingSummary = xs[200..].iter().copied().collect();
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.count(), full.count());
        assert!((merged.mean() - full.mean()).abs() < 1e-10);
        assert!((merged.sample_variance() - full.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a: StreamingSummary = [1.0, 2.0, 3.0].into_iter().collect();
        let mut b = a;
        b.merge(&StreamingSummary::new());
        assert_eq!(a, b);
        let mut c = StreamingSummary::new();
        c.merge(&a);
        assert_eq!(c.mean(), a.mean());
    }

    #[test]
    fn display_is_nonempty() {
        let w: StreamingSummary = [1.0, 2.0].into_iter().collect();
        assert!(w.to_string().contains("n=2"));
    }
}
