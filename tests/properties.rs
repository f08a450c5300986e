//! Property-based tests (proptest) on the workspace's core invariants.

// Test code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::attack::chain::{chain_success_probability, MachineChain};
use diversify::attack::tree::{AttackTree, TreeNode};
use diversify::stats::anova::{factorial_two_level, EffectSpec};
use diversify::stats::special::{inc_beta, inc_gamma};
use diversify_doe::design::full_factorial;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chain success probability is in [0,1], and diversity never helps
    /// the attacker.
    #[test]
    fn chain_probability_bounds(
        k in 1usize..8,
        p in 0.0f64..=1.0,
    ) {
        let same = chain_success_probability(&MachineChain::identical(k, p));
        let diff = chain_success_probability(&MachineChain::diverse(k, p));
        prop_assert!((0.0..=1.0).contains(&same));
        prop_assert!((0.0..=1.0).contains(&diff));
        prop_assert!(diff <= same + 1e-12, "diversity must not raise P_SA");
    }

    /// Attack-tree probability stays in [0,1] for random two-level trees,
    /// and raising any leaf never lowers the root (monotonicity).
    #[test]
    fn tree_monotone(
        p1 in 0.0f64..=1.0,
        p2 in 0.0f64..=1.0,
        p3 in 0.0f64..=1.0,
        bump in 0.0f64..=1.0,
    ) {
        let tree = AttackTree::new(TreeNode::or(vec![
            TreeNode::and(vec![TreeNode::leaf("a", p1), TreeNode::leaf("b", p2)]),
            TreeNode::leaf("c", p3),
        ])).expect("valid");
        let base = tree.success_probability();
        prop_assert!((0.0..=1.0).contains(&base));
        let raised = tree
            .with_leaf_probability("a", (p1 + bump).min(1.0))
            .success_probability();
        prop_assert!(raised + 1e-12 >= base);
    }

    /// Regularized incomplete beta/gamma stay within [0,1] and are
    /// monotone in x.
    #[test]
    fn special_functions_bounded(
        a in 0.1f64..20.0,
        b in 0.1f64..20.0,
        x in 0.0f64..=1.0,
        g in 0.0f64..50.0,
    ) {
        let ib = inc_beta(x, a, b);
        prop_assert!((0.0..=1.0).contains(&ib));
        let ib2 = inc_beta((x + 0.05).min(1.0), a, b);
        prop_assert!(ib2 + 1e-9 >= ib);
        let ig = inc_gamma(a, g);
        prop_assert!((0.0..=1.0).contains(&ig));
    }

    /// Full factorial designs are always balanced and orthogonal.
    #[test]
    fn factorial_designs_orthogonal(k in 1usize..7) {
        let names: Vec<String> = (0..k).map(|i| format!("f{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let d = full_factorial(&refs).expect("valid");
        prop_assert!(d.is_balanced());
        prop_assert!(d.is_orthogonal());
        prop_assert_eq!(d.runs(), 1 << k);
    }

    /// ANOVA sum-of-squares decomposition: effects + error ≤ total, and
    /// with a saturated effect set the decomposition is exact.
    #[test]
    fn anova_decomposition(
        responses in prop::collection::vec(
            prop::collection::vec(-100.0f64..100.0, 2),
            4
        )
    ) {
        let design = vec![vec![-1, -1], vec![1, -1], vec![-1, 1], vec![1, 1]];
        let effects = vec![
            EffectSpec::main("A", 0),
            EffectSpec::main("B", 1),
            EffectSpec::interaction("AB", 0, 1),
        ];
        let t = factorial_two_level(&design, &responses, &effects).expect("regular design");
        let sum: f64 = t.rows.iter().map(|r| r.sum_sq).sum();
        // Saturated model: SS_A + SS_B + SS_AB + SS_error == SS_total.
        prop_assert!((sum - t.ss_total).abs() < 1e-6 * (1.0 + t.ss_total));
        for r in &t.rows {
            prop_assert!(r.sum_sq >= -1e-9);
        }
    }
}
