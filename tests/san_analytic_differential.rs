//! Differential verification of the exact CTMC backend against the
//! Monte-Carlo simulator — the two backends share nothing but the model
//! and the reward specs, so agreement here is evidence neither has
//! drifted.
//!
//! * On randomized small all-exponential SANs, analytic transient values
//!   must fall inside the simulation's 99% confidence bands.
//! * On the r8 workload (a miniature campaign with infection spread, a
//!   detection race and an impairment goal), all four security
//!   indicators — P_attack, TTA, TTSF, compromised ratio — must agree.
//! * On the Sec. I machine chain, the analytic success probability must
//!   reproduce the paper's closed form (`P_M` vs `P_M1 × P_M2`) to
//!   analytic precision.
//! * Property tests pin the numerics: generator row consistency,
//!   uniformization weights summing to one, vanishing-state elimination
//!   preserving probability, and explorer invariance to activity
//!   declaration order.

// Test code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::attack::chain::{chain_success_probability, MachineChain};
use diversify::attack::to_san::{compile_machine_chain, compile_stage_chain, StageParams};
use diversify::san::{
    explore, poisson_weights, solve, ActivityTiming, ExploreOptions, FiringDistribution, Marking,
    Method, PlaceId, RewardSpec, SanBuilder, SanModel, TransientResult,
};
use diversify_des::{RngStream, SimTime, StreamId};
use proptest::prelude::*;

/// 99% normal quantile for the Monte-Carlo confidence bands.
const Z99: f64 = 2.576;

fn analytic(model: &SanModel, rewards: &[RewardSpec], horizon: f64) -> TransientResult {
    solve(
        model,
        rewards,
        Method::Analytic {
            horizon: SimTime::from_secs(horizon),
            tol: 1e-11,
            max_states: 50_000,
        },
    )
    .expect("test model is analytic-solvable")
}

fn simulated(
    model: &SanModel,
    rewards: &[RewardSpec],
    horizon: f64,
    reps: u32,
    seed: u64,
) -> TransientResult {
    diversify::san::TransientSolver::new(SimTime::from_secs(horizon), reps, seed)
        .solve(model, rewards)
}

/// Asserts the analytic value lies inside the simulation's 99% CI on the
/// mean (plus a small absolute floor for near-degenerate variances).
fn assert_mean_agrees(name: &str, exact: f64, mc: &diversify::san::solver::RewardEstimate) {
    let n = mc.stats.count() as f64;
    assert!(n > 0.0, "{name}: no Monte-Carlo observations");
    let half = Z99 * (mc.stats.sample_variance() / n).sqrt() + 1e-6 + 0.02 * exact.abs();
    assert!(
        (mc.stats.mean() - exact).abs() <= half,
        "{name}: simulated {} outside analytic band {exact} ± {half}",
        mc.stats.mean()
    );
}

/// Asserts the analytic probability lies inside the simulation's 99%
/// binomial band.
fn assert_probability_agrees(name: &str, exact: f64, observed: f64, reps: u32) {
    let half = Z99 * (exact * (1.0 - exact) / f64::from(reps)).sqrt() + 0.01;
    assert!(
        (observed - exact).abs() <= half,
        "{name}: simulated {observed} outside analytic band {exact} ± {half}"
    );
}

// ---------------------------------------------------------------------
// r8 workload: all four security indicators on a miniature campaign SAN.
// ---------------------------------------------------------------------

/// A hand-built miniature campaign, all-exponential: an entry node gets
/// infected, spreads to a PLC, the PLC is impaired (P_attack / TTA /
/// compromised ratio), while a detector races the intrusion (TTSF).
fn mini_campaign() -> (SanModel, [PlaceId; 4]) {
    let mut b = SanBuilder::new();
    let clean_entry = b.place("clean-entry", 1);
    let inf_entry = b.place("inf-entry", 0);
    let clean_plc = b.place("clean-plc", 1);
    let inf_plc = b.place("inf-plc", 0);
    let impaired = b.place("impaired", 0);
    let detected = b.place("detected", 0);
    b.timed_activity("seed", FiringDistribution::Exponential { rate: 0.8 })
        .input_arc(clean_entry, 1)
        .output_arc(inf_entry, 1)
        .build();
    b.timed_activity("hop", FiringDistribution::Exponential { rate: 0.5 })
        .input_arc(clean_plc, 1)
        .guard(move |m| m.tokens(inf_entry) > 0)
        .case(0.7, vec![(inf_plc, 1)])
        .case(0.3, vec![(clean_plc, 1)])
        .build();
    b.timed_activity("payload", FiringDistribution::Exponential { rate: 0.6 })
        .input_arc(inf_plc, 1)
        .output_arc(inf_plc, 1)
        .output_arc(impaired, 1)
        .guard(move |m| m.tokens(impaired) == 0)
        .build();
    b.timed_activity("detect", FiringDistribution::Exponential { rate: 0.15 })
        .guard(move |m| m.tokens(inf_entry) > 0 && m.tokens(detected) == 0)
        .output_arc(detected, 1)
        .build();
    let model = b.build().unwrap();
    (model, [inf_entry, inf_plc, impaired, detected])
}

#[test]
fn r8_all_four_indicators_agree() {
    let (model, [inf_entry, inf_plc, impaired, detected]) = mini_campaign();
    let horizon = 24.0;
    let rewards = [
        RewardSpec::first_passage("p_attack_tta", move |m| m.tokens(impaired) > 0),
        RewardSpec::first_passage("ttsf", move |m| m.tokens(detected) > 0),
        RewardSpec::rate("compromised", move |m| {
            f64::from(m.tokens(inf_entry).min(1) + m.tokens(inf_plc).min(1)) / 2.0
        }),
    ];
    let reps = 4_000;
    let exact = analytic(&model, &rewards, horizon);
    let mc = simulated(&model, &rewards, horizon, reps, 0xD5_2013);

    // Indicator 1: P_attack.
    let e_attack = exact.estimate("p_attack_tta").unwrap();
    let m_attack = mc.estimate("p_attack_tta").unwrap();
    assert_probability_agrees(
        "P_attack",
        e_attack.probability(0),
        m_attack.probability(reps),
        reps,
    );
    // Indicator 2: TTA (conditional on success within the window).
    assert_mean_agrees("TTA", e_attack.stats.mean(), m_attack);
    // Indicator 3: TTSF.
    let e_ttsf = exact.estimate("ttsf").unwrap();
    let m_ttsf = mc.estimate("ttsf").unwrap();
    assert_probability_agrees(
        "P_detect",
        e_ttsf.probability(0),
        m_ttsf.probability(reps),
        reps,
    );
    assert_mean_agrees("TTSF", e_ttsf.stats.mean(), m_ttsf);
    // Indicator 4: compromised ratio (time-averaged).
    let e_ratio = exact.estimate("compromised").unwrap();
    let m_ratio = mc.estimate("compromised").unwrap();
    assert_mean_agrees("compromised ratio", e_ratio.stats.mean(), m_ratio);
}

#[test]
fn stage_chain_indicators_agree() {
    let params = vec![
        StageParams {
            success_probability: 0.4,
            attempt_rate_per_hour: 1.5,
        };
        4
    ];
    let model = compile_stage_chain(&params).unwrap();
    let success = diversify::attack::to_san::success_place(&model);
    let attempt0 = model.activity_by_name("attempt-0").unwrap();
    let rewards = [
        RewardSpec::first_passage("tta", move |m| m.tokens(success) == 1),
        RewardSpec::impulse("attempts-0", attempt0),
    ];
    let horizon = 12.0;
    let reps = 4_000;
    let exact = analytic(&model, &rewards, horizon);
    let mc = simulated(&model, &rewards, horizon, reps, 0xBEEF);
    let e_tta = exact.estimate("tta").unwrap();
    let m_tta = mc.estimate("tta").unwrap();
    assert_probability_agrees(
        "P(win)",
        e_tta.probability(0),
        m_tta.probability(reps),
        reps,
    );
    assert_mean_agrees("TTA", e_tta.stats.mean(), m_tta);
    assert_mean_agrees(
        "first-stage attempts",
        exact.estimate("attempts-0").unwrap().stats.mean(),
        mc.estimate("attempts-0").unwrap(),
    );
}

// ---------------------------------------------------------------------
// Machine chain: closed form asserted to analytic precision.
// ---------------------------------------------------------------------

#[test]
fn machine_chain_closed_form_to_analytic_precision() {
    // The paper's Sec. I comparison: identical machines cost one exploit
    // (P_M), diverse machines multiply (P_M1 × P_M2).
    for chain in [
        MachineChain::identical(2, 0.3),
        MachineChain::diverse(2, 0.3),
        MachineChain::identical(5, 0.7),
        MachineChain::diverse(5, 0.7),
        MachineChain::new(vec![(0, 0.8), (1, 0.25), (0, 0.9), (2, 0.5)]),
    ] {
        let expect = chain_success_probability(&chain);
        let san = compile_machine_chain(&chain, 1.0).unwrap();
        let win = san.success;
        let r = analytic(
            &san.model,
            &[RewardSpec::first_passage("win", move |m| {
                m.tokens(win) == 1
            })],
            200.0 * chain.len() as f64,
        );
        let got = r.estimate("win").unwrap().probability(0);
        assert!(
            (got - expect).abs() < 1e-9,
            "chain {chain:?}: analytic {got} vs closed form {expect}"
        );
    }
}

// ---------------------------------------------------------------------
// Randomized small exponential SANs.
// ---------------------------------------------------------------------

/// One randomized activity, held as data so the same model can be built
/// with any declaration order (the order-invariance property needs the
/// permuted twin of a model, not a fresh draw).
enum SpecAct {
    Instant {
        src: usize,
        dst: usize,
    },
    Timed {
        src: usize,
        rate: f64,
        guard: Option<(usize, u32)>,
        cases: Vec<(f64, usize)>,
    },
}

/// Draws a random token-conserving all-exponential SAN spec: every
/// activity moves exactly one token, so the reachable state space is
/// finite. Instantaneous activities route strictly "upward" so cascades
/// terminate.
fn random_spec(model_seed: u64) -> (Vec<u32>, Vec<SpecAct>) {
    let mut rng = RngStream::new(model_seed, StreamId(0xA2A));
    let np = 3 + rng.index(3);
    let initial: Vec<u32> = (0..np).map(|_| 1 + rng.index(2) as u32).collect();
    let na = 3 + rng.index(5);
    let mut acts = Vec::with_capacity(na);
    for _ in 0..na {
        if rng.bernoulli(0.25) {
            let src = rng.index(np - 1);
            let dst = src + 1 + rng.index(np - src - 1);
            acts.push(SpecAct::Instant { src, dst });
            continue;
        }
        let src = rng.index(np);
        let rate = 0.3 + rng.uniform() * 2.0;
        let guard = rng
            .bernoulli(0.3)
            .then(|| (rng.index(np), 1 + rng.index(4) as u32));
        let cases = if rng.bernoulli(0.4) {
            vec![
                (0.2 + rng.uniform(), rng.index(np)),
                (0.2 + rng.uniform(), rng.index(np)),
            ]
        } else {
            vec![(1.0, rng.index(np))]
        };
        acts.push(SpecAct::Timed {
            src,
            rate,
            guard,
            cases,
        });
    }
    (initial, acts)
}

/// Materializes a spec, declaring activities in the given index order.
/// Activity names track the spec index, so the same activity keeps its
/// name under permutation.
fn build_from_spec(initial: &[u32], acts: &[SpecAct], order: &[usize]) -> SanModel {
    let mut b = SanBuilder::new();
    let places: Vec<PlaceId> = initial
        .iter()
        .enumerate()
        .map(|(i, &t)| b.place(format!("p{i}"), t))
        .collect();
    for &ai in order {
        match &acts[ai] {
            SpecAct::Instant { src, dst } => {
                b.instantaneous_activity(format!("i{ai}"))
                    .input_arc(places[*src], 1)
                    .output_arc(places[*dst], 1)
                    .build();
            }
            SpecAct::Timed {
                src,
                rate,
                guard,
                cases,
            } => {
                let mut ab = b
                    .timed_activity(
                        format!("t{ai}"),
                        FiringDistribution::Exponential { rate: *rate },
                    )
                    .input_arc(places[*src], 1);
                if let Some((gp, lim)) = *guard {
                    let gpid = places[gp];
                    ab = ab.guard(move |m| m.tokens(gpid) <= lim);
                }
                for &(w, dst) in cases {
                    ab = ab.case(w, vec![(places[dst], 1)]);
                }
                ab.build();
            }
        }
    }
    b.build().expect("randomized model is structurally valid")
}

fn random_exponential_model(model_seed: u64) -> SanModel {
    let (initial, acts) = random_spec(model_seed);
    let order: Vec<usize> = (0..acts.len()).collect();
    build_from_spec(&initial, &acts, &order)
}

fn reversed_activity_model(model_seed: u64) -> SanModel {
    let (initial, acts) = random_spec(model_seed);
    let order: Vec<usize> = (0..acts.len()).rev().collect();
    build_from_spec(&initial, &acts, &order)
}

#[test]
fn randomized_sans_simulation_inside_analytic_bands() {
    let horizon = 8.0;
    let reps = 2_000;
    for model_seed in 0..12u64 {
        let model = random_exponential_model(model_seed);
        let p0 = model.place_by_name("p0").unwrap();
        let rewards = [
            RewardSpec::rate("occupancy", move |m| f64::from(m.tokens(p0))),
            RewardSpec::first_passage("drained", move |m| m.tokens(p0) == 0),
        ];
        let exact = analytic(&model, &rewards, horizon);
        let mc = simulated(&model, &rewards, horizon, reps, model_seed ^ 0xC0FFEE);

        assert_mean_agrees(
            &format!("occupancy (model {model_seed})"),
            exact.estimate("occupancy").unwrap().stats.mean(),
            mc.estimate("occupancy").unwrap(),
        );
        let e_fp = exact.estimate("drained").unwrap();
        let m_fp = mc.estimate("drained").unwrap();
        assert_probability_agrees(
            &format!("P(drained) (model {model_seed})"),
            e_fp.probability(0),
            m_fp.probability(reps),
            reps,
        );
        if e_fp.probability(0) > 0.05 && e_fp.stats.count() > 0 {
            assert_mean_agrees(
                &format!("T(drained) (model {model_seed})"),
                e_fp.stats.mean(),
                m_fp,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Property tests for the numerics.
// ---------------------------------------------------------------------

/// Total exponential rate enabled in `marking` — an independent path to
/// the generator row sum.
fn enabled_rate_sum(model: &SanModel, marking: &Marking) -> f64 {
    model
        .activity_ids()
        .filter(|&id| model.is_enabled(id, marking))
        .filter_map(|id| match model.activity(id).timing {
            ActivityTiming::Timed(FiringDistribution::Exponential { rate }) => Some(rate),
            _ => None,
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generator rows sum to zero: for every tangible state, the
    /// off-diagonal row sum plus the self-loop jump rate reconstructs the
    /// total exponential rate enabled in the state (the diagonal is
    /// `-exit_rate` by construction, so this is the row-sum identity
    /// checked through an independent code path).
    #[test]
    fn prop_generator_rows_sum_to_zero(model_seed in any::<u64>()) {
        let model = random_exponential_model(model_seed);
        let space = explore(&model, &[], ExploreOptions::default()).unwrap();
        for s in 0..space.state_count() {
            let row_sum: f64 = space.transitions(s).map(|(_, r)| r).sum();
            prop_assert!((row_sum - space.exit_rate(s)).abs() < 1e-9);
            let total = space.exit_rate(s) + space.self_loop_rate(s);
            let expect = enabled_rate_sum(&model, space.state(s));
            prop_assert!(
                (total - expect).abs() < 1e-9,
                "state {}: generator total {} vs enabled rate {}", s, total, expect
            );
        }
    }

    /// Uniformization step distributions sum to 1 within tolerance, for
    /// means spanning eight orders of magnitude.
    #[test]
    fn prop_poisson_weights_sum_to_one(mantissa in 1u64..10_000, exp in 0i32..5) {
        let lambda_t = mantissa as f64 * 10f64.powi(exp - 2);
        let tol = 1e-9;
        let w = poisson_weights(lambda_t, tol);
        let total: f64 = w.weights().iter().sum();
        prop_assert!((total - 1.0).abs() < tol + 1e-12, "λt={}: Σ={}", lambda_t, total);
    }

    /// Vanishing-state elimination preserves probability: the initial
    /// distribution sums to 1 and no tangible state enables an
    /// instantaneous activity.
    #[test]
    fn prop_vanishing_elimination_preserves_probability(model_seed in any::<u64>()) {
        let model = random_exponential_model(model_seed);
        let space = explore(&model, &[], ExploreOptions::default()).unwrap();
        let initial_mass: f64 = space.initial().iter().map(|&(_, p)| p).sum();
        prop_assert!((initial_mass - 1.0).abs() < 1e-12);
        for s in 0..space.state_count() {
            for id in model.activity_ids() {
                if model.activity(id).is_instantaneous() {
                    prop_assert!(
                        !model.is_enabled(id, space.state(s)),
                        "state {} is vanishing", s
                    );
                }
            }
        }
    }

    /// The explorer is invariant to activity declaration order: reversing
    /// the declarations changes state indices but neither the state count
    /// nor any reward value.
    #[test]
    fn prop_explorer_invariant_to_activity_order(model_seed in any::<u64>()) {
        let forward = random_exponential_model(model_seed);
        let reversed = reversed_activity_model(model_seed);
        let horizon = 5.0;
        let p0f = forward.place_by_name("p0").unwrap();
        let p0r = reversed.place_by_name("p0").unwrap();
        let rf = analytic(&forward, &[
            RewardSpec::rate("occ", move |m| f64::from(m.tokens(p0f))),
            RewardSpec::first_passage("hit", move |m| m.tokens(p0f) == 0),
        ], horizon);
        let rr = analytic(&reversed, &[
            RewardSpec::rate("occ", move |m| f64::from(m.tokens(p0r))),
            RewardSpec::first_passage("hit", move |m| m.tokens(p0r) == 0),
        ], horizon);
        let sf = explore(&forward, &[], ExploreOptions::default()).unwrap();
        let sr = explore(&reversed, &[], ExploreOptions::default()).unwrap();
        prop_assert_eq!(sf.state_count(), sr.state_count());
        let (a, b) = (
            rf.estimate("occ").unwrap().stats.mean(),
            rr.estimate("occ").unwrap().stats.mean(),
        );
        prop_assert!((a - b).abs() < 1e-9, "occ {} vs {}", a, b);
        let (pa, pb) = (
            rf.estimate("hit").unwrap().probability(0),
            rr.estimate("hit").unwrap().probability(0),
        );
        prop_assert!((pa - pb).abs() < 1e-9, "hit {} vs {}", pa, pb);
    }
}
