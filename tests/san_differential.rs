//! SAN trajectories pinned to recorded digests.
//!
//! The simulator reconciles every timed activity in index order after
//! each event and settles instantaneous cascades with an index-order
//! scan, so a `(model, seed)` pair fixes the whole firing sequence.
//! This suite folds every `(time bits, activity, case)` firing of a run,
//! then its final marking, firing count and error flag, into one FNV-1a
//! digest per workload group and compares it with the recorded value:
//! randomized models (timed and instantaneous activities, multi-token
//! arcs, weighted cases, guards), a model whose enablement runs through
//! gate functions with an instantaneous `recycle` cascade, and the
//! SCoPE-derived network-campaign SAN under the three shipped threats.
//! It also pins the bits of R8's quick-scale `TransientSolver` estimate
//! on the 4-stage chain.
//!
//! Delays are sampled through `ln`, so the pins hold where the
//! platform's libm returns the same bits (any x86_64 glibc host).

// Test code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::attack::campaign::ThreatModel;
use diversify::attack::to_san::{
    compile_network_campaign, compile_stage_chain, success_place, StageParams,
};
use diversify::san::{
    ActivityId, FiringDistribution, Marking, Observer, PlaceId, RewardSpec, SanBuilder, SanModel,
    Simulator, TransientSolver,
};
use diversify::scada::scope::{ScopeConfig, ScopeSystem};
use diversify_des::{RngStream, SimTime, StreamId};

/// FNV-1a over the little-endian bytes of every folded word.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Observer for Digest {
    fn on_fire(&mut self, now: SimTime, activity: ActivityId, case: usize, _m: &Marking) {
        self.word(now.as_secs().to_bits());
        self.word(activity.index() as u64);
        self.word(case as u64);
    }
}

/// Runs one replication to `horizon`, folding its firings and then its
/// final marking, firing count and error flag into `digest`.
fn fold_run(digest: &mut Digest, model: &SanModel, seed: u64, horizon: f64) {
    let mut sim = Simulator::new(model, seed);
    sim.run_until_observed(SimTime::from_secs(horizon), digest);
    for &tokens in sim.marking().as_slice() {
        digest.word(u64::from(tokens));
    }
    digest.word(sim.firings());
    digest.word(u64::from(sim.error().is_some()));
}

/// Builds a random SAN: 3–7 places, 3–10 activities mixing timed and
/// instantaneous timing, multi-token arcs, weighted cases and guards.
/// Instantaneous activities route tokens strictly "upward" (to higher
/// place indices) so cascades always terminate.
fn random_model(model_seed: u64) -> SanModel {
    let mut rng = RngStream::new(model_seed, StreamId(0xD1FF));
    let np = 3 + rng.index(5);
    let mut b = SanBuilder::new();
    let places: Vec<PlaceId> = (0..np)
        .map(|i| b.place(format!("p{i}"), rng.index(4) as u32))
        .collect();
    let na = 3 + rng.index(8);
    for ai in 0..na {
        if rng.bernoulli(0.3) {
            // Instantaneous: src -> dst with dst strictly above src.
            let src = rng.index(np - 1);
            let dst = src + 1 + rng.index(np - src - 1);
            b.instantaneous_activity(format!("i{ai}"))
                .input_arc(places[src], 1)
                .output_arc(places[dst], 1)
                .build();
            continue;
        }
        let dist = match rng.index(3) {
            0 => FiringDistribution::Exponential {
                rate: 0.5 + rng.uniform() * 3.0,
            },
            1 => FiringDistribution::Deterministic {
                delay: 0.1 + rng.uniform(),
            },
            _ => FiringDistribution::Uniform {
                lo: 0.1,
                hi: 0.2 + rng.uniform() * 2.0,
            },
        };
        let src = places[rng.index(np)];
        let mut ab = b
            .timed_activity(format!("t{ai}"), dist)
            .input_arc(src, 1 + rng.index(2) as u32);
        // A guard with probability 0.35 + 0.65 × 0.25, drawn as two
        // trials so the generator keeps the draw schedule the pinned
        // models were built with.
        if rng.bernoulli(0.35) || rng.bernoulli(0.25) {
            let gp = places[rng.index(np)];
            let lim = 1 + rng.index(6) as u32;
            ab = ab.guard(move |m| m.tokens(gp) <= lim);
        }
        if rng.bernoulli(0.4) {
            // Two weighted cases.
            let case = |rng: &mut RngStream, b: &[PlaceId]| -> Vec<(PlaceId, u32)> {
                (0..1 + rng.index(2))
                    .map(|_| (b[rng.index(b.len())], 1))
                    .collect()
            };
            let (w1, w2) = (0.2 + rng.uniform(), 0.2 + rng.uniform());
            let c1 = case(&mut rng, &places);
            let c2 = case(&mut rng, &places);
            ab.case(w1, c1).case(w2, c2).build();
        } else {
            let dst = places[rng.index(np)];
            ab.output_arc(dst, 1).build();
        }
    }
    b.build().expect("randomized model is structurally valid")
}

/// `grab` takes a pool token through an input gate, `finish` releases
/// it through an output gate, and the instantaneous `recycle` turns
/// three finished tokens back into two pool tokens mid-run.
fn conservative_gate_model() -> SanModel {
    let mut b = SanBuilder::new();
    let pool = b.place("pool", 6);
    let busy = b.place("busy", 0);
    let done = b.place("done", 0);
    b.timed_activity("grab", FiringDistribution::Exponential { rate: 2.0 })
        .input_gate(
            move |m| m.tokens(pool) > 0 && m.tokens(busy) < 2,
            move |m| {
                m.remove_tokens(pool, 1);
                m.add_tokens(busy, 1);
            },
        )
        .build();
    b.timed_activity("finish", FiringDistribution::Exponential { rate: 3.0 })
        .input_arc(busy, 1)
        .output_gate(move |m| m.add_tokens(done, 1))
        .build();
    b.instantaneous_activity("recycle")
        .input_arc(done, 3)
        .output_arc(pool, 2)
        .build();
    b.build().unwrap()
}

#[test]
fn randomized_models_event_for_event() {
    let mut digest = Digest::new();
    for model_seed in 0..40u64 {
        let model = random_model(model_seed);
        for run_seed in 0..3u64 {
            fold_run(
                &mut digest,
                &model,
                run_seed.wrapping_mul(7) + model_seed,
                200.0,
            );
        }
    }
    assert_eq!(digest.0, 0xa2e0_3572_4cef_462e, "digest {:#018x}", digest.0);
}

#[test]
fn scope_campaign_san_event_for_event() {
    let net = ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone();
    let mut digest = Digest::new();
    for threat in [
        ThreatModel::stuxnet_like(),
        ThreatModel::duqu_like(),
        ThreatModel::flame_like(),
    ] {
        let san = compile_network_campaign(&net, &threat).expect("compiles");
        for seed in 0..8u64 {
            fold_run(&mut digest, &san.model, seed, 24.0 * 90.0);
        }
    }
    assert_eq!(digest.0, 0xa192_f216_d7d2_a32e, "digest {:#018x}", digest.0);
}

#[test]
fn conservative_gate_model_event_for_event() {
    let model = conservative_gate_model();
    let mut digest = Digest::new();
    for seed in 0..20u64 {
        fold_run(&mut digest, &model, seed, 300.0);
    }
    assert_eq!(digest.0, 0x7a3d_8ae6_4d78_3a65, "digest {:#018x}", digest.0);
}

/// R8 at quick scale: 500 replications of the 4-stage chain (p = 0.5,
/// one attempt per hour), seed 3, first passage to the success place.
#[test]
fn r8_quick_transient_estimate_matches_its_pin() {
    let params = vec![
        StageParams {
            success_probability: 0.5,
            attempt_rate_per_hour: 1.0,
        };
        4
    ];
    let model = compile_stage_chain(&params).unwrap();
    let success = success_place(&model);
    let result = TransientSolver::new(SimTime::from_secs(1e7), 500, 3).solve(
        &model,
        &[RewardSpec::first_passage("tta", move |m| {
            m.tokens(success) == 1
        })],
    );
    let est = result.estimate("tta").unwrap();
    let bits = (
        est.occurrences,
        est.stats.count(),
        est.stats.mean().to_bits(),
        est.stats.m2().to_bits(),
        est.stats.min().to_bits(),
        est.stats.max().to_bits(),
    );
    assert_eq!(
        bits,
        (
            500,
            500,
            0x401f_eedd_8aec_4e4a,
            0x40be_a13d_6ed8_e92d,
            0x3ff4_bd24_9d59_b4fb,
            0x4039_6645_1720_52dc,
        ),
        "{bits:#x?}"
    );
}
