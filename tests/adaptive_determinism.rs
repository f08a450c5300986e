//! Cross-crate guarantees of the adaptive-precision replication path:
//! an adaptive run is nothing but a fixed plan whose size was chosen on
//! the fly — truncating it at N replications reproduces the fixed plan
//! of N bit for bit, on every executor, at the measurement and pipeline
//! levels.

// Test code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::attack::campaign::{CampaignConfig, ThreatModel};
use diversify::core::exec::{campaign_plan, Executor};
use diversify::core::pipeline::{Pipeline, PipelineConfig};
use diversify::core::runner::{
    measure_configuration_run, measure_configuration_with, PrecisionTarget,
};
use diversify::scada::network::ScadaNetwork;
use diversify::scada::scope::{ScopeConfig, ScopeSystem};

fn scope_network() -> ScadaNetwork {
    ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone()
}

fn short_campaign() -> CampaignConfig {
    CampaignConfig {
        max_ticks: 24 * 10,
        detection_stops_attack: false,
    }
}

/// Forces real worker threads even on single-core CI machines so the
/// parallel scheduling path is actually exercised.
fn force_worker_threads() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
}

/// The headline property: an adaptive run that stopped after N
/// replications returns `Measurements` bit-identical to the fixed plan
/// of N — every field, not approximately.
#[test]
fn adaptive_measurements_are_bit_identical_to_fixed_plan() {
    force_worker_threads();
    let net = scope_network();
    let threat = ThreatModel::stuxnet_like();
    let base = campaign_plan(1, 8, 0xADA9);
    // An unreachable target pins the adaptive run to its cap (4 rounds);
    // a reachable one stops wherever the variance says. Both must match
    // the fixed plan of whatever size they ended at.
    let targets = [
        PrecisionTarget::p_success(1e-12, 8, 32),
        PrecisionTarget::p_success(0.10, 8, 400),
    ];
    for target in &targets {
        for exec in [Executor::serial(), Executor::parallel()] {
            let adaptive = measure_configuration_run(
                &net,
                &threat,
                short_campaign(),
                &base,
                exec,
                Some(target),
                None,
            );
            assert_eq!(adaptive.attempted % 8, 0);
            let fixed =
                measure_configuration_with(&net, &threat, short_campaign(), &adaptive.plan, exec);
            let output = adaptive.output.as_ref().expect("a strict run completes");
            let (a, f) = (&output.summary, &fixed.summary);
            assert_eq!(a.replications, f.replications);
            assert_eq!(a.successes, f.successes);
            assert_eq!(a.detections, f.detections);
            assert_eq!(a.p_success.to_bits(), f.p_success.to_bits());
            assert_eq!(a.mean_tta, f.mean_tta);
            assert_eq!(a.mean_ttsf, f.mean_ttsf);
            assert_eq!(a.tta, f.tta);
            assert_eq!(a.ttsf, f.ttsf);
            assert_eq!(a.compromised, f.compromised);
            assert_eq!(output.batch_p_success, fixed.batch_p_success);
            assert_eq!(output.batch_compromised, fixed.batch_compromised);
        }
    }
}

/// Serial and parallel adaptive runs agree on everything, including how
/// many replications they decided to spend.
#[test]
fn adaptive_runs_are_executor_invariant() {
    force_worker_threads();
    let net = scope_network();
    let threat = ThreatModel::stuxnet_like();
    let target = PrecisionTarget::p_success(0.08, 16, 240);
    let base = campaign_plan(1, 8, 0x5EED5);
    let run = |executor| {
        measure_configuration_run(
            &net,
            &threat,
            short_campaign(),
            &base,
            executor,
            Some(&target),
            None,
        )
    };
    let (serial, parallel) = (run(Executor::serial()), run(Executor::parallel()));
    assert_eq!(serial.attempted, parallel.attempted);
    assert_eq!(serial.rounds, parallel.rounds);
    assert_eq!(serial.budget_outcome, parallel.budget_outcome);
    assert_eq!(serial.precision, parallel.precision);
    let (serial, parallel) = (serial.output.unwrap(), parallel.output.unwrap());
    assert_eq!(
        serial.summary.p_success.to_bits(),
        parallel.summary.p_success.to_bits()
    );
    assert_eq!(serial.batch_p_success, parallel.batch_p_success);
}

/// The replication bounds hold: never a check before min, never a round
/// past max, and the spend orders itself by variance (the low-variance
/// monoculture stops at or before the diversified plant's spend under
/// the same target).
#[test]
fn adaptive_bounds_and_variance_ordering() {
    let net = scope_network();
    let threat = ThreatModel::stuxnet_like();
    let target = PrecisionTarget::p_success(0.05, 24, 96);
    let run = measure_configuration_run(
        &net,
        &threat,
        short_campaign(),
        &campaign_plan(1, 8, 7),
        Executor::default(),
        Some(&target),
        None,
    );
    assert!(run.attempted >= 24, "min bound violated: {}", run.attempted);
    assert!(run.attempted <= 96, "max bound violated: {}", run.attempted);
    assert_eq!(run.plan.batch_size(), 8);
    assert_eq!(run.plan.batches(), run.rounds);
}

/// A precision-targeted pipeline sweep is reproducible end to end and
/// bit-identical across executors: same per-run replication spend, same
/// measurements, same ranking.
#[test]
fn precision_targeted_pipeline_is_executor_invariant() {
    force_worker_threads();
    let config = |executor| PipelineConfig {
        batches: 2,
        batch_size: 5,
        campaign: CampaignConfig {
            max_ticks: 24 * 7,
            detection_stops_attack: false,
        },
        executor,
        precision: Some(PrecisionTarget::p_success(0.20, 10, 60)),
        ..PipelineConfig::default()
    };
    let serial = Pipeline::new(config(Executor::serial())).run();
    let parallel = Pipeline::new(config(Executor::parallel())).run();
    let (sa, pa) = (
        serial.doe.adaptive.as_ref().expect("adaptive sweep"),
        parallel.doe.adaptive.as_ref().expect("adaptive sweep"),
    );
    assert_eq!(sa.len(), pa.len());
    for (x, y) in sa.iter().zip(pa) {
        assert_eq!(x.replications, y.replications);
        assert_eq!(x.batches, y.batches);
        assert_eq!(x.target_met, y.target_met);
        assert_eq!(x.precision, y.precision);
    }
    for (a, b) in serial
        .doe
        .measurements
        .iter()
        .zip(&parallel.doe.measurements)
    {
        assert_eq!(a.batch_p_success, b.batch_p_success);
        assert_eq!(a.batch_compromised, b.batch_compromised);
    }
    for (x, y) in serial
        .assessment
        .ranking
        .iter()
        .zip(&parallel.assessment.ranking)
    {
        assert_eq!(x.0, y.0);
        assert_eq!(x.1.to_bits(), y.1.to_bits());
    }
}
