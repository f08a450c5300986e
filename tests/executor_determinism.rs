//! Cross-crate guarantees of the unified execution layer: scheduling
//! never changes results, and the whole experiment suite runs end to end
//! at quick scale.

// Test code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::attack::campaign::{CampaignConfig, CampaignSimulator, ThreatModel};
use diversify::core::exec::{campaign_plan, ExecMode, Executor, ReplicationPlan};
use diversify::core::pipeline::{Pipeline, PipelineConfig};
use diversify::core::runner::measure_configuration_with;
use diversify::scada::scope::{ScopeConfig, ScopeSystem};
use diversify_bench::{run_all, Scale};
use diversify_des::exec::{MeanCollector, Replication, StopRule, VecCollector};
use diversify_des::{RngStream, StreamId};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

/// The thread count the parallel tests force.
const WORKER_THREADS: usize = 4;

/// Forces real worker threads even on single-core CI machines so the
/// parallel scheduling path is actually exercised (the executor reads
/// `RAYON_NUM_THREADS` like upstream rayon).
fn force_worker_threads() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", WORKER_THREADS.to_string()));
}

/// The determinism property: the same plan produces bit-identical
/// `Measurements` on the serial and the parallel executor.
#[test]
fn measurements_are_bit_identical_across_executors() {
    force_worker_threads();
    let net = ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone();
    let threat = ThreatModel::stuxnet_like();
    let config = CampaignConfig {
        max_ticks: 24 * 14,
        detection_stops_attack: false,
    };
    for seed in [1u64, 0xD1CE, u64::MAX] {
        let plan = campaign_plan(4, 10, seed);
        let serial = measure_configuration_with(&net, &threat, config, &plan, Executor::serial());
        let parallel =
            measure_configuration_with(&net, &threat, config, &plan, Executor::parallel());
        // Bit-level equality on every field, not approximate agreement.
        assert_eq!(
            serial.summary.p_success.to_bits(),
            parallel.summary.p_success.to_bits()
        );
        assert_eq!(serial.summary.replications, parallel.summary.replications);
        assert_eq!(serial.summary.successes, parallel.summary.successes);
        assert_eq!(serial.summary.detections, parallel.summary.detections);
        assert_eq!(serial.summary.mean_tta, parallel.summary.mean_tta);
        assert_eq!(serial.summary.mean_ttsf, parallel.summary.mean_ttsf);
        assert_eq!(serial.summary.tta, parallel.summary.tta);
        assert_eq!(serial.summary.ttsf, parallel.summary.ttsf);
        assert_eq!(serial.summary.compromised, parallel.summary.compromised);
        assert_eq!(serial.batch_p_success, parallel.batch_p_success);
        assert_eq!(serial.batch_compromised, parallel.batch_compromised);
    }
}

/// Replication seeds depend only on `(master seed, namespace, index)` —
/// not on how many replications run, how they are batched, or which
/// executor runs them.
#[test]
fn seed_schedule_is_index_stable() {
    let short = ReplicationPlan::flat(5, 77);
    let long = ReplicationPlan::new(40, 25, 77);
    for i in 0..5 {
        assert_eq!(short.seed_for(i), long.seed_for(i));
    }
}

/// Campaign outcome streams agree across executors at the attack layer
/// too (the layer below `Measurements`).
#[test]
fn campaign_outcomes_match_across_executors() {
    force_worker_threads();
    let net = ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone();
    let sim = CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
    let plan = ReplicationPlan::flat(30, 42);
    let serial = sim.run_plan(&plan, Executor::new(ExecMode::Serial));
    let parallel = sim.run_plan(&plan, Executor::new(ExecMode::Parallel));
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.time_to_attack, b.time_to_attack);
        assert_eq!(a.time_to_detection, b.time_to_detection);
        assert_eq!(a.deepest_stage, b.deepest_stage);
        assert_eq!(a.final_compromised_ratio(), b.final_compromised_ratio());
    }
}

/// A full pipeline run is reproducible end to end regardless of executor
/// mode: same design, same measurements, same ranking.
#[test]
fn pipeline_reports_match_across_executors() {
    force_worker_threads();
    let config = |executor| PipelineConfig {
        batches: 2,
        batch_size: 5,
        campaign: CampaignConfig {
            max_ticks: 24 * 7,
            detection_stops_attack: false,
        },
        executor,
        ..PipelineConfig::default()
    };
    let serial = Pipeline::new(config(Executor::serial())).run();
    let parallel = Pipeline::new(config(Executor::parallel())).run();
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

/// Quick-scale end-to-end smoke test: every experiment in the suite
/// produces non-empty output without panicking.
#[test]
fn quick_scale_experiment_suite_runs() {
    let results = run_all(Scale::Quick);
    assert_eq!(results.len(), 10, "all ten experiments present");
    for (id, output) in &results {
        assert!(
            !output.trim().is_empty(),
            "experiment {id} produced no output"
        );
    }
    // The pipeline experiment must show all three steps.
    let (_, pipeline_out) = &results[2];
    for step in ["Step 1", "Step 2", "Step 3"] {
        assert!(pipeline_out.contains(step), "missing {step}");
    }
}

/// A parallel run forks its helpers once, not once per round: across
/// every round of a 64-round `run_ws` and of a 40-round adaptive run, at
/// most `RAYON_NUM_THREADS` distinct threads run tasks, and both results
/// stay bit-identical to the serial executor.
#[test]
fn parallel_runs_fork_once_per_run() {
    force_worker_threads();
    let draw = |rep: Replication| {
        let mut rng = RngStream::new(rep.seed, StreamId(3));
        rng.uniform() + rng.uniform()
    };
    let seen = Mutex::new(HashSet::<ThreadId>::new());
    let traced = |(): &mut (), rep: Replication| {
        seen.lock().unwrap().insert(thread::current().id());
        draw(rep)
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let plan = ReplicationPlan::new(64, 25, 0xF0_4C);
    let parallel: Vec<f64> = Executor::parallel().run_ws(&plan, || (), traced, &VecCollector);
    let threads = std::mem::take(&mut *seen.lock().unwrap()).len();
    assert!(
        threads <= WORKER_THREADS,
        "{threads} threads ran the tasks of one 64-round run"
    );
    assert_eq!(bits(&parallel), bits(&Executor::serial().run(&plan, draw)));

    let base = ReplicationPlan::new(1, 25, 0xADA);
    let never_met = StopRule::relative(1e-12, 25, 40 * 25);
    let adaptive = Executor::parallel().run_adaptive_ws(
        &base,
        &never_met,
        || (),
        traced,
        &MeanCollector,
        |_, _| None,
    );
    assert_eq!(adaptive.rounds, 40);
    let threads = seen.lock().unwrap().len();
    assert!(
        threads <= WORKER_THREADS,
        "{threads} threads ran the tasks of one 40-round adaptive run"
    );
    let serial =
        Executor::serial().run_adaptive(&base, &never_met, draw, &MeanCollector, |_, _| None);
    assert_eq!(adaptive.output.to_bits(), serial.output.to_bits());
}
