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
use diversify::stats::StreamingSummary;
use diversify_bench::{run_all, Scale};
use diversify_des::exec::{
    accept_all, Budget, BudgetOutcome, CancelToken, Collector, FailureCause, MeanCollector,
    Monitor, PartialRun, Precision, Replication, RetryPolicy, RunPolicy, RunSpec, StopRule,
    VecCollector,
};
use diversify_des::faults::{silence_injected_panics, FaultKind, FaultPlan};
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
    let never = |_: &_, _| None;
    let spec = RunSpec::new(&base).until(&never_met, &never);
    let adaptive = Executor::parallel().execute(&spec, || (), traced, &MeanCollector, accept_all);
    assert_eq!(adaptive.rounds, 40);
    let threads = seen.lock().unwrap().len();
    assert!(
        threads <= WORKER_THREADS,
        "{threads} threads ran the tasks of one 40-round adaptive run"
    );
    let serial = Executor::serial().execute(
        &spec,
        || (),
        |(): &mut (), rep| draw(rep),
        &MeanCollector,
        accept_all,
    );
    assert_eq!(
        adaptive.output.unwrap().to_bits(),
        serial.output.unwrap().to_bits()
    );
}

/// A moment-folding collector: its accumulator is the output, so an
/// adaptive monitor can read a t interval straight off it.
struct MomentsCollector;

impl Collector<f64> for MomentsCollector {
    type Accum = StreamingSummary;
    type Output = StreamingSummary;

    fn empty(&self) -> StreamingSummary {
        StreamingSummary::new()
    }

    fn accumulate(
        &self,
        _plan: &ReplicationPlan,
        acc: &mut StreamingSummary,
        _rep: Replication,
        value: f64,
    ) {
        acc.push(value);
    }

    fn merge(&self, into: &mut StreamingSummary, other: StreamingSummary) {
        into.merge(&other);
    }

    fn finish(&self, _plan: &ReplicationPlan, acc: StreamingSummary) -> StreamingSummary {
        acc
    }
}

/// The 95 % t interval of the folded draws, as a stop rule judges it.
fn moments_precision(acc: &StreamingSummary, _completed: u32) -> Option<Precision> {
    acc.mean_ci(0.95).ok().map(|ci| Precision {
        estimate: ci.estimate,
        half_width: ci.half_width(),
    })
}

/// Everything a run returns, reduced to exactly comparable values.
#[derive(Debug, PartialEq)]
struct Pinned {
    /// Bits of the folded mean and sample variance.
    output: Option<(u64, u64)>,
    rounds: u32,
    attempted: u32,
    completed: u32,
    /// Index, attempts and cause of every failure, in order.
    failures: Vec<(u32, u32, FailureCause)>,
    outcome: BudgetOutcome,
    /// Bits of the final estimate and half-width.
    precision: Option<(u64, u64)>,
}

impl Pinned {
    fn of(run: PartialRun<StreamingSummary>) -> Pinned {
        Pinned {
            output: run
                .output
                .map(|s| (s.mean().to_bits(), s.sample_variance().to_bits())),
            rounds: run.rounds,
            attempted: run.attempted,
            completed: run.completed,
            failures: run
                .failed
                .into_iter()
                .map(|f| (f.index, f.attempts, f.cause))
                .collect(),
            outcome: run.budget_outcome,
            precision: run
                .precision
                .map(|p| (p.estimate.to_bits(), p.half_width.to_bits())),
        }
    }
}

/// One row of the pin table: a spec, the faults injected into its
/// task, the one output value its validator rejects, and what the run
/// must return.
struct PinCase<'a> {
    name: &'static str,
    spec: RunSpec<'a, StreamingSummary>,
    faults: FaultPlan,
    reject: Option<f64>,
    expected: Pinned,
}

/// What every way of running a plan returns — strict, fault-tolerant,
/// budgeted, cancelled, validated, fixed or adaptive — pinned bit for
/// bit on both executors. The values were recorded against the six
/// dedicated entry points `execute` replaced.
#[test]
fn every_run_spec_returns_its_pinned_result() {
    force_worker_threads();
    silence_injected_panics();
    let fixed = ReplicationPlan::new(6, 8, 0x91A7);
    let base = ReplicationPlan::new(1, 8, 0xADA9);
    let draw = |rep: Replication| {
        let mut rng = RngStream::new(rep.seed, StreamId(3));
        rng.uniform() + rng.uniform()
    };
    let retry_once = RunPolicy::new().with_retry(RetryPolicy::retries(1));
    let retry_twice = RunPolicy::new().with_retry(RetryPolicy::retries(2));
    let cap_30 = RunPolicy::new().with_budget(Budget::unlimited().with_max_replications(30));
    let token = CancelToken::new();
    token.cancel();
    let cancelled = RunPolicy::new().with_budget(Budget::unlimited().with_cancel(&token));
    let tolerant = RunPolicy::new();
    let reachable = StopRule::relative(0.1, 16, 400);
    let capped_at_40 = StopRule::relative(1e-6, 8, 40);
    let unreachable = StopRule::relative(1e-6, 8, 400);
    let monitor: Monitor<'_, StreamingSummary> = &moments_precision;
    let pinned = |output, rounds, attempted, completed, failures, outcome, precision| Pinned {
        output,
        rounds,
        attempted,
        completed,
        failures,
        outcome,
        precision,
    };
    let full_fixed = Some((0x3fee_b5ed_98f2_1222, 0x3fc6_50ae_1e33_b24e));
    let cases = [
        PinCase {
            name: "fixed, strict",
            spec: RunSpec::new(&fixed),
            faults: FaultPlan::none(0),
            reject: None,
            expected: pinned(
                full_fixed,
                6,
                48,
                48,
                vec![],
                BudgetOutcome::Completed,
                None,
            ),
        },
        PinCase {
            name: "fixed, one retry erases a transient panic",
            spec: RunSpec::new(&fixed).with_policy(&retry_once),
            faults: FaultPlan::none(fixed.total())
                .with_fault(13, FaultKind::Panic)
                .transient(1),
            reject: None,
            expected: pinned(
                full_fixed,
                6,
                48,
                48,
                vec![],
                BudgetOutcome::Completed,
                None,
            ),
        },
        PinCase {
            name: "fixed, replication cap stops the plan partway",
            spec: RunSpec::new(&fixed).with_policy(&cap_30),
            faults: FaultPlan::none(0),
            reject: None,
            expected: pinned(
                Some((0x3ff0_2b55_1c4a_9e12, 0x3fc0_653b_a330_06df)),
                3,
                24,
                24,
                vec![],
                BudgetOutcome::ReplicationBudget,
                None,
            ),
        },
        PinCase {
            name: "fixed, pre-cancelled token",
            spec: RunSpec::new(&fixed).with_policy(&cancelled),
            faults: FaultPlan::none(0),
            reject: None,
            expected: pinned(None, 0, 0, 0, vec![], BudgetOutcome::Cancelled, None),
        },
        PinCase {
            name: "fixed, validator rejects index 11 on every attempt",
            spec: RunSpec::new(&fixed).with_policy(&retry_twice),
            faults: FaultPlan::none(0),
            reject: Some(draw(fixed.replication(11))),
            expected: pinned(
                Some((0x3fee_6c25_f44d_f2e9, 0x3fc6_4a83_9ac3_c508)),
                6,
                48,
                47,
                vec![(11, 3, FailureCause::InvalidOutput)],
                BudgetOutcome::Completed,
                None,
            ),
        },
        PinCase {
            name: "adaptive, target met",
            spec: RunSpec::new(&base).until(&reachable, monitor),
            faults: FaultPlan::none(0),
            reject: None,
            expected: pinned(
                Some((0x3ff1_69f1_a5e1_da96, 0x3fc1_7ffe_319e_f307)),
                6,
                48,
                48,
                vec![],
                BudgetOutcome::PrecisionMet,
                Some((0x3ff1_69f1_a5e1_da96, 0x3fbb_7c4f_6327_f8ec)),
            ),
        },
        PinCase {
            name: "adaptive, rule cap reached",
            spec: RunSpec::new(&base).until(&capped_at_40, monitor),
            faults: FaultPlan::none(0),
            reject: None,
            expected: pinned(
                Some((0x3ff1_2792_618d_4faf, 0x3fc1_4e81_6cb8_e6fd)),
                5,
                40,
                40,
                vec![],
                BudgetOutcome::RuleCapped,
                Some((0x3ff1_2792_618d_4faf, 0x3fbe_1aec_d031_f2f0)),
            ),
        },
        PinCase {
            name: "adaptive, budget cap truncates",
            spec: RunSpec::new(&base)
                .until(&unreachable, monitor)
                .with_policy(&cap_30),
            faults: FaultPlan::none(0),
            reject: None,
            expected: pinned(
                Some((0x3ff0_14d7_c4d4_1f92, 0x3fbf_1e32_0eef_f4b8)),
                3,
                24,
                24,
                vec![],
                BudgetOutcome::ReplicationBudget,
                Some((0x3ff0_14d7_c4d4_1f92, 0x3fc2_d81f_b1fd_bd8e)),
            ),
        },
        PinCase {
            name: "adaptive, validator rejects index 11",
            spec: RunSpec::new(&base)
                .until(&reachable, monitor)
                .with_policy(&tolerant),
            faults: FaultPlan::none(0),
            reject: Some(draw(base.replication(11))),
            expected: pinned(
                Some((0x3ff1_51cf_e61f_32c8, 0x3fc5_3f0a_a038_5aa6)),
                8,
                64,
                63,
                vec![(11, 1, FailureCause::InvalidOutput)],
                BudgetOutcome::PrecisionMet,
                Some((0x3ff1_51cf_e61f_32c8, 0x3fba_4462_3445_5d80)),
            ),
        },
    ];
    for case in &cases {
        let reject = case.reject;
        for exec in [Executor::serial(), Executor::parallel()] {
            case.faults.reset();
            let run = exec.execute(
                &case.spec,
                || (),
                case.faults.wrap(|(): &mut (), rep| draw(rep), |v| v),
                &MomentsCollector,
                |value: &f64| Some(*value) != reject,
            );
            assert_eq!(
                Pinned::of(run),
                case.expected,
                "{} on {:?}",
                case.name,
                exec.mode()
            );
        }
    }
}
