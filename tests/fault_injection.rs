//! Fault-injection properties of the hardened execution layer: injected
//! panics, corrupted outputs, and budget truncation never change what
//! the surviving replications compute — serially or in parallel — and
//! deterministic retry erases transient faults completely.

// Test code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::attack::campaign::{CampaignConfig, CampaignSimulator, ThreatModel};
use diversify::core::exec::campaign_plan;
use diversify::core::pipeline::{Pipeline, PipelineConfig};
use diversify::core::runner::measure_configuration_run;
use diversify::scada::scope::{ScopeConfig, ScopeSystem};
use diversify_des::exec::{
    accept_all, Budget, BudgetOutcome, CancelToken, Executor, FailureCause, ReplicationPlan,
    RetryPolicy, RunPolicy, RunSpec, VecCollector,
};
use diversify_des::faults::{silence_injected_panics, FaultKind, FaultPlan, InjectedPanic};
use diversify_des::{RngStream, StreamId};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Forces real worker threads even on single-core CI machines so the
/// parallel panic-isolation path is actually exercised (the executor
/// reads `RAYON_NUM_THREADS` like upstream rayon).
fn force_worker_threads() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
}

/// The reference replication task: a couple of deterministic draws from
/// the replication's own seed, so any retry that replays the seed must
/// reproduce the value bit for bit.
fn draw(seed: u64) -> f64 {
    let mut rng = RngStream::new(seed, StreamId(7));
    rng.uniform() + rng.uniform()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Panics at arbitrary replication indices are isolated: every
    /// surviving replication is bit-identical to the fault-free run,
    /// failures are recorded with their indices, and the serial and
    /// parallel executors agree on all of it.
    #[test]
    fn survivors_are_bit_identical_across_faults_and_executors(
        seed in any::<u64>(),
        fault_rate in 0.0f64..0.5,
    ) {
        force_worker_threads();
        silence_injected_panics();
        let plan = ReplicationPlan::new(6, 5, seed);
        let faults = FaultPlan::seeded(
            seed ^ 0xFA17,
            plan.total(),
            fault_rate,
            &[FaultKind::Panic],
        );
        let task = |(): &mut (), rep: diversify_des::exec::Replication| draw(rep.seed);
        let clean: Vec<f64> = Executor::serial().run_ws(&plan, || (), task, &VecCollector);
        let policy = RunPolicy::new();
        let run = |executor: Executor| {
            faults.reset();
            executor.execute(
                &RunSpec::new(&plan).with_policy(&policy),
                || (),
                faults.wrap(task, |v| v),
                &VecCollector,
                accept_all,
            )
        };
        let serial = run(Executor::serial());
        let parallel = run(Executor::parallel());
        let faulted: Vec<u32> = faults.faulted().map(|(i, _)| i).collect();
        // Survivors are exactly the clean values at non-faulted indices.
        let expected: Vec<f64> = clean
            .iter()
            .enumerate()
            .filter(|(i, _)| !faulted.contains(&(*i as u32)))
            .map(|(_, v)| *v)
            .collect();
        for part in [&serial, &parallel] {
            prop_assert_eq!(part.output().unwrap_or(&Vec::new()).clone(), expected.clone());
            prop_assert_eq!(part.failed.len(), faulted.len());
            let failed_at: Vec<u32> = part.failed.iter().map(|f| f.index).collect();
            prop_assert_eq!(failed_at, faulted.clone());
            for failure in &part.failed {
                prop_assert_eq!(failure.seed, plan.seed_for(failure.index));
                prop_assert!(matches!(failure.cause, FailureCause::Panicked(_)));
            }
        }
        prop_assert_eq!(serial.completed, parallel.completed);
        prop_assert_eq!(serial.budget_outcome, parallel.budget_outcome);
    }

    /// Seed-preserving retry erases transient faults completely: the
    /// run finishes whole and bit-identical to a fault-free run,
    /// because every retried attempt replays the replication's own
    /// seed and therefore its exact draw schedule.
    #[test]
    fn retry_from_seed_reproduces_the_draw_schedule(
        seed in any::<u64>(),
        fault_rate in 0.0f64..0.6,
    ) {
        force_worker_threads();
        silence_injected_panics();
        let plan = ReplicationPlan::new(4, 5, seed);
        let faults = FaultPlan::seeded(
            seed ^ 0x7247,
            plan.total(),
            fault_rate,
            &[FaultKind::Panic],
        )
        .transient(1);
        let task = |(): &mut (), rep: diversify_des::exec::Replication| draw(rep.seed);
        let clean: Vec<f64> = Executor::serial().run_ws(&plan, || (), task, &VecCollector);
        let policy = RunPolicy::new().with_retry(RetryPolicy::retries(1));
        for executor in [Executor::serial(), Executor::parallel()] {
            faults.reset();
            let part = executor.execute(
                &RunSpec::new(&plan).with_policy(&policy),
                || (),
                faults.wrap(task, |v| v),
                &VecCollector,
                accept_all,
            );
            prop_assert!(part.failed.is_empty());
            prop_assert!(!part.is_degraded());
            prop_assert_eq!(part.completed, plan.total());
            prop_assert_eq!(part.output().unwrap().clone(), clean.clone());
        }
    }

    /// A replication budget truncates to a whole number of rounds, and
    /// the truncated run is bit-identical to the shorter fixed plan —
    /// graceful degradation never invents a third behavior.
    #[test]
    fn budget_truncation_equals_the_shorter_plan(
        seed in any::<u64>(),
        keep_rounds in 1u32..5,
    ) {
        force_worker_threads();
        let long = ReplicationPlan::new(5, 4, seed);
        let short = ReplicationPlan::new(keep_rounds, 4, seed);
        let task = |(): &mut (), rep: diversify_des::exec::Replication| draw(rep.seed);
        let policy = RunPolicy::new()
            .with_budget(Budget::unlimited().with_max_replications(keep_rounds * 4));
        for executor in [Executor::serial(), Executor::parallel()] {
            let part = executor.execute(
                &RunSpec::new(&long).with_policy(&policy),
                || (),
                task,
                &VecCollector,
                accept_all,
            );
            let full: Vec<f64> = executor.run_ws(&short, || (), task, &VecCollector);
            prop_assert_eq!(part.budget_outcome, BudgetOutcome::ReplicationBudget);
            prop_assert_eq!(part.rounds, keep_rounds);
            prop_assert_eq!(part.output().unwrap().clone(), full);
        }
    }
}

/// Campaign-level fault tolerance: corrupted campaign outcomes (NaN
/// compromised ratio) are rejected by the validator and recorded as
/// `InvalidOutput`, while every surviving outcome matches the plain
/// (unhardened) campaign run bit for bit.
#[test]
fn corrupted_campaign_outcomes_are_quarantined() {
    force_worker_threads();
    let net = ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone();
    let sim = CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
    let plan = ReplicationPlan::flat(20, 0xBAD_CA5E);
    let clean = sim.run_plan(&plan, Executor::serial());
    let faults = FaultPlan::none(plan.total())
        .with_fault(3, FaultKind::CorruptOutput)
        .with_fault(11, FaultKind::CorruptOutput);
    let policy = RunPolicy::new();
    let part = Executor::serial().execute(
        &RunSpec::new(&plan).with_policy(&policy),
        || (),
        faults.wrap(
            |(): &mut (), rep| sim.run(rep.seed),
            |mut outcome| {
                outcome.compromised_ratio.push(f64::NAN);
                outcome
            },
        ),
        &VecCollector,
        |outcome: &diversify::attack::campaign::CampaignOutcome| outcome.stats().is_finite(),
    );
    assert_eq!(part.failed.len(), 2);
    assert!(part
        .failed
        .iter()
        .all(|f| f.cause == FailureCause::InvalidOutput));
    assert_eq!(
        part.failed.iter().map(|f| f.index).collect::<Vec<_>>(),
        vec![3, 11]
    );
    let survivors = part.output().expect("18 replications survived");
    assert_eq!(survivors.len(), 18);
    for (kept, original) in survivors.iter().zip(
        clean
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3 && *i != 11)
            .map(|(_, o)| o),
    ) {
        assert_eq!(kept.time_to_attack, original.time_to_attack);
        assert_eq!(
            kept.final_compromised_ratio(),
            original.final_compromised_ratio()
        );
    }
}

/// Cooperative cancellation at the measurement layer: a pre-cancelled
/// token yields an empty partial result, and cancelling after the fact
/// never corrupts the accumulated prefix (it is bit-identical to the
/// fixed plan of the completed rounds).
#[test]
fn cancellation_degrades_to_a_clean_prefix() {
    let net = ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone();
    let threat = ThreatModel::stuxnet_like();
    let config = CampaignConfig {
        max_ticks: 24 * 7,
        detection_stops_attack: false,
    };
    let plan = campaign_plan(4, 5, 0xC0FFEE);
    let token = CancelToken::new();
    token.cancel();
    let policy = RunPolicy::new().with_budget(Budget::unlimited().with_cancel(&token));
    let part = measure_configuration_run(
        &net,
        &threat,
        config,
        &plan,
        Executor::serial(),
        None,
        Some(&policy),
    );
    assert_eq!(part.budget_outcome, BudgetOutcome::Cancelled);
    assert_eq!(part.completed, 0);
    assert!(part.output.is_none());
    assert!(part.is_degraded());
}

/// End-to-end resilience: a resilient pipeline under a per-cell
/// replication budget still produces a full report whose health table
/// flags every truncated cell.
#[test]
fn resilient_pipeline_flags_degraded_cells_end_to_end() {
    force_worker_threads();
    let config = PipelineConfig {
        batches: 3,
        batch_size: 4,
        campaign: CampaignConfig {
            max_ticks: 24 * 5,
            detection_stops_attack: false,
        },
        resilience: Some(
            RunPolicy::new().with_budget(Budget::unlimited().with_max_replications(8)),
        ),
        ..PipelineConfig::default()
    };
    let report = Pipeline::new(config).run();
    let health = report.doe.health.as_ref().expect("resilient sweep");
    assert_eq!(health.len(), 16);
    assert!(report.doe.is_degraded());
    for cell in health {
        assert_eq!(cell.budget_outcome, BudgetOutcome::ReplicationBudget);
        assert_eq!(cell.completed, 8);
        assert!(cell.is_degraded());
    }
    let text = report.to_string();
    assert!(text.contains("cell health"));
    assert!(text.contains("16 of 16 degraded"));
    assert!(text.contains("DEGRADED"));
    // The degraded sweep still supports the full assessment.
    assert_eq!(report.assessment.ranking.len(), 6);
}

/// `accept_all` really is the identity validator: a run with it equals
/// the same run with a validator that never looks at the output.
#[test]
fn accept_all_matches_unchecked_path() {
    let plan = ReplicationPlan::new(3, 4, 99);
    let task = |(): &mut (), rep: diversify_des::exec::Replication| draw(rep.seed);
    let policy = RunPolicy::new();
    let spec = RunSpec::new(&plan).with_policy(&policy);
    let a = Executor::serial().execute(&spec, || (), task, &VecCollector, |_: &f64| true);
    let b = Executor::serial().execute(&spec, || (), task, &VecCollector, accept_all::<f64>);
    assert_eq!(a.output(), b.output());
    assert_eq!(a.completed, b.completed);
}

/// Runs `f` on its own thread and waits at most ten seconds for it, so a
/// dispatcher that deadlocks fails the test instead of hanging it.
fn within_ten_seconds<T: Send + 'static>(
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::Result<T> {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the run neither returned nor panicked within 10 s");
    runner.join().expect("the runner catches every panic");
    outcome
}

/// A validator runs outside the per-replication catch, so its panic
/// escapes the replication. When it escapes on a helper thread in a
/// later round, the calling thread must re-raise exactly that payload
/// and the run must not hang.
#[test]
fn helper_panic_reaches_the_caller_with_its_own_payload() {
    force_worker_threads();
    silence_injected_panics();
    let outcome = within_ten_seconds(|| {
        let caller = std::thread::current().id();
        let helper_ran = AtomicBool::new(false);
        let plan = ReplicationPlan::new(4, 16, 0xFA11);
        let first_late = 2 * plan.batch_size();
        let policy = RunPolicy::new();
        Executor::parallel()
            .execute(
                &RunSpec::new(&plan).with_policy(&policy),
                || (),
                |(): &mut (), rep| {
                    if rep.index >= first_late {
                        if std::thread::current().id() == caller {
                            // Hold the calling thread until a helper has
                            // run part of this round.
                            let give_up = Instant::now() + Duration::from_secs(5);
                            while !helper_ran.load(Ordering::Acquire) && Instant::now() < give_up {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        } else {
                            helper_ran.store(true, Ordering::Release);
                        }
                    }
                    rep.index
                },
                &VecCollector,
                |&index: &u32| {
                    if index >= first_late && std::thread::current().id() != caller {
                        std::panic::panic_any(InjectedPanic { index });
                    }
                    true
                },
            )
            .completed
    });
    let payload = outcome.expect_err("the validator panicked on a helper");
    let injected = payload
        .downcast_ref::<InjectedPanic>()
        .expect("the caller re-raises the validator's own payload");
    assert!(injected.index >= 32, "only rounds 2 and 3 panic");
}

/// The parallel twin of the serial-only unit test
/// `strict_run_ws_still_propagates_panics`: a task panic in round 3 of a
/// six-round run re-raises its own payload on the calling thread.
#[test]
fn parallel_strict_run_ws_propagates_a_round_3_panic() {
    force_worker_threads();
    silence_injected_panics();
    let outcome = within_ten_seconds(|| {
        let plan = ReplicationPlan::new(6, 8, 1);
        let _: Vec<u32> = Executor::parallel().run_ws(
            &plan,
            || (),
            |(): &mut (), rep| {
                if rep.index == 3 * 8 + 5 {
                    std::panic::panic_any(InjectedPanic { index: rep.index });
                }
                rep.index
            },
            &VecCollector,
        );
    });
    let payload = outcome.expect_err("a strict run re-raises the task's panic");
    assert_eq!(
        payload.downcast_ref::<InjectedPanic>(),
        Some(&InjectedPanic { index: 29 })
    );
}

/// The parallel twin of the serial-only unit test
/// `cancellation_stops_at_the_next_round_boundary`: a cancel from inside
/// round 2 lets that round finish, then stops the run after exactly two
/// rounds, bit-identical to the two-batch plan.
#[test]
fn parallel_cancellation_stops_at_the_next_round_boundary() {
    force_worker_threads();
    let (run, fixed) = within_ten_seconds(|| {
        let plan = ReplicationPlan::new(10, 4, 5);
        let token = CancelToken::new();
        let cancel_from_task = token.clone();
        let policy = RunPolicy::new().with_budget(Budget::unlimited().with_cancel(&token));
        let run = Executor::parallel().execute(
            &RunSpec::new(&plan).with_policy(&policy),
            || (),
            move |(): &mut (), rep| {
                if rep.index == 5 {
                    cancel_from_task.cancel();
                }
                draw(rep.seed)
            },
            &VecCollector,
            accept_all,
        );
        let fixed: Vec<f64> = Executor::serial().run(&plan.with_batches(2), |rep| draw(rep.seed));
        (run, fixed)
    })
    .expect("no replication panics");
    assert_eq!(run.budget_outcome, BudgetOutcome::Cancelled);
    assert_eq!(run.rounds, 2);
    assert_eq!(run.completed, 8);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(run.output.as_ref().unwrap()), bits(&fixed));
}
