//! The worker side of the indicator service: a supervised shard runner.
//!
//! [`run_worker`] is a message loop over one [`Channel`]. For each
//! leased [`ShardSpec`] it builds the plant, runs the shard's slice of
//! the replication plan under the spec's
//! [`Budget`](diversify_des::exec::Budget) through the local path's
//! [`MeasurementsCollector`], and reports that fold's per-batch
//! [`BatchSnapshot`](crate::protocol::BatchSnapshot)s (the wire's
//! fold-preserving unit — see [`crate::protocol`]). While a shard runs,
//! a supervisor thread keeps heartbeating and listening for
//! [`ToWorker::Cancel`], so a coordinator-side cancel crosses the
//! channel and stops the shard at its next batch boundary via the
//! executor's [`CancelToken`].
//!
//! Shard execution runs on a scoped thread whose panics are caught at
//! `join` — a panicking cell (or an injected [`FaultPlan`] fault) turns
//! into a [`FromWorker::Failed`] message, never a dead worker process.

use crate::channel::{Channel, ChannelError};
use crate::protocol::{FromWorker, ShardFailure, ShardOutcome, ShardSpec, ToWorker};
use crate::wire::{decode_message, encode_message};
use diversify_attack::campaign::{CampaignSimulator, CampaignStats};
use diversify_core::exec::{MeasurementsCollector, Unfinished};
use diversify_des::exec::{CancelToken, Executor, Replication, RetryPolicy, RunPolicy, RunSpec};
use diversify_des::faults::{panic_message, FaultPlan};
use diversify_scada::scope::ScopeSystem;
use std::sync::Arc;
use std::time::Duration;

/// Worker configuration.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Executor for the replication loop. The default is
    /// `Executor::default()`, the parallel executor, so each worker also
    /// fans its shard's batches out over threads; pass
    /// `Executor::serial()` to keep workers as the only parallelism
    /// axis. Results are bit-identical either way.
    pub executor: Executor,
    /// How often to heartbeat while a shard runs.
    pub heartbeat_every: Duration,
    /// Per-replication retry policy inside a shard.
    pub retry: RetryPolicy,
    /// Replication-level fault injection (tests and chaos drills),
    /// keyed by *global* replication index.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            executor: Executor::default(),
            heartbeat_every: Duration::from_millis(25),
            retry: RetryPolicy::none(),
            faults: None,
        }
    }
}

/// Runs the shard's replication loop. May panic (plant construction,
/// or a bug outside the executor's per-replication isolation) — callers
/// run it on a scoped thread and convert the join error into
/// [`FromWorker::Failed`].
pub(crate) fn execute_shard(
    spec: &ShardSpec,
    options: &WorkerOptions,
    cancel: &CancelToken,
) -> ShardOutcome {
    let plan = match spec.plan.to_plan() {
        Ok(plan) => plan,
        Err(e) => {
            return ShardOutcome {
                shard: spec.shard,
                rounds: 0,
                attempted: 0,
                completed: 0,
                outcome: crate::protocol::OutcomeCode::Completed,
                batches: Vec::new(),
                failures: vec![ShardFailure {
                    index: 0,
                    attempts: 0,
                    message: format!("invalid plan spec: {e}"),
                }],
            };
        }
    };
    let system = ScopeSystem::build(&spec.scope);
    let sim = CampaignSimulator::new(system.network(), spec.threat.clone(), spec.campaign);
    let policy = RunPolicy::new()
        .with_retry(options.retry)
        .with_budget(spec.budget.to_budget(cancel));
    // The run's output is the fold's per-batch accumulators, unmerged:
    // merging them is the coordinator's left-fold.
    let collector = Unfinished(MeasurementsCollector);
    let first_replication = plan.first_replication();
    let run_spec = RunSpec::new(&plan).with_policy(&policy);

    let run = if let Some(faults) = &options.faults {
        // Fault indices are global; rebase to this shard's local span.
        let task = |ws: &mut _, rep: Replication| {
            let global = Replication {
                index: first_replication + rep.index,
                seed: rep.seed,
            };
            faults.wrap(
                |ws, _rep| sim.run_into(ws, rep.seed),
                |mut stats: CampaignStats| {
                    stats.final_compromised_ratio = f64::NAN;
                    stats
                },
            )(ws, global)
        };
        options.executor.execute(
            &run_spec,
            || sim.workspace(),
            task,
            &collector,
            CampaignStats::is_finite,
        )
    } else {
        options.executor.execute(
            &run_spec,
            || sim.workspace(),
            |ws, rep| sim.run_into(ws, rep.seed),
            &collector,
            CampaignStats::is_finite,
        )
    };

    ShardOutcome {
        shard: spec.shard,
        rounds: run.rounds,
        attempted: run.attempted,
        completed: run.completed,
        outcome: run.budget_outcome.into(),
        batches: run.output.map(|acc| acc.batches).unwrap_or_default(),
        failures: run
            .failed
            .into_iter()
            .map(|f| ShardFailure {
                index: first_replication + f.index,
                attempts: f.attempts,
                message: f.cause.to_string(),
            })
            .collect(),
    }
}

/// Supervises one shard lease: runs [`execute_shard`] on a scoped
/// thread while this thread heartbeats and listens for cancellation.
/// Returns the message to report, or an error if the channel died.
fn run_shard_supervised(
    channel: &mut dyn Channel,
    spec: ShardSpec,
    options: &WorkerOptions,
    shutdown: &mut bool,
) -> Result<FromWorker, ChannelError> {
    let cancel = CancelToken::new();
    let shard = spec.shard;
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| execute_shard(&spec, options, &cancel));
        let lost = loop {
            if let Err(e) = channel.send(&encode_message(&FromWorker::Heartbeat { shard })) {
                break e;
            }
            if handle.is_finished() {
                return match handle.join() {
                    Ok(outcome) => Ok(FromWorker::Done { outcome }),
                    Err(payload) => Ok(FromWorker::Failed {
                        shard,
                        message: panic_message(payload.as_ref()),
                    }),
                };
            }
            match channel.recv_timeout(options.heartbeat_every) {
                Ok(Some(frame)) => match decode_message::<ToWorker>(&frame) {
                    Ok(ToWorker::Cancel { shard: target }) if target == shard => cancel.cancel(),
                    Ok(ToWorker::Shutdown) => {
                        *shutdown = true;
                        cancel.cancel();
                    }
                    // A mid-lease Run is a coordinator bug; a garbled
                    // frame is the coordinator's problem to detect via
                    // its own checksums. Either way: ignore, keep going.
                    Ok(ToWorker::Run { .. }) | Ok(ToWorker::Cancel { .. }) | Err(_) => {}
                },
                Ok(None) => {}
                Err(e) => break e,
            }
        };
        // Coordinator gone (or it declared this worker dead and closed
        // the link): stop the shard at its next batch boundary; the
        // scope reaps its thread before returning.
        cancel.cancel();
        Err(lost)
    })
}

/// The worker main loop: lease shards off `channel` until it closes or
/// a [`ToWorker::Shutdown`] arrives. Malformed frames are skipped (the
/// transport's checksums make corruption visible; a corrupt lease is
/// simply never acknowledged, and the coordinator re-deals it on lease
/// expiry).
pub fn run_worker(mut channel: impl Channel, options: &WorkerOptions) {
    let mut shutdown = false;
    while !shutdown {
        let frame = match channel.recv_timeout(Duration::from_millis(100)) {
            Ok(Some(frame)) => frame,
            Ok(None) => continue,
            Err(_) => break,
        };
        match decode_message::<ToWorker>(&frame) {
            Ok(ToWorker::Run { spec }) => {
                match run_shard_supervised(&mut channel, spec, options, &mut shutdown) {
                    Ok(report) => {
                        if channel.send(&encode_message(&report)).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
            Ok(ToWorker::Shutdown) => break,
            Ok(ToWorker::Cancel { .. }) | Err(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::loopback_pair;
    use crate::protocol::{BudgetSpec, PlanSpec};
    use diversify_core::exec::{campaign_plan, MeasurementsCollector};
    use diversify_scada::scope::ScopeConfig;

    fn spec(first_batch: u32, batches: u32) -> ShardSpec {
        ShardSpec {
            cell: 0,
            shard: first_batch,
            scope: ScopeConfig::default(),
            threat: diversify_attack::campaign::ThreatModel::stuxnet_like(),
            campaign: diversify_attack::campaign::CampaignConfig {
                max_ticks: 120,
                detection_stops_attack: false,
            },
            plan: PlanSpec {
                batches,
                batch_size: 3,
                master_seed: 0xBEEF,
                namespace: 0x4E_0000,
                first_batch,
            },
            budget: BudgetSpec::default(),
        }
    }

    #[test]
    fn shard_outcome_matches_local_run_batch_for_batch() {
        let options = WorkerOptions::default();
        let cancel = CancelToken::new();
        let out = execute_shard(&spec(0, 4), &options, &cancel);
        assert_eq!(out.rounds, 4);
        assert_eq!(out.completed, 12);
        assert_eq!(out.batches.len(), 4);

        // The same cell measured by the in-process reference path.
        let s = spec(0, 4);
        let system = ScopeSystem::build(&s.scope);
        let sim = CampaignSimulator::new(system.network(), s.threat.clone(), s.campaign);
        let plan = campaign_plan(4, 3, 0xBEEF);
        let reference = Executor::default().run_ws(
            &plan,
            || sim.workspace(),
            |ws, rep| sim.run_into(ws, rep.seed),
            &MeasurementsCollector,
        );
        for (i, snap) in out.batches.iter().enumerate() {
            let p = snap.indicators.p_success();
            assert_eq!(p, reference.batch_p_success[i], "batch {i}");
            let c = snap.compromised_sum / snap.indicators.replications() as f64;
            assert_eq!(c, reference.batch_compromised[i], "batch {i}");
        }
    }

    #[test]
    fn sharded_batches_carry_global_indices_and_seeds() {
        let options = WorkerOptions::default();
        let cancel = CancelToken::new();
        let whole = execute_shard(&spec(0, 4), &options, &cancel);
        let head = execute_shard(&spec(0, 2), &options, &cancel);
        let tail = execute_shard(&spec(2, 2), &options, &cancel);
        let stitched: Vec<_> = head.batches.iter().chain(&tail.batches).copied().collect();
        assert_eq!(stitched.len(), whole.batches.len());
        for (a, b) in stitched.iter().zip(&whole.batches) {
            assert_eq!(a.batch, b.batch);
            assert_eq!(a.compromised_sum, b.compromised_sum);
            assert_eq!(a.indicators, b.indicators);
        }
    }

    #[test]
    fn worker_loop_leases_runs_and_reports_done() {
        let (coordinator_side, worker_side) = loopback_pair();
        let handle = std::thread::spawn(move || {
            run_worker(worker_side, &WorkerOptions::default());
        });
        let mut chan = coordinator_side;
        chan.send(&encode_message(&ToWorker::Run { spec: spec(0, 2) }))
            .unwrap();
        let mut done = None;
        for _ in 0..2_000 {
            if let Some(frame) = chan.recv_timeout(Duration::from_millis(20)).unwrap() {
                match decode_message::<FromWorker>(&frame).unwrap() {
                    FromWorker::Done { outcome } => {
                        done = Some(outcome);
                        break;
                    }
                    FromWorker::Heartbeat { shard } => assert_eq!(shard, 0),
                    FromWorker::Failed { message, .. } => panic!("unexpected failure: {message}"),
                }
            }
        }
        let done = done.expect("worker never finished");
        assert_eq!(done.rounds, 2);
        chan.send(&encode_message(&ToWorker::Shutdown)).unwrap();
        handle.join().unwrap();
    }
}
