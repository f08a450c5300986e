//! The coordinator: shard supervision, retry, and graceful degradation.
//!
//! A [`Coordinator`] owns one [`Channel`] per
//! worker and deals [`ShardSpec`] leases over them. Supervision is
//! lease-based: a running shard must heartbeat within
//! [`SweepOptions::heartbeat_timeout`] or its worker is declared dead
//! and the shard is re-dealt. Because every shard keeps its global
//! `namespace ^ index` seed schedule (see
//! [`ReplicationPlan::with_first_batch`](diversify_des::exec::ReplicationPlan::with_first_batch)),
//! a re-dealt shard recomputes bit-identical batches on any worker —
//! merged results are executor-, placement-, and
//! failure-history-invariant.
//!
//! Failure handling is graduated:
//!
//! 1. a shard that made *progress* (a clean prefix of full batches) has
//!    the prefix accepted and only the remainder re-dealt, with its
//!    attempt counter reset;
//! 2. a shard that failed outright retries with capped exponential
//!    backoff and deterministic reassignment;
//! 3. a shard that exhausts [`SweepOptions::max_shard_attempts`] is
//!    quarantined, and the sweep degrades to partial results plus a
//!    per-shard health table — never a hang, never a poisoned merge.

use crate::channel::Channel;
use crate::protocol::{BatchSnapshot, FromWorker, ShardOutcome, ShardSpec, ToWorker};
use crate::wire::{decode_message, encode_message};
use diversify_core::exec::MeasurementsAccum;
use diversify_core::runner::Measurements;
use diversify_des::exec::CancelToken;
use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

/// Supervision tuning for one sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// How long a leased shard may go silent before its worker is
    /// declared dead. Generous by default: CI runners may have a
    /// single core, so a busy worker thread can be starved for a while.
    /// A timeout past what [`Instant`] can represent (`Duration::MAX`)
    /// never declares a silent worker dead.
    pub heartbeat_timeout: Duration,
    /// Per-worker receive poll while supervising.
    pub poll_timeout: Duration,
    /// Failed attempts after which a shard is quarantined.
    pub max_shard_attempts: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Ceiling on the retry delay. A delay past what [`Instant`] can
    /// represent (`Duration::MAX`) quarantines the shard at its first
    /// failure: its retry would never come due.
    pub backoff_cap: Duration,
    /// How long to wait for in-flight shards to drain after a cancel
    /// or deadline before declaring them lost. A grace past what
    /// [`Instant`] can represent (`Duration::MAX`) waits for every
    /// in-flight shard to report.
    pub drain_grace: Duration,
    /// Wall-clock bound on the whole sweep.
    pub deadline: Option<Duration>,
    /// Cooperative cancel: when triggered, in-flight shards are told to
    /// stop at their next batch boundary and the sweep winds down.
    pub cancel: Option<CancelToken>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            heartbeat_timeout: Duration::from_secs(5),
            poll_timeout: Duration::from_millis(2),
            max_shard_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            drain_grace: Duration::from_secs(2),
            deadline: None,
            cancel: None,
        }
    }
}

/// How a shard ended, in the sweep's health table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardState {
    /// Every batch landed clean.
    Completed,
    /// The shard exhausted its attempts; `message` is the last failure.
    Quarantined {
        /// The final failure, stringified.
        message: String,
    },
    /// The sweep was cancelled before the shard finished.
    Cancelled,
    /// The sweep deadline expired before the shard finished.
    DeadlineExpired,
}

/// One row of the sweep's per-shard health table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// The shard id.
    pub shard: u32,
    /// The design cell the shard belongs to.
    pub cell: u32,
    /// Failed attempts consumed (0 for a first-try success).
    pub attempts: u32,
    /// Terminal state.
    pub state: ShardState,
}

/// The outcome of a sweep: every accepted batch plus the health table.
#[derive(Debug, Clone)]
pub struct SweepReport {
    batches: BTreeMap<(u32, u32), BatchSnapshot>,
    /// Per-shard terminal states, in shard order.
    pub health: Vec<ShardHealth>,
    /// Whether the sweep was cancelled mid-flight.
    pub cancelled: bool,
    /// Whether the sweep deadline expired mid-flight.
    pub deadline_expired: bool,
}

impl SweepReport {
    /// Whether any shard failed to complete — the report's results are
    /// partial and must not be memoized.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.health.iter().any(|h| h.state != ShardState::Completed)
    }

    /// The accepted batches of one design cell, in global batch order.
    #[must_use]
    pub fn cell_batches(&self, cell: u32) -> Vec<BatchSnapshot> {
        self.batches
            .range((cell, 0)..=(cell, u32::MAX))
            .map(|(_, snap)| *snap)
            .collect()
    }

    /// Merges one cell's accepted batches into [`Measurements`]
    /// exactly as the local fold closes its own: one
    /// [`IndicatorAccum::merge`](diversify_core::indicators::IndicatorAccum::merge)
    /// per batch, in global batch order, of batches the workers folded
    /// in replication order. So the result is bit-identical to an
    /// unsharded run of the same batches, wherever each batch ran.
    /// `None` when no batch of the cell was accepted.
    #[must_use]
    pub fn merge_cell(&self, cell: u32) -> Option<Measurements> {
        MeasurementsAccum {
            batches: self.cell_batches(cell),
        }
        .measurements()
    }
}

/// The longest clean prefix of `outcome.batches` consistent with
/// `spec`: consecutive global batch ids from the shard's first batch,
/// every batch full (its whole batch size folded — a partial batch
/// would poison bit-identity) and its compromised-ratio sum finite.
/// Anything after the first violation is discarded; a violating *first*
/// batch means zero progress. Each batch's indicator accumulator was
/// already checked when its frame decoded: the wire form of
/// [`IndicatorAccum`](diversify_core::indicators::IndicatorAccum)
/// rejects every state no fold can produce.
fn clean_prefix(spec: &ShardSpec, outcome: &ShardOutcome) -> usize {
    outcome
        .batches
        .iter()
        .take(spec.plan.batches as usize)
        .enumerate()
        .take_while(|&(i, snap)| {
            snap.batch == spec.plan.first_batch + i as u32
                && snap.indicators.replications() == u64::from(spec.plan.batch_size)
                && snap.compromised_sum.is_finite()
        })
        .count()
}

/// A shard waiting to run (again).
#[derive(Debug)]
struct Task {
    spec: ShardSpec,
    attempts: u32,
    not_before: Instant,
    last_error: String,
}

enum SlotState {
    Idle,
    /// `lease` is when the worker is declared dead unless it
    /// heartbeats first; `None` never.
    Busy {
        task: Box<Task>,
        lease: Option<Instant>,
    },
}

struct WorkerSlot {
    channel: Box<dyn Channel>,
    state: SlotState,
}

/// Declares the worker in `entry` dead. Dropping its slot closes the
/// channel, so the worker sees the link close and exits instead of
/// polling a link nobody reads. Returns the shard the worker held.
fn declare_dead(entry: &mut Option<WorkerSlot>) -> Option<Box<Task>> {
    match entry.take()?.state {
        SlotState::Busy { task, .. } => Some(task),
        SlotState::Idle => None,
    }
}

/// Why a sweep is winding down early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WindDown {
    Cancelled,
    DeadlineExpired,
}

/// The sharded-sweep supervisor. See the module docs for the
/// supervision model.
pub struct Coordinator {
    /// One slot per worker; `None` once the worker is declared dead.
    workers: Vec<Option<WorkerSlot>>,
    options: SweepOptions,
}

impl Coordinator {
    /// Builds a coordinator over one channel per worker.
    #[must_use]
    pub fn new(channels: Vec<Box<dyn Channel>>, options: SweepOptions) -> Self {
        Coordinator {
            workers: channels
                .into_iter()
                .map(|channel| {
                    Some(WorkerSlot {
                        channel,
                        state: SlotState::Idle,
                    })
                })
                .collect(),
            options,
        }
    }

    /// Workers not yet declared dead.
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.workers.iter().flatten().count()
    }

    /// Tells every live worker to drain and exit. Called on drop too;
    /// explicit calls just make shutdown observable.
    pub fn shutdown(&mut self) {
        let frame = encode_message(&ToWorker::Shutdown);
        for slot in self.workers.iter_mut().flatten() {
            let _ = slot.channel.send(&frame);
        }
    }

    /// Runs `shards` to terminal states and reports. Shard ids must be
    /// unique within the call. Always returns — every shard ends
    /// `Completed`, `Quarantined`, `Cancelled`, or `DeadlineExpired` —
    /// unless a caller's [`Channel`] panics. Then every worker still
    /// holding one of the sweep's leases is declared dead, as after a
    /// corrupt frame, before the panic propagates: a later sweep must
    /// never take a stale shard's report for its own shard of the same
    /// id.
    pub fn run_sweep(&mut self, shards: Vec<ShardSpec>) -> SweepReport {
        match std::panic::catch_unwind(AssertUnwindSafe(|| self.sweep(shards))) {
            Ok(report) => report,
            Err(panic) => {
                for entry in &mut self.workers {
                    if entry
                        .as_ref()
                        .is_some_and(|slot| matches!(slot.state, SlotState::Busy { .. }))
                    {
                        declare_dead(entry);
                    }
                }
                std::panic::resume_unwind(panic)
            }
        }
    }

    /// The body of [`Self::run_sweep`].
    fn sweep(&mut self, shards: Vec<ShardSpec>) -> SweepReport {
        let started = Instant::now();
        let mut pending: VecDeque<Task> = shards
            .into_iter()
            .map(|spec| Task {
                spec,
                attempts: 0,
                not_before: started,
                last_error: String::new(),
            })
            .collect();
        let mut batches: BTreeMap<(u32, u32), BatchSnapshot> = BTreeMap::new();
        let mut health: BTreeMap<u32, ShardHealth> = BTreeMap::new();
        let mut wind_down: Option<WindDown> = None;
        // When a wind-down stops waiting for in-flight shards; `None`
        // waits for all of them.
        let mut drain_deadline: Option<Instant> = None;

        loop {
            let now = Instant::now();

            if wind_down.is_none() {
                let cancelled = self
                    .options
                    .cancel
                    .as_ref()
                    .is_some_and(CancelToken::is_cancelled);
                let expired = self
                    .options
                    .deadline
                    .is_some_and(|d| now.duration_since(started) >= d);
                if cancelled || expired {
                    wind_down = Some(if cancelled {
                        WindDown::Cancelled
                    } else {
                        WindDown::DeadlineExpired
                    });
                    drain_deadline = now.checked_add(self.options.drain_grace);
                    for slot in self.workers.iter_mut().flatten() {
                        if let SlotState::Busy { task, .. } = &slot.state {
                            let frame = encode_message(&ToWorker::Cancel {
                                shard: task.spec.shard,
                            });
                            let _ = slot.channel.send(&frame);
                        }
                    }
                }
            }

            if let Some(kind) = wind_down {
                for task in pending.drain(..) {
                    resolve_wind_down(&mut health, task, kind);
                }
            } else {
                self.assign_ready(&mut pending, now);
                // With every worker dead, nothing pending can ever run.
                if self.live_workers() == 0 {
                    for mut task in pending.drain(..) {
                        if task.last_error.is_empty() {
                            task.last_error = "no live workers".to_owned();
                        }
                        resolve_quarantined(&mut health, task);
                    }
                }
            }

            let busy = self
                .workers
                .iter()
                .flatten()
                .filter(|w| matches!(w.state, SlotState::Busy { .. }))
                .count();
            if pending.is_empty() && busy == 0 {
                break;
            }
            if wind_down.is_some() && drain_deadline.is_some_and(|d| now >= d) {
                // Still-leased shards are filed below, after the loop.
                break;
            }

            self.poll_workers(&mut pending, &mut batches, &mut health, wind_down);
            self.expire_leases(&mut pending, &mut health, wind_down);
        }

        // Any shard still leased when the loop broke (drain deadline)
        // resolves to the wind-down state.
        for slot in self.workers.iter_mut().flatten() {
            if !matches!(slot.state, SlotState::Busy { .. }) {
                continue;
            }
            if let SlotState::Busy { task, .. } =
                std::mem::replace(&mut slot.state, SlotState::Idle)
            {
                match wind_down {
                    Some(kind) => resolve_wind_down(&mut health, *task, kind),
                    None => resolve_quarantined(&mut health, *task),
                }
            }
        }

        SweepReport {
            batches,
            health: health.into_values().collect(),
            cancelled: wind_down == Some(WindDown::Cancelled),
            deadline_expired: wind_down == Some(WindDown::DeadlineExpired),
        }
    }

    /// Deals ready pending tasks to idle live workers.
    fn assign_ready(&mut self, pending: &mut VecDeque<Task>, now: Instant) {
        for entry in &mut self.workers {
            let Some(slot) = entry else {
                continue;
            };
            if !matches!(slot.state, SlotState::Idle) {
                continue;
            }
            let Some(pos) = pending.iter().position(|t| t.not_before <= now) else {
                break;
            };
            let Some(task) = pending.remove(pos) else {
                break;
            };
            let frame = encode_message(&ToWorker::Run {
                spec: task.spec.clone(),
            });
            match slot.channel.send(&frame) {
                Ok(()) => {
                    slot.state = SlotState::Busy {
                        task: Box::new(task),
                        lease: now.checked_add(self.options.heartbeat_timeout),
                    };
                }
                Err(e) => {
                    declare_dead(entry);
                    pending.push_back(bounced(task, format!("send failed: {e}")));
                }
            }
        }
    }

    /// Drains every live worker's channel once and reacts to messages.
    fn poll_workers(
        &mut self,
        pending: &mut VecDeque<Task>,
        batches: &mut BTreeMap<(u32, u32), BatchSnapshot>,
        health: &mut BTreeMap<u32, ShardHealth>,
        wind_down: Option<WindDown>,
    ) {
        let poll = self.options.poll_timeout;
        let heartbeat = self.options.heartbeat_timeout;
        let max_attempts = self.options.max_shard_attempts;
        let backoff = (self.options.backoff_base, self.options.backoff_cap);
        for entry in &mut self.workers {
            let Some(slot) = entry else {
                continue;
            };
            let frame = match slot.channel.recv_timeout(poll) {
                Ok(Some(frame)) => frame,
                Ok(None) => continue,
                Err(e) => {
                    // Channel loss: the worker is gone; re-deal its
                    // lease.
                    if let Some(task) = declare_dead(entry) {
                        requeue(
                            pending,
                            health,
                            bounced(*task, format!("channel lost: {e}")),
                            max_attempts,
                            backoff,
                            wind_down,
                        );
                    }
                    continue;
                }
            };
            let msg = match decode_message::<FromWorker>(&frame) {
                Ok(msg) => msg,
                Err(e) => {
                    // A frame that fails its checksum or schema means
                    // the transport is corrupting data; stop trusting
                    // this worker entirely.
                    if let Some(task) = declare_dead(entry) {
                        requeue(
                            pending,
                            health,
                            bounced(*task, format!("corrupt frame: {e}")),
                            max_attempts,
                            backoff,
                            wind_down,
                        );
                    }
                    continue;
                }
            };
            let SlotState::Busy { task, lease } = &mut slot.state else {
                // Idle workers only ever produce stale messages.
                continue;
            };
            match msg {
                FromWorker::Heartbeat { shard } if shard == task.spec.shard => {
                    *lease = Instant::now().checked_add(heartbeat);
                }
                FromWorker::Done { outcome } if outcome.shard == task.spec.shard => {
                    let SlotState::Busy { task, .. } =
                        std::mem::replace(&mut slot.state, SlotState::Idle)
                    else {
                        unreachable!("matched Busy above");
                    };
                    settle_done(
                        pending,
                        batches,
                        health,
                        *task,
                        &outcome,
                        max_attempts,
                        backoff,
                        wind_down,
                    );
                }
                FromWorker::Failed { shard, message } if shard == task.spec.shard => {
                    let SlotState::Busy { task, .. } =
                        std::mem::replace(&mut slot.state, SlotState::Idle)
                    else {
                        unreachable!("matched Busy above");
                    };
                    requeue(
                        pending,
                        health,
                        bounced(*task, message),
                        max_attempts,
                        backoff,
                        wind_down,
                    );
                }
                // Stale ids from a previous lease of this worker.
                FromWorker::Heartbeat { .. }
                | FromWorker::Done { .. }
                | FromWorker::Failed { .. } => {}
            }
        }
    }

    /// Declares workers whose lease ran out dead and re-deals their
    /// shards.
    fn expire_leases(
        &mut self,
        pending: &mut VecDeque<Task>,
        health: &mut BTreeMap<u32, ShardHealth>,
        wind_down: Option<WindDown>,
    ) {
        let now = Instant::now();
        let max_attempts = self.options.max_shard_attempts;
        let backoff = (self.options.backoff_base, self.options.backoff_cap);
        for entry in &mut self.workers {
            let Some(slot) = entry else {
                continue;
            };
            let SlotState::Busy { lease, task } = &slot.state else {
                continue;
            };
            if !lease.is_some_and(|lease| now >= lease) {
                continue;
            }
            let cancel_frame = encode_message(&ToWorker::Cancel {
                shard: task.spec.shard,
            });
            let _ = slot.channel.send(&cancel_frame);
            if let Some(task) = declare_dead(entry) {
                requeue(
                    pending,
                    health,
                    bounced(*task, "heartbeat lease expired".to_owned()),
                    max_attempts,
                    backoff,
                    wind_down,
                );
            }
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A task coming back from a failure, error message updated and
/// attempt counter bumped.
fn bounced(mut task: Task, message: String) -> Task {
    task.attempts += 1;
    task.last_error = message;
    task
}

/// Files a failed task: back into the queue with backoff, or into
/// quarantine when its attempts are spent or its retry time is past
/// what [`Instant`] can represent (or the sweep is winding down).
fn requeue(
    pending: &mut VecDeque<Task>,
    health: &mut BTreeMap<u32, ShardHealth>,
    mut task: Task,
    max_attempts: u32,
    (base, cap): (Duration, Duration),
    wind_down: Option<WindDown>,
) {
    if let Some(kind) = wind_down {
        resolve_wind_down(health, task, kind);
        return;
    }
    if task.attempts >= max_attempts {
        resolve_quarantined(health, task);
        return;
    }
    let exponent = task.attempts.saturating_sub(1).min(16);
    let delay = base
        .checked_mul(1u32 << exponent)
        .map_or(cap, |d| d.min(cap));
    match Instant::now().checked_add(delay) {
        Some(not_before) => {
            task.not_before = not_before;
            pending.push_back(task);
        }
        // A retry that can never come due, as `Duration::MAX` backoff
        // asks for.
        None => resolve_quarantined(health, task),
    }
}

/// Accepts a `Done` report: file the clean prefix, then complete,
/// requeue the remainder, or count a failed attempt.
#[allow(clippy::too_many_arguments)]
fn settle_done(
    pending: &mut VecDeque<Task>,
    batches: &mut BTreeMap<(u32, u32), BatchSnapshot>,
    health: &mut BTreeMap<u32, ShardHealth>,
    mut task: Task,
    outcome: &ShardOutcome,
    max_attempts: u32,
    backoff: (Duration, Duration),
    wind_down: Option<WindDown>,
) {
    let accepted = clean_prefix(&task.spec, outcome);
    for snap in &outcome.batches[..accepted] {
        // First write wins: a shard rerun is bit-identical by
        // construction, so late duplicates carry no new information.
        batches.entry((task.spec.cell, snap.batch)).or_insert(*snap);
    }
    if accepted as u32 == task.spec.plan.batches {
        health.insert(
            task.spec.shard,
            ShardHealth {
                shard: task.spec.shard,
                cell: task.spec.cell,
                attempts: task.attempts,
                state: ShardState::Completed,
            },
        );
        return;
    }
    task.spec.plan.first_batch += accepted as u32;
    task.spec.plan.batches -= accepted as u32;
    if accepted > 0 {
        // Progress: a truncated-but-clean report (budget, cancel) is
        // not a failure; the remainder continues fresh.
        task.attempts = 0;
        task.last_error.clear();
        if let Some(kind) = wind_down {
            resolve_wind_down(health, task, kind);
            return;
        }
        task.not_before = Instant::now();
        pending.push_back(task);
    } else {
        requeue(
            pending,
            health,
            bounced(
                task,
                format!("no usable batches (outcome: {:?})", outcome.outcome),
            ),
            max_attempts,
            backoff,
            wind_down,
        );
    }
}

fn resolve_quarantined(health: &mut BTreeMap<u32, ShardHealth>, task: Task) {
    health.insert(
        task.spec.shard,
        ShardHealth {
            shard: task.spec.shard,
            cell: task.spec.cell,
            attempts: task.attempts,
            state: ShardState::Quarantined {
                message: task.last_error,
            },
        },
    );
}

fn resolve_wind_down(health: &mut BTreeMap<u32, ShardHealth>, task: Task, kind: WindDown) {
    health.insert(
        task.spec.shard,
        ShardHealth {
            shard: task.spec.shard,
            cell: task.spec.cell,
            attempts: task.attempts,
            state: match kind {
                WindDown::Cancelled => ShardState::Cancelled,
                WindDown::DeadlineExpired => ShardState::DeadlineExpired,
            },
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::loopback_pair;
    use crate::protocol::{BudgetSpec, PlanSpec};
    use crate::worker::{execute_shard, run_worker, WorkerOptions};
    use diversify_attack::campaign::{CampaignConfig, CampaignSimulator, ThreatModel};
    use diversify_core::exec::{campaign_plan, MeasurementsCollector};
    use diversify_core::runner::measure_configuration_with;
    use diversify_des::exec::Executor;
    use diversify_des::faults::{silence_injected_panics, FaultKind, FaultPlan};
    use diversify_scada::scope::{ScopeConfig, ScopeSystem};
    use proptest::prelude::*;
    use std::sync::Arc;
    use std::thread::JoinHandle;

    const SEED: u64 = 0xC0DE;
    const BATCH_SIZE: u32 = 3;
    const CAMPAIGN: CampaignConfig = CampaignConfig {
        max_ticks: 120,
        detection_stops_attack: false,
    };

    fn spawn_workers(options: Vec<WorkerOptions>) -> (Vec<Box<dyn Channel>>, Vec<JoinHandle<()>>) {
        let mut channels: Vec<Box<dyn Channel>> = Vec::new();
        let mut handles = Vec::new();
        for worker_options in options {
            let (coordinator_side, worker_side) = loopback_pair();
            handles.push(std::thread::spawn(move || {
                run_worker(worker_side, &worker_options);
            }));
            channels.push(Box::new(coordinator_side));
        }
        (channels, handles)
    }

    fn shard(id: u32, first_batch: u32, batches: u32) -> ShardSpec {
        ShardSpec {
            cell: 0,
            shard: id,
            scope: ScopeConfig::default(),
            threat: ThreatModel::stuxnet_like(),
            campaign: CAMPAIGN,
            plan: PlanSpec {
                batches,
                batch_size: BATCH_SIZE,
                master_seed: SEED,
                namespace: diversify_core::exec::CAMPAIGN_STREAM_NAMESPACE,
                first_batch,
            },
            budget: BudgetSpec::default(),
        }
    }

    fn reference(batches: u32) -> Measurements {
        let scope = ScopeConfig::default();
        let system = ScopeSystem::build(&scope);
        let sim = CampaignSimulator::new(system.network(), ThreatModel::stuxnet_like(), CAMPAIGN);
        let plan = campaign_plan(batches, BATCH_SIZE, SEED);
        Executor::default().run_ws(
            &plan,
            || sim.workspace(),
            |ws, rep| sim.run_into(ws, rep.seed),
            &MeasurementsCollector,
        )
    }

    fn assert_identical(merged: &Measurements, reference: &Measurements) {
        assert_eq!(
            serde_json::to_string(&merged.summary).unwrap(),
            serde_json::to_string(&reference.summary).unwrap()
        );
        assert_eq!(merged.batch_p_success, reference.batch_p_success);
        assert_eq!(merged.batch_compromised, reference.batch_compromised);
    }

    fn sweep_options() -> SweepOptions {
        SweepOptions {
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(10),
            ..SweepOptions::default()
        }
    }

    #[test]
    fn sharded_sweep_merges_bit_identically_to_a_local_run() {
        let (channels, handles) =
            spawn_workers(vec![WorkerOptions::default(), WorkerOptions::default()]);
        let mut coordinator = Coordinator::new(channels, sweep_options());
        let report = coordinator.run_sweep(vec![shard(0, 0, 2), shard(1, 2, 2)]);
        assert!(!report.is_degraded());
        let merged = report.merge_cell(0).unwrap();
        assert_identical(&merged, &reference(4));
        coordinator.shutdown();
        drop(coordinator);
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn transient_worker_panics_retry_to_identical_results() {
        silence_injected_panics();
        // Replication 4 (global) panics once per arm on worker 0; the
        // re-dealt shard runs clean because the fault is transient.
        let faults = Arc::new(
            FaultPlan::none(12)
                .with_fault(4, FaultKind::Panic)
                .transient(1),
        );
        let faulty = WorkerOptions {
            faults: Some(Arc::clone(&faults)),
            ..WorkerOptions::default()
        };
        let (channels, _handles) = spawn_workers(vec![faulty]);
        let mut coordinator = Coordinator::new(channels, sweep_options());
        let report = coordinator.run_sweep(vec![shard(0, 0, 4)]);
        assert!(!report.is_degraded(), "health: {:?}", report.health);
        // The shard made progress (batch 0), so the retry is not
        // counted against it.
        assert_eq!(report.health[0].state, ShardState::Completed);
        let merged = report.merge_cell(0).unwrap();
        assert_identical(&merged, &reference(4));
    }

    #[test]
    fn persistent_failure_quarantines_and_degrades_gracefully() {
        silence_injected_panics();
        // Replication 7 always panics on every worker: batch 2 can
        // never complete anywhere.
        let plan = || {
            Some(Arc::new(
                FaultPlan::none(12).with_fault(7, FaultKind::Panic),
            ))
        };
        let (channels, _handles) = spawn_workers(vec![
            WorkerOptions {
                faults: plan(),
                ..WorkerOptions::default()
            },
            WorkerOptions {
                faults: plan(),
                ..WorkerOptions::default()
            },
        ]);
        let mut coordinator = Coordinator::new(channels, sweep_options());
        let report = coordinator.run_sweep(vec![shard(0, 0, 4)]);
        assert!(report.is_degraded());
        let health = &report.health[0];
        assert!(
            matches!(health.state, ShardState::Quarantined { .. }),
            "state: {:?}",
            health.state
        );
        // The clean prefix (batches 0 and 1) still merged bit-exactly.
        let merged = report.merge_cell(0).unwrap();
        assert_identical(&merged, &reference(2));
    }

    #[test]
    fn dropped_channel_reassigns_the_shard_elsewhere() {
        // Worker 0's channel severs on its very first send (the first
        // heartbeat); the shard must land on worker 1 bit-identically.
        let (mut channels, _handles) =
            spawn_workers(vec![WorkerOptions::default(), WorkerOptions::default()]);
        let chaos = Arc::new(FaultPlan::none(1).with_fault(0, FaultKind::Panic));
        let first = channels.remove(0);
        drop(first);
        let (coordinator_side, worker_side) = loopback_pair();
        let worker_side = worker_side.with_send_faults(chaos);
        let worker_options = WorkerOptions::default();
        std::thread::spawn(move || run_worker(worker_side, &worker_options));
        channels.insert(0, Box::new(coordinator_side));
        let mut coordinator = Coordinator::new(channels, sweep_options());
        let report = coordinator.run_sweep(vec![shard(0, 0, 3)]);
        assert!(!report.is_degraded(), "health: {:?}", report.health);
        assert_eq!(coordinator.live_workers(), 1);
        let merged = report.merge_cell(0).unwrap();
        assert_identical(&merged, &reference(3));
    }

    #[test]
    fn corrupted_frames_dethrone_the_worker_not_the_sweep() {
        // Worker 0 corrupts its second send; the coordinator must stop
        // trusting it and re-deal, still finishing bit-identically.
        let chaos = Arc::new(FaultPlan::none(2).with_fault(1, FaultKind::CorruptOutput));
        let (coordinator_side, worker_side) = loopback_pair();
        let worker_side = worker_side.with_send_faults(chaos);
        let corrupt_options = WorkerOptions::default();
        let dethroned = std::thread::spawn(move || run_worker(worker_side, &corrupt_options));
        let (mut channels, _handles) = spawn_workers(vec![WorkerOptions::default()]);
        channels.insert(0, Box::new(coordinator_side));
        let mut coordinator = Coordinator::new(channels, sweep_options());
        let report = coordinator.run_sweep(vec![shard(0, 0, 3)]);
        assert!(!report.is_degraded(), "health: {:?}", report.health);
        assert_eq!(coordinator.live_workers(), 1);
        let merged = report.merge_cell(0).unwrap();
        assert_identical(&merged, &reference(3));
        // Declaring the worker dead closed its channel, so it exits
        // while the coordinator is still alive.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !dethroned.is_finished() {
            assert!(
                Instant::now() < deadline,
                "the dethroned worker still runs 10 s after the sweep"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        dethroned.join().unwrap();
    }

    #[test]
    fn cancel_token_stops_the_sweep_with_typed_state() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let (channels, _handles) = spawn_workers(vec![WorkerOptions::default()]);
        let mut coordinator = Coordinator::new(
            channels,
            SweepOptions {
                cancel: Some(cancel),
                ..sweep_options()
            },
        );
        let report = coordinator.run_sweep(vec![shard(0, 0, 2), shard(1, 2, 2)]);
        assert!(report.cancelled);
        assert!(report.is_degraded());
        assert!(report
            .health
            .iter()
            .all(|h| h.state == ShardState::Cancelled));
    }

    #[test]
    fn unrepresentable_timeouts_mean_never_not_a_panic() {
        // `Instant + Duration::MAX` overflows: both timeouts saturate
        // to "never" instead of panicking on the first lease, on each
        // heartbeat, or on cancel.
        let never = SweepOptions {
            heartbeat_timeout: Duration::MAX,
            drain_grace: Duration::MAX,
            ..sweep_options()
        };
        let (channels, _handles) = spawn_workers(vec![WorkerOptions::default()]);
        let mut coordinator = Coordinator::new(channels, never.clone());
        let report = coordinator.run_sweep(vec![shard(0, 0, 2), shard(1, 2, 2)]);
        assert!(!report.is_degraded(), "health: {:?}", report.health);
        assert_identical(&report.merge_cell(0).unwrap(), &reference(4));

        let cancel = CancelToken::new();
        cancel.cancel();
        let (channels, _handles) = spawn_workers(vec![WorkerOptions::default()]);
        let mut coordinator = Coordinator::new(
            channels,
            SweepOptions {
                cancel: Some(cancel),
                ..never
            },
        );
        let report = coordinator.run_sweep(vec![shard(0, 0, 2), shard(1, 2, 2)]);
        assert!(report.cancelled);
        assert!(report
            .health
            .iter()
            .all(|h| h.state == ShardState::Cancelled));
    }

    #[test]
    fn an_unrepresentable_backoff_quarantines_instead_of_panicking() {
        silence_injected_panics();
        // Replication 0 always panics, so the shard's first attempt
        // fails; its retry would be due `Duration::MAX` from now.
        let faults = Arc::new(FaultPlan::none(6).with_fault(0, FaultKind::Panic));
        let (channels, _handles) = spawn_workers(vec![WorkerOptions {
            faults: Some(faults),
            ..WorkerOptions::default()
        }]);
        let mut coordinator = Coordinator::new(
            channels,
            SweepOptions {
                backoff_base: Duration::MAX,
                backoff_cap: Duration::MAX,
                ..sweep_options()
            },
        );
        let report = coordinator.run_sweep(vec![shard(0, 0, 2)]);
        assert!(report.is_degraded());
        assert_eq!(report.health[0].attempts, 1);
        assert!(
            matches!(report.health[0].state, ShardState::Quarantined { .. }),
            "state: {:?}",
            report.health[0].state
        );
    }

    #[test]
    fn deadline_bounds_the_sweep() {
        // A worker armed with a fault that sleeps far longer than the
        // sweep deadline: the sweep must return promptly and typed.
        let faults =
            Arc::new(FaultPlan::none(3).with_fault(0, FaultKind::Slow { micros: 30_000_000 }));
        let (channels, _handles) = spawn_workers(vec![WorkerOptions {
            faults: Some(faults),
            ..WorkerOptions::default()
        }]);
        let mut coordinator = Coordinator::new(
            channels,
            SweepOptions {
                deadline: Some(Duration::from_millis(200)),
                drain_grace: Duration::from_millis(100),
                ..sweep_options()
            },
        );
        let started = Instant::now();
        let report = coordinator.run_sweep(vec![shard(0, 0, 1)]);
        assert!(started.elapsed() < Duration::from_secs(10));
        assert!(report.deadline_expired);
        assert_eq!(report.health[0].state, ShardState::DeadlineExpired);
    }

    #[test]
    fn no_workers_means_immediate_quarantine_not_a_hang() {
        let mut coordinator = Coordinator::new(Vec::new(), sweep_options());
        let report = coordinator.run_sweep(vec![shard(0, 0, 2)]);
        assert!(report.is_degraded());
        assert!(matches!(
            report.health[0].state,
            ShardState::Quarantined { .. }
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any tiling of a plan into shards folds to the local result:
        /// each shard runs through the worker's shard execution, the
        /// coordinator accepts its report and merges the cell, and the
        /// merged measurements equal `measure_configuration_with` on
        /// the whole plan bit for bit. `cuts[i]` ends a shard after
        /// batch `i`.
        #[test]
        fn any_shard_tiling_folds_to_the_local_result(
            batches in 1u32..=8,
            batch_size in 1u32..=5,
            cuts in prop::collection::vec(any::<bool>(), 7),
            parallel in any::<bool>(),
        ) {
            let executor = if parallel {
                Executor::parallel()
            } else {
                Executor::serial()
            };
            let options = WorkerOptions {
                executor,
                ..WorkerOptions::default()
            };
            let cancel = CancelToken::new();
            let mut pending = VecDeque::new();
            let mut accepted = BTreeMap::new();
            let mut health = BTreeMap::new();
            let mut first_batch = 0;
            for end in 1..=batches {
                if end < batches && !cuts[end as usize - 1] {
                    continue;
                }
                let mut spec = shard(health.len() as u32, first_batch, end - first_batch);
                spec.plan.batch_size = batch_size;
                let outcome = execute_shard(&spec, &options, &cancel);
                let task = Task {
                    spec,
                    attempts: 0,
                    not_before: Instant::now(),
                    last_error: String::new(),
                };
                let backoff = (Duration::ZERO, Duration::ZERO);
                settle_done(&mut pending, &mut accepted, &mut health, task, &outcome, 1, backoff, None);
                first_batch = end;
            }
            prop_assert!(pending.is_empty());
            prop_assert!(health.values().all(|h| h.state == ShardState::Completed));
            let report = SweepReport {
                batches: accepted,
                health: health.into_values().collect(),
                cancelled: false,
                deadline_expired: false,
            };
            let merged = report.merge_cell(0).unwrap();

            let system = ScopeSystem::build(&ScopeConfig::default());
            let local = measure_configuration_with(
                system.network(),
                &ThreatModel::stuxnet_like(),
                CAMPAIGN,
                &campaign_plan(batches, batch_size, SEED),
                Executor::serial(),
            );
            prop_assert_eq!(format!("{merged:?}"), format!("{local:?}"));
        }
    }
}
