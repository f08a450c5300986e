//! The indicator service: memoized, coalesced measurement requests over
//! a [`Coordinator`].
//!
//! An [`IndicatorService`] answers [`IndicatorRequest`]s — "measure
//! this plant under this threat to this depth" — by sharding the
//! replication plan over its workers. Two layers sit on top of the
//! coordinator:
//!
//! * a **content-addressed memo store**: completed requests are keyed
//!   by [`ContentKey`] over plant × threat × campaign × batch size ×
//!   seed, so a repeated request replays from the store with zero new
//!   replications, and a *nearby* request (more batches, or a tighter
//!   precision goal, on the same cell) merges the stored batches with a
//!   top-up run of only the missing ones;
//! * **in-flight coalescing**: concurrent duplicates of one request
//!   wait on the first computation instead of re-running it.
//!
//! Both layers preserve the workspace's bit-identity contract: memo
//! entries hold the per-batch snapshots (the fold-preserving unit), and
//! every answer is the same left-fold a local unsharded run would
//! produce.

use crate::channel::{loopback_pair, Channel};
use crate::coordinator::{Coordinator, ShardHealth, SweepOptions, SweepReport};
use crate::protocol::{BatchSnapshot, BudgetSpec, PlanSpec, ShardSpec};
use crate::worker::{run_worker, WorkerOptions};
use diversify_attack::campaign::{CampaignConfig, ThreatModel};
use diversify_core::exec::{MeasurementsAccum, CAMPAIGN_STREAM_NAMESPACE};
use diversify_core::indicators::PrecisionResponse;
use diversify_core::runner::Measurements;
use diversify_core::ContentKey;
use diversify_des::exec::Precision;
use diversify_scada::scope::ScopeConfig;
use serde::{Serialize, Value};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Service-level configuration.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Batches per shard lease: the granularity of work distribution,
    /// retry, and cancellation.
    pub batches_per_shard: u32,
    /// Coordinator supervision tuning.
    pub sweep: SweepOptions,
    /// Per-lease worker budget.
    pub budget: BudgetSpec,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            batches_per_shard: 1,
            sweep: SweepOptions::default(),
            budget: BudgetSpec::default(),
        }
    }
}

/// A precision target a request can ask for instead of (or on top of)
/// a fixed batch count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionGoal {
    /// The monitored indicator.
    pub response: PrecisionResponse,
    /// Confidence level of the monitored interval, e.g. `0.95`.
    pub level: f64,
    /// Stop once the interval half-width falls under this fraction of
    /// the estimate.
    pub relative_half_width: f64,
}

/// One measurement request: a design cell plus a depth.
#[derive(Debug, Clone, PartialEq)]
pub struct IndicatorRequest {
    /// The modeled plant.
    pub scope: ScopeConfig,
    /// The threat model.
    pub threat: ThreatModel,
    /// Campaign parameters.
    pub campaign: CampaignConfig,
    /// Replicate batches to measure (the minimum, when a `goal` is
    /// set).
    pub batches: u32,
    /// Campaigns per batch.
    pub batch_size: u32,
    /// Master seed: the request measures the same seed schedule a local
    /// [`campaign_plan`](diversify_core::exec::campaign_plan) run
    /// would.
    pub seed: u64,
    /// Optional precision target. When set, the service doubles the
    /// batch count (up to `max_batches`) until the target is met —
    /// serving every wave's prefix from the memo store.
    pub goal: Option<PrecisionGoal>,
    /// Hard cap on batches when chasing a `goal`.
    pub max_batches: u32,
}

impl IndicatorRequest {
    /// A fixed-depth request: exactly `batches × batch_size`
    /// replications, no precision goal.
    #[must_use]
    pub fn fixed(
        scope: ScopeConfig,
        threat: ThreatModel,
        campaign: CampaignConfig,
        batches: u32,
        batch_size: u32,
        seed: u64,
    ) -> Self {
        IndicatorRequest {
            scope,
            threat,
            campaign,
            batches,
            batch_size,
            seed,
            goal: None,
            max_batches: batches,
        }
    }

    /// The serialized identity of the *cell* this request measures —
    /// everything that determines the replication outcomes, nothing
    /// that only determines how many are served. Memo entries are keyed
    /// by this, which is what lets nearby requests share batches.
    fn cell_value(&self) -> Value {
        Value::Array(vec![
            self.scope.to_json_value(),
            self.threat.to_json_value(),
            self.campaign.to_json_value(),
            self.batch_size.to_json_value(),
            self.seed.to_json_value(),
        ])
    }

    /// The memo-store key: the cell identity.
    #[must_use]
    pub fn cell_key(&self) -> ContentKey {
        ContentKey::of(&self.cell_value())
    }

    /// The coalescing key: the full request, depth and goal included.
    #[must_use]
    pub fn request_key(&self) -> ContentKey {
        let goal = self.goal.map_or(Value::Null, |g| {
            Value::Array(vec![
                g.response.to_json_value(),
                g.level.to_json_value(),
                g.relative_half_width.to_json_value(),
            ])
        });
        ContentKey::of(&Value::Array(vec![
            self.cell_value(),
            self.batches.to_json_value(),
            self.max_batches.to_json_value(),
            goal,
        ]))
    }
}

/// A served measurement, with its provenance and health.
#[derive(Debug, Clone)]
pub struct IndicatorResponse {
    /// The merged measurements over every served batch, or `None` if no
    /// batch completed.
    pub measurements: Option<Measurements>,
    /// Precision of the goal's monitored response over the served
    /// batches (only when a goal was set and computable).
    pub precision: Option<Precision>,
    /// Whether the request's target (batch count, or precision goal)
    /// was met.
    pub target_met: bool,
    /// Replications folded into `measurements`.
    pub replications: u32,
    /// Replications actually executed by this call (0 for a memo hit).
    pub new_replications: u32,
    /// Whether the answer came entirely from the memo store.
    pub from_cache: bool,
    /// Whether any shard ended short of clean completion.
    pub degraded: bool,
    /// Whether the sweep was cancelled mid-flight.
    pub cancelled: bool,
    /// Whether the sweep deadline expired mid-flight.
    pub deadline_expired: bool,
    /// Per-shard terminal states of every sweep this call ran.
    pub health: Vec<ShardHealth>,
}

/// One in-flight computation concurrent duplicates wait on.
struct Flight {
    done: Mutex<Option<IndicatorResponse>>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: Mutex::new(None),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, response: IndicatorResponse) {
        *lock(&self.done) = Some(response);
        self.ready.notify_all();
    }

    fn wait(&self) -> IndicatorResponse {
        let mut done = lock(&self.done);
        loop {
            if let Some(response) = done.clone() {
                return response;
            }
            done = self
                .ready
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// The leader's claim on a request key: dropping it removes the flight
/// from the in-flight table and publishes the leader's answer to every
/// waiter — or, when the leader unwound before answering, a degraded
/// response with no measurements, so waiters return and the next
/// identical request computes afresh instead of waiting forever.
struct Leader<'s> {
    flights: &'s Mutex<HashMap<ContentKey, Arc<Flight>>>,
    key: ContentKey,
    flight: Arc<Flight>,
    response: Option<IndicatorResponse>,
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        lock(self.flights).remove(&self.key);
        self.flight
            .publish(self.response.take().unwrap_or_else(abandoned));
    }
}

/// What waiters on a flight get when its leader panicked: degraded,
/// nothing measured.
fn abandoned() -> IndicatorResponse {
    IndicatorResponse {
        measurements: None,
        precision: None,
        target_met: false,
        replications: 0,
        new_replications: 0,
        from_cache: false,
        degraded: true,
        cancelled: false,
        deadline_expired: false,
        health: Vec::new(),
    }
}

/// Locks a mutex, surviving poisoning (a worker panic must degrade the
/// service, never wedge it).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The memoized, coalesced front of the sharded measurement engine.
/// See the module docs.
pub struct IndicatorService {
    coordinator: Mutex<Coordinator>,
    memo: Mutex<HashMap<ContentKey, Vec<BatchSnapshot>>>,
    flights: Mutex<HashMap<ContentKey, Arc<Flight>>>,
    options: ServiceOptions,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl IndicatorService {
    /// A service over caller-provided channels (one per worker, already
    /// connected — e.g. [`TcpChannel`](crate::channel::TcpChannel)s to
    /// remote workers). The caller owns the worker processes.
    #[must_use]
    pub fn with_channels(channels: Vec<Box<dyn Channel>>, options: ServiceOptions) -> Self {
        let coordinator = Coordinator::new(channels, options.sweep.clone());
        IndicatorService {
            coordinator: Mutex::new(coordinator),
            memo: Mutex::new(HashMap::new()),
            flights: Mutex::new(HashMap::new()),
            options,
            workers: Vec::new(),
        }
    }

    /// A self-contained service: `n` worker threads over loopback
    /// channels. Workers shut down when the service drops.
    #[must_use]
    pub fn in_process(n: usize, options: ServiceOptions) -> Self {
        Self::in_process_with(n, |_| WorkerOptions::default(), options)
    }

    /// [`Self::in_process`] with per-worker configuration — the hook
    /// chaos tests use to arm [`FaultPlan`](diversify_des::faults::FaultPlan)s
    /// on a subset of workers.
    #[must_use]
    pub fn in_process_with(
        n: usize,
        per_worker: impl Fn(usize) -> WorkerOptions,
        options: ServiceOptions,
    ) -> Self {
        let mut channels: Vec<Box<dyn Channel>> = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for i in 0..n {
            let (coordinator_side, worker_side) = loopback_pair();
            let worker_options = per_worker(i);
            handles.push(std::thread::spawn(move || {
                run_worker(worker_side, &worker_options);
            }));
            channels.push(Box::new(coordinator_side));
        }
        let mut service = Self::with_channels(channels, options);
        service.workers = handles;
        service
    }

    /// Workers the coordinator still considers alive.
    #[must_use]
    pub fn live_workers(&self) -> usize {
        lock(&self.coordinator).live_workers()
    }

    /// Answers a measurement request. Concurrent duplicates coalesce
    /// onto one computation; repeats of a completed request are served
    /// from the memo store with zero new replications. Always returns:
    /// under worker faults the response degrades to the clean prefix
    /// plus a health table instead of hanging. If the computation
    /// panics (say, in a caller's [`Channel`]), the panic reaches this
    /// caller, its waiting duplicates get a degraded response with no
    /// measurements, and the next identical request computes afresh.
    pub fn request(&self, request: &IndicatorRequest) -> IndicatorResponse {
        let request_key = request.request_key();
        let mut leader = {
            let mut flights = lock(&self.flights);
            if let Some(existing) = flights.get(&request_key) {
                let existing = Arc::clone(existing);
                drop(flights);
                return existing.wait();
            }
            let fresh = Arc::new(Flight::new());
            flights.insert(request_key, Arc::clone(&fresh));
            Leader {
                flights: &self.flights,
                key: request_key,
                flight: fresh,
                response: None,
            }
        };
        let response = self.compute(request);
        leader.response = Some(response.clone());
        response
    }

    /// The leader path of [`Self::request`]: memo lookup, top-up
    /// sweeps, precision waves, merge, memoization.
    fn compute(&self, request: &IndicatorRequest) -> IndicatorResponse {
        let cell_key = request.cell_key();
        let mut have: Vec<BatchSnapshot> =
            lock(&self.memo).get(&cell_key).cloned().unwrap_or_default();
        let mut target = request.batches.max(1);
        let max_batches = request.max_batches.max(target);
        let mut new_replications = 0u32;
        let mut health = Vec::new();
        let mut degraded = false;
        let mut cancelled = false;
        let mut deadline_expired = false;
        let mut target_met = false;

        loop {
            if (have.len() as u32) < target {
                let report = self.run_cell_shards(request, have.len() as u32, target);
                // Accept the contiguous continuation; a hole behind a
                // quarantined shard ends what this call can serve.
                for snap in report.cell_batches(0) {
                    if snap.batch == have.len() as u32 {
                        have.push(snap);
                        new_replications += request.batch_size;
                    }
                }
                degraded |= report.is_degraded();
                cancelled |= report.cancelled;
                deadline_expired |= report.deadline_expired;
                health.extend(report.health);
                if degraded || cancelled || deadline_expired {
                    break;
                }
            }
            match request.goal {
                None => {
                    target_met = have.len() as u32 >= target;
                    break;
                }
                Some(goal) => {
                    let wave = MeasurementsAccum {
                        batches: have[..target as usize].to_vec(),
                    };
                    let met = wave
                        .indicators()
                        .precision(goal.response, goal.level)
                        .is_some_and(|p| p.relative_half_width() <= goal.relative_half_width);
                    if met {
                        target_met = true;
                        break;
                    }
                    if target >= max_batches {
                        break;
                    }
                    target = target.saturating_mul(2).min(max_batches);
                }
            }
        }

        let served = target.min(have.len() as u32);
        let serving = MeasurementsAccum {
            batches: have[..served as usize].to_vec(),
        };
        let measurements = serving.measurements();
        let precision = request
            .goal
            .and_then(|g| serving.indicators().precision(g.response, g.level));

        if !degraded && !cancelled && !deadline_expired {
            let mut memo = lock(&self.memo);
            let entry = memo.entry(cell_key).or_default();
            if entry.len() < have.len() {
                *entry = have.clone();
            }
        }

        IndicatorResponse {
            measurements,
            precision,
            target_met: target_met && !degraded,
            replications: served * request.batch_size,
            new_replications,
            from_cache: new_replications == 0,
            degraded,
            cancelled,
            deadline_expired,
            health,
        }
    }

    /// Runs one cell's batches `[from, to)` as shards and returns the
    /// sweep report (cell id 0).
    fn run_cell_shards(&self, request: &IndicatorRequest, from: u32, to: u32) -> SweepReport {
        let step = self.options.batches_per_shard.max(1);
        let mut shards = Vec::new();
        let mut start = from;
        while start < to {
            let batches = step.min(to - start);
            shards.push(ShardSpec {
                cell: 0,
                shard: start,
                scope: request.scope.clone(),
                threat: request.threat.clone(),
                campaign: request.campaign,
                plan: PlanSpec {
                    batches,
                    batch_size: request.batch_size,
                    master_seed: request.seed,
                    namespace: CAMPAIGN_STREAM_NAMESPACE,
                    first_batch: start,
                },
                budget: self.options.budget,
            });
            start += batches;
        }
        lock(&self.coordinator).run_sweep(shards)
    }
}

impl Drop for IndicatorService {
    fn drop(&mut self) {
        lock(&self.coordinator).shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelError;
    use diversify_attack::campaign::CampaignSimulator;
    use diversify_core::exec::{campaign_plan, MeasurementsCollector};
    use diversify_des::exec::{Executor, RetryPolicy};
    use diversify_des::faults::{silence_injected_panics, FaultKind, FaultPlan, InjectedPanic};
    use diversify_scada::scope::ScopeSystem;
    use std::time::Duration;

    const SEED: u64 = 0xC0DE;
    const BATCH_SIZE: u32 = 3;
    const CAMPAIGN: CampaignConfig = CampaignConfig {
        max_ticks: 120,
        detection_stops_attack: false,
    };

    fn service_options() -> ServiceOptions {
        ServiceOptions {
            sweep: SweepOptions {
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(10),
                ..SweepOptions::default()
            },
            ..ServiceOptions::default()
        }
    }

    fn request(batches: u32) -> IndicatorRequest {
        IndicatorRequest::fixed(
            ScopeConfig::default(),
            ThreatModel::stuxnet_like(),
            CAMPAIGN,
            batches,
            BATCH_SIZE,
            SEED,
        )
    }

    fn reference(batches: u32) -> Measurements {
        reference_at(batches, SEED, Executor::default())
    }

    fn reference_at(batches: u32, seed: u64, executor: Executor) -> Measurements {
        let scope = ScopeConfig::default();
        let system = ScopeSystem::build(&scope);
        let sim = CampaignSimulator::new(system.network(), ThreatModel::stuxnet_like(), CAMPAIGN);
        let plan = campaign_plan(batches, BATCH_SIZE, seed);
        executor.run_ws(
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

    #[test]
    fn repeat_requests_replay_from_the_memo_store() {
        let service = IndicatorService::in_process(2, service_options());
        let first = service.request(&request(4));
        assert!(!first.degraded);
        assert!(first.target_met);
        assert!(!first.from_cache);
        assert_eq!(first.new_replications, 4 * BATCH_SIZE);
        assert_identical(first.measurements.as_ref().unwrap(), &reference(4));

        let replay = service.request(&request(4));
        assert!(replay.from_cache);
        assert_eq!(replay.new_replications, 0);
        assert_eq!(replay.replications, 4 * BATCH_SIZE);
        assert_identical(
            replay.measurements.as_ref().unwrap(),
            first.measurements.as_ref().unwrap(),
        );
    }

    #[test]
    fn nearby_request_tops_up_only_the_missing_batches() {
        let service = IndicatorService::in_process(2, service_options());
        let shallow = service.request(&request(2));
        assert_eq!(shallow.new_replications, 2 * BATCH_SIZE);
        assert_identical(shallow.measurements.as_ref().unwrap(), &reference(2));

        // Same cell, deeper: only batches 2..4 run; the merged result is
        // still bit-identical to a from-scratch 4-batch run.
        let deep = service.request(&request(4));
        assert_eq!(deep.new_replications, 2 * BATCH_SIZE);
        assert!(!deep.from_cache);
        assert_identical(deep.measurements.as_ref().unwrap(), &reference(4));

        // A shallower repeat serves the prefix from the store.
        let prefix = service.request(&request(3));
        assert!(prefix.from_cache);
        assert_eq!(prefix.new_replications, 0);
        assert_identical(prefix.measurements.as_ref().unwrap(), &reference(3));
    }

    #[test]
    fn concurrent_duplicates_coalesce_onto_one_computation() {
        let service = Arc::new(IndicatorService::in_process(2, service_options()));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let service = Arc::clone(&service);
                std::thread::spawn(move || service.request(&request(3)))
            })
            .collect();
        let responses: Vec<IndicatorResponse> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every caller gets the leader's answer: had any duplicate
        // computed on its own it would have hit the memo store and
        // reported `from_cache` instead.
        for response in &responses {
            assert!(!response.from_cache);
            assert_eq!(response.new_replications, 3 * BATCH_SIZE);
            assert_identical(response.measurements.as_ref().unwrap(), &reference(3));
        }
    }

    #[test]
    fn precision_goal_doubles_batches_until_met_or_capped() {
        let service = IndicatorService::in_process(2, service_options());
        // A goal no finite run can meet: the service doubles 2 → 4 and
        // stops at the cap with an honest `target_met = false`. (The
        // floor is two batches: this cell's first batch happens to have
        // zero compromised-ratio variance, which would satisfy any
        // relative goal vacuously.)
        let unreachable = IndicatorRequest {
            goal: Some(PrecisionGoal {
                response: PrecisionResponse::CompromisedRatio,
                level: 0.95,
                relative_half_width: 1e-12,
            }),
            max_batches: 4,
            ..request(2)
        };
        let response = service.request(&unreachable);
        assert!(!response.target_met);
        assert!(!response.degraded);
        assert_eq!(response.replications, 4 * BATCH_SIZE);
        assert!(response.precision.is_some());
        assert_identical(response.measurements.as_ref().unwrap(), &reference(4));

        // A trivially loose goal is met at the requested floor — served
        // entirely from the batches the unreachable goal banked.
        let loose = IndicatorRequest {
            goal: Some(PrecisionGoal {
                response: PrecisionResponse::CompromisedRatio,
                level: 0.95,
                relative_half_width: 1e6,
            }),
            max_batches: 4,
            ..request(2)
        };
        let response = service.request(&loose);
        assert!(response.target_met);
        assert!(response.from_cache);
        assert_eq!(response.new_replications, 0);
        assert_eq!(response.replications, 2 * BATCH_SIZE);
        assert_identical(response.measurements.as_ref().unwrap(), &reference(2));
    }

    #[test]
    fn exhausted_shard_degrades_to_the_clean_prefix() {
        silence_injected_panics();
        // Global replication 4 (batch 1) panics on every attempt and the
        // worker never retries: the shard exhausts its coordinator
        // attempts and quarantines. The response serves batch 0, flags
        // degradation, and the poisoned run is never memoized.
        let faults = Arc::new(FaultPlan::none(6).with_fault(4, FaultKind::Panic));
        let service = IndicatorService::in_process_with(
            1,
            |_| WorkerOptions {
                retry: RetryPolicy::none(),
                faults: Some(Arc::clone(&faults)),
                ..WorkerOptions::default()
            },
            service_options(),
        );
        let response = service.request(&request(2));
        assert!(response.degraded);
        assert!(!response.target_met);
        assert_eq!(response.replications, BATCH_SIZE);
        assert_identical(response.measurements.as_ref().unwrap(), &reference(1));
        assert!(response
            .health
            .iter()
            .any(|h| matches!(h.state, crate::coordinator::ShardState::Quarantined { .. })));

        // The degraded result was not memoized: a repeat starts from
        // scratch (and degrades the same way) instead of replaying a
        // poisoned entry as clean.
        let repeat = service.request(&request(2));
        assert!(repeat.degraded);
        assert_identical(
            repeat.measurements.as_ref().unwrap(),
            response.measurements.as_ref().unwrap(),
        );
    }

    #[test]
    fn never_expiring_timeouts_answer_like_the_local_run() {
        let mut options = service_options();
        options.sweep.heartbeat_timeout = Duration::MAX;
        options.sweep.drain_grace = Duration::MAX;
        let service = IndicatorService::in_process(2, options);
        let response = service.request(&request(4));
        assert!(!response.degraded, "health: {:?}", response.health);
        assert!(response.target_met);
        assert_identical(response.measurements.as_ref().unwrap(), &reference(4));
    }

    /// A caller's channel that panics on its first send, then forwards.
    struct PanicsOnFirstSend<C> {
        inner: C,
        sent: bool,
    }

    impl<C: Channel> Channel for PanicsOnFirstSend<C> {
        fn send(&mut self, frame: &[u8]) -> Result<(), ChannelError> {
            if !std::mem::replace(&mut self.sent, true) {
                std::panic::panic_any(InjectedPanic { index: 0 });
            }
            self.inner.send(frame)
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, ChannelError> {
            self.inner.recv_timeout(timeout)
        }
    }

    #[test]
    fn a_panicking_leader_does_not_wedge_its_request_key() {
        silence_injected_panics();
        let (coordinator_side, worker_side) = loopback_pair();
        let worker = std::thread::spawn(move || run_worker(worker_side, &WorkerOptions::default()));
        let channel = PanicsOnFirstSend {
            inner: coordinator_side,
            sent: false,
        };
        let service = Arc::new(IndicatorService::with_channels(
            vec![Box::new(channel)],
            service_options(),
        ));
        let leader = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.request(&request(2)))
        };
        assert!(
            leader.join().is_err(),
            "the channel's panic reaches the leader"
        );

        let (answered, answer) = std::sync::mpsc::channel();
        let retry = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let _ = answered.send(service.request(&request(2)));
            })
        };
        let response = answer
            .recv_timeout(Duration::from_secs(10))
            .expect("the identical retry still blocks 10 s after its leader panicked");
        retry.join().unwrap();
        assert!(!response.degraded, "health: {:?}", response.health);
        assert!(response.target_met);
        assert_identical(response.measurements.as_ref().unwrap(), &reference(2));
        drop(service);
        worker.join().unwrap();
    }

    /// A caller's channel that panics on its first receive, then
    /// forwards.
    struct PanicsOnFirstRecv<C> {
        inner: C,
        received: bool,
    }

    impl<C: Channel> Channel for PanicsOnFirstRecv<C> {
        fn send(&mut self, frame: &[u8]) -> Result<(), ChannelError> {
            self.inner.send(frame)
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, ChannelError> {
            if !std::mem::replace(&mut self.received, true) {
                std::panic::panic_any(InjectedPanic { index: 0 });
            }
            self.inner.recv_timeout(timeout)
        }
    }

    #[test]
    fn a_sweep_that_unwinds_leaves_no_lease_to_the_next_request() {
        silence_injected_panics();
        // Both workers hold a shard of the first request when the
        // second one's channel panics in the coordinator's poll.
        let (healthy, healthy_side) = loopback_pair();
        let (flaky, flaky_side) = loopback_pair();
        let workers = [healthy_side, flaky_side]
            .map(|side| std::thread::spawn(move || run_worker(side, &WorkerOptions::default())));
        let flaky = PanicsOnFirstRecv {
            inner: flaky,
            received: false,
        };
        let service = IndicatorService::with_channels(
            vec![Box::new(healthy), Box::new(flaky)],
            service_options(),
        );
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.request(&request(2))
        }));
        assert!(unwound.is_err(), "the channel's panic reaches the caller");

        let next = IndicatorRequest {
            seed: SEED ^ 1,
            ..request(2)
        };
        let first_answer = format!("{:?}", reference_at(2, SEED, Executor::serial()));
        let own = reference_at(2, SEED ^ 1, Executor::serial());
        // The repeat would replay whatever the first call memoized.
        for _ in 0..2 {
            let response = service.request(&next);
            if let Some(measurements) = &response.measurements {
                assert_ne!(format!("{measurements:?}"), first_answer);
            }
            if !response.degraded {
                assert_identical(response.measurements.as_ref().unwrap(), &own);
            }
        }
        drop(service);
        for worker in workers {
            worker.join().unwrap();
        }
    }

    #[test]
    fn waiters_on_an_unwound_leader_get_a_degraded_empty_answer() {
        silence_injected_panics();
        let key = request(2).request_key();
        let flights = Mutex::new(HashMap::new());
        let flight = Arc::new(Flight::new());
        lock(&flights).insert(key, Arc::clone(&flight));
        let leader = Leader {
            flights: &flights,
            key,
            flight: Arc::clone(&flight),
            response: None,
        };
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _leader = leader;
            std::panic::panic_any(InjectedPanic { index: 0 });
        }));
        assert!(unwound.is_err());
        assert!(lock(&flights).is_empty());
        let waited = flight.wait();
        assert!(waited.degraded && !waited.target_met);
        assert!(waited.measurements.is_none());
    }

    #[test]
    fn dropping_the_service_returns_after_a_worker_is_declared_dead() {
        // Worker 0 heartbeats once a second and sleeps 300 ms in
        // replication 0, so its 250 ms lease expires: the coordinator
        // declares it dead and worker 1 runs both shards. Dropping the
        // service must still join every worker thread.
        let faults =
            Arc::new(FaultPlan::none(6).with_fault(0, FaultKind::Slow { micros: 300_000 }));
        let mut options = service_options();
        options.sweep.heartbeat_timeout = Duration::from_millis(250);
        let service = IndicatorService::in_process_with(
            2,
            |i| {
                if i == 0 {
                    WorkerOptions {
                        heartbeat_every: Duration::from_secs(1),
                        faults: Some(Arc::clone(&faults)),
                        ..WorkerOptions::default()
                    }
                } else {
                    WorkerOptions::default()
                }
            },
            options,
        );
        let response = service.request(&request(2));
        assert!(!response.degraded, "health: {:?}", response.health);
        assert_eq!(service.live_workers(), 1);
        assert_identical(response.measurements.as_ref().unwrap(), &reference(2));

        let (dropped, done) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(service);
            let _ = dropped.send(());
        });
        assert!(
            done.recv_timeout(Duration::from_secs(10)).is_ok(),
            "dropping the service still blocks 10 s after a worker was declared dead"
        );
        dropper.join().unwrap();
    }
}
