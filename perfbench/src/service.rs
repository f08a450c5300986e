//! `service_mix`: a closed loop of two client threads, no think time,
//! against `IndicatorService::in_process(2, ServiceOptions::default())`.
//!
//! Each client owns 24 of an episode's 48 SCoPE cells (one design-row
//! profile and one seed each, one-year window, 10 campaigns per batch)
//! and draws 96 requests from them. A request asks for 2, 4 or 6
//! batches, at most one step deeper than what the cell already holds, so
//! the mix is cold misses (2 batches), top-ups (2 more batches) and
//! exact or shallower repeats (memo hits), and every miss runs exactly
//! two shards. After 96 requests the client moves to fresh cells. No
//! cell is shared between the clients, so no request coalesces with or
//! races the other client's, and each request's class follows from the
//! seed alone.

use crate::harness::{self, LoopStats, Outcome, RunConfig, SetupClock};
use crate::trace::{self, Layer, LayerStats};
use diversify_attack::campaign::{CampaignConfig, CampaignSimulator, ThreatModel};
use diversify_core::exec::{
    Executor, MeasurementsCollector, ReplicationPlan, CAMPAIGN_STREAM_NAMESPACE,
};
use diversify_core::factors::{factor_profile, FactorLevel};
use diversify_core::runner::Measurements;
use diversify_doe::design::fractional_factorial;
use diversify_scada::components::{ComponentClass, ComponentProfile};
use diversify_scada::scope::{ScopeConfig, ScopeSystem};
use diversify_serve::channel::{loopback_pair, Channel};
use diversify_serve::coordinator::{Coordinator, SweepOptions};
use diversify_serve::protocol::{
    BatchSnapshot, BudgetSpec, FromWorker, OutcomeCode, PlanSpec, ShardOutcome, ShardSpec, ToWorker,
};
use diversify_serve::service::{
    IndicatorRequest, IndicatorResponse, IndicatorService, ServiceOptions,
};
use diversify_serve::wire::{decode_message, encode_message};
use diversify_serve::worker::{run_worker, WorkerOptions};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const DEPTHS: [u32; 3] = [2, 4, 6];

/// Cells per client, requests per client episode, campaigns per batch.
struct Shape {
    cells: u64,
    requests: u64,
    batch_size: u32,
}

fn shape(run: &RunConfig) -> Shape {
    if run.tiny {
        Shape {
            cells: 3,
            requests: 8,
            batch_size: 4,
        }
    } else {
        Shape {
            cells: 24,
            requests: 96,
            batch_size: 10,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Cold,
    TopUp,
    Hit,
}

/// One served request as its client saw it.
struct Record {
    request: IndicatorRequest,
    /// Batches the cell held before this request.
    held: u32,
    class: Class,
    traced: bool,
    ms: f64,
    /// Process CPU time when the answer arrived, in s.
    cpu_s: f64,
    response: IndicatorResponse,
}

impl Record {
    fn is_miss(&self) -> bool {
        self.class != Class::Hit
    }

    /// A clean answer of exactly the requested depth that executed
    /// exactly the batches the cell lacked — none for a hit.
    fn served_ok(&self) -> bool {
        let r = &self.response;
        let size = self.request.batch_size;
        let new = self.request.batches.saturating_sub(self.held) * size;
        !r.degraded
            && !r.cancelled
            && !r.deadline_expired
            && r.target_met
            && r.measurements.is_some()
            && r.replications == self.request.batches * size
            && r.new_replications == new
            && r.from_cache == (self.class == Class::Hit)
    }
}

/// The 16 plant profiles of the pipeline's 2^(6−2) design.
fn profiles() -> Vec<ComponentProfile> {
    let labels: Vec<&str> = ComponentClass::ALL.iter().map(|c| c.label()).collect();
    let (design, _) =
        fractional_factorial(&labels, &[vec![0, 1, 2], vec![1, 2, 3]]).expect("built-in design");
    design
        .rows
        .iter()
        .map(|row| {
            factor_profile(
                &row.iter()
                    .map(|&l| FactorLevel::from_coded(l))
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// One client's closed loop: requests back to back until `deadline`
/// (and at least one full episode).
fn client(
    service: &IndicatorService,
    run: &RunConfig,
    profiles: &[ComponentProfile],
    id: u64,
    deadline: Instant,
    traced: bool,
) -> Vec<Record> {
    let shape = shape(run);
    let mut records = Vec::new();
    let mut held = vec![0u32; shape.cells as usize];
    let mut k = 0u64;
    while k < shape.requests || Instant::now() < deadline {
        let episode = k / shape.requests;
        if k % shape.requests == 0 {
            held.fill(0);
        }
        let draw = harness::mix(run.seed, (id << 56) | k);
        let cell = draw % shape.cells;
        let have = held[cell as usize];
        let allowed = DEPTHS.iter().filter(|&&d| d <= have + 2).count() as u64;
        let depth = DEPTHS[((draw >> 32) % allowed) as usize];
        let class = if depth <= have {
            Class::Hit
        } else if have == 0 {
            Class::Cold
        } else {
            Class::TopUp
        };
        let scope = ScopeConfig {
            baseline_profile: profiles[(cell % profiles.len() as u64) as usize],
            ..ScopeConfig::default()
        };
        let cell_seed = harness::mix(run.seed, (1 << 63) | (id << 48) | (episode << 16) | cell);
        let request = IndicatorRequest::fixed(
            scope,
            ThreatModel::stuxnet_like(),
            CampaignConfig::default(),
            depth,
            shape.batch_size,
            cell_seed,
        );
        let traced = traced && k % 2 == 1;
        let t = Instant::now();
        let response = if traced {
            trace::span(Layer::Request, || service.request(&request))
        } else {
            service.request(&request)
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_s = harness::cpu_seconds();
        held[cell as usize] = have.max(depth);
        records.push(Record {
            request,
            held: have,
            class,
            traced,
            ms,
            cpu_s,
            response,
        });
        k += 1;
    }
    records
}

/// Runs the clients against `service` for `run.seconds`.
fn drive(service: &IndicatorService, run: &RunConfig, traced: bool) -> (Vec<Record>, LoopStats) {
    let profiles = profiles();
    let cpu0 = harness::cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(run.seconds);
    let records: Vec<Record> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|id| {
                let profiles = &profiles;
                s.spawn(move || client(service, run, profiles, id, deadline, traced))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let stats = LoopStats {
        lat_ms: misses(&records).map(|r| r.ms).collect(),
        cpu_ms: cpu_per_miss(&records, cpu0, if run.tiny { 4 } else { 32 }),
        attempted: records.len() as u64,
        failed: records.iter().filter(|r| !r.served_ok()).count() as u64,
        reps: records
            .iter()
            .map(|r| u64::from(r.response.new_replications))
            .sum(),
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: harness::cpu_seconds() - cpu0,
    };
    (records, stats)
}

/// Process CPU per miss over consecutive windows of `window` misses, in
/// answer order, in ms. The clients' requests overlap, so a request's own
/// CPU cannot be read; a window's can, give or take the one request in
/// flight on the other client at each end.
fn cpu_per_miss(records: &[Record], cpu0: f64, window: usize) -> Vec<f64> {
    let mut answers: Vec<(f64, bool)> = records.iter().map(|r| (r.cpu_s, r.is_miss())).collect();
    answers.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut from, mut count, mut per_miss) = (cpu0, 0, Vec::new());
    for (cpu, miss) in answers {
        count += usize::from(miss);
        if count == window {
            per_miss.push((cpu - from) * 1e3 / window as f64);
            (from, count) = (cpu, 0);
        }
    }
    per_miss
}

fn misses(records: &[Record]) -> impl Iterator<Item = &Record> {
    records.iter().filter(|r| r.is_miss())
}

fn hits(records: &[Record]) -> impl Iterator<Item = &Record> {
    records.iter().filter(|r| !r.is_miss())
}

/// A local run of batches `[first, request.batches)` of the request's
/// plan: plant, simulator, `Executor::run_ws` — what the shards of a
/// miss compute, without the service around them.
fn local(request: &IndicatorRequest, first: u32, executor: Executor) -> Measurements {
    let system = trace::span(Layer::Build, || ScopeSystem::build(&request.scope));
    let sim = trace::span(Layer::SimNew, || {
        CampaignSimulator::new(system.network(), request.threat.clone(), request.campaign)
    });
    let plan = ReplicationPlan::new(request.batches - first, request.batch_size, request.seed)
        .with_namespace(CAMPAIGN_STREAM_NAMESPACE)
        .with_first_batch(first);
    trace::run_ws(
        &executor,
        &plan,
        || sim.workspace(),
        |ws, rep| sim.run_into(ws, rep.seed),
        &MeasurementsCollector,
    )
}

/// Sharded ≡ local: every answer, hit or miss, must equal a local
/// serial run of the request's whole plan bit for bit. Returns how many
/// did not.
fn check_local(records: &[Record]) -> u64 {
    let mut memo: HashMap<(u64, u32), Measurements> = HashMap::new();
    let mut bad = 0;
    for r in records {
        let key = (r.request.seed, r.request.batches);
        let expected = memo
            .entry(key)
            .or_insert_with(|| local(&r.request, 0, Executor::serial()));
        let ok = r
            .response
            .measurements
            .as_ref()
            .is_some_and(|m| harness::same(m, expected));
        bad += u64::from(!ok);
    }
    bad
}

fn class_notes(out: &mut Outcome, records: &[Record]) {
    let count = |c: Class| records.iter().filter(|r| r.class == c).count();
    out.notes.push(format!(
        "requests = {} ({} cold, {} top-up, {} hit) from {CLIENTS} closed-loop clients",
        records.len(),
        count(Class::Cold),
        count(Class::TopUp),
        count(Class::Hit)
    ));
}

pub fn measure(run: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    // One service per round, each dropped (its workers joined) before the
    // next, and each round's clock kept running 2 ms past the constructor
    // so the two worker threads it starts finish their start-up inside
    // it. Timing the constructor alone left it to a race how much of
    // their start-up it caught, and with several services per round how
    // many of their thread stacks the allocator could reuse: either moved
    // the figure by a third between runs.
    let mut setup = SetupClock::new(1).settling(Duration::from_millis(2));
    let service = setup.repeat(if run.tiny { 5 } else { 101 }, || {
        IndicatorService::in_process(CLIENTS, ServiceOptions::default())
    });
    let (records, stats) = drive(&service, run, false);
    drop(service);
    // The op of this workload is a miss: a request that executed
    // replications. Hits are a separate cost mode.
    harness::end_to_end(&mut out, "miss", &setup, &stats);
    let hit_ms: Vec<f64> = hits(&records).map(|r| r.ms).collect();
    class_notes(&mut out, &records);
    out.notes.push(format!(
        "wall time per {}",
        harness::latency_note("hit", &hit_ms)
    ));
    // `drive` already counted these failures; the check only reports them.
    out.check(
        "every request served clean, hits with new_replications == 0",
        stats.failed == 0,
        0,
    );
    let bad = check_local(&records);
    out.check(
        &format!("sharded ≡ local serial run_ws on {} answers", records.len()),
        bad == 0,
        bad,
    );
    harness::finish_end_to_end(&mut out);
    out
}

pub fn trace(run: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let service = IndicatorService::in_process(CLIENTS, ServiceOptions::default());
    let (records, stats) = drive(&service, run, true);
    drop(service);
    out.attempted += stats.attempted;
    out.failed += stats.failed + check_local(&records);
    trace::drain();
    class_notes(&mut out, &records);

    let n = records.len() as f64;
    let miss: Vec<&Record> = misses(&records).collect();
    let count = |c: Class| records.iter().filter(|r| r.class == c).count() as f64;
    let layers = &mut out.layers;
    layers.insert("service.hit_ratio", count(Class::Hit) / n);
    layers.insert("service.topup_ratio", count(Class::TopUp) / n);
    layers.insert(
        "service.new_reps_per_miss",
        miss.iter()
            .map(|r| f64::from(r.response.new_replications))
            .sum::<f64>()
            / miss.len() as f64,
    );
    let hit_ms: Vec<f64> = hits(&records).map(|r| r.ms).collect();
    let miss_ms: Vec<f64> = miss.iter().map(|r| r.ms).collect();
    layers.insert("service.hit_p50_ms", harness::quantile(&hit_ms, 0.5));
    layers.insert("service.miss_p90_ms", harness::quantile(&miss_ms, 0.9));
    layers.insert(
        "coordinator.shards_per_miss",
        miss.iter()
            .map(|r| r.response.health.len() as f64)
            .sum::<f64>()
            / miss.len() as f64,
    );
    let mut retries: u64 = records
        .iter()
        .flat_map(|r| &r.response.health)
        .map(|h| u64::from(h.attempts))
        .sum();
    let split_ms = |traced: bool| -> Vec<f64> {
        miss.iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.ms)
            .collect()
    };
    let plain_p50 = harness::quantile(&split_ms(false), 0.5);
    layers.insert("op.wall_p50_ms", plain_p50);
    layers.insert("op.cpu_min_ms", harness::quantile(&stats.cpu_ms, 0.0));
    layers.insert(
        "trace.overhead_ratio",
        harness::quantile(&split_ms(true), 0.5) / plain_p50,
    );

    // What the shards of a miss compute, run locally: the batches each
    // sampled miss executed, on the workers' default executor.
    let step = (miss.len() / 64).max(1);
    let sample: Vec<&&Record> = miss.iter().step_by(step).take(64).collect();
    let mut stats = LayerStats::default();
    let (mut local_ms, mut overhead) = (Vec::new(), Vec::new());
    for r in &sample {
        let t = Instant::now();
        let _ = local(&r.request, r.held, Executor::default());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        stats.add_op(&trace::drain(), u64::from(r.request.batches - r.held));
        local_ms.push(ms);
        overhead.push(r.ms / ms);
    }
    stats.emit(&mut out.layers);
    out.layers.insert(
        "service.local_ms_per_miss",
        harness::quantile(&local_ms, 0.5),
    );
    out.layers
        .insert("service.overhead_ratio", harness::quantile(&overhead, 0.5));
    out.layers.insert(
        "scada.nodes",
        ScopeSystem::build(&ScopeConfig::default())
            .network()
            .node_count() as f64,
    );

    // The coordinator alone: the same shards swept directly over two
    // loopback workers, one shard per batch as the service deals them.
    let sweeps: Vec<Vec<ShardSpec>> = sample
        .iter()
        .take(16)
        .map(|r| shards(&r.request, r.held))
        .collect();
    let (per_shard_ms, sweep_retries, clean, wire_sample) = coordinator_sweeps(&sweeps);
    retries += sweep_retries;
    out.attempted += sweeps.len() as u64;
    out.failed += sweeps.len() as u64 - clean;
    out.layers.insert(
        "coordinator.ms_per_shard",
        harness::quantile(&per_shard_ms, 0.5),
    );
    out.layers.insert("coordinator.retries", retries as f64);

    match wire_sample {
        Some((spec, snap)) => wire(&mut out, spec, snap),
        None => out.failed += 1,
    }
    out
}

/// The shards a service miss deals: one per missing batch.
fn shards(request: &IndicatorRequest, first: u32) -> Vec<ShardSpec> {
    (first..request.batches)
        .map(|batch| ShardSpec {
            cell: 0,
            shard: batch,
            scope: request.scope.clone(),
            threat: request.threat.clone(),
            campaign: request.campaign,
            plan: PlanSpec {
                batches: 1,
                batch_size: request.batch_size,
                master_seed: request.seed,
                namespace: CAMPAIGN_STREAM_NAMESPACE,
                first_batch: batch,
            },
            budget: BudgetSpec::default(),
        })
        .collect()
}

/// Runs each sweep through `Coordinator::run_sweep` over two loopback
/// workers on `WorkerOptions::default()`. Returns ms per shard of each
/// sweep, shard retries, clean sweeps, and one shard with its result
/// for the wire measurement.
fn coordinator_sweeps(
    sweeps: &[Vec<ShardSpec>],
) -> (Vec<f64>, u64, u64, Option<(ShardSpec, BatchSnapshot)>) {
    let mut channels: Vec<Box<dyn Channel>> = Vec::new();
    let mut workers = Vec::new();
    for _ in 0..CLIENTS {
        let (coordinator_side, worker_side) = loopback_pair();
        workers.push(std::thread::spawn(move || {
            run_worker(worker_side, &WorkerOptions::default());
        }));
        channels.push(Box::new(coordinator_side));
    }
    let mut coordinator = Coordinator::new(channels, SweepOptions::default());
    let (mut per_shard_ms, mut retries, mut clean, mut sample) = (Vec::new(), 0, 0, None);
    for specs in sweeps {
        let t = Instant::now();
        let report = coordinator.run_sweep(specs.clone());
        per_shard_ms.push(t.elapsed().as_secs_f64() * 1e3 / specs.len() as f64);
        retries += report
            .health
            .iter()
            .map(|h| u64::from(h.attempts))
            .sum::<u64>();
        clean += u64::from(!report.is_degraded());
        if sample.is_none() {
            sample = report
                .cell_batches(0)
                .first()
                .map(|snap| (specs[0].clone(), *snap));
        }
    }
    drop(coordinator);
    for worker in workers {
        worker.join().expect("a worker thread panicked");
    }
    (per_shard_ms, retries, clean, sample)
}

/// Wire and channel costs of one shard's two frames: the `Run` lease and
/// the `Done` report.
fn wire(out: &mut Outcome, spec: ShardSpec, snap: BatchSnapshot) {
    let size = spec.plan.batch_size;
    let lease = ToWorker::Run { spec };
    let report = FromWorker::Done {
        outcome: ShardOutcome {
            shard: 0,
            rounds: 1,
            attempted: size,
            completed: size,
            outcome: OutcomeCode::Completed,
            batches: vec![snap],
            failures: Vec::new(),
        },
    };
    let frames = [encode_message(&lease), encode_message(&report)];
    let bytes = frames.iter().map(Vec::len).sum::<usize>();
    let kb = bytes as f64 / 1024.0;
    const REPS: usize = 200;
    let per_kb_us = |f: &mut dyn FnMut()| {
        let rounds: Vec<f64> = (0..21)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..REPS {
                    f();
                }
                t.elapsed().as_secs_f64() * 1e6 / REPS as f64 / kb
            })
            .collect();
        harness::quantile(&rounds, 0.5)
    };
    let encode = per_kb_us(&mut || {
        std::hint::black_box((encode_message(&lease), encode_message(&report)));
    });
    let decode = per_kb_us(&mut || {
        let _ = std::hint::black_box((
            decode_message::<ToWorker>(&frames[0]),
            decode_message::<FromWorker>(&frames[1]),
        ));
    });
    let round_trips = decode_message::<ToWorker>(&frames[0]).is_ok_and(|m| m == lease)
        && decode_message::<FromWorker>(&frames[1]).is_ok_and(|m| m == report);
    out.attempted += 1;
    out.failed += u64::from(!round_trips);
    out.layers.insert("wire.frame_bytes", bytes as f64);
    out.layers.insert("wire.encode_us_per_kb", encode);
    out.layers.insert("wire.decode_us_per_kb", decode);
    out.layers
        .insert("channel.loopback_rtt_us", loopback_rtt_us(&frames[1]));
}

/// Median round trip of `frame` through a loopback pair to an echo
/// thread and back.
fn loopback_rtt_us(frame: &[u8]) -> f64 {
    let (mut near, mut far) = loopback_pair();
    let echo = std::thread::spawn(move || loop {
        match far.recv_timeout(Duration::from_secs(1)) {
            Ok(Some(f)) => {
                if far.send(&f).is_err() {
                    break;
                }
            }
            Ok(None) => {}
            Err(_) => break,
        }
    });
    let mut rtt = Vec::with_capacity(1000);
    for _ in 0..1000 {
        let t = Instant::now();
        let back = near
            .send(frame)
            .and_then(|()| near.recv_timeout(Duration::from_secs(1)));
        if matches!(back, Ok(Some(_))) {
            rtt.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    drop(near);
    echo.join().expect("the echo thread panicked");
    harness::quantile(&rtt, 0.5)
}
