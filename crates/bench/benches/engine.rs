//! Engine-level microbenchmarks, independent of the experiment suite, so
//! regressions inside the SAN simulation core are visible even when the
//! end-to-end experiments mask them.
//!
//! `san_sim_throughput` drives the mid-size SCoPE-derived network-campaign
//! SAN (≈32 places, ≈53 activities, most enabled through guards). The
//! model is compiled once, outside the timed loop, so the samples measure
//! simulation only; the printed mean time divided by the
//! events-per-iteration line gives the per-event cost.
//!
//! `rng_draws` prices one `index`, `draw_index` and `bernoulli` draw, in
//! ns.

// Bench harness: the unwrap/expect ban (clippy.toml) is the library
// discipline of diversify-des/diversify-core; a bench aborting on a
// malformed workload is the right behavior.
#![allow(clippy::disallowed_methods)]

use criterion::{criterion_group, criterion_main, Criterion};
use diversify_attack::campaign::{
    CampaignConfig, CampaignSimulator, ThreatModel, CAMPAIGN_RUN_NAMESPACE,
};
use diversify_attack::split::StageChainTask;
use diversify_attack::to_san::StageParams;
use diversify_bench::{
    analytic_bench_model, analytic_throughput, campaign_alloc_reference_summary,
    campaign_workspace_summary, san_throughput_events, scope_campaign_san,
};
use diversify_core::exec::{
    accept_all, campaign_plan, Executor, MeasurementsCollector, ReplicationPlan, RunPolicy, RunSpec,
};
use diversify_core::runner::{measure_configuration_run, PrecisionTarget};
use diversify_des::{IndexDraw, RngStream, StreamId};
use diversify_diversity::config::DiversityConfig;
use diversify_scada::fleet::{FleetConfig, FleetSystem};
use diversify_scada::scope::{ScopeConfig, ScopeSystem};
use std::hint::black_box;

const REPS: u32 = 40;
const HORIZON_HOURS: f64 = 5_000.0;
/// Tokens in the cyclic-queue analytic workload: 1326 tangible states.
const ANALYTIC_TOKENS: u32 = 50;
const ANALYTIC_HORIZON: f64 = 200.0;
/// Replications per iteration of the campaign-throughput benches (full
/// scale: the one-year default horizon).
const CAMPAIGN_REPS: u32 = 100;

fn bench_engine(c: &mut Criterion) {
    let san = scope_campaign_san();
    // Report the workload size once so timings translate to events/sec.
    let events = san_throughput_events(&san.model, REPS, HORIZON_HOURS);
    println!("san_sim_throughput workload: {events} events per iteration");

    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("san_sim_throughput", |b| {
        b.iter(|| black_box(san_throughput_events(&san.model, REPS, HORIZON_HOURS)))
    });

    // Exact backend: state-space exploration plus one uniformization
    // transient over the cyclic-queue workload.
    let model = analytic_bench_model(ANALYTIC_TOKENS);
    let (states, steps) = analytic_throughput(&model, ANALYTIC_HORIZON);
    println!("san_analytic_throughput workload: {states} states, {steps} uniformization steps");
    g.bench_function("san_analytic_throughput", |b| {
        b.iter(|| black_box(analytic_throughput(black_box(&model), ANALYTIC_HORIZON)))
    });

    // Campaign replication throughput, full scale (default one-year
    // horizon): the workspace executor (per-worker CampaignWorkspace,
    // scalar CampaignStats fold, zero steady-state allocation) against
    // the reference per-replication-allocation path (fresh workspace +
    // materialized CampaignOutcome each seed). Identical seeds, identical
    // results — the ratio is pure allocation/locality overhead.
    let net = ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone();
    let campaign_sim =
        CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
    let campaign_plan_full =
        ReplicationPlan::flat(CAMPAIGN_REPS, 17).with_namespace(CAMPAIGN_RUN_NAMESPACE);
    println!(
        "campaign_replication_throughput workload: {CAMPAIGN_REPS} replications per iteration"
    );
    g.bench_function("campaign_replication_throughput", |b| {
        b.iter(|| {
            black_box(campaign_workspace_summary(
                black_box(&campaign_sim),
                &campaign_plan_full,
                Executor::default(),
            ))
        })
    });
    // The same workload through the explicitly budgeted entry point
    // (unwind catch + budget check + failure accounting per
    // replication). The strict path above already routes through the
    // hardened core, so this bench isolates the marginal cost of the
    // budget/retry bookkeeping — the PR's "within 5%" claim.
    let unlimited = RunPolicy::new();
    g.bench_function("campaign_replication_budgeted", |b| {
        b.iter(|| {
            black_box(
                Executor::default()
                    .execute(
                        &RunSpec::new(&campaign_plan_full).with_policy(&unlimited),
                        || campaign_sim.workspace(),
                        |ws, rep| campaign_sim.run_into(ws, rep.seed),
                        &MeasurementsCollector,
                        accept_all,
                    )
                    .output,
            )
        })
    });
    g.bench_function("campaign_replication_alloc_reference", |b| {
        b.iter(|| {
            black_box(campaign_alloc_reference_summary(
                black_box(&campaign_sim),
                &campaign_plan_full,
                Executor::default(),
            ))
        })
    });

    // The adaptive-precision measurement path on the default SCoPE
    // monoculture: batch-sized rounds, streaming fold, Wilson-interval
    // stop rule on P_SA. Regressions in the round/merge machinery (or a
    // stop rule that suddenly runs to the cap) show up here.
    let threat = ThreatModel::stuxnet_like();
    let campaign = CampaignConfig {
        max_ticks: 24 * 30,
        detection_stops_attack: false,
    };
    let target = PrecisionTarget::p_success(0.05, 20, 120);
    let plan = campaign_plan(1, 10, 31);
    let probe = measure_configuration_run(
        &net,
        &threat,
        campaign,
        &plan,
        Executor::default(),
        Some(&target),
        None,
    );
    println!(
        "measure_adaptive workload: {} replications to rel. half-width 0.05 (outcome: {})",
        probe.attempted, probe.budget_outcome
    );
    g.bench_function("measure_adaptive", |b| {
        b.iter(|| {
            black_box(measure_configuration_run(
                black_box(&net),
                &threat,
                campaign,
                &plan,
                Executor::default(),
                Some(&target),
                None,
            ))
        })
    });
    g.finish();
}

/// Fleet-scaling axis: replications/s of the event-driven frontier
/// engine across four decades of generated plant-family size, plus the
/// dense O(nodes)-per-tick reference sweep at 10^4 and 10^5 nodes for
/// the headline comparison recorded in `BENCH_5.json`, and at the same
/// sizes the unit price of configuring a design point (network clone,
/// full rotation, simulator construction). The horizon is
/// bounded (30 simulated days) so the workload is the same at every
/// size; fleets are built outside the timed loops.
fn bench_fleet_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("campaign_fleet_scaling");
    g.sample_size(10);
    for &target in &[100usize, 1_000, 10_000, 100_000, 1_000_000] {
        let fleet = FleetSystem::build(&FleetConfig::sized(target, 0x5CA1E));
        let n = fleet.network().node_count();
        let campaign = CampaignConfig {
            max_ticks: 24 * 30,
            detection_stops_attack: false,
        };
        let sim = CampaignSimulator::new(fleet.network(), ThreatModel::stuxnet_like(), campaign);
        let mut ws = sim.workspace();
        let reps: u64 = if target <= 10_000 { 10 } else { 2 };
        println!("campaign_fleet_frontier_{target}: {n} nodes, {reps} replications/iteration");
        g.bench_function(&format!("campaign_fleet_frontier_{target}"), |b| {
            b.iter(|| {
                for seed in 0..reps {
                    black_box(sim.run_into(&mut ws, seed));
                }
            })
        });
        if target == 10_000 || target == 100_000 {
            // Configuring one design point on the fleet: clone the
            // network, rotate every class, build the simulator's tables.
            let rotation = DiversityConfig::full_rotation();
            g.bench_function(&format!("fleet_configure_{target}"), |b| {
                b.iter(|| {
                    let mut net = fleet.network().clone();
                    rotation.apply(&mut net);
                    let sim = CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), campaign);
                    black_box(&sim);
                })
            });
            let dense_reps: u64 = if target == 10_000 { 2 } else { 1 };
            g.bench_function(&format!("campaign_fleet_dense_{target}"), |b| {
                b.iter(|| {
                    for seed in 0..dense_reps {
                        black_box(sim.run_reference(seed));
                    }
                })
            });
        }
    }
    g.finish();
}

/// Draws per iteration of the `rng_draws` targets: the printed time of
/// one iteration in ms is the price of one draw in ns.
const DRAWS: usize = 1_000_000;

/// The unit price of a draw: `RngStream::index(n)` (the dense oracle's
/// lateral draw) and the precomputed `IndexDraw` the stepper's lateral
/// loop uses, at the small bounds lateral draws see, next to
/// `bernoulli`. The bound goes through `black_box`, so `index` divides
/// at run time as it does when `n` is a node's degree.
fn bench_rng_draws(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng_draws");
    g.sample_size(10);
    let mut rng = RngStream::new(0xD8A3, StreamId(1));
    println!("rng_draws workload: {DRAWS} draws per iteration (ms per iteration = ns per draw)");
    for n in [1usize, 3, 12] {
        let n = black_box(n);
        g.bench_function(&format!("index_{n}"), |b| {
            b.iter(|| (0..DRAWS).fold(0usize, |acc, _| acc.wrapping_add(rng.index(n))))
        });
        let draw = IndexDraw::new(n);
        g.bench_function(&format!("draw_index_{n}"), |b| {
            b.iter(|| (0..DRAWS).fold(0usize, |acc, _| acc.wrapping_add(rng.draw_index(&draw))))
        });
    }
    let p = black_box(0.3);
    g.bench_function("bernoulli", |b| {
        b.iter(|| (0..DRAWS).filter(|_| rng.bernoulli(p)).count())
    });
    g.finish();
}

/// Rare-event estimation cost: one multilevel-splitting pass over the
/// all-exponential four-stage rare chain (P_SA ≈ 1e-7, the R11 design
/// point) next to a brute-force batch of full-chain walks at a
/// comparable tick count. The bench tracks the per-tick cost of the
/// level machinery (checkpoint clone + survivor resample); the
/// statistical efficiency claim itself lives in R11/BENCH_7.json.
fn bench_rare_event_splitting(c: &mut Criterion) {
    use diversify_des::splitting::Splitting;
    let params = vec![
        StageParams {
            success_probability: 0.02,
            attempt_rate_per_hour: 1.0,
        };
        4
    ];
    let task = StageChainTask::new(params, 2.0);
    let mut g = c.benchmark_group("rare_event_splitting");
    g.sample_size(10);
    g.bench_function("splitting_population_500", |b| {
        b.iter(|| {
            black_box(
                Splitting::try_new(500, 0x5EED)
                    .expect("population > 0")
                    .run(black_box(&task), &Executor::default())
                    .expect("chain task has levels"),
            )
        })
    });
    g.bench_function("brute_force_walks_2000", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for seed in 0..2_000u64 {
                hits += u64::from(task.walk(black_box(seed)).0);
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_indicator_service(c: &mut Criterion) {
    use diversify_attack::campaign::ThreatModel as Threat;
    use diversify_serve::service::{IndicatorRequest, IndicatorService, ServiceOptions};

    let request = IndicatorRequest::fixed(
        ScopeConfig::default(),
        Threat::stuxnet_like(),
        CampaignConfig::default(),
        4,
        25,
        0x5E27E,
    );
    let mut g = c.benchmark_group("service_request_throughput");
    g.sample_size(10);
    // Cold: a fresh service per iteration, so every request shards and
    // executes all 100 replications over the loopback workers.
    g.bench_function("service_request_cold", |b| {
        b.iter(|| {
            let service = IndicatorService::in_process(2, ServiceOptions::default());
            black_box(service.request(black_box(&request)))
        })
    });
    // Memoized: one service, the cell computed once up front; each
    // iteration is a content-addressed replay with zero replications.
    let service = IndicatorService::in_process(2, ServiceOptions::default());
    let warm = service.request(&request);
    assert!(!warm.degraded);
    g.bench_function("service_request_memoized", |b| {
        b.iter(|| {
            let response = service.request(black_box(&request));
            assert!(response.from_cache);
            black_box(response)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rng_draws,
    bench_engine,
    bench_fleet_scaling,
    bench_rare_event_splitting,
    bench_indicator_service
);
criterion_main!(benches);
