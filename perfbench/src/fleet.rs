//! `fleet_point`: two design points on a 10^6-node fleet. Set-up is
//! `FleetSystem::build`; one op measures the monoculture and then the
//! full rotation — each a network clone, `DiversityConfig::apply` and
//! `measure_configuration_with` over a one-month window and
//! `campaign_plan(2, 8, seed)` on the default executor. Both points run
//! in every op, so every op does identical work.

use crate::harness::{self, Outcome, RunConfig, SetupClock};
use crate::trace::{self, Layer, LayerStats};
use diversify_attack::campaign::{CampaignConfig, CampaignSimulator, ThreatModel};
use diversify_core::exec::{campaign_plan, Executor, MeasurementsCollector, ReplicationPlan};
use diversify_core::runner::{measure_configuration_with, Measurements};
use diversify_diversity::config::DiversityConfig;
use diversify_scada::fleet::{FleetConfig, FleetSystem};
use diversify_scada::network::ScadaNetwork;
use std::time::Instant;

const WINDOW: CampaignConfig = CampaignConfig {
    max_ticks: 24 * 30,
    detection_stops_attack: false,
};

fn configs() -> [DiversityConfig; 2] {
    [
        DiversityConfig::monoculture(),
        DiversityConfig::full_rotation(),
    ]
}

fn nodes(run: &RunConfig) -> usize {
    if run.tiny {
        5_000
    } else {
        1_000_000
    }
}

fn plan(run: &RunConfig) -> ReplicationPlan {
    campaign_plan(2, if run.tiny { 4 } else { 8 }, run.seed)
}

fn build(run: &RunConfig) -> FleetSystem {
    FleetSystem::build(&FleetConfig::sized(nodes(run), run.seed))
}

fn diversified(system: &FleetSystem, config: &DiversityConfig) -> ScadaNetwork {
    let mut net = system.network().clone();
    config.apply(&mut net);
    net
}

fn op(system: &FleetSystem, plan: &ReplicationPlan, executor: Executor) -> Vec<Measurements> {
    configs()
        .iter()
        .map(|config| {
            let net = diversified(system, config);
            measure_configuration_with(&net, &ThreatModel::stuxnet_like(), WINDOW, plan, executor)
        })
        .collect()
}

/// The op replayed from public parts — `measure_configuration_with` is
/// `CampaignSimulator::new` plus `Executor::run_ws` — with spans.
fn replay(system: &FleetSystem, plan: &ReplicationPlan) -> Vec<Measurements> {
    configs()
        .iter()
        .map(|config| {
            let net = trace::span(Layer::Apply, || diversified(system, config));
            let sim = trace::span(Layer::SimNew, || {
                CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), WINDOW)
            });
            trace::run_ws(
                &Executor::default(),
                plan,
                || sim.workspace(),
                |ws, rep| sim.run_into(ws, rep.seed),
                &MeasurementsCollector,
            )
        })
        .collect()
}

pub fn measure(run: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = SetupClock::new(1);
    let system = setup.repeat(7, || build(run));
    let plan = plan(run);
    let reps = 2 * u64::from(plan.total());
    let reference = op(&system, &plan, Executor::default());
    let mut sampled = Vec::new();
    let stats = harness::run_ops(
        run.seconds,
        3,
        |_| Ok((op(&system, &plan, Executor::default()), reps)),
        |i, m| {
            if i % 4 == 0 {
                sampled.push(m);
            }
        },
        || {},
    );
    harness::end_to_end(&mut out, "op", &setup, &stats);
    out.notes.push(format!(
        "ops = {} × (monoculture + full rotation) on {} nodes, {reps} campaigns each",
        stats.attempted,
        system.network().node_count()
    ));
    let serial = op(&system, &plan, Executor::serial());
    out.check(
        "serial ≡ parallel: Executor::serial() rerun",
        harness::same(&serial, &reference),
        1,
    );
    let bad = sampled
        .iter()
        .filter(|m| !harness::same(*m, &reference))
        .count() as u64;
    out.check(
        &format!("{} sampled ops ≡ reference op", sampled.len()),
        bad == 0,
        bad,
    );
    harness::finish_end_to_end(&mut out);
    out
}

pub fn trace(run: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut stats = LayerStats::default();
    trace::drain();
    let mut setup = SetupClock::new(1);
    let system = setup.repeat(7, || trace::span(Layer::Build, || build(run)));
    stats.add_durations(&trace::drain());
    let plan = plan(run);
    let reference = op(&system, &plan, Executor::default());
    let rounds = 2 * u64::from(plan.batches());
    let (mut plain_ms, mut plain_cpu_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0u32;
    while i < 2 || start.elapsed().as_secs_f64() < run.seconds {
        let cpu = harness::cpu_seconds();
        let t = Instant::now();
        let plain = op(&system, &plan, Executor::default());
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        plain_cpu_ms.push((harness::cpu_seconds() - cpu) * 1e3);
        out.attempted += 1;
        out.failed += u64::from(!harness::same(&plain, &reference));

        trace::drain();
        let t = Instant::now();
        let replayed = replay(&system, &plan);
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        stats.add_op(&trace::drain(), rounds);
        out.attempted += 1;
        out.failed += u64::from(!harness::same(&replayed, &reference));
        i += 1;
    }
    out.notes.push(format!(
        "replay ≡ measure_configuration_with, bit for bit, on {i} traced ops"
    ));
    stats.emit(&mut out.layers);
    out.layers
        .insert("scada.nodes", system.network().node_count() as f64);
    let plain_p50 = harness::quantile(&plain_ms, 0.5);
    out.layers.insert("op.wall_p50_ms", plain_p50);
    out.layers
        .insert("op.cpu_min_ms", harness::quantile(&plain_cpu_ms, 0.0));
    out.layers.insert(
        "trace.overhead_ratio",
        harness::quantile(&traced_ms, 0.5) / plain_p50,
    );
    out
}
