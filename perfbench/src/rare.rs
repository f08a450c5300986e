//! `rare_split`: rare-event estimation by multilevel splitting. Set-up
//! builds SCoPE and hardens six nodes by `PlacementStrategy::Strategic`;
//! one op is `measure_configuration_splitting` at population 4000 and
//! level 0.95 over a 48 h window (P_SA ≈ 1e-3), cycling through a fixed
//! list of 256 seeds.

use crate::harness::{self, Outcome, RunConfig, SetupClock};
use crate::trace::{self, Layer, LayerStats, TracedStaged};
use diversify_attack::campaign::{CampaignConfig, CampaignSimulator, ThreatModel};
use diversify_attack::split::CampaignSplitTask;
use diversify_core::exec::Executor;
use diversify_core::runner::{measure_configuration_splitting, SplittingMeasurements};
use diversify_des::splitting::Splitting;
use diversify_diversity::placement::{apply_placement, PlacementStrategy};
use diversify_scada::components::ComponentProfile;
use diversify_scada::network::ScadaNetwork;
use diversify_scada::scope::{ScopeConfig, ScopeSystem};
use diversify_stats::product_proportion_ci;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

const WINDOW: CampaignConfig = CampaignConfig {
    max_ticks: 48,
    detection_stops_attack: false,
};
const LEVEL: f64 = 0.95;
/// Ops cycle through this many seeds derived from the run seed. A seed's
/// splitting cost varies by a few percent, so a run covers many seeds to
/// keep the seed set from moving the run's figures.
const SEEDS: u64 = 256;
/// Seeds whose first op is rerun on `Executor::serial()`.
const SERIAL_CHECKS: u64 = 4;

fn population(run: &RunConfig) -> u32 {
    if run.tiny {
        400
    } else {
        4000
    }
}

fn seed(run: &RunConfig, op: u64) -> u64 {
    harness::mix(run.seed, op % SEEDS)
}

fn plant() -> ScadaNetwork {
    let system = trace::span(Layer::Build, || ScopeSystem::build(&ScopeConfig::default()));
    trace::span(Layer::Apply, || {
        let mut net = system.network().clone();
        apply_placement(
            &mut net,
            PlacementStrategy::Strategic { k: 6 },
            ComponentProfile::hardened(),
        );
        net
    })
}

fn op(
    net: &ScadaNetwork,
    population: u32,
    seed: u64,
    executor: Executor,
) -> Result<SplittingMeasurements, String> {
    measure_configuration_splitting(
        net,
        &ThreatModel::stuxnet_like(),
        WINDOW,
        population,
        seed,
        executor,
        LEVEL,
    )
    .map_err(|e| e.to_string())
}

/// Segments one estimate executed (one per launched replication per
/// level).
fn segments(m: &SplittingMeasurements) -> u64 {
    m.levels.iter().map(|l| u64::from(l.attempts)).sum()
}

/// The op replayed from public parts — `CampaignSimulator::new`,
/// `CampaignSplitTask::with_default_milestones`, `Splitting::run`,
/// `product_proportion_ci` — with spans around the run and every
/// segment.
fn replay(net: &ScadaNetwork, population: u32, seed: u64) -> Result<SplittingMeasurements, String> {
    let sim = trace::span(Layer::SimNew, || {
        CampaignSimulator::new(net, ThreatModel::stuxnet_like(), WINDOW)
    });
    let task = CampaignSplitTask::with_default_milestones(&sim);
    let milestones = task.milestones().to_vec();
    let run = trace::span(Layer::Split, || {
        Splitting::try_new(population, seed)?.run(&TracedStaged(&task), &Executor::default())
    })
    .map_err(|e| e.to_string())?;
    let ci = product_proportion_ci(&run.conditionals(), LEVEL).map_err(|e| e.to_string())?;
    Ok(SplittingMeasurements {
        estimate: run.estimate,
        ci,
        milestones,
        levels: run.levels,
        total_ticks: run.total_ticks,
        population: run.population,
        placement: None,
    })
}

pub fn measure(run: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    // A set-up round between every two ops: rounds spread over the whole
    // run, not bunched before it.
    let mut setup = SetupClock::new(if run.tiny { 2 } else { 50 });
    let net = setup.round(plant);
    let pop = population(run);
    // The first op of each seed is that seed's reference; later ops of
    // the seed must repeat it bit for bit.
    let mut references: HashMap<u64, SplittingMeasurements> = HashMap::new();
    let mut repeats = 0u64;
    let mut bad = 0u64;
    let stats = harness::run_ops(
        run.seconds,
        1,
        |i| {
            op(&net, pop, seed(run, i), Executor::default()).map(|m| {
                let reps = segments(&m);
                (m, reps)
            })
        },
        |i, m| match references.entry(i % SEEDS) {
            Entry::Vacant(slot) => {
                slot.insert(m);
            }
            Entry::Occupied(first) => {
                repeats += 1;
                bad += u64::from(!harness::same(first.get(), &m));
            }
        },
        || drop(setup.round(plant)),
    );
    harness::end_to_end(&mut out, "op", &setup, &stats);
    out.notes.push(format!(
        "ops = {} estimates at population {pop}, cycling {SEEDS} seeds",
        stats.attempted
    ));
    if let Some(first) = references.get(&0) {
        out.notes.push(format!(
            "P_SA {:.3e} in [{:.3e}, {:.3e}] on the first seed",
            first.estimate, first.ci.lower, first.ci.upper
        ));
    }
    let checked: Vec<u64> = (0..SERIAL_CHECKS)
        .filter(|k| references.contains_key(k))
        .collect();
    let serial_bad = checked
        .iter()
        .filter(|&&k| {
            !op(&net, pop, seed(run, k), Executor::serial())
                .is_ok_and(|s| harness::same(&s, &references[&k]))
        })
        .count() as u64;
    out.check(
        &format!(
            "serial ≡ parallel: Executor::serial() rerun of {} seeds",
            checked.len()
        ),
        serial_bad == 0 && !checked.is_empty(),
        serial_bad,
    );
    out.check(
        &format!("{repeats} repeated ops ≡ their seed's first op"),
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
    let net = setup.repeat(21, plant);
    stats.add_durations(&trace::drain());
    let pop = population(run);
    let (mut plain_ms, mut plain_cpu_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut levels, mut ticks, mut survivors, mut attempts) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    let mut i = 0u64;
    // Untraced and traced ops alternate on the same seed, so host drift
    // hits both alike and each replay has its library call to match.
    while i < 2 || start.elapsed().as_secs_f64() < run.seconds {
        let cpu = harness::cpu_seconds();
        let t = Instant::now();
        let plain = op(&net, pop, seed(run, i), Executor::default());
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        plain_cpu_ms.push((harness::cpu_seconds() - cpu) * 1e3);
        out.attempted += 1;

        trace::drain();
        let t = Instant::now();
        let replayed = replay(&net, pop, seed(run, i));
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let spans = trace::drain();
        out.attempted += 1;
        match (plain, replayed) {
            (Ok(plain), Ok(m)) => {
                stats.add_op(&spans, m.levels.len() as u64);
                levels += m.levels.len() as u64;
                ticks += m.total_ticks;
                survivors += m.levels.iter().map(|l| u64::from(l.survivors)).sum::<u64>();
                attempts += segments(&m);
                out.failed += u64::from(!harness::same(&m, &plain));
            }
            _ => out.failed += 2,
        }
        i += 1;
    }
    out.notes.push(format!(
        "replay ≡ measure_configuration_splitting, bit for bit, on {i} traced ops"
    ));
    out.notes.push(
        "exec.self_us_per_round here is Splitting::run minus its segments, per level: \
         executor rounds plus the level bookkeeping between them"
            .to_owned(),
    );
    stats.emit(&mut out.layers);
    let traced = i as f64;
    out.layers.insert("scada.nodes", net.node_count() as f64);
    out.layers
        .insert("splitting.levels", levels as f64 / traced);
    out.layers.insert("splitting.ticks", ticks as f64 / traced);
    out.layers.insert(
        "splitting.survivor_ratio",
        survivors as f64 / attempts.max(1) as f64,
    );
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
