//! `doe_sweep`: the paper's own study. One op is
//! `Pipeline::try_doe_measurements` plus `Pipeline::try_assess` on the
//! shipped `PipelineConfig` — the 12-node SCoPE plant, the Stuxnet-like
//! threat, a one-month window, 16 design points × 4 batches × 25
//! campaigns — so every op does identical work.

use crate::harness::{self, Outcome, RunConfig, SetupClock};
use crate::trace::{self, Layer, LayerStats};
use diversify_attack::campaign::CampaignSimulator;
use diversify_core::exec::{campaign_plan, Executor, MeasurementsCollector};
use diversify_core::factors::{factor_profile, FactorLevel};
use diversify_core::pipeline::{Assessment, DoeMeasurements, Pipeline, PipelineConfig};
use diversify_core::runner::Measurements;
use diversify_des::StreamId;
use diversify_doe::design::{fractional_factorial, DesignMatrix};
use diversify_scada::components::ComponentClass;
use diversify_scada::scope::{ScopeConfig, ScopeSystem};
use std::time::Instant;

type Study = (DoeMeasurements, Assessment);

fn config(run: &RunConfig) -> PipelineConfig {
    let mut config = PipelineConfig {
        seed: run.seed,
        ..PipelineConfig::default()
    };
    if run.tiny {
        config.batches = 2;
        config.batch_size = 5;
    }
    config
}

fn study(pipeline: &Pipeline) -> Result<Study, String> {
    let doe = pipeline.try_doe_measurements().map_err(|e| e.to_string())?;
    let assessment = pipeline.try_assess(&doe).map_err(|e| e.to_string())?;
    Ok((doe, assessment))
}

/// The built-in 2^(6−2) design and each run's plant, paired with the
/// first run whose plant is identical (the pipeline measures that run
/// once and reuses its measurements for the duplicates).
fn design(config: &PipelineConfig) -> Result<(DesignMatrix, Vec<(ScopeConfig, usize)>), String> {
    let labels: Vec<&str> = ComponentClass::ALL.iter().map(|c| c.label()).collect();
    let (design, _words) = fractional_factorial(&labels, &[vec![0, 1, 2], vec![1, 2, 3]])
        .map_err(|e| e.to_string())?;
    let mut runs: Vec<(ScopeConfig, usize)> = Vec::with_capacity(design.rows.len());
    for (i, row) in design.rows.iter().enumerate() {
        let levels: Vec<FactorLevel> = row.iter().map(|&l| FactorLevel::from_coded(l)).collect();
        let mut scope = config.scope.clone();
        scope.baseline_profile = factor_profile(&levels);
        let first = runs.iter().position(|(s, _)| *s == scope).unwrap_or(i);
        runs.push((scope, first));
    }
    Ok((design, runs))
}

/// Design points a study simulates: runs whose plant no earlier run has.
fn measured_points(runs: &[(ScopeConfig, usize)]) -> u64 {
    runs.iter()
        .enumerate()
        .filter(|(i, (_, first))| first == i)
        .count() as u64
}

/// The study replayed from public parts, with a span around each:
/// `fractional_factorial` → `factor_profile` → `ScopeSystem::build` →
/// `CampaignSimulator::new` → `Executor::run_ws` over
/// `plan.derived(StreamId(i))` → `try_assess`.
fn replay(pipeline: &Pipeline) -> Result<Study, String> {
    let config = pipeline.config();
    let (design, runs) = design(config)?;
    let base = campaign_plan(config.batches, config.batch_size, config.seed);
    let mut measurements: Vec<Measurements> = Vec::with_capacity(runs.len());
    for (i, (scope, first)) in runs.iter().enumerate() {
        if *first != i {
            let reused = measurements[*first].clone();
            measurements.push(reused);
            continue;
        }
        let m = trace::span(Layer::Point, || {
            let system = trace::span(Layer::Build, || ScopeSystem::build(scope));
            let sim = trace::span(Layer::SimNew, || {
                CampaignSimulator::new(system.network(), config.threat.clone(), config.campaign)
            });
            trace::run_ws(
                &config.executor,
                &base.derived(StreamId(i as u64)),
                || sim.workspace(),
                |ws, rep| sim.run_into(ws, rep.seed),
                &MeasurementsCollector,
            )
        });
        measurements.push(m);
    }
    let doe = DoeMeasurements {
        design,
        measurements,
        adaptive: None,
        rare_event: None,
        health: None,
    };
    let assessment =
        trace::span(Layer::Assess, || pipeline.try_assess(&doe)).map_err(|e| e.to_string())?;
    Ok((doe, assessment))
}

pub fn measure(run: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    // A set-up round between every two ops: rounds spread over the whole
    // run, not bunched before it.
    let mut setup = SetupClock::new(if run.tiny { 10 } else { 1000 });
    let pipeline = setup.round(|| Pipeline::new(config(run)));
    let reference = study(&pipeline).expect("reference study");
    let (_, runs) = design(pipeline.config()).expect("built-in design");
    let plan = pipeline.config().batches * pipeline.config().batch_size;
    let reps = measured_points(&runs) * u64::from(plan);
    let mut sampled = Vec::new();
    let stats = harness::run_ops(
        run.seconds,
        3,
        |_| study(&pipeline).map(|s| (s, reps)),
        |i, s| {
            if i % 16 == 0 {
                sampled.push(s);
            }
        },
        || drop(setup.round(|| Pipeline::new(config(run)))),
    );
    harness::end_to_end(&mut out, "op", &setup, &stats);
    out.notes.push(format!(
        "ops = {} studies of {reps} campaigns",
        stats.attempted
    ));
    let serial = Pipeline::new(PipelineConfig {
        executor: Executor::serial(),
        ..config(run)
    });
    let serial_ok = study(&serial).is_ok_and(|s| harness::same(&s, &reference));
    out.check("serial ≡ parallel: Executor::serial() rerun", serial_ok, 1);
    let bad = sampled
        .iter()
        .filter(|s| !harness::same(*s, &reference))
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
    let pipeline = Pipeline::new(config(run));
    let reference = study(&pipeline).expect("reference study");
    let config = pipeline.config();
    let (_, runs) = design(config).expect("built-in design");
    let points = measured_points(&runs);
    let rounds = points * u64::from(config.batches);
    let mut stats = LayerStats::default();
    let (mut plain_ms, mut plain_cpu_ms) = (Vec::new(), Vec::new());
    let (mut traced_ms, mut parts_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut op = 0u32;
    // Untraced and traced ops alternate, so host drift hits both alike.
    while op < 4 || start.elapsed().as_secs_f64() < run.seconds {
        let cpu = harness::cpu_seconds();
        let t = Instant::now();
        let plain = study(&pipeline);
        plain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        plain_cpu_ms.push((harness::cpu_seconds() - cpu) * 1e3);
        out.attempted += 1;
        out.failed += u64::from(!plain.is_ok_and(|s| harness::same(&s, &reference)));

        trace::drain();
        let t = Instant::now();
        let replayed = replay(&pipeline);
        traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let spans = trace::drain();
        stats.add_op(&spans, rounds);
        let parts_ns: u64 = spans
            .iter()
            .filter(|s| matches!(s.layer, Layer::Point | Layer::Assess))
            .map(trace::Span::ns)
            .sum();
        parts_ms.push(parts_ns as f64 * 1e-6);
        out.attempted += 1;
        out.failed += u64::from(!replayed.is_ok_and(|s| harness::same(&s, &reference)));
        op += 1;
    }
    let plain_p50 = harness::quantile(&plain_ms, 0.5);
    out.notes.push(format!(
        "replay ≡ Pipeline::try_doe_measurements + try_assess, bit for bit, on {op} traced ops"
    ));
    out.notes.push(format!(
        "sum of parts: {points} point spans + the assess span = {:.3} ms (median per traced op) \
         vs untraced op p50 {plain_p50:.3} ms",
        harness::quantile(&parts_ms, 0.5),
    ));
    stats.emit(&mut out.layers);
    let nodes = ScopeSystem::build(&config.scope).network().node_count();
    out.layers.insert("scada.nodes", nodes as f64);
    out.layers.insert(
        "pipeline.residual_ratio",
        (1.0 - harness::quantile(&parts_ms, 0.5) / plain_p50).abs(),
    );
    out.layers.insert("op.wall_p50_ms", plain_p50);
    out.layers
        .insert("op.cpu_min_ms", harness::quantile(&plain_cpu_ms, 0.0));
    out.layers.insert(
        "trace.overhead_ratio",
        harness::quantile(&traced_ms, 0.5) / plain_p50,
    );
    out
}
