//! The diversify benchmark: four workloads over the library's shipped
//! defaults, end-to-end metrics from untraced runs and per-layer figures
//! from a separate traced run.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-check
//! ```
//!
//! A run prints context lines (nproc, seed, op counts, check results,
//! every metric with its unit) and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics of [`END_TO_END`]; `--trace 1` reports every
//! per-layer metric of [`PER_LAYER`]. `--self-check` runs all four
//! workloads at tiny sizes, untraced and traced, and fails unless every
//! metric prints with its unit and every output check passes.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! the predictions each per-layer figure carries.

// The workspace's unwrap/expect ban (clippy.toml) is for library code
// paths users can reach. Here an `expect` marks a reference computation
// (a built-in design, a workload's first op) whose failure leaves
// nothing to measure, so the run stops loudly without printing a result.
#![allow(clippy::disallowed_methods)]

mod doe;
mod fleet;
mod harness;
mod rare;
mod service;
mod trace;

use harness::{Metric, Outcome, Placement, RunConfig};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The workloads, in the order per-layer gaps are filled from.
const WORKLOADS: [&str; 4] = ["doe_sweep", "fleet_point", "rare_split", "service_mix"];

/// End-to-end metrics: name and unit, in print order. Op time is the
/// fastest op's wall time: medians, means and CPU per op move too far
/// between runs on a shared host to gate on, and are printed beside it
/// and reported per layer (see `README.md`).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_min_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("op_ok_ratio", "ratio"),
];

/// Per-layer metrics: name and unit, in print order.
const PER_LAYER: [(&str, &str); 36] = [
    ("op.wall_p50_ms", "ms"),
    ("op.cpu_min_ms", "ms"),
    ("scada.build_ms", "ms"),
    ("scada.nodes", "count"),
    ("diversity.apply_ms", "ms"),
    ("campaign.new_ms", "ms"),
    ("campaign.rep_us", "us"),
    ("campaign.reps", "count"),
    ("exec.self_us_per_round", "us"),
    ("exec.rounds", "count"),
    ("exec.threads", "count"),
    ("exec.workspaces", "count"),
    ("indicators.fold_us_per_rep", "us"),
    ("pipeline.point_ms", "ms"),
    ("pipeline.points", "count"),
    ("anova.assess_ms", "ms"),
    ("pipeline.residual_ratio", "ratio"),
    ("splitting.segment_us", "us"),
    ("splitting.levels", "count"),
    ("splitting.ticks", "count"),
    ("splitting.survivor_ratio", "ratio"),
    ("service.hit_ratio", "ratio"),
    ("service.topup_ratio", "ratio"),
    ("service.new_reps_per_miss", "count"),
    ("service.hit_p50_ms", "ms"),
    ("service.miss_p90_ms", "ms"),
    ("service.local_ms_per_miss", "ms"),
    ("service.overhead_ratio", "ratio"),
    ("coordinator.ms_per_shard", "ms"),
    ("coordinator.shards_per_miss", "count"),
    ("coordinator.retries", "count"),
    ("wire.frame_bytes", "bytes"),
    ("wire.encode_us_per_kb", "us"),
    ("wire.decode_us_per_kb", "us"),
    ("channel.loopback_rtt_us", "us"),
    ("trace.overhead_ratio", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload <doe_sweep|fleet_point|service_mix|rare_split> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-check";

/// Seconds each workload runs during a per-layer fill or the self-check.
const TINY_SECONDS: f64 = 0.2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--self-check" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    }))
}

/// Untraced run of `workload`: its end-to-end metrics.
fn measure(workload: &str, run: &RunConfig) -> Outcome {
    trace::set_enabled(false);
    match workload {
        "doe_sweep" => doe::measure(run),
        "fleet_point" => fleet::measure(run),
        "rare_split" => rare::measure(run),
        _ => service::measure(run),
    }
}

/// Traced run of `workload` alone: the per-layer figures its own ops
/// reach.
fn trace_one(workload: &str, run: &RunConfig) -> Outcome {
    trace::set_enabled(true);
    trace::drain();
    match workload {
        "doe_sweep" => doe::trace(run),
        "fleet_point" => fleet::trace(run),
        "rare_split" => rare::trace(run),
        _ => service::trace(run),
    }
}

/// Traced run of `workload`, completed to every per-layer metric: a layer
/// the workload never calls is measured on a tiny traced pass of the
/// first workload (in [`WORKLOADS`] order) that does.
fn trace_all(workload: &str, run: &RunConfig) -> Outcome {
    let mut out = trace_one(workload, run);
    let mut source: BTreeMap<&'static str, String> = out
        .layers
        .keys()
        .map(|k| (*k, workload.to_owned()))
        .collect();
    let tiny = RunConfig {
        seconds: TINY_SECONDS,
        tiny: true,
        ..*run
    };
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        if PER_LAYER
            .iter()
            .all(|(name, _)| out.layers.contains_key(name))
        {
            break;
        }
        let fill = trace_one(other, &tiny);
        out.attempted += fill.attempted;
        out.failed += fill.failed;
        for (name, value) in fill.layers {
            if !out.layers.contains_key(name) {
                out.layers.insert(name, value);
                source.insert(name, format!("tiny {other}"));
            }
        }
    }
    let layers = std::mem::take(&mut out.layers);
    for (name, unit) in PER_LAYER {
        if let Some(&value) = layers.get(name) {
            out.push(name, value, unit);
            let from = &source[name];
            out.notes
                .push(format!("{name:<28} = {value} {unit}   [{from}]"));
        }
    }
    out
}

/// Whether `metrics` are exactly `expected`, in order, all finite.
fn complete(metrics: &[Metric], expected: &[(&str, &str)]) -> bool {
    metrics.len() == expected.len()
        && metrics
            .iter()
            .zip(expected)
            .all(|(m, (name, unit))| m.name == *name && m.unit == *unit && m.value.is_finite())
}

fn json(correct: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

/// Runs one invocation and prints its report; the JSON result is the
/// last line, `correct: false` when an op or a check failed.
fn run(args: &Args, placement: Placement) {
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        tiny: false,
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} cpu={} executor_threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        placement.nproc,
        placement
            .cpu
            .map_or_else(|| "unpinned".to_owned(), |c| c.to_string()),
        placement.executor_threads
    );
    let (out, expected) = if args.trace {
        (trace_all(&args.workload, &config), &PER_LAYER[..])
    } else {
        (measure(&args.workload, &config), &END_TO_END[..])
    };
    for note in &out.notes {
        println!("  {note}");
    }
    if !args.trace {
        for m in &out.metrics {
            println!("  {:<20} = {} {}", m.name, m.value, m.unit);
        }
    }
    let correct = out.failed == 0 && complete(&out.metrics, expected);
    println!(
        "  ops: {} attempted, {} failed, correct = {correct}",
        out.attempted, out.failed
    );
    println!("{}", json(correct, &out));
}

/// Every workload at tiny sizes, untraced and traced: each metric must
/// print with its unit and every output check must pass.
fn self_check() -> Result<(), String> {
    for workload in WORKLOADS {
        let run = RunConfig {
            seed: 7,
            seconds: TINY_SECONDS,
            tiny: true,
        };
        for traced in [false, true] {
            let (out, expected) = if traced {
                (trace_all(workload, &run), &PER_LAYER[..])
            } else {
                (measure(workload, &run), &END_TO_END[..])
            };
            let kind = if traced { "traced" } else { "untraced" };
            if !complete(&out.metrics, expected) {
                return Err(format!(
                    "{workload} {kind}: printed {:?}, expected every one of {expected:?}",
                    out.metrics
                ));
            }
            if out.failed > 0 || out.attempted == 0 {
                return Err(format!(
                    "{workload} {kind}: {} of {} ops failed: {:?}",
                    out.failed, out.attempted, out.notes
                ));
            }
            println!(
                "self-check {workload} {kind}: {} ops, all metrics, all checks ok",
                out.attempted
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => {
            run(&args, harness::pin_to_one_cpu());
            ExitCode::SUCCESS
        }
        Ok(None) => {
            harness::pin_to_one_cpu();
            match self_check() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("self-check failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_check_passes() {
        super::self_check().unwrap();
    }
}
