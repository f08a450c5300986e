//! Regenerates every experiment table/series from DESIGN.md §3.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p diversify-bench --bin experiments [quick|full] \
//!     [--guard <baseline.json> [--guard-factor <f>]] \
//!     [--harden-guard <baseline.json> [--harden-factor <f>]]
//! ```
//!
//! With `--guard`, the binary times the whole suite and exits non-zero if
//! the wall time exceeds `guard-factor ×` the `suite_wall_ms` recorded in
//! the baseline JSON (default factor 3 — a coarse regression tripwire
//! that tolerates CI-runner noise but catches order-of-magnitude
//! slowdowns).
//!
//! With `--harden-guard`, the binary times the campaign replication
//! workload on the hardened executor paths and exits non-zero if the
//! explicitly budgeted path (`Executor::execute` with an unlimited
//! `RunPolicy` in its `RunSpec`) costs more than `harden-factor ×`
//! (default 1.05, i.e. 5%) the strict path (`Executor::run_ws`) measured
//! in the same process, or if the strict path itself drifts past
//! `guard-factor ×` the `campaign_replication_throughput_us` recorded in
//! the baseline.

use diversify_bench::{hardened_overhead_probe, run_all, Scale};
use std::time::Instant;

/// Extracts `"<key>": <number>` from a BENCH_*.json file without a full
/// JSON parse (the guarded fields are flat and unique).
fn json_number(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn suite_wall_ms(path: &str) -> Option<f64> {
    json_number(path, "suite_wall_ms")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "full") {
        Scale::Full
    } else {
        Scale::Quick
    };
    let guard = args
        .iter()
        .position(|a| a == "--guard")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let factor: f64 = args
        .iter()
        .position(|a| a == "--guard-factor")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    let harden_guard = args
        .iter()
        .position(|a| a == "--harden-guard")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let harden_factor: f64 = args
        .iter()
        .position(|a| a == "--harden-factor")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.05);

    println!("diversify reproduction — experiment suite ({scale:?} scale)\n");
    let start = Instant::now();
    for (id, output) in run_all(scale) {
        println!("==== {id} ====");
        println!("{output}");
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    println!("suite wall: {wall_ms:.1} ms");

    if let Some(baseline_path) = guard {
        let Some(baseline_ms) = suite_wall_ms(&baseline_path) else {
            eprintln!("guard: no suite_wall_ms in {baseline_path}");
            std::process::exit(2);
        };
        let limit = baseline_ms * factor;
        if wall_ms > limit {
            eprintln!(
                "guard: suite wall {wall_ms:.1} ms exceeds {factor}x baseline \
                 ({baseline_ms:.1} ms from {baseline_path}) — performance regression"
            );
            std::process::exit(1);
        }
        println!("guard: within {factor}x baseline ({baseline_ms:.1} ms from {baseline_path})");
    }

    if let Some(baseline_path) = harden_guard {
        let probe = hardened_overhead_probe(scale, 15);
        println!(
            "harden-guard: strict {:.1} us/rep, budgeted {:.1} us/rep \
             (ratio {:.3}) over {} replications",
            probe.strict_us,
            probe.budgeted_us,
            probe.ratio(),
            probe.replications
        );
        // The 5% claim is a same-process comparison — immune to runner
        // speed — so it gets the tight default factor.
        if probe.ratio() > harden_factor {
            eprintln!(
                "harden-guard: budgeted path costs {:.1}% over strict \
                 (allowed {:.1}%) — hardening overhead regression",
                (probe.ratio() - 1.0) * 100.0,
                (harden_factor - 1.0) * 100.0
            );
            std::process::exit(1);
        }
        // The absolute check reuses the coarse suite factor: it exists
        // to catch the hardened strict path slowing down outright, not
        // to re-litigate runner-to-runner speed differences.
        if let Some(baseline_us) = json_number(&baseline_path, "campaign_replication_throughput_us")
        {
            // The recorded criterion number is per bench iteration of
            // 100 replications; normalize to per-replication.
            let baseline_per_rep = baseline_us / 100.0;
            let limit = baseline_per_rep * factor;
            if probe.strict_us > limit {
                eprintln!(
                    "harden-guard: strict path {:.2} us/rep exceeds {factor}x baseline \
                     ({baseline_per_rep:.2} us/rep from {baseline_path}) — performance regression",
                    probe.strict_us
                );
                std::process::exit(1);
            }
            println!(
                "harden-guard: within {harden_factor}x of strict and {factor}x of \
                 baseline ({baseline_per_rep:.2} us/rep from {baseline_path})"
            );
        } else {
            eprintln!("harden-guard: no campaign_replication_throughput_us in {baseline_path}");
            std::process::exit(2);
        }
    }
}
