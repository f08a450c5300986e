//! Adaptive-precision replication: spend campaigns only where the
//! variance demands them.
//!
//! ```text
//! cargo run --release --example adaptive_precision
//! ```
//!
//! Part 1 measures one SCoPE design point twice — under the fixed
//! default replication budget and adaptively with a relative
//! confidence-interval target on P_SA — compares the spend, and checks
//! that the adaptive run equals the fixed plan of the rounds it
//! executed, bit for bit. Part 2
//! runs the full three-step pipeline with a precision target, so every
//! design point of the 2^(6−2) sweep sizes its own replication count
//! and the report shows the per-run spend and achieved half-widths.

// Example code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::attack::campaign::{CampaignConfig, ThreatModel};
use diversify::core::exec::{campaign_plan, BudgetOutcome, Executor, Precision};
use diversify::core::pipeline::{Pipeline, PipelineConfig};
use diversify::core::runner::{
    measure_configuration_run, measure_configuration_with, PrecisionTarget,
};
use diversify::scada::scope::{ScopeConfig, ScopeSystem};

fn main() {
    let net = ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone();
    let threat = ThreatModel::stuxnet_like();
    let campaign = CampaignConfig {
        max_ticks: 24 * 30,
        detection_stops_attack: false,
    };

    // Part 1 — one design point, fixed vs adaptive. The fixed default
    // spends 4 × 25 = 100 campaigns blindly; the adaptive run executes
    // 25-campaign rounds until the 95% Wilson interval on P_SA is
    // within 5% of the estimate (bounded to [50, 400] replications).
    let fixed = measure_configuration_with(
        &net,
        &threat,
        campaign,
        &campaign_plan(4, 25, 0xD1CE),
        Executor::default(),
    );
    let fixed_hw = fixed
        .summary
        .p_success_ci(0.95)
        .map_or(f64::NAN, |ci| ci.half_width());
    println!(
        "fixed:    {:>4} campaigns  P_SA={:.3}  half-width={:.4}",
        fixed.summary.replications, fixed.summary.p_success, fixed_hw
    );

    let target = PrecisionTarget::p_success(0.05, 50, 400);
    let adaptive = measure_configuration_run(
        &net,
        &threat,
        campaign,
        &campaign_plan(1, 25, 0xD1CE),
        Executor::default(),
        Some(&target),
        None,
    );
    let measured = adaptive.output.as_ref().expect("a strict run completes");
    println!(
        "adaptive: {:>4} campaigns  P_SA={:.3}  half-width={:.4}  (target met: {}, rel {:.3})",
        adaptive.attempted,
        measured.summary.p_success,
        adaptive.precision.map_or(f64::NAN, |p| p.half_width),
        adaptive.budget_outcome == BudgetOutcome::PrecisionMet,
        adaptive
            .precision
            .as_ref()
            .map_or(f64::NAN, Precision::relative_half_width)
    );
    // The first N replications of the adaptive run use exactly the seeds
    // of the fixed plan of N — the run is a fixed plan whose size was
    // chosen on the fly.
    let replay =
        measure_configuration_with(&net, &threat, campaign, &adaptive.plan, Executor::default());
    assert_eq!(
        measured.summary.p_success.to_bits(),
        replay.summary.p_success.to_bits()
    );
    assert_eq!(measured.batch_p_success, replay.batch_p_success);
    println!(
        "adaptive run == fixed plan of {} batches x {} campaigns, bit for bit\n",
        adaptive.plan.batches(),
        adaptive.plan.batch_size()
    );

    // Part 2 — a precision-targeted DoE sweep: each of the 16 design
    // points stops at its own replication count (low-variance points
    // early, high-variance points at the cap), and the step-2 report
    // carries the per-run spend.
    let pipeline = Pipeline::new(PipelineConfig {
        batch_size: 10,
        precision: Some(PrecisionTarget::p_success(0.10, 20, 200)),
        ..PipelineConfig::default()
    });
    let report = pipeline.run();
    println!("{report}");

    if let Some(points) = &report.doe.adaptive {
        let total: u32 = points.iter().map(|p| p.replications).sum();
        let fixed_total = 16 * 4 * 25;
        println!(
            "=> adaptive sweep spent {total} campaigns ({} per fixed default of {fixed_total})",
            format_args!(
                "{:.0}%",
                100.0 * f64::from(total) / f64::from(fixed_total as u32)
            ),
        );
    }
}
