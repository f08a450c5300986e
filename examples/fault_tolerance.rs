//! Fault-tolerant execution: panic isolation, deterministic retry, run
//! budgets, and graceful degradation to partial results.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```
//!
//! Part 1 injects panics into a campaign sweep and shows the survivors
//! are bit-identical to the fault-free run. Part 2 arms the same faults
//! as transients and lets seed-preserving retry erase them completely.
//! Part 3 truncates a run with a replication budget and a cancel token
//! and shows the partial result equals the shorter fixed plan. Part 4
//! runs the full pipeline with a per-design-point budget and prints the
//! per-cell health table from the degraded report.

// Example code: the unwrap/expect ban (clippy.toml) applies to the
// non-test library code of diversify-des/diversify-core.
#![allow(clippy::disallowed_methods)]
use diversify::attack::campaign::{CampaignConfig, CampaignSimulator, ThreatModel};
use diversify::core::exec::{
    accept_all, Budget, BudgetOutcome, CancelToken, Executor, ReplicationPlan, RetryPolicy,
    RunPolicy, RunSpec, VecCollector,
};
use diversify::core::pipeline::{Pipeline, PipelineConfig};
use diversify::des::faults::{silence_injected_panics, FaultKind, FaultPlan};
use diversify::scada::scope::{ScopeConfig, ScopeSystem};

fn main() {
    // Injected panics are expected here; keep them off stderr.
    silence_injected_panics();
    let net = ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone();
    let sim = CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
    let plan = ReplicationPlan::new(4, 5, 0xFA171);
    let task = |ws: &mut diversify::attack::campaign::CampaignWorkspace,
                rep: diversify::core::exec::Replication| {
        sim.run_into(ws, rep.seed).final_compromised_ratio
    };
    let clean: Vec<f64> =
        Executor::parallel().run_ws(&plan, || sim.workspace(), task, &VecCollector);

    // Part 1 — panic isolation. Replications 3 and 7 panic; the other
    // 18 finish and match the fault-free run bit for bit.
    let faults = FaultPlan::none(plan.total())
        .with_fault(3, FaultKind::Panic)
        .with_fault(7, FaultKind::Panic);
    let isolate = RunPolicy::new();
    let part = Executor::parallel().execute(
        &RunSpec::new(&plan).with_policy(&isolate),
        || sim.workspace(),
        faults.wrap(task, |v| v),
        &VecCollector,
        accept_all,
    );
    println!("— panic isolation —");
    println!(
        "  {} attempted, {} completed, outcome: {}",
        part.attempted, part.completed, part.budget_outcome
    );
    for failure in &part.failed {
        println!(
            "  replication {} (seed {:#x}) failed: {:?}",
            failure.index, failure.seed, failure.cause
        );
    }
    let survivors = part.output().expect("18 survivors");
    let expected: Vec<f64> = clean
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 3 && *i != 7)
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(survivors, &expected, "survivors are bit-identical");
    println!("  survivors bit-identical to the fault-free run: yes");

    // Part 2 — deterministic retry. The same faults armed as transient
    // (they fire once, then clear) plus one retry from each failed
    // replication's own seed: the run finishes whole and equals the
    // fault-free run exactly.
    faults.reset();
    let transient = FaultPlan::none(plan.total())
        .with_fault(3, FaultKind::Panic)
        .with_fault(7, FaultKind::Panic)
        .transient(1);
    let retry = RunPolicy::new().with_retry(RetryPolicy::retries(1));
    let retried = Executor::parallel().execute(
        &RunSpec::new(&plan).with_policy(&retry),
        || sim.workspace(),
        transient.wrap(task, |v| v),
        &VecCollector,
        accept_all,
    );
    println!("— deterministic retry —");
    println!(
        "  {} completed, {} failures after 1 retry",
        retried.completed,
        retried.failed.len()
    );
    assert_eq!(retried.output().expect("whole run"), &clean);
    println!("  retried run bit-identical to the fault-free run: yes");

    // Part 3 — budgets and cancellation. A replication cap truncates to
    // whole rounds; the partial result equals the shorter fixed plan.
    let token = CancelToken::new();
    let policy = RunPolicy::new().with_budget(
        Budget::unlimited()
            .with_max_replications(10)
            .with_cancel(&token),
    );
    let budgeted = Executor::parallel().execute(
        &RunSpec::new(&plan).with_policy(&policy),
        || sim.workspace(),
        task,
        &VecCollector,
        accept_all,
    );
    let shorter: Vec<f64> = Executor::parallel().run_ws(
        &ReplicationPlan::new(2, 5, 0xFA171),
        || sim.workspace(),
        task,
        &VecCollector,
    );
    println!("— run budgets —");
    println!(
        "  cap 10 of 20: {} rounds kept, outcome: {}",
        budgeted.rounds, budgeted.budget_outcome
    );
    assert_eq!(budgeted.budget_outcome, BudgetOutcome::ReplicationBudget);
    assert_eq!(budgeted.output().expect("clean prefix"), &shorter);
    println!("  truncated run bit-identical to the 2-round plan: yes");
    token.cancel();
    let cancelled = Executor::parallel().execute(
        &RunSpec::new(&plan).with_policy(&policy),
        || sim.workspace(),
        task,
        &VecCollector,
        accept_all,
    );
    println!(
        "  after cancel(): {} completed, outcome: {}",
        cancelled.completed, cancelled.budget_outcome
    );

    // Part 4 — graceful degradation in the pipeline. Every design point
    // of the 2^(6−2) sweep gets a per-cell budget that truncates it;
    // the report still carries the full assessment plus a health table
    // flagging each degraded cell.
    let config = PipelineConfig {
        batches: 3,
        batch_size: 4,
        campaign: CampaignConfig {
            max_ticks: 24 * 5,
            detection_stops_attack: false,
        },
        resilience: Some(
            RunPolicy::new().with_budget(Budget::unlimited().with_max_replications(8)),
        ),
        ..PipelineConfig::default()
    };
    let report = Pipeline::new(config).run();
    println!("— degraded pipeline —");
    let health = report.doe.health.as_ref().expect("resilient sweep");
    let degraded = health.iter().filter(|c| c.is_degraded()).count();
    println!(
        "  {} of {} design points degraded (cap 8 of 12 per cell)",
        degraded,
        health.len()
    );
    let text = report.to_string();
    let table_from = text.find("cell health").expect("health table rendered");
    for line in text[table_from..].lines().take(6) {
        println!("  {line}");
    }
    println!(
        "  ... assessment still ranks {} factors",
        report.assessment.ranking.len()
    );
}
