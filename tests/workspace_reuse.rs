//! Cross-crate guarantees of the workspace-reuse layer: running a plan
//! through `Executor::run_ws` (per-worker workspaces, buffers recycled
//! across replications) is bit-identical to the materializing
//! `Executor::run`/`collect` path and to a serial run — for random
//! plans, batch splits and seeds — and the adaptive workspace path
//! reproduces PR 4's adaptive-determinism property (truncation ≡ fixed
//! plan) with reused workspaces.

use diversify::attack::campaign::{CampaignConfig, CampaignSimulator, CampaignStats, ThreatModel};
use diversify::core::exec::{campaign_plan, Executor, MeasurementsCollector, ReplicationPlan};
use diversify::core::runner::{
    measure_configuration_run, measure_configuration_with, PrecisionTarget,
};
use diversify::des::exec::VecCollector;
use diversify::des::{RngStream, StreamId};
use diversify::scada::network::ScadaNetwork;
use diversify::scada::scope::{ScopeConfig, ScopeSystem};
use proptest::prelude::*;

fn scope_network() -> ScadaNetwork {
    ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone()
}

fn short_campaign() -> CampaignConfig {
    CampaignConfig {
        max_ticks: 24 * 5,
        detection_stops_attack: false,
    }
}

/// Forces real worker threads even on single-core CI machines so the
/// parallel scheduling path is actually exercised.
///
/// Every test in this binary must call this as its *first* statement:
/// libtest runs tests on parallel threads, and funneling them all
/// through the `Once` guarantees the single `set_var` call completes
/// before any thread can concurrently read the environment (the
/// executor reads `RAYON_NUM_THREADS` when it sizes a parallel round).
fn force_worker_threads() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("RAYON_NUM_THREADS", "4"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `run_ws` ≡ `run` ≡ serial for random plans and batch splits, on a
    /// task with real RNG work and a workspace that deliberately carries
    /// garbage between replications.
    #[test]
    fn run_ws_equals_run_equals_serial(
        batches in 1u32..5,
        batch_size in 1u32..9,
        master_seed in any::<u64>(),
    ) {
        force_worker_threads();
        let plan = ReplicationPlan::new(batches, batch_size, master_seed);
        let task = |rep: diversify::des::exec::Replication| {
            let mut rng = RngStream::new(rep.seed, StreamId(9));
            (0..32).map(|_| rng.uniform()).sum::<f64>()
        };
        let serial = Executor::serial().run(&plan, task);
        let parallel = Executor::parallel().run(&plan, task);
        prop_assert_eq!(&serial, &parallel);
        for exec in [Executor::serial(), Executor::parallel()] {
            let ws: Vec<f64> = exec.run_ws(
                &plan,
                || vec![0.0f64; 4], // scratch with stale contents by design
                |scratch: &mut Vec<f64>, rep| {
                    // Workspace history must not leak into the output.
                    scratch.push(rep.seed as f64);
                    task(rep)
                },
                &VecCollector,
            );
            prop_assert_eq!(ws.len(), serial.len());
            for (a, b) in ws.iter().zip(&serial) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// The campaign measurement stack on workspaces matches the
    /// materializing reference fold bit for bit, for random plans.
    #[test]
    fn campaign_measurements_match_reference_fold(
        batches in 1u32..4,
        batch_size in 1u32..7,
        master_seed in any::<u64>(),
    ) {
        force_worker_threads();
        let net = scope_network();
        let threat = ThreatModel::stuxnet_like();
        let plan = campaign_plan(batches, batch_size, master_seed);
        let sim = CampaignSimulator::new(&net, threat.clone(), short_campaign());
        for exec in [Executor::serial(), Executor::parallel()] {
            // The workspace path (what measure_configuration_with runs).
            let ws = measure_configuration_with(&net, &threat, short_campaign(), &plan, exec);
            // The pre-workspace reference: materialize every outcome.
            let reference = exec.collect(&plan, |rep| sim.run(rep.seed), &MeasurementsCollector);
            prop_assert_eq!(ws.summary.replications, reference.summary.replications);
            prop_assert_eq!(ws.summary.successes, reference.summary.successes);
            prop_assert_eq!(ws.summary.detections, reference.summary.detections);
            prop_assert_eq!(
                ws.summary.p_success.to_bits(),
                reference.summary.p_success.to_bits()
            );
            prop_assert_eq!(&ws.summary.tta, &reference.summary.tta);
            prop_assert_eq!(&ws.summary.ttsf, &reference.summary.ttsf);
            prop_assert_eq!(&ws.summary.compromised, &reference.summary.compromised);
            prop_assert_eq!(&ws.batch_p_success, &reference.batch_p_success);
            prop_assert_eq!(&ws.batch_compromised, &reference.batch_compromised);
        }
    }

    /// PR 4's adaptive-determinism fixture, now with reused workspaces:
    /// an adaptive run capped at N replications is bit-identical to the
    /// fixed plan of N, for random batch sizes and caps.
    #[test]
    fn adaptive_with_reused_workspaces_matches_fixed_plans(
        batch_size in 1u32..7,
        cap_rounds in 1u32..5,
        master_seed in any::<u64>(),
    ) {
        force_worker_threads();
        let net = scope_network();
        let threat = ThreatModel::stuxnet_like();
        let base = campaign_plan(1, batch_size, master_seed);
        // An unreachable target pins the run to its cap.
        let target = PrecisionTarget::p_success(1e-12, 1, cap_rounds * batch_size);
        for exec in [Executor::serial(), Executor::parallel()] {
            let adaptive = measure_configuration_run(
                &net, &threat, short_campaign(), &base, exec, Some(&target), None,
            );
            prop_assert_eq!(adaptive.rounds, cap_rounds);
            let fixed =
                measure_configuration_with(&net, &threat, short_campaign(), &adaptive.plan, exec);
            let Some(output) = adaptive.output.as_ref() else {
                panic!("a strict run completes");
            };
            prop_assert_eq!(
                output.summary.p_success.to_bits(),
                fixed.summary.p_success.to_bits()
            );
            prop_assert_eq!(&output.summary.tta, &fixed.summary.tta);
            prop_assert_eq!(&output.batch_p_success, &fixed.batch_p_success);
            prop_assert_eq!(&output.batch_compromised, &fixed.batch_compromised);
        }
    }

    /// One shared workspace replaying a shuffled seed schedule produces
    /// the same per-replication stats as fresh materialized runs — the
    /// workspace is stateless between replications by construction.
    #[test]
    fn workspace_replay_is_order_independent(
        seeds in prop::collection::vec(any::<u64>(), 1..20),
    ) {
        force_worker_threads();
        let net = scope_network();
        let sim = CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), short_campaign());
        let mut ws = sim.workspace();
        // Forward pass through the shared workspace…
        let forward: Vec<CampaignStats> =
            seeds.iter().map(|&s| sim.run_into(&mut ws, s)).collect();
        // …must equal fresh per-seed outcomes, and a reversed replay.
        for (i, &seed) in seeds.iter().enumerate() {
            prop_assert_eq!(sim.run(seed).stats(), forward[i]);
        }
        for (i, &seed) in seeds.iter().enumerate().rev() {
            prop_assert_eq!(sim.run_into(&mut ws, seed), forward[i]);
        }
    }
}
