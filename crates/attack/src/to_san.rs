//! Compiles a five-stage attack progression into a stochastic activity
//! network, so the SAN solver can cross-check the other formalisms
//! (experiment R8).
//!
//! Each stage becomes a place; a timed activity moves the attack token
//! forward with a case distribution `{success: p, abort-and-retry: 1-p}`.
//! Failed attempts loop back to the same stage after the attempt delay, so
//! the SAN models *time* (geometric number of attempts × attempt
//! duration), not just eventual success.

use crate::campaign::{AttackGoal, ThreatModel};
use crate::chain::MachineChain;
use crate::stage::AttackStage;
use diversify_san::{FiringDistribution, PlaceId, SanBuilder, SanError, SanModel};
use diversify_scada::network::{NodeRole, ScadaNetwork};

/// Per-stage parameters for the SAN compilation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageParams {
    /// Probability that one attempt completes the stage.
    pub success_probability: f64,
    /// Mean time between attempts, hours (exponential).
    pub attempt_rate_per_hour: f64,
}

/// Compiles stage parameters (one entry per transition between the five
/// stages, i.e. exactly 4 entries) into a SAN.
///
/// Place layout: `stage-0` … `stage-4`, with one token starting in
/// `stage-0`; place `stage-4` marks attack success.
///
/// # Errors
///
/// Returns [`SanError`] if parameters are out of domain.
///
/// # Panics
///
/// Panics if `params.len() != 4` (the five-stage model has four
/// transitions).
pub fn compile_stage_chain(params: &[StageParams]) -> Result<SanModel, SanError> {
    assert_eq!(
        params.len(),
        AttackStage::ALL.len() - 1,
        "five stages have four transitions"
    );
    let mut b = SanBuilder::new();
    let places: Vec<_> = AttackStage::ALL
        .iter()
        .enumerate()
        .map(|(i, s)| b.place(format!("stage-{i}-{s}"), u32::from(i == 0)))
        .collect();
    for (i, p) in params.iter().enumerate() {
        let from = places[i];
        let to = places[i + 1];
        b.timed_activity(
            format!("attempt-{i}"),
            FiringDistribution::Exponential {
                rate: p.attempt_rate_per_hour,
            },
        )
        .input_arc(from, 1)
        .case(p.success_probability.max(1e-12), vec![(to, 1)])
        .case((1.0 - p.success_probability).max(1e-12), vec![(from, 1)])
        .build();
    }
    b.build()
}

/// Returns the id of the success place (`stage-4`).
///
/// # Panics
///
/// Panics if `model` was not produced by [`compile_stage_chain`].
#[must_use]
pub fn success_place(model: &SanModel) -> diversify_san::PlaceId {
    model
        .place_by_name("stage-4-device-impairment")
        .expect("model built by compile_stage_chain")
}

/// A SAN compiled from a [`MachineChain`] by [`compile_machine_chain`],
/// plus the absorbing places reward queries need.
#[derive(Debug)]
pub struct MachineChainSan {
    /// The compiled model (all-exponential, so the analytic CTMC backend
    /// applies).
    pub model: SanModel,
    /// Absorbing place holding a token once every machine fell.
    pub success: PlaceId,
    /// Absorbing place holding a token once any fresh exploit failed.
    pub aborted: PlaceId,
}

/// Compiles the Sec. I machine chain into an all-exponential SAN, the
/// analytic-backend counterpart of
/// [`simulate_chain`](crate::chain::simulate_chain).
///
/// One position place per machine plus two absorbing places. A machine
/// whose variant is *fresh* at its position gets a timed exploit attempt
/// (`Exp(attempt_rate_per_hour)`) with cases `{p: advance, 1-p: abort}`
/// — any failure aborts the whole attack, exactly like the chain walk. A
/// machine whose variant already fell earlier in the chain is crossed by
/// an instantaneous activity (exploit reuse is free *and* immediate), so
/// the compiled model also exercises vanishing-state elimination.
///
/// The eventual probability of reaching `success` equals
/// [`chain_success_probability`](crate::chain::chain_success_probability)
/// exactly — the closed form the differential tests assert against.
///
/// # Errors
///
/// Returns [`SanError`] if `attempt_rate_per_hour` is out of domain.
pub fn compile_machine_chain(
    chain: &MachineChain,
    attempt_rate_per_hour: f64,
) -> Result<MachineChainSan, SanError> {
    let k = chain.len();
    let mut b = SanBuilder::new();
    let pos: Vec<PlaceId> = (0..=k)
        .map(|i| b.place(format!("pos-{i}"), u32::from(i == 0)))
        .collect();
    let aborted = b.place("aborted", 0);
    let mut broken: Vec<u32> = Vec::new();
    for (i, &(variant, p)) in chain.machines().iter().enumerate() {
        if broken.contains(&variant) {
            b.instantaneous_activity(format!("reuse-{i}"))
                .input_arc(pos[i], 1)
                .output_arc(pos[i + 1], 1)
                .build();
            continue;
        }
        broken.push(variant);
        let ab = b
            .timed_activity(
                format!("exploit-{i}"),
                FiringDistribution::Exponential {
                    rate: attempt_rate_per_hour,
                },
            )
            .input_arc(pos[i], 1);
        if p >= 1.0 {
            ab.output_arc(pos[i + 1], 1).build();
        } else if p <= 0.0 {
            ab.output_arc(aborted, 1).build();
        } else {
            ab.case(p, vec![(pos[i + 1], 1)])
                .case(1.0 - p, vec![(aborted, 1)])
                .build();
        }
    }
    let model = b.build()?;
    let success = pos[k];
    Ok(MachineChainSan {
        model,
        success,
        aborted,
    })
}

/// A SAN compiled from a plant network and a threat model by
/// [`compile_network_campaign`], plus the handles needed to pose reward
/// queries against it.
#[derive(Debug)]
pub struct NetworkCampaignSan {
    /// The compiled model.
    pub model: SanModel,
    /// Per-node "infected" places, in node order.
    pub infected: Vec<PlaceId>,
    /// Per-node "rooted" places, in node order.
    pub rooted: Vec<PlaceId>,
    /// Counter place incremented per reprogrammed PLC.
    pub impaired: PlaceId,
    /// Place marked when the defenders first perceive the attack.
    pub detected: PlaceId,
    /// Tokens `impaired` must reach for the campaign goal (sabotage
    /// threats; 0 for espionage threats, whose goal lives on `rooted`
    /// data-layer nodes).
    pub goal_tokens: u32,
}

impl NetworkCampaignSan {
    /// Marking predicate for campaign success (the paper's P_SA / TTA
    /// target state): `Some((impaired, needed))` for sabotage threats,
    /// `None` for espionage threats — their goal is data access, queried
    /// via [`Self::data_access_places`] instead (no activity ever feeds
    /// `impaired` under an espionage catalog, so an impairment predicate
    /// would silently never hold).
    #[must_use]
    pub fn success_tokens(&self) -> Option<(PlaceId, u32)> {
        (self.goal_tokens > 0).then_some((self.impaired, self.goal_tokens))
    }

    /// The `rooted` places of the data-layer nodes (historian and
    /// engineering workstations) in `net` — the espionage success
    /// targets: an exfiltration campaign succeeds once any of them holds
    /// a token.
    #[must_use]
    pub fn data_access_places(&self, net: &ScadaNetwork) -> Vec<PlaceId> {
        net.node_ids()
            .filter(|&id| {
                matches!(
                    net.role(id),
                    NodeRole::Historian | NodeRole::EngineeringWorkstation
                )
            })
            .map(|id| self.rooted[id.index()])
            .collect()
    }
}

/// Compiles a plant network plus a threat model into a continuous-time
/// SAN: per node an `inf`/`root` place pair, per directed link a lateral
/// activity, per PLC a payload activity, plus entry seeding and a
/// detection race. Attempt probabilities become exponential rates per
/// hour (probability × attempts/tick), the continuous-time analogue of
/// the tick-based [`CampaignSimulator`](crate::campaign::CampaignSimulator).
///
/// This is the mid-size workload behind the `san_sim_throughput` bench
/// and the SAN trajectory pins (`tests/san_differential.rs`).
///
/// # Errors
///
/// Returns [`SanError`] if the network is empty of activities (e.g. no
/// entry points and no links).
pub fn compile_network_campaign(
    net: &ScadaNetwork,
    threat: &ThreatModel,
) -> Result<NetworkCampaignSan, SanError> {
    let cat = &threat.catalog;
    let attempts = f64::from(threat.attempts_per_tick.max(1));
    // An attempt probability p at one attempt per tick (hour) maps to a
    // hazard of -ln(1-p) per hour; clamp away from 0 and 1 so rates stay
    // finite and the model stays live.
    let rate_of =
        |p: f64, per_tick: f64| -> f64 { (-(1.0 - p.clamp(1e-9, 0.999)).ln()) * per_tick };

    let mut b = SanBuilder::new();
    let dormant = b.place("dormant", 1);
    let active = b.place("active", 0);
    let detected = b.place("detected", 0);
    let impaired = b.place("impaired", 0);
    let infected: Vec<PlaceId> = net
        .node_ids()
        .map(|id| b.place(format!("inf-{}", net.name(id)), 0))
        .collect();
    let rooted: Vec<PlaceId> = net
        .node_ids()
        .map(|id| b.place(format!("root-{}", net.name(id)), 0))
        .collect();

    // Entry seeding: the entry-point nodes race for the single dormant
    // token (USB stick / spear-phish, per the Stuxnet dossier).
    for id in net.node_ids() {
        if !net.role(id).is_entry_point() {
            continue;
        }
        b.timed_activity(
            format!("seed-{}", net.name(id)),
            FiringDistribution::Exponential {
                rate: rate_of(cat.infection_probability(net.profile(id)), 1.0),
            },
        )
        .input_arc(dormant, 1)
        .output_arc(infected[id.index()], 1)
        .output_arc(active, 1)
        .build();
    }

    // Privilege escalation per node: infected -> rooted.
    for id in net.node_ids() {
        b.timed_activity(
            format!("escalate-{}", net.name(id)),
            FiringDistribution::Exponential {
                rate: rate_of(cat.escalation_probability(net.profile(id)), 1.0),
            },
        )
        .input_arc(infected[id.index()], 1)
        .output_arc(rooted[id.index()], 1)
        .build();
    }

    // Lateral movement per directed link: a rooted source infects a
    // still-clean destination. Zone crossings fold in the firewall pass
    // probability, field targets the dialect-mismatch factor.
    for src in net.node_ids() {
        for &dst in net.neighbors(src) {
            let dst_profile = net.profile(dst);
            let mut p = cat.infection_probability(dst_profile);
            if net.crosses_zone(src, dst) {
                p *= cat.firewall_pass_probability(dst_profile);
            }
            let src_dialect = net.profile(src).dialect;
            let needs_dialect = matches!(net.role(dst), NodeRole::Plc | NodeRole::FieldGateway);
            if needs_dialect && src_dialect != dst_profile.dialect {
                p *= 0.05;
            }
            let (r_src, i_dst, r_dst) = (
                rooted[src.index()],
                infected[dst.index()],
                rooted[dst.index()],
            );
            b.timed_activity(
                format!("hop-{}-{}", net.name(src), net.name(dst)),
                FiringDistribution::Exponential {
                    rate: rate_of(p, attempts),
                },
            )
            .guard(move |m| m.tokens(r_src) > 0 && m.tokens(i_dst) == 0 && m.tokens(r_dst) == 0)
            .output_arc(i_dst, 1)
            .build();
        }
    }

    // PLC payload delivery: needs a rooted foothold on the PLC itself or
    // a neighbor (gateway / engineering path). Sabotage threats only —
    // espionage catalogs have a zero payload probability.
    for id in net.node_ids() {
        if net.role(id) != NodeRole::Plc {
            continue;
        }
        let p = cat.plc_payload_probability(net.profile(id));
        if p == 0.0 {
            continue;
        }
        let pwn = b.place(format!("pwn-{}", net.name(id)), 0);
        let mut footholds = vec![rooted[id.index()]];
        for &nb in net.neighbors(id) {
            footholds.push(rooted[nb.index()]);
        }
        b.timed_activity(
            format!("payload-{}", net.name(id)),
            FiringDistribution::Exponential {
                rate: rate_of(p, attempts),
            },
        )
        .guard(move |m| m.tokens(pwn) == 0 && footholds.iter().any(|&f| m.tokens(f) > 0))
        .output_arc(pwn, 1)
        .output_arc(impaired, 1)
        .build();
    }

    // Detection race: once any intrusion is active, the defenders may
    // notice (Time-To-Security-Failure).
    let p_detect = cat.detection_probability(
        &net.nodes_with_role(NodeRole::Historian)
            .first()
            .map(|&id| *net.profile(id))
            .unwrap_or_default(),
        &net.nodes_with_role(NodeRole::Plc)
            .first()
            .map(|&id| *net.profile(id))
            .unwrap_or_default(),
        false,
        threat.stealth,
    );
    b.timed_activity(
        "detect",
        FiringDistribution::Exponential {
            rate: rate_of(p_detect, 1.0),
        },
    )
    .guard(move |m| m.tokens(active) > 0 && m.tokens(detected) == 0)
    .output_arc(detected, 1)
    .build();

    let goal_tokens = match threat.goal {
        AttackGoal::ImpairDevices { fraction } => {
            let plcs = net.nodes_with_role(NodeRole::Plc).len();
            ((plcs as f64) * fraction).ceil().max(1.0) as u32
        }
        AttackGoal::Exfiltrate { .. } => 0,
    };

    Ok(NetworkCampaignSan {
        model: b.build()?,
        infected,
        rooted,
        impaired,
        detected,
        goal_tokens,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversify_des::SimTime;
    use diversify_san::{RewardSpec, TransientSolver};

    fn params(p: f64, rate: f64) -> Vec<StageParams> {
        vec![
            StageParams {
                success_probability: p,
                attempt_rate_per_hour: rate,
            };
            4
        ]
    }

    #[test]
    fn compiles_and_simulates() {
        let model = compile_stage_chain(&params(0.5, 1.0)).unwrap();
        assert_eq!(model.place_count(), 5);
        assert_eq!(model.activity_count(), 4);
        let success = success_place(&model);
        let solver = TransientSolver::new(SimTime::from_secs(1e6), 500, 3);
        let r = solver.solve(
            &model,
            &[RewardSpec::first_passage("tta", move |m| {
                m.tokens(success) == 1
            })],
        );
        // With an unbounded horizon every replication eventually succeeds.
        assert_eq!(r.estimate("tta").unwrap().occurrences, 500);
    }

    #[test]
    fn mean_time_matches_geometric_expectation() {
        // Each stage: attempts ~ Geometric(p), attempt gap ~ Exp(rate).
        // E[stage time] = 1/(p·rate) hours; 4 stages chain additively.
        let p = 0.25;
        let rate = 2.0; // per hour
        let model = compile_stage_chain(&params(p, rate)).unwrap();
        let success = success_place(&model);
        let solver = TransientSolver::new(SimTime::from_secs(1e9), 3000, 11);
        let r = solver.solve(
            &model,
            &[RewardSpec::first_passage("tta", move |m| {
                m.tokens(success) == 1
            })],
        );
        let mean_hours = r.estimate("tta").unwrap().stats.mean(); // seconds? no: rate is per hour → times are in "hours" since rate unit defines time
        let expected = 4.0 / (p * rate);
        assert!(
            (mean_hours - expected).abs() < 0.5,
            "mean {mean_hours} vs expected {expected}"
        );
    }

    #[test]
    fn higher_success_probability_is_faster() {
        let run = |p: f64| {
            let model = compile_stage_chain(&params(p, 1.0)).unwrap();
            let success = success_place(&model);
            TransientSolver::new(SimTime::from_secs(1e9), 1000, 5)
                .solve(
                    &model,
                    &[RewardSpec::first_passage("tta", move |m| {
                        m.tokens(success) == 1
                    })],
                )
                .estimate("tta")
                .unwrap()
                .stats
                .mean()
        };
        assert!(run(0.8) < run(0.2));
    }

    #[test]
    #[should_panic(expected = "four transitions")]
    fn wrong_transition_count_panics() {
        let _ = compile_stage_chain(&params(0.5, 1.0)[..2]);
    }

    mod machine_chain {
        use super::super::*;
        use crate::chain::chain_success_probability;
        use diversify_des::SimTime;
        use diversify_san::{solve, Method, RewardSpec};

        /// Analytic eventual success probability of the compiled chain.
        /// Every firing either advances or absorbs, so absorption happens
        /// within k firings and a horizon of a few hundred mean attempt
        /// times is exact to double precision.
        fn analytic_p_success(san: &MachineChainSan, chain_len: usize) -> f64 {
            let success = san.success;
            let horizon = 200.0 * chain_len as f64;
            let r = solve(
                &san.model,
                &[RewardSpec::first_passage("win", move |m| {
                    m.tokens(success) == 1
                })],
                Method::Analytic {
                    horizon: SimTime::from_secs(horizon),
                    tol: 1e-13,
                    max_states: 1_000,
                },
            )
            .expect("chain SAN is analytic-solvable");
            r.estimate("win").unwrap().probability(0)
        }

        #[test]
        fn identical_chain_matches_closed_form() {
            let chain = MachineChain::identical(4, 0.3);
            let san = compile_machine_chain(&chain, 1.0).unwrap();
            let p = analytic_p_success(&san, chain.len());
            assert!(
                (p - chain_success_probability(&chain)).abs() < 1e-9,
                "analytic {p} vs closed form {}",
                chain_success_probability(&chain)
            );
        }

        #[test]
        fn diverse_chain_matches_closed_form() {
            let chain = MachineChain::diverse(3, 0.5);
            let san = compile_machine_chain(&chain, 2.0).unwrap();
            let p = analytic_p_success(&san, chain.len());
            assert!((p - 0.125).abs() < 1e-9, "analytic {p}");
        }

        #[test]
        fn mixed_chain_reuses_exploits_instantaneously() {
            // Variants [A, B, A]: position 2 is crossed by an
            // instantaneous reuse activity.
            let chain = MachineChain::new(vec![(0, 0.6), (1, 0.5), (0, 0.9)]);
            let san = compile_machine_chain(&chain, 1.0).unwrap();
            assert!(san.model.activity_by_name("reuse-2").is_some());
            let p = analytic_p_success(&san, chain.len());
            assert!((p - 0.3).abs() < 1e-9, "analytic {p}");
        }

        #[test]
        fn degenerate_probabilities_compile() {
            let chain = MachineChain::new(vec![(0, 1.0), (1, 0.5)]);
            let san = compile_machine_chain(&chain, 1.0).unwrap();
            let p = analytic_p_success(&san, chain.len());
            assert!((p - 0.5).abs() < 1e-9);
            let doomed = MachineChain::new(vec![(0, 0.0)]);
            let san = compile_machine_chain(&doomed, 1.0).unwrap();
            assert!(analytic_p_success(&san, 1) < 1e-12);
        }
    }

    mod network_campaign {
        use super::super::*;
        use diversify_des::SimTime;
        use diversify_san::Simulator;
        use diversify_scada::scope::{ScopeConfig, ScopeSystem};

        fn scope_net() -> ScadaNetwork {
            ScopeSystem::build(&ScopeConfig::default())
                .network()
                .clone()
        }

        #[test]
        fn compiles_scope_network() {
            let net = scope_net();
            let san = compile_network_campaign(&net, &ThreatModel::stuxnet_like()).unwrap();
            // dormant/active/detected/impaired + 2 per node + 1 per PLC.
            assert_eq!(san.model.place_count(), 4 + 2 * net.node_count() + 4);
            assert!(san.model.activity_count() > 2 * net.link_count());
            assert_eq!(san.goal_tokens, 2); // 50% of 4 PLCs
        }

        #[test]
        fn stuxnet_campaign_reaches_goal() {
            let net = scope_net();
            let san = compile_network_campaign(&net, &ThreatModel::stuxnet_like()).unwrap();
            let (place, need) = san.success_tokens().expect("sabotage goal");
            let mut sim = Simulator::new(&san.model, 11);
            let t = sim.run_until_condition(SimTime::from_secs(24.0 * 365.0), |m| {
                m.tokens(place) >= need
            });
            assert!(t.is_some(), "sabotage should eventually impair PLCs");
        }

        #[test]
        fn espionage_threats_never_impair() {
            let net = scope_net();
            let san = compile_network_campaign(&net, &ThreatModel::duqu_like()).unwrap();
            // No impairment predicate exists for espionage threats …
            assert_eq!(san.success_tokens(), None);
            let mut sim = Simulator::new(&san.model, 5);
            sim.run_until(SimTime::from_secs(24.0 * 365.0));
            assert_eq!(sim.marking().tokens(san.impaired), 0);
            // … their goal is data access, and it is reachable.
            let targets = san.data_access_places(&net);
            assert_eq!(targets.len(), 2); // historian + engineering
            assert!(
                targets.iter().any(|&p| sim.marking().tokens(p) > 0),
                "espionage campaign should root a data-layer node within a year"
            );
        }
    }
}
