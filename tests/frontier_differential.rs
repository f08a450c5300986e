//! Differential oracle for the event-driven frontier engine.
//!
//! The PR 6 tentpole rebuilt the campaign tick loop around an infection
//! frontier so a tick costs O(frontier) instead of O(nodes). The dense
//! reference sweep (`CampaignSimulator::run_reference`) was kept as the
//! semantic oracle: for every network, threat model and seed, the
//! frontier engine must be **bit-identical** to it — same outcome, same
//! per-tick ratio curve, same scalar stats. This suite checks that over
//! the hand-built SCoPE network and randomized generated fleets, the
//! latter diversified so that nodes carry different profiles and the
//! simulator's per-node tables are checked against the oracle's live
//! catalog evaluation where they differ, and over a hand-built plant of
//! daisy-chained PLCs, where a payload delivery makes the next PLC of
//! its chain eligible within the same sweep.

use diversify::attack::campaign::{CampaignConfig, CampaignSimulator, ThreatModel};
use diversify::attack::stage::AttackStage;
use diversify::des::{RngStream, StreamId};
use diversify::diversity::config::DiversityConfig;
use diversify::diversity::placement::{apply_placement, PlacementStrategy};
use diversify::scada::components::{
    ComponentClass, ComponentProfile, FirewallPolicy, OsVariant, PlcFirmware,
};
use diversify::scada::fleet::{FleetConfig, FleetSystem};
use diversify::scada::network::{NodeId, NodeRole, ScadaNetwork, Zone};
use diversify::scada::scope::{ScopeConfig, ScopeSystem};
use diversify::scada::ProtocolDialect;
use proptest::prelude::*;
use std::collections::HashSet;

fn scope_network() -> ScadaNetwork {
    ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone()
}

fn threat_for(kind: u8) -> ThreatModel {
    match kind % 3 {
        0 => ThreatModel::stuxnet_like(),
        1 => ThreatModel::duqu_like(),
        _ => ThreatModel::flame_like(),
    }
}

/// Number of [`apply_diversity`] kinds.
const DIVERSITY_KINDS: usize = 3 + ComponentClass::ALL.len();

/// Rewrites the profiles of `net` by one of the shipped diversity
/// configurations — monoculture, full rotation, or one rotated class —
/// or, for the last kind, a strategic placement of `k` hardened nodes.
fn apply_diversity(net: &mut ScadaNetwork, kind: usize, k: usize) {
    match kind {
        0 => DiversityConfig::monoculture().apply(net),
        1 => DiversityConfig::full_rotation().apply(net),
        c if c < DIVERSITY_KINDS - 1 => {
            DiversityConfig::rotate_only(ComponentClass::ALL[c - 2]).apply(net);
        }
        _ => {
            apply_placement(
                net,
                PlacementStrategy::Strategic { k },
                ComponentProfile::hardened(),
            );
        }
    }
}

/// Asserts frontier ≡ dense reference ≡ materializing path for one
/// (network, threat, config) triple across the given seeds.
fn assert_paths_agree(
    net: &ScadaNetwork,
    threat: ThreatModel,
    config: CampaignConfig,
    seeds: &[u64],
) {
    let sim = CampaignSimulator::new(net, threat, config);
    let mut ws = sim.workspace();
    for &seed in seeds {
        let reference = sim.run_reference(seed);
        let outcome = sim.run(seed);
        assert_eq!(outcome, reference, "run != run_reference at seed {seed}");
        let stats = sim.run_into(&mut ws, seed);
        assert_eq!(
            stats,
            reference.stats(),
            "run_into != reference at seed {seed}"
        );
    }
}

#[test]
fn frontier_matches_reference_on_scope_network() {
    let net = scope_network();
    for threat in [
        ThreatModel::stuxnet_like(),
        ThreatModel::duqu_like(),
        ThreatModel::flame_like(),
    ] {
        assert_paths_agree(
            &net,
            threat,
            CampaignConfig::default(),
            &(0..20).collect::<Vec<_>>(),
        );
    }
}

/// The simulator stores one table entry per node class (profile fields,
/// role and zone) and a `u16` class index per node. The shipped
/// diversity configurations make at most 72 classes; this ~3,000-node
/// fleet draws every node's OS, PLC firmware, dialect and firewall over
/// all their variants, so its class indexes run past one byte.
#[test]
fn frontier_matches_reference_past_256_node_classes() {
    let mut net = FleetSystem::build(&FleetConfig::sized(3_000, 0xC1A55))
        .network()
        .clone();
    let mut rng = RngStream::new(0xC1A55, StreamId(0xC1A55));
    for p in net.profiles_mut() {
        p.os = OsVariant::ALL[rng.index(OsVariant::ALL.len())];
        p.plc_firmware = PlcFirmware::ALL[rng.index(PlcFirmware::ALL.len())];
        p.dialect = ProtocolDialect::ALL[rng.index(ProtocolDialect::ALL.len())];
        p.firewall = FirewallPolicy::ALL[rng.index(FirewallPolicy::ALL.len())];
    }
    let classes: HashSet<_> = net
        .node_ids()
        .map(|id| {
            let p = net.profile(id);
            let fields = (p.os, p.plc_firmware, p.dialect, p.firewall);
            (fields, net.role(id), net.zone(id))
        })
        .collect();
    assert!(classes.len() > 256, "{} node classes", classes.len());
    let campaign = CampaignConfig {
        max_ticks: 24 * 30,
        detection_stops_attack: false,
    };
    for threat in [
        ThreatModel::stuxnet_like(),
        ThreatModel::duqu_like(),
        ThreatModel::flame_like(),
    ] {
        assert_paths_agree(&net, threat, campaign, &[0, 1]);
    }
}

/// A 97-node plant whose field zone is three daisy chains of 30 PLCs,
/// each behind its own gateway: an office workstation reaches the
/// historian, which sits in a triangle with the HMI and the engineering
/// workstation, and both of those reach every gateway. The chains
/// interleave their ids with stride 3 across the 64-id boundary of the
/// sets' first bitset word. Two are wired up the ids from their gateway
/// and one down, so a PLC reprogrammed mid-sweep makes a chain neighbor
/// eligible both ahead of the payload cursor, in its word and in the
/// next one, and behind it. No shipped topology links one PLC to
/// another.
fn plc_chain_network() -> ScadaNetwork {
    let mut net = ScadaNetwork::new();
    let p = ComponentProfile::default();
    let office = net.add_node("office", NodeRole::OfficeWorkstation, Zone::Corporate, p);
    let historian = net.add_node("historian", NodeRole::Historian, Zone::ControlCenter, p);
    let hmi = net.add_node("hmi", NodeRole::Hmi, Zone::ControlCenter, p);
    let eng = net.add_node(
        "engineering",
        NodeRole::EngineeringWorkstation,
        Zone::ControlCenter,
        p,
    );
    net.connect(office, historian);
    net.connect(historian, hmi);
    net.connect(hmi, eng);
    net.connect(eng, historian);
    let gateways: Vec<NodeId> = (0..3)
        .map(|g| {
            let gw = net.add_node(
                format_args!("gw-{g}"),
                NodeRole::FieldGateway,
                Zone::Field,
                p,
            );
            net.connect(hmi, gw);
            net.connect(eng, gw);
            gw
        })
        .collect();
    let plcs: Vec<NodeId> = (0..90)
        .map(|k| net.add_node(format_args!("plc-{k}"), NodeRole::Plc, Zone::Field, p))
        .collect();
    for (c, &gw) in gateways.iter().enumerate() {
        let mut chain: Vec<NodeId> = plcs[c..].iter().step_by(3).copied().collect();
        if c == 2 {
            chain.reverse();
        }
        let mut prev = gw;
        for plc in chain {
            net.connect(prev, plc);
            prev = plc;
        }
    }
    assert_eq!(net.node_count(), 97);
    net
}

#[test]
fn frontier_matches_reference_on_plc_chains() {
    let mut net = plc_chain_network();
    let seeds: Vec<u64> = (0..100).collect();
    for diversity in 0..2 {
        apply_diversity(&mut net, diversity, 0);
        for detection_stops_attack in [false, true] {
            let campaign = CampaignConfig {
                detection_stops_attack,
                ..CampaignConfig::default()
            };
            for threat in [
                ThreatModel::stuxnet_like(),
                ThreatModel::duqu_like(),
                ThreatModel::flame_like(),
            ] {
                assert_paths_agree(&net, threat, campaign, &seeds);
            }
            // The case reaches payload delivery, so the chains matter.
            let sim = CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), campaign);
            let mut ws = sim.workspace();
            assert!(
                seeds.iter().any(|&seed| {
                    sim.run_into(&mut ws, seed).deepest_stage == AttackStage::DeviceImpairment
                }),
                "no stuxnet campaign reprogrammed a PLC"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Frontier ≡ reference on randomized plant families: plant count,
    /// substation fan-out, PLC density and the generator seed all vary,
    /// so the fleets range from a single sparse plant (~30 nodes) to a
    /// few hundred nodes with redundant gateway links. Each fleet is
    /// then diversified (see [`apply_diversity`]).
    #[test]
    fn frontier_matches_reference_on_random_fleets(
        plants in 1usize..4,
        substations in 1usize..6,
        plcs in 1usize..6,
        offices in 1usize..4,
        fleet_seed in any::<u64>(),
        threat_kind in 0u8..3,
        campaign_seed in any::<u64>(),
        detection_stops_attack in any::<bool>(),
        diversity in 0..DIVERSITY_KINDS,
        hardened in 0usize..12,
    ) {
        let config = FleetConfig {
            plants,
            substations_per_plant: substations,
            plcs_per_substation: plcs,
            offices_per_plant: offices,
            seed: fleet_seed,
            ..FleetConfig::default()
        };
        let mut net = FleetSystem::build(&config).network().clone();
        apply_diversity(&mut net, diversity, hardened);
        let campaign = CampaignConfig {
            max_ticks: 24 * 10,
            detection_stops_attack,
        };
        assert_paths_agree(
            &net,
            threat_for(threat_kind),
            campaign,
            &[campaign_seed, campaign_seed.wrapping_add(1)],
        );
    }
}
