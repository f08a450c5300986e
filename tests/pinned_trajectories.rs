//! Campaign trajectories pinned to recorded values.
//!
//! `frontier_differential` checks the event-driven stepper against the
//! dense reference sweep, but the two share the RNG and the draw order:
//! a change that moved both alike would pass it. This suite pins every
//! [`CampaignStats`] field (the final ratio as its bits) for eight
//! seeds of each workload the hot loop serves: SCoPE under the three
//! shipped threats, the rare-event plant (SCoPE with six strategically
//! hardened nodes over a 48 h window) and a ~10^3-node fleet under full
//! rotation over a one-month window.
//!
//! The values were recorded from `CampaignSimulator::run_into` before
//! the lateral draws moved to precomputed `IndexDraw`s, so they also
//! show that the new arithmetic returns the old indexes. These paths
//! use only integer RNG arithmetic and basic IEEE operations (no libm
//! calls), so the pins hold on any x86_64 host.
//!
//! The generated plants are pinned too: one FNV-1a digest over every
//! node's name bytes, role, zone and profile and every link's
//! endpoints, in order, for the SCoPE plant and for fleets from 10^3 to
//! 10^6 nodes, recorded while names still went through `core::fmt`.

use diversify::attack::campaign::{CampaignConfig, CampaignSimulator, CampaignStats, ThreatModel};
use diversify::attack::AttackStage::{self, DeviceImpairment, NetworkPropagation};
use diversify::diversity::config::DiversityConfig;
use diversify::diversity::placement::{apply_placement, PlacementStrategy};
use diversify::scada::components::ComponentProfile;
use diversify::scada::fleet::{FleetConfig, FleetSystem};
use diversify::scada::network::ScadaNetwork;
use diversify::scada::scope::{ScopeConfig, ScopeSystem};

/// `(time_to_attack, time_to_detection, final_compromised_ratio bits,
/// deepest_stage, firewall_blocks, payload_failures)` of one replication.
type Pin = (Option<u32>, Option<u32>, u64, AttackStage, u32, u32);

fn pin(s: &CampaignStats) -> Pin {
    (
        s.time_to_attack,
        s.time_to_detection,
        s.final_compromised_ratio.to_bits(),
        s.deepest_stage,
        s.firewall_blocks,
        s.payload_failures,
    )
}

/// Runs seeds `0..8` through one workspace and compares each with its pin.
fn assert_pinned(net: &ScadaNetwork, threat: ThreatModel, config: CampaignConfig, pins: &[Pin; 8]) {
    let sim = CampaignSimulator::new(net, threat, config);
    let mut ws = sim.workspace();
    for (seed, expected) in (0u64..).zip(pins) {
        let stats = sim.run_into(&mut ws, seed);
        assert_eq!(pin(&stats), *expected, "seed {seed}");
    }
}

fn scope_network() -> ScadaNetwork {
    ScopeSystem::build(&ScopeConfig::default())
        .network()
        .clone()
}

#[rustfmt::skip]
const SCOPE_STUXNET: [Pin; 8] = [
    (Some(12), Some(66), 0x3ff0000000000000, DeviceImpairment, 0, 1),
    (Some(11), Some(40), 0x3ff0000000000000, DeviceImpairment, 0, 2),
    (Some(16), Some(25), 0x3ff0000000000000, DeviceImpairment, 0, 5),
    (Some(10), Some(201), 0x3ff0000000000000, DeviceImpairment, 0, 0),
    (Some(12), Some(162), 0x3ff0000000000000, DeviceImpairment, 0, 1),
    (Some(9), Some(18), 0x3ff0000000000000, DeviceImpairment, 0, 3),
    (Some(10), Some(164), 0x3ff0000000000000, DeviceImpairment, 0, 2),
    (Some(12), Some(25), 0x3ff0000000000000, DeviceImpairment, 0, 3),
];

#[rustfmt::skip]
const SCOPE_DUQU: [Pin; 8] = [
    (Some(29), Some(33), 0x3ff0000000000000, NetworkPropagation, 0, 0),
    (Some(28), Some(48), 0x3ff0000000000000, NetworkPropagation, 0, 0),
    (Some(26), Some(86), 0x3ff0000000000000, NetworkPropagation, 0, 0),
    (Some(40), Some(154), 0x3ff0000000000000, NetworkPropagation, 0, 0),
    (Some(29), Some(136), 0x3ff0000000000000, NetworkPropagation, 0, 0),
    (Some(28), Some(118), 0x3ff0000000000000, NetworkPropagation, 0, 0),
    (Some(26), Some(452), 0x3ff0000000000000, NetworkPropagation, 0, 0),
    (Some(40), Some(183), 0x3ff0000000000000, NetworkPropagation, 0, 0),
];

#[rustfmt::skip]
const SCOPE_FLAME: [Pin; 8] = [
    (Some(20), Some(175), 0x3ff0000000000000, NetworkPropagation, 0, 0),
    (Some(17), Some(23), 0x3ff0000000000000, NetworkPropagation, 0, 0),
    (Some(17), Some(37), 0x3ff0000000000000, NetworkPropagation, 0, 0),
    (Some(16), Some(15), 0x3fe8000000000000, NetworkPropagation, 0, 0),
    (Some(16), Some(43), 0x3ff0000000000000, NetworkPropagation, 0, 0),
    (Some(15), Some(63), 0x3ff0000000000000, NetworkPropagation, 0, 0),
    (Some(19), Some(10), 0x3feaaaaaaaaaaaab, NetworkPropagation, 0, 0),
    (Some(19), Some(93), 0x3ff0000000000000, NetworkPropagation, 1, 0),
];

#[rustfmt::skip]
const RARE_SPLIT_PLANT: [Pin; 8] = [
    (None, None, 0x3fe0000000000000, NetworkPropagation, 67, 20),
    (None, None, 0x3ff0000000000000, NetworkPropagation, 21, 90),
    (None, None, 0x3fe8000000000000, NetworkPropagation, 31, 71),
    (None, None, 0x3fe0000000000000, NetworkPropagation, 58, 19),
    (None, Some(30), 0x3fe8000000000000, DeviceImpairment, 39, 61),
    (None, Some(12), 0x3fe0000000000000, NetworkPropagation, 53, 32),
    (None, Some(31), 0x3fe8000000000000, NetworkPropagation, 46, 49),
    (None, None, 0x3fe8000000000000, NetworkPropagation, 47, 45),
];

#[rustfmt::skip]
const FLEET_FULL_ROTATION: [Pin; 8] = [
    (Some(173), Some(145), 0x3fe4448811e0b6c0, DeviceImpairment, 1093, 35815),
    (Some(156), Some(11), 0x3fe3fd0536dff80e, DeviceImpairment, 1083, 28546),
    (Some(189), Some(167), 0x3fe43c95f98b4c3b, DeviceImpairment, 1137, 35530),
    (Some(151), Some(101), 0x3fe4eb6410e273b6, DeviceImpairment, 996, 30428),
    (Some(150), Some(3), 0x3fe46450733660d7, DeviceImpairment, 1017, 31443),
    (Some(156), Some(29), 0x3fe49bef1d8c4a7e, DeviceImpairment, 885, 31180),
    (Some(170), Some(8), 0x3fe44c7a2a362146, DeviceImpairment, 1036, 32923),
    (Some(145), Some(298), 0x3fea79ab149bef1e, DeviceImpairment, 1389, 58097),
];

#[test]
fn scope_trajectories_match_their_pins() {
    let net = scope_network();
    let config = CampaignConfig::default();
    assert_pinned(&net, ThreatModel::stuxnet_like(), config, &SCOPE_STUXNET);
    assert_pinned(&net, ThreatModel::duqu_like(), config, &SCOPE_DUQU);
    assert_pinned(&net, ThreatModel::flame_like(), config, &SCOPE_FLAME);
}

#[test]
fn hardened_scope_trajectories_match_their_pins() {
    let mut net = scope_network();
    apply_placement(
        &mut net,
        PlacementStrategy::Strategic { k: 6 },
        ComponentProfile::hardened(),
    );
    let window = CampaignConfig {
        max_ticks: 48,
        detection_stops_attack: false,
    };
    assert_pinned(&net, ThreatModel::stuxnet_like(), window, &RARE_SPLIT_PLANT);
}

#[test]
fn full_rotation_fleet_trajectories_match_their_pins() {
    let mut net = FleetSystem::build(&FleetConfig::sized(1_000, 1))
        .network()
        .clone();
    assert_eq!(net.node_count(), 1031);
    DiversityConfig::full_rotation().apply(&mut net);
    let window = CampaignConfig {
        max_ticks: 24 * 30,
        detection_stops_attack: false,
    };
    assert_pinned(
        &net,
        ThreatModel::stuxnet_like(),
        window,
        &FLEET_FULL_ROTATION,
    );
}

/// FNV-1a, folded a byte at a time.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }
}

/// `(node count, link count, digest)` of a generated plant. The digest
/// folds, per node in id order, the name's length and bytes, the role
/// and zone indexes and the six profile variants, then both endpoints
/// of every link in insertion order.
fn plant_pin(net: &ScadaNetwork) -> (usize, usize, u64) {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for id in net.node_ids() {
        let name = net.name(id);
        h.word(name.len() as u32);
        h.bytes(name.as_bytes());
        let p = net.profile(id);
        h.bytes(&[
            net.role(id).index() as u8,
            net.zone(id).index() as u8,
            p.os as u8,
            p.plc_firmware as u8,
            p.dialect as u8,
            p.firewall as u8,
            p.sensor as u8,
            p.historian as u8,
        ]);
    }
    for link in net.links() {
        h.word(link.a.index() as u32);
        h.word(link.b.index() as u32);
    }
    (net.node_count(), net.link_count(), h.0)
}

fn fleet_pin(config: &FleetConfig) -> (usize, usize, u64) {
    plant_pin(FleetSystem::build(config).network())
}

#[test]
fn scope_plant_matches_its_pin() {
    assert_eq!(plant_pin(&scope_network()), (12, 16, 0x12e9_4073_d480_52f7));
}

#[test]
fn sized_fleet_plants_match_their_pins() {
    assert_eq!(
        fleet_pin(&FleetConfig::sized(1_000, 1)),
        (1031, 1185, 0xaa45_39bd_2cdb_bcae)
    );
    assert_eq!(
        fleet_pin(&FleetConfig::sized(20_000, 0xA110C)),
        (19_971, 23_053, 0x3fdc_ab44_7e11_b12a)
    );
}

/// Every decimal field of a node name crosses a digit boundary: plant,
/// office, substation and PLC indexes all pass 9.
#[test]
fn wide_fleet_plant_matches_its_pin() {
    let config = FleetConfig {
        plants: 12,
        substations_per_plant: 11,
        plcs_per_substation: 12,
        offices_per_plant: 11,
        seed: 0xD161,
        baseline_profile: ComponentProfile::hardened(),
    };
    assert_eq!(fleet_pin(&config), (1873, 2178, 0xd2ca_104a_0039_24b7));
}

/// The `fleet_point` plant.
#[test]
fn million_node_fleet_plant_matches_its_pin() {
    assert_eq!(
        fleet_pin(&FleetConfig::sized(1_000_000, 1)),
        (1_000_016, 1_154_857, 0x6fb6_cc9c_2b8e_df2c)
    );
}
