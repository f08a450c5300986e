//! Fleet-scale plant-family generator.
//!
//! The paper's case study is one plant with tens of nodes; the roadmap
//! north-star is indicator queries over production fleets of 10^5–10^6
//! devices. This module grows the SCoPE plant shape into a **tiered
//! fleet**: `plants → substations → field devices`, deterministically
//! randomized from a seed so any size from 10^2 to 10^6 nodes can be
//! regenerated bit-for-bit.
//!
//! Each plant mirrors the SCoPE layout — an office chain (corporate
//! zone), an HMI/historian/engineering triangle (control-center zone),
//! and per-substation field gateways fronting PLC stars (field zone).
//! Substation PLC counts are jittered around the configured mean and
//! plants are joined in a historian WAN ring, so generated fleets are a
//! *family* of related-but-distinct topologies rather than one stamped
//! pattern.
//!
//! ```
//! use diversify_scada::fleet::{FleetConfig, FleetSystem};
//!
//! let fleet = FleetSystem::build(&FleetConfig::sized(1_000, 7));
//! let n = fleet.network().node_count();
//! assert!((900..=1_100).contains(&n));
//! // Same seed, same fleet.
//! let again = FleetSystem::build(&FleetConfig::sized(1_000, 7));
//! assert_eq!(again.network().node_count(), n);
//! ```

use crate::components::ComponentProfile;
use crate::network::{NameBuf, NodeRole, Plant, ScadaNetwork, Zone};
use diversify_des::{RngStream, StreamId};

/// RNG stream id for fleet topology generation.
const FLEET_STREAM: StreamId = StreamId(0xF1EE);

/// Configuration of a tiered plant fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of plants in the fleet.
    pub plants: usize,
    /// Substations (field gateways) per plant.
    pub substations_per_plant: usize,
    /// Mean PLCs per substation (jittered ±1 per substation).
    pub plcs_per_substation: usize,
    /// Office workstations per plant.
    pub offices_per_plant: usize,
    /// Master seed for the topology jitter.
    pub seed: u64,
    /// Baseline component profile applied to every node.
    pub baseline_profile: ComponentProfile,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            plants: 1,
            substations_per_plant: 10,
            plcs_per_substation: 8,
            offices_per_plant: 2,
            seed: 0xF1EE7,
            baseline_profile: ComponentProfile::default(),
        }
    }
}

impl FleetConfig {
    /// A configuration whose generated fleet has approximately
    /// `target_nodes` nodes (within a few percent — substation PLC
    /// counts are seed-jittered). Valid from about 10^2 up to 10^6
    /// nodes: small targets shrink to a single plant, large targets add
    /// ~95-node plants.
    ///
    /// # Panics
    ///
    /// Panics if `target_nodes` is zero.
    #[must_use]
    pub fn sized(target_nodes: usize, seed: u64) -> Self {
        assert!(target_nodes > 0, "fleet must have at least one node");
        let base = FleetConfig {
            seed,
            ..FleetConfig::default()
        };
        // Split the target across ~95-node plants, then refit the
        // substation count so plants × plant-size lands on the target.
        let per_plant = base.nodes_per_plant_estimate();
        let plants = (target_nodes / per_plant).max(1);
        let overhead = base.offices_per_plant + 3;
        let per_substation = 1 + base.plcs_per_substation;
        let plant_target = target_nodes / plants;
        let substations =
            (plant_target.saturating_sub(overhead) + per_substation / 2) / per_substation;
        FleetConfig {
            plants,
            substations_per_plant: substations.max(1),
            ..base
        }
    }

    /// Expected node count of one plant (before jitter).
    #[must_use]
    pub fn nodes_per_plant_estimate(&self) -> usize {
        self.offices_per_plant + 3 + self.substations_per_plant * (1 + self.plcs_per_substation)
    }

    /// Expected node count of the whole fleet (before jitter).
    #[must_use]
    pub fn node_estimate(&self) -> usize {
        self.plants * self.nodes_per_plant_estimate()
    }

    /// Upper bounds on the generated plant's node count, name bytes and
    /// link count, in that order: every substation at its jitter
    /// maximum (one PLC over the mean) and every decimal index in a name
    /// as wide as the largest one. `None` if a bound overflows `usize`.
    fn plant_bounds(&self) -> Option<(usize, usize, usize)> {
        let (offices, subs) = (self.offices_per_plant, self.substations_per_plant);
        let max_plcs = self.plcs_per_substation.checked_add(1)?;
        // Width of the widest index in `0..n`.
        let width = |n: usize| decimal_len(n.saturating_sub(1));
        let p = 1 + width(self.plants); // `p{plant}`
        let office_name = p + "-office-".len() + width(offices);
        let triangle_names = 3 * p + "-hmi".len() + "-historian".len() + "-engineering".len();
        let gateway_name = p + "-gw-".len() + width(subs);
        let plc_name = p + "-plc-".len() + width(subs) + "-".len() + width(max_plcs);

        let sub_names = max_plcs.checked_mul(plc_name)?.checked_add(gateway_name)?;
        let plant_names = subs
            .checked_mul(sub_names)?
            .checked_add(offices.checked_mul(office_name)?)?
            .checked_add(triangle_names)?;
        let plant_nodes = subs
            .checked_mul(max_plcs.checked_add(1)?)?
            .checked_add(offices)?
            .checked_add(3)?;
        // Office chain and reporting links, the triangle, and per
        // substation two supervisory links, the PLC star and a backbone
        // link; one WAN ring link per plant.
        let plant_links = subs
            .checked_mul(max_plcs.checked_add(3)?)?
            .checked_add(offices.checked_mul(2)?)?
            .checked_add(4)?;
        Some((
            self.plants.checked_mul(plant_nodes)?,
            self.plants.checked_mul(plant_names)?,
            self.plants.checked_mul(plant_links)?,
        ))
    }
}

/// Number of decimal digits of `n`.
fn decimal_len(mut n: usize) -> usize {
    let mut len = 1;
    while n >= 10 {
        n /= 10;
        len += 1;
    }
    len
}

/// A generated fleet: the network and the configuration it was
/// generated from.
#[derive(Debug, Clone)]
pub struct FleetSystem {
    config: FleetConfig,
    network: ScadaNetwork,
}

impl FleetSystem {
    /// Generates the fleet for `config`. Deterministic: identical
    /// configurations (including the seed) yield identical networks.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero plants or substations.
    #[must_use]
    pub fn build(config: &FleetConfig) -> Self {
        assert!(
            config.plants > 0 && config.substations_per_plant > 0,
            "non-empty fleet required"
        );
        let mut rng = RngStream::new(config.seed, FLEET_STREAM);
        // Every plant buffer is sized once; a bound past `usize` leaves
        // them to grow (the 32-bit id check fails long before).
        let mut net = config
            .plant_bounds()
            .map_or_else(Plant::default, |(nodes, name_bytes, links)| {
                Plant::with_capacity(nodes, name_bytes, links)
            });
        // One historian per plant, for the WAN ring; the other id lists
        // are per plant and reused.
        let mut historians = Vec::with_capacity(config.plants);
        let mut offices = Vec::with_capacity(config.offices_per_plant);
        let mut gateways = Vec::with_capacity(config.substations_per_plant);
        // `p{plant}` is written once per plant and `p{plant}-plc-{sub}`
        // once per substation; every name extends one of them.
        let mut name = NameBuf::default();

        for plant in 0..config.plants {
            let p = name.indexed(0, "p", plant).len();
            // Corporate zone: office LAN chain, reporting into the
            // historian below.
            offices.clear();
            offices.extend((0..config.offices_per_plant).map(|i| {
                net.add_node(
                    name.indexed(p, "-office-", i),
                    NodeRole::OfficeWorkstation,
                    Zone::Corporate,
                )
            }));
            for w in offices.windows(2) {
                net.connect(w[0], w[1]);
            }

            // Control-center zone: the SCoPE triangle.
            let hmi = net.add_node(name.tail(p, "-hmi"), NodeRole::Hmi, Zone::ControlCenter);
            let historian = net.add_node(
                name.tail(p, "-historian"),
                NodeRole::Historian,
                Zone::ControlCenter,
            );
            let engineering = net.add_node(
                name.tail(p, "-engineering"),
                NodeRole::EngineeringWorkstation,
                Zone::ControlCenter,
            );
            net.connect(hmi, historian);
            net.connect(hmi, engineering);
            net.connect(historian, engineering);
            for &o in &offices {
                net.connect(o, historian);
            }

            // Field zone: per substation, a gateway fronting a PLC star.
            // PLC counts jitter ±1 around the configured mean so plants
            // differ; every gateway keeps supervisory links to the HMI
            // and the engineering workstation (project downloads).
            gateways.clear();
            for sub in 0..config.substations_per_plant {
                let gw = net.add_node(
                    name.indexed(p, "-gw-", sub),
                    NodeRole::FieldGateway,
                    Zone::Field,
                );
                net.connect(hmi, gw);
                net.connect(engineering, gw);
                let jitter = rng.index(3); // 0, 1 or 2 → -1, 0 or +1
                let count = (config.plcs_per_substation + jitter)
                    .saturating_sub(1)
                    .max(1);
                let plc_prefix = name.indexed(p, "-plc-", sub).len();
                for i in 0..count {
                    let plc =
                        net.add_node(name.indexed(plc_prefix, "-", i), NodeRole::Plc, Zone::Field);
                    net.connect(gw, plc);
                }
                gateways.push(gw);
            }
            // Occasional redundant backbone between adjacent substations.
            for pair in gateways.windows(2) {
                if rng.bernoulli(0.3) {
                    net.connect(pair[0], pair[1]);
                }
            }
            historians.push(historian);
        }

        // Fleet WAN: historian ring (closed only when it adds a new edge).
        for pair in historians.windows(2) {
            net.connect(pair[0], pair[1]);
        }
        if historians.len() > 2 {
            net.connect(historians[historians.len() - 1], historians[0]);
        }

        let profiles = vec![config.baseline_profile; net.node_count()];
        FleetSystem {
            config: config.clone(),
            network: ScadaNetwork::from_parts(net, profiles)
                .expect("generated plants are consistent"),
        }
    }

    /// The generated network.
    #[must_use]
    pub fn network(&self) -> &ScadaNetwork {
        &self.network
    }

    /// Mutable network access (diversity placement rewrites profiles).
    pub fn network_mut(&mut self) -> &mut ScadaNetwork {
        &mut self.network
    }

    /// The configuration this fleet was generated from.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NodeId;

    #[test]
    fn default_fleet_matches_estimate_closely() {
        let cfg = FleetConfig::default();
        let fleet = FleetSystem::build(&cfg);
        let n = fleet.network().node_count();
        let est = cfg.node_estimate();
        // Jitter is ±1 PLC per substation.
        assert!(n.abs_diff(est) <= cfg.plants * cfg.substations_per_plant);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FleetConfig::sized(2_000, 42);
        let a = FleetSystem::build(&cfg);
        let b = FleetSystem::build(&cfg);
        assert_eq!(a.network().node_count(), b.network().node_count());
        assert_eq!(a.network().link_count(), b.network().link_count());
        for id in a.network().node_ids() {
            assert_eq!(a.network().neighbors(id), b.network().neighbors(id));
            assert_eq!(a.network().role(id), b.network().role(id));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FleetSystem::build(&FleetConfig::sized(2_000, 1));
        let b = FleetSystem::build(&FleetConfig::sized(2_000, 2));
        // Same tier counts, different jitter → different link/node totals
        // (overwhelmingly likely; both are deterministic).
        assert!(
            a.network().node_count() != b.network().node_count()
                || a.network().link_count() != b.network().link_count()
        );
    }

    #[test]
    fn sized_hits_targets_across_four_decades() {
        for &target in &[100usize, 1_000, 10_000, 100_000] {
            let fleet = FleetSystem::build(&FleetConfig::sized(target, 9));
            let n = fleet.network().node_count();
            let err = n.abs_diff(target) as f64 / target as f64;
            assert!(
                err < 0.15,
                "sized({target}) produced {n} nodes ({err:.0} rel err)"
            );
        }
    }

    #[test]
    fn fleet_is_connected_and_zoned() {
        let fleet = FleetSystem::build(&FleetConfig::sized(1_000, 3));
        let net = fleet.network();
        let offices = net.nodes_with_role(NodeRole::OfficeWorkstation);
        let plcs = net.nodes_with_role(NodeRole::Plc);
        assert_eq!(net.reachable(offices[0]).len(), net.node_count());
        for zone in Zone::ALL {
            assert!(net.node_ids().any(|id| net.zone(id) == zone), "{zone:?}");
        }
        // Every plant contributes an entry point and PLCs: node names
        // carry their plant's `p{plant}-` prefix.
        for plant in 0..fleet.config().plants {
            let prefix = format!("p{plant}-");
            let in_plant = |id: NodeId| net.name(id).starts_with(&prefix);
            assert!(
                offices
                    .iter()
                    .any(|&id| in_plant(id) && net.role(id).is_entry_point()),
                "plant {plant}"
            );
            assert!(plcs.iter().any(|&id| in_plant(id)), "plant {plant}");
        }
    }

    #[test]
    fn plc_population_dominates_at_scale() {
        let fleet = FleetSystem::build(&FleetConfig::sized(10_000, 5));
        let net = fleet.network();
        let plcs = net.nodes_with_role(NodeRole::Plc).len();
        assert!(
            plcs * 2 > net.node_count(),
            "field devices should be the majority: {plcs} of {}",
            net.node_count()
        );
    }

    /// Nodes, name bytes and links of a generated fleet.
    fn plant_size(config: &FleetConfig) -> (usize, usize, usize) {
        let net = FleetSystem::build(config).network().clone();
        let name_bytes = net.node_ids().map(|id| net.name(id).len()).sum();
        (net.node_count(), name_bytes, net.link_count())
    }

    #[test]
    fn plant_bounds_cover_every_generated_fleet() {
        let wide = FleetConfig {
            plants: 12,
            substations_per_plant: 11,
            plcs_per_substation: 12,
            offices_per_plant: 11,
            ..FleetConfig::default()
        };
        let bare = FleetConfig {
            plants: 3,
            substations_per_plant: 1,
            plcs_per_substation: 0,
            offices_per_plant: 0,
            ..FleetConfig::default()
        };
        for config in [
            FleetConfig::default(),
            FleetConfig::sized(1_000, 1),
            FleetConfig::sized(20_000, 0xA110C),
            wide,
            bare,
        ] {
            let (nodes, name_bytes, links) = plant_size(&config);
            let bounds = config.plant_bounds().unwrap();
            assert!(nodes <= bounds.0, "{config:?}: {nodes} nodes");
            assert!(
                name_bytes <= bounds.1,
                "{config:?}: {name_bytes} name bytes"
            );
            assert!(links <= bounds.2, "{config:?}: {links} links");
        }
        // On a sized fleet the bounds reserve less than a third more
        // than the build uses.
        let config = FleetConfig::sized(20_000, 0xA110C);
        let (nodes, name_bytes, links) = plant_size(&config);
        let (max_nodes, max_name_bytes, max_links) = config.plant_bounds().unwrap();
        assert!(3 * max_nodes < 4 * nodes, "{max_nodes} for {nodes} nodes");
        assert!(
            3 * max_name_bytes < 4 * name_bytes,
            "{max_name_bytes} for {name_bytes}"
        );
        assert!(3 * max_links < 4 * links, "{max_links} for {links} links");
    }

    #[test]
    fn plant_bounds_past_usize_are_none() {
        let huge = FleetConfig {
            plants: usize::MAX / 2,
            ..FleetConfig::default()
        };
        assert_eq!(huge.plant_bounds(), None);
        let wide = FleetConfig {
            plcs_per_substation: usize::MAX,
            ..FleetConfig::default()
        };
        assert_eq!(wide.plant_bounds(), None);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_plants_rejected() {
        let cfg = FleetConfig {
            plants: 0,
            ..FleetConfig::default()
        };
        let _ = FleetSystem::build(&cfg);
    }
}
