//! The SCoPE data-center cooling system — the paper's case study, rebuilt
//! as a parameterized network model.
//!
//! The real system is the cooling plant of the SCoPE computing facility at
//! the Federico II University of Naples; the paper models its
//! *control/monitoring nodes and PLCs*. This module builds that network:
//! office workstations (corporate zone), HMI + historian + engineering
//! workstation (control-center zone), field gateways and one PLC per CRAC
//! unit (field zone). The attack model reprograms those PLCs as one
//! campaign stage.

use crate::components::ComponentProfile;
use crate::network::{NameBuf, NodeId, NodeRole, Plant, ScadaNetwork, Zone};
use serde::{Deserialize, Serialize};

/// Configuration of the SCoPE-like system: exactly what
/// [`ScopeSystem::build`] reads.
///
/// Serializable so a plant configuration can cross a wire (the serve
/// crate ships it to shard workers) and key content-addressed caches.
/// Those caches hash every field, so a field the build did not read
/// would split cells that measure the same plant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeConfig {
    /// Number of CRAC units (each with its own PLC).
    pub cracs: usize,
    /// Number of corporate office workstations.
    pub office_workstations: usize,
    /// Baseline component profile applied to every node.
    pub baseline_profile: ComponentProfile,
}

impl Default for ScopeConfig {
    fn default() -> Self {
        ScopeConfig {
            cracs: 4,
            office_workstations: 3,
            baseline_profile: ComponentProfile::default(),
        }
    }
}

/// The assembled system: topology plus the indices of its named nodes.
#[derive(Debug)]
pub struct ScopeSystem {
    network: ScadaNetwork,
    /// PLC node ids, one per CRAC.
    plc_nodes: Vec<NodeId>,
    /// HMI node id.
    hmi: NodeId,
    /// Historian node id.
    historian: NodeId,
    /// Engineering workstation node id.
    engineering: NodeId,
    /// Office workstation node ids.
    office: Vec<NodeId>,
}

impl ScopeSystem {
    /// Builds the topology for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` has zero CRACs.
    #[must_use]
    pub fn build(config: &ScopeConfig) -> Self {
        assert!(config.cracs > 0, "non-empty plant required");
        let mut net = Plant::default();
        let mut name = NameBuf::default();

        // Corporate zone.
        let office: Vec<NodeId> = (0..config.office_workstations)
            .map(|i| {
                net.add_node(
                    name.indexed(0, "office-", i),
                    NodeRole::OfficeWorkstation,
                    Zone::Corporate,
                )
            })
            .collect();

        // Control-center zone.
        let hmi = net.add_node("hmi", NodeRole::Hmi, Zone::ControlCenter);
        let historian = net.add_node("historian", NodeRole::Historian, Zone::ControlCenter);
        let engineering = net.add_node(
            "engineering",
            NodeRole::EngineeringWorkstation,
            Zone::ControlCenter,
        );
        net.connect(hmi, historian);
        net.connect(hmi, engineering);
        net.connect(historian, engineering);
        for &o in &office {
            net.connect(o, historian); // business reporting path
        }
        for w in office.windows(2) {
            net.connect(w[0], w[1]); // office LAN chain
        }

        // Field zone: a gateway per pair of CRACs, PLCs behind gateways.
        let gateway_count = config.cracs.div_ceil(2);
        let gateways: Vec<NodeId> = (0..gateway_count)
            .map(|i| {
                let g = net.add_node(
                    name.indexed(0, "gateway-", i),
                    NodeRole::FieldGateway,
                    Zone::Field,
                );
                net.connect(hmi, g);
                net.connect(engineering, g);
                g
            })
            .collect();
        let plc_nodes: Vec<NodeId> = (0..config.cracs)
            .map(|i| {
                let plc = net.add_node(name.indexed(0, "plc-", i), NodeRole::Plc, Zone::Field);
                net.connect(gateways[i / 2], plc);
                plc
            })
            .collect();

        let profiles = vec![config.baseline_profile; net.node_count()];
        ScopeSystem {
            network: ScadaNetwork::from_parts(net, profiles)
                .expect("generated plants are consistent"),
            plc_nodes,
            hmi,
            historian,
            engineering,
            office,
        }
    }

    /// The network topology.
    #[must_use]
    pub fn network(&self) -> &ScadaNetwork {
        &self.network
    }

    /// Mutable topology access (diversity placement rewrites profiles).
    pub fn network_mut(&mut self) -> &mut ScadaNetwork {
        &mut self.network
    }

    /// PLC node ids, in CRAC order.
    #[must_use]
    pub fn plc_nodes(&self) -> &[NodeId] {
        &self.plc_nodes
    }

    /// The HMI node.
    #[must_use]
    pub fn hmi(&self) -> NodeId {
        self.hmi
    }

    /// The historian node.
    #[must_use]
    pub fn historian(&self) -> NodeId {
        self.historian
    }

    /// The engineering workstation node.
    #[must_use]
    pub fn engineering(&self) -> NodeId {
        self.engineering
    }

    /// Office workstation nodes.
    #[must_use]
    pub fn office(&self) -> &[NodeId] {
        &self.office
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_topology_shape() {
        let sys = ScopeSystem::build(&ScopeConfig::default());
        let net = sys.network();
        // 3 office + hmi + historian + engineering + 2 gateways + 4 plcs = 12.
        assert_eq!(net.node_count(), 12);
        assert_eq!(sys.plc_nodes().len(), 4);
        assert_eq!(net.nodes_with_role(NodeRole::Plc).len(), 4);
        let corporate = net
            .node_ids()
            .filter(|&id| net.zone(id) == Zone::Corporate)
            .count();
        assert_eq!(corporate, 3);
        // Everything reachable from an office workstation (flat routing;
        // firewalls act probabilistically in the attack layer).
        assert_eq!(net.reachable(sys.office()[0]).len(), 12);
    }

    #[test]
    fn custom_config_scales_topology() {
        let cfg = ScopeConfig {
            cracs: 8,
            office_workstations: 5,
            ..ScopeConfig::default()
        };
        let sys = ScopeSystem::build(&cfg);
        // 5 office + 3 control + 4 gateways + 8 plcs = 20.
        assert_eq!(sys.network().node_count(), 20);
        assert_eq!(sys.plc_nodes().len(), 8);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_cracs_rejected() {
        let cfg = ScopeConfig {
            cracs: 0,
            ..ScopeConfig::default()
        };
        let _ = ScopeSystem::build(&cfg);
    }
}
