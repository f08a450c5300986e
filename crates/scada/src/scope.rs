//! The SCoPE data-center cooling system — the paper's case study, rebuilt
//! as a parameterized, fully closed-loop model.
//!
//! The real system is the cooling plant of the SCoPE computing facility at
//! the Federico II University of Naples; the paper models its
//! *control/monitoring nodes and PLCs*. This module builds:
//!
//! * the **network topology**: office workstations (corporate zone), HMI +
//!   historian + engineering workstation (control-center zone), field
//!   gateways and one PLC per CRAC unit (field zone);
//! * the **physical plant** ([`crate::physics::CoolingPlant`]);
//! * the **control loops**: each PLC reads its rack-group temperature
//!   sensor, runs the proportional cooling program and commands its CRAC
//!   fan actuator.

use crate::components::ComponentProfile;
use crate::device::{Actuator, ActuatorKind, MeasuredQuantity, Sensor};
use crate::network::{NameBuf, NodeId, NodeRole, Plant, ScadaNetwork, Zone};
use crate::physics::{CoolingPlant, CracParams, RackParams};
use crate::plc::{cooling_control_program, Plc};
use diversify_des::{RngStream, StreamId};
use serde::{Deserialize, Serialize};

/// Configuration of the SCoPE-like system.
///
/// Serializable so a plant configuration can cross a wire (the serve
/// crate ships it to shard workers) and key content-addressed caches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScopeConfig {
    /// Number of server racks.
    pub racks: usize,
    /// Number of CRAC units (each with its own PLC).
    pub cracs: usize,
    /// Number of corporate office workstations.
    pub office_workstations: usize,
    /// Temperature setpoint, °C.
    pub setpoint: f64,
    /// Alarm threshold, °C.
    pub alarm_threshold: f64,
    /// Control period, seconds.
    pub control_period: f64,
    /// Baseline component profile applied to every node.
    pub baseline_profile: ComponentProfile,
    /// Master seed for sensor noise.
    pub seed: u64,
}

impl Default for ScopeConfig {
    fn default() -> Self {
        ScopeConfig {
            racks: 8,
            cracs: 4,
            office_workstations: 3,
            setpoint: 25.0,
            alarm_threshold: 35.0,
            control_period: 5.0,
            baseline_profile: ComponentProfile::default(),
            seed: 0xC001,
        }
    }
}

/// The assembled system: topology plus the indices tying network nodes to
/// plant equipment.
#[derive(Debug)]
pub struct ScopeSystem {
    config: ScopeConfig,
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
    /// Panics if `config` has zero racks or CRACs.
    #[must_use]
    pub fn build(config: &ScopeConfig) -> Self {
        assert!(
            config.racks > 0 && config.cracs > 0,
            "non-empty plant required"
        );
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
            config: config.clone(),
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

    /// The configuration this system was built from.
    #[must_use]
    pub fn config(&self) -> &ScopeConfig {
        &self.config
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

    /// Instantiates the runtime (plant + PLCs + devices) for this system.
    #[must_use]
    pub fn into_runtime(self) -> ScopeRuntime {
        ScopeRuntime::new(self)
    }
}

/// The live closed-loop system: plant physics plus per-CRAC control loops.
#[derive(Debug)]
pub struct ScopeRuntime {
    system: ScopeSystem,
    plant: CoolingPlant,
    plcs: Vec<Plc>,
    sensors: Vec<Sensor>,
    actuators: Vec<Actuator>,
    /// Racks assigned to each CRAC's sensor (round-robin partition).
    rack_groups: Vec<Vec<usize>>,
    rng: RngStream,
    elapsed: f64,
}

impl ScopeRuntime {
    fn new(system: ScopeSystem) -> Self {
        let cfg = system.config.clone();
        let plant = CoolingPlant::new(
            vec![RackParams::default(); cfg.racks],
            vec![CracParams::default(); cfg.cracs],
        );
        let mut plcs = Vec::with_capacity(cfg.cracs);
        let mut sensors = Vec::with_capacity(cfg.cracs);
        let mut actuators = Vec::with_capacity(cfg.cracs);
        let mut rack_groups = vec![Vec::new(); cfg.cracs];
        for (rack, group) in (0..cfg.racks).map(|r| (r, r % cfg.cracs)) {
            rack_groups[group].push(rack);
        }
        for i in 0..cfg.cracs {
            let profile = *system.network.profile(system.plc_nodes[i]);
            let mut plc = Plc::new(i as u8 + 1, profile.plc_firmware);
            plc.install_program(cooling_control_program());
            plc.set_holding(0, (cfg.setpoint * 10.0) as u16)
                .expect("register 0 exists");
            plc.set_holding(3, (cfg.alarm_threshold * 10.0) as u16)
                .expect("register 3 exists");
            plcs.push(plc);
            sensors.push(Sensor::new(
                profile.sensor,
                MeasuredQuantity::Temperature,
                0.2,
            ));
            actuators.push(Actuator::new(ActuatorKind::Fan, 5.0, 40.0, 500.0));
        }
        ScopeRuntime {
            system,
            plant,
            plcs,
            sensors,
            actuators,
            rack_groups,
            rng: RngStream::new(cfg.seed, StreamId(0x5C0)),
            elapsed: 0.0,
        }
    }

    /// The underlying system (topology + config).
    #[must_use]
    pub fn system(&self) -> &ScopeSystem {
        &self.system
    }

    /// The physical plant.
    #[must_use]
    pub fn plant(&self) -> &CoolingPlant {
        &self.plant
    }

    /// Mutable plant access (fault injection: water loss, ambient spikes).
    pub fn plant_mut(&mut self) -> &mut CoolingPlant {
        &mut self.plant
    }

    /// The PLC controlling CRAC `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn plc(&self, i: usize) -> &Plc {
        &self.plcs[i]
    }

    /// Mutable PLC access (attack payload delivery).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn plc_mut(&mut self, i: usize) -> &mut Plc {
        &mut self.plcs[i]
    }

    /// The temperature sensor of CRAC group `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sensor_mut(&mut self, i: usize) -> &mut Sensor {
        &mut self.sensors[i]
    }

    /// The fan actuator of CRAC `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn actuator(&self, i: usize) -> &Actuator {
        &self.actuators[i]
    }

    /// Elapsed plant time, seconds.
    #[must_use]
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Highest rack temperature.
    #[must_use]
    pub fn max_rack_temperature(&self) -> f64 {
        self.plant.max_rack_temperature()
    }

    /// Number of tripped racks.
    #[must_use]
    pub fn tripped_count(&self) -> usize {
        self.plant.tripped_count()
    }

    /// Whether any PLC currently raises its over-temperature alarm.
    #[must_use]
    pub fn any_alarm(&self) -> bool {
        self.plcs.iter().any(|p| p.coil(0).unwrap_or(false))
    }

    /// Runs one control period: sense → scan → actuate → integrate plant.
    pub fn step_control_period(&mut self) {
        let period = self.system.config.control_period;
        for i in 0..self.plcs.len() {
            // Sense: group temperature = max over assigned racks.
            let group_temp = self.rack_groups[i]
                .iter()
                .map(|&r| self.plant.rack_temperature(r))
                .fold(f64::NEG_INFINITY, f64::max);
            let reading = self.sensors[i].read(group_temp, &mut self.rng);
            self.plcs[i]
                .set_input(0, Sensor::to_register(reading))
                .expect("input register 0 exists");
            // Scan the control program.
            self.plcs[i].scan().expect("validated program");
            // Actuate.
            let command = f64::from(self.plcs[i].holding(2).expect("register 2 exists"));
            let position = self.actuators[i].step(command, period);
            self.plant.set_fan_fraction(i, position / 100.0);
        }
        // Integrate plant physics at 1 s within the control period.
        self.plant.run_for(period, 1.0);
        self.elapsed += period;
    }

    /// Runs the closed loop for `duration` seconds of plant time.
    pub fn run_for(&mut self, duration: f64) {
        let mut t = 0.0;
        while t < duration {
            self.step_control_period();
            t += self.system.config.control_period;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plc::sabotage_program;

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
    fn closed_loop_holds_temperature() {
        let sys = ScopeSystem::build(&ScopeConfig::default());
        let mut rt = sys.into_runtime();
        rt.run_for(2.0 * 3600.0);
        assert!(
            rt.max_rack_temperature() < 45.0,
            "max {}",
            rt.max_rack_temperature()
        );
        assert_eq!(rt.tripped_count(), 0);
        // Fans actually spun up.
        assert!((0..4).any(|i| rt.actuator(i).position() > 10.0));
    }

    #[test]
    fn sabotaged_plcs_overheat_the_room() {
        let sys = ScopeSystem::build(&ScopeConfig::default());
        let mut rt = sys.into_runtime();
        rt.run_for(600.0); // reach steady operation
        for i in 0..4 {
            rt.plc_mut(i).install_program(sabotage_program());
        }
        rt.run_for(4.0 * 3600.0);
        assert!(
            rt.tripped_count() > 0,
            "sabotage should trip racks, max temp {}",
            rt.max_rack_temperature()
        );
        // The sabotage program also suppresses the PLC alarm coils.
        assert!(!rt.any_alarm());
    }

    #[test]
    fn partial_sabotage_is_less_damaging() {
        let build = || ScopeSystem::build(&ScopeConfig::default()).into_runtime();
        let mut full = build();
        let mut half = build();
        full.run_for(600.0);
        half.run_for(600.0);
        for i in 0..4 {
            full.plc_mut(i).install_program(sabotage_program());
        }
        for i in 0..2 {
            half.plc_mut(i).install_program(sabotage_program());
        }
        full.run_for(3600.0);
        half.run_for(3600.0);
        assert!(full.max_rack_temperature() > half.max_rack_temperature());
    }

    #[test]
    fn spoofed_sensor_masks_overheating() {
        let sys = ScopeSystem::build(&ScopeConfig::default());
        let mut rt = sys.into_runtime();
        rt.run_for(600.0);
        // Spoof every sensor at a cool 22 °C; fans wind down; plant heats.
        for i in 0..4 {
            rt.sensor_mut(i).compromise(22.0);
        }
        rt.run_for(2.0 * 3600.0);
        assert!(rt.max_rack_temperature() > 40.0);
        // Alarms stay silent because PLCs see the spoofed value.
        assert!(!rt.any_alarm());
    }

    #[test]
    fn water_loss_fault_injection() {
        let sys = ScopeSystem::build(&ScopeConfig::default());
        let mut rt = sys.into_runtime();
        rt.run_for(600.0);
        rt.plant_mut().water_availability = 0.0;
        rt.run_for(2.0 * 3600.0);
        assert!(
            rt.max_rack_temperature() > 40.0,
            "no chilled water → overheating"
        );
    }

    #[test]
    fn custom_config_scales_topology() {
        let cfg = ScopeConfig {
            racks: 16,
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
