//! Diversity configurations: which variant of each component class every
//! node runs.

use diversify_scada::components::{
    ComponentClass, ComponentProfile, FirewallPolicy, HistorianStack, OsVariant, PlcFirmware,
    SensorVendor,
};
use diversify_scada::network::ScadaNetwork;
use diversify_scada::protocol::dialect::ProtocolDialect;
use serde::{Deserialize, Serialize};

/// A system-wide diversity configuration: one profile applied uniformly,
/// plus per-class overrides that *rotate* variants across nodes to create
/// heterogeneity.
///
/// `rotate` classes assign variant `i % variants` to the `i`-th node of
/// the relevant kind, which is the cheapest way to guarantee that two
/// adjacent nodes rarely share a variant (the paper's "smartly combine
/// diverse technologies").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct DiversityConfig {
    /// The base profile applied to every node first.
    pub base: ComponentProfile,
    /// Component classes whose variants are rotated across nodes.
    pub rotate: Vec<ComponentClass>,
}

impl DiversityConfig {
    /// The homogeneous monoculture (the paper's baseline).
    #[must_use]
    pub fn monoculture() -> Self {
        DiversityConfig::default()
    }

    /// Rotate every component class — maximum heterogeneity.
    #[must_use]
    pub fn full_rotation() -> Self {
        DiversityConfig {
            base: ComponentProfile::default(),
            rotate: ComponentClass::ALL.to_vec(),
        }
    }

    /// Rotates a single class (used by the per-factor ablations).
    #[must_use]
    pub fn rotate_only(class: ComponentClass) -> Self {
        DiversityConfig {
            base: ComponentProfile::default(),
            rotate: vec![class],
        }
    }

    /// Applies the configuration to every node of `network`.
    ///
    /// Node `i`'s profile depends on `i` only modulo the rotation period
    /// (the lcm of the rotated classes' variant counts), so the profiles
    /// of one block of whole periods are computed once and copied over
    /// the profile slice in one pass.
    pub fn apply(&self, network: &mut ScadaNetwork) {
        let period = self
            .rotate
            .iter()
            .fold(1, |period, &class| lcm(period, variant_count(class)));
        // At least 64 profiles per block, so that each copy below moves
        // a run of profiles even when the period is 1 (monoculture).
        let block = period * 64usize.div_ceil(period);
        let table: Vec<ComponentProfile> = (0..block)
            .map(|i| {
                let mut profile = self.base;
                for class in &self.rotate {
                    rotate_class(&mut profile, *class, i);
                }
                profile
            })
            .collect();
        for chunk in network.profiles_mut().chunks_mut(block) {
            chunk.copy_from_slice(&table[..chunk.len()]);
        }
    }
}

/// Number of variants of `class`.
fn variant_count(class: ComponentClass) -> usize {
    match class {
        ComponentClass::OperatingSystem => OsVariant::ALL.len(),
        ComponentClass::PlcFirmware => PlcFirmware::ALL.len(),
        ComponentClass::ProtocolDialect => ProtocolDialect::ALL.len(),
        ComponentClass::Firewall => FirewallPolicy::ALL.len(),
        ComponentClass::Sensor => SensorVendor::ALL.len(),
        ComponentClass::Historian => HistorianStack::ALL.len(),
    }
}

fn lcm(a: usize, b: usize) -> usize {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    a / x * b
}

/// Sets the `class` variant of `profile` to the `i`-th variant (mod the
/// class's variant count).
fn rotate_class(profile: &mut ComponentProfile, class: ComponentClass, i: usize) {
    match class {
        ComponentClass::OperatingSystem => {
            profile.os = OsVariant::ALL[i % OsVariant::ALL.len()];
        }
        ComponentClass::PlcFirmware => {
            profile.plc_firmware = PlcFirmware::ALL[i % PlcFirmware::ALL.len()];
        }
        ComponentClass::ProtocolDialect => {
            profile.dialect = ProtocolDialect::ALL[i % ProtocolDialect::ALL.len()];
        }
        ComponentClass::Firewall => {
            profile.firewall = FirewallPolicy::ALL[i % FirewallPolicy::ALL.len()];
        }
        ComponentClass::Sensor => {
            profile.sensor = SensorVendor::ALL[i % SensorVendor::ALL.len()];
        }
        ComponentClass::Historian => {
            profile.historian = HistorianStack::ALL[i % HistorianStack::ALL.len()];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversify_scada::fleet::{FleetConfig, FleetSystem};
    use diversify_scada::scope::{ScopeConfig, ScopeSystem};

    fn network() -> ScadaNetwork {
        ScopeSystem::build(&ScopeConfig::default())
            .network()
            .clone()
    }

    #[test]
    fn monoculture_leaves_everything_identical() {
        let mut net = network();
        DiversityConfig::monoculture().apply(&mut net);
        let profiles: Vec<_> = net.node_ids().map(|id| *net.profile(id)).collect();
        assert!(profiles.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(profiles[0], ComponentProfile::default());
    }

    #[test]
    fn full_rotation_diversifies_neighbors() {
        let mut net = network();
        DiversityConfig::full_rotation().apply(&mut net);
        // Adjacent node indices get different OS variants.
        let ids: Vec<_> = net.node_ids().collect();
        let a = *net.profile(ids[0]);
        let b = *net.profile(ids[1]);
        assert_ne!(a.os, b.os);
        assert_ne!(a.dialect, b.dialect);
    }

    #[test]
    fn rotate_only_touches_one_class() {
        let mut net = network();
        DiversityConfig::rotate_only(ComponentClass::ProtocolDialect).apply(&mut net);
        let ids: Vec<_> = net.node_ids().collect();
        let a = *net.profile(ids[0]);
        let b = *net.profile(ids[1]);
        assert_ne!(a.dialect, b.dialect);
        assert_eq!(a.os, b.os);
        assert_eq!(a.plc_firmware, b.plc_firmware);
    }

    #[test]
    fn rotation_cycles_through_all_variants() {
        let mut net = network();
        DiversityConfig::rotate_only(ComponentClass::OperatingSystem).apply(&mut net);
        let distinct: std::collections::HashSet<_> =
            net.node_ids().map(|id| net.profile(id).os).collect();
        assert_eq!(distinct.len(), OsVariant::ALL.len());
    }

    #[test]
    fn apply_gives_every_node_its_rotation_across_copy_blocks() {
        let mut net = FleetSystem::build(&FleetConfig::sized(1_000, 3))
            .network()
            .clone();
        let configs = [
            DiversityConfig::monoculture(),
            DiversityConfig::full_rotation(),
            DiversityConfig::rotate_only(ComponentClass::Firewall),
            DiversityConfig {
                base: ComponentProfile::hardened(),
                rotate: vec![ComponentClass::Sensor, ComponentClass::OperatingSystem],
            },
        ];
        for config in configs {
            config.apply(&mut net);
            for (i, profile) in net.profiles().iter().enumerate() {
                let mut want = config.base;
                for &class in &config.rotate {
                    rotate_class(&mut want, class, i);
                }
                assert_eq!(*profile, want, "node {i} under {config:?}");
            }
        }
    }

    #[test]
    fn config_serializes() {
        let c = DiversityConfig::full_rotation();
        let json = serde_json::to_string(&c).unwrap();
        let back: DiversityConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
