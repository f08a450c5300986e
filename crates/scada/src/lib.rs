//! # diversify-scada
//!
//! The SCADA substrate of the *Diversify!* (DSN 2013) reproduction: the
//! monitoring-and-control network an attack campaign spreads over — its
//! nodes, their diversifiable component profiles and the links between
//! them.
//!
//! * [`protocol`] — the fieldbus protocol's **diversified wire
//!   dialects**: the concrete mechanism by which protocol diversity breaks
//!   exploit portability.
//! * [`components`] — the HW/SW component classes the paper proposes to
//!   diversify (operating systems, PLC firmware, firewall policies, sensor
//!   vendors, historian stacks) with per-variant attack-resilience scores.
//! * [`network`] — the plant network: structure-of-arrays node state and
//!   a CSR topology (flat neighbor array, precomputed role/zone indexes)
//!   serving reachability and the centrality analysis used for
//!   *strategic* diversity placement.
//! * [`scope`] — a parameterized model of the SCoPE data-center cooling
//!   system's control network (the paper's case study).
//! * [`fleet`] — a tiered plant-family generator (plants → substations →
//!   field devices), deterministically seed-randomized and valid from
//!   10^2 to 10^6 nodes, for fleet-scale campaign studies.
//!
//! ## Quick start
//!
//! ```
//! use diversify_scada::scope::{ScopeConfig, ScopeSystem};
//! use diversify_scada::NodeRole;
//!
//! let system = ScopeSystem::build(&ScopeConfig::default());
//! let net = system.network();
//! // 3 office workstations, HMI, historian, engineering workstation,
//! // 2 field gateways and one PLC per CRAC unit.
//! assert_eq!(net.node_count(), 12);
//! assert_eq!(net.nodes_with_role(NodeRole::Plc).len(), 4);
//! // Flat routing: every node is reachable from an office workstation.
//! assert_eq!(net.reachable(system.office()[0]).len(), 12);
//! ```

#![warn(missing_docs)]
// The unwrap/expect ban (clippy.toml `disallowed-methods`) is the
// fault-tolerance discipline of `diversify-des`/`diversify-core`; this
// crate predates it and is exercised through those hardened seams.
#![allow(clippy::disallowed_methods)]

pub mod components;
pub mod fleet;
pub mod network;
pub mod protocol;
pub mod scope;

pub use components::{
    ComponentClass, ComponentProfile, FirewallPolicy, HistorianStack, OsVariant, PlcFirmware,
    SensorVendor,
};
pub use fleet::{FleetConfig, FleetSystem};
pub use network::{LinkId, NodeId, NodeRole, ScadaNetwork, Topology, Zone};
pub use protocol::dialect::ProtocolDialect;
