//! # diversify-attack
//!
//! Threat-model substrate of the *Diversify!* (DSN 2013) reproduction.
//!
//! The paper formalizes attack progression *"in terms of the stages the
//! attack undergoes before success (e.g., initial, activated, root access,
//! network propagation, device impairment)"* and notes that Bayesian
//! networks, Petri nets (SANs) or attack trees can all express the model.
//! This crate provides **two of those formalisms**, attack trees and SANs,
//! plus a concrete campaign simulator that walks a
//! [`diversify_scada::ScadaNetwork`]:
//!
//! * [`stage`] — the five-stage progression model;
//! * [`exploit`] — per-variant success probabilities (the paper's
//!   "availability of tools and/or exploits" knob);
//! * [`campaign`] — Stuxnet-, Duqu- and Flame-like campaign models and the
//!   tick-based [`campaign::CampaignSimulator`] that produces the paper's
//!   three security indicators; its event-driven tick loop costs
//!   O(infection frontier), not O(nodes);
//! * [`frontier`] — the hierarchical-bitset active set behind the
//!   frontier engine;
//! * [`chain`] — the Sec. I motivating example (identical vs diverse
//!   machines, P_SA ≈ P_M vs P_SA ≈ P_M1 × P_M2);
//! * [`tree`] — attack trees with AND/OR semantics, success probability
//!   and minimal cut sets;
//! * [`to_san`] — compiles a stage progression into a
//!   [`diversify_san::SanModel`] so the SAN solver can cross-check the
//!   simulator (experiment R8);
//! * [`split`] — staged-task adapters ([`split::CampaignSplitTask`],
//!   [`split::StageChainTask`]) that plug the campaign simulator and
//!   the exponential stage chain into the multilevel-splitting
//!   rare-event estimator (`diversify_des::splitting`).

#![warn(missing_docs)]
// The unwrap/expect ban (clippy.toml `disallowed-methods`) is the
// fault-tolerance discipline of `diversify-des`/`diversify-core`; this
// crate predates it and is exercised through those hardened seams.
#![allow(clippy::disallowed_methods)]

pub mod campaign;
pub mod chain;
pub mod exploit;
pub mod frontier;
pub mod split;
pub mod stage;
pub mod to_san;
pub mod tree;

pub use campaign::{
    AttackGoal, CampaignCheckpoint, CampaignConfig, CampaignMilestone, CampaignOutcome,
    CampaignSimulator, MilestonePlacement, PilotedMilestones, StageRun, ThreatModel, TickObserver,
};
pub use chain::{chain_success_probability, simulate_chain, MachineChain};
pub use exploit::ExploitCatalog;
pub use split::{CampaignSplitTask, ChainState, StageChainTask};
pub use stage::{AttackStage, NodeCompromise};
pub use tree::{AttackTree, TreeNode};
