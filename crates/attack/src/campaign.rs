//! Campaign models and the tick-based campaign simulator.
//!
//! A campaign walks the plant network stage by stage: initial infection at
//! an entry node, activation, privilege escalation, lateral propagation,
//! and (for sabotage threats) PLC reprogramming → device impairment. Each
//! tick is one hour of attacker wall-clock time; every stochastic step
//! draws from the [`ExploitCatalog`] probabilities, which in turn depend
//! on the per-node [`ComponentProfile`]s — that is precisely where
//! diversity enters.
//!
//! # The event-driven frontier engine
//!
//! [`CampaignSimulator::run_into`] no longer scans the whole node array
//! each tick. It maintains three [`ActiveSet`]s between ticks — the
//! *infected* set (escalation candidates), the *lateral frontier*
//! (nodes ≥ Rooted that still have at least one clean neighbor, tracked
//! with a per-node compromised-neighbor counter over the CSR topology),
//! and the *payload-eligible* set (PLCs with a non-zero payload
//! probability, not yet reprogrammed, with a rooted self-or-neighbor) —
//! so a tick costs O(frontier), not O(nodes). On a 10^5-node fleet
//! where the campaign touches one plant, the other ~99 900 nodes are
//! never visited.
//!
//! Ascending-id cursor traversal of the sets reproduces, draw for draw,
//! what a dense ascending scan with visit-time eligibility checks
//! produces, so the engine stays **bit-identical** to
//! [`CampaignSimulator::run_reference`] — the dense oracle kept alive
//! precisely to prove that (`tests/frontier_differential.rs`). Each
//! sweep's [`Cursor`](crate::frontier::Cursor) caches its current
//! bitset word, so it must re-read that word (`resync`) wherever the
//! sweep changes its own set ahead of it: the lateral sweep after each
//! infection, which can saturate a later source, and the payload sweep
//! after each delivery, which can make a neighboring PLC eligible. The
//! escalation sweep removes only the node it visits and needs none.
//!
//! One model-semantics change accompanied this engine (PR 6): a rooted
//! node whose neighbors are all compromised no longer makes lateral
//! attempts. Those attempts could never change state — every draw
//! landed on a non-clean destination and was skipped — but each
//! consumed RNG draws, which both bound throughput to O(rooted) per
//! tick and made an O(frontier) schedule impossible. Dropping them
//! changes per-seed trajectories but **not the distribution** of any
//! indicator: the removed draws had no state effect. Seeds recorded
//! before PR 6 therefore replay to different (equally valid)
//! trajectories.

use crate::exploit::ExploitCatalog;
use crate::frontier::ActiveSet;
use crate::stage::{AttackStage, NodeCompromise};
use diversify_des::{derive_seed, Executor, IndexDraw, ReplicationPlan, RngStream, StreamId};
use diversify_scada::components::{ComponentProfile, FirewallPolicy, OsVariant, PlcFirmware};
use diversify_scada::network::{NodeId, NodeRole, ScadaNetwork, Topology, Zone};
use diversify_scada::ProtocolDialect;
use serde::{Deserialize, Serialize};

/// What the attacker is trying to achieve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttackGoal {
    /// Reprogram at least this fraction of the plant's PLCs (sabotage,
    /// Stuxnet-like).
    ImpairDevices {
        /// Required fraction of PLCs in `(0, 1]`.
        fraction: f64,
    },
    /// Hold a foothold on the historian/engineering data for the given
    /// number of ticks (espionage, Duqu/Flame-like).
    Exfiltrate {
        /// Consecutive ticks of data access required.
        ticks: u32,
    },
}

/// A named threat model: an exploit catalog plus behavioural parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreatModel {
    /// Display name.
    pub name: String,
    /// The exploit catalog.
    pub catalog: ExploitCatalog,
    /// Stealth in `[0,1]`: scales detection probability down.
    pub stealth: f64,
    /// Lateral-movement attempts per compromised node per tick.
    pub attempts_per_tick: u32,
    /// The campaign goal.
    pub goal: AttackGoal,
}

impl ThreatModel {
    /// The Stuxnet-like sabotage threat (the paper's reference attack).
    #[must_use]
    pub fn stuxnet_like() -> Self {
        ThreatModel {
            name: "stuxnet-like".to_string(),
            catalog: ExploitCatalog::stuxnet_like(),
            stealth: 0.85,
            attempts_per_tick: 2,
            goal: AttackGoal::ImpairDevices { fraction: 0.5 },
        }
    }

    /// The Duqu-like espionage threat (paper future work).
    #[must_use]
    pub fn duqu_like() -> Self {
        ThreatModel {
            name: "duqu-like".to_string(),
            catalog: ExploitCatalog::duqu_like(),
            stealth: 0.92,
            attempts_per_tick: 1,
            goal: AttackGoal::Exfiltrate { ticks: 24 },
        }
    }

    /// The Flame-like espionage threat (paper future work).
    #[must_use]
    pub fn flame_like() -> Self {
        ThreatModel {
            name: "flame-like".to_string(),
            catalog: ExploitCatalog::flame_like(),
            stealth: 0.70,
            attempts_per_tick: 3,
            goal: AttackGoal::Exfiltrate { ticks: 12 },
        }
    }
}

/// Campaign simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Maximum ticks (hours) to simulate.
    pub max_ticks: u32,
    /// Whether detection ends the campaign (defenders remediate) or is
    /// merely recorded (pure observation, the paper's TTSF definition).
    pub detection_stops_attack: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            max_ticks: 24 * 365, // one year of attacker persistence
            detection_stops_attack: false,
        }
    }
}

/// Result of one simulated campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Tick at which the goal was achieved (Time-To-Attack), if it was.
    pub time_to_attack: Option<u32>,
    /// Tick at which the defenders first perceived the attack
    /// (Time-To-Security-Failure), if they did.
    pub time_to_detection: Option<u32>,
    /// Compromised ratio sampled at every tick (index = tick).
    pub compromised_ratio: Vec<f64>,
    /// Final per-node compromise states.
    pub final_states: Vec<NodeCompromise>,
    /// Deepest stage reached.
    pub deepest_stage: AttackStage,
    /// Number of lateral-movement attempts blocked by firewalls.
    pub firewall_blocks: u32,
    /// Number of PLC payload deliveries that failed on dialect mismatch
    /// or firmware resilience.
    pub payload_failures: u32,
}

impl CampaignOutcome {
    /// Whether the campaign achieved its goal.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.time_to_attack.is_some()
    }

    /// The compromised ratio at the end of the run.
    #[must_use]
    pub fn final_compromised_ratio(&self) -> f64 {
        self.compromised_ratio.last().copied().unwrap_or(0.0)
    }

    /// The scalar per-replication summary of this outcome — what the
    /// streaming indicator collectors consume.
    #[must_use]
    pub fn stats(&self) -> CampaignStats {
        CampaignStats::from(self)
    }
}

/// The scalar results of one campaign replication: everything the
/// indicator aggregation consumes, with no heap-owning field, so the
/// replication hot loop can report it without allocating. The full
/// trajectory (per-tick ratio curve, final per-node states) stays in
/// the [`CampaignWorkspace`] it was simulated in; callers that need it
/// materialize a [`CampaignOutcome`] via [`CampaignSimulator::run`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignStats {
    /// Tick at which the goal was achieved (Time-To-Attack), if it was.
    pub time_to_attack: Option<u32>,
    /// Tick at which the defenders first perceived the attack
    /// (Time-To-Security-Failure), if they did.
    pub time_to_detection: Option<u32>,
    /// Compromised ratio at the end of the run.
    pub final_compromised_ratio: f64,
    /// Deepest stage reached.
    pub deepest_stage: AttackStage,
    /// Number of lateral-movement attempts blocked by firewalls.
    pub firewall_blocks: u32,
    /// Number of failed PLC payload deliveries.
    pub payload_failures: u32,
}

impl CampaignStats {
    /// Whether the campaign achieved its goal.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.time_to_attack.is_some()
    }

    /// Whether every numeric field is finite and in range — the
    /// validator fault-tolerant measurement runs use to reject corrupted
    /// replications before they poison a streaming aggregate. The
    /// simulator produces only finite ratios in `[0, 1]` by
    /// construction, so a rejection always indicates a fault.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.final_compromised_ratio.is_finite()
            && (0.0..=1.0).contains(&self.final_compromised_ratio)
    }
}

impl From<&CampaignOutcome> for CampaignStats {
    fn from(o: &CampaignOutcome) -> Self {
        CampaignStats {
            time_to_attack: o.time_to_attack,
            time_to_detection: o.time_to_detection,
            final_compromised_ratio: o.final_compromised_ratio(),
            deepest_stage: o.deepest_stage,
            firewall_blocks: o.firewall_blocks,
            payload_failures: o.payload_failures,
        }
    }
}

impl From<&CampaignStats> for CampaignStats {
    fn from(s: &CampaignStats) -> Self {
        *s
    }
}

/// Reusable per-replication state of the frontier campaign engine.
/// Created once per worker (via [`CampaignSimulator::workspace`]) and
/// handed to [`CampaignSimulator::run_into`] for every replication;
/// buffers are reused, never reallocated, so the steady state runs
/// allocation-free (`tests/zero_alloc.rs` asserts this — including at
/// 10^4 nodes).
///
/// Memory is **frontier-proportional where it can be** and
/// reset-cost-proportional everywhere: the three active sets are
/// bitsets cleared by walking their summaries, and the O(n) state and
/// counter arrays are wiped through dirty lists, so preparing a
/// replication costs O(touched nodes), not O(n). A full O(n)
/// initialization happens only when the workspace first meets a
/// network of a different size.
#[derive(Debug, Clone, Default)]
pub struct CampaignWorkspace {
    /// Per-node compromise states of the most recent replication.
    states: Vec<NodeCompromise>,
    /// Per-node count of non-clean neighbors. A node ≥ Rooted belongs
    /// to the lateral frontier iff this is below its degree.
    compromised_nbrs: Vec<u32>,
    /// Compromised ratio sampled at every tick of the most recent
    /// replication (index = tick).
    ratio_curve: Vec<f64>,
    /// Nodes with state exactly Infected (escalation candidates).
    infected: ActiveSet,
    /// Nodes ≥ Rooted with at least one clean neighbor (lateral
    /// sources).
    frontier: ActiveSet,
    /// PLCs with non-zero payload probability, not yet reprogrammed,
    /// whose self-or-neighbor is ≥ Rooted.
    eligible: ActiveSet,
    /// Nodes whose state left Clean this replication (reset list).
    dirty_states: Vec<u32>,
    /// Nodes whose `compromised_nbrs` left zero this replication
    /// (reset list).
    dirty_degrees: Vec<u32>,
}

impl CampaignWorkspace {
    /// An empty workspace; buffers size themselves on first use.
    #[must_use]
    pub fn new() -> Self {
        CampaignWorkspace::default()
    }

    /// Prepares the workspace for a fresh replication over `n` nodes:
    /// sparse reset through the dirty lists when the size matches, full
    /// (re)initialization otherwise.
    fn reset(&mut self, n: usize) {
        self.ratio_curve.clear();
        if self.states.len() == n {
            for &i in &self.dirty_states {
                self.states[i as usize] = NodeCompromise::Clean;
            }
            for &i in &self.dirty_degrees {
                self.compromised_nbrs[i as usize] = 0;
            }
            self.dirty_states.clear();
            self.dirty_degrees.clear();
            self.infected.clear();
            self.frontier.clear();
            self.eligible.clear();
        } else {
            self.states.clear();
            self.states.resize(n, NodeCompromise::Clean);
            self.compromised_nbrs.clear();
            self.compromised_nbrs.resize(n, 0);
            self.dirty_states.clear();
            self.dirty_degrees.clear();
            self.infected.resize(n);
            self.frontier.resize(n);
            self.eligible.resize(n);
        }
    }

    /// Per-node compromise states of the most recent replication.
    #[must_use]
    pub fn states(&self) -> &[NodeCompromise] {
        &self.states
    }

    /// The per-tick compromised-ratio curve of the most recent
    /// replication (index = tick).
    #[must_use]
    pub fn ratio_curve(&self) -> &[f64] {
        &self.ratio_curve
    }
}

/// Bookkeeping when node `id` leaves the Clean state: every neighbor's
/// compromised counter advances, and a rooted neighbor whose last clean
/// neighbor just vanished is saturated — it leaves the lateral frontier
/// (its attempts could no longer change state). The caller updates
/// `states[id]` and the clean counter itself.
fn note_left_clean(
    topo: &Topology,
    id: NodeId,
    states: &[NodeCompromise],
    compromised_nbrs: &mut [u32],
    frontier: &mut ActiveSet,
    dirty_states: &mut Vec<u32>,
    dirty_degrees: &mut Vec<u32>,
) {
    dirty_states.push(id.index() as u32);
    for &nb in topo.neighbors(id) {
        let i = nb.index();
        if compromised_nbrs[i] == 0 {
            dirty_degrees.push(i as u32);
        }
        compromised_nbrs[i] += 1;
        if compromised_nbrs[i] as usize == topo.degree(nb) && states[i] >= NodeCompromise::Rooted {
            frontier.remove(i);
        }
    }
}

/// Bookkeeping when node `id` reaches Rooted (or Reprogrammed, which
/// also spreads laterally): it joins the frontier if it still has a
/// clean neighbor, payload-capable PLCs in its closed neighborhood
/// become eligible, and the exfiltration foothold counter advances for
/// data-bearing roles. Called after `states[id]` is updated.
#[allow(clippy::too_many_arguments)]
fn note_rooted(
    net: &ScadaNetwork,
    topo: &Topology,
    probs: &ProbTables,
    id: NodeId,
    states: &[NodeCompromise],
    compromised_nbrs: &[u32],
    frontier: &mut ActiveSet,
    eligible: &mut ActiveSet,
    data_rooted: &mut u32,
) {
    let i = id.index();
    if (compromised_nbrs[i] as usize) < topo.degree(id) {
        frontier.insert(i);
    }
    if probs.class(i).payload > 0.0 && states[i] != NodeCompromise::Reprogrammed {
        eligible.insert(i);
    }
    for &nb in topo.neighbors(id) {
        let j = nb.index();
        if probs.class(j).payload > 0.0 && states[j] != NodeCompromise::Reprogrammed {
            eligible.insert(j);
        }
    }
    if matches!(
        net.role(id),
        NodeRole::Historian | NodeRole::EngineeringWorkstation
    ) {
        *data_rooted += 1;
    }
}

/// Scalar tick-loop state of one campaign replication — everything the
/// tick stepper mutates besides the workspace buffers. Snapshotting it
/// (plus the sparse non-clean node states) is what makes a replication
/// resumable mid-flight for the multilevel-splitting engine.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Progress {
    /// Total nodes in the network.
    nodes: usize,
    /// Ticks simulated so far.
    tick: u32,
    deepest: AttackStage,
    time_to_attack: Option<u32>,
    time_to_detection: Option<u32>,
    firewall_blocks: u32,
    payload_failures: u32,
    exfil_ticks: u32,
    /// Nodes still Clean.
    clean: usize,
    /// PLCs Reprogrammed.
    reprogrammed: usize,
    /// Data-bearing nodes ≥ Rooted.
    data_rooted: u32,
    /// Detection ended the campaign (`detection_stops_attack`).
    halted: bool,
}

impl Progress {
    fn fresh(nodes: usize) -> Self {
        Progress {
            nodes,
            tick: 0,
            deepest: AttackStage::Initial,
            time_to_attack: None,
            time_to_detection: None,
            firewall_blocks: 0,
            payload_failures: 0,
            exfil_ticks: 0,
            clean: nodes,
            reprogrammed: 0,
            data_rooted: 0,
            halted: false,
        }
    }

    /// Nothing further can change: remediation halted the campaign, or
    /// both terminal observables are already recorded.
    fn done(&self) -> bool {
        self.halted || (self.time_to_attack.is_some() && self.time_to_detection.is_some())
    }

    /// Current compromised ratio.
    fn ratio(&self) -> f64 {
        (self.nodes - self.clean) as f64 / self.nodes as f64
    }

    fn stats(&self, final_compromised_ratio: f64) -> CampaignStats {
        CampaignStats {
            time_to_attack: self.time_to_attack,
            time_to_detection: self.time_to_detection,
            final_compromised_ratio,
            deepest_stage: self.deepest,
            firewall_blocks: self.firewall_blocks,
            payload_failures: self.payload_failures,
        }
    }
}

/// A monotone campaign milestone — the level boundaries of the
/// multilevel-splitting estimator. Compromise states only advance
/// (`Clean < Infected < Rooted < Reprogrammed`) and the deepest stage,
/// non-clean count and reprogrammed count are monotone over ticks, so a
/// crossed milestone stays crossed; that nesting is what makes
/// fixed-effort splitting over these levels unbiased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignMilestone {
    /// At least one node has reached root access.
    Rooted,
    /// At least this many nodes have left the Clean state.
    SpreadAtLeast(usize),
    /// At least one PLC payload was delivered (a PLC reprogrammed).
    PayloadDelivered,
    /// The campaign goal was achieved (Time-To-Attack recorded).
    GoalReached,
}

impl CampaignMilestone {
    fn reached(self, pr: &Progress) -> bool {
        match self {
            CampaignMilestone::Rooted => pr.deepest >= AttackStage::RootAccess,
            CampaignMilestone::SpreadAtLeast(k) => pr.nodes - pr.clean >= k,
            CampaignMilestone::PayloadDelivered => pr.reprogrammed > 0,
            CampaignMilestone::GoalReached => pr.time_to_attack.is_some(),
        }
    }
}

/// A resumable between-ticks snapshot of one campaign replication: the
/// scalar progress plus the sparse ascending list of non-clean node
/// states. Restoring rebuilds the workspace's dense arrays and active
/// sets deterministically, so a stage resumed from a checkpoint is a
/// pure function of `(checkpoint, seed)` — independent of whatever the
/// workspace held before.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    progress: Progress,
    /// `(node index, state)` for every non-clean node, ascending.
    states: Vec<(u32, NodeCompromise)>,
}

impl CampaignCheckpoint {
    /// Whether the campaign goal was achieved by this point.
    #[must_use]
    pub fn succeeded(&self) -> bool {
        self.progress.time_to_attack.is_some()
    }

    /// Ticks simulated up to this snapshot.
    #[must_use]
    pub fn tick(&self) -> u32 {
        self.progress.tick
    }

    /// The scalar campaign statistics as of this snapshot. The
    /// compromised ratio is the snapshot's current ratio (a resumed
    /// segment's curve covers only that segment).
    #[must_use]
    pub fn stats(&self) -> CampaignStats {
        self.progress.stats(self.progress.ratio())
    }

    /// Number of nodes that had left the Clean state by this snapshot —
    /// the monotone metric [`CampaignMilestone::SpreadAtLeast`]
    /// thresholds on. Spread never decreases, so a trajectory's exit
    /// spread is also its maximum.
    #[must_use]
    pub fn spread(&self) -> usize {
        self.progress.nodes - self.progress.clean
    }
}

/// The result of [`CampaignSimulator::run_stage`]: where the
/// replication stopped, whether the milestone was crossed, and how many
/// ticks the segment consumed (the splitting cost metric).
#[derive(Debug, Clone, PartialEq)]
pub struct StageRun {
    /// Snapshot at segment exit (milestone crossing, goal, halt, or
    /// horizon).
    pub checkpoint: CampaignCheckpoint,
    /// Whether the milestone was crossed before halt or horizon.
    pub reached: bool,
    /// Ticks simulated in this segment.
    pub ticks: u32,
}

/// Merges two ascending, disjoint id slices into one ascending vector.
fn merge_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The probability tables the tick stepper reads, filled **once at
/// simulator construction** (profiles cannot change while the
/// simulator borrows the network): each entry is the same pure `f64`
/// catalog expression [`CampaignSimulator::run_reference`] evaluates
/// per draw, so lookups are bit-identical to live computation. Filling
/// per replication would cost O(nodes) against a tick loop that costs
/// O(frontier) — at fleet scale the fill would dominate the
/// replications it serves.
///
/// Entries are stored once per node class (see [`node_class`]), and
/// each node holds only the 2-byte index of its class: a generated
/// fleet has 6 classes under monoculture and 72 under full rotation,
/// so a 10^6-node fleet's tables take 2 MB where an entry per node
/// would take 40 MB.
#[derive(Debug)]
struct ProbTables {
    /// Each node's index into `classes`.
    class_of: Vec<u16>,
    /// One entry per node class present in the network, in order of
    /// first appearance.
    classes: Vec<ClassProbs>,
    detection_quiet: f64,
    detection_active: f64,
}

/// One node class's precomputed tick-loop constants, packed so a single
/// line fill serves the firewall, dialect, and infection questions the
/// lateral loop asks about a destination back-to-back, instead of a
/// [`ComponentProfile`] walk plus catalog arithmetic for each.
#[derive(Debug, Clone, Copy)]
struct ClassProbs {
    infection: f64,
    escalation: f64,
    firewall_pass: f64,
    /// PLC payload probability; zero for non-PLCs and for threats
    /// without a PLC payload.
    payload: f64,
    dialect: ProtocolDialect,
    /// Whether the node's role demands the wire dialect (PLC or field
    /// gateway destination).
    needs_dialect: bool,
    zone: Zone,
}

/// Number of node classes: every combination of the attributes a
/// [`ClassProbs`] entry reads.
const NODE_CLASSES: usize = OsVariant::ALL.len()
    * ProtocolDialect::ALL.len()
    * FirewallPolicy::ALL.len()
    * PlcFirmware::ALL.len()
    * NodeRole::ALL.len()
    * Zone::ALL.len();

// Class indexes are `u16`s, and `ProbTables::build` marks a class not
// yet seen with `u16::MAX`, so every index must lie below it.
const _: () = assert!(NODE_CLASSES <= u16::MAX as usize);

/// A node's class: a direct index over the enum discriminants of its OS,
/// dialect, firewall, PLC firmware, role and zone — the only inputs of
/// its table entries — below [`NODE_CLASSES`].
fn node_class(profile: &ComponentProfile, role: NodeRole, zone: Zone) -> usize {
    let mut class = profile.os as usize;
    class = class * ProtocolDialect::ALL.len() + profile.dialect as usize;
    class = class * FirewallPolicy::ALL.len() + profile.firewall as usize;
    class = class * PlcFirmware::ALL.len() + profile.plc_firmware as usize;
    class = class * NodeRole::ALL.len() + role.index();
    class * Zone::ALL.len() + zone.index()
}

impl ProbTables {
    /// Builds the tables for `network` under `threat`.
    ///
    /// The catalog expressions run once per distinct node class, on the
    /// profile of the class's first node — the same IEEE results a
    /// per-node evaluation gives for every node of the class, since a
    /// class fixes every input of those expressions, so trajectories
    /// are unchanged.
    fn build(
        network: &ScadaNetwork,
        threat: &ThreatModel,
        historian: &ComponentProfile,
        sensor: &ComponentProfile,
    ) -> ProbTables {
        let cat = &threat.catalog;
        // Position of each class seen so far in `classes`.
        let mut slot = vec![u16::MAX; NODE_CLASSES];
        let mut classes = Vec::new();
        let mut class_of = Vec::new();
        class_of.reserve_exact(network.node_count());
        for (i, p) in network.profiles().iter().enumerate() {
            let id = NodeId::from_index(i);
            let (role, zone) = (network.role(id), network.zone(id));
            let class = node_class(p, role, zone);
            if slot[class] == u16::MAX {
                slot[class] = classes.len() as u16;
                classes.push(ClassProbs {
                    infection: cat.infection_probability(p),
                    escalation: cat.escalation_probability(p),
                    firewall_pass: cat.firewall_pass_probability(p),
                    payload: if role == NodeRole::Plc {
                        cat.plc_payload_probability(p)
                    } else {
                        0.0
                    },
                    dialect: p.dialect,
                    needs_dialect: matches!(role, NodeRole::Plc | NodeRole::FieldGateway),
                    zone,
                });
            }
            class_of.push(slot[class]);
        }
        ProbTables {
            class_of,
            classes,
            detection_quiet: cat.detection_probability(historian, sensor, false, threat.stealth),
            detection_active: cat.detection_probability(historian, sensor, true, threat.stealth),
        }
    }

    /// The table entry of node `i`'s class.
    #[inline]
    fn class(&self, i: usize) -> &ClassProbs {
        &self.classes[usize::from(self.class_of[i])]
    }

    #[inline]
    fn detection_p(&self, impairment_active: bool) -> f64 {
        if impairment_active {
            self.detection_active
        } else {
            self.detection_quiet
        }
    }
}

/// Tick-based Monte-Carlo campaign simulator over a plant network.
///
/// Network-derived constants (entry points, PLC ids and their payload
/// probabilities, detection profiles, the CSR topology reference) are
/// resolved once at construction — from the network's precomputed
/// role/zone indexes, without allocating scans — so each replication
/// starts without re-touching the topology. Within a replication the
/// event-driven tick loop (see the module docs) costs O(frontier), not
/// O(nodes).
#[derive(Debug)]
pub struct CampaignSimulator<'n> {
    network: &'n ScadaNetwork,
    topo: &'n Topology,
    threat: ThreatModel,
    config: CampaignConfig,
    /// Entry-point node ids (initial-infection candidates), ascending.
    entries: Vec<NodeId>,
    /// PLC node ids (payload targets) — the network's role index.
    plc_ids: &'n [NodeId],
    /// Historian/engineering node ids (exfiltration targets), ascending.
    data_ids: Vec<NodeId>,
    /// Representative profiles for detection: the historian node and a
    /// field sensor owner (first PLC).
    historian_profile: ComponentProfile,
    sensor_profile: ComponentProfile,
    /// Per-class probability tables of the tick stepper (PLC payload
    /// probabilities included), precomputed here because profiles
    /// cannot change while the simulator borrows the network.
    tables: ProbTables,
    /// `lateral_draws[d - 1]` draws a neighbor position of a degree-`d`
    /// node, for every degree up to the topology's maximum: the lateral
    /// loop's bounded draws without a division.
    lateral_draws: Vec<IndexDraw>,
    /// PLCs that must be reprogrammed to meet an
    /// [`AttackGoal::ImpairDevices`] goal (see [`goal_plcs`]); `usize::MAX`
    /// under other goals.
    goal_plcs: usize,
}

/// The fewest reprogrammed PLCs `r` in `0..=plcs` for which the dense
/// reference's goal test `r as f64 / plcs.max(1) as f64 >= fraction`
/// holds, or `plcs + 1` when none does. The quotient never falls as `r`
/// grows (IEEE division rounds monotonically), so the counts that pass
/// are a suffix of `0..=plcs`, and a binary search over that same
/// expression finds where it starts: the stepper's integer test
/// `reprogrammed >= goal_plcs` then agrees with the f64 test at every
/// count.
fn goal_plcs(fraction: f64, plcs: usize) -> usize {
    let total = plcs.max(1) as f64;
    let (mut lo, mut hi) = (0, plcs + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if mid as f64 / total >= fraction {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

impl<'n> CampaignSimulator<'n> {
    /// Creates a simulator for `threat` against `network`.
    ///
    /// Costs one pass over the nodes to record each node's class (OS,
    /// dialect, firewall, PLC firmware, role and zone) in a 2-byte
    /// index; the catalog values are computed and stored once per class
    /// present, not once per node. The CSR topology is the network's
    /// shared cache, built at most once per plant. The lateral draws
    /// cost one [`IndexDraw`] per degree up to the topology's recorded
    /// maximum.
    #[must_use]
    pub fn new(network: &'n ScadaNetwork, threat: ThreatModel, config: CampaignConfig) -> Self {
        let topo = network.topology();
        let entries = merge_sorted(
            topo.with_role(NodeRole::OfficeWorkstation),
            topo.with_role(NodeRole::EngineeringWorkstation),
        );
        let plc_ids = topo.with_role(NodeRole::Plc);
        let data_ids = merge_sorted(
            topo.with_role(NodeRole::Historian),
            topo.with_role(NodeRole::EngineeringWorkstation),
        );
        let historian_profile = topo
            .with_role(NodeRole::Historian)
            .first()
            .map(|&id| *network.profile(id))
            .unwrap_or_default();
        let sensor_profile = plc_ids
            .first()
            .map(|&id| *network.profile(id))
            .unwrap_or_default();
        let tables = ProbTables::build(network, &threat, &historian_profile, &sensor_profile);
        let lateral_draws = (1..=topo.max_degree()).map(IndexDraw::new).collect();
        let goal_plcs = match threat.goal {
            AttackGoal::ImpairDevices { fraction } => goal_plcs(fraction, plc_ids.len()),
            AttackGoal::Exfiltrate { .. } => usize::MAX,
        };
        CampaignSimulator {
            network,
            topo,
            threat,
            config,
            entries,
            plc_ids,
            data_ids,
            historian_profile,
            sensor_profile,
            tables,
            lateral_draws,
            goal_plcs,
        }
    }

    /// The threat model under simulation.
    #[must_use]
    pub fn threat(&self) -> &ThreatModel {
        &self.threat
    }

    /// A workspace sized for this simulator's network — create one per
    /// worker and pass it to [`CampaignSimulator::run_into`] for every
    /// replication (the idiom behind `Executor::run_ws`).
    #[must_use]
    pub fn workspace(&self) -> CampaignWorkspace {
        let mut ws = CampaignWorkspace::new();
        ws.reset(self.network.node_count());
        ws
    }

    /// Runs one campaign replication with the given seed — the
    /// compatibility entry point that materializes a full
    /// [`CampaignOutcome`] (ratio curve + final states). It allocates a
    /// fresh workspace per call; hot loops should hold a
    /// [`CampaignWorkspace`] and call [`CampaignSimulator::run_into`]
    /// instead. Trajectories are bit-identical between the two.
    #[must_use]
    pub fn run(&self, seed: u64) -> CampaignOutcome {
        let mut ws = self.workspace();
        let stats = self.run_into(&mut ws, seed);
        let CampaignWorkspace {
            states,
            mut ratio_curve,
            ..
        } = ws;
        // The curve is sized lazily, so trim the growth slack instead of
        // handing callers a buffer reserved for `max_ticks + 1` samples.
        ratio_curve.shrink_to_fit();
        CampaignOutcome {
            time_to_attack: stats.time_to_attack,
            time_to_detection: stats.time_to_detection,
            compromised_ratio: ratio_curve,
            final_states: states,
            deepest_stage: stats.deepest_stage,
            firewall_blocks: stats.firewall_blocks,
            payload_failures: stats.payload_failures,
        }
    }

    /// Runs one campaign replication inside `ws`, reusing its buffers —
    /// the allocation-free, event-driven hot path. Returns the scalar
    /// [`CampaignStats`]; the full ratio curve and final node states
    /// remain readable from the workspace until the next replication.
    ///
    /// The trajectory is a pure function of `seed`: the active sets are
    /// traversed in ascending id order with cached-word cursors that
    /// re-read their word after each change ahead of them, which
    /// reproduces exactly the draw schedule of a dense ascending scan
    /// that checks eligibility at visit time, so `run_into` is
    /// bit-identical to [`CampaignSimulator::run_reference`] and
    /// [`CampaignSimulator::run`].
    #[must_use]
    pub fn run_into(&self, ws: &mut CampaignWorkspace, seed: u64) -> CampaignStats {
        let mut rng = RngStream::new(seed, StreamId(0xA77));
        let n = self.network.node_count();
        ws.reset(n);
        let mut pr = Progress::fresh(n);
        ws.ratio_curve.push(0.0);
        while pr.tick < self.config.max_ticks && !pr.done() {
            self.step_tick(ws, &mut pr, &mut rng);
        }
        pr.stats(ws.ratio_curve.last().copied().unwrap_or(0.0))
    }

    /// Advances one tick of the event-driven engine: entry seeding,
    /// privilege escalation, lateral propagation, payload delivery, goal
    /// evaluation, detection, and the per-tick ratio sample — exactly
    /// the body of the historical `run_into` tick loop, draw for draw,
    /// so the stepper stays bit-identical to
    /// [`CampaignSimulator::run_reference`]. Per-node probabilities
    /// come from the precomputed [`ProbTables`], read through the
    /// node's class once per visit, lateral draws from the
    /// per-degree [`IndexDraw`]s (the same indexes `RngStream::index`
    /// returns) and the goal test from the precomputed PLC count. Each
    /// sweep walks its set with a cached-word cursor; the lateral sweep
    /// resyncs it after an infection and the payload sweep after a
    /// delivery (see the module docs).
    fn step_tick(&self, ws: &mut CampaignWorkspace, pr: &mut Progress, rng: &mut RngStream) {
        let probs = &self.tables;
        let net = self.network;
        let topo = self.topo;
        let n = pr.nodes;
        pr.tick += 1;
        let tick = pr.tick;
        let CampaignWorkspace {
            states,
            compromised_nbrs,
            ratio_curve,
            infected,
            frontier,
            eligible,
            dirty_states,
            dirty_degrees,
        } = ws;

        // Stage: Initial → Activated (seed an entry node). The attacker
        // seeds an entry-point node (USB stick in the office, per the
        // Stuxnet dossier); entry succeeds against the entry node's OS.
        if pr.clean == n {
            if let Some(&entry) = self.entries.first() {
                let p = probs.class(entry.index()).infection;
                if rng.bernoulli(p) {
                    states[entry.index()] = NodeCompromise::Infected;
                    pr.clean -= 1;
                    infected.insert(entry.index());
                    note_left_clean(
                        topo,
                        entry,
                        states,
                        compromised_nbrs,
                        frontier,
                        dirty_states,
                        dirty_degrees,
                    );
                    pr.deepest = pr.deepest.max(AttackStage::Activated);
                }
            }
        }

        // Stage: privilege escalation on infected nodes. Cursor
        // traversal visits each node Infected at stage entry once, in
        // ascending id order — the dense scan's draw order. A node
        // that escalates leaves the set (the index just visited, so the
        // cursor needs no resync) and joins the lateral structures.
        {
            let mut cursor = infected.cursor();
            while let Some(i) = cursor.next(infected) {
                let id = NodeId::from_index(i);
                if rng.bernoulli(probs.class(i).escalation) {
                    states[i] = NodeCompromise::Rooted;
                    infected.remove(i);
                    note_rooted(
                        net,
                        topo,
                        probs,
                        id,
                        states,
                        compromised_nbrs,
                        frontier,
                        eligible,
                        &mut pr.data_rooted,
                    );
                    pr.deepest = pr.deepest.max(AttackStage::RootAccess);
                }
            }
        }

        // Stage: lateral propagation from the frontier — rooted nodes
        // that still have a clean neighbor. A source saturated by an
        // earlier source this tick has already left the set, exactly
        // as the dense scan's visit-time eligibility check skips it;
        // since an infection can saturate a source in the cursor's
        // word, the cursor re-reads that word after each one. When the
        // last node leaves Clean every source saturates, so the
        // frontier empties itself and the stage disappears.
        if pr.clean > 0 {
            let mut cursor = frontier.cursor();
            while let Some(s) = cursor.next(frontier) {
                let neighbors = topo.neighbors(NodeId::from_index(s));
                let src = probs.class(s);
                // A frontier node has a clean neighbor, so `len() >= 1`.
                let draw = &self.lateral_draws[neighbors.len() - 1];
                for _ in 0..self.threat.attempts_per_tick {
                    let dst = neighbors[rng.draw_index(draw)];
                    if states[dst.index()] != NodeCompromise::Clean {
                        continue;
                    }
                    let dst_probs = probs.class(dst.index());
                    // Zone crossings face the destination firewall.
                    if src.zone != dst_probs.zone && !rng.bernoulli(dst_probs.firewall_pass) {
                        pr.firewall_blocks += 1;
                        continue;
                    }
                    // Propagation additionally requires speaking the
                    // destination's wire dialect inside the field zone.
                    let dialect_ok = src.dialect == dst_probs.dialect || !dst_probs.needs_dialect;
                    if !dialect_ok && !rng.bernoulli(0.05) {
                        pr.payload_failures += 1;
                        continue;
                    }
                    if rng.bernoulli(dst_probs.infection) {
                        states[dst.index()] = NodeCompromise::Infected;
                        pr.clean -= 1;
                        infected.insert(dst.index());
                        note_left_clean(
                            topo,
                            dst,
                            states,
                            compromised_nbrs,
                            frontier,
                            dirty_states,
                            dirty_degrees,
                        );
                        cursor.resync(frontier);
                        pr.deepest = pr.deepest.max(AttackStage::NetworkPropagation);
                    }
                }
            }
        }

        // Stage: PLC payload delivery (sabotage threats only). The
        // eligible set holds exactly the PLCs the dense scan would
        // draw for: payload-capable, not yet reprogrammed, rooted
        // self-or-neighbor. A PLC whose neighbor is reprogrammed
        // mid-stage joins at its id — visited this tick iff the
        // cursor has not passed it, matching the dense ascending scan;
        // the cursor re-reads its word after each delivery to see it.
        {
            let mut cursor = eligible.cursor();
            while let Some(pi) = cursor.next(eligible) {
                let plc = NodeId::from_index(pi);
                if rng.bernoulli(probs.class(pi).payload) {
                    let prev = states[pi];
                    states[pi] = NodeCompromise::Reprogrammed;
                    if prev == NodeCompromise::Clean {
                        pr.clean -= 1;
                        note_left_clean(
                            topo,
                            plc,
                            states,
                            compromised_nbrs,
                            frontier,
                            dirty_states,
                            dirty_degrees,
                        );
                    } else if prev == NodeCompromise::Infected {
                        infected.remove(pi);
                    }
                    eligible.remove(pi);
                    pr.reprogrammed += 1;
                    note_rooted(
                        net,
                        topo,
                        probs,
                        plc,
                        states,
                        compromised_nbrs,
                        frontier,
                        eligible,
                        &mut pr.data_rooted,
                    );
                    cursor.resync(eligible);
                    pr.deepest = pr.deepest.max(AttackStage::DeviceImpairment);
                } else {
                    pr.payload_failures += 1;
                }
            }
        }

        // Goal evaluation.
        match self.threat.goal {
            AttackGoal::ImpairDevices { .. } => {
                if pr.time_to_attack.is_none() && pr.reprogrammed >= self.goal_plcs {
                    pr.time_to_attack = Some(tick);
                }
            }
            AttackGoal::Exfiltrate { ticks } => {
                // `data_rooted` replaces the dense per-tick scan over
                // the historian/engineering ids; roots are permanent,
                // so a counter maintained at rooting time is exact.
                if pr.data_rooted > 0 {
                    pr.exfil_ticks += 1;
                    if pr.time_to_attack.is_none() && pr.exfil_ticks >= ticks {
                        pr.time_to_attack = Some(tick);
                    }
                }
            }
        }

        // Detection (Time-To-Security-Failure). Only active intrusions
        // can be noticed.
        if pr.time_to_detection.is_none() && pr.clean < n {
            let impairment_active = pr.reprogrammed > 0;
            let p = probs.detection_p(impairment_active);
            if rng.bernoulli(p) {
                pr.time_to_detection = Some(tick);
                if self.config.detection_stops_attack {
                    pr.halted = true;
                    ratio_curve.push(pr.ratio());
                    return;
                }
            }
        }

        ratio_curve.push(pr.ratio());
    }

    /// Snapshots the current replication state from `ws` and `pr`. The
    /// sparse non-clean list comes from the workspace's dirty list
    /// (each node that left Clean appears there exactly once), sorted
    /// ascending so the checkpoint is canonical regardless of the order
    /// nodes were compromised in.
    fn capture(&self, ws: &CampaignWorkspace, pr: &Progress) -> CampaignCheckpoint {
        let mut states: Vec<(u32, NodeCompromise)> = ws
            .dirty_states
            .iter()
            .map(|&i| (i, ws.states[i as usize]))
            .collect();
        states.sort_unstable_by_key(|&(i, _)| i);
        CampaignCheckpoint {
            progress: *pr,
            states,
        }
    }

    /// Rebuilds the workspace from a checkpoint: dense states, the
    /// compromised-neighbor counters, dirty lists, and the three active
    /// sets, all derived deterministically from the sparse non-clean
    /// list — the same invariants the incremental `note_left_clean` /
    /// `note_rooted` bookkeeping maintains, so a resumed stepper
    /// continues exactly where the checkpointed one stood.
    fn restore(&self, ws: &mut CampaignWorkspace, cp: &CampaignCheckpoint) -> Progress {
        let n = self.network.node_count();
        debug_assert_eq!(cp.progress.nodes, n, "checkpoint from a different network");
        ws.reset(n);
        let CampaignWorkspace {
            states,
            compromised_nbrs,
            ratio_curve,
            infected,
            frontier,
            eligible,
            dirty_states,
            dirty_degrees,
        } = ws;
        for &(i, state) in &cp.states {
            states[i as usize] = state;
            dirty_states.push(i);
        }
        for &(i, _) in &cp.states {
            for &nb in self.topo.neighbors(NodeId::from_index(i as usize)) {
                let j = nb.index();
                if compromised_nbrs[j] == 0 {
                    dirty_degrees.push(j as u32);
                }
                compromised_nbrs[j] += 1;
            }
        }
        for &(i, state) in &cp.states {
            let i = i as usize;
            match state {
                NodeCompromise::Clean => {}
                NodeCompromise::Infected => {
                    infected.insert(i);
                }
                NodeCompromise::Rooted | NodeCompromise::Reprogrammed => note_rooted(
                    self.network,
                    self.topo,
                    &self.tables,
                    NodeId::from_index(i),
                    states,
                    compromised_nbrs,
                    frontier,
                    eligible,
                    // The checkpoint's progress already counts every
                    // data-bearing root.
                    &mut 0,
                ),
            }
        }
        ratio_curve.push(cp.progress.ratio());
        cp.progress
    }

    /// Runs one replication segment until `milestone` is crossed (also
    /// recognized when the starting checkpoint already crossed it), the
    /// campaign can no longer change, or the tick horizon is reached —
    /// the per-level task of the multilevel-splitting engine.
    ///
    /// `from: None` starts a fresh replication; `Some(checkpoint)`
    /// resumes one. Each segment draws from a fresh
    /// [`RngStream`] seeded with `seed`, so a resumed trajectory is a
    /// pure function of `(checkpoint, seed)` — that is what lets
    /// splitting re-seed survivor clones deterministically while
    /// preserving serial ≡ parallel bit-identity.
    #[must_use]
    pub fn run_stage(
        &self,
        ws: &mut CampaignWorkspace,
        from: Option<&CampaignCheckpoint>,
        seed: u64,
        milestone: CampaignMilestone,
    ) -> StageRun {
        let mut rng = RngStream::new(seed, StreamId(0xA77));
        let mut pr = match from {
            Some(cp) => self.restore(ws, cp),
            None => {
                let n = self.network.node_count();
                ws.reset(n);
                ws.ratio_curve.push(0.0);
                Progress::fresh(n)
            }
        };
        let start = pr.tick;
        while !milestone.reached(&pr) && !pr.done() && pr.tick < self.config.max_ticks {
            self.step_tick(ws, &mut pr, &mut rng);
        }
        StageRun {
            reached: milestone.reached(&pr),
            ticks: pr.tick - start,
            checkpoint: self.capture(ws, &pr),
        }
    }

    /// The dense reference implementation, kept alive as the
    /// differential oracle for the frontier engine: every call allocates
    /// fresh buffers and every tick rescans *all* nodes, checking stage
    /// eligibility (state, clean-neighbor availability, payload
    /// preconditions) at visit time in ascending id order. It keeps the
    /// plain forms of what the stepper precomputes — `RngStream::index`
    /// for lateral draws, the f64 goal test — so the differential checks
    /// those too. Differential and property tests prove
    /// [`CampaignSimulator::run`] / [`CampaignSimulator::run_into`]
    /// reproduce it bit for bit; the `campaign_fleet_scaling` bench
    /// measures the frontier path against it.
    #[must_use]
    pub fn run_reference(&self, seed: u64) -> CampaignOutcome {
        let net = self.network;
        let cat = &self.threat.catalog;
        let mut rng = RngStream::new(seed, StreamId(0xA77));
        let n = net.node_count();
        let mut states = vec![NodeCompromise::Clean; n];
        let mut deepest = AttackStage::Initial;
        let mut ratio_curve = Vec::with_capacity(self.config.max_ticks as usize + 1);
        let mut time_to_attack = None;
        let mut time_to_detection = None;
        let mut firewall_blocks = 0u32;
        let mut payload_failures = 0u32;
        let mut exfil_ticks = 0u32;

        let total_plcs = self.plc_ids.len().max(1);
        let mut clean = n;
        let mut infected = 0usize;
        let mut reprogrammed = 0usize;

        ratio_curve.push(0.0);
        'ticks: for tick in 1..=self.config.max_ticks {
            if clean == n {
                if let Some(&entry) = self.entries.first() {
                    let p = cat.infection_probability(net.profile(entry));
                    if rng.bernoulli(p) {
                        states[entry.index()] = NodeCompromise::Infected;
                        clean -= 1;
                        infected += 1;
                        deepest = deepest.max(AttackStage::Activated);
                    }
                }
            }

            if infected > 0 {
                for id in net.node_ids() {
                    if states[id.index()] == NodeCompromise::Infected
                        && rng.bernoulli(cat.escalation_probability(net.profile(id)))
                    {
                        states[id.index()] = NodeCompromise::Rooted;
                        infected -= 1;
                        deepest = deepest.max(AttackStage::RootAccess);
                    }
                }
            }

            if clean > 0 {
                // The dense sweep the frontier engine replaces: visit
                // every node, and make lateral attempts from those that
                // are rooted *and still have a clean neighbor* at visit
                // time.
                for src in net.node_ids() {
                    if states[src.index()] < NodeCompromise::Rooted {
                        continue;
                    }
                    let neighbors = net.neighbors(src);
                    if !neighbors
                        .iter()
                        .any(|&nb| states[nb.index()] == NodeCompromise::Clean)
                    {
                        continue;
                    }
                    for _ in 0..self.threat.attempts_per_tick {
                        let dst = neighbors[rng.index(neighbors.len())];
                        if states[dst.index()] != NodeCompromise::Clean {
                            continue;
                        }
                        let dst_profile = net.profile(dst);
                        if net.crosses_zone(src, dst) {
                            let pass = cat.firewall_pass_probability(dst_profile);
                            if !rng.bernoulli(pass) {
                                firewall_blocks += 1;
                                continue;
                            }
                        }
                        let src_dialect = net.profile(src).dialect;
                        let dialect_ok = src_dialect == dst_profile.dialect
                            || !matches!(net.role(dst), NodeRole::Plc | NodeRole::FieldGateway);
                        if !dialect_ok && !rng.bernoulli(0.05) {
                            payload_failures += 1;
                            continue;
                        }
                        if rng.bernoulli(cat.infection_probability(dst_profile)) {
                            states[dst.index()] = NodeCompromise::Infected;
                            clean -= 1;
                            infected += 1;
                            deepest = deepest.max(AttackStage::NetworkPropagation);
                        }
                    }
                }
            }

            if reprogrammed < self.plc_ids.len() {
                for &plc in self.plc_ids {
                    if states[plc.index()] == NodeCompromise::Reprogrammed {
                        continue;
                    }
                    let has_rooted_neighbor = net
                        .neighbors(plc)
                        .iter()
                        .any(|&nb| states[nb.index()] >= NodeCompromise::Rooted)
                        || states[plc.index()] >= NodeCompromise::Rooted;
                    if !has_rooted_neighbor {
                        continue;
                    }
                    let p = cat.plc_payload_probability(net.profile(plc));
                    if p == 0.0 {
                        continue;
                    }
                    if rng.bernoulli(p) {
                        if states[plc.index()] == NodeCompromise::Clean {
                            clean -= 1;
                        } else if states[plc.index()] == NodeCompromise::Infected {
                            infected -= 1;
                        }
                        states[plc.index()] = NodeCompromise::Reprogrammed;
                        reprogrammed += 1;
                        deepest = deepest.max(AttackStage::DeviceImpairment);
                    } else {
                        payload_failures += 1;
                    }
                }
            }

            match self.threat.goal {
                AttackGoal::ImpairDevices { fraction } => {
                    if time_to_attack.is_none()
                        && (reprogrammed as f64 / total_plcs as f64) >= fraction
                    {
                        time_to_attack = Some(tick);
                    }
                }
                AttackGoal::Exfiltrate { ticks } => {
                    let data_access = self
                        .data_ids
                        .iter()
                        .any(|&id| states[id.index()] >= NodeCompromise::Rooted);
                    if data_access {
                        exfil_ticks += 1;
                        if time_to_attack.is_none() && exfil_ticks >= ticks {
                            time_to_attack = Some(tick);
                        }
                    }
                }
            }

            if time_to_detection.is_none() && clean < n {
                let impairment_active = reprogrammed > 0;
                let p = cat.detection_probability(
                    &self.historian_profile,
                    &self.sensor_profile,
                    impairment_active,
                    self.threat.stealth,
                );
                if rng.bernoulli(p) {
                    time_to_detection = Some(tick);
                    if self.config.detection_stops_attack {
                        ratio_curve.push((n - clean) as f64 / n as f64);
                        break 'ticks;
                    }
                }
            }

            ratio_curve.push((n - clean) as f64 / n as f64);

            if time_to_attack.is_some() && time_to_detection.is_some() {
                break;
            }
        }

        CampaignOutcome {
            time_to_attack,
            time_to_detection,
            compromised_ratio: ratio_curve,
            final_states: states,
            deepest_stage: deepest,
            firewall_blocks,
            payload_failures,
        }
    }

    /// Runs `replications` campaigns under distinct seeds derived from
    /// `master_seed` on the default (parallel) [`Executor`] and returns
    /// every outcome in replication order. Zero replications yield an
    /// empty vector.
    #[must_use]
    pub fn run_many(&self, replications: u32, master_seed: u64) -> Vec<CampaignOutcome> {
        if replications == 0 {
            return Vec::new();
        }
        self.run_plan(
            &ReplicationPlan::flat(replications, master_seed)
                .with_namespace(CAMPAIGN_RUN_NAMESPACE),
            Executor::default(),
        )
    }

    /// Runs every replication of an explicit plan — the entry point for
    /// callers that manage seed schedules and scheduling themselves.
    /// Routes through the executor's collector fold (with the
    /// materializing `VecCollector`), so the execution path is the one
    /// every streaming aggregation uses; callers that only need
    /// summaries should fold with a streaming collector via
    /// [`Executor::collect`] instead of materializing outcomes here.
    #[must_use]
    pub fn run_plan(&self, plan: &ReplicationPlan, executor: Executor) -> Vec<CampaignOutcome> {
        executor.run(plan, |rep| self.run(rep.seed))
    }

    /// The default multilevel-splitting level schedule for this
    /// simulator's threat: monotone milestones, each *implied by* the
    /// campaign goal, ending in [`CampaignMilestone::GoalReached`] —
    /// so the product of per-level conditional probabilities estimates
    /// exactly P_SA. For sabotage goals the spread threshold derives
    /// from the number of PLCs the goal fraction requires (those PLCs
    /// are non-clean at goal time, as is the entry node, so the
    /// milestone is always implied); espionage goals can be achieved
    /// from a single engineering-workstation foothold, so no spread
    /// level is safe to insert there.
    #[must_use]
    pub fn split_milestones(&self) -> Vec<CampaignMilestone> {
        match self.threat.goal {
            AttackGoal::ImpairDevices { fraction } => {
                let total = self.plc_ids.len().max(1);
                #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
                let required = ((fraction * total as f64).ceil() as usize).max(1);
                vec![
                    CampaignMilestone::Rooted,
                    CampaignMilestone::SpreadAtLeast((required / 2).max(2)),
                    CampaignMilestone::PayloadDelivered,
                    CampaignMilestone::GoalReached,
                ]
            }
            AttackGoal::Exfiltrate { .. } => {
                vec![CampaignMilestone::Rooted, CampaignMilestone::GoalReached]
            }
        }
    }

    /// Adaptive splitting-level placement: a pilot batch estimates
    /// per-level survivor fractions and places the `SpreadAtLeast`
    /// threshold to equalize the conditional passage probabilities
    /// around it, instead of the fixed `(required/2).max(2)` heuristic
    /// of [`CampaignSimulator::split_milestones`].
    ///
    /// The pilot runs `pilot_population` replications through
    /// [`CampaignSimulator::run_stage`] on one workspace: fresh toward
    /// [`CampaignMilestone::Rooted`], survivors onward toward
    /// [`CampaignMilestone::GoalReached`]. With `p_goal` the fraction
    /// of rooted survivors that reach the goal and `p_k` the fraction
    /// whose exit spread reaches `k` (spread is monotone, so exit
    /// spread is max spread), the chosen threshold minimizes
    /// `|ln p_k − ½ ln p_goal|` over `k ∈ 2..=required` — splitting the
    /// rooted→goal tail into two conditionals of comparable size.
    ///
    /// Pilot seeds derive from `master_seed` under
    /// [`PILOT_STREAM_NAMESPACE`], disjoint from both the campaign-run
    /// and splitting namespaces, so the pilot never replays a stream
    /// the estimator consumes. Whenever the pilot cannot place a level
    /// — espionage goal (no spread level is goal-implied), zero pilot
    /// population, a goal needing fewer than two PLCs, zero Rooted
    /// survivors, or no trajectory reaching the goal — the fixed
    /// schedule is returned with the reason recorded in
    /// [`MilestonePlacement::FixedFallback`].
    #[must_use]
    pub fn split_milestones_piloted(
        &self,
        pilot_population: u32,
        master_seed: u64,
    ) -> PilotedMilestones {
        let fallback = |reason: &str| PilotedMilestones {
            milestones: self.split_milestones(),
            placement: MilestonePlacement::FixedFallback {
                reason: reason.to_string(),
            },
        };
        let AttackGoal::ImpairDevices { fraction } = self.threat.goal else {
            return fallback("espionage goals take no goal-implied spread level");
        };
        if pilot_population == 0 {
            return fallback("pilot population is zero");
        }
        let total = self.plc_ids.len().max(1);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let required = ((fraction * total as f64).ceil() as usize).max(1);
        if required < 2 {
            return fallback("goal requires fewer than two PLCs; nothing to place");
        }

        let mut ws = self.workspace();
        let to_rooted: Vec<StageRun> = (0..u64::from(pilot_population))
            .map(|i| {
                let seed = derive_seed(master_seed, StreamId(PILOT_STREAM_NAMESPACE ^ i));
                self.run_stage(&mut ws, None, seed, CampaignMilestone::Rooted)
            })
            .collect();
        let rooted: Vec<&CampaignCheckpoint> = to_rooted
            .iter()
            .filter(|r| r.reached)
            .map(|r| &r.checkpoint)
            .collect();
        if rooted.is_empty() {
            return fallback("pilot saw zero Rooted survivors");
        }

        let to_goal: Vec<StageRun> = rooted
            .iter()
            .zip(0u64..)
            .map(|(&cp, i)| {
                let seed = derive_seed(
                    master_seed,
                    StreamId(PILOT_STREAM_NAMESPACE ^ (1 << 40) ^ i),
                );
                self.run_stage(&mut ws, Some(cp), seed, CampaignMilestone::GoalReached)
            })
            .collect();
        let goal_hits = to_goal.iter().filter(|r| r.reached).count();
        if goal_hits == 0 {
            return fallback("no pilot trajectory reached the campaign goal");
        }

        #[allow(clippy::cast_precision_loss)]
        let denom = rooted.len() as f64;
        #[allow(clippy::cast_precision_loss)]
        let p_goal = goal_hits as f64 / denom;
        let target = 0.5 * p_goal.ln();
        let mut best_k = (required / 2).max(2);
        let mut best_gap = f64::INFINITY;
        for k in 2..=required {
            let hits = to_goal
                .iter()
                .filter(|r| r.checkpoint.spread() >= k)
                .count();
            if hits == 0 {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let gap = ((hits as f64 / denom).ln() - target).abs();
            if gap < best_gap {
                best_gap = gap;
                best_k = k;
            }
        }
        PilotedMilestones {
            milestones: vec![
                CampaignMilestone::Rooted,
                CampaignMilestone::SpreadAtLeast(best_k),
                CampaignMilestone::PayloadDelivered,
                CampaignMilestone::GoalReached,
            ],
            placement: MilestonePlacement::Piloted {
                spread_threshold: best_k,
                rooted_survivors: rooted.len() as u32,
                goal_fraction: p_goal,
            },
        }
    }
}

/// Stream namespace [`CampaignSimulator::run_many`] has always derived
/// its seeds under. The pre-Executor loop used additive ids
/// (`0xCA_0000 + i`); XOR derivation matches it exactly for every index
/// below 2^17. Public so callers that fold outcomes with their own
/// collectors can reproduce the historical `run_many` seed schedule on
/// an explicit plan.
pub const CAMPAIGN_RUN_NAMESPACE: u64 = 0xCA_0000;

/// Stream namespace of the adaptive-placement pilot
/// ([`CampaignSimulator::split_milestones_piloted`]): disjoint from
/// both [`CAMPAIGN_RUN_NAMESPACE`] and the splitting namespace, so
/// pilot replications never share a stream with the estimator they
/// tune.
pub const PILOT_STREAM_NAMESPACE: u64 = 0x9110_0000_0000_0000;

/// How a splitting milestone schedule was placed — returned alongside
/// the schedule by [`CampaignSimulator::split_milestones_piloted`].
#[derive(Debug, Clone, PartialEq)]
pub enum MilestonePlacement {
    /// The pilot placed the spread threshold adaptively.
    Piloted {
        /// The chosen `SpreadAtLeast` threshold.
        spread_threshold: usize,
        /// Pilot replications that reached `Rooted` (the conditional
        /// denominators).
        rooted_survivors: u32,
        /// Pilot fraction of rooted survivors that reached the goal.
        goal_fraction: f64,
    },
    /// The fixed [`CampaignSimulator::split_milestones`] heuristic was
    /// kept; `reason` records why the pilot could not place a level.
    FixedFallback {
        /// Why the pilot fell back.
        reason: String,
    },
}

/// A milestone schedule plus the record of how it was placed.
#[derive(Debug, Clone, PartialEq)]
pub struct PilotedMilestones {
    /// The level schedule, ending in [`CampaignMilestone::GoalReached`].
    pub milestones: Vec<CampaignMilestone>,
    /// Pilot placement record (adaptive threshold or fallback reason).
    pub placement: MilestonePlacement,
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversify_scada::components::ComponentProfile;
    use diversify_scada::fleet::{FleetConfig, FleetSystem};
    use diversify_scada::scope::{ScopeConfig, ScopeSystem};

    fn scope_network() -> ScadaNetwork {
        ScopeSystem::build(&ScopeConfig::default())
            .network()
            .clone()
    }

    /// A ~3,000-node fleet whose every node draws its OS, PLC firmware,
    /// wire dialect and firewall over all their variants, so it holds
    /// more node classes than one byte can index.
    fn many_class_fleet() -> ScadaNetwork {
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
        net
    }

    #[test]
    fn every_node_reads_its_own_catalog_values_through_its_class() {
        let (scope, fleet) = (scope_network(), many_class_fleet());
        for net in [&scope, &fleet] {
            for threat in [
                ThreatModel::stuxnet_like(),
                ThreatModel::duqu_like(),
                ThreatModel::flame_like(),
            ] {
                let sim = CampaignSimulator::new(net, threat, CampaignConfig::default());
                let cat = &sim.threat.catalog;
                for id in net.node_ids() {
                    let (p, role) = (net.profile(id), net.role(id));
                    let payload = if role == NodeRole::Plc {
                        cat.plc_payload_probability(p)
                    } else {
                        0.0
                    };
                    let entry = sim.tables.class(id.index());
                    let node = net.name(id);
                    assert_eq!(
                        entry.infection.to_bits(),
                        cat.infection_probability(p).to_bits(),
                        "{node}"
                    );
                    assert_eq!(
                        entry.escalation.to_bits(),
                        cat.escalation_probability(p).to_bits(),
                        "{node}"
                    );
                    assert_eq!(
                        entry.firewall_pass.to_bits(),
                        cat.firewall_pass_probability(p).to_bits(),
                        "{node}"
                    );
                    assert_eq!(entry.payload.to_bits(), payload.to_bits(), "{node}");
                    assert_eq!(entry.dialect, p.dialect, "{node}");
                    assert_eq!(
                        entry.needs_dialect,
                        matches!(role, NodeRole::Plc | NodeRole::FieldGateway),
                        "{node}"
                    );
                    assert_eq!(entry.zone, net.zone(id), "{node}");
                }
            }
        }
        let sim = CampaignSimulator::new(
            &fleet,
            ThreatModel::stuxnet_like(),
            CampaignConfig::default(),
        );
        assert!(
            sim.tables.classes.len() > 256,
            "{} classes",
            sim.tables.classes.len()
        );
    }

    #[test]
    fn goal_plcs_agrees_with_the_float_goal_test_at_every_count() {
        for plcs in [0usize, 1, 2, 3, 7, 10, 49, 100, 1000] {
            let total = plcs.max(1) as f64;
            // Every exact quotient and its neighbouring doubles, plus
            // fractions no count meets or every count meets.
            let mut fractions = vec![-1.0, 0.0, 1e-300, 1.0, 2.0, f64::NAN, f64::INFINITY];
            for r in 0..=plcs {
                let q = r as f64 / total;
                fractions.extend([q, f64::from_bits(q.to_bits() + 1), q * 0.999_999_9]);
            }
            for fraction in fractions {
                let goal = goal_plcs(fraction, plcs);
                for r in 0..=plcs {
                    assert_eq!(
                        r >= goal,
                        r as f64 / total >= fraction,
                        "plcs {plcs}, fraction {fraction}, r {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn run_many_zero_replications_is_empty() {
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        assert!(sim.run_many(0, 1).is_empty());
    }

    #[test]
    fn budgeted_plan_matches_plain_plan_and_truncates_cleanly() {
        use diversify_des::exec::VecCollector;
        use diversify_des::{Budget, RunPolicy, RunSpec};
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let plan = ReplicationPlan::new(4, 5, 77).with_namespace(CAMPAIGN_RUN_NAMESPACE);
        // The fault-tolerant form of `run_plan`: non-finite statistics
        // are rejected as invalid rather than returned.
        let run_budgeted = |policy: &RunPolicy| {
            Executor::serial().execute(
                &RunSpec::new(&plan).with_policy(policy),
                || (),
                |(): &mut (), rep| sim.run(rep.seed),
                &VecCollector,
                |outcome: &CampaignOutcome| outcome.stats().is_finite(),
            )
        };
        // Unbudgeted policy: identical to run_plan.
        let plain = sim.run_plan(&plan, Executor::serial());
        let run = run_budgeted(&RunPolicy::new());
        assert!(!run.is_degraded());
        assert_eq!(run.output.as_ref(), Some(&plain));
        // A 12-replication budget affords 2 rounds of 5; the result is
        // the exact prefix.
        let policy = RunPolicy::new().with_budget(Budget::unlimited().with_max_replications(12));
        let truncated = run_budgeted(&policy);
        assert_eq!(truncated.completed, 10);
        assert_eq!(truncated.output.as_ref().map(Vec::len), Some(10));
        assert_eq!(truncated.output.as_ref().unwrap()[..], plain[..10]);
    }

    #[test]
    fn stuxnet_succeeds_against_monoculture() {
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let outcomes = sim.run_many(50, 7);
        let successes = outcomes.iter().filter(|o| o.succeeded()).count();
        assert!(
            successes > 40,
            "monoculture should fall almost always: {successes}/50"
        );
        let deepest_reached = outcomes
            .iter()
            .filter(|o| o.deepest_stage == AttackStage::DeviceImpairment)
            .count();
        assert!(deepest_reached > 40);
    }

    #[test]
    fn hardened_system_resists_much_longer() {
        let mut net = scope_network();
        let ids: Vec<_> = net.node_ids().collect();
        for id in ids {
            *net.profile_mut(id) = ComponentProfile::hardened();
        }
        let weak_net = scope_network();
        let threat = ThreatModel::stuxnet_like();
        // A bounded observation window: with unbounded persistence even a
        // hardened plant eventually falls, so success *rate* is compared
        // at a fixed horizon (the paper's point is raising effort/time).
        let cfg = CampaignConfig {
            max_ticks: 300,
            detection_stops_attack: false,
        };
        let hard = CampaignSimulator::new(&net, threat.clone(), cfg).run_many(40, 3);
        let weak = CampaignSimulator::new(&weak_net, threat, cfg).run_many(40, 3);
        let rate =
            |os: &[CampaignOutcome]| os.iter().filter(|o| o.succeeded()).count() as f64 / 40.0;
        assert!(
            rate(&hard) < rate(&weak),
            "hardening must reduce success rate ({} vs {})",
            rate(&hard),
            rate(&weak)
        );
        // And when it succeeds it takes longer on average.
        let mean_tta = |os: &[CampaignOutcome]| {
            let hits: Vec<f64> = os
                .iter()
                .filter_map(|o| o.time_to_attack.map(f64::from))
                .collect();
            if hits.is_empty() {
                f64::INFINITY
            } else {
                hits.iter().sum::<f64>() / hits.len() as f64
            }
        };
        assert!(mean_tta(&hard) > mean_tta(&weak));
    }

    #[test]
    fn run_into_matches_run_bit_for_bit() {
        let net = scope_network();
        for threat in [
            ThreatModel::stuxnet_like(),
            ThreatModel::duqu_like(),
            ThreatModel::flame_like(),
        ] {
            let sim = CampaignSimulator::new(&net, threat, CampaignConfig::default());
            let mut ws = sim.workspace();
            for seed in 0..20u64 {
                let outcome = sim.run(seed);
                let stats = sim.run_into(&mut ws, seed);
                assert_eq!(outcome.stats(), stats, "seed {seed}");
                assert_eq!(outcome.compromised_ratio, ws.ratio_curve(), "seed {seed}");
                assert_eq!(outcome.final_states, ws.states(), "seed {seed}");
                // The event-driven frontier engine must reproduce the
                // dense visit-time-eligibility sweep exactly, RNG draw
                // for RNG draw.
                assert_eq!(outcome, sim.run_reference(seed), "seed {seed}");
            }
        }
    }

    #[test]
    fn frontier_matches_reference_on_generated_fleet() {
        // The fleet-shaped counterpart of the SCoPE differential above
        // (the broader randomized sweep lives in
        // `tests/frontier_differential.rs`).
        let fleet = FleetSystem::build(&FleetConfig::sized(400, 77));
        let cfg = CampaignConfig {
            max_ticks: 24 * 60,
            detection_stops_attack: false,
        };
        for threat in [ThreatModel::stuxnet_like(), ThreatModel::flame_like()] {
            let sim = CampaignSimulator::new(fleet.network(), threat, cfg);
            let mut ws = sim.workspace();
            for seed in 0..5u64 {
                let reference = sim.run_reference(seed);
                let stats = sim.run_into(&mut ws, seed);
                assert_eq!(reference.stats(), stats, "seed {seed}");
                assert_eq!(reference.final_states, ws.states(), "seed {seed}");
            }
        }
    }

    #[test]
    fn workspace_reuse_does_not_leak_state_between_replications() {
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let mut ws = sim.workspace();
        let first = sim.run_into(&mut ws, 42);
        // A noisy intermediate replication mutates every buffer…
        let _ = sim.run_into(&mut ws, 1234);
        // …and the original seed still reproduces exactly.
        assert_eq!(sim.run_into(&mut ws, 42), first);
    }

    #[test]
    fn workspace_survives_network_size_change() {
        // The sparse reset must fall back to full initialization when a
        // workspace warmed on one network meets a differently sized one.
        let small = scope_network();
        let big = FleetSystem::build(&FleetConfig::sized(300, 5));
        let threat = ThreatModel::stuxnet_like();
        let sim_small = CampaignSimulator::new(&small, threat.clone(), CampaignConfig::default());
        let sim_big = CampaignSimulator::new(big.network(), threat, CampaignConfig::default());
        let mut ws = sim_small.workspace();
        let _ = sim_small.run_into(&mut ws, 1);
        let on_big = sim_big.run_into(&mut ws, 2);
        assert_eq!(on_big, sim_big.run(2).stats());
        let back_small = sim_small.run_into(&mut ws, 1);
        assert_eq!(back_small, sim_small.run(1).stats());
    }

    #[test]
    fn materialized_ratio_curve_is_exact_sized() {
        // The lazy-curve satellite: short runs must not carry a
        // max_ticks-sized reservation out of the simulator.
        let net = scope_network();
        let sim = CampaignSimulator::new(
            &net,
            ThreatModel::stuxnet_like(),
            CampaignConfig {
                max_ticks: 24 * 365,
                detection_stops_attack: true,
            },
        );
        let o = sim.run(21);
        assert_eq!(o.compromised_ratio.capacity(), o.compromised_ratio.len());
        assert!(o.compromised_ratio.len() < 24 * 365);
    }

    #[test]
    fn outcomes_are_reproducible() {
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        assert_eq!(sim.run(42), sim.run(42));
    }

    #[test]
    fn compromised_ratio_is_monotone_without_remediation() {
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let o = sim.run(5);
        for w in o.compromised_ratio.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "ratio decreased: {w:?}");
        }
        assert!(o.final_compromised_ratio() <= 1.0);
    }

    #[test]
    fn espionage_threats_never_reprogram_plcs() {
        let net = scope_network();
        for threat in [ThreatModel::duqu_like(), ThreatModel::flame_like()] {
            let sim = CampaignSimulator::new(&net, threat, CampaignConfig::default());
            for o in sim.run_many(10, 11) {
                assert!(
                    !o.final_states.contains(&NodeCompromise::Reprogrammed),
                    "espionage threat reprogrammed a PLC"
                );
                assert!(o.deepest_stage < AttackStage::DeviceImpairment);
            }
        }
    }

    #[test]
    fn duqu_exfiltration_goal_reachable() {
        let net = scope_network();
        let sim = CampaignSimulator::new(&net, ThreatModel::duqu_like(), CampaignConfig::default());
        let outcomes = sim.run_many(30, 13);
        let successes = outcomes.iter().filter(|o| o.succeeded()).count();
        assert!(
            successes > 15,
            "duqu should usually exfiltrate: {successes}/30"
        );
    }

    #[test]
    fn detection_stops_attack_truncates_curve() {
        let net = scope_network();
        let mut threat = ThreatModel::stuxnet_like();
        threat.stealth = 0.0; // noisy attacker
        let cfg = CampaignConfig {
            detection_stops_attack: true,
            max_ticks: 1000,
        };
        let sim = CampaignSimulator::new(&net, threat, cfg);
        let o = sim.run(21);
        if let Some(ttd) = o.time_to_detection {
            assert!(o.compromised_ratio.len() as u32 <= ttd + 2);
        }
    }

    #[test]
    fn run_stage_milestones_progress_and_compose() {
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let mut ws = sim.workspace();
        let rooted = sim.run_stage(&mut ws, None, 11, CampaignMilestone::Rooted);
        assert!(rooted.reached, "monoculture roots within a year");
        let spread = sim.run_stage(
            &mut ws,
            Some(&rooted.checkpoint),
            12,
            CampaignMilestone::SpreadAtLeast(3),
        );
        assert!(spread.reached);
        assert!(spread.checkpoint.tick() >= rooted.checkpoint.tick());
        let goal = sim.run_stage(
            &mut ws,
            Some(&spread.checkpoint),
            13,
            CampaignMilestone::GoalReached,
        );
        assert!(goal.reached);
        assert!(goal.checkpoint.succeeded());
        let stats = goal.checkpoint.stats();
        assert!(stats.time_to_attack.is_some());
        assert_eq!(stats.deepest_stage, AttackStage::DeviceImpairment);
    }

    #[test]
    fn run_stage_resume_is_workspace_history_independent() {
        // A resumed segment must be a pure function of (checkpoint,
        // seed): replaying it in a workspace polluted by unrelated
        // replications yields the identical result.
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let mut fresh = sim.workspace();
        let cp = sim
            .run_stage(&mut fresh, None, 7, CampaignMilestone::SpreadAtLeast(2))
            .checkpoint;
        let clean_run = sim.run_stage(
            &mut sim.workspace(),
            Some(&cp),
            99,
            CampaignMilestone::GoalReached,
        );
        let mut dirty = sim.workspace();
        let _ = sim.run_into(&mut dirty, 5555);
        let _ = sim.run_stage(&mut dirty, None, 8, CampaignMilestone::PayloadDelivered);
        let dirty_run = sim.run_stage(&mut dirty, Some(&cp), 99, CampaignMilestone::GoalReached);
        assert_eq!(clean_run, dirty_run);
    }

    #[test]
    fn run_stage_already_crossed_milestone_is_a_no_op() {
        // Milestones are monotone, so resuming toward an
        // already-crossed one consumes no ticks and echoes the
        // checkpoint back (in canonical form).
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let mut ws = sim.workspace();
        let spread = sim.run_stage(&mut ws, None, 3, CampaignMilestone::SpreadAtLeast(2));
        assert!(spread.reached);
        let again = sim.run_stage(
            &mut ws,
            Some(&spread.checkpoint),
            12345,
            CampaignMilestone::Rooted,
        );
        assert!(again.reached, "spread ≥ 2 implies a rooted node exists");
        assert_eq!(again.ticks, 0);
        assert_eq!(again.checkpoint, spread.checkpoint);
    }

    #[test]
    fn strict_firewalls_block_hops() {
        let mut net = scope_network();
        let ids: Vec<_> = net.node_ids().collect();
        for id in ids {
            net.profile_mut(id).firewall = diversify_scada::components::FirewallPolicy::Strict;
        }
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let o = sim.run(9);
        assert!(o.firewall_blocks > 0, "strict firewalls should log blocks");
    }

    #[test]
    fn piloted_milestones_keep_goal_implied_shape() {
        let net = scope_network();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let piloted = sim.split_milestones_piloted(64, 0x9107);
        // On the SCoPE monoculture the goal is common, so the pilot
        // must place adaptively.
        let MilestonePlacement::Piloted {
            spread_threshold,
            rooted_survivors,
            goal_fraction,
        } = &piloted.placement
        else {
            panic!("expected adaptive placement, got {:?}", piloted.placement);
        };
        assert!(*rooted_survivors > 0);
        assert!(*goal_fraction > 0.0 && *goal_fraction <= 1.0);
        assert_eq!(
            piloted.milestones,
            vec![
                CampaignMilestone::Rooted,
                CampaignMilestone::SpreadAtLeast(*spread_threshold),
                CampaignMilestone::PayloadDelivered,
                CampaignMilestone::GoalReached,
            ]
        );
        assert!(*spread_threshold >= 2);
        // The schedule stays goal-implied: the threshold never exceeds
        // the PLC count the goal itself forces non-clean.
        let total = net
            .topology()
            .with_role(diversify_scada::network::NodeRole::Plc)
            .len();
        assert!(*spread_threshold <= (0.5 * total as f64).ceil() as usize);
        // Reproducible: same pilot population and seed, same placement.
        assert_eq!(piloted, sim.split_milestones_piloted(64, 0x9107));
    }

    #[test]
    fn piloted_milestones_fall_back_with_reasons() {
        let net = scope_network();
        // Espionage goal: no spread level is goal-implied.
        let duqu =
            CampaignSimulator::new(&net, ThreatModel::duqu_like(), CampaignConfig::default());
        let piloted = duqu.split_milestones_piloted(16, 1);
        assert_eq!(piloted.milestones, duqu.split_milestones());
        assert!(matches!(
            &piloted.placement,
            MilestonePlacement::FixedFallback { reason } if reason.contains("espionage")
        ));
        // Zero pilot population.
        let stux =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        let piloted = stux.split_milestones_piloted(0, 1);
        assert_eq!(piloted.milestones, stux.split_milestones());
        assert!(matches!(
            &piloted.placement,
            MilestonePlacement::FixedFallback { reason } if reason.contains("zero")
        ));
        // A horizon of zero ticks: the pilot cannot root anything, so
        // it must fall back (zero survivors) instead of erroring.
        let frozen = CampaignSimulator::new(
            &net,
            ThreatModel::stuxnet_like(),
            CampaignConfig {
                max_ticks: 0,
                detection_stops_attack: false,
            },
        );
        let piloted = frozen.split_milestones_piloted(16, 1);
        assert_eq!(piloted.milestones, frozen.split_milestones());
        assert!(matches!(
            &piloted.placement,
            MilestonePlacement::FixedFallback { reason } if reason.contains("zero Rooted")
        ));
    }
}
