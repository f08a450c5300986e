//! The plant network: nodes, zones, links, firewall rules and the graph
//! analyses used by attack propagation and strategic diversity placement.
//!
//! # Representation
//!
//! Node state is stored **structure-of-arrays**: roles, zones and
//! component profiles are parallel vectors, and the names are one buffer
//! of name bytes with a `u32` end offset per node, so adding a node
//! allocates nothing of its own. The link structure is served from a
//! **CSR topology** (a flat neighbor array indexed by per-node offsets)
//! with a precomputed role index. The CSR view is derived data:
//! it is built lazily on first query after a topology mutation and
//! cached until the next `add_node`/`connect`, so construction stays an
//! append-only edge list while every traversal — campaign propagation,
//! reachability, centrality — runs over two contiguous arrays. Rebuilds
//! cost O(V + E); alternating mutation and query pays that price per
//! alternation, so build the plant first and query after (every
//! generator in this workspace does).
//!
//! Node ids are 32-bit ([`NodeId`]), so every id array — the CSR
//! neighbors, the links, the role index — takes 4 bytes per entry.
//! `add_node` panics rather than let an id pass `u32::MAX` or the name
//! bytes pass 4 GiB.
//!
//! The generators ([`crate::fleet`], [`crate::scope`]) size a plant's
//! buffers once up front and copy each name's bytes straight into the
//! name buffer, assembled in a reused `NameBuf` rather than through
//! `core::fmt`; the public [`ScadaNetwork::add_node`] writes a name's
//! `Display` output into the same buffer.
//!
//! Profile rewrites (diversity placement) do **not** invalidate the
//! cache: the topology depends only on nodes and links.
//!
//! # Shared plants
//!
//! A network is two parts: the **plant** (names, roles, zones, links and
//! the lazily built topology) behind one `Arc`, and the network's own
//! per-node component profiles. Cloning a network copies the `Arc` and
//! the profiles only, so every diversity configuration of one plant
//! shares its node names, its link list and its CSR topology, which is
//! therefore built once per plant rather than once per clone.
//! `profile_mut`/`profiles_mut` touch the clone's own profiles;
//! `add_node`/`connect` on a clone whose plant is shared first detach a
//! private copy of the plant (without its topology), so the original
//! never sees the change.

use crate::components::ComponentProfile;
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashSet, VecDeque};
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

/// Identifies a node within one [`ScadaNetwork`]: a 32-bit index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The underlying index.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a node id from a raw index — for engines that keep
    /// node indexes in their own packed structures (bitsets, counters).
    /// The id is only meaningful for the network whose index space it
    /// came from; out-of-range ids make accessors panic.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    #[must_use]
    #[inline]
    pub fn from_index(index: usize) -> NodeId {
        match u32::try_from(index) {
            Ok(i) => NodeId(i),
            Err(_) => id_out_of_range(index),
        }
    }
}

#[cold]
#[inline(never)]
fn id_out_of_range(index: usize) -> ! {
    panic!("node index {index} exceeds the 32-bit NodeId range")
}

/// Identifies a link within one [`ScadaNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkId(pub(crate) usize);

/// ISA-95-style security zones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub enum Zone {
    /// Office IT / corporate network (level 4).
    Corporate,
    /// Supervisory control: HMI, historian, engineering (level 2-3).
    ControlCenter,
    /// Field network: PLCs, RTUs, devices (level 0-1).
    Field,
}

impl Zone {
    /// All zones, outermost first.
    pub const ALL: [Zone; 3] = [Zone::Corporate, Zone::ControlCenter, Zone::Field];

    /// Position of this zone in [`Zone::ALL`].
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Zone::Corporate => 0,
            Zone::ControlCenter => 1,
            Zone::Field => 2,
        }
    }
}

/// The functional role of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeRole {
    /// Office workstation (initial infection vector, e.g. via USB).
    OfficeWorkstation,
    /// Operator HMI.
    Hmi,
    /// Process historian / database server.
    Historian,
    /// Engineering workstation holding PLC project files.
    EngineeringWorkstation,
    /// Programmable logic controller.
    Plc,
    /// Field gateway / protocol converter.
    FieldGateway,
}

impl NodeRole {
    /// All roles, in declaration order.
    pub const ALL: [NodeRole; 6] = [
        NodeRole::OfficeWorkstation,
        NodeRole::Hmi,
        NodeRole::Historian,
        NodeRole::EngineeringWorkstation,
        NodeRole::Plc,
        NodeRole::FieldGateway,
    ];

    /// Position of this role in [`NodeRole::ALL`] (the role-index key).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            NodeRole::OfficeWorkstation => 0,
            NodeRole::Hmi => 1,
            NodeRole::Historian => 2,
            NodeRole::EngineeringWorkstation => 3,
            NodeRole::Plc => 4,
            NodeRole::FieldGateway => 5,
        }
    }

    /// Whether this role can host the initial infection (removable media,
    /// email, etc. — Stuxnet's entry vectors live in office space).
    #[must_use]
    pub fn is_entry_point(self) -> bool {
        matches!(
            self,
            NodeRole::OfficeWorkstation | NodeRole::EngineeringWorkstation
        )
    }
}

/// An undirected communication link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
}

/// The derived CSR view of a [`ScadaNetwork`]: flat neighbor array plus
/// per-node offsets, and the precomputed role membership lists (each in
/// ascending node-id order). Borrow it once via
/// [`ScadaNetwork::topology`] before a hot loop; all methods are O(1)
/// slice lookups.
#[derive(Debug, Clone)]
pub struct Topology {
    /// `offsets[i]..offsets[i + 1]` indexes node `i`'s neighbors.
    offsets: Vec<u32>,
    /// Flat neighbor array. Per-node neighbor order matches link
    /// insertion order (what the old `Vec<Vec<NodeId>>` adjacency
    /// produced), so RNG draw schedules indexed by neighbor position
    /// are unchanged by the CSR migration.
    neighbors: Vec<NodeId>,
    /// Node ids per [`NodeRole`] (indexed by [`NodeRole::index`]).
    by_role: Vec<Vec<NodeId>>,
    /// The largest node degree (0 without links).
    max_degree: usize,
}

impl Topology {
    fn build(n: usize, roles: &[NodeRole], links: &[Link]) -> Self {
        assert!(
            n < u32::MAX as usize && links.len() < (u32::MAX / 2) as usize,
            "node/link counts exceed the CSR u32 offset range"
        );
        // Counting pass. Before the prefix sum, `offsets[i + 1]` is node
        // `i`'s degree, so the maximum comes with it.
        let mut offsets = vec![0u32; n + 1];
        for l in links {
            offsets[l.a.index() + 1] += 1;
            offsets[l.b.index() + 1] += 1;
        }
        let mut max_degree = 0;
        for i in 0..n {
            max_degree = max_degree.max(offsets[i + 1]);
            offsets[i + 1] += offsets[i];
        }
        // Fill pass, in link insertion order: node `a` receives `b` in
        // exactly the order `connect` was called — the order the old
        // nested-Vec adjacency stored.
        let mut cursor = offsets.clone();
        let mut neighbors = vec![NodeId(0); links.len() * 2];
        for l in links {
            let (a, b) = (l.a.index(), l.b.index());
            neighbors[cursor[a] as usize] = l.b;
            cursor[a] += 1;
            neighbors[cursor[b] as usize] = l.a;
            cursor[b] += 1;
        }
        // Role membership: one ascending pass over the roles array.
        let mut by_role = vec![Vec::new(); NodeRole::ALL.len()];
        for (i, role) in roles.iter().enumerate() {
            by_role[role.index()].push(NodeId(i as u32));
        }
        Topology {
            offsets,
            neighbors,
            by_role,
            max_degree: max_degree as usize,
        }
    }

    /// Neighbors of a node, in link insertion order.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of neighbors of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn degree(&self, id: NodeId) -> usize {
        let i = id.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The largest [`Topology::degree`] of any node; 0 for a network
    /// without links.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Ids of nodes with a given role, ascending.
    #[must_use]
    pub fn with_role(&self, role: NodeRole) -> &[NodeId] {
        &self.by_role[role.index()]
    }
}

/// Every node's name in one buffer: name `i` is the bytes from end
/// `i − 1` (0 for the first name) to end `i`, so a name costs its bytes
/// plus one `u32`, and adding one allocates only when the buffer grows.
#[derive(Clone, Default)]
struct Names {
    bytes: String,
    ends: Vec<u32>,
}

impl Names {
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Name `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    fn get(&self, i: usize) -> &str {
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        &self.bytes[start..self.ends[i] as usize]
    }

    fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Appends the name `write` appends to the buffer. Returns `false`,
    /// with the buffer as it was, if the name would end past `u32::MAX`.
    #[must_use]
    fn push(&mut self, write: impl FnOnce(&mut String)) -> bool {
        let start = self.bytes.len();
        write(&mut self.bytes);
        match u32::try_from(self.bytes.len()) {
            Ok(end) => {
                self.ends.push(end);
                true
            }
            Err(_) => {
                self.bytes.truncate(start);
                false
            }
        }
    }
}

impl fmt::Debug for Names {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The wire form is the plain array of names.
impl Serialize for Names {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(str::to_json_value).collect())
    }
}

impl Deserialize for Names {
    fn from_json_value(v: &Value) -> Result<Self, serde::Error> {
        let mut names = Names::default();
        for name in Vec::<String>::from_json_value(v)? {
            if !names.push(|bytes| bytes.push_str(&name)) {
                return Err(serde::Error::custom(
                    "node names exceed the 4 GiB name buffer",
                ));
            }
        }
        Ok(names)
    }
}

/// The profile-independent part of a network: structure-of-arrays node
/// state, the edge list and the derived [`Topology`] cache. Generators
/// fill one directly and wrap it once with [`ScadaNetwork::from_parts`];
/// a network shares its plant with all of its clones.
#[derive(Debug, Default, Deserialize)]
pub(crate) struct Plant {
    names: Names,
    roles: Vec<NodeRole>,
    zones: Vec<Zone>,
    links: Vec<Link>,
    /// Derived CSR view; invalidated by `add_node`/`connect`, rebuilt on
    /// the next query. Not part of the wire form.
    #[serde(skip)]
    topo: OnceLock<Topology>,
}

impl Clone for Plant {
    /// Copies nodes and links but not the topology: a plant is copied
    /// only to be mutated (see [`ScadaNetwork::add_node`]), which would
    /// invalidate it anyway.
    fn clone(&self) -> Self {
        Plant {
            names: self.names.clone(),
            roles: self.roles.clone(),
            zones: self.zones.clone(),
            links: self.links.clone(),
            topo: OnceLock::new(),
        }
    }
}

impl Plant {
    /// An empty plant with room for `nodes` nodes whose names take
    /// `name_bytes` bytes in all, and for `links` links: adding that
    /// much never regrows a buffer.
    pub(crate) fn with_capacity(nodes: usize, name_bytes: usize, links: usize) -> Self {
        Plant {
            names: Names {
                bytes: String::with_capacity(name_bytes),
                ends: Vec::with_capacity(nodes),
            },
            roles: Vec::with_capacity(nodes),
            zones: Vec::with_capacity(nodes),
            links: Vec::with_capacity(links),
            topo: OnceLock::new(),
        }
    }

    /// Adds a node named `name` and returns its id; the name's bytes
    /// are copied into the name buffer.
    ///
    /// # Panics
    ///
    /// Panics if the new id would exceed `u32::MAX`, or the name buffer
    /// `u32::MAX` bytes.
    pub(crate) fn add_node(&mut self, name: &str, role: NodeRole, zone: Zone) -> NodeId {
        self.push_node(|bytes| bytes.push_str(name), role, zone)
    }

    /// Adds a node whose name `write_name` appends to the name buffer.
    /// The one body behind both add-node paths.
    fn push_node(
        &mut self,
        write_name: impl FnOnce(&mut String),
        role: NodeRole,
        zone: Zone,
    ) -> NodeId {
        let id = NodeId::from_index(self.node_count());
        if !self.names.push(write_name) {
            panic!("node names exceed the 4 GiB name buffer");
        }
        self.topo.take();
        self.roles.push(role);
        self.zones.push(zone);
        id
    }

    /// Connects two nodes with an undirected link.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or the link is a self-loop.
    pub(crate) fn connect(&mut self, a: NodeId, b: NodeId) -> LinkId {
        let n = self.node_count();
        assert!(a.index() < n && b.index() < n, "bad node id");
        assert_ne!(a, b, "self-loops are not allowed");
        self.topo.take();
        self.links.push(Link { a, b });
        LinkId(self.links.len() - 1)
    }

    /// Number of nodes.
    pub(crate) fn node_count(&self) -> usize {
        self.names.len()
    }
}

/// A node name assembled in one reused buffer without `core::fmt`:
/// each name keeps a prefix of the one before and appends a new tail,
/// so a generator writes a shared prefix such as `p{plant}-plc-{sub}`
/// once and each name after it costs one short copy.
#[derive(Debug, Default)]
pub(crate) struct NameBuf(String);

impl NameBuf {
    /// Keeps the first `keep` bytes of the current name and appends
    /// `tail`.
    pub(crate) fn tail(&mut self, keep: usize, tail: &str) -> &str {
        self.0.truncate(keep);
        self.0.push_str(tail);
        &self.0
    }

    /// Keeps the first `keep` bytes of the current name and appends
    /// `tail`, then `n` in decimal.
    pub(crate) fn indexed(&mut self, keep: usize, tail: &str, n: usize) -> &str {
        self.0.truncate(keep);
        self.0.push_str(tail);
        push_decimal(&mut self.0, n);
        &self.0
    }
}

/// Appends `n` in decimal, as `{n}` would format it.
fn push_decimal(out: &mut String, n: usize) {
    if n >= 10 {
        push_decimal(out, n / 10);
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}

/// The plant network graph: a shared plant (structure-of-arrays node
/// state, edge list and the lazily cached [`Topology`]) plus this
/// network's own per-node component profiles. See the module docs for
/// what clones share.
#[derive(Debug, Clone, Default)]
pub struct ScadaNetwork {
    plant: Arc<Plant>,
    profiles: Vec<ComponentProfile>,
}

impl ScadaNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        ScadaNetwork::default()
    }

    /// Wraps a plant and its per-node profiles — the one constructor
    /// behind the generators and deserialization. Rejects parts that
    /// contradict each other: per-node arrays of unequal length, link
    /// endpoints out of range, or self-loops.
    ///
    /// # Errors
    ///
    /// Returns a [`serde::Error`] describing the first inconsistency.
    pub(crate) fn from_parts(
        plant: Plant,
        profiles: Vec<ComponentProfile>,
    ) -> Result<Self, serde::Error> {
        let n = plant.node_count();
        for (what, len) in [
            ("roles", plant.roles.len()),
            ("zones", plant.zones.len()),
            ("profiles", profiles.len()),
        ] {
            if len != n {
                return Err(serde::Error::custom(format!(
                    "network has {n} names but {len} {what}"
                )));
            }
        }
        for (i, l) in plant.links.iter().enumerate() {
            if l.a.index() >= n || l.b.index() >= n {
                return Err(serde::Error::custom(format!(
                    "link {i} ({}–{}) leaves the {n}-node network",
                    l.a.0, l.b.0
                )));
            }
            if l.a == l.b {
                return Err(serde::Error::custom(format!(
                    "link {i} is a self-loop on node {}",
                    l.a.0
                )));
            }
        }
        Ok(ScadaNetwork {
            plant: Arc::new(plant),
            profiles,
        })
    }

    /// The plant, detached from every clone sharing it (copied without
    /// its topology) so a topology mutation stays private to `self`.
    fn plant_mut(&mut self) -> &mut Plant {
        Arc::make_mut(&mut self.plant)
    }

    /// Adds a node named by `name`'s `Display` output (a `&str`, a
    /// `String` or `format_args!`) and returns its id. The name is
    /// written straight into the plant's name buffer, so it costs no
    /// allocation of its own. On a clone, this first detaches a private
    /// copy of the shared plant.
    ///
    /// # Panics
    ///
    /// Panics if the new id would exceed `u32::MAX`, or the plant's
    /// name bytes `u32::MAX`.
    pub fn add_node(
        &mut self,
        name: impl fmt::Display,
        role: NodeRole,
        zone: Zone,
        profile: ComponentProfile,
    ) -> NodeId {
        let write_name =
            |bytes: &mut String| write!(bytes, "{name}").expect("writing to a String cannot fail");
        let id = self.plant_mut().push_node(write_name, role, zone);
        self.profiles.push(profile);
        id
    }

    /// Connects two nodes with an undirected link. On a clone, this
    /// first detaches a private copy of the shared plant.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range or the link is a self-loop.
    pub fn connect(&mut self, a: NodeId, b: NodeId) -> LinkId {
        self.plant_mut().connect(a, b)
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.plant.node_count()
    }

    /// Number of links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.plant.links.len()
    }

    /// Every link, in the order `connect` added them.
    #[must_use]
    pub fn links(&self) -> &[Link] {
        &self.plant.links
    }

    /// The derived CSR topology (flat neighbors + role index),
    /// building it if a mutation invalidated the cache. The cache lives
    /// in the shared plant, so it is built once for a network and all
    /// of its clones. Hot loops should call this once and keep the
    /// reference.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        let p = &*self.plant;
        p.topo
            .get_or_init(|| Topology::build(p.node_count(), &p.roles, &p.links))
    }

    /// Display name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn name(&self, id: NodeId) -> &str {
        self.plant.names.get(id.index())
    }

    /// Functional role of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn role(&self, id: NodeId) -> NodeRole {
        self.plant.roles[id.index()]
    }

    /// Security zone of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn zone(&self, id: NodeId) -> Zone {
        self.plant.zones[id.index()]
    }

    /// Deployed component variants of a node (where the diversity
    /// configuration acts).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn profile(&self, id: NodeId) -> &ComponentProfile {
        &self.profiles[id.index()]
    }

    /// Mutable profile access (used by diversity placement). Touches
    /// only this network's own profiles — never a clone's — and does not
    /// invalidate the cached topology: role, zone and links are fixed at
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn profile_mut(&mut self, id: NodeId) -> &mut ComponentProfile {
        &mut self.profiles[id.index()]
    }

    /// The per-node profile array (parallel to node ids) — the SoA view
    /// for bulk readers.
    #[must_use]
    pub fn profiles(&self) -> &[ComponentProfile] {
        &self.profiles
    }

    /// The per-node profile array, mutable — the bulk form of
    /// [`ScadaNetwork::profile_mut`], with the same guarantees.
    pub fn profiles_mut(&mut self) -> &mut [ComponentProfile] {
        &mut self.profiles
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Ids of nodes with a given role, in ascending id order — served
    /// from the precomputed role index, no allocation.
    #[must_use]
    pub fn nodes_with_role(&self, role: NodeRole) -> &[NodeId] {
        self.topology().with_role(role)
    }

    /// Neighbors of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        self.topology().neighbors(id)
    }

    /// Number of neighbors of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn degree(&self, id: NodeId) -> usize {
        self.topology().degree(id)
    }

    /// Whether a hop from `from` to `to` crosses a zone boundary (and is
    /// therefore subject to the target's firewall policy).
    #[must_use]
    pub fn crosses_zone(&self, from: NodeId, to: NodeId) -> bool {
        self.plant.zones[from.index()] != self.plant.zones[to.index()]
    }

    /// Nodes reachable from `start` (ignoring firewalls) — basic
    /// connectivity.
    #[must_use]
    pub fn reachable(&self, start: NodeId) -> HashSet<NodeId> {
        let topo = self.topology();
        let mut seen = HashSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(n) = queue.pop_front() {
            for &next in topo.neighbors(n) {
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        seen
    }

    /// Betweenness-like centrality: for every node, the number of
    /// shortest-path trees (one BFS per source) in which it appears as an
    /// interior vertex. Cheap (O(V·E)) and sufficient to rank choke
    /// points for *strategic* diversity placement.
    ///
    /// Runs over the CSR arrays with one set of scratch buffers reused
    /// across all V source BFS passes (epoch-stamped visit marks, so no
    /// per-source clearing) — the only allocations are the scratch set
    /// and the returned ranking.
    #[must_use]
    pub fn centrality(&self) -> Vec<(NodeId, f64)> {
        let topo = self.topology();
        let n = self.node_count();
        let mut score = vec![0.0f64; n];
        // Scratch reused across sources: a visit stamp per node (stamp ==
        // current epoch ⇔ visited this BFS), BFS parents, and the queue.
        let mut stamp = vec![0u32; n];
        let mut parent = vec![u32::MAX; n];
        let mut queue: VecDeque<u32> = VecDeque::with_capacity(n);
        for src in 0..n {
            let epoch = src as u32 + 1;
            stamp[src] = epoch;
            parent[src] = u32::MAX;
            queue.clear();
            queue.push_back(src as u32);
            while let Some(u) = queue.pop_front() {
                for &NodeId(v) in topo.neighbors(NodeId(u)) {
                    let i = v as usize;
                    if stamp[i] != epoch {
                        stamp[i] = epoch;
                        parent[i] = u;
                        queue.push_back(v);
                    }
                }
            }
            // Walk each destination's path and credit interior vertices.
            for dst in 0..n {
                if dst == src || stamp[dst] != epoch {
                    continue;
                }
                let mut cur = parent[dst];
                while cur != u32::MAX {
                    if cur as usize != src {
                        score[cur as usize] += 1.0;
                    }
                    cur = parent[cur as usize];
                }
            }
        }
        let mut out: Vec<(NodeId, f64)> = self.node_ids().zip(score).collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are finite"));
        out
    }

    /// Shortest hop distance between two nodes, if connected.
    #[must_use]
    pub fn hop_distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let topo = self.topology();
        let mut dist = vec![usize::MAX; self.node_count()];
        dist[from.index()] = 0;
        let mut q = VecDeque::from([from]);
        while let Some(u) = q.pop_front() {
            for &v in topo.neighbors(u) {
                if dist[v.index()] == usize::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    if v == to {
                        return Some(dist[v.index()]);
                    }
                    q.push_back(v);
                }
            }
        }
        None
    }
}

impl fmt::Display for ScadaNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "network: {} nodes, {} links",
            self.node_count(),
            self.link_count()
        )?;
        for id in self.node_ids() {
            writeln!(
                f,
                "  [{:>3}] {:<24} {:?} / {:?}",
                id.0,
                self.name(id),
                self.role(id),
                self.zone(id)
            )?;
        }
        Ok(())
    }
}

/// The wire form `{names, roles, zones, profiles, links}`: the plant's
/// arrays with the profiles between zones and links. The topology is
/// derived, so it is not written.
impl Serialize for ScadaNetwork {
    fn to_json_value(&self) -> Value {
        let p = &*self.plant;
        Value::Object(vec![
            ("names".to_string(), p.names.to_json_value()),
            ("roles".to_string(), p.roles.to_json_value()),
            ("zones".to_string(), p.zones.to_json_value()),
            ("profiles".to_string(), self.profiles.to_json_value()),
            ("links".to_string(), p.links.to_json_value()),
        ])
    }
}

/// Parses the wire form through the same validating constructor the
/// generators use, so a document whose arrays contradict each other
/// (unequal per-node arrays, a link endpoint out of range, a self-loop)
/// is an error here rather than a panic at the first query.
impl Deserialize for ScadaNetwork {
    fn from_json_value(v: &Value) -> Result<Self, serde::Error> {
        let plant = Plant::from_json_value(v)?;
        let profiles = v
            .get("profiles")
            .ok_or_else(|| serde::Error::custom("missing field `profiles` of `ScadaNetwork`"))?;
        ScadaNetwork::from_parts(plant, Deserialize::from_json_value(profiles)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ComponentProfile {
        ComponentProfile::default()
    }

    /// corp — hmi — plc1, plc2 (star around hmi).
    fn small_net() -> (ScadaNetwork, NodeId, NodeId, NodeId, NodeId) {
        let mut net = ScadaNetwork::new();
        let corp = net.add_node(
            "corp",
            NodeRole::OfficeWorkstation,
            Zone::Corporate,
            profile(),
        );
        let hmi = net.add_node("hmi", NodeRole::Hmi, Zone::ControlCenter, profile());
        let plc1 = net.add_node("plc1", NodeRole::Plc, Zone::Field, profile());
        let plc2 = net.add_node("plc2", NodeRole::Plc, Zone::Field, profile());
        net.connect(corp, hmi);
        net.connect(hmi, plc1);
        net.connect(hmi, plc2);
        (net, corp, hmi, plc1, plc2)
    }

    #[test]
    fn construction_and_lookup() {
        let (net, corp, hmi, plc1, _) = small_net();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.link_count(), 3);
        assert_eq!(net.name(corp), "corp");
        assert_eq!(net.nodes_with_role(NodeRole::Plc).len(), 2);
        let control: Vec<NodeId> = net
            .node_ids()
            .filter(|&id| net.zone(id) == Zone::ControlCenter)
            .collect();
        assert_eq!(control, [hmi]);
        assert_eq!(net.neighbors(hmi).len(), 3);
        assert!(net.crosses_zone(corp, hmi));
        assert!(!net.crosses_zone(plc1, plc1));
    }

    #[test]
    fn csr_neighbor_order_matches_link_insertion_order() {
        let (net, corp, hmi, plc1, plc2) = small_net();
        // Node `hmi` received corp (link 0), plc1 (link 1), plc2 (link 2)
        // — exactly the order the old nested-Vec adjacency stored.
        assert_eq!(net.neighbors(hmi), &[corp, plc1, plc2]);
        assert_eq!(net.neighbors(corp), &[hmi]);
        assert_eq!(net.degree(hmi), 3);
        assert_eq!(net.degree(plc2), 1);
        assert_eq!(net.topology().max_degree(), 3);
        assert_eq!(ScadaNetwork::new().topology().max_degree(), 0);
    }

    #[test]
    fn role_and_zone_indexes_are_ascending() {
        let (net, _, _, plc1, plc2) = small_net();
        assert_eq!(net.nodes_with_role(NodeRole::Plc), &[plc1, plc2]);
        assert!(net.nodes_with_role(NodeRole::Historian).is_empty());
    }

    #[test]
    fn topology_cache_invalidated_by_mutation() {
        let (mut net, corp, hmi, ..) = small_net();
        assert_eq!(net.neighbors(corp).len(), 1);
        // Mutate after a query: the cache must rebuild.
        let extra = net.add_node("extra", NodeRole::Historian, Zone::ControlCenter, profile());
        net.connect(corp, extra);
        assert_eq!(net.neighbors(corp).len(), 2);
        assert_eq!(net.nodes_with_role(NodeRole::Historian), &[extra]);
        assert_eq!(net.neighbors(hmi).len(), 3);
    }

    #[test]
    fn profile_rewrites_do_not_invalidate_topology() {
        let (mut net, corp, hmi, ..) = small_net();
        let before = net.topology() as *const Topology;
        net.profile_mut(corp).os = crate::components::OsVariant::Linux;
        let after = net.topology() as *const Topology;
        assert_eq!(before, after, "profile edits must keep the CSR cache");
        assert_eq!(net.neighbors(hmi).len(), 3);
    }

    #[test]
    fn reachability_spans_connected_graph() {
        let (net, corp, ..) = small_net();
        assert_eq!(net.reachable(corp).len(), 4);
    }

    #[test]
    fn disconnected_node_unreachable() {
        let (mut net, corp, ..) = small_net();
        let island = net.add_node("island", NodeRole::Plc, Zone::Field, profile());
        assert!(!net.reachable(corp).contains(&island));
        assert_eq!(net.hop_distance(corp, island), None);
    }

    #[test]
    fn hop_distances() {
        let (net, corp, hmi, plc1, plc2) = small_net();
        assert_eq!(net.hop_distance(corp, corp), Some(0));
        assert_eq!(net.hop_distance(corp, hmi), Some(1));
        assert_eq!(net.hop_distance(corp, plc1), Some(2));
        assert_eq!(net.hop_distance(plc1, plc2), Some(2));
    }

    #[test]
    fn centrality_ranks_choke_point_first() {
        let (net, _, hmi, ..) = small_net();
        let ranking = net.centrality();
        assert_eq!(ranking[0].0, hmi, "hub should be most central");
        assert!(ranking[0].1 > 0.0);
    }

    #[test]
    fn centrality_zero_for_leaves() {
        let (net, corp, ..) = small_net();
        let ranking = net.centrality();
        let corp_score = ranking.iter().find(|(id, _)| *id == corp).unwrap().1;
        assert_eq!(corp_score, 0.0);
    }

    #[test]
    fn centrality_handles_disconnected_components() {
        let (mut net, _, hmi, ..) = small_net();
        let a = net.add_node("a", NodeRole::Plc, Zone::Field, profile());
        let b = net.add_node("b", NodeRole::Plc, Zone::Field, profile());
        let c = net.add_node("c", NodeRole::Plc, Zone::Field, profile());
        net.connect(a, b);
        net.connect(b, c);
        let ranking = net.centrality();
        // `b` is interior on a–c paths (both directions), `hmi` interior
        // on all cross-leaf paths of the star; both score > 0.
        let score = |id| ranking.iter().find(|(i, _)| *i == id).unwrap().1;
        assert!(score(b) > 0.0);
        assert!(score(hmi) > score(b));
        assert_eq!(score(a), 0.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let (mut net, corp, ..) = small_net();
        net.connect(corp, corp);
    }

    #[test]
    fn entry_point_roles() {
        assert!(NodeRole::OfficeWorkstation.is_entry_point());
        assert!(NodeRole::EngineeringWorkstation.is_entry_point());
        assert!(!NodeRole::Plc.is_entry_point());
        assert!(!NodeRole::Historian.is_entry_point());
    }

    #[test]
    fn role_and_zone_index_round_trip() {
        for (i, r) in NodeRole::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        for (i, z) in Zone::ALL.iter().enumerate() {
            assert_eq!(z.index(), i);
        }
    }

    #[test]
    fn display_lists_nodes() {
        let (net, ..) = small_net();
        let s = net.to_string();
        assert!(s.contains("4 nodes"));
        assert!(s.contains("plc1"));
    }

    #[test]
    fn profile_mut_updates_profile() {
        let (mut net, corp, ..) = small_net();
        *net.profile_mut(corp) = ComponentProfile::hardened();
        assert!(net.profile(corp).resilience() > 0.5);
    }

    #[test]
    fn serde_round_trip_rebuilds_topology() {
        let (net, _, hmi, ..) = small_net();
        let json = serde_json::to_string(&net).unwrap();
        let back: ScadaNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(back.node_count(), net.node_count());
        assert_eq!(back.neighbors(hmi), net.neighbors(hmi));
        assert_eq!(
            back.nodes_with_role(NodeRole::Plc),
            net.nodes_with_role(NodeRole::Plc)
        );
    }

    #[test]
    fn clones_share_one_topology() {
        let (net, ..) = small_net();
        assert!(std::ptr::eq(net.topology(), net.clone().topology()));
        // Built on first query through a clone, it serves the original.
        let (fresh, ..) = small_net();
        let copy = fresh.clone();
        assert!(std::ptr::eq(copy.topology(), fresh.topology()));
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_unchanged() {
        let (net, corp, hmi, plc1, _) = small_net();
        let _ = net.topology();
        let mut copy = net.clone();
        let extra = copy.add_node("extra", NodeRole::Historian, Zone::ControlCenter, profile());
        copy.connect(corp, extra);
        *copy.profile_mut(plc1) = ComponentProfile::hardened();
        copy.profiles_mut()[hmi.index()].os = crate::components::OsVariant::Linux;

        assert_eq!((net.node_count(), net.link_count()), (4, 3));
        assert_eq!(net.neighbors(corp), &[hmi]);
        assert!(net.nodes_with_role(NodeRole::Historian).is_empty());
        assert!(net.profiles().iter().all(|p| *p == profile()));

        assert_eq!((copy.node_count(), copy.link_count()), (5, 4));
        assert_eq!(copy.neighbors(corp), &[hmi, extra]);
        assert_eq!(copy.nodes_with_role(NodeRole::Historian), &[extra]);
        assert_eq!(*copy.profile(plc1), ComponentProfile::hardened());
        assert_eq!(copy.profile(hmi).os, crate::components::OsVariant::Linux);
    }

    /// Three nodes with three distinct profiles, and the exact JSON the
    /// network serialized to before the plant was shared.
    fn wire_net() -> (ScadaNetwork, &'static str) {
        let mut net = ScadaNetwork::new();
        let corp = net.add_node(
            "corp",
            NodeRole::OfficeWorkstation,
            Zone::Corporate,
            profile(),
        );
        let hmi = net.add_node(
            "hmi",
            NodeRole::Hmi,
            Zone::ControlCenter,
            ComponentProfile::hardened(),
        );
        let plc = net.add_node(
            "plc",
            NodeRole::Plc,
            Zone::Field,
            ComponentProfile {
                os: crate::components::OsVariant::Linux,
                ..profile()
            },
        );
        net.connect(corp, hmi);
        net.connect(hmi, plc);
        let json = concat!(
            r#"{"names":["corp","hmi","plc"],"#,
            r#""roles":["OfficeWorkstation","Hmi","Plc"],"#,
            r#""zones":["Corporate","ControlCenter","Field"],"#,
            r#""profiles":[{"os":"WindowsLegacy","plc_firmware":"VendorAStock","dialect":"Classic","firewall":"Permissive","sensor":"Commodity","historian":"CommercialSuite"},"#,
            r#"{"os":"HardenedRtos","plc_firmware":"Verified","dialect":"Authenticated","firewall":"Strict","sensor":"Authenticated","historian":"OpenTelemetry"},"#,
            r#"{"os":"Linux","plc_firmware":"VendorAStock","dialect":"Classic","firewall":"Permissive","sensor":"Commodity","historian":"CommercialSuite"}],"#,
            r#""links":[{"a":[0],"b":[1]},{"a":[1],"b":[2]}]}"#
        );
        (net, json)
    }

    #[test]
    fn serializes_to_the_pinned_wire_shape() {
        let (net, json) = wire_net();
        assert_eq!(serde_json::to_string(&net).unwrap(), json);
        let back: ScadaNetwork = serde_json::from_str(json).unwrap();
        assert_eq!(back.profiles(), net.profiles());
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    fn parse(json: &str) -> Result<ScadaNetwork, serde_json::Error> {
        serde_json::from_str(json)
    }

    #[test]
    fn json_with_a_short_per_node_array_is_rejected() {
        let (_, json) = wire_net();
        let bad = json.replace(r#""Hmi","Plc"]"#, r#""Hmi"]"#);
        let err = parse(&bad).unwrap_err().to_string();
        assert!(err.contains("3 names but 2 roles"), "{err}");
    }

    #[test]
    fn json_with_a_link_endpoint_out_of_range_is_rejected() {
        let (_, json) = wire_net();
        let bad = json.replace(r#"{"a":[1],"b":[2]}"#, r#"{"a":[1],"b":[3]}"#);
        let err = parse(&bad).unwrap_err().to_string();
        assert!(err.contains("leaves the 3-node network"), "{err}");
    }

    #[test]
    fn json_with_a_self_loop_link_is_rejected() {
        let (_, json) = wire_net();
        let bad = json.replace(r#"{"a":[1],"b":[2]}"#, r#"{"a":[1],"b":[1]}"#);
        let err = parse(&bad).unwrap_err().to_string();
        assert!(err.contains("self-loop"), "{err}");
    }

    #[test]
    fn json_with_a_link_endpoint_past_u32_is_rejected() {
        // 2^32 + 1 would alias node 1 if it were truncated, turning the
        // link into a valid duplicate of 1–2.
        let (_, json) = wire_net();
        let bad = json.replace(r#"{"a":[1],"b":[2]}"#, r#"{"a":[4294967297],"b":[2]}"#);
        let err = parse(&bad).unwrap_err().to_string();
        assert!(err.contains("u32"), "{err}");
    }

    #[test]
    fn ids_and_links_are_four_and_eight_bytes() {
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert_eq!(std::mem::size_of::<Link>(), 8);
    }

    #[test]
    fn node_id_takes_every_u32_index() {
        assert_eq!(NodeId::from_index(0).index(), 0);
        let last = u32::MAX as usize;
        assert_eq!(NodeId::from_index(last).index(), last);
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-bit NodeId range")]
    fn node_id_past_u32_max_panics() {
        let _ = NodeId::from_index(u32::MAX as usize + 1);
    }

    #[test]
    fn names_round_trip_through_the_buffer_and_the_json() {
        let mut net = ScadaNetwork::new();
        let names = ["", "hmi", "Überwachung-β", "", "plc-7"];
        let ids: Vec<NodeId> = names
            .iter()
            .map(|name| net.add_node(name, NodeRole::Plc, Zone::Field, profile()))
            .collect();
        let formatted = net.add_node(
            format_args!("p{}-gw-{}", 3, 14),
            NodeRole::FieldGateway,
            Zone::Field,
            profile(),
        );
        for (&id, name) in ids.iter().zip(names) {
            assert_eq!(net.name(id), name);
        }
        assert_eq!(net.name(formatted), "p3-gw-14");

        let json = serde_json::to_string(&net).unwrap();
        assert!(
            json.starts_with(r#"{"names":["","hmi","Überwachung-β","","plc-7","p3-gw-14"],"#),
            "{json}"
        );
        let back: ScadaNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(back.node_count(), names.len() + 1);
        for id in net.node_ids() {
            assert_eq!(back.name(id), net.name(id));
        }
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn name_buf_writes_what_format_writes() {
        let mut name = NameBuf::default();
        for n in [0, 1, 9, 10, 11, 99, 100, 1_000_016, usize::MAX] {
            assert_eq!(name.indexed(0, "p", n), format!("p{n}"));
        }
        let p = name.indexed(0, "p", 42).len();
        assert_eq!(name.tail(p, "-hmi"), "p42-hmi");
        let plc = name.indexed(p, "-plc-", 10).len();
        assert_eq!(name.indexed(plc, "-", 9), "p42-plc-10-9");
        assert_eq!(name.indexed(plc, "-", 10), "p42-plc-10-10");
        assert_eq!(name.indexed(p, "-gw-", 3), "p42-gw-3");
    }

    #[test]
    fn a_plant_filled_within_its_capacity_never_regrows() {
        let mut plant = Plant::with_capacity(3, 9, 2);
        let capacities = |p: &Plant| {
            [
                p.names.bytes.capacity(),
                p.names.ends.capacity(),
                p.roles.capacity(),
                p.zones.capacity(),
                p.links.capacity(),
            ]
        };
        let before = capacities(&plant);
        let a = plant.add_node("hmi", NodeRole::Hmi, Zone::ControlCenter);
        let b = plant.add_node("plc-1", NodeRole::Plc, Zone::Field);
        let c = plant.add_node("x", NodeRole::Plc, Zone::Field);
        plant.connect(a, b);
        plant.connect(a, c);
        assert_eq!(capacities(&plant), before);
        let net = ScadaNetwork::from_parts(plant, vec![profile(); 3]).unwrap();
        let names: Vec<&str> = net.node_ids().map(|id| net.name(id)).collect();
        assert_eq!(names, ["hmi", "plc-1", "x"]);
        assert_eq!(net.neighbors(a), &[b, c]);
    }

    #[test]
    fn add_node_on_a_clone_leaves_the_original_names_untouched() {
        let (net, ..) = small_net();
        let mut copy = net.clone();
        let extra = copy.add_node("extra-ü", NodeRole::Hmi, Zone::ControlCenter, profile());
        assert_eq!(copy.name(extra), "extra-ü");
        assert_eq!(copy.node_count(), 5);

        assert_eq!(net.node_count(), 4);
        let original: Vec<&str> = net.node_ids().map(|id| net.name(id)).collect();
        assert_eq!(original, ["corp", "hmi", "plc1", "plc2"]);
        let copied: Vec<&str> = copy.node_ids().map(|id| copy.name(id)).collect();
        assert_eq!(copied, ["corp", "hmi", "plc1", "plc2", "extra-ü"]);
    }
}
