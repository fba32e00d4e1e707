//! The fabric topology graph: devices, ports and links.
//!
//! This is the *ground truth* a generator produces and the simulator
//! instantiates. The fabric manager never reads it directly — it must
//! rediscover the same structure through PI-4 packets, and the test suite
//! checks the discovered database against this graph.

use asi_proto::DeviceType;
use std::collections::VecDeque;
use std::fmt;

/// Index of a device within a [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The index as `usize`.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A device in the topology. Its label and its ports' links live in the
/// topology's flat tables; the node holds where its share of each is.
#[derive(Clone, Debug)]
pub struct Node {
    /// Switch or endpoint.
    pub device_type: DeviceType,
    /// Number of ports.
    pub ports: u8,
    /// Index of port 0's entry in the topology's flat port table.
    first_port: u32,
    /// End of this node's label in the topology's label arena; it begins
    /// where the previous node's ends.
    label_end: u32,
}

/// The port table entry of an unlinked port.
const NO_LINK: u32 = u32::MAX;

/// One end of a link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Attachment {
    /// The device.
    pub node: NodeId,
    /// The port on that device.
    pub port: u8,
}

/// A bidirectional link between two ports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Link {
    /// One end.
    pub a: Attachment,
    /// The other end.
    pub b: Attachment,
}

/// Errors building a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyError {
    /// Port index outside the device's port count.
    PortOutOfRange {
        /// Offending attachment.
        at: Attachment,
        /// The device's port count.
        ports: u8,
    },
    /// The port already has a link.
    PortInUse(Attachment),
    /// Self-loops are not allowed.
    SelfLoop(NodeId),
    /// Unknown node id.
    UnknownNode(NodeId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::PortOutOfRange { at, ports } => write!(
                f,
                "port {} out of range on {} ({} ports)",
                at.port, at.node, ports
            ),
            TopologyError::PortInUse(at) => {
                write!(f, "port {} on {} already linked", at.port, at.node)
            }
            TopologyError::SelfLoop(n) => write!(f, "self-loop on {n}"),
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Structural defects reported by [`Topology::validate`].
///
/// [`Topology::connect`] maintains these invariants incrementally; the
/// whole-graph check exists so generators (especially the large
/// parameterised ones) can certify their output in one O(nodes + links)
/// pass, and so tests can assert on corruption symptoms directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationError {
    /// A link references a node or port that does not exist.
    DanglingLink(Attachment),
    /// A port's link back-reference does not name a link that attaches
    /// to that port (the link table is asymmetric).
    AsymmetricLink(Attachment),
    /// More than one link claims the same `(node, port)`.
    PortDoubleUse(Attachment),
    /// Not every device can reach every other.
    Disconnected {
        /// Devices reachable from node 0.
        reachable: usize,
        /// Total devices.
        total: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::DanglingLink(at) => {
                write!(f, "link references missing port {} on {}", at.port, at.node)
            }
            ValidationError::AsymmetricLink(at) => {
                write!(
                    f,
                    "asymmetric link table at port {} on {}",
                    at.port, at.node
                )
            }
            ValidationError::PortDoubleUse(at) => {
                write!(
                    f,
                    "port {} on {} used by more than one link",
                    at.port, at.node
                )
            }
            ValidationError::Disconnected { reachable, total } => {
                write!(
                    f,
                    "disconnected fabric: {reachable} of {total} devices reachable"
                )
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// An immutable-after-build fabric topology.
///
/// What varies in length from node to node — its label, its ports'
/// links — is kept in one table for the whole topology, in node order,
/// so a topology is a handful of allocations however many nodes it has.
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// The link index at every port, node by node: `(node, port)` is
    /// entry `first_port + port` of its node; [`NO_LINK`] if unlinked.
    port_links: Vec<u32>,
    /// Every node's label, end to end in node order.
    labels: String,
    /// Short name of the topology family ("6x6 mesh", …).
    pub name: String,
}

impl Topology {
    /// Empty topology.
    pub fn new(name: impl Into<String>) -> Topology {
        Topology {
            name: name.into(),
            ..Topology::default()
        }
    }

    /// Adds a switch with `ports` ports; returns its id.
    pub fn add_switch(&mut self, ports: u8, label: impl Into<String>) -> NodeId {
        self.add_node(DeviceType::Switch, ports, label)
    }

    /// Adds an endpoint (1 port by default in the paper's model).
    pub fn add_endpoint(&mut self, label: impl Into<String>) -> NodeId {
        self.add_node(DeviceType::Endpoint, 1, label)
    }

    /// Adds an endpoint with a custom port count (≤ 4 per the spec).
    pub fn add_endpoint_with_ports(&mut self, ports: u8, label: impl Into<String>) -> NodeId {
        debug_assert!((1..=4).contains(&ports), "endpoints support up to 4 ports");
        self.add_node(DeviceType::Endpoint, ports, label)
    }

    fn add_node(&mut self, device_type: DeviceType, ports: u8, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let first_port = self.port_links.len() as u32;
        self.port_links
            .resize(self.port_links.len() + usize::from(ports), NO_LINK);
        self.labels.push_str(&label.into());
        self.nodes.push(Node {
            device_type,
            ports,
            first_port,
            label_end: self.labels.len() as u32,
        });
        id
    }

    /// The entry of `(node, port)` in the flat port table, if the node
    /// has that port.
    fn slot(&self, node: NodeId, port: u8) -> Option<usize> {
        let n = self.nodes.get(node.idx())?;
        (port < n.ports).then(|| n.first_port as usize + usize::from(port))
    }

    /// Connects `(a, port_a)` to `(b, port_b)`.
    pub fn connect(
        &mut self,
        a: NodeId,
        port_a: u8,
        b: NodeId,
        port_b: u8,
    ) -> Result<(), TopologyError> {
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        let mut slots = [0; 2];
        for (slot, (n, p)) in slots.iter_mut().zip([(a, port_a), (b, port_b)]) {
            let node = self
                .nodes
                .get(n.idx())
                .ok_or(TopologyError::UnknownNode(n))?;
            let at = Attachment { node: n, port: p };
            *slot = self.slot(n, p).ok_or(TopologyError::PortOutOfRange {
                at,
                ports: node.ports,
            })?;
            if self.port_links[*slot] != NO_LINK {
                return Err(TopologyError::PortInUse(at));
            }
        }
        let link_idx = self.links.len() as u32;
        self.links.push(Link {
            a: Attachment {
                node: a,
                port: port_a,
            },
            b: Attachment {
                node: b,
                port: port_b,
            },
        });
        for slot in slots {
            self.port_links[slot] = link_idx;
        }
        Ok(())
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.idx())
    }

    /// The human-readable label a generator gave `id` ("sw(2,3)", "ep7",
    /// …), for traces and plots.
    ///
    /// # Panics
    /// Panics if `id` is not a node of this topology.
    pub fn label(&self, id: NodeId) -> &str {
        let start = match id.idx() {
            0 => 0,
            i => self.nodes[i - 1].label_end,
        };
        &self.labels[start as usize..self.nodes[id.idx()].label_end as usize]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The peer attached at `(node, port)`, if any.
    pub fn peer(&self, node: NodeId, port: u8) -> Option<Attachment> {
        let link_idx = self.port_links[self.slot(node, port)?];
        if link_idx == NO_LINK {
            return None;
        }
        let link = self.links[link_idx as usize];
        if link.a.node == node && link.a.port == port {
            Some(link.b)
        } else {
            Some(link.a)
        }
    }

    /// Iterates `(local_port, peer)` over the connected ports of `node`.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (u8, Attachment)> + '_ {
        let ports = self
            .nodes
            .get(node.idx())
            .map(|n| n.ports)
            .unwrap_or_default();
        (0..ports).filter_map(move |p| self.peer(node, p).map(|at| (p, at)))
    }

    /// Total device count.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Switch count.
    pub fn switch_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.device_type == DeviceType::Switch)
            .count()
    }

    /// Endpoint count.
    pub fn endpoint_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.device_type == DeviceType::Endpoint)
            .count()
    }

    /// Ids of all endpoints.
    pub fn endpoints(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.device_type == DeviceType::Endpoint)
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of all switches.
    pub fn switches(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.device_type == DeviceType::Switch)
            .map(|(id, _)| id)
            .collect()
    }

    /// Number of connected (linked) ports on `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.neighbors(node).count()
    }

    /// Set of nodes reachable from `start`, optionally treating `removed`
    /// nodes as absent (used to predict post-change reachability).
    pub fn reachable_from(&self, start: NodeId, removed: &[NodeId]) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        for r in removed {
            if let Some(s) = seen.get_mut(r.idx()) {
                *s = true;
            }
        }
        if seen.get(start.idx()).copied().unwrap_or(true) {
            return Vec::new();
        }
        let mut queue = VecDeque::new();
        let mut out = Vec::new();
        seen[start.idx()] = true;
        queue.push_back(start);
        while let Some(n) = queue.pop_front() {
            out.push(n);
            for (_, peer) in self.neighbors(n) {
                if !seen[peer.node.idx()] {
                    seen[peer.node.idx()] = true;
                    queue.push_back(peer.node);
                }
            }
        }
        out
    }

    /// Renders the topology as Graphviz DOT (the paper's Fig. 5 shows
    /// exactly such drawings): switches as boxes, endpoints as circles,
    /// links labelled with their port pairs.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "graph \"{}\" {{{{", self.name);
        let _ = writeln!(out, "  layout=neato; overlap=false; splines=true;");
        for (id, node) in self.nodes() {
            let (shape, color) = match node.device_type {
                DeviceType::Switch => ("box", "lightblue"),
                DeviceType::Endpoint => ("circle", "lightgrey"),
            };
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\" shape={shape} style=filled fillcolor={color}];",
                id.0,
                self.label(id)
            );
        }
        for link in &self.links {
            let _ = writeln!(
                out,
                "  n{} -- n{} [label=\"{}:{}\"];",
                link.a.node.0, link.b.node.0, link.a.port, link.b.port
            );
        }
        out.push_str(
            "}
",
        );
        out
    }

    /// Certifies the whole graph in one pass: every link attaches to
    /// existing in-range ports, every port's link back-reference is
    /// symmetric (so [`Topology::peer`] of a peer round-trips), no port
    /// carries two links, and the fabric is connected.
    ///
    /// Generators call this on their finished output; it is
    /// O(nodes + links), so even the 64×64 grids validate in
    /// microseconds.
    pub fn validate(&self) -> Result<(), ValidationError> {
        for (idx, link) in self.links.iter().enumerate() {
            for at in [link.a, link.b] {
                let Some(slot) = self.slot(at.node, at.port) else {
                    return Err(ValidationError::DanglingLink(at));
                };
                match self.port_links[slot] {
                    back if back as usize == idx => {}
                    NO_LINK => return Err(ValidationError::AsymmetricLink(at)),
                    // The port's back-reference names a different link:
                    // two links claim this port.
                    _ => return Err(ValidationError::PortDoubleUse(at)),
                }
            }
            if link.a.node == link.b.node {
                return Err(ValidationError::DanglingLink(link.a));
            }
        }
        for (id, node) in self.nodes() {
            for port in 0..node.ports {
                let li = self.port_links[node.first_port as usize + usize::from(port)];
                if li == NO_LINK {
                    continue;
                }
                let at = Attachment { node: id, port };
                let attaches = self
                    .links
                    .get(li as usize)
                    .is_some_and(|l| l.a == at || l.b == at);
                if !attaches {
                    return Err(ValidationError::AsymmetricLink(at));
                }
            }
        }
        let reachable = if self.nodes.is_empty() {
            0
        } else {
            self.reachable_from(NodeId(0), &[]).len()
        };
        if reachable != self.nodes.len() {
            return Err(ValidationError::Disconnected {
                reachable,
                total: self.nodes.len(),
            });
        }
        Ok(())
    }

    /// True if every device can reach every other.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        self.reachable_from(NodeId(0), &[]).len() == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Topology, NodeId, NodeId, NodeId) {
        // ep0 -- sw -- ep1
        let mut t = Topology::new("tiny");
        let sw = t.add_switch(4, "sw");
        let e0 = t.add_endpoint("ep0");
        let e1 = t.add_endpoint("ep1");
        t.connect(e0, 0, sw, 0).unwrap();
        t.connect(sw, 1, e1, 0).unwrap();
        (t, sw, e0, e1)
    }

    #[test]
    fn counts_and_kinds() {
        let (t, sw, e0, _) = tiny();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.switch_count(), 1);
        assert_eq!(t.endpoint_count(), 2);
        assert_eq!(t.node(sw).unwrap().device_type, DeviceType::Switch);
        assert_eq!(t.node(e0).unwrap().device_type, DeviceType::Endpoint);
        assert_eq!(t.switches(), vec![sw]);
        assert_eq!(t.endpoints().len(), 2);
    }

    #[test]
    fn peers_are_symmetric() {
        let (t, sw, e0, e1) = tiny();
        assert_eq!(t.peer(e0, 0), Some(Attachment { node: sw, port: 0 }));
        assert_eq!(t.peer(sw, 0), Some(Attachment { node: e0, port: 0 }));
        assert_eq!(t.peer(sw, 1), Some(Attachment { node: e1, port: 0 }));
        assert_eq!(t.peer(sw, 2), None);
        assert_eq!(t.peer(sw, 99), None);
    }

    /// One node's ports end where the next node's begin in the flat port
    /// table: a port past a node's last is no port, even when the entry
    /// after its last belongs to a linked port of the next node.
    #[test]
    fn the_port_after_a_nodes_last_is_none_though_the_next_nodes_first_is_linked() {
        let mut t = Topology::new("adjacent");
        let a = t.add_switch(2, "a");
        let b = t.add_switch(2, "b");
        let c = t.add_endpoint("c");
        t.connect(a, 1, b, 0).unwrap();
        t.connect(b, 1, c, 0).unwrap();
        assert_eq!(t.peer(a, 1), Some(Attachment { node: b, port: 0 }));
        assert_eq!(t.peer(b, 0), Some(Attachment { node: a, port: 1 }));
        assert_eq!(t.peer(a, 2), None);
        assert_eq!(t.peer(b, 2), None);
        // The last node's ports end the table.
        assert_eq!(t.peer(c, 1), None);
        assert_eq!(t.peer(NodeId(3), 0), None);
        assert_eq!(t.degree(a), 1);
    }

    #[test]
    fn neighbors_and_degree() {
        let (t, sw, e0, _) = tiny();
        assert_eq!(t.degree(sw), 2);
        assert_eq!(t.degree(e0), 1);
        let n: Vec<_> = t.neighbors(sw).collect();
        assert_eq!(n.len(), 2);
        assert_eq!(n[0].0, 0);
    }

    #[test]
    fn connect_rejects_port_reuse() {
        let (mut t, sw, e0, _) = tiny();
        let e2 = t.add_endpoint("ep2");
        assert_eq!(
            t.connect(e2, 0, sw, 0),
            Err(TopologyError::PortInUse(Attachment { node: sw, port: 0 }))
        );
        assert_eq!(
            t.connect(e0, 0, sw, 2),
            Err(TopologyError::PortInUse(Attachment { node: e0, port: 0 }))
        );
    }

    #[test]
    fn connect_rejects_bad_ports_and_nodes() {
        let mut t = Topology::new("t");
        let sw = t.add_switch(4, "sw");
        let ep = t.add_endpoint("ep");
        assert!(matches!(
            t.connect(ep, 1, sw, 0),
            Err(TopologyError::PortOutOfRange { .. })
        ));
        assert!(matches!(
            t.connect(ep, 0, sw, 4),
            Err(TopologyError::PortOutOfRange { .. })
        ));
        assert_eq!(t.connect(sw, 0, sw, 1), Err(TopologyError::SelfLoop(sw)));
        assert_eq!(
            t.connect(NodeId(99), 0, sw, 0),
            Err(TopologyError::UnknownNode(NodeId(99)))
        );
    }

    #[test]
    fn connectivity_detection() {
        let (t, ..) = tiny();
        assert!(t.is_connected());

        let mut t2 = Topology::new("disconnected");
        t2.add_endpoint("a");
        t2.add_endpoint("b");
        assert!(!t2.is_connected());

        let empty = Topology::new("empty");
        assert!(empty.is_connected());
    }

    #[test]
    fn reachability_with_removals() {
        let (t, sw, e0, e1) = tiny();
        let all = t.reachable_from(e0, &[]);
        assert_eq!(all.len(), 3);
        // Removing the switch isolates e0.
        let alone = t.reachable_from(e0, &[sw]);
        assert_eq!(alone, vec![e0]);
        // Removing the start yields nothing.
        assert!(t.reachable_from(e1, &[e1]).is_empty());
    }

    #[test]
    fn links_recorded_once() {
        let (t, ..) = tiny();
        assert_eq!(t.links().len(), 2);
    }

    #[test]
    fn validate_passes_on_well_formed_graphs() {
        let (t, ..) = tiny();
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(Topology::new("empty").validate(), Ok(()));
    }

    #[test]
    fn validate_reports_disconnection() {
        let mut t = Topology::new("split");
        t.add_endpoint("a");
        t.add_endpoint("b");
        assert_eq!(
            t.validate(),
            Err(ValidationError::Disconnected {
                reachable: 1,
                total: 2
            })
        );
    }

    #[test]
    fn validate_catches_corrupted_link_tables() {
        // These states are unreachable through the public API; corrupt the
        // flat port table and the link list directly to prove the checks
        // bite.
        let at = |node, port| Attachment { node, port };
        let entry = |t: &Topology, node, port| t.slot(node, port).unwrap();

        let (mut t, sw, ..) = tiny();
        let sw0 = entry(&t, sw, 0);
        t.port_links[sw0] = NO_LINK; // drop one back-reference
        assert_eq!(
            t.validate(),
            Err(ValidationError::AsymmetricLink(at(sw, 0)))
        );

        let (mut t, sw, ..) = tiny();
        let sw0 = entry(&t, sw, 0);
        t.port_links[sw0] = 1; // point at the wrong link
        assert_eq!(t.validate(), Err(ValidationError::PortDoubleUse(at(sw, 0))));

        let (mut t, ..) = tiny();
        t.links[0].a.port = 99; // out-of-range attachment
        assert!(matches!(
            t.validate(),
            Err(ValidationError::DanglingLink(_))
        ));

        // Dangling back-reference on an unlinked port.
        let (mut t, sw, ..) = tiny();
        let sw2 = entry(&t, sw, 2);
        t.port_links[sw2] = 7;
        assert_eq!(
            t.validate(),
            Err(ValidationError::AsymmetricLink(at(sw, 2)))
        );
    }

    #[test]
    fn labels_are_the_generators() {
        let grid = crate::mesh(3, 3).unwrap().topology;
        let want: Vec<String> = (0..3)
            .flat_map(|y| {
                (0..3).flat_map(move |x| [format!("sw({x},{y})"), format!("ep({x},{y})")])
            })
            .collect();
        let got: Vec<&str> = grid.nodes().map(|(id, _)| grid.label(id)).collect();
        assert_eq!(got, want);

        let tree = crate::fat_tree(4, 2).unwrap().topology;
        let want = [
            "root[0]", "root[1]", "swA[0,0]", "swA[0,1]", "swB[0,0]", "swB[0,1]", "epA[0,0]",
            "epA[0,1]", "epA[1,0]", "epA[1,1]", "epB[0,0]", "epB[0,1]", "epB[1,0]", "epB[1,1]",
        ];
        let got: Vec<&str> = tree.nodes().map(|(id, _)| tree.label(id)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn dot_rendering_covers_all_nodes_and_links() {
        let (t, ..) = tiny();
        let dot = t.to_dot();
        assert!(dot.starts_with("graph \"tiny\""));
        assert_eq!(dot.matches("shape=box").count(), 1);
        assert_eq!(dot.matches("shape=circle").count(), 2);
        assert_eq!(dot.matches(" -- ").count(), 2);
        assert!(dot.trim_end().ends_with('}'));
    }

    /// The DOT of a 3x3 mesh, pinned by its length and FNV-1a digest as
    /// it was rendered when every node carried its own label and port
    /// vector.
    #[test]
    fn dot_of_a_mesh_is_byte_identical() {
        let dot = crate::mesh(3, 3).unwrap().topology.to_dot();
        let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        let digest = dot.bytes().fold(0xcbf2_9ce4_8422_2325, step);
        assert_eq!((dot.len(), digest), (1872, 0x5da1_ef3a_3a9c_b029));
    }
}
