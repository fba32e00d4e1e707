//! The fabric manager's topology database: everything discovery learns.
//!
//! Keyed by DSN (device serial number), which is how the FM recognizes a
//! device it has already reached through a different path (the dedup step
//! in the paper's Fig. 2 flow chart).
//!
//! ## What a slot holds
//!
//! One slot per DSN, 104 bytes: the DSN, the device's record if it is a
//! known device, and its row of link ends. The record is the general
//! information (16 bytes), the route (32: egress, entry port, hops and a
//! [`PackedPool`] — the turn bits inline up to 64, a boxed slice of just
//! the words they fill beyond) and the port blocks (24: a
//! [`PortBlocks`], up to four inline). A row is one `Edge` inline, or a
//! `Vec` of two or more.
//!
//! The first entries are inline because of what the large fabrics are
//! made of: on `dragonfly:8,48`, 36,864 of the 39,936 devices are
//! one-port endpoints a few switches from the manager. Such a device has
//! one link, one port and a route of under 64 bits, so its slot holds
//! all of it and it allocates nothing; a 72-byte [`TurnPool`] in every
//! record would be 48 bytes more per slot, and a `Vec` of one entry a
//! heap chunk. A switch keeps a `Vec` row (sized by its port count at
//! its second link) and a boxed port slice.
//!
//! A full [`TurnPool`] exists only where one is sent, handed out or
//! extended: a request's header, the batch route builders
//! ([`TopologyDb::routes_from`], [`TopologyDb::routes_to`] and
//! [`TopologyDb::refresh_routes`], which packs what it stores), the
//! snapshot codecs.

use asi_proto::{turn_for, turn_width, DeviceInfo, DeviceType, PortInfo, TurnError, TurnPool};
use asi_state::TopologyDelta;
pub use asi_state::{DeviceRecord, DeviceRoute, PackedPool, PortBlocks};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;

/// A multiply-rotate hasher for the DSN index. DSNs are not chosen by an
/// adversary, and discovery looks one up on every completion, so
/// SipHash's flood resistance buys nothing here and costs its rounds.
#[derive(Clone, Copy, Default)]
struct DsnHasher(u64);

impl Hasher for DsnHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A map keyed by DSN.
type DsnMap<V> = HashMap<u64, V, BuildHasherDefault<DsnHasher>>;

/// One end of a link, as its own slot's row holds it: the port here and
/// the peer's slot and port. The peer's DSN is its slot's
/// ([`TopologyDb::peer_of`]): the slot holds the link's other end, so it
/// is not freed while this end is recorded.
#[derive(Clone, Copy, Debug)]
struct Edge {
    peer: u32,
    port: u8,
    peer_port: u8,
}

/// Every link end at one DSN, sorted by own port, then peer DSN, then
/// peer port ([`TopologyDb::find`]): a single end inline, more in a
/// `Vec`, none as an empty `Vec` (no allocation).
#[derive(Clone, Debug)]
enum Row {
    One(Edge),
    Many(Vec<Edge>),
}

impl Default for Row {
    fn default() -> Row {
        Row::Many(Vec::new())
    }
}

impl Deref for Row {
    type Target = [Edge];

    fn deref(&self) -> &[Edge] {
        match self {
            Row::One(e) => std::slice::from_ref(e),
            Row::Many(v) => v,
        }
    }
}

impl Row {
    /// Inserts `edge` at `pos`; a second end moves the row to a `Vec`
    /// of at least `reserve` ends.
    fn insert(&mut self, pos: usize, edge: Edge, reserve: usize) {
        match self {
            Row::Many(v) if v.is_empty() => *self = Row::One(edge),
            Row::Many(v) => v.insert(pos, edge),
            Row::One(first) => {
                let mut v = Vec::with_capacity(reserve.max(2));
                v.push(*first);
                v.insert(pos, edge);
                *self = Row::Many(v);
            }
        }
    }

    /// Removes the end at `pos`; the one end left goes back inline, and
    /// an emptied row frees its `Vec`.
    fn remove(&mut self, pos: usize) {
        match self {
            Row::One(_) => *self = Row::default(),
            Row::Many(v) => {
                v.remove(pos);
                if let [only] = v[..] {
                    *self = Row::One(only);
                }
            }
        }
    }
}

/// A DSN the database holds: a device, the far end of a link, or both.
#[derive(Clone, Debug)]
struct Slot {
    dsn: u64,
    device: Option<DeviceRecord>,
    row: Row,
}

/// The discovered topology.
///
/// Dense slots behind one DSN → slot index. A slot exists for every DSN
/// that is a device or a link end, and goes on a free list once it is
/// neither. Each slot's links are a row sorted by own port, peer DSN
/// and peer port, naming the peer's slot; a link is held once from each
/// end (a link from a port to itself, once), and the link set is the
/// rows' canonical entries — those whose own end `(dsn, port)` is the
/// smaller. Breadth-first search walks known devices in row order, so
/// neither slot numbering nor insertion order can change a route.
///
/// Rows rather than one peer per port: the database holds what it was
/// told, which may be two links on one port, a link from a device to
/// itself, or a link to a DSN not (or no longer) known as a device.
#[derive(Clone, Debug, Default)]
pub struct TopologyDb {
    index: DsnMap<u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    device_count: usize,
    link_count: usize,
    host_dsn: u64,
}

impl TopologyDb {
    /// Fresh database rooted at the FM's endpoint.
    pub fn new(host_dsn: u64) -> TopologyDb {
        TopologyDb {
            host_dsn,
            ..TopologyDb::default()
        }
    }

    /// The slot of `dsn`, if it holds a known device.
    fn known(&self, dsn: u64) -> Option<u32> {
        let s = *self.index.get(&dsn)?;
        self.slots[s as usize].device.is_some().then_some(s)
    }

    /// The slot of `dsn`, taken (a freed one first) if the DSN is new.
    fn claim(&mut self, dsn: u64) -> u32 {
        if let Some(&s) = self.index.get(&dsn) {
            return s;
        }
        let slot = Slot {
            dsn,
            device: None,
            row: Row::default(),
        };
        let s = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = slot;
                s
            }
            None => {
                self.slots.push(slot);
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(dsn, s);
        s
    }

    /// Frees slot `s` if it holds neither a device nor a link end; a
    /// slot already freed stays freed once.
    fn release(&mut self, s: u32) {
        let slot = &self.slots[s as usize];
        if slot.device.is_none() && slot.row.is_empty() && self.index.remove(&slot.dsn).is_some() {
            self.free.push(s);
        }
    }

    /// The far end of `e`: its peer's DSN and port.
    fn peer_of(&self, e: &Edge) -> (u64, u8) {
        (self.slots[e.peer as usize].dsn, e.peer_port)
    }

    /// Binary search of slot `s`'s row for the end at `port` facing
    /// `peer`. The row is sorted by port first, so the peer's DSN is read
    /// only where two ends share a port.
    fn find(&self, s: u32, port: u8, peer: (u64, u8)) -> Result<usize, usize> {
        let row = &self.slots[s as usize].row;
        row.binary_search_by(|e| (e.port.cmp(&port)).then_with(|| self.peer_of(e).cmp(&peer)))
    }

    /// True if the link end `at → peer` is recorded.
    fn has_edge(&self, at: (u64, u8), peer: (u64, u8)) -> bool {
        (self.index.get(&at.0)).is_some_and(|&s| self.find(s, at.1, peer).is_ok())
    }

    /// Records the link end `at → peer` in `at`'s row, keeping it sorted
    /// and claiming both slots. A known device's row grows to its port
    /// count at its second end, which is how many links it has when
    /// cabled one per port.
    fn insert_edge(&mut self, at: (u64, u8), peer: (u64, u8)) {
        let edge = Edge {
            peer: self.claim(peer.0),
            port: at.1,
            peer_port: peer.1,
        };
        let s = self.claim(at.0);
        if let Err(pos) = self.find(s, at.1, peer) {
            let slot = &mut self.slots[s as usize];
            let ports = slot.device.as_ref().map_or(0, |d| d.info.port_count);
            slot.row.insert(pos, edge, usize::from(ports));
        }
    }

    /// Removes the link end at `port` facing `peer` from slot `s`'s row.
    fn remove_edge(&mut self, s: u32, port: u8, peer: (u64, u8)) {
        if let Ok(pos) = self.find(s, port, peer) {
            self.slots[s as usize].row.remove(pos);
        }
    }

    /// DSN of the FM's endpoint.
    pub fn host_dsn(&self) -> u64 {
        self.host_dsn
    }

    /// Device count (including the host).
    pub fn device_count(&self) -> usize {
        self.device_count
    }

    /// Link count.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// True if a DSN is already known.
    pub fn contains(&self, dsn: u64) -> bool {
        self.known(dsn).is_some()
    }

    /// Looks up a device.
    pub fn device(&self, dsn: u64) -> Option<&DeviceRecord> {
        self.slots[*self.index.get(&dsn)? as usize].device.as_ref()
    }

    /// The slot of a known device: a handle that [`TopologyDb::device_at`]
    /// reads while the device is known. Once it is removed, the slot may
    /// be claimed again for another DSN.
    pub(crate) fn slot_of(&self, dsn: u64) -> Option<u32> {
        self.known(dsn)
    }

    /// The device in slot `s`, if the slot holds one.
    pub(crate) fn device_at(&self, s: u32) -> Option<&DeviceRecord> {
        self.slots.get(s as usize)?.device.as_ref()
    }

    /// The DSN slot `s` was last claimed for: a removed device's until
    /// the slot is claimed again.
    pub(crate) fn dsn_at(&self, s: u32) -> u64 {
        self.slots[s as usize].dsn
    }

    /// Mutable lookup.
    pub fn device_mut(&mut self, dsn: u64) -> Option<&mut DeviceRecord> {
        let s = *self.index.get(&dsn)?;
        self.slots[s as usize].device.as_mut()
    }

    /// Iterates all devices, in DSN order.
    pub fn devices(&self) -> impl Iterator<Item = &DeviceRecord> {
        let mut v: Vec<&DeviceRecord> = self
            .slots
            .iter()
            .filter_map(|s| s.device.as_ref())
            .collect();
        v.sort_unstable_by_key(|d| d.info.dsn);
        v.into_iter()
    }

    /// Iterates all links, in canonical-key order.
    pub fn links(&self) -> impl Iterator<Item = ((u64, u8), (u64, u8))> {
        let mut v = Vec::with_capacity(self.link_count);
        for slot in &self.slots {
            let ends = slot
                .row
                .iter()
                .map(|e| ((slot.dsn, e.port), self.peer_of(e)));
            v.extend(ends.filter(|(here, there)| here <= there));
        }
        v.sort_unstable();
        v.into_iter()
    }

    /// DSNs of all discovered devices of one type, sorted.
    fn dsns_of(&self, device_type: DeviceType) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .slots
            .iter()
            .filter(|s| {
                s.device
                    .as_ref()
                    .is_some_and(|d| d.info.device_type == device_type)
            })
            .map(|s| s.dsn)
            .collect();
        v.sort_unstable();
        v
    }

    /// DSNs of all discovered endpoints.
    pub fn endpoints(&self) -> Vec<u64> {
        self.dsns_of(DeviceType::Endpoint)
    }

    /// DSNs of all discovered switches.
    pub fn switches(&self) -> Vec<u64> {
        self.dsns_of(DeviceType::Switch)
    }

    /// Records a newly discovered device, its route packed. Returns
    /// `false` (and leaves the record untouched) if the DSN was already
    /// present.
    pub fn insert_device(
        &mut self,
        info: DeviceInfo,
        route: impl Into<DeviceRoute<PackedPool>>,
    ) -> bool {
        let s = self.claim(info.dsn);
        let device = &mut self.slots[s as usize].device;
        if device.is_some() {
            return false;
        }
        *device = Some(DeviceRecord {
            info,
            route: route.into(),
            ports: PortBlocks::unread(usize::from(info.port_count)),
        });
        self.device_count += 1;
        true
    }

    /// Records a link. Idempotent; returns `true` if the link was new.
    pub fn add_link(&mut self, a: (u64, u8), b: (u64, u8)) -> bool {
        if self.has_edge(a, b) {
            return false;
        }
        self.insert_edge(a, b);
        self.insert_edge(b, a);
        self.link_count += 1;
        true
    }

    /// Stores a port block for a device.
    pub fn set_port(&mut self, dsn: u64, port: u16, info: PortInfo) {
        if let Some(d) = self.device_mut(dsn) {
            if let Some(slot) = d.ports.get_mut(usize::from(port)) {
                *slot = Some(info);
            }
        }
    }

    /// Removes one link. Returns `true` if it was present.
    pub fn remove_link(&mut self, a: (u64, u8), b: (u64, u8)) -> bool {
        if !self.has_edge(a, b) {
            return false;
        }
        let (sa, sb) = (self.index[&a.0], self.index[&b.0]);
        self.remove_edge(sa, a.1, b);
        self.remove_edge(sb, b.1, a);
        self.link_count -= 1;
        self.release(sa);
        self.release(sb);
        true
    }

    /// Removes a device and all links touching it. Returns `true` if it
    /// existed.
    pub fn remove_device(&mut self, dsn: u64) -> bool {
        let Some(&s) = self.index.get(&dsn) else {
            return false;
        };
        let existed = self.slots[s as usize].device.take().is_some();
        self.device_count -= usize::from(existed);
        let row = &self.slots[s as usize].row;
        let ends: Vec<_> = row.iter().map(|e| (e.port, self.peer_of(e))).collect();
        for (port, peer) in ends {
            self.remove_link((dsn, port), peer);
        }
        self.release(s);
        existed
    }

    /// The neighbour recorded at `(dsn, port)`, if any. O(log degree)
    /// over the row.
    pub fn neighbor(&self, dsn: u64, port: u8) -> Option<(u64, u8)> {
        let row = &self.slots[*self.index.get(&dsn)? as usize].row;
        let e = row.get(row.partition_point(|e| e.port < port))?;
        (e.port == port).then(|| self.peer_of(e))
    }

    /// The far end of every link at `dsn`, in row order: two links on
    /// one port give two ends, a link between two of its ports both, a
    /// link from a port to itself one. O(degree).
    pub fn peers(&self, dsn: u64) -> impl Iterator<Item = (u64, u8)> + '_ {
        let row = self
            .index
            .get(&dsn)
            .map(|&s| &self.slots[s as usize].row[..]);
        row.into_iter().flatten().map(|e| self.peer_of(e))
    }

    /// Breadth-first walk from the known device in slot `root` over
    /// known devices, each row in order: hands `tree` every edge that
    /// reaches a device first, with the slot it leaves.
    fn bfs(&self, root: u32, mut tree: impl FnMut(u32, &Edge)) {
        let mut seen = vec![false; self.slots.len()];
        seen[root as usize] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            for e in self.slots[u as usize].row.iter() {
                let v = e.peer as usize;
                if !seen[v] && self.slots[v].device.is_some() {
                    seen[v] = true;
                    tree(u, e);
                    queue.push_back(e.peer);
                }
            }
        }
    }

    /// The BFS tree rooted at slot `root`: each reached slot's `(parent
    /// slot, egress at the parent, entry port here)`.
    fn tree(&self, root: u32) -> Vec<Option<(u32, u8, u8)>> {
        let mut parent = vec![None; self.slots.len()];
        self.bfs(root, |u, e| {
            parent[e.peer as usize] = Some((u, e.port, e.peer_port))
        });
        parent
    }

    /// Appends the turn at the switch in slot `s` from `ingress` to
    /// `egress`.
    fn push_turn(
        &self,
        pool: &mut TurnPool,
        s: u32,
        ingress: u8,
        egress: u8,
    ) -> Result<(), TurnError> {
        let device = self.slots[s as usize].device.as_ref();
        let ports = device.expect("routes cross known devices").info.port_count as u8;
        pool.push_turn(turn_for(ingress, egress, ports), turn_width(ports))
    }

    /// Routes from slot `root` to every device it reaches, by slot. Each
    /// route extends its BFS parent's by one turn, so the whole batch
    /// costs one pool clone and push per device; a target past an
    /// encoding error inherits the error its parent hit.
    fn routes_by_slot(
        &self,
        root: u32,
        pool_capacity: u16,
    ) -> Vec<Option<Result<DeviceRoute, TurnError>>> {
        let mut routes: Vec<Option<Result<DeviceRoute, TurnError>>> = vec![None; self.slots.len()];
        self.bfs(root, |u, e| {
            let route = if u == root {
                // Direct neighbour of the root: empty pool, zero switch
                // hops, enter on the far port.
                Ok(DeviceRoute {
                    egress: e.port,
                    pool: TurnPool::with_capacity(pool_capacity),
                    entry_port: e.peer_port,
                    hops: 0,
                })
            } else {
                match routes[u as usize]
                    .as_ref()
                    .expect("parent visited before child")
                {
                    Ok(parent) => {
                        let mut pool = parent.pool.clone();
                        self.push_turn(&mut pool, u, parent.entry_port, e.port)
                            .map(|()| DeviceRoute {
                                egress: parent.egress,
                                pool,
                                entry_port: e.peer_port,
                                hops: parent.hops + 1,
                            })
                    }
                    Err(err) => Err(*err),
                }
            };
            routes[e.peer as usize] = Some(route);
        });
        routes
    }

    /// Routes from `from` to every other reachable device, computed with
    /// a single BFS — the batched form of [`Self::route_between`], with
    /// identical per-target results at O(devices + links). Targets whose
    /// path cannot be encoded map to the `TurnError`.
    pub fn routes_from(
        &self,
        from: u64,
        pool_capacity: u16,
    ) -> HashMap<u64, Result<DeviceRoute, TurnError>> {
        let Some(root) = self.known(from) else {
            return HashMap::new();
        };
        let routes = self.routes_by_slot(root, pool_capacity);
        let dsns = self.slots.iter().map(|s| s.dsn);
        dsns.zip(routes)
            .filter_map(|(dsn, r)| Some((dsn, r?)))
            .collect()
    }

    /// Routes from every reachable device *to* `to`, derived by
    /// reversing the `to`-rooted BFS tree with one traversal. Each route
    /// is a shortest path of the same length [`Self::route_between`]
    /// would find, but ties may break differently (the reversal of the
    /// tree path rather than a fresh source-rooted search).
    pub fn routes_to(
        &self,
        to: u64,
        pool_capacity: u16,
    ) -> HashMap<u64, Result<DeviceRoute, TurnError>> {
        let mut out = HashMap::with_capacity(self.device_count);
        self.for_each_route_to(to, pool_capacity, |dsn, route| {
            out.insert(dsn, route);
        });
        out
    }

    /// [`Self::routes_to`] without the map: hands each reachable
    /// device's `(dsn, route)` to `visit` as it is built, in slot order,
    /// so a caller that consumes the routes once never holds them all.
    pub fn for_each_route_to(
        &self,
        to: u64,
        pool_capacity: u16,
        mut visit: impl FnMut(u64, Result<DeviceRoute, TurnError>),
    ) {
        let Some(root) = self.known(to) else {
            return;
        };
        let tree = self.tree(root);
        for (slot, &edge) in self.slots.iter().zip(&tree) {
            // Up the tree from the device: it leaves on the port it was
            // entered by, and each switch above it is entered on its own
            // tree egress and left on the port it was itself entered by.
            let Some((mut up, mut ingress, egress)) = edge else {
                continue;
            };
            let mut pool = TurnPool::with_capacity(pool_capacity);
            let mut hops = 0;
            let route = loop {
                let Some((next, next_ingress, out)) = tree[up as usize] else {
                    break Ok(DeviceRoute {
                        egress,
                        pool,
                        entry_port: ingress,
                        hops,
                    });
                };
                if let Err(err) = self.push_turn(&mut pool, up, ingress, out) {
                    break Err(err);
                }
                hops += 1;
                (up, ingress) = (next, next_ingress);
            };
            visit(slot.dsn, route);
        }
    }

    /// BFS route from `from` to `to` over the discovered links, or `None`
    /// when either is unknown, they are the same, or `to` is unreachable.
    pub fn route_between(
        &self,
        from: u64,
        to: u64,
        pool_capacity: u16,
    ) -> Option<Result<DeviceRoute, TurnError>> {
        if from == to {
            return None;
        }
        let (root, target) = (self.known(from)?, self.known(to)?);
        let tree = self.tree(root);
        // The tree path, target end first: (slot, egress there, entry
        // port at the next).
        let mut path = Vec::new();
        let mut at = target;
        while let Some(edge) = tree[at as usize] {
            path.push(edge);
            at = edge.0;
        }
        let (&(_, egress, _), &(_, _, entry_port)) = (path.last()?, path.first()?);
        let mut pool = TurnPool::with_capacity(pool_capacity);
        // Each switch, from the source side, is entered on the port the
        // edge before it arrives at and left on its own egress.
        for w in path.windows(2).rev() {
            let ((switch, out, _), (_, _, ingress)) = (w[0], w[1]);
            if let Err(err) = self.push_turn(&mut pool, switch, ingress, out) {
                return Some(Err(err));
            }
        }
        let hops = (path.len() - 1) as u16;
        Some(Ok(DeviceRoute {
            egress,
            pool,
            entry_port,
            hops,
        }))
    }

    /// Drops every device not reachable from the host over recorded links
    /// (used after removals). Returns the DSNs pruned.
    pub fn prune_unreachable(&mut self) -> Vec<u64> {
        let mut reached = vec![false; self.slots.len()];
        if let Some(root) = self.known(self.host_dsn) {
            reached[root as usize] = true;
            self.bfs(root, |_, e| reached[e.peer as usize] = true);
        }
        let stranded = self.slots.iter().zip(reached);
        let mut doomed: Vec<u64> = stranded
            .filter(|(s, reached)| s.device.is_some() && !reached)
            .map(|(s, _)| s.dsn)
            .collect();
        doomed.sort_unstable();
        for &d in &doomed {
            self.remove_device(d);
        }
        doomed
    }

    /// Recomputes every device's stored route from the host over the
    /// current link set (the "new set of paths" step the paper requires
    /// after every topological change). Devices with no route keep their
    /// stale one: with no link recorded (a cold start's database), all.
    pub fn refresh_routes(&mut self, pool_capacity: u16) {
        let host = self.known(self.host_dsn);
        let Some(root) = host.filter(|_| self.link_count > 0) else {
            return;
        };
        let routes = self.routes_by_slot(root, pool_capacity);
        for (slot, route) in self.slots.iter_mut().zip(routes) {
            if let (Some(d), Some(Ok(route))) = (slot.device.as_mut(), route) {
                d.route = route.into();
            }
        }
    }

    /// Differences from this database to `newer` (for assimilation
    /// reports): the same [`TopologyDelta`] their snapshots give, with
    /// every list sorted.
    pub fn diff(&self, newer: &TopologyDb) -> TopologyDelta {
        let dsns = |db: &TopologyDb| db.devices().map(|d| d.info.dsn).collect();
        let links = |db: &TopologyDb| db.links().map(|(a, b)| (a.0, a.1, b.0, b.1)).collect();
        TopologyDelta::of_sets(dsns(self), dsns(newer), links(self), links(newer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{db_from_snapshot, snapshot_db};
    use asi_proto::{PortState, MAX_POOL_BITS};
    use asi_state::Snapshot;
    use std::collections::{BTreeMap, BTreeSet, HashSet};

    type LinkKey = (u64, u8, u64, u8);

    fn info(dsn: u64, device_type: DeviceType, ports: u16) -> DeviceInfo {
        DeviceInfo {
            device_type,
            dsn,
            port_count: ports,
            max_packet_size: 2048,
            fm_capable: device_type == DeviceType::Endpoint,
            fm_priority: 0,
        }
    }

    fn route0() -> DeviceRoute {
        DeviceRoute {
            egress: 0,
            pool: TurnPool::with_capacity(64),
            entry_port: 0,
            hops: 0,
        }
    }

    /// host(ep,dsn=1) -- sw(dsn=2,16p) -- ep(dsn=3)
    fn line_db() -> TopologyDb {
        let mut db = TopologyDb::new(1);
        db.insert_device(info(1, DeviceType::Endpoint, 1), route0());
        db.insert_device(info(2, DeviceType::Switch, 16), route0());
        db.insert_device(info(3, DeviceType::Endpoint, 1), route0());
        db.add_link((1, 0), (2, 4));
        db.add_link((2, 5), (3, 0));
        db
    }

    #[test]
    fn insert_dedups_by_dsn() {
        let mut db = TopologyDb::new(1);
        assert!(db.insert_device(info(7, DeviceType::Switch, 16), route0()));
        assert!(!db.insert_device(info(7, DeviceType::Switch, 16), route0()));
        assert_eq!(db.device_count(), 1);
    }

    #[test]
    fn links_are_canonical_and_idempotent() {
        let mut db = TopologyDb::new(1);
        assert!(db.add_link((5, 3), (2, 1)));
        assert!(!db.add_link((2, 1), (5, 3)));
        assert_eq!(db.link_count(), 1);
    }

    #[test]
    fn neighbor_lookup_both_directions() {
        let db = line_db();
        assert_eq!(db.neighbor(1, 0), Some((2, 4)));
        assert_eq!(db.neighbor(2, 4), Some((1, 0)));
        assert_eq!(db.neighbor(2, 5), Some((3, 0)));
        assert_eq!(db.neighbor(2, 9), None);
    }

    /// A device's link ends are its row, whatever the row holds: two
    /// links on one port, a link between two of its own ports (both
    /// ends) and from a port to itself (one), and a link to a DSN that
    /// is not a device.
    #[test]
    fn peers_are_the_row() {
        let mut db = line_db();
        db.add_link((2, 5), (4, 1)); // a second link on port 5
        db.add_link((2, 6), (2, 7));
        db.add_link((2, 8), (2, 8));
        db.add_link((2, 9), (99, 3)); // 99 is no device
        let peers: Vec<_> = db.peers(2).collect();
        let want = [(1, 0), (3, 0), (4, 1), (2, 7), (2, 6), (2, 8), (99, 3)];
        assert_eq!(peers, want);
        assert_eq!(db.peers(99).collect::<Vec<_>>(), [(2, 9)]);
        assert_eq!(db.peers(5).count(), 0, "an unknown DSN has no ends");
        // A removed device takes its ends with it.
        db.remove_device(2);
        assert_eq!(db.peers(2).count(), 0);
        assert_eq!(db.peers(1).count(), 0);
    }

    #[test]
    fn port_blocks_and_completeness() {
        let mut db = line_db();
        assert!(!db.device(2).unwrap().ports_complete());
        for p in 0..16 {
            db.set_port(
                2,
                p,
                PortInfo {
                    state: if p < 2 {
                        PortState::Active
                    } else {
                        PortState::Down
                    },
                    link_width: 1,
                    link_speed: 10,
                    peer_port: 0,
                },
            );
        }
        let d = db.device(2).unwrap();
        assert!(d.ports_complete());
        assert_eq!(d.active_ports(), 2);
    }

    #[test]
    fn iteration_order_is_sorted() {
        let db = line_db();
        let dsns: Vec<u64> = db.devices().map(|d| d.info.dsn).collect();
        assert_eq!(dsns, vec![1, 2, 3]);
        let links: Vec<_> = db.links().collect();
        assert_eq!(links, vec![((1, 0), (2, 4)), ((2, 5), (3, 0))]);
    }

    #[test]
    fn diff_lists_are_sorted() {
        let old = line_db();
        let mut new = line_db();
        for dsn in [30, 10, 20] {
            new.insert_device(info(dsn, DeviceType::Endpoint, 1), route0());
            new.add_link((2, 6 + dsn as u8 / 10), (dsn, 0));
        }
        let d = old.diff(&new);
        assert_eq!(d.added_devices, vec![10, 20, 30]);
        assert!(d.added_links.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn classification_lists() {
        let db = line_db();
        assert_eq!(db.endpoints(), vec![1, 3]);
        assert_eq!(db.switches(), vec![2]);
    }

    #[test]
    fn remove_device_drops_its_links() {
        let mut db = line_db();
        assert!(db.remove_device(2));
        assert_eq!(db.link_count(), 0);
        assert!(!db.remove_device(2));
    }

    #[test]
    fn prune_unreachable_removes_orphans() {
        let mut db = line_db();
        // Island device with no links.
        db.insert_device(info(9, DeviceType::Switch, 16), route0());
        let pruned = db.prune_unreachable();
        assert_eq!(pruned, vec![9]);
        assert_eq!(db.device_count(), 3);

        // Removing the switch strands endpoint 3.
        db.remove_device(2);
        let mut pruned = db.prune_unreachable();
        pruned.sort_unstable();
        assert_eq!(pruned, vec![3]);
        assert_eq!(db.device_count(), 1);
    }

    #[test]
    fn route_between_follows_links() {
        let db = line_db();
        let r = db.route_between(1, 3, 64).unwrap().unwrap();
        assert_eq!(r.egress, 0);
        assert_eq!(r.entry_port, 0);
        assert_eq!(r.hops, 1);
        // Turn at switch 2: ingress 4 → egress 5 on a 16-port switch.
        let mut expect = TurnPool::with_capacity(64);
        expect.push_turn(turn_for(4, 5, 16), 4).unwrap();
        assert_eq!(r.pool, expect);

        // Reverse direction.
        let r = db.route_between(3, 1, 64).unwrap().unwrap();
        assert_eq!(r.egress, 0);
        assert_eq!(r.entry_port, 0);
        let mut expect = TurnPool::with_capacity(64);
        expect.push_turn(turn_for(5, 4, 16), 4).unwrap();
        assert_eq!(r.pool, expect);
    }

    #[test]
    fn route_between_edge_cases() {
        let db = line_db();
        assert!(db.route_between(1, 1, 64).is_none(), "self route");
        assert!(db.route_between(1, 99, 64).is_none(), "unknown target");
        let mut db2 = db.clone();
        db2.insert_device(info(9, DeviceType::Endpoint, 1), route0());
        assert!(db2.route_between(1, 9, 64).is_none(), "unreachable");
    }

    #[test]
    fn route_between_reports_pool_overflow() {
        // A chain long enough to exceed a tiny pool capacity.
        let mut db = TopologyDb::new(0);
        db.insert_device(info(0, DeviceType::Endpoint, 1), route0());
        for i in 1..=4 {
            db.insert_device(info(i, DeviceType::Switch, 16), route0());
        }
        db.insert_device(info(5, DeviceType::Endpoint, 1), route0());
        db.add_link((0, 0), (1, 0));
        for i in 1..4 {
            db.add_link((i, 1), (i + 1, 0));
        }
        db.add_link((4, 1), (5, 0));
        // 4 switches * 4 bits = 16 bits > 8-bit capacity.
        match db.route_between(0, 5, 8) {
            Some(Err(TurnError::PoolOverflow { .. })) => {}
            other => panic!("expected overflow, got {other:?}"),
        }
        // Fits with capacity 16.
        assert!(db.route_between(0, 5, 16).unwrap().is_ok());
    }

    #[test]
    fn diff_detects_changes() {
        let old = line_db();
        let mut new = line_db();
        new.remove_device(3);
        new.insert_device(info(10, DeviceType::Endpoint, 1), route0());
        new.add_link((2, 6), (10, 0));
        let d = old.diff(&new);
        assert_eq!(d.added_devices, vec![10]);
        assert_eq!(d.removed_devices, vec![3]);
        assert_eq!(d.added_links.len(), 1);
        assert_eq!(d.removed_links.len(), 1);
        assert!(!d.is_empty());
        assert!(old.diff(&old).is_empty());
    }

    /// A 2x2 grid of 16-port switches with one endpoint each, DSNs laid
    /// out so redundant shortest paths exist (tie-breaking matters).
    fn square_db() -> TopologyDb {
        let mut db = TopologyDb::new(100);
        for sw in 1..=4u64 {
            db.insert_device(info(sw, DeviceType::Switch, 16), route0());
        }
        for ep in 100..=103u64 {
            db.insert_device(info(ep, DeviceType::Endpoint, 1), route0());
        }
        // Square: 1-2, 2-4, 4-3, 3-1; endpoints on port 8 of each switch.
        db.add_link((1, 0), (2, 1));
        db.add_link((2, 2), (4, 3));
        db.add_link((3, 0), (4, 1));
        db.add_link((1, 2), (3, 3));
        for (i, ep) in (100..=103u64).enumerate() {
            db.add_link((1 + i as u64, 8), (ep, 0));
        }
        db
    }

    #[test]
    fn batched_routes_match_single_target_routes() {
        let db = square_db();
        let routes = db.routes_from(100, 64);
        assert_eq!(routes.len(), 7, "everything except the host is routed");
        for d in db.devices() {
            let dsn = d.info.dsn;
            if dsn == 100 {
                assert!(!routes.contains_key(&dsn));
                continue;
            }
            let single = db.route_between(100, dsn, 64).unwrap();
            assert_eq!(routes[&dsn], single, "target {dsn}");
        }
    }

    #[test]
    fn batched_routes_propagate_encoding_errors() {
        // Line of five 16-port switches: the far targets need more turn
        // bits than an 8-bit pool holds, exactly like route_between.
        let mut db = TopologyDb::new(0);
        db.insert_device(info(0, DeviceType::Endpoint, 1), route0());
        for sw in 1..=5u64 {
            db.insert_device(info(sw, DeviceType::Switch, 16), route0());
        }
        db.add_link((0, 0), (1, 0));
        for i in 1..5 {
            db.add_link((i, 1), (i + 1, 0));
        }
        let routes = db.routes_from(0, 8);
        for dsn in 1..=5u64 {
            assert_eq!(routes[&dsn], db.route_between(0, dsn, 8).unwrap(), "{dsn}");
        }
        assert!(routes[&5].is_err(), "past the 8-bit pool capacity");
    }

    /// A route of `turns` 4-bit turns: 16 fill a record's inline word
    /// exactly, 17 spill it.
    fn route_of(turns: u16, egress: u8) -> DeviceRoute {
        let mut pool = TurnPool::with_capacity(MAX_POOL_BITS);
        for t in 0..turns {
            pool.push_turn((t * 7 % 16) as u8, 4).unwrap();
        }
        DeviceRoute {
            egress,
            pool,
            entry_port: egress,
            hops: turns,
        }
    }

    /// An endpoint's whole slot — record, one edge, one port block, a
    /// route of up to 64 bits — in 104 bytes and no heap chunk.
    #[test]
    fn a_slot_holds_an_endpoint_whole() {
        use std::mem::size_of;
        assert!(size_of::<Slot>() <= 104, "{}", size_of::<Slot>());
        assert!(size_of::<DeviceRecord>() <= 72);
        assert!(size_of::<DeviceRoute<PackedPool>>() <= 32);
        assert!(size_of::<Row>() <= 24);
        // A switch's row is a word per link end.
        assert!(size_of::<Edge>() <= 8);
    }

    /// A slot freed by a removal is claimed by the next new DSN, whose
    /// record of another shape — a switch's ports where an endpoint's
    /// were, a spilled route where an inline one was — reads back whole.
    #[test]
    fn a_freed_slot_takes_a_record_of_another_shape() {
        let mut db = line_db();
        db.device_mut(3).unwrap().route = route_of(2, 0).into();
        let slot = db.slot_of(3).unwrap();
        assert!(db.remove_device(3));
        db.insert_device(info(9, DeviceType::Switch, 12), route_of(30, 1));
        db.add_link((2, 5), (9, 11));
        assert_eq!(db.slot_of(9), Some(slot), "the freed slot is reused");
        let d = db.device(9).unwrap();
        assert_eq!(d.route.unpack(), route_of(30, 1));
        assert_eq!(d.ports.len(), 12);
        assert!(d.ports.iter().all(Option::is_none));
        assert_eq!(db.peers(9).collect::<Vec<_>>(), [(2, 5)]);
    }

    #[test]
    fn neighbor_tracks_link_mutations() {
        let mut db = line_db();
        assert_eq!(db.neighbor(2, 4), Some((1, 0)));
        assert_eq!(db.neighbor(2, 5), Some((3, 0)));
        assert_eq!(db.neighbor(2, 6), None);
        db.remove_link((2, 5), (3, 0));
        assert_eq!(db.neighbor(2, 5), None);
        assert_eq!(db.neighbor(3, 0), None);
        db.add_link((2, 5), (3, 0));
        assert_eq!(db.neighbor(2, 5), Some((3, 0)));
        db.remove_device(3);
        assert_eq!(db.neighbor(2, 5), None, "device removal drops its links");
        assert_eq!(db.link_count(), 1);
    }

    /// The oracle for the one link store: a set of canonical link keys
    /// and a set of known DSNs, mutated the way the database documents.
    #[derive(Clone, Default)]
    struct Model {
        devices: BTreeSet<u64>,
        links: HashSet<LinkKey>,
    }

    /// The entries of `directed` leaving `dsn` at a port in `ports`.
    fn ends(
        directed: &BTreeSet<LinkKey>,
        dsn: u64,
        ports: std::ops::RangeInclusive<u8>,
    ) -> impl Iterator<Item = &LinkKey> {
        directed.range((dsn, *ports.start(), 0, 0)..=(dsn, *ports.end(), u64::MAX, u8::MAX))
    }

    impl Model {
        fn key(a: (u64, u8), b: (u64, u8)) -> LinkKey {
            let (a, b) = if a <= b { (a, b) } else { (b, a) };
            (a.0, a.1, b.0, b.1)
        }

        /// Each link from both ends.
        fn directed(&self) -> BTreeSet<LinkKey> {
            let both = |&(a, ap, b, bp): &LinkKey| [(a, ap, b, bp), (b, bp, a, ap)];
            self.links.iter().flat_map(both).collect()
        }

        fn remove_device(&mut self, dsn: u64) -> bool {
            self.links.retain(|&(a, _, b, _)| a != dsn && b != dsn);
            self.devices.remove(&dsn)
        }

        fn prune_unreachable(&mut self, host: u64) -> Vec<u64> {
            let directed = self.directed();
            let mut seen = BTreeSet::new();
            let mut queue: VecDeque<u64> = self.devices.get(&host).copied().into_iter().collect();
            seen.extend(queue.iter().copied());
            while let Some(d) = queue.pop_front() {
                for &(_, _, m, _) in ends(&directed, d, 0..=u8::MAX) {
                    if self.devices.contains(&m) && seen.insert(m) {
                        queue.push_back(m);
                    }
                }
            }
            let doomed: Vec<u64> = self.devices.difference(&seen).copied().collect();
            for &d in &doomed {
                self.remove_device(d);
            }
            doomed
        }

        /// Breadth-first from `root` over known devices, each device's
        /// ends in `directed` order: every reached target's `(egress at
        /// the root, entry port at the target, switch hops)`. `None` when
        /// a switch on some path would be crossed through a port it does
        /// not have (per `ports`) or back out of its entry port: a walk
        /// the database cannot encode as turns.
        fn paths(
            &self,
            directed: &BTreeSet<LinkKey>,
            root: u64,
            ports: impl Fn(u64) -> u16,
        ) -> Option<BTreeMap<u64, (u8, u8, u16)>> {
            let mut reached = BTreeMap::new();
            let mut queue = VecDeque::from([root]);
            while let Some(d) = queue.pop_front() {
                let via: Option<(u8, u8, u16)> = reached.get(&d).copied();
                for &(_, p, m, mp) in ends(directed, d, 0..=u8::MAX) {
                    if m == root || !self.devices.contains(&m) || reached.contains_key(&m) {
                        continue;
                    }
                    let path = match via {
                        None => (p, mp, 0),
                        Some((egress, entry, hops)) => {
                            let n = ports(d);
                            if n < 2 || u16::from(entry.max(p)) >= n || entry == p {
                                return None;
                            }
                            (egress, mp, hops + 1)
                        }
                    };
                    reached.insert(m, path);
                    queue.push_back(m);
                }
            }
            Some(reached)
        }
    }

    /// The routes from and to every known device against the model's
    /// own breadth-first paths, wherever those can be encoded as turns;
    /// no unreachable device is routed.
    fn check_routes(
        db: &TopologyDb,
        model: &Model,
        directed: &BTreeSet<LinkKey>,
    ) -> Result<(), proptest::prelude::TestCaseError> {
        use proptest::prelude::*;
        let ports = |d: u64| db.device(d).map_or(0, |d| d.info.port_count);
        for &root in &model.devices {
            let Some(paths) = model.paths(directed, root, ports) else {
                continue;
            };
            let from: BTreeMap<u64, (u8, u8, u16)> = db
                .routes_from(root, MAX_POOL_BITS)
                .into_iter()
                .map(|(d, r)| (d, r.map(|r| (r.egress, r.entry_port, r.hops)).unwrap()))
                .collect();
            prop_assert_eq!(&from, &paths, "routes from {}", root);
            let mut to = BTreeMap::new();
            db.for_each_route_to(root, MAX_POOL_BITS, |d, r| {
                let r = r.unwrap();
                assert!(
                    to.insert(d, (r.entry_port, r.egress, r.hops)).is_none(),
                    "{d} twice"
                );
            });
            prop_assert_eq!(&to, &paths, "routes to {}", root);
        }
        Ok(())
    }

    /// Everything the database reads its links for, against the model:
    /// the count, the sorted list, every port's neighbour, the routes
    /// from and to every known device, and the diff from the state
    /// before the last operation.
    fn check_against(
        db: &TopologyDb,
        model: &Model,
        before: &(TopologyDb, Model),
    ) -> Result<(), proptest::prelude::TestCaseError> {
        use proptest::prelude::*;
        prop_assert_eq!(db.link_count(), model.links.len());
        prop_assert_eq!(db.device_count(), model.devices.len());
        let mut keys: Vec<_> = model.links.iter().copied().collect();
        keys.sort_unstable();
        let links: Vec<_> = db.links().map(|(a, b)| (a.0, a.1, b.0, b.1)).collect();
        prop_assert_eq!(&links, &keys);

        let directed = model.directed();
        for dsn in 0..DSNS {
            let ends_at = ends(&directed, dsn, 0..=u8::MAX).map(|&(_, _, m, mp)| (m, mp));
            prop_assert_eq!(
                db.peers(dsn).collect::<Vec<_>>(),
                ends_at.collect::<Vec<_>>()
            );
            for port in 0..PORTS {
                let first = ends(&directed, dsn, port..=port).next();
                let want = first.map(|&(_, _, m, mp)| (m, mp));
                prop_assert_eq!(db.neighbor(dsn, port), want, "neighbor({}, {})", dsn, port);
            }
        }

        check_routes(db, model, &directed)?;

        let (old_db, old) = before;
        let only = |a: &BTreeSet<u64>, b: &BTreeSet<u64>| a.difference(b).copied().collect();
        let only_links = |a: &HashSet<LinkKey>, b: &HashSet<LinkKey>| {
            let mut v: Vec<_> = a.difference(b).copied().collect();
            v.sort_unstable();
            v
        };
        let (added_links, removed_links) = (
            only_links(&model.links, &old.links),
            only_links(&old.links, &model.links),
        );
        let survivor = |d: &u64| old.devices.contains(d) && model.devices.contains(d);
        let touched = added_links.iter().chain(&removed_links);
        let recabled: BTreeSet<u64> = touched
            .flat_map(|&(a, _, b, _)| [a, b])
            .filter(survivor)
            .collect();
        let want = TopologyDelta {
            added_devices: only(&model.devices, &old.devices),
            removed_devices: only(&old.devices, &model.devices),
            recabled_devices: recabled.into_iter().collect(),
            added_links,
            removed_links,
        };
        let delta = old_db.diff(db);
        prop_assert_eq!(&delta, &want);
        prop_assert_eq!(delta, snapshot_db(old_db).diff(&snapshot_db(db)));
        Ok(())
    }

    /// DSNs the property draws from (0 is the host): small, so that
    /// duplicates, shared ports, self-links and unknown ends are common.
    const DSNS: u64 = 6;
    const PORTS: u8 = 3;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any sequence of inserts, link adds and removals, device
        /// removals and prunes — duplicate links, two links on one port,
        /// self-links and links to unknown DSNs included — leaves every
        /// link reader agreeing with a plain set of canonical keys.
        #[test]
        fn the_adjacency_is_the_link_set(
            ops in proptest::collection::vec(
                ((0u8..8, 0..DSNS), (0..PORTS, 0..DSNS, 0..PORTS)),
                1..80,
            ),
        ) {
            use proptest::prelude::*;
            let mut db = TopologyDb::new(0);
            let mut model = Model::default();
            for ((op, a), (ap, b, bp)) in ops {
                let before = (db.clone(), model.clone());
                match op {
                    0 | 1 => {
                        let kind = if a % 2 == 0 { DeviceType::Endpoint } else { DeviceType::Switch };
                        let ports = u16::from(ap) + 1;
                        let new = db.insert_device(info(a, kind, ports), route0());
                        prop_assert_eq!(new, model.devices.insert(a));
                    }
                    2..=4 => {
                        let new = db.add_link((a, ap), (b, bp));
                        prop_assert_eq!(new, model.links.insert(Model::key((a, ap), (b, bp))));
                    }
                    5 => {
                        let gone = db.remove_link((a, ap), (b, bp));
                        prop_assert_eq!(gone, model.links.remove(&Model::key((a, ap), (b, bp))));
                    }
                    6 => prop_assert_eq!(db.remove_device(a), model.remove_device(a)),
                    _ => prop_assert_eq!(db.prune_unreachable(), model.prune_unreachable(0)),
                }
                check_against(&db, &model, &before)?;
            }
        }

        /// Records of every shape — routes on both sides of the inline
        /// word, port vectors on both sides of the inline blocks — read
        /// back as written, through removals and prunes whose freed slots
        /// are claimed again by records of other shapes, and through a
        /// snapshot round trip, in memory and encoded.
        #[test]
        fn records_read_back_as_written(
            ops in proptest::collection::vec((0u8..6, 0..2 * DSNS, 0u16..40, 1u16..9), 1..60),
        ) {
            use proptest::prelude::*;
            let mut db = TopologyDb::new(0);
            let mut model: BTreeMap<u64, (DeviceRoute, Vec<Option<PortInfo>>)> = BTreeMap::new();
            for (op, dsn, n, ports) in ops {
                match op {
                    0 | 1 => {
                        let kind = if ports <= 4 { DeviceType::Endpoint } else { DeviceType::Switch };
                        let route = route_of(n, (n % 3) as u8);
                        let new = db.insert_device(info(dsn, kind, ports), route.clone());
                        prop_assert_eq!(new, !model.contains_key(&dsn));
                        model.entry(dsn).or_insert((route, vec![None; usize::from(ports)]));
                    }
                    2 => {
                        let (port, state) = (n % 9, [PortState::Down, PortState::Active][usize::from(n % 2)]);
                        let block = PortInfo { state, link_width: 1, link_speed: 10, peer_port: n as u8 };
                        db.set_port(dsn, port, block);
                        if let Some(slot) = model.get_mut(&dsn).and_then(|(_, p)| p.get_mut(usize::from(port))) {
                            *slot = Some(block);
                        }
                    }
                    3 => {
                        db.add_link((u64::from(n) % DSNS, (n % 3) as u8), (dsn, 0));
                    }
                    4 => prop_assert_eq!(db.remove_device(dsn), model.remove(&dsn).is_some()),
                    _ => {
                        for gone in db.prune_unreachable() {
                            prop_assert!(model.remove(&gone).is_some());
                        }
                    }
                }
                prop_assert_eq!(db.device_count(), model.len());
                for dsn in 0..2 * DSNS {
                    let d = db.device(dsn);
                    prop_assert_eq!(d.is_some(), model.contains_key(&dsn));
                    if let (Some(d), Some((route, ports))) = (d, model.get(&dsn)) {
                        let back = d.route.unpack();
                        prop_assert_eq!(&back, route);
                        prop_assert_eq!(back.pool.capacity(), MAX_POOL_BITS);
                        prop_assert_eq!(&d.ports[..], &ports[..]);
                    }
                }
            }
            let snap = snapshot_db(&db);
            let back = db_from_snapshot(&snap);
            prop_assert_eq!(&snapshot_db(&back), &snap);
            prop_assert_eq!(back.devices().collect::<Vec<_>>(), db.devices().collect::<Vec<_>>());
            prop_assert_eq!(back.links().collect::<Vec<_>>(), db.links().collect::<Vec<_>>());
            prop_assert_eq!(&Snapshot::from_bytes(&snap.to_bytes()).unwrap(), &snap);
        }

        /// One cabling — at most one link per port, no self-links — built
        /// directly, and built through stray links (to unknown DSNs too),
        /// reversed insertion orders, and device removals and re-adds
        /// that recycle freed slots, gives the same links and the same
        /// routes from and to every device.
        #[test]
        fn routes_do_not_depend_on_slot_history(
            cabling in proptest::collection::vec((0..DSNS, 0..PORTS, 0..DSNS, 0..PORTS), 0..16),
            strays in proptest::collection::vec((0..2 * DSNS, 0..PORTS, 0..2 * DSNS, 0..PORTS), 0..12),
            churn in proptest::collection::vec(0..DSNS, 0..6),
        ) {
            use proptest::prelude::*;
            let mut used = BTreeSet::new();
            let cabling: Vec<LinkKey> = cabling
                .into_iter()
                .filter(|&(a, ap, b, bp)| a != b && used.insert((a, ap)) && used.insert((b, bp)))
                .map(|(a, ap, b, bp)| Model::key((a, ap), (b, bp)))
                .collect();
            let switch = |dsn| info(dsn, DeviceType::Switch, u16::from(PORTS));

            let mut direct = TopologyDb::new(0);
            for dsn in 0..DSNS {
                direct.insert_device(switch(dsn), route0());
            }
            for &(a, ap, b, bp) in &cabling {
                direct.add_link((a, ap), (b, bp));
            }

            let mut churned = TopologyDb::new(0);
            for &(a, ap, b, bp) in &strays {
                churned.add_link((a, ap), (b, bp));
            }
            for dsn in (0..DSNS).rev() {
                churned.insert_device(switch(dsn), route0());
            }
            for &(a, ap, b, bp) in cabling.iter().rev() {
                churned.add_link((b, bp), (a, ap));
            }
            let cabled = |a, ap, b, bp| cabling.contains(&Model::key((a, ap), (b, bp)));
            for &(a, ap, b, bp) in &strays {
                if !cabled(a, ap, b, bp) {
                    churned.remove_link((a, ap), (b, bp));
                }
            }
            for dsn in churn {
                churned.remove_device(dsn);
                churned.insert_device(switch(dsn), route0());
                for &(a, ap, b, bp) in cabling.iter().filter(|l| l.0 == dsn || l.2 == dsn) {
                    churned.add_link((a, ap), (b, bp));
                }
            }

            prop_assert_eq!(churned.links().collect::<Vec<_>>(), direct.links().collect::<Vec<_>>());
            prop_assert_eq!(churned.device_count(), direct.device_count());
            let model = Model {
                devices: (0..DSNS).collect(),
                links: cabling.iter().copied().collect(),
            };
            check_routes(&direct, &model, &model.directed())?;
            for root in 0..DSNS {
                prop_assert_eq!(churned.routes_from(root, MAX_POOL_BITS), direct.routes_from(root, MAX_POOL_BITS));
                prop_assert_eq!(churned.routes_to(root, MAX_POOL_BITS), direct.routes_to(root, MAX_POOL_BITS));
            }
        }
    }
}
