//! The fabric manager's topology database: everything discovery learns.
//!
//! Keyed by DSN (device serial number), which is how the FM recognizes a
//! device it has already reached through a different path (the dedup step
//! in the paper's Fig. 2 flow chart).

use asi_proto::{turn_for, turn_width, DeviceInfo, DeviceType, PortInfo, TurnError, TurnPool};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-rotate hasher for the DSN-keyed maps. DSNs are not chosen
/// by an adversary, and discovery looks one up on every completion, so
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

/// A link `(dsn, port, peer, peer port)`, canonical when
/// `(dsn, port) <= (peer, peer port)`.
type LinkKey = (u64, u8, u64, u8);

/// How the FM reaches a device: inject on `egress` (the FM endpoint's
/// port), follow `pool`, arrive at the device's `entry_port`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceRoute {
    /// Egress port at the FM's endpoint.
    pub egress: u8,
    /// Turns for the switches along the path.
    pub pool: TurnPool,
    /// Port at which packets enter the target device.
    pub entry_port: u8,
    /// Switch hops from the FM.
    pub hops: u16,
}

/// A device record in the database.
#[derive(Clone, Debug)]
pub struct DbDevice {
    /// General information (from the first six baseline words).
    pub info: DeviceInfo,
    /// Route used to reach it.
    pub route: DeviceRoute,
    /// Per-port attributes; `None` until the port block has been read.
    pub ports: Vec<Option<PortInfo>>,
}

impl DbDevice {
    /// Number of active ports among those read so far.
    pub fn active_ports(&self) -> usize {
        self.ports
            .iter()
            .flatten()
            .filter(|p| p.state.is_active())
            .count()
    }

    /// True once every port block has been read.
    pub fn ports_complete(&self) -> bool {
        self.ports.iter().all(Option::is_some)
    }
}

/// The discovered topology.
///
/// Links live in one store: a per-device sorted adjacency row, kept
/// incrementally on every link/device mutation, holding each link once
/// from each end (a link from a port to itself, once). Route
/// recomputation therefore never rebuilds adjacency from scratch, BFS
/// tie-breaking (sorted neighbour order) is identical to what a fresh
/// rebuild would produce, and the link set is the rows' canonical
/// entries — those whose own end `(dsn, port)` is the smaller.
#[derive(Clone, Debug, Default)]
pub struct TopologyDb {
    devices: DsnMap<DbDevice>,
    /// `dsn -> sorted [(own port, neighbour, neighbour port)]`; a row is
    /// allocated at its device's port count when the device is known.
    adj: DsnMap<Vec<(u8, u64, u8)>>,
    /// Links recorded: canonical entries across `adj`.
    link_count: usize,
    host_dsn: u64,
}

/// Compact CSR-style view of the discovered link table: device DSNs map
/// to dense indices and every device's sorted neighbour list occupies
/// one contiguous slice of a single edge array. Built in
/// O(devices + links) from the maintained adjacency; breadth-first
/// traversals over it touch flat arrays only, which is what lets route
/// refreshes scale to ~100k-device fabrics with bounded memory.
///
/// Only neighbours that are themselves known devices appear as edges —
/// the `contains` filtering the hash-based BFS performs per visit is
/// folded into construction.
#[derive(Clone, Debug)]
pub struct CompactLinks {
    /// Sorted device DSNs; position = dense index.
    dsns: Vec<u64>,
    /// `edges[offsets[i]..offsets[i+1]]` are device `i`'s neighbours.
    offsets: Vec<u32>,
    /// `(own port, neighbour index, neighbour port)`, sorted per device.
    edges: Vec<(u8, u32, u8)>,
}

impl CompactLinks {
    /// Number of devices.
    pub fn len(&self) -> usize {
        self.dsns.len()
    }

    /// True when the table holds no devices.
    pub fn is_empty(&self) -> bool {
        self.dsns.is_empty()
    }

    /// DSN of the device at a dense index.
    pub fn dsn(&self, index: usize) -> u64 {
        self.dsns[index]
    }

    /// Dense index of a DSN, if the device is known.
    pub fn index_of(&self, dsn: u64) -> Option<usize> {
        self.dsns.binary_search(&dsn).ok()
    }

    /// The `(own port, neighbour index, neighbour port)` edge slice of
    /// the device at `index`, sorted by port.
    pub fn neighbors(&self, index: usize) -> &[(u8, u32, u8)] {
        &self.edges[self.offsets[index] as usize..self.offsets[index + 1] as usize]
    }
}

impl TopologyDb {
    /// Fresh database rooted at the FM's endpoint.
    pub fn new(host_dsn: u64) -> TopologyDb {
        TopologyDb {
            devices: DsnMap::default(),
            adj: DsnMap::default(),
            link_count: 0,
            host_dsn,
        }
    }

    /// True if the directed adjacency entry `at → peer` is recorded.
    fn adj_contains(&self, at: (u64, u8), peer: (u64, u8)) -> bool {
        self.adj
            .get(&at.0)
            .is_some_and(|v| v.binary_search(&(at.1, peer.0, peer.1)).is_ok())
    }

    /// Inserts one directed adjacency entry, keeping the vec sorted. A
    /// known device's row starts at its port count, which is how many
    /// links it has when cabled one per port.
    fn adj_insert(&mut self, at: (u64, u8), peer: (u64, u8)) {
        let devices = &self.devices;
        let v = self.adj.entry(at.0).or_insert_with(|| {
            let ports = devices.get(&at.0).map_or(0, |d| d.info.port_count);
            Vec::with_capacity(usize::from(ports))
        });
        let entry = (at.1, peer.0, peer.1);
        if let Err(pos) = v.binary_search(&entry) {
            v.insert(pos, entry);
        }
    }

    /// Every link as its key `(a, ap, b, bp)` with `(a, ap) <= (b, bp)`:
    /// the canonical entries of the rows, sorted.
    fn sorted_link_keys(&self) -> Vec<LinkKey> {
        let mut v = Vec::with_capacity(self.link_count);
        for (&d, row) in &self.adj {
            let canonical = row.iter().filter(|&&(p, m, mp)| (d, p) <= (m, mp));
            v.extend(canonical.map(|&(p, m, mp)| (d, p, m, mp)));
        }
        v.sort_unstable();
        v
    }

    /// Removes one directed adjacency entry.
    fn adj_remove(&mut self, at: (u64, u8), peer: (u64, u8)) {
        if let Some(v) = self.adj.get_mut(&at.0) {
            let entry = (at.1, peer.0, peer.1);
            if let Ok(pos) = v.binary_search(&entry) {
                v.remove(pos);
            }
            if v.is_empty() {
                self.adj.remove(&at.0);
            }
        }
    }

    /// DSN of the FM's endpoint.
    pub fn host_dsn(&self) -> u64 {
        self.host_dsn
    }

    /// Device count (including the host).
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Link count.
    pub fn link_count(&self) -> usize {
        self.link_count
    }

    /// True if a DSN is already known.
    pub fn contains(&self, dsn: u64) -> bool {
        self.devices.contains_key(&dsn)
    }

    /// Looks up a device.
    pub fn device(&self, dsn: u64) -> Option<&DbDevice> {
        self.devices.get(&dsn)
    }

    /// Mutable lookup.
    pub fn device_mut(&mut self, dsn: u64) -> Option<&mut DbDevice> {
        self.devices.get_mut(&dsn)
    }

    /// Iterates all devices, in DSN order. Map iteration order is
    /// per-instance random, so anything user-visible (reports, traces,
    /// snapshots) must not see it.
    pub fn devices(&self) -> impl Iterator<Item = &DbDevice> {
        let mut v: Vec<&DbDevice> = self.devices.values().collect();
        v.sort_unstable_by_key(|d| d.info.dsn);
        v.into_iter()
    }

    /// Iterates all links, in canonical-key order.
    pub fn links(&self) -> impl Iterator<Item = ((u64, u8), (u64, u8))> + '_ {
        let keys = self.sorted_link_keys().into_iter();
        keys.map(|(a, ap, b, bp)| ((a, ap), (b, bp)))
    }

    /// DSNs of all discovered endpoints.
    pub fn endpoints(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .devices
            .values()
            .filter(|d| d.info.device_type == DeviceType::Endpoint)
            .map(|d| d.info.dsn)
            .collect();
        v.sort_unstable();
        v
    }

    /// DSNs of all discovered switches.
    pub fn switches(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .devices
            .values()
            .filter(|d| d.info.device_type == DeviceType::Switch)
            .map(|d| d.info.dsn)
            .collect();
        v.sort_unstable();
        v
    }

    /// Records a newly discovered device. Returns `false` (and leaves the
    /// record untouched) if the DSN was already present.
    pub fn insert_device(&mut self, info: DeviceInfo, route: DeviceRoute) -> bool {
        if self.devices.contains_key(&info.dsn) {
            return false;
        }
        let ports = vec![None; usize::from(info.port_count)];
        self.devices
            .insert(info.dsn, DbDevice { info, route, ports });
        true
    }

    /// Records a link. Idempotent; returns `true` if the link was new.
    pub fn add_link(&mut self, a: (u64, u8), b: (u64, u8)) -> bool {
        if self.adj_contains(a, b) {
            return false;
        }
        self.adj_insert(a, b);
        self.adj_insert(b, a);
        self.link_count += 1;
        true
    }

    /// Stores a port block for a device.
    pub fn set_port(&mut self, dsn: u64, port: u16, info: PortInfo) {
        if let Some(d) = self.devices.get_mut(&dsn) {
            if let Some(slot) = d.ports.get_mut(usize::from(port)) {
                *slot = Some(info);
            }
        }
    }

    /// Removes one link. Returns `true` if it was present.
    pub fn remove_link(&mut self, a: (u64, u8), b: (u64, u8)) -> bool {
        if !self.adj_contains(a, b) {
            return false;
        }
        self.adj_remove(a, b);
        self.adj_remove(b, a);
        self.link_count -= 1;
        true
    }

    /// Removes a device and all links touching it. Returns `true` if it
    /// existed.
    pub fn remove_device(&mut self, dsn: u64) -> bool {
        let existed = self.devices.remove(&dsn).is_some();
        let doomed: Vec<(u64, u8, u64, u8)> = self
            .adj
            .get(&dsn)
            .into_iter()
            .flatten()
            .map(|&(p, m, mp)| (dsn, p, m, mp))
            .collect();
        for (a, ap, b, bp) in doomed {
            self.remove_link((a, ap), (b, bp));
        }
        existed
    }

    /// The neighbour recorded at `(dsn, port)`, if any. O(log degree)
    /// over the maintained adjacency.
    pub fn neighbor(&self, dsn: u64, port: u8) -> Option<(u64, u8)> {
        let v = self.adj.get(&dsn)?;
        let pos = v.partition_point(|&(p, _, _)| p < port);
        match v.get(pos) {
            Some(&(p, m, mp)) if p == port => Some((m, mp)),
            _ => None,
        }
    }

    /// Drops every device not reachable from the host over recorded links
    /// (used after removals). Returns the DSNs pruned.
    pub fn prune_unreachable(&mut self) -> Vec<u64> {
        let mut seen: HashSet<u64> = HashSet::new();
        let mut queue = VecDeque::new();
        if self.devices.contains_key(&self.host_dsn) {
            seen.insert(self.host_dsn);
            queue.push_back(self.host_dsn);
        }
        while let Some(d) = queue.pop_front() {
            for &(_, n, _) in self.adj.get(&d).into_iter().flatten() {
                if self.devices.contains_key(&n) && seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        let mut doomed: Vec<u64> = self
            .devices
            .keys()
            .copied()
            .filter(|d| !seen.contains(d))
            .collect();
        doomed.sort_unstable();
        for d in &doomed {
            self.remove_device(*d);
        }
        doomed
    }

    /// Builds the compact CSR link table from the maintained adjacency.
    /// Edge order per device is the sorted `(port, dsn, peer port)`
    /// order, so traversals over it break ties exactly like the
    /// hash-based BFS did.
    pub fn compact_links(&self) -> CompactLinks {
        let mut dsns: Vec<u64> = self.devices.keys().copied().collect();
        dsns.sort_unstable();
        let index: HashMap<u64, u32> = dsns
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u32))
            .collect();
        let mut offsets = Vec::with_capacity(dsns.len() + 1);
        let mut edges = Vec::with_capacity(2 * self.link_count);
        offsets.push(0u32);
        for &d in &dsns {
            for &(p, m, mp) in self.adj.get(&d).into_iter().flatten() {
                if let Some(&mi) = index.get(&m) {
                    edges.push((p, mi, mp));
                }
            }
            offsets.push(edges.len() as u32);
        }
        CompactLinks {
            dsns,
            offsets,
            edges,
        }
    }

    /// BFS parent tree rooted at `from`: `node -> (parent, parent's
    /// egress port, entry port at node)`.
    fn bfs_tree(&self, from: u64) -> HashMap<u64, (u64, u8, u8)> {
        let mut prev: HashMap<u64, (u64, u8, u8)> = HashMap::with_capacity(self.devices.len());
        let mut queue = VecDeque::new();
        queue.push_back(from);
        let mut seen: HashSet<u64> = HashSet::with_capacity(self.devices.len());
        seen.insert(from);
        while let Some(n) = queue.pop_front() {
            for &(p, m, mp) in self.adj.get(&n).into_iter().flatten() {
                if self.contains(m) && seen.insert(m) {
                    prev.insert(m, (n, p, mp));
                    queue.push_back(m);
                }
            }
        }
        prev
    }

    /// The `from → to` chain of `(node, egress at node, entry at next)`
    /// recovered from a `from`-rooted BFS tree, or `None` when `to` is
    /// unreachable.
    fn chain_to(
        from: u64,
        to: u64,
        prev: &HashMap<u64, (u64, u8, u8)>,
    ) -> Option<Vec<(u64, u8, u8)>> {
        prev.get(&to)?;
        let mut chain: Vec<(u64, u8, u8)> = Vec::new();
        let mut cur = to;
        while cur != from {
            let &(parent, egress, entry) = prev.get(&cur)?;
            chain.push((parent, egress, entry));
            cur = parent;
        }
        chain.reverse();
        Some(chain)
    }

    /// Encodes the route along a forward chain (see [`Self::chain_to`]).
    fn route_of_chain(
        &self,
        chain: &[(u64, u8, u8)],
        pool_capacity: u16,
    ) -> Result<DeviceRoute, TurnError> {
        let egress = chain[0].1;
        let entry_port = chain.last().unwrap().2;
        let mut pool = TurnPool::with_capacity(pool_capacity);
        let mut hops = 0;
        for i in 1..chain.len() {
            let (switch_dsn, out, _) = chain[i];
            let ingress = chain[i - 1].2;
            let ports = self.devices[&switch_dsn].info.port_count as u8;
            let turn = turn_for(ingress, out, ports);
            pool.push_turn(turn, turn_width(ports))?;
            hops += 1;
        }
        Ok(DeviceRoute {
            egress,
            pool,
            entry_port,
            hops,
        })
    }

    /// Routes from `from` to every other reachable device, computed with
    /// a single BFS — the batched form of [`Self::route_between`], with
    /// identical per-target results (same deterministic tie-breaking) at
    /// O(devices + links) instead of one BFS per target. Targets whose
    /// path cannot be encoded map to the `TurnError`.
    ///
    /// Each route is built incrementally at the BFS frontier by
    /// extending the parent's turn pool with one turn, rather than
    /// re-walking a parent chain per target — the total work is one pool
    /// clone + push per device, which is what route refreshes on
    /// ~100k-device fabrics rely on.
    pub fn routes_from(
        &self,
        from: u64,
        pool_capacity: u16,
    ) -> HashMap<u64, Result<DeviceRoute, TurnError>> {
        let mut out = HashMap::new();
        if !self.contains(from) {
            return out;
        }
        let csr = self.compact_links();
        let root = csr.index_of(from).expect("root is a known device");
        let mut routes: Vec<Option<Result<DeviceRoute, TurnError>>> = vec![None; csr.len()];
        let mut seen = vec![false; csr.len()];
        seen[root] = true;
        let mut queue = VecDeque::new();
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &(p, v, vp) in csr.neighbors(u) {
                let v = v as usize;
                if seen[v] {
                    continue;
                }
                seen[v] = true;
                let route = if u == root {
                    // Direct neighbour of the root: empty pool, zero
                    // switch hops, enter on the far port.
                    Ok(DeviceRoute {
                        egress: p,
                        pool: TurnPool::with_capacity(pool_capacity),
                        entry_port: vp,
                        hops: 0,
                    })
                } else {
                    match routes[u].as_ref().expect("parent visited before child") {
                        Ok(parent) => {
                            let ports = self.devices[&csr.dsn(u)].info.port_count as u8;
                            let turn = turn_for(parent.entry_port, p, ports);
                            let mut pool = parent.pool.clone();
                            match pool.push_turn(turn, turn_width(ports)) {
                                Ok(()) => Ok(DeviceRoute {
                                    egress: parent.egress,
                                    pool,
                                    entry_port: vp,
                                    hops: parent.hops + 1,
                                }),
                                Err(e) => Err(e),
                            }
                        }
                        // The chain walk stops at its first encoding
                        // error, so every descendant reports the same
                        // error the parent hit.
                        Err(e) => Err(*e),
                    }
                };
                routes[v] = Some(route);
                queue.push_back(v);
            }
        }
        for (i, r) in routes.into_iter().enumerate() {
            if i != root {
                if let Some(r) = r {
                    out.insert(csr.dsn(i), r);
                }
            }
        }
        out
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
        let mut out = HashMap::with_capacity(self.devices.len());
        self.for_each_route_to(to, pool_capacity, |dsn, route| {
            out.insert(dsn, route);
        });
        out
    }

    /// [`Self::routes_to`] without the map: hands each reachable
    /// device's `(dsn, route)` to `visit` as it is built, in the
    /// database's device order, so a caller that consumes the routes
    /// once never holds them all.
    pub fn for_each_route_to(
        &self,
        to: u64,
        pool_capacity: u16,
        mut visit: impl FnMut(u64, Result<DeviceRoute, TurnError>),
    ) {
        if !self.contains(to) {
            return;
        }
        let prev = self.bfs_tree(to);
        for &dsn in self.devices.keys() {
            if dsn == to {
                continue;
            }
            let Some(chain) = Self::chain_to(to, dsn, &prev) else {
                continue;
            };
            // `chain` runs to → dsn; walk it backwards to route dsn → to.
            // Forward, switch chain[i] is entered on chain[i-1]'s entry
            // port and leaves on its own egress port; reversed, those two
            // swap roles.
            let egress = chain.last().unwrap().2;
            let entry_port = chain[0].1;
            let mut pool = TurnPool::with_capacity(pool_capacity);
            let mut hops = 0;
            let mut err = None;
            for i in (1..chain.len()).rev() {
                let (switch_dsn, out_fwd, _) = chain[i];
                let ingress = out_fwd;
                let out_rev = chain[i - 1].2;
                let ports = self.devices[&switch_dsn].info.port_count as u8;
                let turn = turn_for(ingress, out_rev, ports);
                if let Err(e) = pool.push_turn(turn, turn_width(ports)) {
                    err = Some(e);
                    break;
                }
                hops += 1;
            }
            let route = match err {
                Some(e) => Err(e),
                None => Ok(DeviceRoute {
                    egress,
                    pool,
                    entry_port,
                    hops,
                }),
            };
            visit(dsn, route);
        }
    }

    /// BFS route from the host to `to`, or from `from` to the host —
    /// computed over the discovered links. Returns `(egress at from,
    /// pool, entry port at to)`.
    pub fn route_between(
        &self,
        from: u64,
        to: u64,
        pool_capacity: u16,
    ) -> Option<Result<DeviceRoute, TurnError>> {
        if from == to || !self.contains(from) || !self.contains(to) {
            return None;
        }
        let prev = self.bfs_tree(from);
        let chain = Self::chain_to(from, to, &prev)?;
        Some(self.route_of_chain(&chain, pool_capacity))
    }

    /// Recomputes every device's stored route from the host over the
    /// current link set (the "new set of paths" step the paper requires
    /// after every topological change). Devices with no route keep their
    /// stale one; returns the DSNs whose route could not be refreshed.
    pub fn refresh_routes(&mut self, pool_capacity: u16) -> Vec<u64> {
        let host = self.host_dsn;
        let mut routes = self.routes_from(host, pool_capacity);
        let dsns: Vec<u64> = self.devices.keys().copied().collect();
        let mut stale = Vec::new();
        for dsn in dsns {
            if dsn == host {
                continue;
            }
            match routes.remove(&dsn) {
                Some(Ok(route)) => {
                    if let Some(d) = self.devices.get_mut(&dsn) {
                        d.route = route;
                    }
                }
                _ => stale.push(dsn),
            }
        }
        stale.sort_unstable();
        stale
    }

    /// Differences between two databases (for assimilation reports).
    /// All lists come back sorted, so equal databases always produce
    /// byte-identical reports.
    pub fn diff(&self, newer: &TopologyDb) -> DbDiff {
        let mut added_devices: Vec<u64> = newer
            .devices
            .keys()
            .filter(|d| !self.devices.contains_key(d))
            .copied()
            .collect();
        let mut removed_devices: Vec<u64> = self
            .devices
            .keys()
            .filter(|d| !newer.devices.contains_key(d))
            .copied()
            .collect();
        let (old_links, new_links) = (self.sorted_link_keys(), newer.sorted_link_keys());
        let only_in = |a: &[LinkKey], b: &[LinkKey]| -> Vec<LinkKey> {
            a.iter()
                .filter(|k| b.binary_search(k).is_err())
                .copied()
                .collect()
        };
        let added_links = only_in(&new_links, &old_links);
        let removed_links = only_in(&old_links, &new_links);
        added_devices.sort_unstable();
        removed_devices.sort_unstable();
        DbDiff {
            added_devices,
            removed_devices,
            added_links,
            removed_links,
        }
    }
}

/// Topology delta between two discovery runs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DbDiff {
    /// DSNs present only in the newer database.
    pub added_devices: Vec<u64>,
    /// DSNs present only in the older database.
    pub removed_devices: Vec<u64>,
    /// Links present only in the newer database.
    pub added_links: Vec<(u64, u8, u64, u8)>,
    /// Links present only in the older database.
    pub removed_links: Vec<(u64, u8, u64, u8)>,
}

impl DbDiff {
    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.added_devices.is_empty()
            && self.removed_devices.is_empty()
            && self.added_links.is_empty()
            && self.removed_links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asi_proto::PortState;
    use std::collections::BTreeSet;

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

    #[test]
    fn compact_links_mirror_the_adjacency() {
        let db = square_db();
        let csr = db.compact_links();
        assert_eq!(csr.len(), db.device_count());
        assert!(!csr.is_empty());
        for i in 0..csr.len() {
            let dsn = csr.dsn(i);
            assert_eq!(csr.index_of(dsn), Some(i));
            let edges = csr.neighbors(i);
            // Sorted by port, and each edge agrees with neighbor().
            assert!(edges.windows(2).all(|w| w[0] <= w[1]));
            for &(p, mi, mp) in edges {
                assert_eq!(db.neighbor(dsn, p), Some((csr.dsn(mi as usize), mp)));
            }
        }
        // Total directed edges = 2 * links.
        let total: usize = (0..csr.len()).map(|i| csr.neighbors(i).len()).sum();
        assert_eq!(total, 2 * db.link_count());
        assert_eq!(csr.index_of(999), None);
    }

    #[test]
    fn compact_links_skip_unknown_devices() {
        let mut db = line_db();
        // A link to a device never inserted must not surface as an edge.
        db.add_link((2, 7), (42, 0));
        let csr = db.compact_links();
        assert_eq!(csr.index_of(42), None);
        let i2 = csr.index_of(2).unwrap();
        assert!(csr
            .neighbors(i2)
            .iter()
            .all(|&(_, m, _)| csr.dsn(m as usize) != 42));
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
    }

    /// Everything the database reads its links for, against the model:
    /// the count, the sorted list, every port's neighbour, the compact
    /// table and the diff from the state before the last operation.
    fn check_against(
        db: &TopologyDb,
        model: &Model,
        before: &(TopologyDb, Model),
    ) -> Result<(), proptest::prelude::TestCaseError> {
        use proptest::prelude::*;
        prop_assert_eq!(db.link_count(), model.links.len());
        let mut keys: Vec<_> = model.links.iter().copied().collect();
        keys.sort_unstable();
        let links: Vec<_> = db.links().map(|(a, b)| (a.0, a.1, b.0, b.1)).collect();
        prop_assert_eq!(&links, &keys);

        let directed = model.directed();
        for dsn in 0..DSNS {
            for port in 0..PORTS {
                let first = ends(&directed, dsn, port..=port).next();
                let want = first.map(|&(_, _, m, mp)| (m, mp));
                prop_assert_eq!(db.neighbor(dsn, port), want, "neighbor({}, {})", dsn, port);
            }
        }

        let csr = db.compact_links();
        let dsns: Vec<u64> = model.devices.iter().copied().collect();
        prop_assert_eq!(csr.len(), dsns.len());
        for (i, &d) in dsns.iter().enumerate() {
            prop_assert_eq!(csr.dsn(i), d);
            let known =
                |&(_, p, m, mp): &LinkKey| Some((p, dsns.binary_search(&m).ok()? as u32, mp));
            let want: Vec<(u8, u32, u8)> =
                ends(&directed, d, 0..=u8::MAX).filter_map(known).collect();
            prop_assert_eq!(csr.neighbors(i), &want[..], "row of {}", d);
        }

        let (old_db, old) = before;
        let only = |a: &BTreeSet<u64>, b: &BTreeSet<u64>| a.difference(b).copied().collect();
        let only_links = |a: &HashSet<LinkKey>, b: &HashSet<LinkKey>| {
            let mut v: Vec<_> = a.difference(b).copied().collect();
            v.sort_unstable();
            v
        };
        let want = DbDiff {
            added_devices: only(&model.devices, &old.devices),
            removed_devices: only(&old.devices, &model.devices),
            added_links: only_links(&model.links, &old.links),
            removed_links: only_links(&old.links, &model.links),
        };
        prop_assert_eq!(old_db.diff(db), want);
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
    }
}
