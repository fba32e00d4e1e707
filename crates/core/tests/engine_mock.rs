//! Engine state-machine tests against a *mock fabric*: a pure responder
//! that executes each [`OutRequest`]'s turn pool over a ground-truth
//! topology and services the read from the target's configuration space.
//! No discrete-event simulation — this isolates the discovery logic and
//! lets property tests drive it with adversarial completion orderings.

use asi_core::{
    Algorithm, DeviceRoute, Engine, EngineConfig, OutOp, OutRequest, Region, RetryPolicy,
    TopologyDb, REQUEST_WINDOW,
};
use asi_proto::{
    apply_backward, apply_forward, turn_width, CapabilityAddr, ConfigSpace, DeviceInfo, DeviceType,
    Direction, Pi4Status, PortInfo, PortState, TurnCursor, CAP_OWNERSHIP, GENERAL_INFO_WORDS,
    PORT_BLOCK_WORDS,
};
use asi_sim::SimRng;
use asi_topo::{dragonfly, fat_tree, irregular, mesh, torus, IrregularSpec, NodeId, Topology};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A zero-time fabric: executes routes and services PI-4 reads exactly
/// like the real simulator, but synchronously. It keeps its devices' port
/// blocks in tables of its own, and reads them through the same
/// [`ConfigSpace::read`].
struct MockFabric {
    topo: Topology,
    devices: Vec<MockDevice>,
    host: NodeId,
}

/// A device of the mock: what its configuration space reads.
struct MockDevice {
    info: DeviceInfo,
    ports: Vec<PortInfo>,
    config: ConfigSpace,
}

impl MockDevice {
    fn read(&self, addr: CapabilityAddr, dwords: u8) -> Result<Vec<u32>, Pi4Status> {
        let port = |p: u16| self.ports[usize::from(p)];
        self.config.read(&self.info, port, addr, dwords)
    }

    fn write(&mut self, addr: CapabilityAddr, data: &[u32]) -> Result<(), Pi4Status> {
        self.config.write(&self.info, addr, data)
    }
}

impl MockFabric {
    fn new(topo: &Topology) -> MockFabric {
        let host = asi_topo::default_fm_endpoint(topo).expect("endpoint");
        let mut devices = Vec::new();
        for (id, node) in topo.nodes() {
            let info = DeviceInfo {
                device_type: node.device_type,
                dsn: dsn_of(id),
                port_count: u16::from(node.ports),
                max_packet_size: 2048,
                fm_capable: node.device_type == DeviceType::Endpoint,
                fm_priority: 0,
            };
            devices.push(MockDevice {
                info,
                ports: vec![PortInfo::default(); usize::from(node.ports)],
                config: ConfigSpace::default(),
            });
        }
        let mut fabric = MockFabric {
            topo: topo.clone(),
            devices,
            host,
        };
        fabric.train_all();
        fabric
    }

    fn train_all(&mut self) {
        for (id, node) in self.topo.nodes() {
            for p in 0..node.ports {
                if let Some(peer) = self.topo.peer(id, p) {
                    self.devices[id.idx()].ports[usize::from(p)] = PortInfo {
                        state: PortState::Active,
                        link_width: 1,
                        link_speed: 10,
                        peer_port: peer.port,
                    };
                }
            }
        }
    }

    /// Walks a request's turn pool from the host: the last hop taken, as
    /// `(device, egress port)`, and the device it reaches, or `None` if
    /// the route falls off the fabric.
    fn walk(&self, req: &OutRequest) -> Option<((NodeId, u8), NodeId)> {
        let mut via = (self.host, req.egress);
        let mut at = self.topo.peer(self.host, req.egress)?;
        let mut cursor = TurnCursor::start(&req.pool, Direction::Forward);
        while !cursor.exhausted(&req.pool) {
            let node = self.topo.node(at.node)?;
            if node.device_type != DeviceType::Switch {
                return None;
            }
            let width = turn_width(node.ports);
            let (turn, next) = cursor.take_turn(&req.pool, width).ok()?;
            let egress = apply_forward(at.port, turn, node.ports);
            // Exercise reversibility while we are here.
            assert_eq!(apply_backward(egress, turn, node.ports), at.port);
            via = (at.node, egress);
            at = self.topo.peer(at.node, egress)?;
            cursor = next;
        }
        Some((via, at.node))
    }

    /// Services one request, returning `(req_id, read result)`.
    fn service(&mut self, req: &OutRequest) -> (u32, Result<Vec<u32>, asi_proto::Pi4Status>) {
        let Some((_, target)) = self.walk(req) else {
            panic!("engine emitted a request that routes off the fabric");
        };
        let result = match &req.op {
            OutOp::Read { addr, dwords } => self.devices[target.idx()].read(*addr, *dwords),
            OutOp::Write { addr, data } => self.devices[target.idx()]
                .write(*addr, data)
                .map(|()| Vec::new()),
        };
        (req.req_id, result)
    }
}

/// DSN scheme used by the mock (reversible for assertions).
const DSN_BASE_MOCK: u64 = 0xB000_0000;

fn dsn_of(id: NodeId) -> u64 {
    DSN_BASE_MOCK | u64::from(id.0)
}

/// What one mock run saw: every request the engine issued, in issue
/// order, each with the number of deliveries that preceded it, and how
/// the deliveries went.
struct Delivered {
    issued: Vec<(u64, OutRequest)>,
    steps: u64,
    max_outstanding: usize,
}

/// Delivers completions until the engine is done — FIFO, or in the order
/// `shuffler` picks. A request `lost` selects is never answered: its
/// timeout is delivered in its place.
fn deliver(
    engine: &mut Engine,
    fabric: &mut MockFabric,
    first: Vec<OutRequest>,
    mut shuffler: Option<SimRng>,
    lost: impl Fn(&MockFabric, &OutRequest) -> bool,
) -> Delivered {
    let mut issued: Vec<(u64, OutRequest)> = first.iter().map(|r| (0, r.clone())).collect();
    let mut inbox: VecDeque<OutRequest> = first.into();
    let mut steps = 0u64;
    let mut max_outstanding = 0usize;
    let mut out = Vec::new();
    while !engine.is_done() {
        max_outstanding = max_outstanding.max(engine.outstanding());
        // Pick the next completion to deliver.
        let idx = match shuffler.as_mut() {
            Some(rng) if inbox.len() > 1 => rng.gen_index(inbox.len()),
            _ => 0,
        };
        let req = inbox.remove(idx).expect("engine is not done but idle");
        if lost(fabric, &req) {
            engine.handle_timeout(req.req_id, &mut out);
        } else {
            let (req_id, result) = fabric.service(&req);
            engine.handle_completion(req_id, result.as_deref().map_err(|e| *e), &mut out);
        }
        steps += 1;
        issued.extend(out.iter().map(|r| (steps, r.clone())));
        inbox.extend(out.drain(..));
        assert!(steps < 1_000_000, "discovery did not converge");
    }
    assert!(
        inbox.is_empty(),
        "engine finished with undelivered requests"
    );
    Delivered {
        issued,
        steps,
        max_outstanding,
    }
}

/// Starts a full discovery of `fabric` from its host endpoint.
fn start(fabric: &MockFabric, cfg: EngineConfig) -> (Engine, Vec<OutRequest>) {
    let host = &fabric.devices[fabric.host.idx()];
    let mut first = Vec::new();
    let (db, region) = Region::cold(host.info, &host.ports, cfg.pool_capacity);
    let engine = Engine::reconcile(cfg, db, region, &mut first);
    (engine, first)
}

/// Runs a full discovery over the mock fabric, delivering completions in
/// an order chosen by `shuffler` (None = FIFO).
fn drive(topo: &Topology, algorithm: Algorithm, shuffler: Option<SimRng>) -> (Engine, u64) {
    let mut fabric = MockFabric::new(topo);
    let cfg = EngineConfig::new(algorithm, asi_proto::MAX_POOL_BITS);
    let (mut engine, first) = start(&fabric, cfg);
    let run = deliver(&mut engine, &mut fabric, first, shuffler, |_, _| false);
    if matches!(algorithm, Algorithm::SerialPacket) {
        assert_eq!(run.max_outstanding, 1, "Serial Packet overlapped requests");
    }
    (engine, run.steps)
}

fn assert_matches_truth(engine: &Engine, topo: &Topology) {
    let truth: BTreeSet<u64> = topo.nodes().map(|(id, _)| dsn_of(id)).collect();
    let found: BTreeSet<u64> = engine.db.devices().map(|d| d.info.dsn).collect();
    assert_eq!(found, truth, "device sets differ");
    assert_eq!(
        engine.db.link_count(),
        topo.links().len(),
        "link counts differ"
    );
    for d in engine.db.devices() {
        assert!(d.ports_complete(), "{:x} ports incomplete", d.info.dsn);
    }
}

#[test]
fn mock_discovery_matches_truth_on_reference_topologies() {
    for topo in [
        mesh(3, 3).unwrap().topology,
        torus(4, 4).unwrap().topology,
        fat_tree(4, 3).unwrap().topology,
        fat_tree(8, 2).unwrap().topology,
    ] {
        for alg in Algorithm::all() {
            let (engine, _) = drive(&topo, alg, None);
            assert_matches_truth(&engine, &topo);
        }
    }
}

#[test]
fn serial_device_outstanding_bounded_by_one_device_burst() {
    // Serial Device may only parallelize within the current device: its
    // outstanding requests never exceed the port reads of one 16-port
    // switch (8 reads, 2 ports per read).
    for topo in [mesh(4, 4).unwrap().topology, torus(4, 4).unwrap().topology] {
        let (engine, _) = drive(&topo, Algorithm::SerialDevice, None);
        let max = engine.stats().max_outstanding;
        assert!(max <= 8, "Serial Device overlapped {max} requests");
        assert!(max >= 2, "Serial Device never parallelized port reads");
    }
}

#[test]
fn parallel_goes_wide() {
    let topo = mesh(4, 4).unwrap().topology;
    let (engine, _) = drive(&topo, Algorithm::Parallel, None);
    assert!(
        engine.stats().max_outstanding > 8,
        "Parallel should exceed any single-device burst, got {}",
        engine.stats().max_outstanding
    );
}

#[test]
fn all_algorithms_find_identical_topologies() {
    // The three algorithms trade time, not coverage: their final device
    // and link sets must be identical.
    let topo = fat_tree(4, 3).unwrap().topology;
    let mut sets = Vec::new();
    for alg in Algorithm::all() {
        let (engine, _) = drive(&topo, alg, None);
        let devices: BTreeSet<u64> = engine.db.devices().map(|d| d.info.dsn).collect();
        let mut links: Vec<_> = engine.db.links().collect();
        links.sort_unstable();
        sets.push((devices, links));
    }
    assert_eq!(sets[0], sets[1]);
    assert_eq!(sets[1], sets[2]);
}

#[test]
fn serial_packet_request_count_is_deterministic() {
    let topo = mesh(4, 4).unwrap().topology;
    let (e1, s1) = drive(&topo, Algorithm::SerialPacket, None);
    let (e2, s2) = drive(&topo, Algorithm::SerialPacket, None);
    assert_eq!(s1, s2);
    assert_eq!(e1.stats(), e2.stats());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random irregular fabrics are fully discovered by every algorithm,
    /// regardless of the order completions arrive in (the Parallel
    /// algorithm is explicitly order-independent: "the order in which
    /// devices are discovered is not deterministic", paper §3.3).
    #[test]
    fn random_fabrics_fully_discovered(
        seed in any::<u64>(),
        switches in 2usize..14,
        extra in 0usize..8,
        order_seed in any::<u64>(),
    ) {
        let mut rng = SimRng::new(seed);
        let topo = irregular(
            IrregularSpec {
                switches,
                extra_links: extra,
                endpoints_per_switch: 1,
            },
            &mut rng,
        )
        .unwrap();
        for alg in Algorithm::all() {
            let shuffler = match alg {
                Algorithm::Parallel => Some(SimRng::new(order_seed)),
                _ => None,
            };
            let (engine, _) = drive(&topo, alg, shuffler);
            let truth: BTreeSet<u64> = topo.nodes().map(|(id, _)| dsn_of(id)).collect();
            let found: BTreeSet<u64> = engine.db.devices().map(|d| d.info.dsn).collect();
            prop_assert_eq!(&found, &truth, "{} device sets differ", alg);
            prop_assert_eq!(engine.db.link_count(), topo.links().len());
        }
    }

    /// The discovered database's own route computation produces routes
    /// that execute correctly over the ground truth.
    #[test]
    fn db_routes_execute_on_ground_truth(seed in any::<u64>(), switches in 2usize..10) {
        let mut rng = SimRng::new(seed);
        let topo = irregular(
            IrregularSpec {
                switches,
                extra_links: 3,
                endpoints_per_switch: 1,
            },
            &mut rng,
        )
        .unwrap();
        let (engine, _) = drive(&topo, Algorithm::Parallel, None);
        let db = &engine.db;
        let host = db.host_dsn();
        let host_node = NodeId((host ^ DSN_BASE_MOCK) as u32);
        for dev in db.devices() {
            if dev.info.dsn == host {
                continue;
            }
            let route = db
                .route_between(host, dev.info.dsn, asi_proto::MAX_POOL_BITS)
                .expect("route exists")
                .expect("pool fits");
            // Walk it over the ground truth.
            let mut at = topo.peer(host_node, route.egress).expect("host port linked");
            let mut cursor = TurnCursor::start(&route.pool, Direction::Forward);
            while !cursor.exhausted(&route.pool) {
                let node = topo.node(at.node).unwrap();
                prop_assert_eq!(node.device_type, DeviceType::Switch);
                let (turn, next) = cursor
                    .take_turn(&route.pool, turn_width(node.ports))
                    .expect("valid turn");
                let egress = apply_forward(at.port, turn, node.ports);
                at = topo.peer(at.node, egress).expect("linked");
                cursor = next;
            }
            prop_assert_eq!(dsn_of(at.node), dev.info.dsn, "route landed wrong");
            prop_assert_eq!(at.port, route.entry_port);
        }
    }
}

// ---------------------------------------------------------------------
// Pinned schedules. Issue order sets request ids, and through them retry
// jitter, trace bytes and every simulated time — yet no other test sees
// it: these runs pin the exact sequence of requests each of §3's three
// algorithms issues, with FIFO completions. The expected text was
// captured before the scheduling core was rewritten (PR 18); a mismatch
// prints the whole actual text so a PR that *means* to change the
// schedule can paste it back and say why.

/// Rival manager that already holds one device in the claims-on runs.
const RIVAL: u64 = 0xBEEF;

fn cfg(algorithm: Algorithm, claims: bool) -> EngineConfig {
    let mut cfg = EngineConfig::new(algorithm, asi_proto::MAX_POOL_BITS);
    cfg.claim_partitioning = claims;
    cfg
}

/// The highest-numbered switch of a topology.
fn last_switch(topo: &Topology) -> NodeId {
    let switches = topo
        .nodes()
        .filter(|(_, n)| n.device_type == DeviceType::Switch);
    switches.last().expect("a switch").0
}

/// A cold discovery with FIFO completions. With `claims`, the last
/// switch is already held by [`RIVAL`], so the run also cedes.
fn cold(topo: &Topology, algorithm: Algorithm, claims: bool) -> (MockFabric, Engine, Delivered) {
    let mut fabric = MockFabric::new(topo);
    if claims {
        let owner = CapabilityAddr {
            capability: CAP_OWNERSHIP,
            offset: 0,
        };
        fabric.devices[last_switch(topo).idx()]
            .write(owner, &[(RIVAL >> 32) as u32, RIVAL as u32])
            .unwrap();
    }
    let (mut engine, first) = start(&fabric, cfg(algorithm, claims));
    let run = deliver(&mut engine, &mut fabric, first, None, |_, _| false);
    (fabric, engine, run)
}

/// FNV-1a over a `Debug` rendering.
fn fnv1a(text: &str) -> u64 {
    let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    text.bytes().fold(0xcbf2_9ce4_8422_2325, fnv)
}

/// The digest of a schedule: when each request was issued and every
/// field of it.
fn digest(issued: &[(u64, OutRequest)]) -> u64 {
    fnv1a(&format!("{issued:?}"))
}

/// One line: the digest of a run's schedule and its counters.
fn summary(engine: &Engine, run: &Delivered) -> String {
    let s = engine.stats();
    format!(
        "{:016x} req={} resp={} to={} max={} retry={} dup={} ceded={} aband={} stale={} dev={}",
        digest(&run.issued),
        s.requests,
        s.responses,
        s.timeouts,
        s.max_outstanding,
        s.retries,
        s.duplicate_probes,
        s.ceded_devices,
        s.abandoned,
        s.stale_probes,
        engine.db.device_count(),
    )
}

/// A request as the paper would write it, after the number of the
/// delivery that triggered it: `G` a general-information read (probe or
/// verify) with the hop it looks through, `P` a port-block read with its
/// port range, `W`/`C` the ownership claim write and its read-back.
fn render(fabric: &MockFabric, (step, req): &(u64, OutRequest)) -> String {
    let ((via, port), target) = fabric.walk(req).expect("routes on the fabric");
    let label = |n: NodeId| {
        if n == fabric.host {
            "host"
        } else {
            fabric.topo.label(n)
        }
    };
    let target = label(target);
    let op = match &req.op {
        OutOp::Write { .. } => format!("W {target}"),
        OutOp::Read { addr, .. } if addr.capability == CAP_OWNERSHIP => format!("C {target}"),
        OutOp::Read { addr, .. } if addr.offset == 0 => {
            format!("G {target} via {}.{port}", label(via))
        }
        OutOp::Read { addr, dwords } => {
            let first = (addr.offset - GENERAL_INFO_WORDS) / PORT_BLOCK_WORDS;
            let n = u16::from(*dwords) / PORT_BLOCK_WORDS;
            format!("P {target}[{first}..{}]", first + n)
        }
    };
    format!("@{step} {op}")
}

/// Compares a run's text with its pinned copy; prints the whole actual
/// text on a mismatch.
fn assert_pinned(actual: &str, expected: &str) {
    let (actual, expected) = (actual.trim(), expected.trim());
    assert!(
        actual == expected,
        "schedule changed; actual text:\n{actual}"
    );
}

const MESH_2X2: &str = "
 id Serial Packet                   Serial Device                   Parallel
  1 @0 G sw(0,0) via host.0         @0 G sw(0,0) via host.0         @0 G sw(0,0) via host.0
  2 @1 P sw(0,0)[0..2]              @1 P sw(0,0)[0..2]              @1 P sw(0,0)[0..2]
  3 @2 P sw(0,0)[2..4]              @1 P sw(0,0)[2..4]              @1 P sw(0,0)[2..4]
  4 @3 P sw(0,0)[4..6]              @1 P sw(0,0)[4..6]              @1 P sw(0,0)[4..6]
  5 @4 P sw(0,0)[6..8]              @1 P sw(0,0)[6..8]              @1 P sw(0,0)[6..8]
  6 @5 P sw(0,0)[8..10]             @1 P sw(0,0)[8..10]             @1 P sw(0,0)[8..10]
  7 @6 P sw(0,0)[10..12]            @1 P sw(0,0)[10..12]            @1 P sw(0,0)[10..12]
  8 @7 P sw(0,0)[12..14]            @1 P sw(0,0)[12..14]            @1 P sw(0,0)[12..14]
  9 @8 P sw(0,0)[14..16]            @1 P sw(0,0)[14..16]            @1 P sw(0,0)[14..16]
 10 @9 G sw(1,0) via sw(0,0).0      @9 G sw(1,0) via sw(0,0).0      @2 G sw(1,0) via sw(0,0).0
 11 @10 P sw(1,0)[0..2]             @10 P sw(1,0)[0..2]             @3 G sw(0,1) via sw(0,0).2
 12 @11 P sw(1,0)[2..4]             @10 P sw(1,0)[2..4]             @10 P sw(1,0)[0..2]
 13 @12 P sw(1,0)[4..6]             @10 P sw(1,0)[4..6]             @10 P sw(1,0)[2..4]
 14 @13 P sw(1,0)[6..8]             @10 P sw(1,0)[6..8]             @10 P sw(1,0)[4..6]
 15 @14 P sw(1,0)[8..10]            @10 P sw(1,0)[8..10]            @10 P sw(1,0)[6..8]
 16 @15 P sw(1,0)[10..12]           @10 P sw(1,0)[10..12]           @10 P sw(1,0)[8..10]
 17 @16 P sw(1,0)[12..14]           @10 P sw(1,0)[12..14]           @10 P sw(1,0)[10..12]
 18 @17 P sw(1,0)[14..16]           @10 P sw(1,0)[14..16]           @10 P sw(1,0)[12..14]
 19 @18 G sw(0,1) via sw(0,0).2     @18 G sw(0,1) via sw(0,0).2     @10 P sw(1,0)[14..16]
 20 @19 P sw(0,1)[0..2]             @19 P sw(0,1)[0..2]             @11 P sw(0,1)[0..2]
 21 @20 P sw(0,1)[2..4]             @19 P sw(0,1)[2..4]             @11 P sw(0,1)[2..4]
 22 @21 P sw(0,1)[4..6]             @19 P sw(0,1)[4..6]             @11 P sw(0,1)[4..6]
 23 @22 P sw(0,1)[6..8]             @19 P sw(0,1)[6..8]             @11 P sw(0,1)[6..8]
 24 @23 P sw(0,1)[8..10]            @19 P sw(0,1)[8..10]            @11 P sw(0,1)[8..10]
 25 @24 P sw(0,1)[10..12]           @19 P sw(0,1)[10..12]           @11 P sw(0,1)[10..12]
 26 @25 P sw(0,1)[12..14]           @19 P sw(0,1)[12..14]           @11 P sw(0,1)[12..14]
 27 @26 P sw(0,1)[14..16]           @19 P sw(0,1)[14..16]           @11 P sw(0,1)[14..16]
 28 @27 G sw(1,1) via sw(1,0).2     @27 G sw(1,1) via sw(1,0).2     @13 G sw(1,1) via sw(1,0).2
 29 @28 P sw(1,1)[0..2]             @28 P sw(1,1)[0..2]             @14 G ep(1,0) via sw(1,0).4
 30 @29 P sw(1,1)[2..4]             @28 P sw(1,1)[2..4]             @20 G sw(1,1) via sw(0,1).0
 31 @30 P sw(1,1)[4..6]             @28 P sw(1,1)[4..6]             @22 G ep(0,1) via sw(0,1).4
 32 @31 P sw(1,1)[6..8]             @28 P sw(1,1)[6..8]             @28 P sw(1,1)[0..2]
 33 @32 P sw(1,1)[8..10]            @28 P sw(1,1)[8..10]            @28 P sw(1,1)[2..4]
 34 @33 P sw(1,1)[10..12]           @28 P sw(1,1)[10..12]           @28 P sw(1,1)[4..6]
 35 @34 P sw(1,1)[12..14]           @28 P sw(1,1)[12..14]           @28 P sw(1,1)[6..8]
 36 @35 P sw(1,1)[14..16]           @28 P sw(1,1)[14..16]           @28 P sw(1,1)[8..10]
 37 @36 G ep(1,0) via sw(1,0).4     @36 G ep(1,0) via sw(1,0).4     @28 P sw(1,1)[10..12]
 38 @37 P ep(1,0)[0..1]             @37 P ep(1,0)[0..1]             @28 P sw(1,1)[12..14]
 39 @38 G sw(1,1) via sw(0,1).0     @38 G sw(1,1) via sw(0,1).0     @28 P sw(1,1)[14..16]
 40 @39 G ep(0,1) via sw(0,1).4     @39 G ep(0,1) via sw(0,1).4     @29 P ep(1,0)[0..1]
 41 @40 P ep(0,1)[0..1]             @40 P ep(0,1)[0..1]             @31 P ep(0,1)[0..1]
 42 @41 G sw(0,1) via sw(1,1).1     @41 G sw(0,1) via sw(1,1).1     @32 G sw(0,1) via sw(1,1).1
 43 @42 G ep(1,1) via sw(1,1).4     @42 G ep(1,1) via sw(1,1).4     @34 G ep(1,1) via sw(1,1).4
 44 @43 P ep(1,1)[0..1]             @43 P ep(1,1)[0..1]             @43 P ep(1,1)[0..1]
";

/// §3's three schedules side by side on the 2x2 mesh, one row per
/// request id, `@n` = issued on the n-th delivery: Serial Packet issues
/// one request per completion, Serial Device bursts a device's port
/// reads and then waits for all of them, Parallel fans out as soon as a
/// response enables it.
#[test]
fn pinned_schedule_on_a_2x2_mesh_reads_like_the_paper() {
    let topo = mesh(2, 2).unwrap().topology;
    let columns: Vec<Vec<String>> = Algorithm::all()
        .into_iter()
        .map(|alg| {
            let (fabric, engine, run) = cold(&topo, alg, false);
            assert_matches_truth(&engine, &topo);
            run.issued.iter().map(|r| render(&fabric, r)).collect()
        })
        .collect();
    let mut actual = format!(
        "{:>3} {:<32}{:<32}{}\n",
        "id", "Serial Packet", "Serial Device", "Parallel"
    );
    for i in 0..columns.iter().map(Vec::len).max().unwrap() {
        let cell = |c: usize| columns[c].get(i).map_or("", String::as_str);
        actual += &format!("{:>3} {:<32}{:<32}{}\n", i + 1, cell(0), cell(1), cell(2));
    }
    assert_pinned(&actual, MESH_2X2);
}

const COLD: &str = "
mesh:3x3 plain Serial Packet: 027fd1ffee03e02d req=105 resp=105 to=0 max=1 retry=0 dup=8 ceded=0 aband=0 stale=0 dev=18
mesh:3x3 plain Serial Device: a8c2a1e91448130f req=105 resp=105 to=0 max=8 retry=0 dup=8 ceded=0 aband=0 stale=0 dev=18
mesh:3x3 plain Parallel: 555bc38fc8dc85b9 req=105 resp=105 to=0 max=26 retry=0 dup=8 ceded=0 aband=0 stale=0 dev=18
mesh:3x3 claims Serial Packet: f4fa4164f8c07c6d req=126 resp=126 to=0 max=1 retry=0 dup=7 ceded=1 aband=0 stale=0 dev=17
mesh:3x3 claims Serial Device: 0ebd5c8a74332721 req=126 resp=126 to=0 max=8 retry=0 dup=7 ceded=1 aband=0 stale=0 dev=17
mesh:3x3 claims Parallel: f7b4e2aae0126bc7 req=126 resp=126 to=0 max=26 retry=0 dup=7 ceded=1 aband=0 stale=0 dev=17
fattree:4,2 plain Serial Packet: 693344eb386cf94b req=38 resp=38 to=0 max=1 retry=0 dup=6 ceded=0 aband=0 stale=0 dev=14
fattree:4,2 plain Serial Device: 03b0612ede249e2a req=38 resp=38 to=0 max=2 retry=0 dup=6 ceded=0 aband=0 stale=0 dev=14
fattree:4,2 plain Parallel: 2261df8f4c15a090 req=38 resp=38 to=0 max=9 retry=0 dup=6 ceded=0 aband=0 stale=0 dev=14
fattree:4,2 claims Serial Packet: 8e6e238c23a045bc req=53 resp=53 to=0 max=1 retry=0 dup=5 ceded=1 aband=0 stale=0 dev=12
fattree:4,2 claims Serial Device: e20d8ddaafbc4699 req=53 resp=53 to=0 max=2 retry=0 dup=5 ceded=1 aband=0 stale=0 dev=12
fattree:4,2 claims Parallel: 4b93b0dae732f365 req=53 resp=53 to=0 max=6 retry=0 dup=5 ceded=1 aband=0 stale=0 dev=12
";

/// Cold discoveries: {3x3 mesh, 4-ary 2-tree} × {claims off, on} × the
/// three algorithms.
#[test]
fn pinned_schedules_cold() {
    let mut actual = String::new();
    for (name, topo) in [
        ("mesh:3x3", mesh(3, 3).unwrap().topology),
        ("fattree:4,2", fat_tree(4, 2).unwrap().topology),
    ] {
        for claims in [false, true] {
            for alg in Algorithm::all() {
                let (_, engine, run) = cold(&topo, alg, claims);
                if !claims {
                    assert_matches_truth(&engine, &topo);
                }
                let claims = if claims { "claims" } else { "plain" };
                actual += &format!("{name} {claims} {alg}: {}\n", summary(&engine, &run));
            }
        }
    }
    assert_pinned(&actual, COLD);
}

/// The node a grid generator labelled `label`.
fn node(topo: &Topology, label: &str) -> NodeId {
    let mut nodes = topo.nodes();
    nodes
        .find(|&(id, _)| topo.label(id) == label)
        .expect("label")
        .0
}

/// The database of a fully discovered 3x3 mesh that has since lost its
/// far corner (`sw(2,2)` and the endpoint behind it), plus the DSNs of
/// the corner's neighbours `sw(1,2)` (east port 0) and `sw(2,1)`.
fn warm_db(topo: &Topology) -> (asi_core::TopologyDb, u64, u64) {
    let (_, engine, _) = cold(topo, Algorithm::Parallel, false);
    let dsn = |label: &str| dsn_of(node(topo, label));
    let mut db = engine.db;
    assert!(db.remove_device(dsn("sw(2,2)")) && db.remove_device(dsn("ep(2,2)")));
    (db, dsn("sw(1,2)"), dsn("sw(2,1)"))
}

const SEEDED_AND_VERIFY: &str = "
seeded Serial Packet: 68270ebdca14057d req=34 resp=34 to=0 max=16 retry=0 dup=7 ceded=0 aband=0 stale=0 dev=18
verify Serial Packet: 3f5479912e3c5167 req=38 resp=38 to=0 max=23 retry=0 dup=4 ceded=0 aband=0 stale=0 dev=18
seeded Serial Device: e72c9a3ccf96704e req=34 resp=34 to=0 max=16 retry=0 dup=7 ceded=0 aband=0 stale=0 dev=18
verify Serial Device: 545eb28c4abed98d req=38 resp=38 to=0 max=23 retry=0 dup=4 ceded=0 aband=0 stale=0 dev=18
seeded Parallel: 9cde165d76ca8753 req=34 resp=34 to=0 max=17 retry=0 dup=7 ceded=0 aband=0 stale=0 dev=18
verify Parallel: 26cee3b3944b8ce1 req=38 resp=38 to=0 max=24 retry=0 dup=4 ceded=0 aband=0 stale=0 dev=18
";

/// A partial region and a verifying one: the refresh re-reads never
/// wait, and go out in DSN order whatever order the region lists them
/// in; the probes and what they discover follow the algorithm.
#[test]
fn pinned_schedules_seeded_and_verify() {
    let topo = mesh(3, 3).unwrap().topology;
    let mut actual = String::new();
    for alg in Algorithm::all() {
        // Two re-reads, listed out of DSN order, and one probe that
        // re-discovers the lost corner.
        let (db, sw12, sw21) = warm_db(&topo);
        let mut fabric = MockFabric::new(&topo);
        let mut first = Vec::new();
        let region = Region {
            reread: vec![sw12, sw21],
            probe_via: vec![(sw12, 0)],
            ..Region::default()
        };
        let mut engine = Engine::reconcile(cfg(alg, false), db, region, &mut first);
        let run = deliver(&mut engine, &mut fabric, first, None, |_, _| false);
        assert_matches_truth(&engine, &topo);
        actual += &format!("seeded {alg}: {}\n", summary(&engine, &run));

        // One live probe; one pair whose cached port is down, which
        // falls back to a re-read of its reporter.
        let (db, sw12, sw21) = warm_db(&topo);
        let mut first = Vec::new();
        let region = Region {
            verify: db.devices().map(|d| d.info.dsn).collect(),
            probe_via: vec![(sw12, 0), (sw21, 7)],
            ..Region::default()
        };
        let mut engine = Engine::reconcile(cfg(alg, false), db, region, &mut first);
        let run = deliver(&mut engine, &mut fabric, first, None, |_, _| false);
        assert_matches_truth(&engine, &topo);
        assert_eq!(engine.verified().len(), topo.node_count() - 3);
        actual += &format!("verify {alg}: {}\n", summary(&engine, &run));
    }
    assert_pinned(&actual, SEEDED_AND_VERIFY);
}

const LOSSY: &str = "
Serial Packet: 324b98171b5f3e54 req=100 resp=92 to=8 max=1 retry=4 dup=2 ceded=0 aband=4 stale=0 dev=16
Serial Device: e15a822f32b74094 req=129 resp=123 to=6 max=8 retry=3 dup=9 ceded=0 aband=3 stale=0 dev=17
Parallel: 5db9658e545cf9c5 req=117 resp=113 to=4 max=26 retry=2 dup=7 ceded=0 aband=2 stale=0 dev=17
";

/// The centre switch of a 3x3 mesh never answers its first port read:
/// timeout → one retry → abandon → forget, every time a probe finds it
/// again — with its other port reads still waiting (Serial Packet),
/// in flight (Serial Device) or long issued (Parallel).
///
/// It also guards the waiting probes' queued routes. A waiting probe is
/// a device and a port, its route built at issue from the via device's;
/// a forget must first give every waiting probe the route it was queued
/// with. Skipping a probe whose via device was forgotten instead moves
/// the Serial Device row (17 → 16 devices, 6 → 8 timeouts).
#[test]
fn pinned_schedules_with_a_switch_that_drops_its_first_port_read() {
    let topo = mesh(3, 3).unwrap().topology;
    let mut actual = String::new();
    for alg in Algorithm::all() {
        let mut fabric = MockFabric::new(&topo);
        let victim = node(&topo, "sw(1,1)");
        let mut cfg = cfg(alg, false);
        cfg.retry = RetryPolicy::exponential(1);
        let (mut engine, first) = start(&fabric, cfg);
        let run = deliver(&mut engine, &mut fabric, first, None, |fabric, req| {
            let first_block = CapabilityAddr::baseline(GENERAL_INFO_WORDS);
            matches!(req.op, OutOp::Read { addr, .. } if addr == first_block)
                && fabric.walk(req).is_some_and(|(_, target)| target == victim)
        });
        assert!(!engine.db.contains(dsn_of(victim)));
        actual += &format!("{alg}: {}\n", summary(&engine, &run));
    }
    assert_pinned(&actual, LOSSY);
}

/// Every non-host device's stored route, by DSN.
fn stored_routes(db: &TopologyDb) -> BTreeMap<u64, DeviceRoute> {
    let host = db.host_dsn();
    let routes = db.devices().filter(|d| d.info.dsn != host);
    routes.map(|d| (d.info.dsn, d.route.clone())).collect()
}

/// A probe through the FM's own endpoint follows the one rule a cold
/// start follows: egress on that port, no switch hop yet. The host's
/// switch is removed and everything behind it pruned; a seeded run that
/// probes through host port 0 re-discovers the fabric and stores the
/// cold run's routes, which are the host's BFS routes.
#[test]
fn a_probe_through_the_host_port_stores_the_cold_routes() {
    let topo = mesh(3, 3).unwrap().topology;
    for alg in Algorithm::all() {
        let (mut fabric, cold, _) = cold(&topo, alg, false);
        let host = cold.db.host_dsn();
        let from_host: BTreeMap<u64, DeviceRoute> = cold
            .db
            .routes_from(host, asi_proto::MAX_POOL_BITS)
            .into_iter()
            .map(|(dsn, route)| (dsn, route.expect("pool fits")))
            .collect();
        assert_eq!(stored_routes(&cold.db), from_host, "{alg}: cold");

        let mut db = cold.db.clone();
        let (switch, _) = db.neighbor(host, 0).expect("the host is cabled");
        assert!(db.remove_device(switch));
        assert_eq!(db.prune_unreachable().len(), topo.node_count() - 2);
        let mut first = Vec::new();
        let region = Region {
            probe_via: vec![(host, 0)],
            ..Region::default()
        };
        let mut seeded = Engine::reconcile(cfg(alg, false), db, region, &mut first);
        deliver(&mut seeded, &mut fabric, first, None, |_, _| false);
        assert_matches_truth(&seeded, &topo);
        assert_eq!(stored_routes(&seeded.db), from_host, "{alg}: seeded");
    }
}

/// The digest of an issue order: each request's `(req_id, egress, pool
/// words, pool bits, op)`, but not the delivery that issued it.
fn order_digest(issued: &[(u64, OutRequest)]) -> u64 {
    let order: Vec<_> = issued
        .iter()
        .map(|(_, r)| (r.req_id, r.egress, r.pool.words(), r.pool.len_bits(), &r.op))
        .collect();
    fnv1a(&format!("{order:?}"))
}

/// Parallel's flood on two fabrics that fan out past the request window,
/// with FIFO completions. The digests were recorded before the window
/// existed, when up to 2,542 and 1,254 requests were outstanding: held to
/// [`REQUEST_WINDOW`], the run still issues the same requests, to the
/// same routes, under the same ids.
#[test]
fn request_window_keeps_the_floods_order() {
    for (topo, requests, order) in [
        (
            fat_tree(16, 3).unwrap().topology,
            8_384,
            0x2002_9b77_d391_c985,
        ),
        (
            dragonfly(4, 6).unwrap().topology,
            4_104,
            0x7a67_9f30_cdf5_e616,
        ),
    ] {
        let (_, engine, run) = cold(&topo, Algorithm::Parallel, false);
        assert_matches_truth(&engine, &topo);
        assert_eq!(run.issued.len(), requests);
        assert_eq!(engine.stats().max_outstanding, REQUEST_WINDOW);
        assert_eq!(order_digest(&run.issued), order);
    }
}

/// Where probes wait, a new device's port reads still jump the queue:
/// they follow the probe that found the device at once, ahead of every
/// probe already waiting.
#[test]
fn serial_port_reads_jump_the_queue() {
    let topo = mesh(4, 4).unwrap().topology;
    for alg in [Algorithm::SerialPacket, Algorithm::SerialDevice] {
        let (fabric, engine, run) = cold(&topo, alg, false);
        assert_matches_truth(&engine, &topo);
        let mut found = BTreeSet::new();
        // The device whose port reads may come next.
        let mut exploring = None;
        for (step, req) in &run.issued {
            let (_, target) = fabric.walk(req).expect("routes on the fabric");
            let port_read = matches!(req.op, OutOp::Read { addr, .. } if addr.offset != 0);
            if port_read {
                assert_eq!(
                    exploring,
                    Some(target),
                    "{alg}: @{step} read behind a probe"
                );
            } else {
                exploring = found.insert(target).then_some(target);
            }
        }
    }
}
