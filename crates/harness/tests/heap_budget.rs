//! The heap budget: how many bytes per device the fabric and the
//! manager hold at their two peaks, bring-up and the end of the initial
//! discovery, the second also under background data traffic; how much of
//! it is the topology database; what the manager's PI-5 configuration
//! peaks at and leaves behind; and how many allocations a discovery
//! makes per request.
//!
//! A counting global allocator (this test binary's own) tracks the bytes
//! requested on the test's thread while a measurement runs: the live
//! total, its high-water mark and the number of allocations. Each figure
//! is pinned per device (or per request), about 10% above what the code
//! measures today, so a change that grows a per-device record or a
//! transient, or allocates per request, fails here long before the
//! benchmark's `peak_rss_mb` notices. The measured figures are printed
//! with `--nocapture`.

use asi_core::{Algorithm, FmAgent, FmConfig, TOKEN_CONFIGURE_MCAST, TOKEN_START_DISCOVERY};
use asi_fabric::{DevId, Fabric, FabricConfig, TrafficPlan};
use asi_harness::{Bench, Scenario};
use asi_sim::SimDuration;
use asi_topo::Topology;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Constant-initialised and without destructors, so reading them from
    // inside the allocator neither allocates nor registers anything.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator, counting this thread's bytes while
/// [`measure`] runs.
struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One allocation (or reallocation) of `bytes` more than before.
fn allocated(bytes: i64) {
    if COUNTING.get() {
        ALLOCS.set(ALLOCS.get() + 1);
    }
    grow(bytes);
}

fn grow(bytes: i64) {
    if COUNTING.get() {
        let live = LIVE.get() + bytes;
        LIVE.set(live);
        PEAK.set(PEAK.get().max(live));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size() as i64);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        allocated(layout.size() as i64);
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocated(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's obligations are exactly `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: the caller's obligations are exactly `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// What a measured call did to the heap, in bytes requested.
struct Heap {
    /// The high-water mark above the live total at the start.
    peak: i64,
    /// The live total at the end, above the one at the start.
    live: i64,
    /// Allocations and reallocations made.
    allocs: u64,
}

/// Runs `f` with this thread's allocations counted.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    LIVE.set(0);
    PEAK.set(0);
    ALLOCS.set(0);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    let heap = Heap {
        peak: PEAK.get(),
        live: LIVE.get(),
        allocs: ALLOCS.get(),
    };
    (out, heap)
}

/// Fails unless `bytes` is within `budget` bytes per device of `topo`.
fn within(what: &str, bytes: i64, topo: &Topology, budget: i64) {
    let devices = topo.node_count() as i64;
    let per_device = bytes / devices;
    println!("{what}: {bytes} B, {per_device} B per device (budget {budget})");
    assert!(
        per_device <= budget,
        "{what}: {per_device} B per device over the budget of {budget} ({bytes} B in all)"
    );
}

/// The fabric built and brought up, nothing else: the devices and their
/// ports, and at the peak one entry per link on the training FIFO (8
/// bytes each), with two events in the kernel, one activation run and
/// one training batch.
fn bring_up(topo: &Topology) -> Heap {
    let (fabric, heap) = measure(|| {
        let mut fabric = Fabric::new(topo, FabricConfig::default());
        fabric.activate_all(SimDuration::ZERO);
        fabric.run_until_idle();
        fabric
    });
    drop(fabric);
    heap
}

/// `Bench::start`: bring-up and the initial discovery, whose tail holds
/// the waiting queue beside a nearly full database.
fn start(topo: &Topology, scenario: Scenario) -> Heap {
    let (bench, heap) = measure(|| Bench::start(topo, &scenario, &[]));
    drop(bench);
    heap
}

fn dragonfly_4_8() -> Topology {
    asi_topo::dragonfly(4, 8).unwrap().topology
}

fn mesh_16() -> Topology {
    asi_topo::mesh(16, 16).unwrap().topology
}

#[test]
fn bring_up_peak_per_device() {
    let topo = dragonfly_4_8();
    within(
        "dragonfly:4,8 bring-up peak",
        bring_up(&topo).peak,
        &topo,
        305,
    );
    let topo = mesh_16();
    within("mesh:16x16 bring-up peak", bring_up(&topo).peak, &topo, 585);
}

#[test]
fn discovery_peak_per_device() {
    let topo = dragonfly_4_8();
    within(
        "dragonfly:4,8 Bench::start peak",
        start(&topo, Scenario::new(Algorithm::Parallel)).peak,
        &topo,
        800,
    );
    let topo = mesh_16();
    within(
        "mesh:16x16 Bench::start peak",
        start(&topo, Scenario::new(Algorithm::Parallel)).peak,
        &topo,
        1_100,
    );
}

/// `Bench::start` under the benchmark's background traffic (the shape of
/// `traffic --load 0.4`, over a 2 ms window): beside the discovery's own
/// bytes and the latencies of the delivered packets, the peak holds the
/// queued data packets, a 16-byte queue entry and a 16-byte flow-slab
/// slot each (7,684 B per device when they were 24 and 24 bytes and a
/// 4-byte free-stack entry).
#[test]
fn loaded_discovery_peak_per_device() {
    let topo = asi_topo::mesh(8, 8).unwrap().topology;
    let traffic = TrafficPlan::none()
        .with_unicast(0.4, 512)
        .with_window(SimDuration::ZERO, SimDuration::from_ms(2));
    let scenario = Scenario::new(Algorithm::Parallel).with_traffic_plan(traffic);
    within(
        "mesh:8x8 Bench::start peak under 0.4 load",
        start(&topo, scenario).peak,
        &topo,
        6_800,
    );
}

/// The manager's PI-5 configuration writes every device's reporting
/// route; what stays live once they drain is the routes the devices hold
/// and the manager's record of them, not the burst. A burst as large
/// runs first, one multicast group over every endpoint, so the buffers
/// that any first burst grows, the timing wheel's among them, are not
/// counted as the configuration's.
#[test]
fn pi5_configuration_leaves_little_live() {
    let topo = asi_topo::torus(16, 16).unwrap().topology;
    let mut bench = Bench::start(&topo, &Scenario::new(Algorithm::Parallel), &[]);
    let endpoints = bench.db().endpoints();
    let fm = bench.fabric.agent_as_mut::<FmAgent>(bench.fm).unwrap();
    fm.queue_multicast(1, endpoints);
    let warm = SimDuration::from_us(1);
    (bench.fabric).schedule_agent_timer(bench.fm, warm, TOKEN_CONFIGURE_MCAST);
    while !bench.fm_agent().mcast_settled() {
        assert!(bench.fabric.step(), "the multicast writes drain");
    }
    assert_eq!(bench.fm_agent().mcast_configured, [1]);
    let ((), heap) = measure(|| bench.configure_pi5_routes());
    within(
        "torus:16x16 configure_pi5_routes live",
        heap.live,
        &topo,
        74,
    );
}

/// The topology database a finished discovery holds — records, link
/// rows, the DSN index — measured as the bytes its `clone()` allocates
/// (a `Vec`'s clone holds no spare capacity, so this is the records' own
/// size, not how the vectors grew).
#[test]
fn database_bytes_per_device() {
    for (name, topo, budget) in [
        ("dragonfly:4,8", dragonfly_4_8(), 160),
        ("mesh:16x16", mesh_16(), 215),
    ] {
        let bench = Bench::start(&topo, &Scenario::new(Algorithm::Parallel), &[]);
        let (db, heap) = measure(|| bench.db().clone());
        assert_eq!(db.device_count(), topo.node_count());
        within(&format!("{name} database"), heap.live, &topo, budget);
    }
}

/// The first PI-5 configuration's transient: 1,663 reporting-route
/// writes, of which the manager keeps at most `REQUEST_WINDOW` (1,024)
/// in flight and the rest waiting in its request table.
#[test]
fn pi5_configuration_peak_per_device() {
    let topo = dragonfly_4_8();
    let mut bench = Bench::start(&topo, &Scenario::new(Algorithm::Parallel), &[]);
    let ((), heap) = measure(|| bench.configure_pi5_routes());
    within(
        "dragonfly:4,8 configure_pi5_routes peak",
        heap.peak,
        &topo,
        545,
    );
}

/// Allocations per request of a loss-free Parallel discovery of
/// `dragonfly:4,8`, the fabric built and brought up beforehand, as the
/// benchmark's `host.alloc_count_run` counts them: what the manager's
/// tables take as they grow, and nothing per request once they have (a
/// completion carries its data words inline; a timer ledger reuses its
/// buffers): 0.083 (484 for 5,856 requests), against 1.076 when every
/// read completion allocated its words.
#[test]
fn discovery_allocations_per_request() {
    let topo = dragonfly_4_8();
    let mut fabric = Fabric::new(&topo, FabricConfig::default());
    fabric.activate_all(SimDuration::ZERO);
    fabric.run_until_idle();
    let fm = DevId(asi_topo::default_fm_endpoint(&topo).unwrap().0);
    let timeout = SimDuration::from_ms(5) * (topo.node_count() as u64).div_ceil(128);
    let config = FmConfig::new(Algorithm::Parallel).with_request_timeout(timeout);
    fabric.set_agent(fm, Box::new(FmAgent::new(config)));
    fabric.schedule_agent_timer(fm, SimDuration::from_us(1), TOKEN_START_DISCOVERY);
    let ((), heap) = measure(|| fabric.run_until_idle());
    let run = *fabric.agent_as::<FmAgent>(fm).unwrap().last_run().unwrap();
    assert_eq!(run.timeouts, 0);
    let per_request = heap.allocs as f64 / run.requests_sent as f64;
    let budget = 0.09;
    println!(
        "dragonfly:4,8 discovery: {} allocations, {per_request:.4} per request \
         (budget {budget}; {} requests)",
        heap.allocs, run.requests_sent
    );
    assert!(
        per_request <= budget,
        "{per_request:.4} allocations per request over the budget of {budget}"
    );
}
