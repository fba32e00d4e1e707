//! The heap budget: how many bytes per device the fabric and the
//! manager hold at their two peaks, bring-up and the end of the initial
//! discovery; how much of the second is the topology database; and what
//! the manager's PI-5 configuration peaks at and leaves behind.
//!
//! A counting global allocator (this test binary's own) tracks the bytes
//! requested on the test's thread while a measurement runs: the live
//! total and its high-water mark. Each figure is pinned per device, about
//! 10% above what the code measures today, so a change that grows a
//! per-device record or a transient fails here long before the
//! benchmark's `peak_rss_mb` notices. The measured figures are printed
//! with `--nocapture`.

use asi_core::Algorithm;
use asi_fabric::{Fabric, FabricConfig};
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
}

/// Forwards to the system allocator, counting this thread's bytes while
/// [`measure`] runs.
struct CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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
        grow(layout.size() as i64);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
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
}

/// Runs `f` with this thread's allocations counted.
fn measure<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    LIVE.set(0);
    PEAK.set(0);
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    let heap = Heap {
        peak: PEAK.get(),
        live: LIVE.get(),
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

/// The fabric built and brought up, nothing else: its peak is the
/// training burst in the kernel on top of the devices and ports.
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

/// `Bench::start` under Parallel: bring-up and the initial discovery,
/// whose tail holds the waiting queue beside a nearly full database.
fn start(topo: &Topology) -> Heap {
    let scenario = Scenario::new(Algorithm::Parallel);
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
        530,
    );
    let topo = mesh_16();
    within("mesh:16x16 bring-up peak", bring_up(&topo).peak, &topo, 770);
}

#[test]
fn discovery_peak_per_device() {
    let topo = dragonfly_4_8();
    within(
        "dragonfly:4,8 Bench::start peak",
        start(&topo).peak,
        &topo,
        800,
    );
    let topo = mesh_16();
    within(
        "mesh:16x16 Bench::start peak",
        start(&topo).peak,
        &topo,
        1_100,
    );
}

/// The manager's PI-5 configuration writes every device's reporting
/// route at once; what stays live once they drain is the routes the
/// devices hold and the manager's record of them, not the burst.
#[test]
fn pi5_configuration_leaves_little_live() {
    let topo = asi_topo::torus(16, 16).unwrap().topology;
    let mut bench = Bench::start(&topo, &Scenario::new(Algorithm::Parallel), &[]);
    let ((), heap) = measure(|| bench.configure_pi5_routes());
    within(
        "torus:16x16 configure_pi5_routes live",
        heap.live,
        &topo,
        100,
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

/// The first PI-5 configuration's transient: the manager injects every
/// device's reporting-route write at once, with no window, so its peak
/// grows with the fabric. This pins the burst's figure; a windowed
/// writer shows up here as a drop.
#[test]
fn pi5_configuration_peak_per_device() {
    let topo = dragonfly_4_8();
    let mut bench = Bench::start(&topo, &Scenario::new(Algorithm::Parallel), &[]);
    let ((), heap) = measure(|| bench.configure_pi5_routes());
    within(
        "dragonfly:4,8 configure_pi5_routes peak",
        heap.peak,
        &topo,
        680,
    );
}
