//! Pins the fleet's memory shape: a loaded server-epoch is reduced to its
//! census record by the worker that simulated it, and the census counts
//! it as soon as it is next in server order. So the heap's high-water
//! mark, less the run-long latency buffer that exact fleet quantiles
//! need, does not grow with the number of loaded servers per epoch. A
//! global allocator that tracks live bytes measures it.
//!
//! One test function: the allocator and the executor's job count are
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use aw_cluster::{FleetConfig, FleetSim, RoutingPolicy};
use aw_cstates::NamedConfig;
use aw_server::{ServerConfig, WorkloadSpec};
use aw_types::Nanos;

struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match new_size.checked_sub(layout.size()) {
            Some(more) => grow(more),
            None => _ = LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed),
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static HEAP: LiveBytes = LiveBytes;

/// Runs a packed fleet of `servers` at the same load per server and
/// returns the heap high-water mark it added, less an upper bound on the
/// run-long latency buffer, and its loaded server-epochs.
fn peak_beyond_latency_buffer(servers: usize) -> (usize, u64) {
    let workload = WorkloadSpec::poisson("synthetic", 1_000.0, Nanos::from_micros(250.0), 0.6);
    let config = FleetConfig::new(
        servers,
        ServerConfig::new(4, NamedConfig::NtAw),
        workload,
        4_000.0 * servers as f64,
    )
    .with_policy(RoutingPolicy::Packing)
    .with_epochs(2, Nanos::from_millis(50.0));
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let report = FleetSim::new(config).run();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    // The buffer grows by doubling, so its capacity never exceeds twice
    // its final length of `f64` samples.
    let buffer = 2 * std::mem::size_of::<f64>() * report.latency.count as usize;
    (peak.saturating_sub(buffer), report.counters["fleet.server_epochs.loaded"])
}

/// What each server adds to the heap whether loaded or not: its slot
/// (configuration and closed-form idle power) and its entries in every
/// epoch's routing, scaling and health plan.
const PER_SERVER_ALLOWANCE: usize = 1024;

#[test]
fn fleet_peak_heap_does_not_grow_with_loaded_servers_per_epoch() {
    aw_exec::set_default_jobs(1);
    let (small, small_loaded) = peak_beyond_latency_buffer(16);
    let (large, large_loaded) = peak_beyond_latency_buffer(64);
    aw_exec::set_default_jobs(0);
    assert!(
        large_loaded >= 3 * small_loaded,
        "{small_loaded} vs {large_loaded} loaded server-epochs"
    );
    // Holding each loaded server-epoch's run until the census would add
    // ~40 KiB per loaded server per epoch here: its idle log and samples.
    assert!(
        large <= small + PER_SERVER_ALLOWANCE * (64 - 16),
        "peak beyond the latency buffer grew from {small} B ({small_loaded} loaded \
         server-epochs) to {large} B ({large_loaded})"
    );
}
