//! Pins the steady-state allocation behaviour of the single-run engine.
//!
//! Once the pre-sized structures (event queue, per-core run
//! queues, sample reservoirs) reach capacity, the hot loop performs no
//! per-event heap allocation: every request flows through `Copy` queue
//! slots, fixed-slot residency accumulators, and reservoirs sized off
//! the offered load at the warm-up boundary. A counting global
//! allocator checks the property the way a reviewer would: quadrupling
//! the simulated duration (≈4× the events) must not meaningfully grow
//! the allocation count, i.e. allocations are O(1)-ish in run length,
//! not O(events).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use aw_server::{ServerConfig, SimBuilder, WorkloadSpec};
use aw_types::Nanos;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocation count and completed requests for one run of `millis`
/// simulated milliseconds.
fn run_and_count(millis: f64) -> (u64, u64) {
    let config =
        ServerConfig::new(4, aw_cstates::NamedConfig::Aw).with_duration(Nanos::from_millis(millis));
    let workload = WorkloadSpec::poisson("alloc-pin", 200_000.0, Nanos::from_micros(3.0), 0.8);
    let builder = SimBuilder::new(config, workload, 42);
    let before = ALLOCS.load(Ordering::Relaxed);
    let metrics = builder.run().into_metrics();
    (ALLOCS.load(Ordering::Relaxed) - before, metrics.completed)
}

#[test]
fn steady_state_allocations_are_flat_in_run_length() {
    // Warm up lazily initialised library state (thread-locals, stdio)
    // so it doesn't pollute the measured counts.
    let _ = run_and_count(5.0);

    let (short_allocs, short_completed) = run_and_count(50.0);
    let (long_allocs, long_completed) = run_and_count(200.0);
    let extra_events = (long_completed - short_completed).max(1);

    // The long run serves ~4x the requests. If the hot path allocated
    // even once per request, `long - short` would be ~3x the completed
    // delta; flat means the difference is set-up noise (a few doubling
    // steps in growing structures).
    let extra_allocs = long_allocs.saturating_sub(short_allocs);
    assert!(
        extra_allocs < 256 && extra_allocs < extra_events / 64,
        "steady-state loop allocates: {short_allocs} allocs for {short_completed} requests vs \
         {long_allocs} for {long_completed} ({extra_allocs} extra allocs, {extra_events} extra \
         requests)"
    );
}
