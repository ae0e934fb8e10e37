//! Pins the steady-state allocation behaviour and the peak memory of the
//! single-run engine.
//!
//! Once the pre-sized structures (event queue, per-core run queues, the
//! latency reservoir) reach capacity, the hot loop performs no
//! per-event heap allocation: every request flows through `Copy` queue
//! slots, fixed-slot residency accumulators, running sums for the
//! transition, queue and service phases, and one latency reservoir
//! sized off the offered load at the warm-up boundary. A counting
//! global allocator checks the property the way a reviewer would:
//! quadrupling the simulated duration (≈4× the events) must not
//! meaningfully grow the allocation count, i.e. allocations are
//! O(1)-ish in run length, not O(events). The same allocator tracks
//! live and peak bytes, so a heavy run must peak at about that one
//! reservoir.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use aw_server::{ServerConfig, SimBuilder, WorkloadSpec};
use aw_types::Nanos;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The counters are process-wide, and the test harness runs tests on
/// parallel threads: each test holds this lock while it measures.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]. It guards no data, and each test resets what it
/// reads, so a lock poisoned by another test's failed assertion is
/// taken as is rather than failing this test too.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // Old and new block are both live while the data moves.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
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
    let _serial = serial();
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

/// A plain heavy run (10 cores, 600k QPS, 250 ms) holds one latency
/// reservoir of `offered load × duration` samples, 8 B each, and little
/// else: its peak stays below 1.25 reservoirs plus a small constant, so
/// a second reservoir-sized buffer (such as a sample set for one of the
/// mean-only latency phases) fails it.
#[test]
fn peak_memory_is_one_latency_reservoir() {
    let _serial = serial();
    let run = || {
        let config = ServerConfig::new(10, aw_cstates::NamedConfig::Aw)
            .with_duration(Nanos::from_millis(250.0));
        let workload = WorkloadSpec::poisson("peak-pin", 600_000.0, Nanos::from_micros(3.0), 0.8);
        SimBuilder::new(config, workload, 42).run().into_metrics()
    };
    let _ = run();

    let reservoir = 600_000.0 * 0.25 * 8.0;
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let metrics = run();
    let peak = (PEAK.load(Ordering::Relaxed) - base) as f64;
    assert!(metrics.completed > 100_000, "only {} completions", metrics.completed);
    assert!(
        peak < 1.25 * reservoir + 64.0 * 1024.0,
        "run peaked at {:.0} KiB over a {:.0} KiB reservoir",
        peak / 1024.0,
        reservoir / 1024.0
    );
}
