//! Pins the zero-allocation property of the event queue's hot loop:
//! once warm, a pre-sized queue's steady-state pop/peek/schedule loop
//! (the shape of the simulator's hot path) never touches the allocator. A
//! counting global allocator checks it, so a regression fails here
//! instead of showing up only as a quiet slowdown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use aw_sim::{EventQueue, SimRng};
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

/// Schedules after each pop of the steady-state loop: every path (a
/// pop that leaves its root for a schedule to overwrite, one that the
/// next pop removes, and a schedule that pushes) in a cycle that keeps
/// the depth level.
const SCHEDULES_PER_POP: [usize; 6] = [2, 0, 1, 1, 0, 2];

/// 100k steady-state pops, each followed by a `peek_time` and 0, 1 or 2
/// schedules, after a warm-up lap make no allocation: a pre-sized heap
/// never reallocates.
#[test]
fn steady_state_queue_loop_makes_no_allocation() {
    let mut rng = SimRng::seed(6);
    let mut q = EventQueue::with_capacity(64 * 4 + 16);
    for i in 0..64u32 {
        q.schedule(Nanos::new(rng.uniform() * 1e6), i);
    }
    let mut t = 1e6;
    let mut lap = |q: &mut EventQueue<u32>, rng: &mut SimRng| {
        for i in 0..100_000 {
            let (when, e) = q.pop().expect("queue never drains");
            black_box(q.peek_time());
            for _ in 0..SCHEDULES_PER_POP[i % SCHEDULES_PER_POP.len()] {
                t = when.as_nanos().max(t) + rng.uniform() * 1e3;
                q.schedule(Nanos::new(t), e);
            }
        }
    };
    lap(&mut q, &mut rng); // warm: settle capacities
    let before = ALLOCS.load(Ordering::Relaxed);
    lap(&mut q, &mut rng);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(allocs, 0, "steady-state queue loop allocated {allocs} times in 100k pops");
    assert_eq!(q.len(), 64, "the schedule cycle keeps the depth level");
}
