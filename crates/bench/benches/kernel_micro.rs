//! Microbenchmarks of the simulation kernel itself: event-queue
//! throughput, RNG/distribution sampling, and the online statistics the
//! hot simulation loop leans on.
//!
//! The bench binary also *asserts* the zero-allocation property the
//! numbers depend on: once warm, the steady-state schedule/pop loop
//! must not touch the allocator (see [`assert_steady_state_zero_alloc`]).
//! A regression there would otherwise show up only as a quiet slowdown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use agilewatts::aw_sim::{
    Distribution, EventQueue, Exponential, LogNormal, OnlineStats, P2Quantile, SampleSet, SimRng,
};
use agilewatts::aw_types::Nanos;
use criterion::{criterion_group, criterion_main, Criterion};

/// Forwards to the system allocator while counting calls, so the bench
/// can pin "the hot loop does not allocate" as an assertion, not a hope.
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

/// Runs the steady-state schedule/pop loop (the shape of the simulator's
/// hot path) for 100k operations after a warm-up lap and asserts the
/// allocator was untouched: a pre-sized heap never reallocates.
fn assert_steady_state_zero_alloc() {
    let mut rng = SimRng::seed(6);
    let mut q = EventQueue::with_capacity(64 * 4 + 16);
    for i in 0..64u32 {
        q.schedule(Nanos::new(rng.uniform() * 1e6), i);
    }
    let mut t = 1e6;
    let mut lap = |q: &mut EventQueue<u32>, rng: &mut SimRng| {
        for _ in 0..100_000 {
            let (when, e) = q.pop().expect("queue never drains");
            t = when.as_nanos().max(t) + rng.uniform() * 1e3;
            q.schedule(Nanos::new(t), e);
        }
    };
    lap(&mut q, &mut rng); // warm: settle capacities
    let before = ALLOCS.load(Ordering::Relaxed);
    lap(&mut q, &mut rng);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        allocs == 0,
        "steady-state queue loop allocated {allocs} times in 100k ops — the \
         zero-allocation hot path regressed"
    );
    eprintln!("steady-state zero-alloc check: OK ({allocs} allocs / 100k ops)");
}

fn bench(c: &mut Criterion) {
    assert_steady_state_zero_alloc();
    c.bench_function("event_queue_push_pop_1k", |b| {
        let mut rng = SimRng::seed(1);
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1_000u32 {
                q.schedule(Nanos::new(rng.uniform() * 1e6), i);
            }
            let mut last = 0u32;
            while let Some((_, e)) = q.pop() {
                last = e;
            }
            std::hint::black_box(last)
        })
    });

    // The same schedule/pop storm against a pre-sized heap — the shape
    // `ServerSim::new` uses (capacity ∝ core count) to keep the queue
    // from reallocating mid-simulation.
    c.bench_function("event_queue_push_pop_1k_presized", |b| {
        let mut rng = SimRng::seed(1);
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1_000);
            for i in 0..1_000u32 {
                q.schedule(Nanos::new(rng.uniform() * 1e6), i);
            }
            let mut last = 0u32;
            while let Some((_, e)) = q.pop() {
                last = e;
            }
            std::hint::black_box(last)
        })
    });

    // Steady-state interleaved schedule/pop at simulator-like depth: the
    // queue holds ~one event per core plus timers, never the whole run.
    c.bench_function("event_queue_steady_state_depth_64", |b| {
        let mut rng = SimRng::seed(6);
        let mut q = EventQueue::with_capacity(64 * 4 + 16);
        for i in 0..64u32 {
            q.schedule(Nanos::new(rng.uniform() * 1e6), i);
        }
        let mut t = 1e6;
        b.iter(|| {
            let (when, e) = q.pop().expect("queue never drains");
            t = when.as_nanos().max(t) + rng.uniform() * 1e3;
            q.schedule(Nanos::new(t), e);
            std::hint::black_box(e)
        })
    });

    c.bench_function("exponential_sample", |b| {
        let d = Exponential::with_mean(1_000.0);
        let mut rng = SimRng::seed(2);
        b.iter(|| std::hint::black_box(d.sample(&mut rng)))
    });

    c.bench_function("lognormal_sample", |b| {
        let d = LogNormal::from_median(1_000.0, 0.4);
        let mut rng = SimRng::seed(3);
        b.iter(|| std::hint::black_box(d.sample(&mut rng)))
    });

    c.bench_function("online_stats_record", |b| {
        let mut s = OnlineStats::new();
        let mut x = 0.0f64;
        b.iter(|| {
            x += 1.0;
            s.record(x);
            std::hint::black_box(s.mean())
        })
    });

    c.bench_function("p2_quantile_record", |b| {
        let mut p = P2Quantile::new(0.99);
        let mut rng = SimRng::seed(4);
        b.iter(|| {
            p.record(rng.uniform());
            std::hint::black_box(p.estimate())
        })
    });

    c.bench_function("exact_percentile_10k", |b| {
        let mut rng = SimRng::seed(5);
        let mut s = SampleSet::new();
        for _ in 0..10_000 {
            s.record(rng.uniform());
        }
        b.iter_batched(
            || s.clone(),
            |mut s| std::hint::black_box(s.percentile(0.99)),
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
