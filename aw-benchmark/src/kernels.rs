//! Layer kernels: each layer's public hot-path function timed alone at
//! a run's shape, and the operation counts that turn those costs into
//! an estimate of the layer's share of the run (`<layer>.est_s`).

use std::hint::black_box;
use std::time::Instant;

use agilewatts::aw_cstates::CState;
use agilewatts::aw_server::{GovernorKind, ServerConfig, SimBuilder};
use agilewatts::aw_sim::{
    Distribution, EventQueue, Exponential, ResidencyTracker, SampleSet, SimRng,
};
use agilewatts::aw_types::Nanos;
use agilewatts::aw_workloads::memcached_etc;

use crate::workload::{RunRecord, RunShape};

/// Per-operation host cost of each layer kernel at one run shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    /// One run's fixed cost: its configuration and `SimBuilder`, and a
    /// run over a 1 µs horizon, in which no request completes.
    pub run_fixed_s: f64,
    /// One steady-state `EventQueue` pop + schedule pair.
    pub queue_ns: f64,
    /// One `WorkloadSpec` draw (inter-arrival gap or service time).
    pub draw_ns: f64,
    /// One governor `select` + `observe_idle` round.
    pub select_ns: f64,
    /// One `ResidencyTracker::transition` call.
    pub residency_ns: f64,
    /// One `SampleSet::record` into a pre-sized reservoir.
    pub record_ns: f64,
    /// One `SampleSet::percentile` on an unsorted reservoir (the sort).
    pub percentile_s: f64,
}

/// How often one run calls each kernel, derived from its metrics. The
/// engine does not count these itself, so they follow its structure: a
/// run pays its fixed cost once, every non-chained event is one queue
/// pop (plus one schedule), every arrival draws a gap and a service
/// time, every idle period is one governor round and four life-cycle
/// state changes, every completion records into four reservoirs, and
/// the latency reservoir is sorted once at the end.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub runs: f64,
    pub queue_ops: f64,
    pub draws: f64,
    pub selections: f64,
    pub residency_ops: f64,
    pub records: f64,
    pub sorts: f64,
}

impl Counts {
    pub fn of(run: &RunRecord) -> Counts {
        let m = &run.metrics;
        let measured = m.duration.as_secs();
        // Idle entries are counted over the measured window; the warm-up
        // runs at the same rate.
        let whole = (measured + run.shape.warmup.as_secs()) / measured;
        let idle_periods = m.transitions.values().sum::<u64>() as f64 * whole;
        Counts {
            runs: 1.0,
            queue_ops: (m.events - run.chained) as f64,
            draws: 2.0 * m.offered_qps * measured * whole,
            selections: idle_periods,
            residency_ops: 4.0 * idle_periods,
            records: 4.0 * m.completed as f64,
            sorts: 1.0,
        }
    }

    pub fn scaled(self, f: f64) -> Counts {
        Counts {
            runs: self.runs * f,
            queue_ops: self.queue_ops * f,
            draws: self.draws * f,
            selections: self.selections * f,
            residency_ops: self.residency_ops * f,
            records: self.records * f,
            sorts: self.sorts * f,
        }
    }

    fn add(&mut self, o: &Counts) {
        self.runs += o.runs;
        self.queue_ops += o.queue_ops;
        self.draws += o.draws;
        self.selections += o.selections;
        self.residency_ops += o.residency_ops;
        self.records += o.records;
        self.sorts += o.sorts;
    }
}

/// Estimated host seconds per layer kernel: cost × count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Estimate {
    pub run_fixed_s: f64,
    pub queue_s: f64,
    pub draws_s: f64,
    pub select_s: f64,
    pub residency_s: f64,
    pub record_s: f64,
    pub sort_s: f64,
}

impl Estimate {
    fn of(c: &Costs, n: &Counts) -> Estimate {
        Estimate {
            run_fixed_s: c.run_fixed_s * n.runs,
            queue_s: c.queue_ns * n.queue_ops * 1e-9,
            draws_s: c.draw_ns * n.draws * 1e-9,
            select_s: c.select_ns * n.selections * 1e-9,
            residency_s: c.residency_ns * n.residency_ops * 1e-9,
            record_s: c.record_ns * n.records * 1e-9,
            sort_s: c.percentile_s * n.sorts,
        }
    }

    fn add(&mut self, o: &Estimate) {
        self.run_fixed_s += o.run_fixed_s;
        self.queue_s += o.queue_s;
        self.draws_s += o.draws_s;
        self.select_s += o.select_s;
        self.residency_s += o.residency_s;
        self.record_s += o.record_s;
        self.sort_s += o.sort_s;
    }

    pub fn samples_s(&self) -> f64 {
        self.record_s + self.sort_s
    }

    pub fn total(&self) -> f64 {
        self.run_fixed_s
            + self.queue_s
            + self.draws_s
            + self.select_s
            + self.residency_s
            + self.samples_s()
    }
}

/// Sums the estimates and counts of several runs.
pub fn totals(runs: &[(Costs, Counts)]) -> (Estimate, Counts) {
    let mut est = Estimate::default();
    let mut counts = Counts::default();
    for (c, n) in runs {
        est.add(&Estimate::of(c, n));
        counts.add(n);
    }
    (est, counts)
}

/// Median seconds of `batches` timed calls of `f`.
fn median_secs(batches: usize, mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[t.len() / 2]
}

/// A run at `shape` over `duration`, with the options a run of that
/// shape uses.
pub fn builder(shape: &RunShape, duration: Nanos, seed: u64) -> SimBuilder {
    let config = ServerConfig::for_hw(shape.hw, shape.cores, shape.named).with_duration(duration);
    let b = SimBuilder::new(config, memcached_etc(shape.qps), seed);
    if shape.logs {
        b.with_latency_samples().with_idle_analysis()
    } else {
        b
    }
}

/// Times every kernel at `shape`, with `samples` completions in the
/// run's latency reservoir.
pub fn measure(shape: &RunShape, samples: usize, quick: bool) -> Costs {
    const BATCHES: usize = 3;
    let n: usize = if quick { 5_000 } else { 100_000 };
    let mut rng = SimRng::seed(0x6b65_726e);
    let config = ServerConfig::for_hw(shape.hw, shape.cores, shape.named);

    let runs = n / 500;
    let run_fixed_s = median_secs(BATCHES, || {
        for seed in 0..runs as u64 {
            black_box(builder(shape, Nanos::from_micros(1.0), seed).run());
        }
    }) / runs as f64;

    // Queue: the engine keeps about one pending deadline per core plus
    // the next arrival and a timer, spread over a few event gaps.
    let depth = shape.cores + 2;
    let gap = 1e9 / (shape.qps * 4.0);
    let offsets: Vec<f64> = (0..4096).map(|_| rng.uniform() * 2.0 * gap * depth as f64).collect();
    let mut queue = EventQueue::with_capacity(shape.cores * 4 + 16);
    for (i, off) in offsets.iter().take(depth).enumerate() {
        queue.schedule(Nanos::new(*off), i);
    }
    let mut k = 0usize;
    let queue_ns = median_secs(BATCHES, || {
        for _ in 0..n {
            let (when, e) = queue.pop().expect("the queue never drains");
            k = (k + 1) & 4095;
            queue.schedule(Nanos::new(when.as_nanos() + offsets[k]), e);
        }
    }) / n as f64
        * 1e9;

    let workload = memcached_etc(shape.qps);
    let draw_ns = median_secs(BATCHES, || {
        for _ in 0..n {
            black_box(workload.next_gap(&mut rng));
            black_box(workload.next_service(&mut rng));
        }
    }) / (2 * n) as f64
        * 1e9;

    // Governor: idle periods as long as a core's mean gap between
    // requests at this load.
    let idle = Exponential::with_mean(1e9 * shape.cores as f64 / shape.qps);
    let idles: Vec<Nanos> = (0..4096).map(|_| Nanos::new(idle.sample(&mut rng))).collect();
    let mut governor = GovernorKind::Menu.build();
    let select_ns = median_secs(BATCHES, || {
        for i in 0..n {
            black_box(governor.select(&config.cstates, &config.catalog, None));
            governor.observe_idle(idles[i & 4095]);
        }
    }) / n as f64
        * 1e9;

    // Residency: one idle round trip is four life-cycle changes whose
    // accounting states are C0 (entering), idle, C0 (waking), C0.
    let parked = config.cstates.shallowest().unwrap_or(CState::C1);
    let cycle = [CState::C0, parked, CState::C0, CState::C0];
    let mut tracker = ResidencyTracker::new(CState::C0, Nanos::ZERO);
    let mut now = 0.0;
    let residency_ns = median_secs(BATCHES, || {
        for i in 0..n {
            now += 100.0;
            tracker.transition(cycle[i & 3], Nanos::new(now));
        }
    }) / n as f64
        * 1e9;

    let count = samples.max(1);
    let latency = Exponential::with_mean(20_000.0);
    let values: Vec<f64> = (0..count).map(|_| latency.sample(&mut rng)).collect();
    let record_ns = median_secs(BATCHES, || {
        let mut set = SampleSet::with_capacity(count);
        for &v in &values {
            set.record(v);
        }
        black_box(set.len());
    }) / count as f64
        * 1e9;

    let mut filled = SampleSet::with_capacity(count);
    for &v in &values {
        filled.record(v);
    }
    let mut unsorted: Vec<SampleSet> = (0..BATCHES).map(|_| filled.clone()).collect();
    let percentile_s = median_secs(BATCHES, || {
        let mut set = unsorted.pop().expect("one reservoir per batch");
        black_box(set.percentile(0.99));
    });

    Costs { run_fixed_s, queue_ns, draw_ns, select_ns, residency_ns, record_ns, percentile_s }
}
