//! Property-based tests of the simulation kernel's invariants.

use aw_sim::{
    select_quantiles, Distribution, Empirical, EnergyMeter, EventQueue, Exponential, LogNormal,
    P2Quantile, Pareto, Point, ResidencyTracker, SampleSet, SimRng,
};
use aw_types::{MilliWatts, Nanos};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simultaneous events preserve FIFO order regardless of how many
    /// distinct timestamps interleave.
    #[test]
    fn queue_fifo_within_timestamp(groups in prop::collection::vec((0.0f64..100.0, 1usize..6), 1..20)) {
        let mut q = EventQueue::new();
        let mut expected: Vec<(f64, usize)> = Vec::new();
        let mut seq = 0usize;
        for (t, n) in groups {
            for _ in 0..n {
                q.schedule(Nanos::new(t), seq);
                expected.push((t, seq));
                seq += 1;
            }
        }
        expected.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let drained: Vec<(f64, usize)> =
            std::iter::from_fn(|| q.pop()).map(|(t, e)| (t.as_nanos(), e)).collect();
        prop_assert_eq!(drained, expected);
    }

    /// Exact percentiles are monotone in the quantile.
    #[test]
    fn percentiles_are_monotone(xs in prop::collection::vec(0.0f64..1e9, 1..200)) {
        let mut s = SampleSet::new();
        for &x in &xs { s.record(x); }
        let qs = [0.0, 0.1, 0.5, 0.9, 0.99, 1.0];
        let mut prev = f64::NEG_INFINITY;
        for &q in &qs {
            let v = s.percentile(q).unwrap();
            prop_assert!(v >= prev, "p{q} = {v} < {prev}");
            prev = v;
        }
    }

    /// The selection cascade, `SampleSet::quantiles` and `percentile`
    /// all return, bit for bit, what a stable sort of the same values
    /// holds at the nearest rank — including duplicates, signed zeros,
    /// `+inf` and NaN, and the end points `q = 0` and `q = 1`.
    #[test]
    fn exact_quantiles_match_a_sorted_reference(
        xs in prop::collection::vec((0u8..40, -40i32..40).prop_map(messy_value), 1..500),
        inner in (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let mut qs = [0.0, inner.0, inner.1, inner.2, 0.99, 1.0];
        qs.sort_by(f64::total_cmp);
        let expected = qs.map(|q| reference_quantile(&sorted, q).to_bits());

        let mut values = xs.clone();
        prop_assert_eq!(select_quantiles(&mut values, qs).map(f64::to_bits), expected);
        let mut set = SampleSet::new();
        for &x in &xs { set.record(x); }
        prop_assert_eq!(set.quantiles(qs).map(|v| v.map(f64::to_bits)), Some(expected));
        for (q, want) in qs.into_iter().zip(expected) {
            prop_assert_eq!(set.percentile(q).map(f64::to_bits), Some(want), "q = {}", q);
        }
    }

    /// The P² estimate lands within the sample range and tracks the
    /// exact quantile for large-enough samples.
    #[test]
    fn p2_within_range(seed: u64, n in 100usize..2000) {
        let mut rng = SimRng::seed(seed);
        let mut p2 = P2Quantile::new(0.9);
        let mut exact = SampleSet::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..n {
            let x = rng.uniform_range(0.0, 1000.0);
            p2.record(x);
            exact.record(x);
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let est = p2.estimate().unwrap();
        prop_assert!(est >= lo && est <= hi);
        let truth = exact.percentile(0.9).unwrap();
        prop_assert!((est - truth).abs() < 0.25 * (hi - lo) + 1e-9);
    }

    /// Residency tracker: total time equals the observation window and
    /// residencies sum to one, for any transition sequence.
    #[test]
    fn tracker_partitions_window(mut gaps in prop::collection::vec(0.0f64..1e6, 1..50)) {
        let mut t = ResidencyTracker::new(0u8, Nanos::ZERO);
        let mut now = Nanos::ZERO;
        for (i, g) in gaps.drain(..).enumerate() {
            now += Nanos::new(g);
            t.transition((i % 4) as u8, now);
        }
        now += Nanos::new(1.0);
        t.finish(now);
        prop_assert!((t.total_time().as_nanos() - now.as_nanos()).abs() < 1e-6);
        let sum: f64 = (0u8..4).map(|s| t.residency(&s).get()).sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
    }

    /// Energy meter: total energy equals the sum of per-segment products
    /// for any piecewise schedule.
    #[test]
    fn meter_is_additive(segs in prop::collection::vec((0.0f64..5000.0, 0.0f64..1e6), 1..40)) {
        let mut m = EnergyMeter::new(Nanos::ZERO);
        let mut now = Nanos::ZERO;
        let mut expect = 0.0;
        for &(p_mw, dt_ns) in &segs {
            // advance() charges the elapsed interval at the power passed
            // in this call: p_mw over dt_ns.
            m.advance(MilliWatts::new(p_mw), now + Nanos::new(dt_ns));
            now += Nanos::new(dt_ns);
            expect += p_mw * dt_ns * 1e-12;
        }
        prop_assert!((m.energy().as_joules() - expect).abs() < 1e-9 * (1.0 + expect.abs()));
    }

    /// Mixture means equal the weighted component means for arbitrary
    /// weights.
    #[test]
    fn mixture_mean_is_weighted(w1 in 0.1f64..10.0, w2 in 0.1f64..10.0, m1 in 1.0f64..1e5, m2 in 1.0f64..1e5) {
        let mix = Empirical::new(vec![
            (w1, Box::new(Point::new(m1)) as Box<dyn Distribution>),
            (w2, Box::new(Exponential::with_mean(m2))),
        ]);
        let expect = (w1 * m1 + w2 * m2) / (w1 + w2);
        prop_assert!((mix.mean() - expect).abs() < 1e-9 * expect);
    }

    /// Pareto and log-normal samples always respect their supports.
    #[test]
    fn supports_hold(seed: u64, xm in 0.1f64..100.0, alpha in 0.5f64..5.0, median in 0.1f64..1e4, sigma in 0.0f64..2.0) {
        let mut rng = SimRng::seed(seed);
        let pareto = Pareto::new(xm, alpha);
        let ln = LogNormal::from_median(median, sigma);
        for _ in 0..200 {
            prop_assert!(pareto.sample(&mut rng) >= xm);
            prop_assert!(ln.sample(&mut rng) > 0.0);
        }
    }

    /// Windowed P² estimates track exact percentiles on heavy-tailed
    /// (lognormal) data, and `reset()` makes one estimator reusable
    /// across windows: each window's estimate matches the exact
    /// per-window percentile, not a blend with earlier windows.
    #[test]
    fn p2_reset_windows_track_exact_on_lognormal(
        seed: u64,
        median in 10.0f64..1e4,
        sigma in 0.5f64..1.5,
        windows in 2usize..5,
    ) {
        let mut rng = SimRng::seed(seed);
        let ln = LogNormal::from_median(median, sigma);
        let mut p50 = P2Quantile::new(0.5);
        let mut p99 = P2Quantile::new(0.99);
        for w in 0..windows {
            // Shift each window so stale markers from a previous window
            // would show up as gross error.
            let shift = median * 10.0 * w as f64;
            let mut exact = SampleSet::new();
            for _ in 0..5_000 {
                let x = ln.sample(&mut rng) + shift;
                p50.record(x);
                p99.record(x);
                exact.record(x);
            }
            let est50 = p50.estimate().unwrap();
            let truth50 = exact.percentile(0.5).unwrap();
            prop_assert!(
                (est50 - truth50).abs() <= 0.05 * truth50,
                "window {w}: p50 {est50} vs exact {truth50}"
            );
            // The p99 of a lognormal is far out in the tail; P² tracks
            // it within a coarser relative tolerance.
            let est99 = p99.estimate().unwrap();
            let truth99 = exact.percentile(0.99).unwrap();
            prop_assert!(
                (est99 - truth99).abs() <= 0.25 * truth99,
                "window {w}: p99 {est99} vs exact {truth99}"
            );
            p50.reset();
            p99.reset();
        }
    }

    /// Forked RNG streams never collide with the parent stream.
    #[test]
    fn forked_streams_differ(seed: u64) {
        let mut parent = SimRng::seed(seed);
        let mut fork = parent.fork(1);
        let a: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| fork.next_u64()).collect();
        prop_assert_ne!(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The queue pops in exactly the same order as a sorted-`Vec`
    /// reference model for arbitrary interleavings of `schedule` and
    /// `pop` — including equal timestamps (FIFO in push order), `-0.0`
    /// mixed with `0.0` (one instant, so also FIFO) and pushes earlier
    /// than the last popped time. Each step is a pop followed by 0, 1 or
    /// 2 schedules, or 2 schedules alone, and `peek_time` (bits) and
    /// `len` must match the model after every pop and every schedule:
    /// so also between a pop and the next schedule, while the popped
    /// root still sits in the heap.
    #[test]
    fn queue_matches_sorted_vec_reference(
        steps in prop::collection::vec((0u8..4, 0.0f64..1000.0, 0.0f64..1000.0, 0u64..4), 1..300),
        quantum in prop::sample::select(vec![0.0, 50.0, 400.0]),
    ) {
        let mut q = EventQueue::new();
        let mut model = SortedVecModel::default();
        let mut seq = 0usize;
        let check = |q: &EventQueue<usize>, model: &mut SortedVecModel| {
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.peek_time().map(|t| t.as_nanos().to_bits()), model.peek());
        };
        for (kind, t0, t1, negate_zero) in steps {
            // kind 0..=2: a pop, then `kind` schedules; kind 3: two
            // schedules and no pop.
            if kind < 3 {
                prop_assert_eq!(popped(&mut q), model.pop());
                check(&q, &mut model);
            }
            let schedules = if kind < 3 { kind } else { 2 };
            for (i, t) in [t0, t1].into_iter().take(schedules as usize).enumerate() {
                // Coarse quanta make equal timestamps (and zeros) common.
                let t = if quantum > 0.0 { (t / quantum).floor() * quantum } else { t };
                let t = if t == 0.0 && negate_zero >> i & 1 == 1 { -0.0 } else { t };
                q.schedule(Nanos::new(t), seq);
                model.push(t, seq);
                seq += 1;
                check(&q, &mut model);
            }
        }
        for next in model.into_sorted() {
            prop_assert_eq!(popped(&mut q), Some(next));
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert_eq!(q.peek_time(), None);
        prop_assert!(q.is_empty());
    }
}

/// Reference model for the event queue: pending events in push order; a
/// pop stably sorts them by time, so ties keep push order, and takes
/// the front. Deliberately nothing like a heap.
#[derive(Default)]
struct SortedVecModel {
    pending: Vec<(f64, usize)>,
}

impl SortedVecModel {
    fn push(&mut self, t: f64, id: usize) {
        self.pending.push((t, id));
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn sort(&mut self) {
        self.pending.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
    }

    /// The next time's bits, without removing it.
    fn peek(&mut self) -> Option<u64> {
        self.sort();
        self.pending.first().map(|(t, _)| t.to_bits())
    }

    /// The next `(time bits, id)`; the bits tell `-0.0` from `0.0`.
    fn pop(&mut self) -> Option<(u64, usize)> {
        self.sort();
        (!self.pending.is_empty()).then(|| {
            let (t, id) = self.pending.remove(0);
            (t.to_bits(), id)
        })
    }

    /// Every remaining event in pop order (one sort instead of a
    /// quadratic drain).
    fn into_sorted(mut self) -> Vec<(u64, usize)> {
        self.sort();
        self.pending.into_iter().map(|(t, id)| (t.to_bits(), id)).collect()
    }
}

/// Pops `q` in the model's `(time bits, id)` shape.
fn popped(q: &mut EventQueue<usize>) -> Option<(u64, usize)> {
    q.pop().map(|(t, id)| (t.as_nanos().to_bits(), id))
}

/// A queue deeper than the server's retry-envelope cap (16,384 pending
/// events in `ServerSim::new`) keeps the reference order through an
/// interleaved stretch at full depth and a complete drain.
#[test]
fn deep_queue_matches_sorted_vec_reference() {
    const DEPTH: usize = 20_000;
    let mut rng = SimRng::seed(13);
    let mut q = EventQueue::with_capacity(1024);
    let mut model = SortedVecModel::default();
    let time = |rng: &mut SimRng| (rng.uniform() * 5_000.0).floor() * 10.0;
    for id in 0..DEPTH {
        let t = time(&mut rng);
        q.schedule(Nanos::new(t), id);
        model.push(t, id);
    }
    for id in DEPTH..DEPTH + 500 {
        assert_eq!(popped(&mut q), model.pop());
        let t = time(&mut rng);
        q.schedule(Nanos::new(t), id);
        model.push(t, id);
    }
    assert_eq!(q.len(), DEPTH);
    for next in model.into_sorted() {
        assert_eq!(popped(&mut q), Some(next));
    }
    assert_eq!(q.pop(), None);
}

/// A test value from a `(selector, integer)` draw: mostly quarter-steps
/// in `[-10, 10)` so duplicates are common, plus `-0.0`, `0.0`, `+inf`
/// and, rarely, NaN.
fn messy_value((selector, v): (u8, i32)) -> f64 {
    match selector {
        0 => f64::NAN,
        1..=3 => -0.0,
        4..=6 => 0.0,
        7..=8 => f64::INFINITY,
        _ => f64::from(v) / 4.0,
    }
}

/// The nearest-rank `q`-quantile of an already sorted slice, written from
/// the definition (the smallest 1-based rank `r` with `r >= q·n`) rather
/// than from the formula under test.
fn reference_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = (1..=n).find(|&r| r as f64 >= q * n as f64).expect("q <= 1");
    sorted[rank - 1]
}
