//! The P² algorithm: online quantile estimation in O(1) memory.
//!
//! Long simulations (hours of simulated traffic) record hundreds of
//! millions of latency samples; keeping them all for exact percentiles
//! (as [`SampleSet`](crate::SampleSet) does) stops being free. The P²
//! algorithm (Jain & Chlamtac, CACM 1985) tracks a single quantile with
//! five markers updated per observation, converging to the true quantile
//! without storing samples.

use crate::stats::nearest_rank;

/// An online estimator of one quantile using the P² algorithm.
///
/// # Examples
///
/// ```
/// use aw_sim::{P2Quantile, SimRng};
///
/// let mut p99 = P2Quantile::new(0.99);
/// let mut rng = SimRng::seed(1);
/// for _ in 0..100_000 {
///     p99.record(rng.uniform());
/// }
/// let est = p99.estimate().unwrap();
/// assert!((est - 0.99).abs() < 0.01, "{est}");
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimates of the 0, q/2, q, (1+q)/2, 1 quantiles).
    heights: [f64; 5],
    /// Marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    /// Initial observations buffered until five are available.
    warmup: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `q`-quantile, `q` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside the open interval `(0, 1)`.
    #[must_use]
    pub fn new(q: f64) -> Self {
        assert!(q > 0.0 && q < 1.0, "quantile must be in (0, 1)");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            warmup: Vec::with_capacity(5),
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot rank NaN");
        if self.warmup.len() < 5 {
            // Sorted insert: the warmup buffer stays query-ready, so
            // `estimate` reads a rank directly instead of cloning and
            // re-sorting the buffer on every call.
            let at = self.warmup.partition_point(|&w| w <= x);
            self.warmup.insert(at, x);
            if self.warmup.len() == 5 {
                for (h, &w) in self.heights.iter_mut().zip(self.warmup.iter()) {
                    *h = w;
                }
            }
            return;
        }

        // Find the cell containing x and clamp extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.heights[i] <= x && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments.iter()) {
            *d += inc;
        }

        // Adjust interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                self.heights[i] =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, s)
                    };
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let (hm, h, hp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (pm, p, pp) = (self.positions[i - 1], self.positions[i], self.positions[i + 1]);
        h + s / (pp - pm)
            * ((p - pm + s) * (hp - h) / (pp - p) + (pp - p - s) * (h - hm) / (p - pm))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = if s > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Clears all observations, returning the estimator to its
    /// just-constructed state without reallocating.
    ///
    /// Lets per-window aggregators (e.g. a timeline) reuse one estimator
    /// across windows instead of constructing a fresh one per window.
    ///
    /// # Examples
    ///
    /// ```
    /// use aw_sim::P2Quantile;
    ///
    /// let mut est = P2Quantile::new(0.5);
    /// for x in [5.0, 1.0, 9.0] {
    ///     est.record(x);
    /// }
    /// est.reset();
    /// assert_eq!(est.estimate(), None);
    /// est.record(42.0);
    /// assert_eq!(est.estimate(), Some(42.0));
    /// ```
    pub fn reset(&mut self) {
        let q = self.q;
        self.heights = [0.0; 5];
        self.positions = [1.0, 2.0, 3.0, 4.0, 5.0];
        self.desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0];
        self.warmup.clear();
    }

    /// The current estimate, or `None` with fewer than five observations.
    #[must_use]
    pub fn estimate(&self) -> Option<f64> {
        if self.warmup.len() < 5 {
            // Fewer than five samples: fall back to the nearest-rank
            // value among what we have, or nothing. `record` keeps the
            // buffer sorted, so the rank is a direct index.
            if self.warmup.is_empty() {
                return None;
            }
            return Some(self.warmup[nearest_rank(self.q, self.warmup.len()) - 1]);
        }
        Some(self.heights[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn uniform_median() {
        let mut est = P2Quantile::new(0.5);
        let mut rng = SimRng::seed(3);
        for _ in 0..50_000 {
            est.record(rng.uniform());
        }
        let m = est.estimate().unwrap();
        assert!((m - 0.5).abs() < 0.01, "{m}");
    }

    #[test]
    fn exponential_p99() {
        // p99 of Exp(mean=1) is -ln(0.01) ≈ 4.605.
        let mut est = P2Quantile::new(0.99);
        let mut rng = SimRng::seed(4);
        for _ in 0..200_000 {
            est.record(-rng.uniform_open().ln());
        }
        let p = est.estimate().unwrap();
        assert!((p - 4.605).abs() < 0.15, "{p}");
    }

    #[test]
    fn agrees_with_exact_on_latencylike_data() {
        let mut est = P2Quantile::new(0.95);
        let mut exact = crate::SampleSet::new();
        let mut rng = SimRng::seed(5);
        for _ in 0..30_000 {
            // Log-normal-ish latencies.
            let x = (0.5 * rng.standard_normal()).exp() * 10.0;
            est.record(x);
            exact.record(x);
        }
        let a = est.estimate().unwrap();
        let b = exact.percentile(0.95).unwrap();
        assert!((a - b).abs() / b < 0.05, "p2 {a} vs exact {b}");
    }

    #[test]
    fn few_samples_fall_back_to_rank() {
        let mut est = P2Quantile::new(0.5);
        assert_eq!(est.estimate(), None);
        est.record(3.0);
        est.record(1.0);
        est.record(2.0);
        assert_eq!(est.estimate(), Some(2.0));
    }

    #[test]
    fn warmup_buffer_stays_sorted_and_rank_exact() {
        // Regression for the warmup-phase quadratic smell: `estimate`
        // used to clone and fully re-sort the buffer on every call.
        // `record` now maintains a sorted insert, so (a) the buffer is
        // sorted after every observation and (b) the estimate matches a
        // reference clone-and-sort nearest-rank at every prefix.
        for q in [0.1, 0.5, 0.99] {
            let mut est = P2Quantile::new(q);
            let mut fed: Vec<f64> = Vec::new();
            for x in [9.0, 2.0, 7.0, 2.0] {
                est.record(x);
                fed.push(x);
                assert!(est.warmup.windows(2).all(|w| w[0] <= w[1]), "warmup unsorted: {est:?}");
                let mut reference = fed.clone();
                reference.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
                let rank = ((q * reference.len() as f64).ceil() as usize).clamp(1, reference.len());
                assert_eq!(est.estimate(), Some(reference[rank - 1]), "q={q} after {fed:?}");
            }
        }
    }

    #[test]
    fn monotone_inputs() {
        let mut est = P2Quantile::new(0.9);
        for i in 0..10_000 {
            est.record(f64::from(i));
        }
        let p = est.estimate().unwrap();
        assert!((p - 9_000.0).abs() < 200.0, "{p}");
    }

    #[test]
    fn constant_inputs() {
        let mut est = P2Quantile::new(0.75);
        for _ in 0..100 {
            est.record(7.0);
        }
        assert_eq!(est.estimate(), Some(7.0));
    }

    #[test]
    fn reset_is_equivalent_to_fresh() {
        let mut reused = P2Quantile::new(0.9);
        let mut rng = SimRng::seed(6);
        for _ in 0..10_000 {
            reused.record(rng.uniform() * 100.0);
        }
        reused.reset();
        assert_eq!(reused.estimate(), None);

        // Feeding the same stream into the reset estimator and a fresh
        // one must produce bit-identical estimates.
        let mut fresh = P2Quantile::new(0.9);
        let mut rng2 = SimRng::seed(7);
        for _ in 0..10_000 {
            let x = rng2.uniform() * 100.0;
            reused.record(x);
            fresh.record(x);
        }
        assert_eq!(reused.estimate(), fresh.estimate());
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn rejects_unit_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        let mut est = P2Quantile::new(0.5);
        est.record(f64::NAN);
    }
}
