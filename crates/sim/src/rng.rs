//! Seeded random-number generation for deterministic simulation.
//!
//! Self-contained (no external `rand` dependency): the generator is
//! xoshiro256++ (Blackman & Vigna), seeded through SplitMix64 exactly as
//! the reference implementation recommends. Both algorithms are public
//! domain, pass BigCrush, and are more than adequate for discrete-event
//! simulation draws.

/// Expands a 64-bit seed into successive state words (SplitMix64).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random-number generator for simulation use.
///
/// Thin wrapper over xoshiro256++ that fixes the seeding discipline: every
/// simulation component derives its generator from an explicit `u64` seed
/// so that runs are reproducible, and independent streams can be forked
/// for sub-components without sharing state.
///
/// # Examples
///
/// ```
/// use aw_sim::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Forks an independent generator stream, keyed by `stream`.
    ///
    /// Forked streams are decorrelated from the parent and from each other
    /// (each is seeded by a fresh draw from the parent mixed with the stream
    /// index), so per-core or per-workload components can consume randomness
    /// without perturbing one another.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::seed(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit value (xoshiro256++).
    #[must_use]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, 1)`.
    #[must_use]
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits → the canonical [0, 1) double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in the open interval `(0, 1)`.
    ///
    /// Useful for inverse-CDF sampling where `ln(0)` must be avoided.
    #[must_use]
    pub fn uniform_open(&mut self) -> f64 {
        loop {
            let u = self.uniform();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform value in `[lo, hi)`.
    #[must_use]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        // Lemire's multiply-shift with rejection for exact uniformity.
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let m = u128::from(x) * u128::from(n);
                ((m >> 64) as u64, m as u64)
            };
            if lo >= n || lo >= n.wrapping_neg() % n {
                return hi as usize;
            }
        }
    }

    /// A Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    #[must_use]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// A standard normal variate (Box–Muller transform).
    #[must_use]
    pub(crate) fn standard_normal(&mut self) -> f64 {
        let u1 = self.uniform_open();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let av: Vec<_> = (0..8).map(|_| a.next_u64()).collect();
        let bv: Vec<_> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn forked_streams_are_reproducible() {
        let mut p1 = SimRng::seed(99);
        let mut p2 = SimRng::seed(99);
        let mut f1 = p1.fork(3);
        let mut f2 = p2.fork(3);
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::seed(5);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            let v = r.uniform_open();
            assert!(v > 0.0 && v < 1.0);
        }
    }

    #[test]
    fn uniform_range_bounds() {
        let mut r = SimRng::seed(5);
        for _ in 0..1000 {
            let x = r.uniform_range(10.0, 20.0);
            assert!((10.0..20.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        // Out-of-range p is clamped rather than panicking.
        assert!(r.chance(2.0));
        assert!(!r.chance(-1.0));
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = SimRng::seed(11);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn index_covers_range() {
        let mut r = SimRng::seed(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn index_is_unbiased_across_buckets() {
        let mut r = SimRng::seed(17);
        let mut counts = [0u32; 7];
        let draws = 70_000;
        for _ in 0..draws {
            counts[r.index(7)] += 1;
        }
        let expected = draws as f64 / 7.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i} off by {dev}");
        }
    }
}
