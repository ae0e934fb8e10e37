//! Probability distributions for workload modeling.
//!
//! Only `rand`'s core uniform generator is available offline, so the
//! distributions the workload models need (exponential inter-arrivals,
//! log-normal service times, Pareto value sizes per the Facebook ETC
//! characterization, and empirical mixtures) are implemented here via
//! inverse-CDF and Box–Muller sampling.

use crate::SimRng;

/// A sampleable distribution over non-negative `f64` values.
///
/// Implementations are immutable; all randomness flows through the
/// caller-provided [`SimRng`], keeping simulations deterministic per seed.
pub trait Distribution: std::fmt::Debug + Send + Sync {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution's mean, used for load calculations (e.g., converting
    /// a target QPS into per-core utilization).
    fn mean(&self) -> f64;
}

/// The degenerate distribution: always returns the same value.
///
/// # Examples
///
/// ```
/// use aw_sim::{Distribution, Point, SimRng};
///
/// let d = Point::new(2.5);
/// assert_eq!(d.sample(&mut SimRng::seed(0)), 2.5);
/// assert_eq!(d.mean(), 2.5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Point {
    value: f64,
}

impl Point {
    /// Creates a point distribution at `value`.
    #[must_use]
    pub fn new(value: f64) -> Self {
        Point { value }
    }
}

impl Distribution for Point {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.value
    }
    fn mean(&self) -> f64 {
        self.value
    }
}

/// Exponential distribution with the given mean (i.e., rate `1/mean`).
///
/// Used for Poisson arrival processes: inter-arrival gaps at `λ` QPS are
/// `Exponential::with_mean(1e9 / λ)` nanoseconds.
///
/// # Examples
///
/// ```
/// use aw_sim::{Distribution, Exponential, SimRng};
///
/// let d = Exponential::with_mean(100.0);
/// let mut rng = SimRng::seed(1);
/// let mean: f64 = (0..10_000).map(|_| d.sample(&mut rng)).sum::<f64>() / 10_000.0;
/// assert!((mean - 100.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    #[must_use]
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "exponential mean must be positive");
        Exponential { mean }
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        -self.mean * rng.uniform_open().ln()
    }
    fn mean(&self) -> f64 {
        self.mean
    }
}

/// Log-normal distribution parameterized by the *linear-scale* median and a
/// log-scale shape `sigma`.
///
/// Service-time distributions of in-memory key-value stores are well
/// approximated by a log-normal body; the shape parameter controls tail
/// heaviness.
///
/// # Examples
///
/// ```
/// use aw_sim::{Distribution, LogNormal, SimRng};
///
/// let d = LogNormal::from_median(2.0, 0.5);
/// assert!(d.mean() > 2.0); // log-normal mean exceeds the median
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with the given linear-scale `median` and
    /// log-scale standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `median <= 0` or `sigma < 0`, or either is non-finite.
    #[must_use]
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median.is_finite() && median > 0.0, "median must be positive");
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be non-negative");
        LogNormal { mu: median.ln(), sigma }
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * rng.standard_normal()).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
}

/// Pareto (type I) distribution with scale `x_min` and shape `alpha`.
///
/// The Facebook ETC workload's value-size distribution has a Pareto tail
/// (Atikoglu et al., SIGMETRICS 2012), which the Memcached workload model
/// uses for value sizes and for occasional heavy-tailed service times.
///
/// # Examples
///
/// ```
/// use aw_sim::{Distribution, Pareto, SimRng};
///
/// let d = Pareto::new(1.0, 2.5);
/// let mut rng = SimRng::seed(2);
/// assert!(d.sample(&mut rng) >= 1.0); // support is [x_min, ∞)
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with scale `x_min` and shape `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `x_min <= 0` or `alpha <= 0`, or either is non-finite.
    #[must_use]
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min.is_finite() && x_min > 0.0, "x_min must be positive");
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
        Pareto { x_min, alpha }
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.x_min / rng.uniform_open().powf(1.0 / self.alpha)
    }
    fn mean(&self) -> f64 {
        if self.alpha > 1.0 {
            self.alpha * self.x_min / (self.alpha - 1.0)
        } else {
            f64::INFINITY
        }
    }
}

/// A finite mixture over component distributions with given weights.
///
/// Models multi-modal request populations such as the ETC GET/SET/DELETE mix
/// or OLTP point-query vs. range-scan mixes.
///
/// # Examples
///
/// ```
/// use aw_sim::{Distribution, Empirical, Point, SimRng};
///
/// // 90% cheap gets (2 µs), 10% expensive sets (10 µs):
/// let d = Empirical::new(vec![
///     (0.9, Box::new(Point::new(2_000.0)) as Box<dyn Distribution>),
///     (0.1, Box::new(Point::new(10_000.0))),
/// ]);
/// assert!((d.mean() - 2_800.0).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct Empirical {
    components: Vec<(f64, Box<dyn Distribution>)>,
    total_weight: f64,
}

impl Empirical {
    /// Creates a mixture from `(weight, distribution)` pairs. Weights are
    /// normalized internally.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty, any weight is negative or
    /// non-finite, or all weights are zero.
    #[must_use]
    pub fn new(components: Vec<(f64, Box<dyn Distribution>)>) -> Self {
        assert!(!components.is_empty(), "mixture needs at least one component");
        let total_weight: f64 = components
            .iter()
            .map(|(w, _)| {
                assert!(w.is_finite() && *w >= 0.0, "weights must be non-negative");
                *w
            })
            .sum();
        assert!(total_weight > 0.0, "at least one weight must be positive");
        Empirical { components, total_weight }
    }
}

impl Distribution for Empirical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let mut pick = rng.uniform() * self.total_weight;
        for (w, d) in &self.components {
            pick -= w;
            if pick <= 0.0 {
                return d.sample(rng);
            }
        }
        // Floating-point slack: fall back to the last component.
        self.components.last().expect("non-empty").1.sample(rng)
    }

    fn mean(&self) -> f64 {
        self.components.iter().map(|(w, d)| w * d.mean()).sum::<f64>() / self.total_weight
    }
}

/// A distribution shifted by a constant offset (e.g., a fixed protocol
/// overhead added to every service time).
///
/// # Examples
///
/// ```
/// use aw_sim::{Distribution, Exponential, Shifted, SimRng};
///
/// let d = Shifted::new(1_000.0, Exponential::with_mean(500.0));
/// assert!((d.mean() - 1_500.0).abs() < 1e-9);
/// assert!(d.sample(&mut SimRng::seed(0)) >= 1_000.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Shifted<D> {
    offset: f64,
    inner: D,
}

impl<D: Distribution> Shifted<D> {
    /// Creates a distribution that adds `offset` to every sample of `inner`.
    #[must_use]
    pub fn new(offset: f64, inner: D) -> Self {
        Shifted { offset, inner }
    }
}

impl<D: Distribution> Distribution for Shifted<D> {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.offset + self.inner.sample(rng)
    }
    fn mean(&self) -> f64 {
        self.offset + self.inner.mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: &dyn Distribution, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(250.0);
        let m = empirical_mean(&d, 50_000, 1);
        assert!((m - 250.0).abs() / 250.0 < 0.03, "mean {m}");
    }

    #[test]
    fn lognormal_mean_matches() {
        let d = LogNormal::from_median(10.0, 0.4);
        let m = empirical_mean(&d, 50_000, 2);
        assert!((m - d.mean()).abs() / d.mean() < 0.03, "mean {m} vs {}", d.mean());
    }

    #[test]
    fn lognormal_zero_sigma_is_point() {
        let d = LogNormal::from_median(7.0, 0.0);
        let mut rng = SimRng::seed(3);
        for _ in 0..10 {
            assert!((d.sample(&mut rng) - 7.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pareto_support_and_mean() {
        let d = Pareto::new(2.0, 3.0);
        let mut rng = SimRng::seed(4);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 2.0);
        }
        assert!((d.mean() - 3.0).abs() < 1e-12);
        assert!(Pareto::new(1.0, 0.9).mean().is_infinite());
    }

    #[test]
    fn mixture_weights_respected() {
        let d = Empirical::new(vec![
            (3.0, Box::new(Point::new(1.0)) as Box<dyn Distribution>),
            (1.0, Box::new(Point::new(5.0))),
        ]);
        let m = empirical_mean(&d, 40_000, 5);
        // Expected mean = (3·1 + 1·5)/4 = 2.0
        assert!((m - 2.0).abs() < 0.05, "mean {m}");
        assert!((d.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_offsets_samples() {
        let d = Shifted::new(100.0, Point::new(5.0));
        assert_eq!(d.sample(&mut SimRng::seed(0)), 105.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        let _ = Exponential::with_mean(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empirical_rejects_empty() {
        let _ = Empirical::new(vec![]);
    }
}
