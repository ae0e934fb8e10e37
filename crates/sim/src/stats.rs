//! Exact percentiles: nearest ranks found by selection.

/// The 1-based nearest rank of the `q`-quantile among `n` values: the
/// smallest rank `r` with `r >= q·n`, clamped to `[1, n]`. Every exact
/// percentile in the workspace reads this rank from its ordered values.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use aw_sim::SampleSet;
///
/// // Ten samples 1..=10: sample `k` sits at rank `k`.
/// let mut s = SampleSet::new();
/// for x in 1..=10 {
///     s.record(f64::from(x));
/// }
/// // Rank ⌈q·n⌉, clamped to 1..=n.
/// assert_eq!(s.quantiles([0.0, 0.5, 0.99]), Some([1.0, 5.0, 10.0]));
/// ```
#[must_use]
pub(crate) fn nearest_rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q`-quantiles of `values`, one per
/// entry of `qs`, found by selection instead of a full sort.
///
/// The first rank is selected over the whole slice; each later rank is
/// selected only in the part above the previous one, so the usual tail
/// set (p50, p99, p99.9, max) costs about one and a half linear passes.
/// Values are ordered by [`f64::total_cmp`], which ranks a NaN with a
/// positive sign bit above `+inf`. The results are order statistics, so
/// they are bit-identical to indexing a sorted copy.
///
/// The call **reorders `values`** (it partitions them in place). Take
/// any mean or other order-dependent fold before calling it.
///
/// # Panics
///
/// Panics if `values` is empty, or if `qs` is not ascending or has an
/// entry outside `[0, 1]`.
///
/// # Examples
///
/// ```
/// use aw_sim::select_quantiles;
///
/// let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
/// assert_eq!(select_quantiles(&mut v, [0.5, 0.99, 1.0]), [50.0, 99.0, 100.0]);
/// ```
pub fn select_quantiles<const K: usize>(values: &mut [f64], qs: [f64; K]) -> [f64; K] {
    check_quantiles(&qs);
    let n = values.len();
    assert!(n > 0, "quantiles of an empty slice");
    // `values[..start]` holds the ranks placed so far and nothing above them.
    let mut start = 0;
    qs.map(|q| {
        let idx = nearest_rank(q, n) - 1;
        // Ascending `qs` give ascending ranks: either the rank just placed
        // (`idx == start - 1`) or one in the unplaced part above it.
        if idx >= start {
            values[start..].select_nth_unstable_by(idx - start, f64::total_cmp);
            start = idx + 1;
        }
        values[idx]
    })
}

fn check_quantiles(qs: &[f64]) {
    assert!(qs.iter().all(|q| (0.0..=1.0).contains(q)), "quantile must be in [0, 1]");
    assert!(qs.windows(2).all(|w| w[0] <= w[1]), "quantiles must be ascending");
}

/// A reservoir of raw samples supporting exact percentile queries.
///
/// The evaluation reports p50/p99 ("tail") latencies over full runs, which
/// fit comfortably in memory, so we keep exact samples rather than a sketch.
/// Percentiles use the nearest-rank method, by selection
/// ([`select_quantiles`]).
///
/// # NaN policy
///
/// Samples are expected to be non-NaN (the simulators only feed finite
/// latencies, waits, and service times in here). NaN is *tolerated*
/// rather than rejected: [`record`](Self::record) does not check, and
/// percentile queries order samples with [`f64::total_cmp`] — IEEE 754
/// total order, under which every NaN with a positive sign bit ranks
/// above `+inf`. A stray NaN therefore skews the extreme upper
/// percentiles instead of panicking mid-sweep.
///
/// # Examples
///
/// ```
/// use aw_sim::SampleSet;
///
/// let mut s = SampleSet::new();
/// for i in 1..=100 {
///     s.record(f64::from(i));
/// }
/// assert_eq!(s.percentile(0.50), Some(50.0));
/// assert_eq!(s.quantiles([0.5, 0.99]), Some([50.0, 99.0]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    samples: Vec<f64>,
}

impl SampleSet {
    /// Creates an empty sample set.
    #[must_use]
    pub fn new() -> Self {
        SampleSet { samples: Vec::new() }
    }

    /// Creates an empty sample set with room for `capacity` samples.
    ///
    /// Hot paths that know roughly how many samples a run will produce
    /// (e.g. `offered load × duration`) use this to avoid the doubling
    /// reallocations of a growing reservoir.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SampleSet { samples: Vec::with_capacity(capacity) }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples, in record order until a quantile query reorders
    /// them.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.samples
    }

    /// The samples, mutable in place: for summaries that select on them
    /// directly (which reorders them, as a quantile query does).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// The `q`-quantile (nearest-rank), `q` in `[0, 1]`. `None` if empty.
    ///
    /// One selection per call; use [`quantiles`](Self::quantiles) for
    /// several. Reorders the samples (see [`select_quantiles`]), so read
    /// [`values`](Self::values) first when record order matters;
    /// `total_cmp` ranks a positive NaN above `+inf`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn percentile(&mut self, q: f64) -> Option<f64> {
        self.quantiles([q]).map(|[v]| v)
    }

    /// The nearest-rank quantiles for ascending `qs`, in one selection
    /// cascade ([`select_quantiles`]). `None` if empty.
    ///
    /// Reorders the samples, so read [`values`](Self::values) first when
    /// record order matters; `total_cmp` ranks a positive NaN above
    /// `+inf`.
    ///
    /// # Panics
    ///
    /// Panics if `qs` is not ascending or has an entry outside `[0, 1]`,
    /// whether or not the set is empty.
    #[must_use]
    pub fn quantiles<const K: usize>(&mut self, qs: [f64; K]) -> Option<[f64; K]> {
        check_quantiles(&qs);
        (!self.samples.is_empty()).then(|| select_quantiles(&mut self.samples, qs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = SampleSet::new();
        for i in (1..=10).rev() {
            s.record(f64::from(i));
        }
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(0.1), Some(1.0));
        assert_eq!(s.percentile(0.5), Some(5.0));
        assert_eq!(s.percentile(1.0), Some(10.0));
    }

    #[test]
    fn percentile_after_more_records_resorts() {
        let mut s = SampleSet::new();
        s.record(10.0);
        assert_eq!(s.percentile(1.0), Some(10.0));
        s.record(20.0);
        assert_eq!(s.percentile(1.0), Some(20.0));
    }

    #[test]
    #[should_panic(expected = "quantiles must be ascending")]
    fn descending_quantiles_panic() {
        let mut v = [3.0, 1.0, 2.0];
        let _ = select_quantiles(&mut v, [0.99, 0.5]);
    }

    #[test]
    #[should_panic(expected = "quantiles must be ascending")]
    fn descending_quantiles_panic_on_an_empty_set() {
        let _ = SampleSet::new().quantiles([1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn select_quantiles_rejects_an_empty_slice() {
        let _ = select_quantiles(&mut [], [0.5]);
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut s = SampleSet::with_capacity(64);
        assert!(s.is_empty());
        let base = s.samples.capacity();
        assert!(base >= 64);
        for i in 0..64 {
            s.record(f64::from(i));
        }
        assert_eq!(s.samples.capacity(), base, "pre-sized reservoir reallocated");
        assert_eq!(s.percentile(0.5), Some(31.0));
    }

    #[test]
    fn nan_skews_the_tail_instead_of_panicking() {
        let mut s = SampleSet::new();
        for x in [3.0, f64::NAN, 1.0, 2.0] {
            s.record(x);
        }
        // total_cmp ranks the (positive-sign) NaN above +inf: the top
        // percentile is poisoned, the rest of the query still answers.
        assert_eq!(s.percentile(0.5), Some(2.0));
        assert!(s.percentile(1.0).unwrap().is_nan());
    }

    #[test]
    fn empty_sample_set() {
        let mut s = SampleSet::new();
        assert!(s.is_empty());
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.quantiles([0.5, 1.0]), None);
    }
}
