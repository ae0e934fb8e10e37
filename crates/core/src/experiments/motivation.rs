//! The Sec. 2 motivation analysis (Eq. 1).

use aw_cstates::CState;
use aw_power::{motivation_savings, ResidencyVector};

/// One motivation data point: a workload's measured residencies and the
/// Eq. 1 upper-bound savings from an ideal C1-latency/C6-power state.
#[derive(Debug, Clone)]
pub struct MotivationRow {
    /// Workload / load-level label.
    pub label: String,
    /// C0 / C1 / C6 residencies (percent).
    pub residencies_pct: (f64, f64, f64),
    /// Eq. 1 savings bound (percent of baseline average power).
    pub savings_pct: f64,
}

/// Reproduces the paper's three motivating examples: the search workload
/// at 50% and 25% load and the key-value store at 20% load, with their
/// published C-state residencies, yielding ~23%, ~41%, and ~55% savings
/// potential.
///
/// # Examples
///
/// ```
/// let rows = agilewatts::experiments::motivation();
/// assert_eq!(rows.len(), 3);
/// assert!(rows.iter().all(|r| r.savings_pct > 20.0));
/// ```
#[must_use]
pub fn motivation() -> Vec<MotivationRow> {
    let cases = [
        ("search @ 50% load", (50.0, 45.0, 5.0)),
        ("search @ 25% load", (25.0, 55.0, 20.0)),
        ("key-value store @ 20% load", (20.0, 80.0, 0.0)),
    ];
    cases
        .iter()
        .map(|&(label, (c0, c1, c6))| {
            let r = ResidencyVector::from_percents([
                (CState::C0, c0),
                (CState::C1, c1),
                (CState::C6, c6),
            ]);
            MotivationRow {
                label: label.to_string(),
                residencies_pct: (c0, c1, c6),
                savings_pct: motivation_savings(&r).as_percent(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_numbers() {
        let rows = motivation();
        let s: Vec<f64> = rows.iter().map(|r| r.savings_pct).collect();
        assert!((22.0..25.0).contains(&s[0]), "search@50: {}", s[0]);
        assert!((39.0..43.0).contains(&s[1]), "search@25: {}", s[1]);
        assert!((54.0..57.0).contains(&s[2]), "kv@20: {}", s[2]);
    }

    #[test]
    fn savings_increase_as_load_drops() {
        let rows = motivation();
        assert!(rows[0].savings_pct < rows[1].savings_pct);
        assert!(rows[1].savings_pct < rows[2].savings_pct);
    }
}

/// Reproduces the Sec. 2 residency profiles *from simulation* rather
/// than quoting them: the bursty web-search leaf at 50% and 25% load and
/// the key-value store at 20% load are run on a 10-core server with the
/// C1+C6 legacy configuration and a 1 ms OS timer tick (the mechanism
/// that keeps production idle periods short), and the measured
/// residencies feed Eq. 1.
///
/// Returns rows in the same order as [`motivation`]; the measured
/// profiles land close to Google's published ones (50/45/5, 25/55/20,
/// 20/80/0) and the savings bounds close to 23%/41%/55%.
#[must_use]
pub fn motivation_simulated(seed: u64) -> Vec<MotivationRow> {
    use aw_cstates::{CStateConfig, NamedConfig};
    use aw_server::{ServerConfig, SimBuilder};
    use aw_types::Nanos;
    use aw_workloads::{memcached_etc, websearch};

    let cores = 10;
    let kv_qps = 0.2 * cores as f64 / memcached_etc(1.0).mean_service().as_secs();
    let cases = [
        ("search @ 50% load (simulated)", websearch(0.5, cores)),
        ("search @ 25% load (simulated)", websearch(0.25, cores)),
        ("key-value store @ 20% load (simulated)", memcached_etc(kv_qps)),
    ];
    // Three independent runs on the ambient executor, in case order.
    aw_exec::SweepExecutor::current().map(&cases, |(label, workload)| {
        let cfg = ServerConfig::new(cores, NamedConfig::NtBaseline)
            .with_cstates(CStateConfig::new([CState::C1, CState::C6], false))
            .with_timer_tick(Nanos::from_millis(1.0))
            .with_duration(Nanos::from_millis(600.0));
        let m = SimBuilder::new(cfg, workload.clone(), seed).run().into_metrics();
        MotivationRow {
            label: (*label).to_string(),
            residencies_pct: (
                m.residency_of(CState::C0).as_percent(),
                m.residency_of(CState::C1).as_percent(),
                m.residency_of(CState::C6).as_percent(),
            ),
            savings_pct: motivation_savings(&m.residencies).as_percent(),
        }
    })
}

#[cfg(test)]
mod simulated_tests {
    use super::*;

    #[test]
    fn simulated_profiles_match_published_shape() {
        let rows = motivation_simulated(42);
        let (c0, c1, c6) = rows[0].residencies_pct; // search @ 50%
        assert!((40.0..60.0).contains(&c0), "search50 C0 {c0}");
        assert!(c1 > 25.0, "search50 C1 {c1}");
        assert!(c6 < 20.0, "search50 C6 {c6}");

        let (c0, _c1, c6) = rows[1].residencies_pct; // search @ 25%
        assert!((15.0..40.0).contains(&c0), "search25 C0 {c0}");
        assert!(c6 > rows[0].residencies_pct.2, "C6 must grow as load drops");

        let (_, c1, c6) = rows[2].residencies_pct; // kv @ 20%
        assert!(c1 > 50.0, "kv C1 {c1}");
        assert!(c6 < 15.0, "kv C6 {c6}");
    }

    #[test]
    fn simulated_savings_bracket_the_quoted_bounds() {
        let rows = motivation_simulated(42);
        // Paper: 23% / 41% / 55%. Allow generous simulator slack but
        // require the ordering and rough magnitudes.
        assert!((10.0..40.0).contains(&rows[0].savings_pct), "{}", rows[0].savings_pct);
        assert!((25.0..55.0).contains(&rows[1].savings_pct), "{}", rows[1].savings_pct);
        assert!((40.0..65.0).contains(&rows[2].savings_pct), "{}", rows[2].savings_pct);
        assert!(rows[0].savings_pct < rows[1].savings_pct);
        assert!(rows[1].savings_pct < rows[2].savings_pct);
    }
}
