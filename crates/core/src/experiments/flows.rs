//! Flow-latency experiments: Fig. 3, Fig. 6, and the Sec. 5.2 budget.

use aw_cstates::{C1Flow, C6AFlow, C6Flow};
use aw_pma::PmaFsm;
use aw_types::{MegaHertz, Nanos, Ratio};

/// Every transition-latency figure the paper quotes, computed from the
/// models: the analytical C1/C6 budgets (Fig. 3, Sec. 3) and both the
/// analytical and cycle-simulated C6A budgets (Fig. 6, Sec. 5.2).
#[derive(Debug, Clone)]
pub struct FlowLatencies {
    /// C1 entry + exit (software-dominated ~2 µs).
    pub c1_round_trip: Nanos,
    /// C6 entry at 800 MHz / 50% dirty (~87 µs).
    pub c6_entry: Nanos,
    /// C6 exit (~30 µs).
    pub c6_exit: Nanos,
    /// C6A analytical entry budget (< 20 ns).
    pub c6a_entry_budget: Nanos,
    /// C6A analytical exit budget (< 80 ns).
    pub c6a_exit_budget: Nanos,
    /// C6A entry measured by the cycle-level PMA FSM.
    pub c6a_entry_measured: Nanos,
    /// C6A exit measured by the cycle-level PMA FSM.
    pub c6a_exit_measured: Nanos,
    /// Transition-time speedup of C6A over C6 (the "up to 900×" claim).
    pub speedup_vs_c6: f64,
}

/// Computes all flow latencies.
///
/// # Examples
///
/// ```
/// let f = agilewatts::experiments::flow_latencies();
/// assert!(f.c6a_entry_measured.as_nanos() < 20.0);
/// assert!(f.c6a_exit_measured.as_nanos() < 80.0);
/// assert!(f.speedup_vs_c6 > 900.0);
/// ```
#[must_use]
pub fn flow_latencies() -> FlowLatencies {
    let c1 = C1Flow::new();
    // The paper's Table 1 C6 number is the worst case; use a slightly
    // dirtier cache than the 50% reference for the speedup headline.
    let c6 = C6Flow::new(MegaHertz::new(800.0), Ratio::new(0.6));
    let c6_ref = C6Flow::new(MegaHertz::new(800.0), Ratio::new(0.5));
    let c6a = C6AFlow::new();

    let mut fsm = PmaFsm::new_c6a();
    let entry_measured = fsm.run_entry().expect("fresh FSM is active").total();
    let exit_measured = fsm.run_exit().expect("idle core can exit").total();

    FlowLatencies {
        c1_round_trip: c1.entry_latency() + c1.exit_latency(),
        c6_entry: c6_ref.entry_latency(),
        c6_exit: c6_ref.exit_latency(),
        c6a_entry_budget: c6a.entry_latency(),
        c6a_exit_budget: c6a.exit_latency(),
        c6a_entry_measured: entry_measured,
        c6a_exit_measured: exit_measured,
        speedup_vs_c6: c6.transition_time() / (entry_measured + exit_measured),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budget_numbers() {
        let f = flow_latencies();
        assert!((1.8..2.2).contains(&f.c1_round_trip.as_micros()), "{}", f.c1_round_trip);
        assert!((85.0..90.0).contains(&f.c6_entry.as_micros()), "{}", f.c6_entry);
        assert!((28.0..32.0).contains(&f.c6_exit.as_micros()), "{}", f.c6_exit);
    }

    #[test]
    fn measured_within_budget() {
        let f = flow_latencies();
        assert!(f.c6a_entry_measured <= f.c6a_entry_budget);
        assert!(f.c6a_exit_measured <= f.c6a_exit_budget);
    }

    #[test]
    fn headline_speedup() {
        let f = flow_latencies();
        assert!(f.speedup_vs_c6 > 900.0, "{}", f.speedup_vs_c6);
        assert!(f.speedup_vs_c6 < 3_000.0, "{}", f.speedup_vs_c6);
    }
}
