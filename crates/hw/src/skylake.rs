//! The Intel Skylake-SP instance (paper Table 1; Schöne et al.,
//! *Energy Efficiency Features of the Intel Skylake-SP Processor*).
//!
//! Every constant here is pinned byte-identical to the values the
//! workspace was originally calibrated with: the `aw-cstates` unit tests
//! check these catalogs against paper Table 1, and the CLI golden tests
//! pin the end-to-end output. Per-parameter sources are tabulated in
//! DESIGN §16.

use aw_cstates::{CState, CStateCatalog, CStateParams};
use aw_types::{MegaHertz, MilliWatts, Nanos};

use crate::model::{HardwareModel, RetentionPoint};
use crate::uncore::UncorePower;

pub(crate) fn model() -> HardwareModel {
    let mut base = CStateCatalog::empty();
    for p in [
        CStateParams {
            state: CState::C0,
            transition_time: Nanos::ZERO,
            entry_latency: Nanos::ZERO,
            exit_latency: Nanos::ZERO,
            target_residency: Nanos::ZERO,
            power_p1: MilliWatts::from_watts(4.0),
            power_pn: MilliWatts::from_watts(1.0),
            hw_exit: Nanos::ZERO,
        },
        CStateParams {
            state: CState::C1,
            transition_time: Nanos::from_micros(2.0),
            entry_latency: Nanos::from_micros(1.0),
            exit_latency: Nanos::from_micros(1.0),
            target_residency: Nanos::from_micros(2.0),
            power_p1: MilliWatts::from_watts(1.44),
            power_pn: MilliWatts::from_watts(0.88),
            hw_exit: Nanos::new(5.0),
        },
        CStateParams {
            state: CState::C1E,
            transition_time: Nanos::from_micros(10.0),
            entry_latency: Nanos::from_micros(5.0),
            exit_latency: Nanos::from_micros(5.0),
            target_residency: Nanos::from_micros(20.0),
            power_p1: MilliWatts::from_watts(0.88),
            power_pn: MilliWatts::from_watts(0.88),
            hw_exit: Nanos::new(5.0),
        },
        CStateParams {
            state: CState::C6,
            transition_time: Nanos::from_micros(133.0),
            entry_latency: Nanos::from_micros(103.0),
            exit_latency: Nanos::from_micros(30.0),
            target_residency: Nanos::from_micros(600.0),
            power_p1: MilliWatts::from_watts(0.1),
            power_pn: MilliWatts::from_watts(0.1),
            hw_exit: Nanos::from_micros(30.0),
        },
    ] {
        base.set_params(p);
    }

    HardwareModel {
        name: "skylake-sp",
        vendor: "Intel Skylake-SP (Xeon 4114-class)",
        base_freq: MegaHertz::from_ghz(2.2),
        turbo_freq: MegaHertz::from_ghz(3.0),
        scal_freqs: (2.0, 2.2),
        base,
        // Table 1 headline retention powers (midpoints of Table 3's
        // 290–315 mW and 227–243 mW ranges) and the Sec. 5.2.2 flow
        // latencies.
        retention: vec![
            RetentionPoint {
                state: CState::C6A,
                hw_exit: Nanos::new(80.0),
                power: MilliWatts::new(302.5),
            },
            RetentionPoint {
                state: CState::C6AE,
                hw_exit: Nanos::new(100.0),
                power: MilliWatts::new(235.0),
            },
        ],
        uncore: UncorePower::skylake(),
        // Package-wide inclusive L3: no CCX topology.
        ccx: None,
    }
}
