//! Property-based tests of the PMA microarchitecture invariants.

use aw_pma::{
    CacheSleepController, DaisyChain, FlowTrace, PmaFsm, RetentionSignal, SleepSetting, SrpgBank,
    Ufpg, WakePolicy,
};
use aw_types::Nanos;
use proptest::prelude::*;

/// The trace oracle: each step starts where the previous one ended.
fn is_contiguous(trace: &FlowTrace) -> bool {
    trace
        .steps()
        .windows(2)
        .all(|w| ((w[0].start + w[0].duration) - w[1].start).as_nanos().abs() < 1e-9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any well-formed save/restore sequence preserves arbitrary context.
    #[test]
    fn srpg_round_trips_any_value(value: u64, rounds in 1usize..20) {
        let mut bank = SrpgBank::default();
        bank.write(value);
        for _ in 0..rounds {
            bank.save();
            prop_assert_eq!(bank.read(), None);
            bank.restore();
            prop_assert_eq!(bank.read(), Some(value));
        }
        prop_assert!(!bank.is_corrupted());
    }

    /// Any sequence that gates power without retention first loses state
    /// and is detected.
    #[test]
    fn srpg_detects_protocol_violation(value: u64) {
        let mut bank = SrpgBank::default();
        bank.write(value);
        bank.apply(RetentionSignal::Pwr(false));
        bank.apply(RetentionSignal::Pwr(true));
        prop_assert!(bank.is_corrupted());
        prop_assert_eq!(bank.read(), None);
    }

    /// Chain in-rush: charge scales with area, peak scales with
    /// area/wake-time, for any parameters.
    #[test]
    fn chain_current_scaling(cells in 1u32..100, area in 0.05f64..20.0, wake_ns in 0.5f64..200.0) {
        let chain = DaisyChain::new(cells, area, Nanos::new(wake_ns));
        let p = chain.wake_profile(Nanos::ZERO);
        prop_assert!((p.charge() - area * 15.0).abs() < 1e-6 * (1.0 + area * 15.0));
        prop_assert!((p.peak() - area / wake_ns * 15.0).abs() < 1e-9 * (1.0 + p.peak()));
    }

    /// Staggered wake never exceeds the single-zone peak and always
    /// delivers the full charge, for any zone split.
    #[test]
    fn staggered_invariants(zones in 1usize..16, area in 0.5f64..20.0, cells in 1u32..64) {
        let ufpg = Ufpg::with_zones(zones, area, cells);
        let w = ufpg.wake(WakePolicy::Staggered);
        let single_zone_peak =
            ufpg.zones()[0].chain.wake_profile(Nanos::ZERO).peak();
        prop_assert!(w.peak_current() <= single_zone_peak + 1e-9);
        prop_assert!((w.profile.charge() - area * 15.0).abs() < 1e-6 * (1.0 + area));
        // Latency equals area at the reference rate regardless of split.
        prop_assert!((w.latency.as_nanos() - area * 15.0).abs() < 1e-6);
    }

    /// The FSM's entry/exit budgets hold for any interleaving of snoops
    /// and waits, and context always survives.
    #[test]
    fn fsm_budgets_hold_under_any_schedule(
        value: u64,
        script in prop::collection::vec((0u8..3, 1u32..8), 0..24),
    ) {
        let mut fsm = PmaFsm::new_c6ae();
        fsm.write_context(value);
        let entry = fsm.run_entry().unwrap();
        prop_assert!(entry.total().as_nanos() < 20.0);
        prop_assert!(is_contiguous(&entry));
        for (op, n) in script {
            match op {
                0 => {
                    let t = fsm.run_snoop(n).unwrap();
                    prop_assert!(is_contiguous(&t));
                }
                1 => fsm.wait(Nanos::from_micros(f64::from(n))),
                _ => {
                    let exit = fsm.run_exit().unwrap();
                    prop_assert!(exit.total().as_nanos() < 80.0);
                    prop_assert!(is_contiguous(&exit));
                    prop_assert_eq!(fsm.read_context(), Some(value));
                    let e2 = fsm.run_entry().unwrap();
                    prop_assert!(e2.total().as_nanos() < 20.0);
                    prop_assert!(is_contiguous(&e2));
                }
            }
        }
        let exit = fsm.run_exit().unwrap();
        prop_assert!(is_contiguous(&exit));
        prop_assert_eq!(fsm.read_context(), Some(value));
    }

    /// Deeper sleep settings never leak more, across the full range.
    #[test]
    fn sleep_settings_monotone(a in 1u8..=7, b in 1u8..=7) {
        let sa = SleepSetting::new(a).unwrap();
        let sb = SleepSetting::new(b).unwrap();
        if a <= b {
            prop_assert!(sa.leakage_fraction().get() >= sb.leakage_fraction().get());
        }
    }

    /// Snoop burst latency is affine in the burst size.
    #[test]
    fn snoop_latency_affine(count in 1u32..64) {
        let mut c = CacheSleepController::skylake();
        c.enter_sleep();
        let lat = c.serve_snoops(count);
        // 2 cy wake (4 ns) + count × 20 ns + 3 cy re-sleep (6 ns).
        let expect = 10.0 + 20.0 * f64::from(count);
        prop_assert!((lat.as_nanos() - expect).abs() < 1e-9);
        prop_assert_eq!(c.snoops_served(), u64::from(count));
    }
}
