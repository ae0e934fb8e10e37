//! Break-even oracle: for each adjacent pair of idle states in the
//! Skylake-SP and Zen 2 catalogs, the interval length at which the deeper
//! state starts to pay off is derived by hand from the catalog's
//! latencies and powers, and `BreakEven::optimal` must switch there.
//!
//! With active power `P0`, a state `s` has budget `b_s` (entry + exit),
//! resident power `r_s` and ramp power `(P0 + r_s) / 2`. An interval of
//! length `t` costs `ramp_s · min(t, b_s) + r_s · max(t − b_s, 0)`, and a
//! state whose budget exceeds `t` is no candidate. For a shallower `a`
//! and a deeper `d` (`r_d < r_a`), the switch is either
//!
//! * at `b_d`, when `d` already costs less than `a` the moment it fits;
//!   the switch is then exact, so the float below `b_d` keeps `a`; or
//! * where the two fully resident lines cross:
//!   `t× = ((P0 − r_d)·b_d − (P0 − r_a)·b_a) / (2·(r_a − r_d))`.
//!   Skylake-SP's C1 → C1E, for instance, is
//!   `(3120 mW · 10 µs − 2560 mW · 2 µs) / (2 · 560 mW) ≈ 23.29 µs`.
//!   The model's energies are rounded floats, so its switch can sit a few
//!   floats off the real root: by at most `δ`, the rounding error of the
//!   two energies (16 ε relative, ε = 2⁻⁵³) divided by the slope of their
//!   difference, `r_a − r_d`.
//!
//! The test prices nothing through the model: it reads the catalog and
//! calls only `optimal`.

use aw_cstates::{CState, CStateCatalog, FreqLevel};
use aw_server::HardwareModel;
use aw_sleep::BreakEven;
use aw_types::Nanos;

/// Budget (ns) and resident power (mW) of `s`, straight from the catalog.
fn state(cat: &CStateCatalog, s: CState) -> (f64, f64) {
    let p = cat.params(s);
    ((p.entry_latency + p.exit_latency).as_nanos(), p.power(FreqLevel::P1).as_milliwatts())
}

fn next_down(x: f64) -> f64 {
    f64::from_bits(x.to_bits() - 1)
}

#[test]
fn optimal_switches_state_at_the_hand_derived_break_even() {
    let mut crossings = 0;
    for hw in [HardwareModel::skylake_sp(), HardwareModel::zen2()] {
        let cat = hw.catalog();
        let p0 = cat.power(CState::C0, FreqLevel::P1).as_milliwatts();
        let idle: Vec<CState> = cat.states().into_iter().filter(|s| s.is_idle()).collect();
        assert!(idle.len() >= 3, "{}: {idle:?}", hw.name);
        for pair in idle.windows(2) {
            let (a, d) = (pair[0], pair[1]);
            let ((b_a, r_a), (b_d, r_d)) = (state(&cat, a), state(&cat, d));
            assert!(r_d < r_a, "{} {d} must idle below {a}", hw.name);
            let model = BreakEven::new(&cat, &[a, d]);
            let optimal = |t: f64| model.optimal(Nanos::new(t), a);
            let ramp = |r: f64| (p0 + r) / 2.0;
            // Each state's cost at `t = b_d`, where `d` first fits.
            let cost_a = ramp(r_a) * b_d.min(b_a) + r_a * (b_d - b_a).max(0.0);
            let cost_d = ramp(r_d) * b_d;
            if cost_d < cost_a {
                assert_eq!(optimal(next_down(b_d)), a, "{} {a}→{d} below b_d", hw.name);
                assert_eq!(optimal(b_d), d, "{} {a}→{d} at b_d = {b_d}", hw.name);
            } else {
                let cross = ((p0 - r_d) * b_d - (p0 - r_a) * b_a) / (2.0 * (r_a - r_d));
                assert!(cross >= b_a.max(b_d), "{} {a}→{d}: both must be resident", hw.name);
                let energy = ramp(r_a) * b_a + r_a * (cross - b_a);
                let delta = 16.0 * f64::EPSILON / 2.0 * energy / (r_a - r_d);
                assert!(delta < cross * 1e-12, "{} {a}→{d}: bracket {delta} ns", hw.name);
                assert_eq!(optimal(cross - delta), a, "{} {a}→{d} below {cross}", hw.name);
                assert_eq!(optimal(cross + delta), d, "{} {a}→{d} above {cross}", hw.name);
                crossings += 1;
            }
        }
    }
    // Both kinds of switch occur in the two catalogs.
    assert!(crossings > 0 && crossings < 6, "{crossings} crossings");
}
