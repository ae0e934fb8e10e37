//! Fuzzing the fault-spec grammars with hostile input.
//!
//! Specs arrive from the command line, so `FaultSpec::parse` and
//! `FleetFaultSpec::parse` see whatever a user types. Strings assembled
//! from `key=value` fragments (known and unknown keys, duplicates,
//! malformed pairs) with hostile values (NaN, ±inf, 1e308, 5e-324,
//! empty, huge integers) must never panic; every spec that parses must
//! lie in the documented ranges a run relies on; and every spec that
//! parses must round-trip through its `Display` form, which is what
//! failure artifacts replay.

use aw_faults::{FaultSpec, FleetFaultSpec};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

const SERVER_KEYS: [&str; 14] = [
    "seed",
    "wake-fail",
    "wake-retries",
    "relock",
    "relock-ns",
    "drowsy",
    "lost-wake",
    "lost-ns",
    "spurious",
    "storm",
    "storm-size",
    "slowdown",
    "slow-factor",
    "slow-ms",
];

const FLEET_KEYS: [&str; 13] = [
    "seed",
    "crash",
    "crash-at",
    "down-epochs",
    "unpark-fail",
    "degrade",
    "degrade-ns",
    "degrade-epochs",
    "rack-size",
    "rack-outage",
    "throttle",
    "throttle-factor",
    "throttle-epochs",
];

/// The key lists above are this fuzz's own oracle; they must be exactly
/// the grammars' key tables, in table order, or the fuzz is not
/// exercising every key.
#[test]
fn oracle_key_lists_match_the_key_tables() {
    assert_eq!(SERVER_KEYS.as_slice(), FaultSpec::KEYS);
    assert_eq!(FLEET_KEYS.as_slice(), FleetFaultSpec::KEYS);
}

/// Keys neither grammar knows, or knows only in another spelling.
const UNKNOWN_KEYS: [&str; 5] = ["frobnicate", "", "SEED", "none", "storm size"];

const VALUES: [&str; 40] = [
    "NaN",
    "nan",
    "-NaN",
    "inf",
    "+inf",
    "-inf",
    "infinity",
    "1e308",
    "-1e308",
    "1.7976931348623157e308",
    "5e-324",
    "-5e-324",
    "1e-300",
    "",
    " ",
    "0",
    "-0",
    "0.0",
    "1",
    "0.5",
    "1e-6",
    "9.99e-7",
    "1e9",
    "1.000001e9",
    "1e3",
    "1000.0001",
    "1e-3",
    "0.000999",
    "8",
    "9",
    "2",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "3:4",
    "1:",
    ":2",
    "abc",
    "1e1000",
];

/// A spec string: `key=value` fragments from `keys`, unknown keys and
/// malformed pairs, joined by commas with random padding; sometimes
/// empty or `none`.
fn hostile_spec(keys: &[&'static str], rng: &mut TestRng) -> String {
    match rng.below(20) {
        0 => return String::new(),
        1 => return "none".to_string(),
        _ => {}
    }
    let pick = |options: &[&'static str], rng: &mut TestRng| {
        options[rng.below(options.len() as u64) as usize]
    };
    let pad = |rng: &mut TestRng| if rng.below(6) == 0 { " " } else { "" };
    let fragments = 1 + rng.below(6);
    let mut spec = String::new();
    for i in 0..fragments {
        if i > 0 {
            spec.push(',');
        }
        let key = if rng.below(12) == 0 { pick(&UNKNOWN_KEYS, rng) } else { pick(keys, rng) };
        let value = if rng.below(3) == 0 {
            format!("{}", rng.uniform() * 10f64.powi(rng.below(24) as i32 - 12))
        } else {
            pick(&VALUES, rng).to_string()
        };
        match rng.below(16) {
            // A pair without `=`, or with a doubled one.
            0 => spec.push_str(key),
            1 => spec.push_str(&format!("{key}=={value}")),
            _ => spec.push_str(&format!(
                "{}{key}{}={}{value}{}",
                pad(rng),
                pad(rng),
                pad(rng),
                pad(rng)
            )),
        }
    }
    if rng.below(10) == 0 {
        spec.push(',');
    }
    spec
}

fn is_prob(p: f64) -> bool {
    (0.0..=1.0).contains(&p)
}

fn is_rate(r: f64) -> bool {
    r == 0.0 || (1e-6..=1e9).contains(&r)
}

fn assert_in_range(spec: &FaultSpec, text: &str) {
    for (name, p) in [
        ("wake-fail", spec.wake_fail),
        ("relock", spec.relock),
        ("drowsy", spec.drowsy),
        ("lost-wake", spec.lost_wake),
    ] {
        assert!(is_prob(p), "{name} = {p} from `{text}`");
    }
    for (name, r) in [
        ("spurious", spec.spurious_rate),
        ("storm", spec.storm_rate),
        ("slowdown", spec.slowdown_rate),
    ] {
        assert!(is_rate(r), "{name} = {r} from `{text}`");
    }
    for (name, d) in [
        ("relock-ns", spec.relock_extra),
        ("lost-ns", spec.lost_wake_delay),
        ("slow-ms", spec.slowdown_duration),
    ] {
        assert!(d.is_finite() && d.as_nanos() > 0.0, "{name} = {d} from `{text}`");
    }
    assert!((1..=8).contains(&spec.wake_retries), "wake-retries from `{text}`");
    assert!(spec.storm_size >= 1, "storm-size from `{text}`");
    assert!((1.0..=1e3).contains(&spec.slowdown_factor), "slow-factor from `{text}`");
}

fn assert_fleet_in_range(spec: &FleetFaultSpec, text: &str) {
    for (name, p) in [
        ("crash", spec.crash),
        ("unpark-fail", spec.unpark_fail),
        ("degrade", spec.degrade),
        ("rack-outage", spec.rack_outage),
        ("throttle", spec.throttle),
    ] {
        assert!(is_prob(p), "{name} = {p} from `{text}`");
    }
    for (name, n) in [
        ("down-epochs", spec.down_epochs),
        ("degrade-epochs", spec.degrade_epochs),
        ("throttle-epochs", spec.throttle_epochs),
        ("rack-size", spec.rack_size),
    ] {
        assert!(n >= 1, "{name} = {n} from `{text}`");
    }
    let extra = spec.degrade_extra;
    assert!(extra.is_finite() && extra.as_nanos() > 0.0, "degrade-ns = {extra} from `{text}`");
    assert!((1e-3..=1.0).contains(&spec.throttle_factor), "throttle-factor from `{text}`");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn server_fault_specs_parse_in_range_and_round_trip(
        text in Just(()).prop_perturb(|(), mut rng| hostile_spec(&SERVER_KEYS, &mut rng))
    ) {
        if let Ok(spec) = FaultSpec::parse(&text) {
            assert_in_range(&spec, &text);
            let canonical = spec.to_string();
            prop_assert_eq!(FaultSpec::parse(&canonical), Ok(spec), "`{}` -> `{}`", text, canonical);
        }
    }

    #[test]
    fn fleet_fault_specs_parse_in_range_and_round_trip(
        text in Just(()).prop_perturb(|(), mut rng| hostile_spec(&FLEET_KEYS, &mut rng))
    ) {
        if let Ok(spec) = FleetFaultSpec::parse(&text) {
            assert_fleet_in_range(&spec, &text);
            let canonical = spec.to_string();
            prop_assert_eq!(
                FleetFaultSpec::parse(&canonical),
                Ok(spec),
                "`{}` -> `{}`",
                text,
                canonical
            );
        }
    }
}
