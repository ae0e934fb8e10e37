//! Fleet-level fault specification, deterministic plan, and artifacts.
//!
//! Single-server faults ([`FaultSpec`](crate::FaultSpec)) perturb events
//! *inside* one machine; this module models the failures a datacenter
//! operator actually pages on: whole servers crashing and restarting,
//! unpark commands that never complete, links that silently add latency,
//! rack-scoped correlated outages, and thermally throttled capacity.
//!
//! Determinism contract: every draw in a [`FleetFaultPlan`] is a *pure*
//! function of `(seed, category, server, epoch)` through a splitmix64
//! finalizer — there is no stateful RNG stream to perturb — so the same
//! spec yields byte-identical plans regardless of evaluation order,
//! `--jobs` fan-out, or which other categories are enabled.

use std::fmt;

use aw_telemetry::json::JsonValue;
use aw_types::Nanos;

use crate::keys::{
    key_table, Count, CrashAt, Epochs, Factor, PositiveNs, Probability, Seed, MAX_STRETCH,
};

/// Default seed of the fleet fault draws when a spec does not pin one.
/// Distinct from [`DEFAULT_FAULT_SEED`](crate::DEFAULT_FAULT_SEED) so
/// fleet and per-core chaos stay decorrelated when both default.
pub(crate) const DEFAULT_FLEET_FAULT_SEED: u64 = 0x00F1_EE75;

/// Everything a deterministic fleet fault plan needs: a seed plus
/// per-category probabilities, durations, and magnitudes.
///
/// A spec round-trips through its `Display` form (`key=value` pairs,
/// comma-separated), which is what fleet failure artifacts embed so a
/// chaotic fleet run can be replayed exactly:
///
/// ```
/// use aw_faults::FleetFaultSpec;
///
/// let spec = FleetFaultSpec::parse("seed=7,crash=0.02,down-epochs=3").unwrap();
/// assert_eq!(FleetFaultSpec::parse(&spec.to_string()).unwrap(), spec);
/// assert!(spec.is_active());
/// assert!(!FleetFaultSpec::none().is_active());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultSpec {
    /// Seed of the fleet fault draws (independent of the workload seed).
    pub seed: u64,
    /// Probability per server per epoch that the server crashes: it
    /// serves a deterministic fraction of the epoch, goes dark for
    /// [`FleetFaultSpec::down_epochs`], then attempts a restart.
    pub crash: f64,
    /// Scheduled crashes as `(epoch, server)` pairs (the `crash-at=E:S`
    /// key, repeatable). Fire regardless of [`FleetFaultSpec::crash`].
    pub crash_at: Vec<(usize, usize)>,
    /// Full epochs a crashed server stays dark before its first restart
    /// attempt (>= 1).
    pub down_epochs: usize,
    /// Probability that one unpark / restart attempt fails and must be
    /// retried the next epoch. Applies to autoscaler unparks and to
    /// crash restarts alike.
    pub unpark_fail: f64,
    /// Probability per server per epoch that its link degrades, adding
    /// [`FleetFaultSpec::degrade_extra`] network latency to every
    /// request for [`FleetFaultSpec::degrade_epochs`].
    pub degrade: f64,
    /// Extra per-request network latency while a link is degraded.
    pub degrade_extra: Nanos,
    /// Full epochs one link-degradation episode lasts (>= 1).
    pub degrade_epochs: usize,
    /// Servers per rack for correlated outages (>= 1).
    pub rack_size: usize,
    /// Probability per *rack* per epoch that the whole rack crashes at
    /// once (correlated outage; same dark/restart cycle as `crash`).
    pub rack_outage: f64,
    /// Probability per server per epoch that its capacity throttles:
    /// every service time stretches by 1/[`FleetFaultSpec::throttle_factor`]
    /// for [`FleetFaultSpec::throttle_epochs`].
    pub throttle: f64,
    /// Remaining capacity fraction while throttled, in (0, 1].
    pub throttle_factor: f64,
    /// Full epochs one throttle episode lasts (>= 1).
    pub throttle_epochs: usize,
}

impl Default for FleetFaultSpec {
    fn default() -> Self {
        FleetFaultSpec {
            seed: DEFAULT_FLEET_FAULT_SEED,
            crash: 0.0,
            crash_at: Vec::new(),
            down_epochs: 2,
            unpark_fail: 0.0,
            degrade: 0.0,
            degrade_extra: Nanos::from_micros(200.0),
            degrade_epochs: 2,
            rack_size: 4,
            rack_outage: 0.0,
            throttle: 0.0,
            throttle_factor: 0.5,
            throttle_epochs: 2,
        }
    }
}

key_table!(FleetFaultSpec, "fleet fault" {
    "seed" => seed: Seed,
    "crash" => crash: Probability,
    "crash-at" => crash_at: CrashAt,
    "down-epochs" => down_epochs: Epochs,
    "unpark-fail" => unpark_fail: Probability,
    "degrade" => degrade: Probability,
    "degrade-ns" => degrade_extra: PositiveNs,
    "degrade-epochs" => degrade_epochs: Epochs,
    "rack-size" => rack_size: Count { max: None },
    "rack-outage" => rack_outage: Probability,
    "throttle" => throttle: Probability,
    "throttle-factor" => throttle_factor: Factor { lo: 1.0 / MAX_STRETCH, hi: 1.0 },
    "throttle-epochs" => throttle_epochs: Epochs,
});

impl FleetFaultSpec {
    /// The empty plan: no fleet faults are ever injected.
    #[must_use]
    pub fn none() -> Self {
        FleetFaultSpec::default()
    }
}

/// Per-category tags feeding the keyed draws. ASCII constants so the
/// streams are self-describing in a debugger; any fixed distinct values
/// work.
mod tag {
    pub(crate) const CRASH: u64 = 0x0000_0063_7261_7368; // "crash"
    pub(crate) const PHASE: u64 = 0x0000_0070_6861_7365; // "phase"
    pub(crate) const RACK: u64 = 0x0000_0000_7261_636b; // "rack"
    pub(crate) const UNPARK: u64 = 0x0000_756e_7061_726b; // "unpark"
    pub(crate) const DEGRADE: u64 = 0x0064_6567_7261_6465; // "degrade"
    pub(crate) const THROTTLE: u64 = 0x7468_726f_7474_6c65; // "throttle"
    pub(crate) const RETRY: u64 = 0x0000_0072_6574_7279; // "retry"
}

/// splitmix64-style finalizer over `(seed ^ tag, server, epoch)`.
fn mix(seed: u64, tag: u64, server: u64, epoch: u64) -> u64 {
    let mut z = (seed ^ tag)
        .wrapping_add(server.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(epoch.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in [0, 1) from the top 53 bits of the mixed key.
fn unit(seed: u64, tag: u64, server: u64, epoch: u64) -> f64 {
    (mix(seed, tag, server, epoch) >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded realization of a [`FleetFaultSpec`].
///
/// Unlike the single-server [`FaultPlan`](crate::FaultPlan) (stateful
/// per-category RNG streams consumed in event order), every fleet draw
/// is a pure function of `(seed, category, server, epoch)` — asking the
/// same question twice gives the same answer, and draws for different
/// servers or epochs can be evaluated in any order or in parallel
/// without perturbing each other. That is what makes fleet plans
/// byte-identical at any `--jobs`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFaultPlan {
    spec: FleetFaultSpec,
}

impl FleetFaultPlan {
    /// A plan realizing `spec`.
    #[must_use]
    pub fn new(spec: FleetFaultSpec) -> Self {
        FleetFaultPlan { spec }
    }

    /// The spec this plan realizes.
    #[must_use]
    pub fn spec(&self) -> &FleetFaultSpec {
        &self.spec
    }

    /// Does `server` crash at the start of epoch `epoch`? Scheduled
    /// `crash-at` entries fire unconditionally; otherwise a per-server
    /// per-epoch Bernoulli draw.
    #[must_use]
    pub fn crash_starts(&self, server: usize, epoch: usize) -> bool {
        if self.spec.crash_at.iter().any(|&(e, s)| e == epoch && s == server) {
            return true;
        }
        self.spec.crash > 0.0
            && unit(self.spec.seed, tag::CRASH, server as u64, epoch as u64) < self.spec.crash
    }

    /// Fraction of its crash epoch a crashing server serves before going
    /// dark, in [0.25, 0.9]. Deterministic per `(server, epoch)`.
    #[must_use]
    pub fn crash_phase(&self, server: usize, epoch: usize) -> f64 {
        0.25 + 0.65 * unit(self.spec.seed, tag::PHASE, server as u64, epoch as u64)
    }

    /// Does rack `rack` suffer a correlated outage at epoch `epoch`?
    #[must_use]
    pub fn rack_outage_starts(&self, rack: usize, epoch: usize) -> bool {
        self.spec.rack_outage > 0.0
            && unit(self.spec.seed, tag::RACK, rack as u64, epoch as u64) < self.spec.rack_outage
    }

    /// Does the unpark/restart attempt for `server` at `epoch` fail?
    #[must_use]
    pub fn unpark_fails(&self, server: usize, epoch: usize) -> bool {
        self.spec.unpark_fail > 0.0
            && unit(self.spec.seed, tag::UNPARK, server as u64, epoch as u64)
                < self.spec.unpark_fail
    }

    /// Does `server`'s link start degrading at epoch `epoch`?
    #[must_use]
    pub fn degrade_starts(&self, server: usize, epoch: usize) -> bool {
        self.spec.degrade > 0.0
            && unit(self.spec.seed, tag::DEGRADE, server as u64, epoch as u64) < self.spec.degrade
    }

    /// Does `server` start throttling at epoch `epoch`?
    #[must_use]
    pub fn throttle_starts(&self, server: usize, epoch: usize) -> bool {
        self.spec.throttle > 0.0
            && unit(self.spec.seed, tag::THROTTLE, server as u64, epoch as u64) < self.spec.throttle
    }

    /// Jittered-backoff split for traffic lost on `server` at `epoch`:
    /// the returned fraction retries in the next epoch, the remainder
    /// one epoch later. Uniform in [0.5, 1).
    #[must_use]
    pub fn retry_jitter(&self, server: usize, epoch: usize) -> f64 {
        0.5 + 0.5 * unit(self.spec.seed, tag::RETRY, server as u64, epoch as u64)
    }
}

/// What happened to a server (or rack) at a fleet epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetFaultKind {
    /// The server crashed mid-epoch.
    Crash,
    /// A whole rack crashed at once (the record's `server` field holds
    /// the rack index).
    RackOutage,
    /// A crashed server restarted and rejoined the fleet.
    Restart,
    /// A restart attempt failed; retried next epoch.
    RestartFailed,
    /// The router ejected the server from rotation.
    Eject,
    /// The router re-probed an ejected server (exponential backoff).
    Probe,
    /// A probe succeeded; the server was readmitted to rotation.
    Readmit,
    /// An autoscaler unpark attempt failed; the slot stayed dark.
    UnparkFailed,
    /// The server's link started adding per-request latency.
    DegradeStart,
    /// The link-degradation episode ended.
    DegradeEnd,
    /// The server's capacity throttled.
    ThrottleStart,
    /// The throttle episode ended.
    ThrottleEnd,
}

impl FleetFaultKind {
    /// Stable lowercase name, used in JSON artifacts and feeds.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FleetFaultKind::Crash => "crash",
            FleetFaultKind::RackOutage => "rack-outage",
            FleetFaultKind::Restart => "restart",
            FleetFaultKind::RestartFailed => "restart-failed",
            FleetFaultKind::Eject => "eject",
            FleetFaultKind::Probe => "probe",
            FleetFaultKind::Readmit => "readmit",
            FleetFaultKind::UnparkFailed => "unpark-failed",
            FleetFaultKind::DegradeStart => "degrade-start",
            FleetFaultKind::DegradeEnd => "degrade-end",
            FleetFaultKind::ThrottleStart => "throttle-start",
            FleetFaultKind::ThrottleEnd => "throttle-end",
        }
    }
}

impl fmt::Display for FleetFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One fleet fault event: what happened, where, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetFaultRecord {
    /// Epoch index the event fired at.
    pub epoch: usize,
    /// Server index (rack index for [`FleetFaultKind::RackOutage`]).
    pub server: usize,
    /// What happened.
    pub kind: FleetFaultKind,
}

impl fmt::Display for FleetFaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kind == FleetFaultKind::RackOutage {
            write!(f, "epoch {} rack {}: {}", self.epoch, self.server, self.kind)
        } else {
            write!(f, "epoch {} server {}: {}", self.epoch, self.server, self.kind)
        }
    }
}

/// A replayable record of a chaotic fleet run: the fleet seed, the
/// canonical fleet fault spec, and every fault event that fired.
///
/// Unlike [`FailureArtifact`](crate::FailureArtifact) this does not mean
/// something went *wrong* — it is the flight recorder of an intentional
/// chaos run, carrying exactly the flags that reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFailureArtifact {
    /// The fleet simulation (workload) seed.
    pub seed: u64,
    /// Canonical fleet fault spec string ([`FleetFaultSpec`] `Display`).
    pub fleet_spec: String,
    /// Every fleet fault event, in epoch-then-server order.
    pub events: Vec<FleetFaultRecord>,
}

impl FleetFailureArtifact {
    /// Builds the artifact for a run under `spec` with fleet seed `seed`.
    #[must_use]
    pub fn new(seed: u64, spec: &FleetFaultSpec, events: Vec<FleetFaultRecord>) -> Self {
        FleetFailureArtifact { seed, fleet_spec: spec.to_string(), events }
    }

    /// Compact JSON rendering, suitable for logs and replay tooling.
    #[must_use]
    pub fn to_json(&self) -> String {
        let events = self
            .events
            .iter()
            .map(|e| {
                JsonValue::obj(vec![
                    ("epoch", JsonValue::UInt(e.epoch as u64)),
                    ("server", JsonValue::UInt(e.server as u64)),
                    ("kind", JsonValue::str(e.kind.name())),
                ])
            })
            .collect();
        JsonValue::obj(vec![
            ("seed", JsonValue::UInt(self.seed)),
            ("fleet_spec", JsonValue::str(&self.fleet_spec)),
            ("events", JsonValue::Array(events)),
        ])
        .render()
    }

    /// The CLI flags that replay this exact fleet run.
    #[must_use]
    pub fn replay_hint(&self) -> String {
        format!("--seed {} --fleet-faults '{}'", self.seed, self.fleet_spec)
    }
}

impl fmt::Display for FleetFailureArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} fleet fault event(s) under seed {} fleet-faults '{}':",
            self.events.len(),
            self.seed,
            self.fleet_spec
        )?;
        for e in &self.events {
            writeln!(f, "  - {e}")?;
        }
        write!(f, "replay with: {}", self.replay_hint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_none_parse_to_inactive() {
        assert_eq!(FleetFaultSpec::parse("").unwrap(), FleetFaultSpec::none());
        assert_eq!(FleetFaultSpec::parse("none").unwrap(), FleetFaultSpec::none());
        assert!(!FleetFaultSpec::none().is_active());
    }

    #[test]
    fn full_spec_parses() {
        let s = FleetFaultSpec::parse(
            "seed=9,crash=0.1,crash-at=3:1,crash-at=5:0,down-epochs=4,unpark-fail=0.2,\
             degrade=0.05,degrade-ns=5e5,degrade-epochs=3,rack-size=8,rack-outage=0.01,\
             throttle=0.15,throttle-factor=0.25,throttle-epochs=5",
        )
        .unwrap();
        assert_eq!(s.seed, 9);
        assert_eq!(s.crash, 0.1);
        assert_eq!(s.crash_at, vec![(3, 1), (5, 0)]);
        assert_eq!(s.down_epochs, 4);
        assert_eq!(s.degrade_extra, Nanos::new(5e5));
        assert_eq!(s.rack_size, 8);
        assert_eq!(s.throttle_factor, 0.25);
        assert!(s.is_active());
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "",
            "seed=3",
            "crash=0.25",
            "crash-at=2:0,crash-at=2:1,down-epochs=1",
            "seed=1,crash=1,crash-at=0:0,down-epochs=3,unpark-fail=0.5,degrade=0.9,\
             degrade-ns=1000,degrade-epochs=1,rack-size=2,rack-outage=0.125,\
             throttle=0.75,throttle-factor=0.1,throttle-epochs=4",
        ] {
            let spec = FleetFaultSpec::parse(text).unwrap();
            assert_eq!(FleetFaultSpec::parse(&spec.to_string()).unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn rejects_bad_values() {
        assert!(FleetFaultSpec::parse("crash=1.5").is_err());
        assert!(FleetFaultSpec::parse("crash=-0.1").is_err());
        assert!(FleetFaultSpec::parse("crash-at=3").is_err());
        assert!(FleetFaultSpec::parse("crash-at=a:b").is_err());
        assert!(FleetFaultSpec::parse("down-epochs=0").is_err());
        assert!(FleetFaultSpec::parse("degrade-ns=0").is_err());
        assert!(FleetFaultSpec::parse("degrade-ns=-5").is_err());
        assert!(FleetFaultSpec::parse("degrade-epochs=0").is_err());
        assert!(FleetFaultSpec::parse("rack-size=0").is_err());
        assert!(FleetFaultSpec::parse("throttle-factor=0").is_err());
        assert!(FleetFaultSpec::parse("throttle-factor=1.1").is_err());
        assert!(FleetFaultSpec::parse("throttle-epochs=0").is_err());
        assert!(FleetFaultSpec::parse("frobnicate=1").is_err());
        assert!(FleetFaultSpec::parse("crash").is_err());
    }

    /// A throttle so deep that 1/factor overflows the stretched service
    /// times used to panic the run; a thousandfold stretch still parses.
    #[test]
    fn rejects_a_throttle_that_overflows_service_times() {
        assert_eq!(
            FleetFaultSpec::parse("throttle-factor=5e-324,throttle=1").unwrap_err().0,
            "throttle-factor must be in [1e-3, 1], got 5e-324"
        );
        assert_eq!(FleetFaultSpec::parse("throttle-factor=1e-3").unwrap().throttle_factor, 1e-3);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let s = FleetFaultSpec::parse(" crash = 0.5 , rack-outage = 0.1 ").unwrap();
        assert_eq!(s.crash, 0.5);
        assert_eq!(s.rack_outage, 0.1);
    }

    #[test]
    fn draws_are_pure_and_order_independent() {
        let plan = FleetFaultPlan::new(FleetFaultSpec::parse("seed=7,crash=0.3").unwrap());
        // The same question twice gives the same answer, and asking about
        // (s=1, e=2) first does not change the answer for (s=0, e=0).
        let first = plan.crash_starts(0, 0);
        let _ = plan.crash_starts(1, 2);
        assert_eq!(plan.crash_starts(0, 0), first);
        assert_eq!(
            plan.crash_phase(4, 9).to_bits(),
            FleetFaultPlan::new(FleetFaultSpec::parse("seed=7,crash=0.3").unwrap())
                .crash_phase(4, 9)
                .to_bits()
        );
    }

    #[test]
    fn categories_are_decorrelated() {
        // With every probability at 0.5, the per-category draws for the
        // same (server, epoch) must not be copies of one another.
        let plan = FleetFaultPlan::new(
            FleetFaultSpec::parse("crash=0.5,unpark-fail=0.5,degrade=0.5,throttle=0.5").unwrap(),
        );
        let mut disagreements = 0;
        for s in 0..16 {
            for e in 0..16 {
                let c = plan.crash_starts(s, e);
                if c != plan.unpark_fails(s, e)
                    || c != plan.degrade_starts(s, e)
                    || c != plan.throttle_starts(s, e)
                {
                    disagreements += 1;
                }
            }
        }
        assert!(disagreements > 64, "category draws look correlated: {disagreements}/256");
    }

    #[test]
    fn scheduled_crash_fires_without_probability() {
        let plan = FleetFaultPlan::new(FleetFaultSpec::parse("crash-at=6:0").unwrap());
        assert!(plan.crash_starts(0, 6));
        assert!(!plan.crash_starts(0, 5));
        assert!(!plan.crash_starts(1, 6));
        let phase = plan.crash_phase(0, 6);
        assert!((0.25..=0.9).contains(&phase));
    }

    #[test]
    fn retry_jitter_is_bounded() {
        let plan = FleetFaultPlan::new(FleetFaultSpec::parse("crash=0.5").unwrap());
        for s in 0..8 {
            for e in 0..8 {
                let j = plan.retry_jitter(s, e);
                assert!((0.5..1.0).contains(&j), "jitter {j} out of range");
            }
        }
    }

    #[test]
    fn artifact_renders_json_and_replay_hint() {
        let spec = FleetFaultSpec::parse("seed=5,crash-at=2:1").unwrap();
        let events = vec![
            FleetFaultRecord { epoch: 2, server: 1, kind: FleetFaultKind::Crash },
            FleetFaultRecord { epoch: 5, server: 1, kind: FleetFaultKind::Restart },
        ];
        let a = FleetFailureArtifact::new(42, &spec, events);
        let json = a.to_json();
        assert!(json.starts_with("{\"seed\":42,"));
        assert!(json.contains("\"kind\":\"crash\""));
        assert!(json.contains("\"kind\":\"restart\""));
        assert!(a.replay_hint().contains("--fleet-faults 'seed=5,crash-at=2:1'"));
        assert!(a.to_string().contains("replay with:"));
        assert_eq!(FleetFaultSpec::parse(&a.fleet_spec).unwrap(), spec);
    }
}
