//! Runtime invariant checking and the replayable failure artifact.

use std::fmt;

use aw_telemetry::json::JsonValue;

/// Accumulates invariant violations during a run.
///
/// The simulator calls [`InvariantChecker::check`] at the points where a
/// structural invariant must hold (residencies sum to the run duration,
/// attribution phases sum to the sojourn, FSM transitions are legal).
/// Violations are collected rather than panicking immediately so that a
/// single run can report everything that went wrong, packaged into a
/// [`FailureArtifact`] that carries the seed and fault plan needed to
/// replay the exact failing run.
#[derive(Debug, Default, Clone)]
pub struct InvariantChecker {
    violations: Vec<String>,
}

impl InvariantChecker {
    /// A checker with no recorded violations.
    #[must_use]
    pub fn new() -> Self {
        InvariantChecker::default()
    }

    /// Records a violation if `ok` is false. The message closure is only
    /// evaluated on failure, so hot-path checks stay cheap.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(message());
        }
    }

    /// `true` if no invariant has been violated so far.
    #[must_use]
    pub(crate) fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Consumes the checker, returning the violation list.
    #[must_use]
    pub(crate) fn into_violations(self) -> Vec<String> {
        self.violations
    }
}

/// A structured description of a run that violated its invariants.
///
/// Carries everything needed to replay the failing run exactly: the
/// workload seed and the canonical fault-spec string (which embeds the
/// fault seed). `to_json` produces a small self-contained record that
/// can be pasted back into `--seed`/`--faults` flags.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureArtifact {
    /// The simulation (workload) seed.
    pub seed: u64,
    /// Canonical fault spec string (`FaultSpec` `Display` output), or
    /// `"none"` when no faults were injected.
    pub fault_spec: String,
    /// Every invariant violation detected, in order.
    pub violations: Vec<String>,
}

impl FailureArtifact {
    /// Builds an artifact; returns `None` when there are no violations.
    #[must_use]
    pub fn from_checker(
        checker: InvariantChecker,
        seed: u64,
        fault_spec: impl Into<String>,
    ) -> Option<Self> {
        if checker.is_ok() {
            return None;
        }
        Some(FailureArtifact {
            seed,
            fault_spec: fault_spec.into(),
            violations: checker.into_violations(),
        })
    }

    /// Compact JSON rendering, suitable for logs and bug reports.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonValue::obj(vec![
            ("seed", JsonValue::UInt(self.seed)),
            ("fault_spec", JsonValue::str(&self.fault_spec)),
            ("violations", JsonValue::Array(self.violations.iter().map(JsonValue::str).collect())),
        ])
        .render()
    }

    /// The CLI flags that replay this exact run.
    #[must_use]
    pub(crate) fn replay_hint(&self) -> String {
        format!("--seed {} --faults '{}'", self.seed, self.fault_spec)
    }
}

impl fmt::Display for FailureArtifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "invariant violation(s) under seed {} faults '{}':",
            self.seed, self.fault_spec
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        write!(f, "replay with: {}", self.replay_hint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_checker_yields_no_artifact() {
        let mut c = InvariantChecker::new();
        c.check(true, || unreachable!("must not be evaluated"));
        assert!(c.is_ok());
        assert!(FailureArtifact::from_checker(c, 1, "none").is_none());
    }

    #[test]
    fn violations_are_collected_in_order() {
        let mut c = InvariantChecker::new();
        c.check(false, || "first".to_string());
        c.check(false, || "second".to_string());
        assert!(!c.is_ok());
        assert_eq!(c.into_violations(), ["first", "second"]);
    }

    #[test]
    fn artifact_renders_json_and_replay_hint() {
        let mut c = InvariantChecker::new();
        c.check(false, || "residency \"gap\" of 3ns".to_string());
        let a = FailureArtifact::from_checker(c, 42, "seed=7,wake-fail=0.5").unwrap();
        let json = a.to_json();
        assert!(json.starts_with("{\"seed\":42,"));
        assert!(json.contains("\\\"gap\\\""));
        assert!(a.replay_hint().contains("--seed 42"));
        assert!(a.to_string().contains("replay with:"));
    }
}
