//! Static trace labels for core states.
//!
//! Telemetry events carry `&'static str` labels so emission never
//! allocates. Transitional occupancies get their own labels
//! (`enter:C6A`, `exit:C6A`) so a Chrome-trace track shows the full
//! life cycle — active, entering, resident, waking — as distinct,
//! non-overlapping slices.

use aw_cstates::CState;

use crate::core::CoreState;

/// Per C-state, indexed by [`CState::depth`]: the resident, entry and
/// exit labels.
const LABELS: [[&str; 3]; CState::ALL.len()] = [
    ["C0", "enter:C0", "exit:C0"],
    ["C1", "enter:C1", "exit:C1"],
    ["C1E", "enter:C1E", "exit:C1E"],
    ["C6A", "enter:C6A", "exit:C6A"],
    ["C6AE", "enter:C6AE", "exit:C6AE"],
    ["C6", "enter:C6", "exit:C6"],
];

/// The label of a resident C-state.
#[must_use]
pub(crate) fn cstate_label(state: CState) -> &'static str {
    LABELS[usize::from(state.depth())][0]
}

/// The label of an entry transition into `state`.
#[must_use]
pub(crate) fn enter_label(state: CState) -> &'static str {
    LABELS[usize::from(state.depth())][1]
}

/// The label of an exit transition out of `state`.
#[must_use]
pub(crate) fn exit_label(state: CState) -> &'static str {
    LABELS[usize::from(state.depth())][2]
}

/// The trace label of a full core state (active, entering, idle, waking).
#[must_use]
pub(crate) fn core_state_label(state: CoreState) -> &'static str {
    match state {
        CoreState::Active => "C0",
        CoreState::Entering { target } => enter_label(target),
        CoreState::Idle { state } => cstate_label(state),
        CoreState::Waking { from } => exit_label(from),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_display() {
        for s in [CState::C0, CState::C1, CState::C1E, CState::C6A, CState::C6AE, CState::C6] {
            assert_eq!(cstate_label(s), s.to_string());
            assert_eq!(enter_label(s), format!("enter:{s}"));
            assert_eq!(exit_label(s), format!("exit:{s}"));
        }
    }

    #[test]
    fn core_states_have_distinct_labels() {
        let a = core_state_label(CoreState::Active);
        let b = core_state_label(CoreState::Entering { target: CState::C6A });
        let c = core_state_label(CoreState::Idle { state: CState::C6A });
        let d = core_state_label(CoreState::Waking { from: CState::C6A });
        assert_eq!(a, "C0");
        assert_eq!(b, "enter:C6A");
        assert_eq!(c, "C6A");
        assert_eq!(d, "exit:C6A");
    }
}
